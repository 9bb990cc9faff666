"""Distances between rooted trees fully labelled by the same label set.

Three distance notions are provided, each with a verified, replayable
witness: link-and-cut distance (topology moves only), permutation
distance (relabellings only, defined for isomorphic trees) and the
combined rearrangement distance (exact oracle, budgeted search and a
4-approximation for binary trees).
"""

from .tree import (
    LabelledTree,
    TreeError,
    ParseError,
    DuplicateLabelError,
    BadLabelError,
    StructureError,
    UnknownLabelError,
    parse_tree,
    serialize_tree,
    are_congruent,
)
from .ops import (
    LinkCutOp,
    Permutation,
    OperationSequence,
    OperationError,
    WrongParentError,
    DescendantTargetError,
    apply_linkcut,
    apply_permutation,
    replay_sequence,
    parse_script,
    format_script,
)
from .linkcut import (
    FamilyPartition,
    MovementsGraph,
    LabelSetMismatchError,
    RootMismatchError,
    active_set,
    family_partition,
    linkcut_distance,
    linkcut_script,
    movements_graph,
)
from .permutation import (
    IsomorphismTable,
    NotIsomorphicError,
    mismatch_table,
    permutation_distance,
    optimal_permutation,
)
from .rearrangement import (
    RearrangementResult,
    BudgetExceeded,
    OracleSizeError,
    sequence_size,
    canonicalize_sequence,
    check_sequence,
    verify_sequence,
    brute_force_distance,
    fpt_distance,
    approx_binary,
)
from .reduction3dm import (
    ThreeDMInstance,
    parse_instance,
    format_instance,
    build_reduction,
    reduction_bound,
    max_matching_bruteforce,
)

__version__ = "0.1.0"
