"""Distances between rooted trees fully labelled by the same label set.

Three distance notions are provided, each with a verified, replayable
witness: link-and-cut distance (topology moves only), permutation
distance (relabellings only, defined for isomorphic trees) and the
combined rearrangement distance (exact oracle, budgeted search and a
4-approximation for binary trees).
"""

# Each module's __all__ is the one list of its public names.
from .tree import *  # noqa: F401,F403
from .ops import *  # noqa: F401,F403
from .linkcut import *  # noqa: F401,F403
from .permutation import *  # noqa: F401,F403
from .rearrangement import *  # noqa: F401,F403
from .reduction3dm import *  # noqa: F401,F403

__version__ = "0.1.0"
