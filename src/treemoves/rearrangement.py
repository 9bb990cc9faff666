"""Rearrangement distance: permutations and link-and-cut moves combined.

Any sequence of operations can be reordered into *canonical form*, a
single permutation followed by link-and-cut moves only, without changing
its effect or its size.  The distance is therefore

    min over permutations pi of  |pi| + linkcut_distance(pi(t1), t2)

which drives both the exact oracle (guarded exhaustive search over
permutations, smallest support first) and the budgeted search
(``fpt_distance``): the latter prunes immediately when half the family
partition size already exceeds the budget and then draws permutation
supports of at most ``k`` labels from a candidate set, every label
unless a heuristic narrowing is asked for.

Searches never build intermediate trees: applying a permutation only
changes parent relations in the neighbourhood of its support (the
support and its children in the first tree).  Supports are walked
depth-first in lexicographic order with a bitmask of the active labels
their prefix touches, so a support's floor (its size plus the activity
it cannot touch) is a popcount, and a prefix is dropped as soon as its
best completion cannot beat the best value found (branch and bound).
Only the supports that survive have their neighbourhood built and each
derangement of them scored.
"""

from __future__ import annotations

import bisect
import itertools
import logging
import warnings
from dataclasses import dataclass

from .linkcut import _disagreements, _require_same_labels, linkcut_script
from .ops import (
    LinkCutOp,
    OperationSequence,
    Permutation,
    _replay,
    apply_permutation,
    replay_sequence,  # noqa: F401  bench/tracing.py times replays at this name
)
from .tree import TreeError

__all__ = [
    "RearrangementResult",
    "BudgetExceeded",
    "OracleSizeError",
    "sequence_size",
    "canonicalize_sequence",
    "check_sequence",
    "verify_sequence",
    "brute_force_distance",
    "fpt_distance",
    "approx_binary",
]

logger = logging.getLogger(__name__)

_INF = float("inf")


class OracleSizeError(TreeError):
    """Instance exceeds the guard of an exhaustive computation."""


@dataclass(frozen=True)
class RearrangementResult:
    """A distance value with its replayable witness.

    ``witness`` is in canonical form: one permutation (possibly empty)
    followed by link-and-cut moves.  ``method`` is ``"oracle"``,
    ``"fpt"`` or ``"approx"``.
    """

    distance: int
    witness: OperationSequence
    method: str


@dataclass(frozen=True)
class BudgetExceeded:
    """Outcome of a budgeted search that proved distance > budget.

    ``best_found`` is the smallest value seen within the searched space,
    or ``None`` when the partition guard rejected the instance outright.
    """

    budget: int
    lower_bound: int
    best_found: int | None = None


def canonicalize_sequence(seq):
    """Reorder a sequence so one composed permutation leads all moves.

    A move followed by a permutation has the same effect as the
    permutation followed by the relabelled move, so permutations commute
    leftwards freely; all of them compose into a single one.  The result
    replays to the same final tree and has the same size.
    """
    sigma = Permutation()
    moves = []
    for op in seq:
        if isinstance(op, LinkCutOp):
            moves.append(op)
        else:
            moves = [m.relabelled(op) for m in moves]
            sigma = sigma.then(op)
    return OperationSequence((sigma, *moves))


def sequence_size(seq):
    """Size of a sequence: composed-permutation size plus move count."""
    canonical = canonicalize_sequence(seq)
    return canonical.ops[0].size + len(canonical) - 1


def check_sequence(t1, seq, t2):
    """Why replaying ``seq`` from ``t1`` does not reach ``t2``, or ``None``.

    The operations act on a copy of ``t1``'s parent map, which is compared
    with ``t2``'s; no tree is built.  A failure is ``(index, reason)``:
    the 0-based index of the first invalid operation and its error
    message, or ``len(seq)`` and the first difference when every
    operation applies but the final tree is not congruent to ``t2``.
    """
    parent = t1.parent_map()
    failure = _replay(parent, seq)
    if failure is not None:
        return failure[0], str(failure[1])
    target = t2._parent
    if parent == target:
        return None
    if parent.keys() != target.keys():
        reason = "sequence replays to a tree with a different label set"
    else:
        label = next(v for v, p in target.items() if parent[v] != p)
        reason = (
            f"sequence replays to a different tree: parent of {label!r} is "
            f"{parent[label]!r}, not {target[label]!r}"
        )
    return len(seq), reason


def verify_sequence(t1, seq, t2):
    """True iff replaying ``seq`` from ``t1`` yields a tree congruent to ``t2``.

    Invalid operations during replay make the answer False; the reason
    (see :func:`check_sequence`) is logged at INFO level rather than raised.
    """
    failure = check_sequence(t1, seq, t2)
    if failure is not None:
        logger.info("sequence check failed at operation %d: %s", *failure)
    return failure is None


class _PairSearch:
    """Scores candidate permutations against a fixed tree pair.

    Activity (parent disagreement) is counted once for the unpermuted
    pair; a candidate permutation only perturbs the activity of its
    support and of the support's children in the first tree, so scoring
    is linear in that neighbourhood instead of the whole tree.
    """

    def __init__(self, t1, t2):
        # the trees' own maps, shared and never written to
        self.p1 = t1._parent
        self.p2 = t2._parent
        self.c1 = t1._children
        self.r1 = t1.root_child
        self.r2 = t2.root_child
        self.differ = _disagreements(self.p1, self.p2)
        self.base_active = len(self.differ)

    def partition_size(self):
        """Number of distinct (parent-in-t1, parent-in-t2) disagreement pairs.

        The implicit root counts as a parent here, so the size is defined
        even when the two trees disagree on the top vertex.
        """
        return len({(p, q) for _, p, q in self.differ})

    def candidate_labels(self, kind):
        verts = {u for _, p, q in self.differ for u in (p, q) if u is not None}
        if self.r1 != self.r2:
            # only a permutation can rename the top vertex
            verts.add(self.r1)
            verts.add(self.r2)
        if kind == "vg":
            return sorted(verts)
        if kind == "x":
            return sorted(verts.union(v for v, _, _ in self.differ))
        return sorted(self.p1)  # "all"

    def masks(self):
        """Bitmask of the active labels among each label and its t1 children.

        Bit i stands for the i-th disagreeing label; a label whose
        neighbourhood holds no active label has no entry.
        """
        masks = {}
        for bit, (v, p, _) in enumerate(self.differ):
            b = 1 << bit
            masks[v] = masks.get(v, 0) | b
            if p is not None:
                masks[p] = masks.get(p, 0) | b
        return masks

    def neighbourhood(self, support):
        """The support and its children in t1: all labels it can perturb."""
        affected = set(support)
        c1 = self.c1
        for s in support:
            affected.update(c1[s])
        return tuple(affected)

    def score(self, support, images, aff, floor):
        """|support| + moves needed after applying the permutation.

        ``aff`` is the support's neighbourhood and ``floor`` is |support|
        plus the activity outside it.  Returns None when the permutation
        leaves the top vertices disagreeing (no move sequence can repair
        that).
        """
        sigma = dict(zip(support, images))
        get = sigma.get
        if get(self.r1, self.r1) != self.r2:
            return None
        p1, p2 = self.p1, self.p2
        bad = 0
        for x in aff:
            p = p1[x]
            if p is not None:
                p = get(p, p)
            if p != p2[get(x, x)]:
                bad += 1
        return floor + bad


def _derangement_patterns(size):
    """Index tuples of all fixed-point-free permutations of ``size`` items."""
    return [
        p
        for p in itertools.permutations(range(size))
        if all(p[i] != i for i in range(size))
    ]


def _suffix_sums(masks, most_r):
    """``most[i][r]``: the largest popcount sum of ``r`` of ``masks[i:]``.

    Defined for ``r <= min(most_r, len(masks) - i)``.
    """
    most = [(0,)] * (len(masks) + 1)
    top = []  # negated weights, so ascending order is descending weight
    for i in range(len(masks) - 1, -1, -1):
        bisect.insort(top, -masks[i].bit_count())
        del top[most_r:]
        sums = [0]
        for w in top:
            sums.append(sums[-1] - w)
        most[i] = sums
    return most


def _scan_layer(ctx, cands, masks, size, bound, stop, last):
    """First best permutation below ``bound`` with a support of ``size`` labels.

    Walks the supports depth-first in the order of
    ``itertools.combinations(cands, size)``, carrying the mask of the
    active labels that the chosen prefix touches.  A support's floor,
    |support| plus the activity it cannot touch, is ``size + base_active``
    minus the popcount of its mask.  A prefix is abandoned once even the
    remaining candidates with the largest mask weights cannot bring that
    floor under the bound; only supports whose floor is under it are
    scored.  The bound falls as better values are found, so exactly the
    supports that a plain scan would score get scored, in the same order.

    A support must not run past ``stop[i]``, the next label every support
    needs, and its last label must come at or after ``last``.  Returns
    ``(value, mapping)``, or ``(bound, None)`` when nothing beats it.
    """
    patterns = _derangement_patterns(size)
    most = _suffix_sums(masks, size)
    base = size + ctx.base_active
    n = len(cands)
    neighbourhood, score = ctx.neighbourhood, ctx.score
    chosen = []
    best_sigma = None

    def extend(start, mask, left):
        nonlocal bound, best_sigma
        reach = base - mask.bit_count()
        first = start if left > 1 else max(start, last)
        for i in range(first, min(n - left, stop[start]) + 1):
            if reach - most[i][left] >= bound:
                break  # the weights only shrink further on
            grown = mask | masks[i]
            floor = base - grown.bit_count()
            if floor - most[i + 1][left - 1] >= bound:
                continue
            chosen.append(cands[i])
            if left > 1:
                extend(i + 1, grown, left - 1)
            else:
                support = tuple(chosen)
                aff = neighbourhood(support)
                for pattern in patterns:
                    images = tuple(support[j] for j in pattern)
                    value = score(support, images, aff, floor)
                    if value is not None and value < bound:
                        bound, best_sigma = value, dict(zip(support, images))
            chosen.pop()

    extend(0, 0, size)
    return bound, best_sigma


def _search_best(ctx, candidates, max_support):
    """Minimum score over permutations with support inside ``candidates``.

    Supports are enumerated by increasing size, then lexicographically;
    first-found wins among ties.  A size layer is skipped entirely once
    the support size alone cannot beat the best value, which keeps the
    oracle fast on easy instances.  The activity masks are built only
    here, after the partition guard has passed.
    """
    r1, r2 = ctx.r1, ctx.r2
    if r1 == r2:
        best_value, best_sigma = ctx.base_active, {}
        # a derangement of the top label always breaks the root match
        cands = sorted(c for c in candidates if c != r1)
        required = []
    else:
        # only supports holding both top labels can repair the root;
        # candidate sets always contain them
        best_value, best_sigma = _INF, None
        cands = sorted(candidates)
        required = sorted((cands.index(r1), cands.index(r2)))
    n = len(cands)
    stop = [n - 1] * (n + 1)
    for pos in reversed(required):
        stop[: pos + 1] = [pos] * (pos + 1)
    last = required[-1] if required else 0
    by_label = ctx.masks()
    masks = [by_label.get(c, 0) for c in cands]
    for size in range(2, min(max_support, n) + 1):
        if size >= best_value:
            break
        value, sigma = _scan_layer(ctx, cands, masks, size, best_value, stop, last)
        if sigma is not None:
            best_value, best_sigma = value, sigma
    return best_value, best_sigma


def _assemble(t1, t2, sigma, method):
    pi = Permutation(sigma)
    mid = apply_permutation(t1, pi)
    script = linkcut_script(mid, t2)
    witness = OperationSequence((pi, *script.ops))
    return RearrangementResult(pi.size + len(script), witness, method)


def brute_force_distance(t1, t2, max_labels=8):
    """Exact rearrangement distance by exhaustive permutation search.

    Every permutation of the label set is considered (smallest support
    first, so the scan stops as soon as support size alone reaches the
    best value found).  Guarded by ``max_labels``; pass ``None`` to
    disable the guard.
    """
    _require_same_labels(t1, t2)
    n = len(t1)
    if max_labels is not None and n > max_labels:
        raise OracleSizeError(
            f"{n} labels exceed the exhaustive-search guard of {max_labels}"
        )
    ctx = _PairSearch(t1, t2)
    value, sigma = _search_best(ctx, sorted(t1.labels), n)
    result = _assemble(t1, t2, sigma, "oracle")
    if result.distance != value:
        raise RuntimeError(
            f"oracle witness has size {result.distance}, search found {value}"
        )
    return result


def fpt_distance(t1, t2, k, candidates="all"):
    """Decide whether the rearrangement distance is at most ``k``.

    Rejects immediately when the family partition has more than ``2 * k``
    classes (each permuted label repairs at most two).  Otherwise searches
    permutations of at most ``k`` labels drawn from the candidate set.

    ``"all"`` (default) considers every label and is therefore exact:
    any sequence of size at most ``k`` uses a permutation of at most
    ``k`` labels.  A guard reject costs one linear scan.  Past the guard
    the supports are walked with a prefix bound that drops every prefix
    whose best completion cannot beat the best value found; on planted
    pairs that leaves a few dozen to about a thousand supports to score,
    but the worst case is still ``O(n^k)`` supports for a fixed budget.
    The narrowed sets are faster but can overshoot: an optimal
    permutation may have to move labels whose parents agree in both
    trees (a 5-vertex instance exists whose only optimal solution is a
    5-cycle through two such labels), so neither narrowing is safe in
    general.  ``"x"`` restricts supports to active labels plus
    movements-graph vertices; ``"vg"`` to movements-graph vertices
    alone, the only choice whose size the budget bounds.  Taking one t1
    per unlabelled shape against every t2, ``"x"`` overshoots on 0 of
    256 pairs at n = 4 and 10 of 5,625 at n = 5, ``"vg"`` on 2 of 256
    and 100 of 5,625; ``"x"`` overshoots even when the top vertices
    agree, though no such pair exists at n <= 5.

    Returns a :class:`RearrangementResult` when a sequence of size at most
    ``k`` exists, else a :class:`BudgetExceeded` report.
    """
    _require_same_labels(t1, t2)
    if k < 0:
        raise ValueError("budget k must be non-negative")
    if candidates not in ("vg", "x", "all"):
        raise ValueError(f"unknown candidate set {candidates!r} (want vg, x or all)")
    ctx = _PairSearch(t1, t2)
    psize = ctx.partition_size()
    lower = (psize + 1) // 2
    if psize > 2 * k:
        return BudgetExceeded(budget=k, lower_bound=lower)
    value, sigma = _search_best(ctx, ctx.candidate_labels(candidates), k)
    if value <= k:
        return _assemble(t1, t2, sigma, "fpt")
    return BudgetExceeded(
        budget=k,
        lower_bound=lower,
        best_found=None if value == _INF else int(value),
    )


def approx_binary(t1, t2):
    """Link-and-cut-only rearrangement: a 4-approximation for binary t1.

    When the first tree is binary every family-partition class has at
    most two members, which caps the link-and-cut distance at four times
    the optimum.  For non-binary input the value is still returned but a
    warning signals that the factor-4 guarantee does not apply.
    """
    script = linkcut_script(t1, t2)
    if not t1.is_binary():
        warnings.warn(
            "first tree is not binary: the 4x approximation guarantee "
            "does not apply",
            stacklevel=2,
        )
    witness = OperationSequence((Permutation(), *script.ops))
    return RearrangementResult(len(script), witness, "approx")
