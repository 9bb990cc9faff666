"""Rearrangement distance: permutations and link-and-cut moves combined.

Any sequence of operations can be reordered into *canonical form*, a
single permutation followed by link-and-cut moves only, without changing
its effect or its size (``ops.canonicalize_sequence`` does it: a move
followed by a permutation equals the permutation followed by the
relabelled move).  The distance is therefore

    min over permutations pi of  |pi| + linkcut_distance(pi(t1), t2)

The exact oracle (``brute_force_distance``) and the budgeted search
(``fpt_distance``) share one body that computes this minimum, smallest
support first.  The oracle draws supports from every label, of any
size; the budgeted search rejects immediately when half the family
partition size already exceeds the budget and then draws supports of at
most ``k`` labels from a candidate set, every label unless a heuristic
narrowing is asked for.  Either way the witness is the best permutation
followed by a link-and-cut script, and its size is checked against the
value the search found.

Searches never build intermediate trees: applying a permutation only
changes parent relations in the neighbourhood of its support (the
support and its children in the first tree).  When the trees disagree
on the top label, both top labels are forced into every support.  The
other labels of a support are walked depth-first in lexicographic order
with a bitmask of the active labels the support touches, so a support's
floor (its size plus the activity it cannot touch) is a popcount, and a
prefix is dropped as soon as its best completion cannot beat the best
value found (branch and bound).  Only the supports that survive have
their neighbourhood built and each derangement of them scored; a size's
derangements are listed when its first support survives.
"""

import bisect
import itertools
import warnings
from collections import namedtuple

from .linkcut import _disagreements, _require_same_labels, linkcut_script
from .ops import (
    OperationSequence,
    Permutation,
    apply_permutation,
    replay_sequence,  # noqa: F401  bench/tracing.py times replays at this name
)
from .tree import TreeError

__all__ = [
    "RearrangementResult",
    "BudgetExceeded",
    "OracleSizeError",
    "brute_force_distance",
    "fpt_distance",
    "approx_binary",
]

_INF = float("inf")


class OracleSizeError(TreeError):
    """Instance exceeds the guard of an exhaustive computation."""


class RearrangementResult(namedtuple("RearrangementResult", "distance witness method")):
    """A distance value with its replayable witness.

    ``witness`` is in canonical form: one permutation (possibly empty)
    followed by link-and-cut moves.  ``method`` is ``"oracle"``,
    ``"fpt"``, ``"fpt-vg"`` (not always minimal) or ``"approx"``.
    """

    __slots__ = ()


class BudgetExceeded(
    namedtuple("BudgetExceeded", "budget lower_bound best_found", defaults=(None,))
):
    """Outcome of a budgeted search that found no sequence within budget.

    A proof that distance > budget only under ``candidates="all"`` or a
    guard reject (``lower_bound > budget``).  ``best_found`` is the
    smallest value seen in the searched space, or ``None`` if none was.
    """

    __slots__ = ()


def _partition_size(differ):
    """Number of distinct (parent-in-t1, parent-in-t2) disagreement pairs.

    The implicit root counts as a parent here, so the size is defined
    even when the two trees disagree on the top vertex.
    """
    return len({(p, q) for _, p, q in differ})


def _candidates(t1, t2, differ, kind):
    """The labels a support may draw from, in no particular order."""
    if kind == "all":
        return t1.labels
    # movements-graph vertices and the tops, which only a permutation can
    # rename (the search never permutes a top label the trees share)
    verts = {u for _, p, q in differ for u in (p, q)} - {None}
    return verts | {t1.root_child, t2.root_child}


def _neighbourhood(support, children):
    """The support and its children in t1: all labels it can perturb."""
    affected = set(support)
    for s in support:
        affected.update(children[s])
    return tuple(affected)


def _score(support, images, aff, floor, p1, p2, r1, r2):
    """|support| + moves needed after applying the permutation.

    ``aff`` is the support's neighbourhood and ``floor`` is |support|
    plus the activity outside it; ``p1``/``p2`` are the trees' parent
    maps and ``r1``/``r2`` their top labels.  A permutation only perturbs
    the activity of its neighbourhood, so scoring is linear in it instead
    of the whole tree.  Returns None when the permutation leaves the top
    vertices disagreeing (no move sequence can repair that).
    """
    sigma = dict(zip(support, images))
    get = sigma.get
    if get(r1, r1) != r2:
        return None
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


def _suffix_sums(masks, r):
    """``row[i]``: the largest popcount sum of ``r`` of ``masks[i:]``.

    When fewer than ``r`` masks are left, the sum of all of them.
    """
    row = [0] * (len(masks) + 1)
    top = []  # negated weights, so ascending order is descending weight
    total = 0
    for i in range(len(masks) - 1, -1, -1):
        w = masks[i].bit_count()
        bisect.insort(top, -w)
        total += w
        if len(top) > r:
            total += top.pop()  # the smallest weight drops out
        row[i] = total
    return row


def _search_best(t1, t2, differ, candidates, max_support):
    """Minimum score over permutations with support inside ``candidates``.

    ``differ`` is the pair's disagreement list.  The exact oracle and
    ``fpt_distance`` share this search and differ only in ``candidates``
    and ``max_support``.  Supports are enumerated by increasing size,
    then in the order of ``itertools.combinations(sorted(candidates),
    size)``; first-found wins among ties.  A size layer is skipped
    entirely once the support size alone cannot beat the best value,
    which keeps the oracle fast on easy instances.

    Within a layer the supports are walked depth-first, carrying the mask
    of the active labels that the forced labels and the chosen prefix
    touch.  A support's floor, |support| plus the activity it cannot
    touch, is ``size + base_active`` minus the popcount of its mask.  A
    prefix is abandoned once even the remaining candidates with the
    largest mask weights cannot bring that floor under the best value;
    only supports whose floor is under it are scored, against every
    derangement.  The bound falls as better values are found, so exactly
    the supports that a plain scan would score get scored, in the same
    order.  The activity masks are built only here, after the partition
    guard has passed; each suffix-sum row is built once, for the first
    layer that needs it, and a layer's derangements are listed only when
    it scores its first support.
    """
    p1, p2, children = t1._parent, t2._parent, t1._children
    r1, r2 = t1.root_child, t2.root_child
    base_active = len(differ)
    # bit i stands for the i-th disagreeing label; by_label[v] holds the
    # bits of the active labels among v and its t1 children
    by_label = {}
    for bit, (v, p, _) in enumerate(differ):
        b = 1 << bit
        by_label[v] = by_label.get(v, 0) | b
        if p is not None:
            by_label[p] = by_label.get(p, 0) | b
    if r1 == r2:
        # a derangement of the top label always breaks the root match
        best_value, best_sigma, forced, seed = base_active, {}, [], 0
    else:
        # only supports holding both top labels can repair the root
        best_value, best_sigma, forced = _INF, None, [r1, r2]
        seed = by_label.get(r1, 0) | by_label.get(r2, 0)
    cands = sorted(c for c in candidates if c not in (r1, r2))
    masks = [by_label.get(c, 0) for c in cands]
    n = len(cands)
    neighbourhood, score = _neighbourhood, _score
    most = []  # most[r][i]: the largest weight that r of masks[i:] add
    chosen = list(forced)

    def extend(start, mask, left):
        nonlocal best_value, best_sigma, patterns
        if not left:
            support = tuple(sorted(chosen))
            if patterns is None:
                patterns = _derangement_patterns(size)
            aff = neighbourhood(support, children)
            floor = base - mask.bit_count()
            for pattern in patterns:
                images = tuple(support[j] for j in pattern)
                value = score(support, images, aff, floor, p1, p2, r1, r2)
                if value is not None and value < best_value:
                    best_value, best_sigma = value, dict(zip(support, images))
            return
        reach = base - mask.bit_count()
        here, after = most[left], most[left - 1]
        for i in range(start, n - left + 1):
            if reach - here[i] >= best_value:
                break  # the weights only shrink further on
            grown = mask | masks[i]
            if base - grown.bit_count() - after[i + 1] >= best_value:
                continue
            chosen.append(cands[i])
            extend(i + 1, grown, left - 1)
            chosen.pop()

    for size in range(2, min(max_support, n + len(forced)) + 1):
        if size >= best_value:
            break
        left = size - len(forced)
        while len(most) <= left:
            most.append(_suffix_sums(masks, len(most)))
        base = size + base_active
        patterns = None
        extend(0, seed, left)
    # extend reaches itself through its closure; without this the search
    # state lives on as a reference cycle until the next garbage collection
    del extend
    return best_value, best_sigma


def _search(t1, t2, k, candidates, method):
    """The oracle's and ``fpt_distance``'s one body, on a checked pair.

    One disagreement scan feeds the partition guard and the search; the
    best permutation of at most ``k`` labels drawn from ``candidates``
    is completed by a link-and-cut script into the witness, whose size
    must equal the value the search found.  Returns a
    :class:`RearrangementResult`, or a :class:`BudgetExceeded` when no
    sequence of size at most ``k`` was found.
    """
    differ = _disagreements(t1._parent, t2._parent)
    psize = _partition_size(differ)
    lower = (psize + 1) // 2
    if psize > 2 * k:
        return BudgetExceeded(budget=k, lower_bound=lower)
    value, sigma = _search_best(
        t1, t2, differ, _candidates(t1, t2, differ, candidates), k
    )
    if value > k:
        best = None if value == _INF else int(value)
        return BudgetExceeded(budget=k, lower_bound=lower, best_found=best)
    pi = Permutation(sigma)
    script = linkcut_script(apply_permutation(t1, pi), t2)
    witness = OperationSequence((pi, *script))
    result = RearrangementResult(pi.size + len(script), witness, method)
    if result.distance != value:
        raise RuntimeError(
            f"{method} witness has size {result.distance}, search found {value}"
        )
    return result


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
    return _search(t1, t2, _INF, "all", "oracle")


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

    ``"vg"`` draws supports from the movements-graph vertices alone, the
    only set whose size the budget bounds: a heuristic, whose answers
    carry method ``"fpt-vg"``.  It overshoots on 2 of 256 pairs at n = 4
    and 100 of 5,625 at n = 5 (one t1 per shape against every t2), and,
    against an exact 0/1 program, on 16 of 50 seeded n = 20-60 random
    recursive trees after 1-5 random operations (0 of 100 planted pairs).

    Returns a :class:`RearrangementResult` when a sequence of size at most
    ``k`` is found, else a :class:`BudgetExceeded` report.
    """
    _require_same_labels(t1, t2)
    if isinstance(k, bool) or not isinstance(k, int) or k < 0:
        raise ValueError("budget k must be a non-negative integer")
    if candidates not in ("vg", "all"):
        raise ValueError(f"unknown candidate set {candidates!r} (want vg or all)")
    return _search(t1, t2, k, candidates, "fpt" if candidates == "all" else "fpt-vg")


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
    witness = OperationSequence((Permutation(), *script))
    return RearrangementResult(len(script), witness, "approx")
