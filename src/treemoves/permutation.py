"""Permutation distance between isomorphic trees.

The distance is the minimum number of labels a single permutation must
move to make the first tree congruent to the second.  It equals the
minimum number of label mismatches over all rooted isomorphisms, which
is computed bottom-up: the cost of pairing two internal vertices is a
minimum-weight perfect matching between their children (restricted to
isomorphic child pairs), plus one if the two vertices' own labels
disagree.  Total cost is O(n^3).

Costs are kept only for isomorphic pairs, which are exactly the pairs
with equal canonical codes.  Each child matching therefore splits into
one independent square block per child code.  Alongside the costs the
computation records the optimal child matching of every internal
isomorphic pair, from which an optimal permutation is recovered.
"""

from __future__ import annotations

from dataclasses import dataclass

from .linkcut import _require_same_labels
from .matching import min_cost_perfect_matching
from .ops import Permutation
from .tree import TreeError

__all__ = [
    "IsomorphismTable",
    "NotIsomorphicError",
    "subtree_isomorphism_table",
    "mismatch_table",
    "permutation_distance",
    "optimal_permutation",
]

_INF = float("inf")


class NotIsomorphicError(TreeError):
    """Permutation distance is undefined for non-isomorphic trees."""


def _depth_buckets(tree):
    """Vertices grouped by depth, each bucket sorted lexicographically."""
    depth = tree.depths()
    height = max(depth.values()) + 1
    buckets = [[] for _ in range(height)]
    for v in sorted(depth):
        buckets[depth[v]].append(v)
    return buckets


def _canonical_codes(t1, t2):
    """Canonical shape codes, interned jointly across both trees.

    A vertex's code is a small integer standing for its depth and the
    sorted tuple of its children's codes.  Two vertices get the same code
    exactly when they sit at the same depth and root isomorphic subtrees.
    """
    b1, b2 = _depth_buckets(t1), _depth_buckets(t2)
    code1, code2 = {}, {}
    interned = {}
    for level in range(max(len(b1), len(b2)) - 1, -1, -1):
        for tree, buckets, codes in ((t1, b1, code1), (t2, b2, code2)):
            for v in buckets[level] if level < len(buckets) else ():
                key = (level, tuple(sorted(codes[c] for c in tree.children(v))))
                codes[v] = interned.setdefault(key, len(interned))
    return b1, b2, code1, code2


@dataclass(eq=False)
class IsomorphismTable:
    """Subtree isomorphism and mismatch costs between two trees.

    ``code1``/``code2`` map each vertex to its canonical code; two vertices
    are isomorphic (same depth, isomorphic subtrees) iff their codes are
    equal.  The cost layers are filled in by :func:`mismatch_table`:
    ``cost`` maps each isomorphic pair to the minimum number of label
    mismatches over subtree isomorphisms, and ``matchings`` maps each
    internal isomorphic pair to its optimal child pairs.
    """

    code1: dict
    code2: dict
    cost: dict | None = None
    matchings: dict | None = None

    def is_isomorphic(self, u, v):
        return self.code1[u] == self.code2[v]

    def mismatch_cost(self, u, v):
        """Least mismatch count for the pair; ``inf`` if not isomorphic."""
        return self.cost.get((u, v), _INF)

    def conserved(self, u, v):
        """Labels kept in place by the stored optimal isomorphism of u and v."""
        kept = set()
        stack = [(u, v)]
        while stack:
            x, y = stack.pop()
            if x == y:
                kept.add(x)
            stack.extend(self.matchings.get((x, y), ()))
        return frozenset(kept)


def subtree_isomorphism_table(t1, t2):
    """Subtree isomorphism between all vertex pairs, without cost layers.

    Computed bottom-up with canonical codes shared across both trees, in
    O(n log n) time.
    """
    _, _, code1, code2 = _canonical_codes(t1, t2)
    return IsomorphismTable(code1, code2)


def _match_children(cu, cv, code1, code2, cost):
    """Optimal child matching, solved as one square block per child code."""
    blocks = {}
    for x in cu:
        blocks.setdefault(code1[x], ([], []))[0].append(x)
    for y in cv:
        blocks[code2[y]][1].append(y)
    total = 0
    pairs = []
    for xs, ys in blocks.values():
        value, match = min_cost_perfect_matching([[cost[x, y] for y in ys] for x in xs])
        total += value
        pairs.extend((x, ys[j]) for x, j in zip(xs, match))
    return total, tuple(pairs)


def mismatch_table(t1, t2):
    """Isomorphism table with mismatch costs and optimal child matchings."""
    _require_same_labels(t1, t2)
    b1, b2, code1, code2 = _canonical_codes(t1, t2)
    cost = {}
    matchings = {}
    for level in range(min(len(b1), len(b2)) - 1, -1, -1):
        same_code = {}
        for v in b2[level]:
            same_code.setdefault(code2[v], []).append(v)
        for u in b1[level]:
            cu = t1.children(u)
            for v in same_code.get(code1[u], ()):
                delta = 0 if u == v else 1
                if not cu:
                    cost[u, v] = delta
                    continue
                total, pairs = _match_children(cu, t2.children(v), code1, code2, cost)
                cost[u, v] = total + delta
                matchings[u, v] = pairs
    return IsomorphismTable(code1, code2, cost, matchings)


def permutation_distance(t1, t2):
    """Size of the smallest permutation transforming t1 into t2."""
    return optimal_permutation(t1, t2).size


def optimal_permutation(t1, t2, table=None):
    """A permutation of minimum size whose application makes t1 congruent to t2.

    Walks one optimal isomorphism down from the roots through the stored
    child matchings; each vertex's label is sent to the label of its
    image.  Pass a precomputed ``table`` to avoid recomputing it.
    """
    if table is None:
        table = mismatch_table(t1, t2)
    elif table.matchings is None:
        raise ValueError("table lacks cost layers; build it with mismatch_table")
    r1, r2 = t1.root_child, t2.root_child
    if not table.is_isomorphic(r1, r2):
        raise NotIsomorphicError("trees are not isomorphic as rooted trees")
    mapping = {}
    stack = [(r1, r2)]
    while stack:
        u, v = stack.pop()
        if u != v:
            mapping[u] = v
        pairs = table.matchings.get((u, v))
        if pairs:
            stack.extend(pairs)
    return Permutation(mapping)
