"""Permutation distance between isomorphic trees.

The distance is the minimum number of labels a single permutation must
move to make the first tree congruent to the second.  It equals the
minimum number of label mismatches over all rooted isomorphisms: the
cost of pairing two internal vertices is a minimum-weight perfect
matching between their children (restricted to isomorphic child pairs),
plus one if the two vertices' own labels disagree.  Total cost is O(n^3).

Costs exist only for isomorphic pairs, which are exactly the pairs with
equal canonical codes, so each child matching splits into one
independent square block per child code.  Costs are memoised top-down
from the pair asked for, so only the pairs reachable from it through
same-code child blocks are ever computed; a leaf pair costs one if its
labels differ and is never stored.  Alongside each internal pair's cost
the table records its optimal child matching, from which an optimal
permutation is recovered.
"""

from __future__ import annotations

from .linkcut import _require_same_labels
from .matching import min_cost_perfect_matching
from .ops import Permutation
from .tree import TreeError

__all__ = [
    "NotIsomorphicError",
    "mismatch_table",
    "permutation_distance",
    "optimal_permutation",
]

_INF = float("inf")


class NotIsomorphicError(TreeError):
    """Permutation distance is undefined for non-isomorphic trees."""


def _canonical_codes(t1, t2):
    """Canonical shape codes, interned jointly across both trees.

    A vertex's code is a small integer standing for its depth and the
    sorted tuple of its children's codes.  Two vertices get the same code
    exactly when they sit at the same depth and root isomorphic subtrees.
    """
    interned = {}
    codes = []
    for tree in (t1, t2):
        code, depth = {}, tree.depths()
        for v in tree.postorder():
            key = (depth[v], tuple(sorted([code[c] for c in tree.children(v)])))
            code[v] = interned.setdefault(key, len(interned))
        codes.append(code)
    return codes


class IsomorphismTable:
    """Subtree isomorphism and mismatch costs between two trees.

    ``code1``/``code2`` map each vertex to its canonical code; two vertices
    are isomorphic (same depth, isomorphic subtrees) iff their codes are
    equal.  ``cost`` memoises, for each internal isomorphic pair computed
    so far, the minimum number of label mismatches over subtree
    isomorphisms, and ``matchings`` its optimal child pairs.  Queries on
    a pair not yet computed fill it, and every internal pair in its child
    blocks, on demand.
    """

    def __init__(self, t1, t2):
        self.code1, self.code2 = _canonical_codes(t1, t2)
        self.cost = {}
        self.matchings = {}
        self._children1 = t1.children
        self._children2 = t2.children

    def is_isomorphic(self, u, v):
        return self.code1[u] == self.code2[v]

    def mismatch_cost(self, u, v):
        """Least mismatch count for the pair; ``inf`` if not isomorphic."""
        if self.code1[u] != self.code2[v]:
            return _INF
        if not self._children1(u):
            return int(u != v)
        if (u, v) not in self.cost:
            self._fill(u, v)
        return self.cost[u, v]

    def conserved(self, u, v):
        """Labels kept in place by the stored optimal isomorphism of u and v."""
        return frozenset(x for x, y in self._matched(u, v) if x == y)

    def _matched(self, u, v):
        """Pairs of the stored optimal isomorphism of u and v, (u, v) first."""
        self.mismatch_cost(u, v)
        stack = [(u, v)]
        while stack:
            pair = stack.pop()
            yield pair
            stack.extend(self.matchings.get(pair, ()))

    def _fill(self, u, v):
        """Compute the internal isomorphic pair (u, v) and all it depends on.

        An explicit stack instead of recursion, since paths are deep.  A
        pair's children are split into one (rows, columns) block per child
        code; the pair goes back on the stack with its blocks, above the
        internal pairs of those blocks, and is solved once they are all in
        ``cost``.
        """
        cost, children1, children2 = self.cost, self._children1, self._children2
        stack = [(u, v, None)]
        while stack:
            x, y, blocks = stack.pop()
            if (x, y) in cost:
                continue
            if blocks is None:
                by_code = {}
                for a in children1(x):
                    by_code.setdefault(self.code1[a], ([], []))[0].append(a)
                for b in children2(y):
                    by_code[self.code2[b]][1].append(b)
                blocks = list(by_code.values())
                stack.append((x, y, blocks))
                stack.extend(
                    (a, b, None)
                    for xs, ys in blocks
                    if children1(xs[0])
                    for a in xs
                    for b in ys
                    if (a, b) not in cost
                )
                continue
            total = int(x != y)
            pairs = []
            for xs, ys in blocks:
                if len(xs) == 1:
                    # a 1 x 1 block has one matching: no solver call
                    a, b = xs[0], ys[0]
                    total += cost[a, b] if children1(a) else int(a != b)
                    pairs.append((a, b))
                    continue
                if children1(xs[0]):
                    rows = [[cost[a, b] for b in ys] for a in xs]
                else:
                    rows = [[int(a != b) for b in ys] for a in xs]
                value, match = min_cost_perfect_matching(rows)
                total += value
                pairs.extend((a, ys[j]) for a, j in zip(xs, match))
            cost[x, y] = total
            self.matchings[x, y] = tuple(pairs)


def mismatch_table(t1, t2):
    """Isomorphism table with the root pair's costs and matchings filled in.

    When the roots are isomorphic, every pair reachable from the root
    pair through same-code child blocks is computed; other pairs are
    filled when queried.  The trees may be labelled by different sets;
    :func:`optimal_permutation` requires equal ones.
    """
    table = IsomorphismTable(t1, t2)
    table.mismatch_cost(t1.root_child, t2.root_child)
    return table


def permutation_distance(t1, t2):
    """Size of the smallest permutation transforming t1 into t2."""
    return optimal_permutation(t1, t2).size


def optimal_permutation(t1, t2, table=None):
    """A permutation of minimum size whose application makes t1 congruent to t2.

    Walks one optimal isomorphism down from the roots through the stored
    child matchings; each vertex's label is sent to the label of its
    image.  Pass a precomputed ``table`` to avoid recomputing it.
    """
    _require_same_labels(t1, t2)
    if table is None:
        table = mismatch_table(t1, t2)
    r1, r2 = t1.root_child, t2.root_child
    if table.mismatch_cost(r1, r2) == _INF:
        raise NotIsomorphicError("trees are not isomorphic as rooted trees")
    return Permutation({x: y for x, y in table._matched(r1, r2) if x != y})
