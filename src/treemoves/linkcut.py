"""Link-and-cut distance between trees over the same label set.

The *active set* holds the labels whose parents differ between the two
trees; its size is exactly the link-and-cut distance.  Grouping active
labels by their (parent-in-first, parent-in-second) pair gives the
*family partition*, which encodes a shortest script directly, and whose
keys form the edges of the *movements graph*.
"""

from collections import namedtuple
from operator import ne

from .ops import LinkCutOp, OperationSequence
from .tree import TreeError

__all__ = [
    "LabelSetMismatchError",
    "RootMismatchError",
    "active_set",
    "family_partition",
    "linkcut_distance",
    "linkcut_script",
    "movements_graph",
]


class LabelSetMismatchError(TreeError):
    pass


def _require_same_labels(t1, t2):
    if t1.labels != t2.labels:
        only1 = sorted(set(t1.labels) - set(t2.labels))[:5]
        only2 = sorted(set(t2.labels) - set(t1.labels))[:5]
        raise LabelSetMismatchError(
            f"trees are labelled by different sets "
            f"(first only: {only1!r}, second only: {only2!r})"
        )


class RootMismatchError(TreeError):
    """The trees disagree on the child of the implicit root.

    No link-and-cut sequence can relabel that vertex, so the link-and-cut
    distance is undefined for such a pair.
    """


class MovementsGraph(namedtuple("MovementsGraph", "vertices edges")):
    """Directed graph with one edge per family-partition class."""

    __slots__ = ()


def _check_pair(t1, t2):
    # the key views compare as sets in one hashed pass, with no sort
    if t1 is not t2:
        _require_same_labels(t1, t2)
    _require_same_top(t1, t2)


def _require_same_top(t1, t2):
    if t1.root_child != t2.root_child:
        raise RootMismatchError(
            f"top vertices differ: {t1.root_child!r} vs {t2.root_child!r}"
        )


def _disagreements(p1, p2):
    """``(label, parent in p1, parent in p2)`` for every label whose parents
    differ, in ``p1``'s key order; both maps hold the same labels."""
    return [(v, p, p2[v]) for v, p in p1.items() if p != p2[v]]


def active_set(t1, t2):
    """Labels whose parents differ between the two trees."""
    _check_pair(t1, t2)
    return frozenset(v for v, _, _ in _disagreements(t1._parent, t2._parent))


def family_partition(t1, t2):
    """Partition of the active set by (parent in t1, parent in t2), as a
    dict from each such pair to the frozenset of its active labels."""
    _check_pair(t1, t2)
    groups: dict = {}
    for v, p, q in _disagreements(t1._parent, t2._parent):
        groups.setdefault((p, q), set()).add(v)
    return {key: frozenset(val) for key, val in groups.items()}


def linkcut_distance(t1, t2):
    """Length of the shortest link-and-cut sequence turning t1 into t2."""
    c1, c2 = t1._codes, t2._codes
    if c1 is not None and c2 is not None and c1[0] is c2[0]:
        # both label sets were found equal to set(labels): no label check
        _require_same_top(t1, t2)
        return sum(map(ne, c1[1], c2[1]))
    _check_pair(t1, t2)
    labels = c1[0] if c1 is not None else tuple(t1._parent)
    index = dict(zip(labels, range(len(labels))))
    index[None] = -1
    codes1 = t1._parent_codes(labels, index)
    return sum(map(ne, codes1, t2._parent_codes(labels, index)))


def linkcut_script(t1, t2):
    """A shortest valid link-and-cut sequence from t1 to t2.

    One move per active label, ordered by the label's postorder position
    in t1 (children in lexicographic order).  Children must move before
    their parents: that way a move's target can never still be inside the
    moved subtree, so every move is valid when replayed in order.
    """
    _check_pair(t1, t2)
    p1, p2 = t1._parent, t2._parent
    # tree labels are valid, a vertex is never its own parent, and the
    # tops agree, so an active label's three labels are valid and distinct
    move = LinkCutOp._trusted
    ops = [move(v, p1[v], p2[v]) for v in t1.postorder() if p1[v] != p2[v]]
    return OperationSequence(ops)


def movements_graph(t1, t2):
    """Graph whose edges are the family-partition keys."""
    edges = frozenset(family_partition(t1, t2))
    vertices = frozenset(v for edge in edges for v in edge)
    return MovementsGraph(vertices, edges)
