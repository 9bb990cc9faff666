"""Hardness-instance generator from 3-dimensional matching.

A 3-bounded 1-common 3DM instance (every element in at most three
triples, every two triples sharing at most one element) is turned into a
pair of trees: a shared top vertex ``r`` with one child per element, and
for each triple ``(a, b, c)`` a pair of gadget leaves under each of
``a``, ``b``, ``c`` in the first tree, cyclically shifted to ``b``,
``c``, ``a`` in the second.  Each triple thus contributes one 3-cycle to
the movements graph.  A matching of size n bounds the pair's distance by
``3*n + 6*(m - n)``, but not conversely: a cycle of edges from several
triples repairs two gadget leaves per permuted label just as well.

Instance text format: three header lines listing the element sets, then
one ``a b c`` triple per line.
"""

from collections import namedtuple
from itertools import combinations

from .tree import LabelledTree, TreeError, _check_label

__all__ = [
    "ThreeDMInstance",
    "parse_instance",
    "build_reduction",
    "reduction_bound",
    "max_matching_bruteforce",
]


class ThreeDMInstance(
    namedtuple("ThreeDMInstance", "a_elements b_elements c_elements triples")
):
    """Disjoint element sets A, B, C and a list of (a, b, c) triples."""

    __slots__ = ()

    def __new__(cls, a_elements, b_elements, c_elements, triples):
        self = super().__new__(
            cls,
            tuple(a_elements),
            tuple(b_elements),
            tuple(c_elements),
            tuple(tuple(t) for t in triples),
        )
        sets = [set(elements) for elements in self[:3]]
        for name, part, elements in zip("ABC", sets, self[:3]):
            for e in part:
                _check_label(e)
            if len(part) != len(elements):
                raise TreeError(f"set {name} lists an element twice")
        if sets[0] & sets[1] or sets[0] & sets[2] or sets[1] & sets[2]:
            raise TreeError("element sets A, B, C must be pairwise disjoint")
        occurrences: dict = {}
        for t in self.triples:
            if len(t) != 3:
                raise TreeError(f"triple {t!r} does not have three elements")
            a, b, c = t
            if a not in sets[0] or b not in sets[1] or c not in sets[2]:
                raise TreeError(f"triple {t!r} is not in A x B x C")
            for e in t:
                occurrences[e] = occurrences.get(e, 0) + 1
                if occurrences[e] > 3:
                    raise TreeError(f"element {e!r} occurs in more than 3 triples")
        for s, t in combinations(self.triples, 2):
            if len(set(s) & set(t)) > 1:
                raise TreeError(f"triples {s!r} and {t!r} share more than one element")
        return self

    _make = classmethod(lambda cls, fields: cls(*fields))  # as in LinkCutOp

    @property
    def m(self):
        return len(self.triples)

    def elements(self):
        return self.a_elements + self.b_elements + self.c_elements


def parse_instance(text):
    """Read an instance from its text form (three headers, then triples)."""
    lines = text.splitlines()
    if len(lines) < 3:
        raise TreeError("instance needs three header lines listing A, B and C")
    headers = [tuple(line.split()) for line in lines[:3]]
    triples = []
    for lineno, line in enumerate(lines[3:], start=4):
        fields = line.split()
        if not fields:
            continue
        if len(fields) != 3:
            raise TreeError(f"line {lineno}: a triple needs exactly 3 elements")
        triples.append(tuple(fields))
    return ThreeDMInstance(*headers, tuple(triples))


def _gadget(index, element, slot):
    return f"{index}_{element}_{slot}"


def build_reduction(instance):
    """The tree pair encoding the instance.

    Both trees share the top vertex ``r`` with every element as a child.
    For triple ``i`` = (a, b, c), gadget leaves ``i_v_1``/``i_v_2`` hang
    under ``v`` in the first tree; in the second tree the set under ``a``
    moves to ``b``, the one under ``b`` to ``c`` and the one under ``c``
    back to ``a``.
    """
    elements = instance.elements()
    if "r" in elements:
        raise TreeError("element name 'r' collides with the generated top vertex")
    parent1 = {"r": None}
    parent2 = {"r": None}
    for e in elements:
        parent1[e] = "r"
        parent2[e] = "r"
    taken = set(elements) | {"r"}
    for i, (a, b, c) in enumerate(instance.triples):
        for element, shifted in ((a, b), (b, c), (c, a)):
            for slot in (1, 2):
                g = _gadget(i, element, slot)
                if g in taken:
                    raise TreeError(f"gadget label {g!r} collides with an element")
                taken.add(g)
                parent1[g] = element
                parent2[g] = shifted
    return LabelledTree(parent1), LabelledTree(parent2)


def reduction_bound(m, n):
    """Distance bound 3n + 6(m - n) for a matching of size n among m triples."""
    if not 0 <= n <= m:
        raise ValueError(f"need 0 <= n <= m, got n={n}, m={m}")
    return 3 * n + 6 * (m - n)


def max_matching_bruteforce(instance):
    """Largest number of pairwise disjoint triples, by exhaustive search.

    Guarded at 12 triples.
    """
    m = instance.m
    if m > 12:
        raise TreeError(f"{m} triples exceed the exhaustive guard of 12")
    for size in range(m, 0, -1):
        for combo in combinations(instance.triples, size):
            flat = [e for t in combo for e in t]
            if len(set(flat)) == 3 * size:
                return size
    return 0
