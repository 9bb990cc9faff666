"""Rearrangement operations: link-and-cut moves and label permutations.

A link-and-cut move detaches a vertex from its current parent and
reattaches it under a new one (which must not be a descendant of the
moved vertex).  A permutation relabels vertices by a bijection on the
label set, leaving the topology untouched.  Both operations return new
trees; both are invertible.

Script text format (one operation per line)::

    move CHILD FROM TO
    perm old>new old>new ...
"""

from __future__ import annotations

from dataclasses import dataclass

from .tree import BadLabelError, LabelledTree, TreeError, UnknownLabelError, _check_label
from .tree import _in_subtree

__all__ = [
    "LinkCutOp",
    "Permutation",
    "OperationSequence",
    "OperationError",
    "WrongParentError",
    "DescendantTargetError",
    "apply_permutation",
    "replay_sequence",
    "parse_script",
    "format_script",
]


class OperationError(TreeError):
    """An operation cannot be applied to the given tree."""


class WrongParentError(OperationError):
    pass


class DescendantTargetError(OperationError):
    pass


@dataclass(frozen=True)
class LinkCutOp:
    """Move ``child`` from parent ``source`` to new parent ``target``."""

    child: str
    source: str
    target: str

    def __post_init__(self):
        for label in (self.child, self.source, self.target):
            _check_label(label)
        if len({self.child, self.source, self.target}) != 3:
            raise BadLabelError(
                f"move needs three distinct labels, got "
                f"({self.child!r}, {self.source!r}, {self.target!r})"
            )

    def inverse(self):
        return LinkCutOp(self.child, self.target, self.source)

    def relabelled(self, pi):
        """The equivalent move after permutation ``pi`` has been applied."""
        return LinkCutOp(pi(self.child), pi(self.source), pi(self.target))

    def __str__(self):
        return f"move {self.child} {self.source} {self.target}"


class Permutation:
    """A label bijection stored sparsely: only moved labels appear.

    The stored mapping must permute its own support (keys and values are
    the same set) and contain no fixed points.  ``size`` is the number of
    moved labels.
    """

    __slots__ = ("_map",)

    def __init__(self, mapping=()):
        mapping = dict(mapping)
        for old, new in mapping.items():
            _check_label(old)
            _check_label(new)
            if old == new:
                raise BadLabelError(f"permutation stores fixed point {old!r}")
        if set(mapping) != set(mapping.values()):
            raise BadLabelError(
                "permutation mapping must be a bijection on its own support"
            )
        self._map = mapping

    @property
    def mapping(self):
        return dict(self._map)

    @property
    def support(self):
        return frozenset(self._map)

    @property
    def size(self):
        return len(self._map)

    def __call__(self, label):
        return self._map.get(label, label)

    def __bool__(self):
        return bool(self._map)

    def inverse(self):
        return Permutation({new: old for old, new in self._map.items()})

    def then(self, other):
        """Composition: apply ``self`` first, ``other`` second."""
        support = set(self._map) | set(other._map)
        combined = {}
        for label in support:
            image = other(self(label))
            if image != label:
                combined[label] = image
        return Permutation(combined)

    def __eq__(self, other):
        if not isinstance(other, Permutation):
            return NotImplemented
        return self._map == other._map

    def __hash__(self):
        return hash(frozenset(self._map.items()))

    def __repr__(self):
        inner = ", ".join(f"{o}>{n}" for o, n in sorted(self._map.items()))
        return f"Permutation({{{inner}}})"

    def __str__(self):
        pairs = " ".join(f"{o}>{n}" for o, n in sorted(self._map.items()))
        return f"perm {pairs}" if pairs else "perm"


@dataclass(frozen=True)
class OperationSequence:
    """Ordered sequence of moves and permutations."""

    ops: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "ops", tuple(self.ops))
        for op in self.ops:
            if not isinstance(op, (LinkCutOp, Permutation)):
                raise TypeError(f"not an operation: {op!r}")

    def __iter__(self):
        return iter(self.ops)

    def __len__(self):
        return len(self.ops)

    def __str__(self):
        return format_script(self)


def _move(parent, op):
    """Apply one link-and-cut move to a parent map in place.

    The move is valid only if ``op.source`` is the current parent of
    ``op.child`` and ``op.target`` is not a descendant of ``op.child``;
    the latter is checked by walking the target's ancestors, O(depth).
    """
    for label in (op.child, op.source, op.target):
        if label not in parent:
            raise UnknownLabelError(f"no vertex labelled {label!r}")
    if parent[op.child] != op.source:
        raise WrongParentError(
            f"cannot apply {op}: parent of {op.child!r} is "
            f"{parent[op.child]!r}, not {op.source!r}"
        )
    if _in_subtree(parent, op.target, op.child):
        raise DescendantTargetError(
            f"cannot apply {op}: {op.target!r} is a descendant of {op.child!r}"
        )
    parent[op.child] = op.target


def _relabel(parent, pi):
    """Relabel a parent map by ``pi`` in place, O(n)."""
    mapping = pi._map
    missing = mapping.keys() - parent.keys()
    if missing:
        raise UnknownLabelError(f"permutation moves unknown labels {sorted(missing)!r}")
    for label, par in parent.items():
        if par in mapping:
            parent[label] = mapping[par]
    # the support is permuted onto itself, so the key set stays the same
    parent.update({new: parent[old] for old, new in mapping.items()})


def apply_permutation(tree, pi):
    """Relabel vertices by ``pi``, returning a new (isomorphic) tree."""
    if not pi:
        return tree
    return replay_sequence(tree, (pi,))


def _replay(parent, seq):
    """Apply the operations of ``seq`` to a parent map in place, in order.

    Returns ``None`` when every operation applies, else ``(index, error)``
    for the first invalid one; the operations after it are not applied.
    A validated move keeps the map a tree (its target is outside the
    moved subtree, and the top vertex cannot move since its parent is
    ``None``, never a source label), and a validated permutation is a
    bijection on labels that are present, so the map stays a tree
    without being checked again.
    """
    for index, op in enumerate(seq):
        try:
            if isinstance(op, LinkCutOp):
                _move(parent, op)
            else:
                _relabel(parent, op)
        except TreeError as exc:
            return index, exc
    return None


def replay_sequence(tree, seq):
    """Apply every operation of ``seq`` in order, validating each one.

    The operations act on one parent map and a single tree is built at
    the end: O(n + sum of target depths + n per permutation).  The first
    invalid operation raises its error.
    """
    parent = tree.parent_map()
    failure = _replay(parent, seq)
    if failure is not None:
        raise failure[1]
    return LabelledTree(parent)


def parse_script(text):
    """Parse the one-operation-per-line script format.

    An error keeps its class, and its message starts with ``line N: ``.
    """
    ops = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        kind, *args = line.split()
        try:
            if kind == "move":
                if len(args) != 3:
                    raise TreeError(f"move needs CHILD FROM TO: {line!r}")
                ops.append(LinkCutOp(*args))
            elif kind == "perm":
                mapping = {}
                for pair in args:
                    old, sep, new = pair.partition(">")
                    if not sep or not old or not new:
                        raise TreeError(f"bad pair {pair!r} (want old>new)")
                    if old in mapping:
                        raise TreeError(f"label {old!r} mapped twice")
                    mapping[old] = new
                ops.append(Permutation(mapping))
            else:
                raise TreeError(f"unknown operation {kind!r}")
        except TreeError as exc:
            raise type(exc)(f"line {lineno}: {exc}") from None
    return OperationSequence(tuple(ops))


def format_script(seq):
    """Render a sequence in the script text format (one op per line)."""
    return "\n".join(str(op) for op in seq)
