"""Rearrangement operations: link-and-cut moves and label permutations.

A link-and-cut move detaches a vertex from its current parent and
reattaches it under a new one (which must not be a descendant of the
moved vertex).  A permutation relabels vertices by a bijection on the
label set, leaving the topology untouched.  Both operations are
invertible.

Only this module knows how an operation acts on a parent map: replay,
verification, the canonical form and the generators all apply
operations through ``_apply``.

Script text format (one operation per line)::

    move CHILD FROM TO
    perm old>new old>new ...
"""

from collections import namedtuple

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
    "sequence_size",
    "canonicalize_sequence",
    "check_sequence",
    "verify_sequence",
    "parse_script",
    "format_script",
]


class OperationError(TreeError):
    """An operation cannot be applied to the given tree."""


class WrongParentError(OperationError):
    pass


class DescendantTargetError(OperationError):
    pass


class LinkCutOp(namedtuple("LinkCutOp", "child source target")):
    """Move ``child`` from parent ``source`` to new parent ``target``."""

    __slots__ = ()

    def __new__(cls, child, source, target):
        for label in (child, source, target):
            _check_label(label)
        if len({child, source, target}) != 3:
            raise BadLabelError(
                f"move needs three distinct labels, got "
                f"({child!r}, {source!r}, {target!r})"
            )
        return super().__new__(cls, child, source, target)

    # namedtuple's _make, and _replace through it, would skip the checks
    _make = classmethod(lambda cls, fields: cls(*fields))

    def inverse(self):
        return LinkCutOp(self.child, self.target, self.source)

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


class OperationSequence(tuple):
    """Ordered sequence of moves and permutations: a tuple of operations."""

    __slots__ = ()

    def __new__(cls, ops=()):
        self = super().__new__(cls, ops)
        for op in self:
            if not isinstance(op, (LinkCutOp, Permutation)):
                raise TypeError(f"not an operation: {op!r}")
        return self

    @property
    def ops(self):
        return tuple(self)

    def __repr__(self):
        return f"OperationSequence(ops={tuple(self)!r})"

    def __str__(self):
        return format_script(self)


def _move(parent, op):
    """Apply one link-and-cut move to a parent map in place.

    The move is valid only if ``source`` is the current parent of
    ``child`` and ``target`` is not a descendant of ``child``; the latter
    is checked by walking the target's ancestors, O(depth).
    """
    child, source, target = op
    for label in op:
        if label not in parent:
            raise UnknownLabelError(f"no vertex labelled {label!r}")
    if parent[child] != source:
        raise WrongParentError(
            f"cannot apply {op}: parent of {child!r} is "
            f"{parent[child]!r}, not {source!r}"
        )
    if _in_subtree(parent, target, child):
        raise DescendantTargetError(
            f"cannot apply {op}: {target!r} is a descendant of {child!r}"
        )
    parent[child] = target


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


def _apply(parent, op):
    """Apply one move or permutation to a parent map in place."""
    if isinstance(op, LinkCutOp):
        _move(parent, op)
    else:
        _relabel(parent, op)


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
            _apply(parent, op)
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

    Invalid operations during replay make the answer False rather than
    raising; :func:`check_sequence` reports where and why.
    """
    return check_sequence(t1, seq, t2) is None


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
            moves = [LinkCutOp(*map(op, m)) for m in moves]
            sigma = sigma.then(op)
    return OperationSequence((sigma, *moves))


def sequence_size(seq):
    """Size of a sequence: composed-permutation size plus move count."""
    canonical = canonicalize_sequence(seq)
    return canonical[0].size + len(canonical) - 1


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
    return OperationSequence(ops)


def format_script(seq):
    """Render a sequence in the script text format (one op per line)."""
    return "\n".join(str(op) for op in seq)
