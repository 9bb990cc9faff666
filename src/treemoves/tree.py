"""Fully-labelled rooted trees.

Every vertex of a tree carries a unique label; the root itself is an
implicit, unlabelled anchor above the unique *top* vertex (the one whose
parent is ``None``).  Children are unordered sets, but all iteration and
serialization happens in lexicographic label order so that output is
deterministic.

The text format is Newick-like with a mandatory label on every node::

    tree  := node ';'
    node  := ( '(' node (',' node)* ')' )? label
    label := any run of characters except '(', ')', ',', ';' and whitespace

Whitespace between tokens is ignored.  ``((d,e,f)b,(g,h)c)a;`` denotes a
tree whose top vertex is ``a`` with children ``b`` (children d, e, f) and
``c`` (children g, h).

``LabelledTree(parent)`` is the validated constructor.  The parser alone
uses the unchecked ``LabelledTree._from_parse(parent, children, top)``,
because its grammar has already proved what ``__init__`` would check
again: every label is a valid label read once, ``top`` is the only
vertex without a parent, every parent is a vertex and every vertex
reaches ``top``, and ``children`` lists, in ``parent``'s key order, each
vertex's children as a sorted tuple.
"""

import itertools
import operator
import re
from array import array

__all__ = [
    "LabelledTree",
    "TreeError",
    "ParseError",
    "DuplicateLabelError",
    "BadLabelError",
    "StructureError",
    "UnknownLabelError",
    "parse_tree",
    "serialize_tree",
]

# punctuation tokens and maximal label runs; whitespace between them is skipped
_TOKEN = re.compile(r"[(),;]|[^(),;\s]+")
_bad_label_char = re.compile(r"[(),;\s]").search


class TreeError(ValueError):
    """Base class for all tree-related errors."""


class ParseError(TreeError):
    """Malformed tree text.  ``position`` is the character offset."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class DuplicateLabelError(TreeError):
    pass


class BadLabelError(TreeError):
    pass


class StructureError(TreeError):
    """Parent map does not describe a single rooted tree."""


class UnknownLabelError(TreeError):
    pass


def _check_label(label):
    if not isinstance(label, str) or not label:
        raise BadLabelError(f"labels must be non-empty strings, got {label!r}")
    if _bad_label_char(label):
        raise BadLabelError(
            f"label {label!r} contains whitespace or one of '(', ')', ',', ';'"
        )


def _in_subtree(parent, v, u):
    """True if ``v`` is ``u`` or a descendant of ``u`` in a parent map, O(depth)."""
    while v is not None:
        if v == u:
            return True
        v = parent[v]
    return False


class LabelledTree:
    """Immutable rooted tree whose vertices are all uniquely labelled.

    Constructed from a parent map ``{label: parent_label_or_None}``; exactly
    one label (the top vertex) must map to ``None``.  The map must describe
    a single connected, acyclic tree.
    """

    __slots__ = (
        "_parent",
        "_children",
        "_top",
        "_sorted_labels",
        "_parent_code_array",
    )

    def __init__(self, parent):
        parent = dict(parent)
        if not parent:
            raise StructureError("a tree needs at least one vertex")
        tops = []
        for label, par in parent.items():
            _check_label(label)
            if par is None:
                tops.append(label)
            elif par not in parent:
                raise StructureError(
                    f"vertex {label!r} has parent {par!r} which is not a vertex"
                )
        if len(tops) != 1:
            raise StructureError(
                f"expected exactly one top vertex, found {len(tops)}: {sorted(tops)!r}"
            )
        top = tops[0]

        kids: dict = {label: [] for label in parent}
        for label, par in parent.items():
            if par is not None:
                kids[par].append(label)

        # reachability from the top vertex proves the map is one tree
        seen = 1
        stack = [top]
        while stack:
            v = stack.pop()
            cs = kids[v]
            seen += len(cs)
            stack.extend(cs)
        if seen != len(parent):
            raise StructureError("parent map contains a cycle or is disconnected")

        self._set(parent, {label: tuple(sorted(cs)) for label, cs in kids.items()}, top)

    @classmethod
    def _from_parse(cls, parent, children, top):
        """A tree from structures its caller has already proved, unchecked.

        The caller guarantees the invariants listed in the module
        docstring, which :func:`parse_tree` proves in its single pass;
        every other caller uses ``LabelledTree(parent)``.
        """
        tree = cls.__new__(cls)
        tree._set(parent, children, top)
        return tree

    def _set(self, parent, children, top):
        self._parent = parent
        self._children = children
        self._top = top
        self._sorted_labels = None
        self._parent_code_array = None

    @property
    def root_child(self):
        """Label of the unique child of the implicit root."""
        return self._top

    @property
    def labels(self):
        """Set-like view of all labels."""
        return self._parent.keys()

    def __len__(self):
        return len(self._parent)

    def __contains__(self, label):
        return label in self._parent

    def parent(self, label):
        """Parent label of ``label`` (``None`` for the top vertex)."""
        try:
            return self._parent[label]
        except KeyError:
            raise UnknownLabelError(f"no vertex labelled {label!r}") from None

    def children(self, label):
        """Children of ``label`` as a lexicographically sorted tuple."""
        try:
            return self._children[label]
        except KeyError:
            raise UnknownLabelError(f"no vertex labelled {label!r}") from None

    def parent_map(self):
        """Copy of the underlying parent map."""
        return dict(self._parent)

    def _label_tuple(self):
        """All labels as a sorted tuple; cached.

        Trees over the same label set align positionally, so pairwise
        comparisons run as a single sequential scan.
        """
        if self._sorted_labels is None:
            self._sorted_labels = tuple(sorted(self._parent))
        return self._sorted_labels

    def _parent_codes(self):
        """Parent of the i-th label (sorted order) as its sorted index; cached.

        The top vertex gets -1.  Two trees over the same label set share
        the index space, so counting parent disagreements is a single
        sequential scan over two arrays.
        """
        if self._parent_code_array is None:
            labels = self._label_tuple()
            index = dict(zip(labels, range(len(labels))))
            index[None] = -1
            parent = self._parent
            self._parent_code_array = array("q", (index[parent[v]] for v in labels))
        return self._parent_code_array

    def postorder(self):
        """Iterative postorder traversal, children in lexicographic order."""
        out = []
        stack = [self._top]
        while stack:
            v = stack.pop()
            out.append(v)
            stack.extend(self._children[v])
        return reversed(out)

    def depths(self):
        """Map label -> distance from the top vertex (top vertex is 0)."""
        depth = {self._top: 0}
        stack = [self._top]
        while stack:
            v = stack.pop()
            d = depth[v] + 1
            for c in self._children[v]:
                depth[c] = d
                stack.append(c)
        return depth

    def is_binary(self):
        """True if every vertex has at most two children."""
        return all(len(self._children[v]) <= 2 for v in self._parent)

    def __eq__(self, other):
        """Congruence: the same labels with the same parent map."""
        if not isinstance(other, LabelledTree):
            return NotImplemented
        return self._parent == other._parent

    def __hash__(self):
        return hash(frozenset(self._parent.items()))

    def __repr__(self):
        text = serialize_tree(self)
        if len(text) > 60:
            text = text[:57] + "..."
        return f"LabelledTree({text!r})"


def parse_tree(text):
    """Parse tree text into a :class:`LabelledTree`, validating in one pass.

    The grammar check is the tree check: a label token is a valid label,
    is entered once, and its children are the group that closed just
    before it, so the parent map, the sorted children and the top vertex
    are complete when ``;`` is read and no second validation pass runs.
    Raises :class:`ParseError` with a character position on malformed
    input and :class:`DuplicateLabelError` if a label occurs twice; the
    first error in text order wins.
    """
    # An explicit stack instead of recursion: deep path trees are legal
    # input.  Tokens are plain strings; a character position is recovered
    # only for an error, by re-scanning up to the failing token, whose
    # index is the number of tokens the iterator has handed out so far.
    tokens = _TOKEN.findall(text)
    rest = iter(tokens)

    def error(message, ahead=0):
        index = len(tokens) - operator.length_hint(rest) - 1 + ahead
        return ParseError(message, _position(text, index))

    parent = {}
    children = {}
    stack = []  # the enclosing open groups
    group = []  # labels read so far in the innermost open group
    closed = None  # the group just closed: children of the next label
    prev = "start"
    for token in rest:
        if token not in "(),;":
            if prev == "label":
                raise error(f"unexpected label {token!r}")
            if token in parent:
                raise DuplicateLabelError(f"duplicate label {token!r}")
            parent[token] = None
            if prev == ")":
                for child in closed:
                    parent[child] = token
                closed.sort()
                children[token] = tuple(closed)
            else:
                children[token] = ()
            group.append(token)
            prev = "label"
            continue
        if token == "(":
            if prev == "label" or prev == ")":
                raise error("unexpected '('")
            stack.append(group)
            group = []
        elif prev != "label":
            raise error(f"unexpected {token!r}")
        elif token == ";":
            if stack:
                raise error("unexpected ';'")
            if operator.length_hint(rest):
                raise error("unexpected content after ';'", ahead=1)
            return LabelledTree._from_parse(parent, children, group[0])
        elif not stack:  # ',' or ')' outside every group
            raise error(f"unexpected {token!r}")
        elif token == ")":
            closed = group
            group = stack.pop()
        prev = token  # a ',' only changes the state
    raise ParseError("missing ';' terminator", len(text))


def _position(text, index):
    """Character offset of the ``index``-th token of ``text``."""
    return next(itertools.islice(_TOKEN.finditer(text), index, None)).start()


def serialize_tree(tree):
    """Serialize a tree to its text form, children in lexicographic order.

    ``parse_tree(serialize_tree(t))`` is always congruent to ``t``.
    """
    parts = []
    stack = [("node", tree.root_child)]
    while stack:
        kind, value = stack.pop()
        if kind == "text":
            parts.append(value)
            continue
        kids = tree.children(value)
        if not kids:
            parts.append(value)
            continue
        parts.append("(")
        stack.append(("text", ")" + value))
        for idx, child in enumerate(reversed(kids)):
            stack.append(("node", child))
            if idx != len(kids) - 1:
                stack.append(("text", ","))
    parts.append(";")
    return "".join(parts)
