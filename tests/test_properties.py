"""Property tests: relabelling invariance, distance bounds, text round trip.

Hypothesis runs derandomized and without an example database, so every
run draws the same examples and the suite stays deterministic.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

import treemoves as tm

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=40)

# every character the text format accepts inside a label
_label_char = st.characters(
    blacklist_characters="(),;", blacklist_categories=("Cs",)
).filter(lambda c: not c.isspace())
_labels = st.text(_label_char, min_size=1, max_size=4)


def _build(labels, parents):
    """Tree whose i-th label hangs below label ``parents[i - 1]`` (index < i)."""
    parent = {labels[0]: None}
    for i, p in enumerate(parents, start=1):
        parent[labels[i]] = labels[p]
    return tm.LabelledTree(parent)


@st.composite
def _parents(draw, n):
    return [draw(st.integers(0, i - 1)) for i in range(1, n)]


@st.composite
def trees(draw, max_n=7):
    n = draw(st.integers(1, max_n))
    labels = draw(st.lists(_labels, min_size=n, max_size=n, unique=True))
    return _build(labels, draw(_parents(n)))


@st.composite
def tree_pairs(draw, max_n=7):
    """Two trees over one label set: isomorphic, sharing the top vertex, or any."""
    t1 = draw(trees(max_n))
    n = len(t1)
    labels = list(t1.labels)
    kind = draw(st.sampled_from(["isomorphic", "same top", "any"]))
    if kind == "isomorphic":
        image = dict(zip(labels, draw(st.permutations(labels))))
        image[None] = None
        return t1, tm.LabelledTree({image[v]: image[p] for v, p in t1.parent_map().items()})
    if kind == "same top":
        order = [t1.root_child] + draw(
            st.permutations([v for v in labels if v != t1.root_child])
        )
    else:
        order = draw(st.permutations(labels))
    return t1, _build(order, draw(_parents(n)))


def _outcome(distance, t1, t2):
    """The distance, or the type of error raised where it is undefined."""
    try:
        return distance(t1, t2)
    except tm.TreeError as exc:
        return type(exc)


def _rearrangement(t1, t2):
    return tm.brute_force_distance(t1, t2).distance


DISTANCES = (tm.linkcut_distance, tm.permutation_distance, _rearrangement)


@PROPERTY
@given(tree_pairs(), st.data())
def test_distances_invariant_under_relabelling(pair, data):
    t1, t2 = pair
    old = list(t1.labels)
    new = data.draw(st.lists(_labels, min_size=len(old), max_size=len(old), unique=True))
    sigma = dict(zip(old, new))
    sigma[None] = None

    def rename(tree):
        return tm.LabelledTree({sigma[v]: sigma[p] for v, p in tree.parent_map().items()})

    for distance in DISTANCES:
        assert _outcome(distance, t1, t2) == _outcome(distance, rename(t1), rename(t2))


@PROPERTY
@given(tree_pairs())
def test_rearrangement_at_most_either_distance(pair):
    t1, t2 = pair
    value = _rearrangement(t1, t2)
    for distance in (tm.linkcut_distance, tm.permutation_distance):
        bound = _outcome(distance, t1, t2)
        assert isinstance(bound, type) or value <= bound


@PROPERTY
@given(trees(max_n=6), st.data())
def test_rearrangement_triangle_inequality(t1, data):
    labels = list(t1.labels)
    t2, t3 = (
        _build(data.draw(st.permutations(labels)), data.draw(_parents(len(labels))))
        for _ in range(2)
    )
    assert _rearrangement(t1, t3) <= _rearrangement(t1, t2) + _rearrangement(t2, t3)


@PROPERTY
@given(trees(max_n=12))
def test_parse_serialize_identity(tree):
    assert tm.parse_tree(tm.serialize_tree(tree)) == tree
