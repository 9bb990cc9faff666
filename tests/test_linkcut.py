import random

import pytest

import treemoves as tm
from treemoves.generate import random_operations, random_recursive_tree
from treemoves.linkcut import _disagreements
from treemoves.rearrangement import _partition_size

from helpers import bfs_linkcut_distance, example_pair


def test_active_set_example():
    t1, t2 = example_pair()
    assert tm.active_set(t1, t2) == {"b", "d", "e", "f"}


def test_active_set_self_empty():
    t1, _ = example_pair()
    assert tm.active_set(t1, t1) == frozenset()


def test_label_set_mismatch():
    with pytest.raises(tm.LabelSetMismatchError):
        tm.active_set(tm.parse_tree("(b)a;"), tm.parse_tree("(c)a;"))


def test_root_mismatch():
    with pytest.raises(tm.RootMismatchError):
        tm.linkcut_distance(tm.parse_tree("(b)a;"), tm.parse_tree("(a)b;"))


def test_family_partition_example():
    t1, t2 = example_pair()
    partition = tm.family_partition(t1, t2)
    assert partition == {
        ("a", "d"): frozenset({"b"}),
        ("b", "a"): frozenset({"d"}),
        ("b", "d"): frozenset({"e"}),
        ("b", "c"): frozenset({"f"}),
    }
    assert len(partition) == 4
    assert tm.active_set(t1, t2) == {"b", "d", "e", "f"}


def test_family_partition_self_empty():
    t1, _ = example_pair()
    assert tm.family_partition(t1, t1) == {}


def test_family_partition_pair_class():
    t1 = tm.parse_tree("((d,e)b,c)a;")
    t2 = tm.parse_tree("((d,e)c,b)a;")
    assert tm.family_partition(t1, t2) == {("b", "c"): frozenset({"d", "e"})}
    assert tm.linkcut_distance(t1, t2) == 2


def test_distance_example():
    t1, t2 = example_pair()
    assert tm.linkcut_distance(t1, t2) == 4
    assert tm.linkcut_distance(t1, t1) == 0


def test_script_example_is_postorder_witness():
    t1, t2 = example_pair()
    script = tm.linkcut_script(t1, t2)
    assert [str(op) for op in script] == [
        "move d b a",
        "move e b d",
        "move f b c",
        "move b a d",
    ]
    assert tm.verify_sequence(t1, script, t2)


def test_script_self_empty():
    t1, _ = example_pair()
    assert len(tm.linkcut_script(t1, t1)) == 0


def test_script_replay_property():
    rng = random.Random(55)
    for _ in range(120):
        n = rng.randint(2, 14)
        t1 = random_recursive_tree(rng, n)
        t2, _ = random_operations(rng, t1, rng.randint(0, 8), keep_top=True)
        script = tm.linkcut_script(t1, t2)
        assert len(script) == tm.linkcut_distance(t1, t2)
        # postorder ordering keeps every op valid: replay must not raise
        assert tm.replay_sequence(t1, script) == t2


def test_symmetry_and_triangle():
    rng = random.Random(66)
    for _ in range(40):
        n = rng.randint(2, 10)
        labs = [f"v{i}" for i in range(1, n + 1)]
        t1 = random_recursive_tree(rng, n, labs)
        t2 = random_recursive_tree(rng, n, labs)
        t3 = random_recursive_tree(rng, n, labs)
        d12 = tm.linkcut_distance(t1, t2)
        assert d12 == tm.linkcut_distance(t2, t1)
        assert d12 <= tm.linkcut_distance(t1, t3) + tm.linkcut_distance(t3, t2)


def test_minimality_against_bfs():
    rng = random.Random(77)
    for _ in range(25):
        n = rng.randint(2, 6)
        labs = [f"v{i}" for i in range(1, n + 1)]
        t1 = random_recursive_tree(rng, n, labs)
        t2 = random_recursive_tree(rng, n, labs)
        assert tm.linkcut_distance(t1, t2) == bfs_linkcut_distance(t1, t2)


def test_movements_graph_example():
    t1, t2 = example_pair()
    graph = tm.movements_graph(t1, t2)
    assert graph.edges == {("a", "d"), ("b", "a"), ("b", "d"), ("b", "c")}
    assert graph.vertices == {"a", "b", "c", "d"}


def test_movements_graph_self():
    t1, _ = example_pair()
    graph = tm.movements_graph(t1, t1)
    assert graph.edges == frozenset() and graph.vertices == frozenset()


def _reordered(rng, tree):
    """The same tree, its parent map's keys inserted in a shuffled order."""
    items = list(tree.parent_map().items())
    rng.shuffle(items)
    return tm.LabelledTree(dict(items))


def _scan_pairs():
    rng = random.Random(23)
    for n in (1, 2, 9, 80, 700, 3000):
        # shuffled labels, so key order is not sorted order
        labels = [f"x{i}" for i in range(n)]
        rng.shuffle(labels)
        t1 = random_recursive_tree(rng, n, labels)
        rest = labels[1:]
        rng.shuffle(rest)
        yield t1, random_recursive_tree(rng, n, labels[:1] + rest)
        moved, _ = random_operations(rng, t1, n // 10 + 1, keep_top=True)
        yield t1, _reordered(rng, moved)
        yield t1, _reordered(rng, t1)
        yield t1, t1
    path = tm.LabelledTree({f"p{i}": f"p{i - 1}" if i else None for i in range(300)})
    star = tm.LabelledTree({"c": None, **{f"l{i}": "c" for i in range(300)}})
    for t in (path, star):
        yield t, random_operations(rng, t, 40, keep_top=True)[0]
        yield t, t


def test_scan_agrees_with_code_arrays():
    # the distance counts over the cached code arrays, the active set and
    # the family partition scan the parent maps: both must see one set
    for a, b in _scan_pairs():
        t1 = tm.LabelledTree(a.parent_map())
        t2 = t1 if a is b else tm.LabelledTree(b.parent_map())
        for _ in ("cold", "warm"):
            distance = tm.linkcut_distance(t1, t2)
            active = tm.active_set(t1, t2)
            partition = tm.family_partition(t1, t2)
            assert active == {v for v in t1.labels if t1.parent(v) != t2.parent(v)}
            assert distance == len(active)
            assert sum(map(len, partition.values())) == distance
            assert set().union(*partition.values()) == active
        differ = _disagreements(t1._parent, t2._parent)
        assert _partition_size(differ) == len(partition)


def test_code_cache_follows_partner_switches():
    # a tree keeps parent codes over one label tuple at a time; switching
    # partners must reuse or rebuild them, and a cached tree must still
    # get every check a cold call makes
    rng = random.Random(31)
    labels = [f"x{i}" for i in range(200)]
    rng.shuffle(labels)
    top, rest = labels[0], labels[1:]
    t1 = random_recursive_tree(rng, 200, labels)
    rng.shuffle(rest)
    t2 = random_recursive_tree(rng, 200, [top] + rest)
    t3 = _reordered(rng, random_operations(rng, t1, 30, keep_top=True)[0])
    other_top = random_recursive_tree(rng, 200, rest[:1] + [top] + rest[1:])
    renamed = random_recursive_tree(rng, 200, labels[:-1] + ["zz"])
    tm.linkcut_distance(renamed, renamed)  # codes over its own tuple
    missing = (
        f"trees are labelled by different sets "
        f"(first only: {[labels[-1]]!r}, second only: ['zz'])"
    )
    swapped = (
        f"trees are labelled by different sets "
        f"(first only: ['zz'], second only: {[labels[-1]]!r})"
    )
    calls = [
        (t1, t2, None),
        (t3, t2, None),
        (t2, t1, None),
        (t1, t3, None),
        (t1, t1, None),
        (t1, other_top, f"top vertices differ: {top!r} vs {rest[0]!r}"),
        (other_top, t2, f"top vertices differ: {rest[0]!r} vs {top!r}"),
        (t1, renamed, missing),
        (renamed, t1, swapped),
        (t3, t1, None),
        (renamed, renamed, None),
    ]
    for a, b, message in calls:
        if message is None:
            expected = sum(a.parent(v) != b.parent(v) for v in a.labels)
            assert tm.linkcut_distance(a, b) == expected
            continue
        error = tm.RootMismatchError if "top" in message else tm.LabelSetMismatchError
        with pytest.raises(error) as caught:
            tm.linkcut_distance(a, b)
        assert str(caught.value) == message
