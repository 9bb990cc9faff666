import random

import pytest

import treemoves as tm
from treemoves.generate import (
    random_3dm_instance,
    random_binary_tree,
    random_move,
    random_operations,
    random_permutation,
    random_recursive_tree,
    random_relabelling,
)


def test_recursive_tree_deterministic():
    a = random_recursive_tree(random.Random(7), 25)
    b = random_recursive_tree(random.Random(7), 25)
    assert a == b


def test_binary_tree_is_binary():
    rng = random.Random(8)
    for _ in range(20):
        t = random_binary_tree(rng, rng.randint(1, 30))
        assert t.is_binary()


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda rng: random_recursive_tree(rng, 0), "a tree needs at least one vertex"),
        (lambda rng: random_recursive_tree(rng, 3, ["a", "b"]), "need exactly 3 labels, got 2"),
        (
            lambda rng: random_permutation(rng, ["a", "b", "c"], 1),
            "support size must be in [2, 3], got 1",
        ),
    ],
    ids=["no-vertex", "label-count", "one-label-support"],
)
def test_argument_errors(make, message):
    with pytest.raises(ValueError) as err:
        make(random.Random(0))
    assert str(err.value) == message


def test_random_permutation_support():
    rng = random.Random(9)
    pi = random_permutation(rng, ["a", "b", "c", "d"], 3)
    assert pi.size == 3
    assert all(pi(v) != v for v in pi.support)


def test_random_operations_ground_truth():
    rng = random.Random(10)
    for _ in range(20):
        t1 = random_recursive_tree(rng, rng.randint(2, 20))
        t2, seq = random_operations(rng, t1, rng.randint(0, 10))
        assert tm.verify_sequence(t1, seq, t2)


def test_keep_top_preserves_root():
    rng = random.Random(11)
    for _ in range(20):
        t1 = random_recursive_tree(rng, rng.randint(2, 15))
        t2, _ = random_operations(rng, t1, 8, keep_top=True)
        assert t1.root_child == t2.root_child


def test_relabelling_isomorphic():
    rng = random.Random(12)
    t = random_recursive_tree(rng, 12)
    moved, pi = random_relabelling(rng, t)
    assert tm.apply_permutation(t, pi) == moved
    table = tm.mismatch_table(t, moved)
    assert table.is_isomorphic(t.root_child, moved.root_child)


def test_random_3dm_instances_valid():
    rng = random.Random(13)
    for _ in range(30):
        h = random_3dm_instance(rng, sizes=(2, 2, 2), m=3)
        assert h.m <= 3  # validation happens inside the constructor



def test_random_operations_pinned():
    # seeded output is part of the interface: ``gen random`` promises
    # byte-reproducible instances.  Seed 0 permutes the top vertex before
    # it draws moves; seed 25 needs the full-scan fallback of the move draw.
    cases = [
        (0, 3, False, "(v1,v2)v3;",
         "perm v1>v3 v2>v1 v3>v2\nmove v2 v1 v3\nmove v2 v3 v1\nmove v2 v1 v3\n"
         "move v2 v3 v1\nmove v2 v1 v3"),
        (21, 9, False, "(((v6)v3,(((v5,v8)v7)v4)v9)v2)v1;",
         "move v5 v4 v6\nmove v5 v6 v7\nmove v9 v4 v2\nmove v4 v3 v9\n"
         "move v4 v9 v2\nmove v4 v2 v9"),
        (22, 9, True, "(((v8)v4)v3,v5,(((v6)v9)v2)v7)v1;",
         "move v8 v1 v9\nmove v5 v4 v7\nperm v2>v7 v7>v2\nmove v2 v6 v3\n"
         "perm v2>v4 v4>v5 v5>v2\nperm v2>v8 v6>v2 v8>v6"),
        (25, 4, True, "(v2,(v3)v4)v1;",
         "move v2 v1 v3\nperm v2>v4 v3>v2 v4>v3\nmove v3 v1 v4\nmove v3 v4 v1\n"
         "move v3 v1 v4\nmove v4 v2 v1"),
    ]
    for seed, n, keep_top, final, script in cases:
        rng = random.Random(seed)
        t1 = random_recursive_tree(rng, n)
        t2, seq = random_operations(rng, t1, 6, perm_probability=0.5, keep_top=keep_top)
        assert (tm.serialize_tree(t2), str(seq)) == (final, script)


def test_random_move_on_path_pinned():
    # on a path most sampled targets lie below the child; the first draw
    # of seed 69 falls back to the full scan after 20 rejections
    path = tm.LabelledTree({"p1": None, **{f"p{i}": f"p{i - 1}" for i in range(2, 8)}})
    rng = random.Random(69)
    assert [str(random_move(rng, path)) for _ in range(3)] == [
        "move p3 p2 p1", "move p4 p3 p2", "move p6 p5 p1",
    ]
