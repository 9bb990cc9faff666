import random

import pytest

import treemoves as tm
from treemoves.generate import random_3dm_instance



SHARED_B = tm.ThreeDMInstance(
    ("a", "a'"), ("b",), ("c", "c'"),
    (("a", "b", "c"), ("a'", "b", "c'")),
)


def test_instance_validation():
    with pytest.raises(tm.TreeError):
        tm.ThreeDMInstance(("a",), ("a",), ("c",), ())  # not disjoint
    with pytest.raises(tm.TreeError):
        tm.ThreeDMInstance(("a",), ("b",), ("c",), (("a", "c", "b"),))  # wrong sets
    with pytest.raises(tm.TreeError):  # two triples sharing two elements
        tm.ThreeDMInstance(
            ("a",), ("b",), ("c", "c'"), (("a", "b", "c"), ("a", "b", "c'"))
        )
    with pytest.raises(tm.TreeError):  # an element in four triples
        tm.ThreeDMInstance(
            ("a", "x", "y", "z"), ("b",), ("c", "d", "e", "f"),
            (("a", "b", "c"), ("x", "b", "d"), ("y", "b", "e"), ("z", "b", "f")),
        )


def test_text_round_trip():
    text = "a a'\nb\nc c'\na b c\na' b c'\n"
    assert tm.parse_instance(text) == SHARED_B


def test_build_shared_vertex_instance():
    t1, t2 = tm.build_reduction(SHARED_B)
    expected = 5 + 6 * 2 + 2  # elements + gadgets + top vertex + implicit root
    assert len(t1) == expected - 1
    assert len(t2) == expected - 1
    assert t1.root_child == t2.root_child == "r"
    # gadgets of triple 0 sit under their element in t1, shifted in t2
    assert t1.parent("0_a_1") == "a" and t2.parent("0_a_1") == "b"
    assert t1.parent("0_b_2") == "b" and t2.parent("0_b_2") == "c"
    assert t1.parent("0_c_1") == "c" and t2.parent("0_c_1") == "a"
    graph = tm.movements_graph(t1, t2)
    assert graph.edges == {
        ("a", "b"), ("b", "c"), ("c", "a"),
        ("a'", "b"), ("b", "c'"), ("c'", "a'"),
    }
    assert graph.vertices == {"a", "a'", "b", "c", "c'"}


def test_empty_instance_no_moves():
    h = tm.ThreeDMInstance(("x",), ("y",), ("z",), ())
    t1, t2 = tm.build_reduction(h)
    assert tm.linkcut_distance(t1, t2) == 0
    assert len(t1) == 3 + 0 + 1


def test_gadget_labels_unique():
    t1, t2 = tm.build_reduction(SHARED_B)
    gadgets = [v for v in t1.labels if "_" in v]
    assert len(gadgets) == len(set(gadgets)) == 12
    assert set(t1.labels) == set(t2.labels)


def test_bound_values():
    assert tm.reduction_bound(2, 1) == 9
    assert tm.reduction_bound(0, 0) == 0
    assert tm.reduction_bound(3, 3) == 9
    with pytest.raises(ValueError):
        tm.reduction_bound(2, 3)


def test_max_matching():
    assert tm.max_matching_bruteforce(SHARED_B) == 1
    disjoint = tm.ThreeDMInstance(
        ("a", "a'"), ("b", "b'"), ("c", "c'"),
        (("a", "b", "c"), ("a'", "b'", "c'")),
    )
    assert tm.max_matching_bruteforce(disjoint) == 2
    empty = tm.ThreeDMInstance(("a",), ("b",), ("c",), ())
    assert tm.max_matching_bruteforce(empty) == 0


def cycle_solving_witness(instance, t1, t2, matched):
    """Permutation solving each matched triple, then moves for the rest."""
    mapping = {}
    for a, b, c in matched:
        mapping.update({a: b, b: c, c: a})
    pi = tm.Permutation(mapping)
    mid = tm.apply_permutation(t1, pi)
    return tm.OperationSequence((pi, *tm.linkcut_script(mid, t2).ops))


def best_matching(instance, size):
    from itertools import combinations

    for combo in combinations(instance.triples, size):
        flat = [e for t in combo for e in t]
        if len(set(flat)) == 3 * size:
            return combo
    raise AssertionError("no matching of that size")


def test_constructive_upper_bound_shared_instance():
    t1, t2 = tm.build_reduction(SHARED_B)
    n = tm.max_matching_bruteforce(SHARED_B)
    seq = cycle_solving_witness(SHARED_B, t1, t2, best_matching(SHARED_B, n))
    assert tm.verify_sequence(t1, seq, t2)
    assert tm.sequence_size(seq) == tm.reduction_bound(SHARED_B.m, n) == 9


def test_single_triple_distance_is_three():
    h = tm.ThreeDMInstance(("a",), ("b",), ("c",), (("a", "b", "c"),))
    t1, t2 = tm.build_reduction(h)
    result = tm.brute_force_distance(t1, t2, max_labels=10)
    assert result.distance == tm.reduction_bound(1, 1) == 3
    assert tm.verify_sequence(t1, result.witness, t2)


def test_random_instances_obey_invariants():
    rng = random.Random(31)
    for _ in range(15):
        h = random_3dm_instance(
            rng, sizes=(rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 3)),
            m=rng.randint(0, 3),
        )
        t1, t2 = tm.build_reduction(h)
        total = len(h.elements())
        assert len(t1) == total + 6 * h.m + 1
        graph = tm.movements_graph(t1, t2)
        # one 3-cycle per triple; 1-commonness keeps all edges distinct
        assert len(graph.edges) == 3 * h.m
        for a, b, c in h.triples:
            assert {(a, b), (b, c), (c, a)} <= graph.edges
