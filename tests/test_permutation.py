import random

import numpy as np
import pytest

import treemoves as tm
from treemoves.generate import random_recursive_tree, random_relabelling

from helpers import exhaustive_permutation_distance, example_pair


def subtree_size(tree, v):
    total = 1
    stack = [v]
    while stack:
        u = stack.pop()
        kids = tree.children(u)
        total += len(kids)
        stack.extend(kids)
    return total


def test_example_distance():
    t1, t2 = example_pair()
    assert tm.permutation_distance(t1, t2) == 6


def test_self_distance_zero():
    t1, _ = example_pair()
    assert tm.permutation_distance(t1, t1) == 0


def test_not_isomorphic():
    with pytest.raises(tm.NotIsomorphicError):
        tm.permutation_distance(tm.parse_tree("((c)b)a;"), tm.parse_tree("(b,c)a;"))


def test_mismatch_table_example():
    t1, t2 = example_pair()
    table = tm.mismatch_table(t1, t2)
    assert table.mismatch_cost("a", "a") == 6
    # leaf d in t1 versus the 3-vertex subtree at d in t2
    assert np.isinf(table.mismatch_cost("d", "d"))
    assert table.conserved("a", "a") == {"a", "f"}


def test_table_infinity_matches_iso():
    rng = random.Random(12)
    for _ in range(20):
        t1 = random_recursive_tree(rng, rng.randint(2, 10))
        t2, _ = random_relabelling(rng, t1)
        table = tm.mismatch_table(t1, t2)
        for u in t1.labels:
            for v in t2.labels:
                assert ((u, v) in table.cost) == table.is_isomorphic(u, v)
                assert np.isinf(table.mismatch_cost(u, v)) != table.is_isomorphic(u, v)


def test_conservation_accounting():
    rng = random.Random(13)
    for _ in range(20):
        t1 = random_recursive_tree(rng, rng.randint(2, 10))
        t2, _ = random_relabelling(rng, t1)
        table = tm.mismatch_table(t1, t2)
        for u in t1.labels:
            for v in t2.labels:
                if table.is_isomorphic(u, v):
                    cost = int(table.mismatch_cost(u, v))
                    assert cost + len(table.conserved(u, v)) == subtree_size(t1, u)


def test_oracle_equivalence_small():
    rng = random.Random(14)
    for _ in range(40):
        t1 = random_recursive_tree(rng, rng.randint(2, 7))
        t2, _ = random_relabelling(rng, t1)
        assert tm.permutation_distance(t1, t2) == exhaustive_permutation_distance(t1, t2)


def test_symmetry():
    rng = random.Random(15)
    for _ in range(25):
        t1 = random_recursive_tree(rng, rng.randint(2, 12))
        t2, _ = random_relabelling(rng, t1)
        assert tm.permutation_distance(t1, t2) == tm.permutation_distance(t2, t1)


class TestOptimalPermutation:
    def test_example_witness(self):
        t1, t2 = example_pair()
        pi = tm.optimal_permutation(t1, t2)
        assert pi.size == 6
        assert tm.apply_permutation(t1, pi) == t2

    def test_self_empty(self):
        t1, _ = example_pair()
        assert tm.optimal_permutation(t1, t1).size == 0

    def test_congruent_pair_empty(self):
        assert tm.optimal_permutation(
            tm.parse_tree("(b,c)a;"), tm.parse_tree("(c,b)a;")
        ).size == 0

    def test_replay_soundness_and_consistency(self):
        rng = random.Random(16)
        for _ in range(50):
            t1 = random_recursive_tree(rng, rng.randint(2, 14))
            t2, _ = random_relabelling(rng, t1)
            table = tm.mismatch_table(t1, t2)
            pi = tm.optimal_permutation(t1, t2, table=table)
            assert pi.size == int(table.mismatch_cost(t1.root_child, t2.root_child))
            assert tm.apply_permutation(t1, pi) == t2

    def test_not_isomorphic(self):
        with pytest.raises(tm.NotIsomorphicError):
            tm.optimal_permutation(tm.parse_tree("((c)b)a;"), tm.parse_tree("(b,c)a;"))
