import hashlib
import math
import random

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
    assert math.isinf(table.mismatch_cost("d", "d"))
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
                assert math.isinf(table.mismatch_cost(u, v)) != table.is_isomorphic(u, v)


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

    @pytest.mark.parametrize(
        "seed, groups, size, digest",
        [
            (100, [(60, 2)], 130, "e079601c11ab26d94664dc9828b31eea9239a68ec3c3312577ea9b81f56f6b84"),
            (101, [(100, 2)], 212, "ae8bd3b216c41df8b13ba1b5de03e9f896230e6f31ad184a7f98a0ee52bc8056"),
            (102, [(150, 2)], 319, "bf1f58f9a6080d6d2bc36dafd97b9afb4018f1e4461d9cda7a716ae917f07029"),
            (103, [(60, 2), (80, 3)], 441, "47cc90e9825cef168674d82f69fdc97d054219b8ef8ab4bc29ab6861030002b5"),
            (104, [(120, 1), (64, 3)], 424, "a90f020c72b35cb3e3b17aee00631b72ef3da52c16bb5686e20c2d8b6d67f22f"),
        ],
        ids=["60x2", "100x2", "150x2", "60x2+80x3", "120x1+64x3"],
    )
    def test_wide_block_witness_pinned(self, seed, groups, size, digest):
        # the top vertex has one matching block per (count, shape) group,
        # 60 to 150 rows wide; the pinned witnesses fix the solver's
        # tie-breaking on blocks of that width
        parent = {"r": None}
        k = 0
        for count, shape in groups:
            for _ in range(count):
                k += 1
                c = f"c{k}"
                parent[c] = "r"
                for j in range(shape):
                    # shape 1: one leaf, 2: a cherry, 3: a three-vertex path
                    parent[f"{c}_{j}"] = c if j == 0 or shape < 3 else f"{c}_{j - 1}"
        rng = random.Random(seed)
        labels = sorted(parent)
        images = labels[:]
        rng.shuffle(images)
        rename = dict(zip(labels, images))
        t1 = tm.LabelledTree(parent)
        t2 = tm.LabelledTree(
            {rename[v]: None if p is None else rename[p] for v, p in parent.items()}
        )
        pi = tm.optimal_permutation(t1, t2)
        assert pi.size == size
        assert hashlib.sha256(str(pi).encode()).hexdigest() == digest
        assert tm.apply_permutation(t1, pi) == t2
