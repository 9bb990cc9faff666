import hashlib
import math
import random

import pytest

import treemoves as tm
from treemoves.generate import (
    random_binary_tree,
    random_permutation,
    random_recursive_tree,
    random_relabelling,
)
from treemoves.matching import min_cost_perfect_matching

from helpers import (
    depths,
    eager_mismatch_table,
    exhaustive_permutation_distance,
    example_pair,
    matched_pairs,
)


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


@pytest.mark.parametrize("method", ["mismatch_cost", "is_isomorphic", "conserved"])
def test_table_rejects_unknown_labels(method):
    # d is only in the second tree and c only in the first
    table = tm.mismatch_table(tm.parse_tree("(b,c)a;"), tm.parse_tree("(b,d)a;"))
    query = getattr(table, method)
    for u, v, missing in (("d", "a", "d"), ("a", "c", "c"), ("zz", "zz", "zz")):
        with pytest.raises(tm.UnknownLabelError) as caught:
            query(u, v)
        assert str(caught.value) == f"no vertex labelled {missing!r}"


def test_table_infinity_matches_iso():
    rng = random.Random(12)
    for _ in range(20):
        t1 = random_recursive_tree(rng, rng.randint(2, 10))
        t2, _ = random_relabelling(rng, t1)
        table = tm.mismatch_table(t1, t2)
        oracle = eager_mismatch_table(t1, t2)
        for u in t1.labels:
            for v in t2.labels:
                assert ((u, v) in oracle.cost) == table.is_isomorphic(u, v)
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
            pi = tm.optimal_permutation(t1, t2)
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


def _relabel(rng, tree, fraction):
    """``tree`` with about ``fraction`` of its labels permuted among themselves."""
    if fraction == 1:
        return random_relabelling(rng, tree)[0]
    size = min(len(tree), max(2, round(fraction * len(tree))))
    return tm.apply_permutation(tree, random_permutation(rng, tree.labels, size))


def _star(leaves):
    return tm.LabelledTree({"c": None, **{f"l{i}": "c" for i in range(leaves)}})


def _path(n):
    return tm.LabelledTree({f"p{i}": f"p{i - 1}" if i else None for i in range(n)})


def _caterpillar(spine):
    parent = {}
    for i in range(spine):
        parent[f"s{i}"] = f"s{i - 1}" if i else None
        parent[f"f{i}"] = f"s{i}"
    return tm.LabelledTree(parent)


def _sweep_pairs():
    rng = random.Random(61)
    shapes = []
    for i in range(12):
        n = rng.randint(2, 60)
        shapes.append((f"recursive{i}-n{n}", random_recursive_tree(rng, n)))
        n = rng.randint(2, 60)
        shapes.append((f"binary{i}-n{n}", random_binary_tree(rng, n)))
    shapes += [(f"star{m}", _star(m)) for m in (3, 30, 200)]
    shapes += [(f"path{n}", _path(n)) for n in (2, 40, 300)]
    shapes += [(f"caterpillar{m}", _caterpillar(m)) for m in (5, 60)]
    params = []
    for name, tree in shapes:
        for fraction, tag in ((0.05, "5pct"), (1, "full")):
            pair = (tree, _relabel(rng, tree, fraction))
            params.append(pytest.param(*pair, id=f"{name}-{tag}"))
    swap = tm.Permutation({"c": "l1", "l1": "c"})
    for leaves in (3, 30, 200):
        swapped = tm.apply_permutation(_star(leaves), swap)
        params.append(pytest.param(_star(leaves), swapped, id=f"star{leaves}-swap"))
        pair = (_star(leaves), _relabel(rng, swapped, 0.05))
        params.append(pytest.param(*pair, id=f"star{leaves}-swap-5pct"))
    return params


class TestAgainstEagerTable:
    """The top-down memo against the level-wise table it replaced."""

    @pytest.mark.parametrize("t1, t2", _sweep_pairs())
    def test_every_pair(self, t1, t2):
        table = tm.mismatch_table(t1, t2)
        oracle = eager_mismatch_table(t1, t2)
        for u in t1.labels:
            for v in t2.labels:
                assert table.mismatch_cost(u, v) == oracle.cost.get((u, v), math.inf)
                kept = {x for x, y in matched_pairs(oracle.matchings, u, v) if x == y}
                assert table.conserved(u, v) == kept
        r1, r2 = t1.root_child, t2.root_child
        expected = {x: y for x, y in matched_pairs(oracle.matchings, r1, r2) if x != y}
        assert tm.optimal_permutation(t1, t2).mapping == expected


def test_not_isomorphic_rejected_before_matching(monkeypatch):
    # the deepest vertex stays where it is and a leaf moves below it, so
    # the second tree is one level taller and the root codes differ
    rng = random.Random(71)
    t1 = random_recursive_tree(rng, 2000)
    depth = depths(t1)
    deepest = max(sorted(depth), key=depth.get)
    leaf = next(v for v in sorted(t1.labels) if not t1.children(v) and v != deepest)
    parent = t1.parent_map()
    parent[leaf] = deepest
    t2 = tm.LabelledTree(parent)
    calls = []
    solver = tm.permutation.min_cost_perfect_matching

    def counting(rows):
        calls.append(len(rows))
        return solver(rows)

    monkeypatch.setattr(tm.permutation, "min_cost_perfect_matching", counting)
    with pytest.raises(tm.NotIsomorphicError):
        tm.optimal_permutation(t1, t2)
    assert calls == []


def test_path_fills_without_solver(monkeypatch):
    # every child block of a path is 1 x 1, so its one matching is forced
    rng = random.Random(72)
    labels = [f"p{i}" for i in range(3000)]
    images = rng.sample(labels, len(labels))
    t1 = tm.LabelledTree({v: labels[i - 1] if i else None for i, v in enumerate(labels)})
    t2 = tm.LabelledTree({v: images[i - 1] if i else None for i, v in enumerate(images)})
    calls = []
    monkeypatch.setattr(tm.permutation, "min_cost_perfect_matching", calls.append)
    table = tm.mismatch_table(t1, t2)
    pi = tm.optimal_permutation(t1, t2)
    assert calls == []
    assert len(table.cost) == len(labels) - 1
    assert pi.mapping == {a: b for a, b in zip(labels, images) if a != b}
    assert table.mismatch_cost(t1.root_child, t2.root_child) == pi.size


class TestLeafBlocks:
    """Blocks of sibling leaves are solved by rule, not by the solver."""

    def test_shared_labels_stay_and_the_rest_pair_in_sorted_order(self):
        # the five leaves form one block; c and e are leaves on both sides,
        # and a, b, d pair with p, q, s in that order
        t1 = tm.parse_tree("(((a,b,c,d,e)s)q)p;")
        t2 = tm.parse_tree("(((c,e,p,q,s)b)d)a;")
        table = tm.mismatch_table(t1, t2)
        assert table.conserved("s", "b") == {"c", "e"}
        assert sorted(table.matchings["s", "b"]) == [
            ("a", "p"), ("b", "q"), ("c", "c"), ("d", "s"), ("e", "e"),
        ]
        pi = tm.optimal_permutation(t1, t2)
        assert str(pi) == "perm a>p b>q d>s p>a q>d s>b"
        assert table.mismatch_cost("p", "a") == pi.size == 6

    def test_rule_cost_equals_solver(self):
        rng = random.Random(91)
        for _ in range(3000):
            m = rng.randint(1, 12)
            universe = [f"l{i}" for i in range(rng.randint(m, 2 * m))]
            xs, ys = rng.sample(universe, m), rng.sample(universe, m)
            t1 = tm.LabelledTree({"r": None, **{x: "r" for x in xs}})
            t2 = tm.LabelledTree({"r": None, **{y: "r" for y in ys}})
            expected, _ = min_cost_perfect_matching(
                [[int(a != b) for b in ys] for a in xs]
            )
            table = tm.mismatch_table(t1, t2)
            pairs = table.matchings["r", "r"]
            assert table.mismatch_cost("r", "r") == expected
            assert sum(a != b for a, b in pairs) == expected
            assert sorted(a for a, _ in pairs) == sorted(xs)
            assert sorted(b for _, b in pairs) == sorted(ys)

    @pytest.mark.parametrize("leaves", [300, 1000, 10000])
    def test_swapped_star_fills_without_solver(self, monkeypatch, leaves):
        # the centre zz sorts after every leaf and swaps with the first one
        names = [f"k{i:04d}" for i in range(leaves)]
        t1 = tm.LabelledTree({"zz": None, **{v: "zz" for v in names}})
        t2 = tm.LabelledTree({"k0000": None, **{v: "k0000" for v in ["zz", *names[1:]]}})
        calls = []
        monkeypatch.setattr(tm.permutation, "min_cost_perfect_matching", calls.append)
        pi = tm.optimal_permutation(t1, t2)
        assert calls == []
        assert str(pi) == "perm k0000>zz zz>k0000"


@pytest.mark.parametrize("seed", [81, 82])
def test_storage_follows_reachable_pairs(seed):
    # every leaf pair at equal depth is isomorphic, so a table that stored
    # them all would hold millions of entries at this size
    rng = random.Random(seed)
    t1 = random_recursive_tree(rng, 20000)
    t2, _ = random_relabelling(rng, t1)
    table = tm.mismatch_table(t1, t2)
    pi = tm.optimal_permutation(t1, t2)
    assert tm.apply_permutation(t1, pi) == t2
    assert pi.size == table.mismatch_cost(t1.root_child, t2.root_child)
    assert len(table.cost) <= len(t1)
