import itertools
import math
import random

import pytest

import treemoves as tm
from treemoves import rearrangement
from treemoves.generate import (
    random_binary_tree,
    random_move,
    random_operations,
    random_permutation,
    random_recursive_tree,
)

from helpers import (
    example_pair,
    exhaustive_support_scan,
    naive_rearrangement_distance,
    partition_perturbation,
)


SWAP_BD = tm.Permutation({"b": "d", "d": "b"})


class TestSequenceSize:
    def test_example_witness(self):
        seq = tm.OperationSequence((SWAP_BD, tm.LinkCutOp("f", "d", "c")))
        assert tm.sequence_size(seq) == 3

    def test_empty(self):
        assert tm.sequence_size(tm.OperationSequence()) == 0

    def test_permutations_cancel(self):
        swap = tm.Permutation({"a": "b", "b": "a"})
        assert tm.sequence_size(tm.OperationSequence((swap, swap))) == 0


class TestCanonicalize:
    def test_interchange_example(self):
        # a move followed by a swap equals the swap followed by the
        # relabelled move
        seq = tm.OperationSequence((tm.LinkCutOp("f", "b", "c"), SWAP_BD))
        canonical = tm.canonicalize_sequence(seq)
        assert canonical.ops == (SWAP_BD, tm.LinkCutOp("f", "d", "c"))

    def test_already_canonical_unchanged(self):
        seq = tm.OperationSequence((SWAP_BD, tm.LinkCutOp("f", "d", "c")))
        assert tm.canonicalize_sequence(seq).ops == seq.ops

    def test_replays_to_same_tree(self):
        rng = random.Random(21)
        for _ in range(60):
            t1 = random_recursive_tree(rng, rng.randint(2, 12))
            t2, seq = random_operations(rng, t1, rng.randint(0, 8))
            canonical = tm.canonicalize_sequence(seq)
            assert canonical.ops and isinstance(canonical.ops[0], tm.Permutation)
            assert all(isinstance(op, tm.LinkCutOp) for op in canonical.ops[1:])
            assert tm.replay_sequence(t1, canonical) == t2
            assert tm.sequence_size(canonical) == tm.sequence_size(seq)


class TestVerify:
    def test_example_script(self):
        t1, t2 = example_pair()
        assert tm.verify_sequence(t1, tm.linkcut_script(t1, t2), t2)

    def test_empty_not_enough(self):
        t1, t2 = example_pair()
        assert not tm.verify_sequence(t1, tm.OperationSequence(), t2)

    def test_example_rearrangement_witness(self):
        t1, t2 = example_pair()
        seq = tm.OperationSequence((SWAP_BD, tm.LinkCutOp("f", "d", "c")))
        assert tm.verify_sequence(t1, seq, t2)

    def test_invalid_replay_is_false(self):
        t1, t2 = example_pair()
        bad = tm.OperationSequence((tm.LinkCutOp("b", "a", "d"),))
        assert not tm.verify_sequence(t1, bad, t2)


class TestCheckSequence:
    MOVE_D = tm.LinkCutOp("d", "b", "a")

    @pytest.mark.parametrize(
        "ops, failure",
        [
            ((SWAP_BD, tm.LinkCutOp("f", "d", "c")), None),
            (
                (MOVE_D, tm.LinkCutOp("e", "a", "d")),
                (1, "cannot apply move e a d: parent of 'e' is 'b', not 'a'"),
            ),
            (
                (tm.LinkCutOp("b", "a", "d"), MOVE_D),
                (0, "cannot apply move b a d: 'd' is a descendant of 'b'"),
            ),
            ((SWAP_BD, tm.LinkCutOp("zz", "d", "c")), (1, "no vertex labelled 'zz'")),
            (
                (MOVE_D, tm.Permutation({"b": "zz", "zz": "b"})),
                (1, "permutation moves unknown labels ['zz']"),
            ),
            (
                (SWAP_BD,),
                (1, "sequence replays to a different tree: parent of 'f' is 'd', not 'c'"),
            ),
        ],
        ids=["valid", "wrong_source", "descendant", "unknown_label", "bad_perm", "final"],
    )
    def test_index_and_reason(self, ops, failure):
        t1, t2 = example_pair()
        seq = tm.OperationSequence(ops)
        assert tm.check_sequence(t1, seq, t2) == failure
        assert tm.verify_sequence(t1, seq, t2) == (failure is None)

    def test_different_label_set(self):
        t1, _ = example_pair()
        other = tm.parse_tree("((d,e,f)b,(g,h)c)z;")
        assert tm.check_sequence(t1, tm.OperationSequence(), other) == (
            0,
            "sequence replays to a tree with a different label set",
        )


class TestBruteForce:
    def test_example_distance(self):
        t1, t2 = example_pair()
        result = tm.brute_force_distance(t1, t2)
        assert result.distance == 3
        assert result.method == "oracle"
        assert tm.verify_sequence(t1, result.witness, t2)
        assert tm.sequence_size(result.witness) == 3

    def test_self(self):
        t1, _ = example_pair()
        result = tm.brute_force_distance(t1, t1)
        assert result.distance == 0
        assert tm.verify_sequence(t1, result.witness, t1)

    def test_swap_subtrees(self):
        t1 = tm.parse_tree("((d,e)b,(f,g)c)a;")
        t2 = tm.parse_tree("((f,g)b,(d,e)c)a;")
        assert tm.brute_force_distance(t1, t2).distance == 2

    def test_guard(self):
        t = random_recursive_tree(random.Random(1), 9)
        with pytest.raises(tm.OracleSizeError):
            tm.brute_force_distance(t, t)
        assert tm.brute_force_distance(t, t, max_labels=9).distance == 0

    def test_matches_naive_enumeration(self):
        rng = random.Random(23)
        for _ in range(15):
            n = rng.randint(2, 6)
            labs = [f"v{i}" for i in range(1, n + 1)]
            t1 = random_recursive_tree(rng, n, labs)
            rng.shuffle(labs)
            t2 = random_recursive_tree(rng, n, labs)
            assert (
                tm.brute_force_distance(t1, t2).distance
                == naive_rearrangement_distance(t1, t2)
            )

    def test_symmetry_small(self):
        rng = random.Random(24)
        for _ in range(10):
            n = rng.randint(2, 6)
            labs = [f"v{i}" for i in range(1, n + 1)]
            t1 = random_recursive_tree(rng, n, labs)
            t2 = random_recursive_tree(rng, n, labs)
            assert (
                tm.brute_force_distance(t1, t2).distance
                == tm.brute_force_distance(t2, t1).distance
            )

    def test_never_beaten_by_single_strategy(self):
        rng = random.Random(25)
        for _ in range(15):
            n = rng.randint(2, 7)
            t1 = random_recursive_tree(rng, n)
            t2, _ = random_operations(rng, t1, rng.randint(0, 5), keep_top=True)
            d = tm.brute_force_distance(t1, t2).distance
            assert d <= tm.linkcut_distance(t1, t2)

    def test_never_beaten_by_permutations_alone(self):
        from treemoves.generate import random_relabelling

        rng = random.Random(255)
        for _ in range(15):
            t1 = random_recursive_tree(rng, rng.randint(2, 7))
            t2, _ = random_relabelling(rng, t1)
            d = tm.brute_force_distance(t1, t2).distance
            assert d <= tm.permutation_distance(t1, t2)


class TestFpt:
    def test_example_budgets(self):
        t1, t2 = example_pair()
        hit = tm.fpt_distance(t1, t2, 3)
        assert isinstance(hit, tm.RearrangementResult)
        assert hit.distance == 3 and hit.method == "fpt"
        assert tm.verify_sequence(t1, hit.witness, t2)
        miss = tm.fpt_distance(t1, t2, 2)
        assert isinstance(miss, tm.BudgetExceeded)
        assert miss.budget == 2 and miss.lower_bound == 2

    def test_zero_budget_self(self):
        t1, _ = example_pair()
        result = tm.fpt_distance(t1, t1, 0)
        assert isinstance(result, tm.RearrangementResult) and result.distance == 0

    def test_partition_guard_rejects(self):
        t1, t2 = example_pair()
        # |partition| = 4 > 2 * 1, so k=1 must be rejected without search
        result = tm.fpt_distance(t1, t2, 1)
        assert isinstance(result, tm.BudgetExceeded)
        assert result.best_found is None

    def test_negative_budget(self):
        t1, _ = example_pair()
        with pytest.raises(ValueError):
            tm.fpt_distance(t1, t1, -1)

    def test_agrees_with_oracle(self):
        rng = random.Random(26)
        for _ in range(40):
            n = rng.randint(2, 7)
            labs = [f"v{i}" for i in range(1, n + 1)]
            t1 = random_recursive_tree(rng, n, labs)
            rng.shuffle(labs)
            t2 = random_recursive_tree(rng, n, labs)
            exact = tm.brute_force_distance(t1, t2).distance
            for k in range(0, 6):
                result = tm.fpt_distance(t1, t2, k)
                if exact <= k:
                    assert isinstance(result, tm.RearrangementResult)
                    assert result.distance == exact
                    assert tm.verify_sequence(t1, result.witness, t2)
                else:
                    assert isinstance(result, tm.BudgetExceeded)

    def test_candidate_sets_deterministic(self):
        rng = random.Random(27)
        for _ in range(10):
            n = rng.randint(3, 7)
            t1 = random_recursive_tree(rng, n)
            t2, _ = random_operations(rng, t1, 3)
            for k in (2, 4):
                base = tm.fpt_distance(t1, t2, k)
                # narrowed sets never undershoot; any witness they return is real
                for cand in ("x", "vg"):
                    narrow = tm.fpt_distance(t1, t2, k, candidates=cand)
                    if isinstance(narrow, tm.RearrangementResult):
                        assert isinstance(base, tm.RearrangementResult)
                        assert narrow.distance >= base.distance
                        assert tm.verify_sequence(t1, narrow.witness, t2)

    def test_narrow_candidates_can_overshoot(self):
        # five labels whose only optimal solution is a 5-cycle moving two
        # labels that have equal parents in both trees: support
        # restrictions to active labels (or graph vertices) miss it
        t1 = tm.parse_tree("(((v5)v3)v2,v4)v1;")
        t2 = tm.parse_tree("(v3,((v4)v1)v5)v2;")
        assert tm.brute_force_distance(t1, t2).distance == 5
        exact = tm.fpt_distance(t1, t2, 5)
        assert isinstance(exact, tm.RearrangementResult) and exact.distance == 5
        for cand in ("x", "vg"):
            narrow = tm.fpt_distance(t1, t2, 5, candidates=cand)
            assert isinstance(narrow, tm.BudgetExceeded)
            assert narrow.best_found == 6

    @pytest.mark.parametrize(
        "text1, text2, exact",
        [
            ("((v00,v01,(v02,(v08)v04,v10)v05,v06,v07)v09)v03;",
             "((v01,v05,v06,v07,(v00,(v08)v04,v10)v09)v02)v03;", 4),
            ("((((v00,v07)v06)v02,(v04,v08)v05)v01)v03;",
             "((((v00,v04)v05)v02,(v01,v08)v07)v06)v03;", 5),
        ],
        ids=["d4", "d5"],
    )
    def test_narrow_candidates_overshoot_with_same_top(self, text1, text2, exact):
        # the tops agree, yet both narrowed sets end one above the distance
        t1, t2 = tm.parse_tree(text1), tm.parse_tree(text2)
        assert t1.root_child == t2.root_child
        assert tm.brute_force_distance(t1, t2, max_labels=None).distance == exact
        best = tm.fpt_distance(t1, t2, exact)
        assert isinstance(best, tm.RearrangementResult) and best.distance == exact
        assert tm.verify_sequence(t1, best.witness, t2)
        for cand in ("x", "vg"):
            narrow = tm.fpt_distance(t1, t2, exact, candidates=cand)
            assert isinstance(narrow, tm.BudgetExceeded)
            assert narrow.best_found == exact + 1
            found = tm.fpt_distance(t1, t2, exact + 1, candidates=cand)
            assert found.distance == exact + 1
            assert tm.verify_sequence(t1, found.witness, t2)

    def test_unknown_candidates_raise_before_guard(self):
        t1, t2 = example_pair()
        # k = 0 is a guard reject on this pair and k = 3 is answered
        for k in (0, 3):
            with pytest.raises(ValueError, match="unknown candidate set 'bogus'"):
                tm.fpt_distance(t1, t2, k, candidates="bogus")


def _path(labels):
    return tm.LabelledTree(dict(zip(labels, [None, *labels[:-1]])))


def _scan_pairs(rng, count):
    """Seeded pairs for the scan comparison: recursive trees and paths,
    a third of them with the top label swapped away so the roots disagree."""
    for trial in range(count):
        n = rng.randint(3, 10)
        labels = [f"v{i}" for i in range(1, n + 1)]
        rng.shuffle(labels)
        t1 = _path(labels) if trial % 4 == 0 else random_recursive_tree(rng, n, labels)
        t2, _ = random_operations(rng, t1, rng.randint(0, 5), keep_top=True)
        if trial % 3 == 0:
            top = t2.root_child
            other = rng.choice(sorted(set(t2.labels) - {top}))
            t2 = tm.apply_permutation(t2, tm.Permutation({top: other, other: top}))
        yield t1, t2


def _spy(monkeypatch, name):
    """Record the support (and images) of every ``_PairSearch.<name>`` call."""
    calls = []
    method = getattr(rearrangement._PairSearch, name)

    def spy(self, *args):
        calls.append(args[:2])
        return method(self, *args)

    monkeypatch.setattr(rearrangement._PairSearch, name, spy)
    return calls


def _planted_pair(rng, n, size):
    """A derangement of ``size`` non-top labels plus one move that add
    ``2 * size + 1`` classes, so the distance is exactly ``size + 1``."""
    while True:
        t1 = random_recursive_tree(rng, n)
        movable = [v for v in t1.labels if v != t1.root_child]
        mid = tm.apply_permutation(t1, random_permutation(rng, movable, size))
        if len(tm.family_partition(t1, mid)) != 2 * size:
            continue
        t2 = tm.replay_sequence(mid, (random_move(rng, mid),))
        if len(tm.family_partition(t1, t2)) == 2 * size + 1:
            return t1, t2


class TestSupportScan:
    def test_matches_exhaustive_scan(self, monkeypatch):
        scored = _spy(monkeypatch, "score")
        rng = random.Random(31)
        for trial, (t1, t2) in enumerate(_scan_pairs(rng, 300)):
            ctx = rearrangement._PairSearch(t1, t2)
            # every budget 0..6 meets every candidate set across the pairs
            kinds = ("all", "x", "vg")
            searches = [(kind, (trial + i) % 7) for i, kind in enumerate(kinds)]
            if len(t1) <= 8:
                searches.append(("all", len(t1)))
            for kind, k in searches:
                cands = ctx.candidate_labels(kind)
                expected_scored = []
                expected = exhaustive_support_scan(t1, t2, cands, k, expected_scored)
                scored.clear()
                assert rearrangement._search_best(ctx, cands, k) == expected
                # the same supports and images are scored, in the same order
                assert scored == expected_scored

    def test_oracle_answers_match_exhaustive_scan(self):
        rng = random.Random(32)
        for t1, t2 in _scan_pairs(rng, 60):
            if len(t1) > 8:
                continue
            value, sigma = exhaustive_support_scan(t1, t2, t1.labels, len(t1))
            result = tm.brute_force_distance(t1, t2)
            assert result.distance == value
            assert result.witness.ops[0] == tm.Permutation(sigma)

    def test_planted_k5_build_count(self, monkeypatch):
        t1, t2 = _planted_pair(random.Random(3), 36, 4)
        builds = _spy(monkeypatch, "neighbourhood")
        result = tm.fpt_distance(t1, t2, 5)
        assert isinstance(result, tm.RearrangementResult) and result.distance == 5
        assert tm.verify_sequence(t1, result.witness, t2)
        # recorded from the pruned scan; the plain scan built 59,500
        assert len(builds) <= 911

    def test_planted_k7_finishes(self, monkeypatch):
        # the plain scan built 50,553,206 neighbourhoods here (every
        # support up to size 6 of 59 labels) and took over four minutes
        t1, t2 = _planted_pair(random.Random(1), 60, 6)
        assert len(tm.family_partition(t1, t2)) == 13
        builds = _spy(monkeypatch, "neighbourhood")
        result = tm.fpt_distance(t1, t2, 7)
        assert isinstance(result, tm.RearrangementResult) and result.distance == 7
        assert tm.verify_sequence(t1, result.witness, t2)
        assert len(builds) <= 469


class TestApproxBinary:
    def test_self(self):
        t = random_binary_tree(random.Random(2), 7)
        result = tm.approx_binary(t, t)
        assert result.distance == 0 and result.method == "approx"

    def test_subtree_swap_within_factor(self):
        t1 = tm.parse_tree("((d,e)b,(f,g)c)a;")
        t2 = tm.parse_tree("((f,g)b,(d,e)c)a;")
        result = tm.approx_binary(t1, t2)
        assert result.distance == 4
        assert tm.verify_sequence(t1, result.witness, t2)
        assert result.distance <= 4 * tm.brute_force_distance(t1, t2).distance

    def test_factor_property(self):
        rng = random.Random(28)
        for _ in range(30):
            n = rng.randint(2, 8)
            labs = [f"v{i}" for i in range(1, n + 1)]
            t1 = random_binary_tree(rng, n, labs)
            t2 = random_binary_tree(rng, n, labs)
            result = tm.approx_binary(t1, t2)
            assert tm.verify_sequence(t1, result.witness, t2)
            assert result.distance <= 4 * tm.brute_force_distance(t1, t2).distance

    def test_non_binary_warns_but_computes(self):
        t1, t2 = example_pair()
        with pytest.warns(UserWarning):
            result = tm.approx_binary(t1, t2)
        assert result.distance == 4

    def test_root_mismatch_rejected(self):
        with pytest.raises(tm.RootMismatchError):
            tm.approx_binary(tm.parse_tree("(b)a;"), tm.parse_tree("(a)b;"))


class TestPartitionPerturbation:
    def test_example_swap(self):
        t1, t2 = example_pair()
        assert partition_perturbation(t1, t2, SWAP_BD) == (4, 1)

    def test_empty_permutation(self):
        t1, t2 = example_pair()
        before, after = partition_perturbation(t1, t2, tm.Permutation())
        assert before == after == 4

    def test_bound_property(self):
        rng = random.Random(29)
        for _ in range(120):
            n = rng.randint(3, 12)
            t1 = random_recursive_tree(rng, n)
            t2, _ = random_operations(rng, t1, rng.randint(0, 6), keep_top=True)
            movable = sorted(set(t1.labels) - {t1.root_child})
            pi = random_permutation(rng, movable, rng.randint(2, min(4, len(movable))))
            before, after = partition_perturbation(t1, t2, pi)
            assert before - 2 * pi.size <= after <= before + 2 * pi.size


def test_lower_bound_half_partition():
    rng = random.Random(30)
    for _ in range(30):
        n = rng.randint(2, 7)
        t1 = random_recursive_tree(rng, n)
        t2, _ = random_operations(rng, t1, rng.randint(0, 5), keep_top=True)
        d = tm.brute_force_distance(t1, t2).distance
        assert d >= math.ceil(len(tm.family_partition(t1, t2)) / 2)


def _every_tree(n):
    """Every rooted tree on the labels v1 ... vn: n ** (n - 1) of them."""
    labels = [f"v{i}" for i in range(1, n + 1)]
    for top in labels:
        rest = [v for v in labels if v != top]
        choices = [[p for p in labels if p != v] for v in rest]
        for parents in itertools.product(*choices):
            try:
                yield tm.LabelledTree({top: None, **dict(zip(rest, parents))})
            except tm.StructureError:
                pass  # the parents hold a cycle


def _shape(t):
    """The unlabelled shape of a tree, as nested sorted tuples."""
    shape = {}
    for v in t.postorder():
        shape[v] = tuple(sorted(shape[c] for c in t.children(v)))
    return shape[t.root_child]


@pytest.mark.parametrize("n, pairs", [(1, 1), (2, 2), (3, 18), (4, 256), (5, 5625)])
def test_census_every_small_pair(n, pairs):
    # one t1 per unlabelled shape against every t2: the exact methods agree
    # with the naive oracle, and the budgeted search is tight at the distance
    trees = list(_every_tree(n))
    assert len(trees) == n ** (n - 1)
    firsts = {}
    for t in trees:
        firsts.setdefault(_shape(t), t)
    assert len(firsts) * len(trees) == pairs
    for t1 in firsts.values():
        for t2 in trees:
            exact = tm.brute_force_distance(t1, t2)
            d = exact.distance
            assert d == naive_rearrangement_distance(t1, t2)
            assert tm.verify_sequence(t1, exact.witness, t2)
            hit = tm.fpt_distance(t1, t2, d)
            assert isinstance(hit, tm.RearrangementResult) and hit.distance == d
            assert tm.verify_sequence(t1, hit.witness, t2)
            if d:
                assert isinstance(tm.fpt_distance(t1, t2, d - 1), tm.BudgetExceeded)
