import random

import pytest

import treemoves as tm
from treemoves.generate import (
    random_move,
    random_operations,
    random_permutation,
    random_recursive_tree,
)
from treemoves.permutation import _canonical_codes

from helpers import count_tree_builds, example_pair, rebuild_replay


class TestLinkCut:
    def test_example_caption_first_move(self):
        t1, _ = example_pair()
        moved = tm.replay_sequence(t1, (tm.LinkCutOp("d", "b", "a"),))
        assert moved == tm.parse_tree("((e,f)b,d,(g,h)c)a;")

    def test_descendant_target_rejected(self):
        t1, _ = example_pair()
        with pytest.raises(tm.DescendantTargetError):
            tm.replay_sequence(t1, (tm.LinkCutOp("b", "a", "d"),))

    def test_becomes_valid_after_clearing_subtree(self):
        # the move rejected above is fine once d has left b's subtree
        t1, _ = example_pair()
        t = tm.replay_sequence(t1, (tm.LinkCutOp("d", "b", "a"),))
        t = tm.replay_sequence(t, (tm.LinkCutOp("e", "b", "d"),))
        t = tm.replay_sequence(t, (tm.LinkCutOp("f", "b", "c"),))
        t = tm.replay_sequence(t, (tm.LinkCutOp("b", "a", "d"),))
        assert t == tm.parse_tree("((b,e)d,(f,g,h)c)a;")

    def test_wrong_parent(self):
        t1, _ = example_pair()
        with pytest.raises(tm.WrongParentError):
            tm.replay_sequence(t1, (tm.LinkCutOp("d", "c", "a"),))

    def test_unknown_label(self):
        t1, _ = example_pair()
        with pytest.raises(tm.UnknownLabelError):
            tm.replay_sequence(t1, (tm.LinkCutOp("z", "b", "a"),))

    def test_source_equal_target_rejected_at_construction(self):
        with pytest.raises(tm.BadLabelError):
            tm.LinkCutOp("v", "p", "p")


class TestPermutation:
    def test_example_swap(self):
        t1, _ = example_pair()
        swapped = tm.apply_permutation(t1, tm.Permutation({"b": "d", "d": "b"}))
        assert swapped == tm.parse_tree("((b,e,f)d,(g,h)c)a;")

    def test_identity(self):
        t1, _ = example_pair()
        assert tm.apply_permutation(t1, tm.Permutation()) == t1

    def test_example_caption_six_cycle(self):
        # the six-label relabelling that turns the first tree into the second
        t1, t2 = example_pair()
        pi = tm.Permutation(
            {"b": "c", "c": "d", "d": "g", "g": "b", "e": "h", "h": "e"}
        )
        assert tm.apply_permutation(t1, pi) == t2

    def test_non_bijective_rejected(self):
        with pytest.raises(tm.BadLabelError):
            tm.Permutation({"a": "b"})
        with pytest.raises(tm.BadLabelError):
            tm.Permutation({"a": "c", "b": "c"})

    def test_fixed_point_rejected(self):
        with pytest.raises(tm.BadLabelError):
            tm.Permutation({"a": "a"})

    def test_unknown_label(self):
        t1, _ = example_pair()
        with pytest.raises(tm.UnknownLabelError):
            tm.apply_permutation(t1, tm.Permutation({"z": "a", "a": "z"}))

    def test_topology_preserved(self):
        rng = random.Random(11)
        for _ in range(30):
            t = random_recursive_tree(rng, rng.randint(2, 12))
            pi = random_permutation(rng, t.labels, rng.randint(2, min(5, len(t))))
            moved = tm.apply_permutation(t, pi)
            c1, c2 = _canonical_codes(t, moved)
            assert c1[t.root_child] == c2[moved.root_child]

    def test_compose_and_inverse(self):
        pi = tm.Permutation({"a": "b", "b": "c", "c": "a"})
        assert pi.then(pi.inverse()).size == 0
        assert pi.inverse()("b") == "a"
        two = pi.then(pi)
        assert two("a") == "c"


class TestInvertibility:
    def test_random_ops_invert(self):
        rng = random.Random(22)
        for _ in range(60):
            t = random_recursive_tree(rng, rng.randint(2, 15))
            if rng.random() < 0.5:
                op = random_move(rng, t)
                if op is None:
                    continue
                there = tm.replay_sequence(t, (op,))
                back = tm.replay_sequence(there, (op.inverse(),))
            else:
                op = random_permutation(rng, t.labels, rng.randint(2, min(4, len(t))))
                there = tm.apply_permutation(t, op)
                back = tm.apply_permutation(there, op.inverse())
            assert back == t


class TestScripts:
    def test_round_trip(self):
        text = "move d b a\nperm b>d d>b\nmove f d c"
        seq = tm.parse_script(text)
        assert len(seq) == 3
        assert tm.format_script(seq) == text

    def test_comments_and_blanks_skipped(self):
        seq = tm.parse_script("# witness\n\nmove d b a\n")
        assert len(seq) == 1

    def test_bad_lines(self):
        with pytest.raises(tm.TreeError):
            tm.parse_script("move a b")
        with pytest.raises(tm.TreeError):
            tm.parse_script("perm a>")
        with pytest.raises(tm.TreeError):
            tm.parse_script("jump a b c")

    @pytest.mark.parametrize(
        "line, error, message",
        [
            ("move a b", tm.TreeError, "move needs CHILD FROM TO: 'move a b'"),
            ("perm a>", tm.TreeError, "bad pair 'a>' (want old>new)"),
            ("perm a>b a>c", tm.TreeError, "label 'a' mapped twice"),
            ("jump a b c", tm.TreeError, "unknown operation 'jump'"),
            (
                "move a a b",
                tm.BadLabelError,
                "move needs three distinct labels, got ('a', 'a', 'b')",
            ),
            ("perm a>a", tm.BadLabelError, "permutation stores fixed point 'a'"),
            (
                "perm a>b",
                tm.BadLabelError,
                "permutation mapping must be a bijection on its own support",
            ),
            (
                "move a( b c",
                tm.BadLabelError,
                "label 'a(' contains whitespace or one of '(', ')', ',', ';'",
            ),
        ],
    )
    def test_errors_name_their_line(self, line, error, message):
        with pytest.raises(tm.TreeError) as err:
            tm.parse_script(f"move d b a\n# note\n\n  {line}\nmove e b d\n")
        assert type(err.value) is error
        assert str(err.value) == f"line 4: {message}"

    def test_replay_ground_truth(self):
        rng = random.Random(33)
        for _ in range(25):
            t1 = random_recursive_tree(rng, rng.randint(2, 12))
            t2, seq = random_operations(rng, t1, rng.randint(0, 6))
            replayed = tm.replay_sequence(t1, tm.parse_script(tm.format_script(seq)))
            assert replayed == t2


def _outcome(replay, tree, seq):
    """The replayed tree, or the class and message of the error raised."""
    try:
        return replay(tree, seq)
    except tm.TreeError as exc:
        return type(exc), str(exc)


def _invalid_op(rng, tree, kind):
    """An operation that ``tree`` must reject, of the given kind."""
    labels = sorted(tree.labels)
    top = tree.root_child
    if kind == "unknown_perm":
        v = rng.choice(labels)
        return tm.Permutation({"zz": v, v: "zz"})
    if kind == "descendant":
        inner = [v for v in labels if v != top and tree.children(v)]
        if inner:
            v = rng.choice(inner)
            below = [w for w in labels if tree.is_descendant(w, v)]
            return tm.LinkCutOp(v, tree.parent(v), rng.choice(below))
    if kind == "unknown_move":
        v = rng.choice([w for w in labels if w != top])
        source = tree.parent(v)
        triple = [v, source, rng.choice([w for w in labels if w not in (v, source)])]
        triple[rng.randrange(3)] = "zz"
        return tm.LinkCutOp(*triple)
    # wrong source (also for "descendant" on a star, which has no inner
    # vertex below the top); the top vertex's parent is None, never a label
    v = rng.choice(labels)
    source = rng.choice([w for w in labels if w not in (v, tree.parent(v))])
    return tm.LinkCutOp(v, source, rng.choice([w for w in labels if w not in (v, source)]))


class TestReplayAgainstRebuild:
    KINDS = ["valid", "wrong_source", "descendant", "unknown_move", "unknown_perm", "stale"]

    def test_same_tree_or_same_error(self):
        rng = random.Random(44)
        for case in range(360):
            t1 = random_recursive_tree(rng, rng.randint(3, 14))
            _, valid = random_operations(rng, t1, rng.randint(0, 8))
            ops = list(valid)
            kind = self.KINDS[case % len(self.KINDS)]
            if kind == "stale":
                # moves valid on t1, replayed in turn: some become invalid
                ops += [op for op in (random_move(rng, t1) for _ in range(3)) if op]
            elif kind != "valid":
                here = rebuild_replay(t1, ops)
                ops.append(_invalid_op(rng, here, kind))
                ops += random_operations(rng, here, 2)[1]  # never reached
            seq = tm.OperationSequence(ops)
            expected = _outcome(rebuild_replay, t1, seq)
            assert _outcome(tm.replay_sequence, t1, seq) == expected, (kind, str(seq))
            if kind not in ("valid", "stale"):
                assert not isinstance(expected, tm.LabelledTree)
            other = random_recursive_tree(rng, len(t1))
            if isinstance(expected, tm.LabelledTree):
                for t2 in (expected, other):
                    failure = tm.check_sequence(t1, seq, t2)
                    assert (failure is None) == (expected == t2)
                    assert tm.verify_sequence(t1, seq, t2) == (expected == t2)
                    if failure is not None:
                        assert failure[0] == len(seq)
                        assert failure[1].startswith("sequence replays to a")
            else:
                assert not tm.verify_sequence(t1, seq, other)
                # the failing operation is the first whose prefix the oracle rejects
                index, reason = tm.check_sequence(t1, seq, other)
                assert reason == expected[1]
                rebuild_replay(t1, seq.ops[:index])
                assert _outcome(rebuild_replay, t1, seq.ops[: index + 1]) == expected

    def test_replay_builds_one_tree(self, monkeypatch):
        rng = random.Random(45)
        t1 = random_recursive_tree(rng, 300)
        t2, seq = random_operations(rng, t1, 200)
        assert len(seq) == 200
        built = count_tree_builds(monkeypatch)
        assert tm.replay_sequence(t1, seq) == t2
        assert built == [300]

    def test_verify_builds_no_tree(self, monkeypatch):
        rng = random.Random(45)
        t1 = random_recursive_tree(rng, 300)
        t2, seq = random_operations(rng, t1, 200)
        built = count_tree_builds(monkeypatch)
        assert tm.verify_sequence(t1, seq, t2)
        assert tm.check_sequence(t1, seq, t2) is None
        assert not tm.verify_sequence(t1, seq, t1)
        assert built == []
