import pickle
import random
import types

import pytest

import treemoves as tm
from treemoves.generate import (
    random_move,
    random_operations,
    random_permutation,
    random_recursive_tree,
)
from treemoves.permutation import _canonical_codes

from helpers import count_tree_builds, example_pair, is_descendant, rebuild_replay


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

    def test_sequence_rejects_non_operations(self):
        with pytest.raises(TypeError, match="not an operation: 1"):
            tm.OperationSequence((1,))

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
            below = [w for w in labels if is_descendant(tree, w, v)]
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


_SCRIPT = (
    "OperationSequence(ops=(LinkCutOp(child='d', source='b', target='a'), "
    "LinkCutOp(child='e', source='b', target='d'), "
    "LinkCutOp(child='f', source='b', target='c'), "
    "LinkCutOp(child='b', source='a', target='d')))"
)

# (build the record, its fields by name, its repr or None for a repr that
# holds frozensets, whose order follows the hash seed)
_RECORDS = {
    "LinkCutOp": (
        lambda: tm.LinkCutOp("d", "b", "a"),
        dict(child="d", source="b", target="a"),
        "LinkCutOp(child='d', source='b', target='a')",
    ),
    "OperationSequence": (
        lambda: tm.OperationSequence(list(tm.linkcut_script(*example_pair()))),
        dict(ops=tuple(tm.linkcut_script(*example_pair()))),
        _SCRIPT,
    ),
    "RearrangementResult": (
        lambda: tm.brute_force_distance(*example_pair()),
        dict(distance=3, method="oracle"),
        "RearrangementResult(distance=3, witness=OperationSequence(ops=("
        "Permutation({b>d, d>b}), LinkCutOp(child='f', source='d', target='c'))), "
        "method='oracle')",
    ),
    "BudgetExceeded": (
        lambda: tm.BudgetExceeded(3, 1),
        dict(budget=3, lower_bound=1, best_found=None),
        "BudgetExceeded(budget=3, lower_bound=1, best_found=None)",
    ),
    "MovementsGraph": (
        lambda: tm.movements_graph(*example_pair()),
        dict(edges=frozenset({("a", "d"), ("b", "a"), ("b", "c"), ("b", "d")})),
        None,
    ),
    "ThreeDMInstance": (
        lambda: tm.ThreeDMInstance(["a1"], ["b1"], ["c1"], [["a1", "b1", "c1"]]),
        dict(a_elements=("a1",), triples=(("a1", "b1", "c1"),)),
        "ThreeDMInstance(a_elements=('a1',), b_elements=('b1',), "
        "c_elements=('c1',), triples=(('a1', 'b1', 'c1'),))",
    ),
}


@pytest.mark.parametrize("name", sorted(_RECORDS))
def test_record_contract(name):
    build, fields, text = _RECORDS[name]
    record = build()
    assert type(record).__name__ == name
    for field, value in fields.items():
        assert getattr(record, field) == value
    if text is None:
        text = f"MovementsGraph(vertices={record.vertices!r}, edges={record.edges!r})"
    assert repr(record) == text
    field = next(iter(fields))
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))
    twin = build()
    assert twin is not record
    assert twin == record and hash(twin) == hash(record)
    copy = pickle.loads(pickle.dumps(record))
    assert type(copy) is type(record) and copy == record


def test_sequence_holds_its_operations():
    seq = tm.parse_script("move d b a\nperm b>d d>b\nmove f d c")
    ops = [tm.LinkCutOp("d", "b", "a"), tm.Permutation({"b": "d", "d": "b"}),
           tm.LinkCutOp("f", "d", "c")]
    assert len(seq) == 3
    assert list(seq) == ops and seq == seq.ops == tuple(ops)
    assert all(op in seq for op in ops) and tm.LinkCutOp("d", "b", "c") not in seq
    assert len(tm.OperationSequence()) == 0 and list(tm.OperationSequence()) == []


def test_replacing_a_field_runs_the_checks():
    op = tm.LinkCutOp("d", "b", "a")
    assert op._replace(target="c") == tm.LinkCutOp("d", "b", "c")
    with pytest.raises(tm.BadLabelError, match="three distinct labels"):
        op._replace(target="b")
    instance = tm.ThreeDMInstance(["a1"], ["b1"], ["c1"], [["a1", "b1", "c1"]])
    with pytest.raises(tm.TreeError, match="not in A x B x C"):
        instance._replace(triples=[["b1", "a1", "c1"]])
    assert instance._replace(triples=[]).triples == ()


_PUBLIC = [
    "BadLabelError", "BudgetExceeded", "DescendantTargetError", "DuplicateLabelError",
    "LabelSetMismatchError", "LabelledTree", "LinkCutOp", "NotIsomorphicError",
    "OperationError", "OperationSequence", "OracleSizeError", "ParseError",
    "Permutation", "RearrangementResult", "RootMismatchError", "StructureError",
    "ThreeDMInstance", "TreeError", "UnknownLabelError", "WrongParentError",
    "active_set", "apply_permutation", "approx_binary", "brute_force_distance",
    "build_reduction", "canonicalize_sequence", "check_sequence", "family_partition",
    "format_script", "fpt_distance", "linkcut_distance", "linkcut_script",
    "max_matching_bruteforce", "mismatch_table", "movements_graph",
    "optimal_permutation", "parse_instance", "parse_script", "parse_tree",
    "permutation_distance", "reduction_bound", "replay_sequence", "sequence_size",
    "serialize_tree", "verify_sequence",
]


def test_public_namespace_is_pinned():
    # submodules show up in dir() once imported, so only non-module names count
    names = sorted(
        n for n in dir(tm)
        if not n.startswith("_") and not isinstance(getattr(tm, n), types.ModuleType)
    )
    assert names == _PUBLIC and len(names) == 45
    modules = [tm.tree, tm.ops, tm.linkcut, tm.permutation, tm.rearrangement,
               tm.reduction3dm]
    for name in names:
        assert sum(name in module.__all__ for module in modules) == 1, name
    assert tm.generate.__all__ == [
        "random_recursive_tree", "random_binary_tree", "random_permutation",
        "random_move", "random_operations", "random_relabelling",
        "random_3dm_instance",
    ]
