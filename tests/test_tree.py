import random

import pytest

import treemoves as tm
from treemoves.generate import random_recursive_tree, random_relabelling
from treemoves.permutation import _canonical_codes

from helpers import (
    EXAMPLE_T1,
    EXAMPLE_T2,
    count_tree_builds,
    example_pair,
    recursive_isomorphic,
)


def _shuffled_text(tree, rng):
    """Tree text with every child list in random order; iterative, paths are deep."""
    parts, stack = [], [tree.root_child]
    while stack:
        v = stack.pop()
        if isinstance(v, tuple):
            parts.append(v[0])
            continue
        kids = list(tree.children(v))
        if not kids:
            parts.append(v)
            continue
        rng.shuffle(kids)
        parts.append("(")
        stack.append((")" + v,))
        for i, child in enumerate(kids):
            if i:
                stack.append((",",))
            stack.append(child)
    return "".join(parts) + ";"


class TestParse:
    def test_example_tree(self):
        t = tm.parse_tree(EXAMPLE_T1)
        assert t.root_child == "a"
        assert t.children("a") == ("b", "c")
        assert t.children("b") == ("d", "e", "f")
        assert t.children("c") == ("g", "h")
        assert t.parent("a") is None
        assert len(t) == 8

    def test_single_vertex(self):
        t = tm.parse_tree("x;")
        assert t.root_child == "x"
        assert len(t) == 1
        assert t.children("x") == ()

    def test_duplicate_label(self):
        with pytest.raises(tm.DuplicateLabelError):
            tm.parse_tree("((a)a);")

    def test_whitespace_ignored(self):
        assert tm.parse_tree(" ( b , c ) a ;\n") == tm.parse_tree("(b,c)a;")

    def test_utf8_labels(self):
        t = tm.parse_tree("(β,γ2)αroot;")
        assert t.root_child == "αroot"
        assert t.children("αroot") == ("β", "γ2")
        assert tm.parse_tree(tm.serialize_tree(t)) == t

    @pytest.mark.parametrize(
        "text",
        ["", "a", "(a;", "a);", "(a,)b;", "()a;", "a;b;", "(a)(b);", ";", "(,a)b;"],
    )
    def test_syntax_errors(self, text):
        with pytest.raises(tm.ParseError):
            tm.parse_tree(text)

    @pytest.mark.parametrize(
        "text, position, message",
        [
            ("", 0, "missing ';' terminator"),
            ("(a)b", 4, "missing ';' terminator"),
            ("(a;", 2, "unexpected ';'"),
            ("(a);", 3, "unexpected ';'"),
            ("((a)b;", 5, "unexpected ';'"),
            (";", 0, "unexpected ';'"),
            ("a);", 1, "unexpected ')'"),
            ("()a;", 1, "unexpected ')'"),
            ("(a,b,)c;", 5, "unexpected ')'"),
            ("((a));", 4, "unexpected ')'"),
            ("(a)(b);", 3, "unexpected '('"),
            ("a(b);", 1, "unexpected '('"),
            ("(,a)b;", 1, "unexpected ','"),
            ("(a,,b)c;", 3, "unexpected ','"),
            ("(a)b,c;", 4, "unexpected ','"),
            ("a b;", 2, "unexpected label 'b'"),
            ("(a)b c;", 5, "unexpected label 'c'"),
            ("a;b;", 2, "unexpected content after ';'"),
            ("a;;", 2, "unexpected content after ';'"),
            ("\t(a)\nb\n;\nz", 9, "unexpected content after ';'"),
        ],
    )
    def test_error_position_and_message(self, text, position, message):
        with pytest.raises(tm.ParseError) as err:
            tm.parse_tree(text)
        assert err.value.position == position
        assert str(err.value) == f"{message} (at position {position})"

    def test_first_error_in_text_order_wins(self):
        # a duplicate is reported where it is read, before a later syntax error
        with pytest.raises(tm.DuplicateLabelError, match="duplicate label 'a'"):
            tm.parse_tree("(a,a)b")
        # and content after ';' is reported before it could be a duplicate
        with pytest.raises(tm.ParseError, match="unexpected content"):
            tm.parse_tree("a;a")

    def test_parse_builds_one_tree(self, monkeypatch):
        # the parser's unchecked constructor must give exactly the tree the
        # validated one gives, from text whose child lists are out of order
        rng = random.Random(19)
        trees = [random_recursive_tree(rng, rng.randint(1, 300)) for _ in range(30)]
        trees.append(tm.LabelledTree({f"p{i}": f"p{i - 1}" if i else None for i in range(20000)}))
        trees.append(tm.LabelledTree({"c": None, **{f"l{i}": "c" for i in range(300)}}))
        caterpillar = {f"s{i}": f"s{i - 1}" if i else None for i in range(50)}
        caterpillar.update({f"s{i}x{j}": f"s{i}" for i in range(50) for j in range(3)})
        trees.append(tm.LabelledTree(caterpillar))
        texts = [_shuffled_text(t, rng) for t in trees] + ["x;"]
        built = count_tree_builds(monkeypatch)
        parsed = [tm.parse_tree(text) for text in texts]
        assert built == [len(t) for t in trees] + [1]  # no intermediate tree
        for t, source in zip(parsed, trees + [None]):
            validated = tm.LabelledTree(t.parent_map())
            assert list(t._parent.items()) == list(validated._parent.items())
            assert list(t._children.items()) == list(validated._children.items())
            assert t.root_child == validated.root_child
            assert source is None or t == source

    def test_error_carries_position(self):
        with pytest.raises(tm.ParseError) as err:
            tm.parse_tree("(a,)b;")
        assert err.value.position == 3


class TestSerialize:
    def test_single_vertex(self):
        assert tm.serialize_tree(tm.parse_tree("x;")) == "x;"

    def test_example_t1_round_trip(self):
        t = tm.parse_tree(EXAMPLE_T1)
        assert tm.serialize_tree(t) == EXAMPLE_T1
        assert tm.parse_tree(tm.serialize_tree(t)) == t

    def test_example_t2_children_lexicographic(self):
        t = tm.parse_tree(EXAMPLE_T2)
        # children of every vertex come out sorted by label (c before d)
        assert tm.serialize_tree(t) == "((f,g,h)c,(b,e)d)a;"
        assert tm.parse_tree(tm.serialize_tree(t)) == t

    def test_round_trip_random(self):
        rng = random.Random(101)
        for _ in range(60):
            t = random_recursive_tree(rng, rng.randint(1, 40))
            assert tm.parse_tree(tm.serialize_tree(t)) == t

    def test_deep_path_tree_no_recursion_limit(self):
        n = 30000
        parent = {"p0": None}
        for i in range(1, n):
            parent[f"p{i}"] = f"p{i-1}"
        t = tm.LabelledTree(parent)
        assert tm.parse_tree(tm.serialize_tree(t)) == t


class TestInvariants:
    def test_two_tops_rejected(self):
        with pytest.raises(tm.StructureError):
            tm.LabelledTree({"a": None, "b": None})

    def test_cycle_rejected(self):
        with pytest.raises(tm.StructureError):
            tm.LabelledTree({"a": None, "b": "c", "c": "b"})

    def test_unknown_parent_rejected(self):
        with pytest.raises(tm.StructureError):
            tm.LabelledTree({"a": None, "b": "z"})

    def test_label_alphabet_is_everything_but_punctuation_and_space(self):
        every = [chr(c) for c in range(0x110000)]
        bad = {c for c in every if c in "(),;" or c.isspace()}
        good = "".join(c for c in every if c not in bad)
        assert tm.parse_tree(good + ";").root_child == good
        for c in bad:
            with pytest.raises(tm.BadLabelError, match="contains whitespace"):
                tm.LabelledTree({"x" + c: None})

    def test_bad_labels_rejected(self):
        with pytest.raises(tm.BadLabelError):
            tm.LabelledTree({"": None})
        with pytest.raises(tm.BadLabelError):
            tm.LabelledTree({"a b": None})

    def test_descendant_and_traversals(self):
        t = tm.parse_tree(EXAMPLE_T1)
        assert t.is_descendant("d", "a")
        assert t.is_descendant("d", "b")
        assert not t.is_descendant("d", "c")
        assert not t.is_descendant("a", "d")
        assert list(t.postorder()) == ["d", "e", "f", "b", "g", "h", "c", "a"]
        assert t.depths() == {
            "a": 0, "b": 1, "c": 1, "d": 2, "e": 2, "f": 2, "g": 2, "h": 2,
        }

    def test_none_is_not_a_vertex(self):
        # the implicit root has no label: it neither has a parent nor children
        for t in (tm.parse_tree("(b)a;"), tm.LabelledTree({"a": None, "b": "a"})):
            with pytest.raises(tm.UnknownLabelError):
                t.parent(None)
            with pytest.raises(tm.UnknownLabelError):
                t.children(None)


class TestCongruence:
    def test_self(self):
        t = tm.parse_tree(EXAMPLE_T1)
        assert t == t

    def test_unordered_children(self):
        assert tm.parse_tree("(b,c)a;") == tm.parse_tree("(c,b)a;")

    def test_example_pair_not_congruent(self):
        t1, t2 = example_pair()
        assert t1 != t2


class TestIsomorphismTable:
    def test_example_pairs(self):
        t1, t2 = example_pair()
        table = tm.mismatch_table(t1, t2)
        # b (3 leaf children) matches the 3-leaf star under c in t2
        assert table.is_isomorphic("b", "c")
        # b has 4 vertices, d in t2 has 3
        assert not table.is_isomorphic("b", "d")
        assert table.is_isomorphic("a", "a")

    def test_matches_recursive_oracle(self):
        rng = random.Random(202)
        for _ in range(25):
            t1 = random_recursive_tree(rng, rng.randint(1, 9))
            t2 = random_recursive_tree(rng, rng.randint(1, 9), labels=None)
            table = tm.mismatch_table(t1, t2)
            d1, d2 = t1.depths(), t2.depths()
            for u in t1.labels:
                for v in t2.labels:
                    expected = d1[u] == d2[v] and recursive_isomorphic(t1, u, t2, v)
                    assert table.is_isomorphic(u, v) == expected

    def test_root_pair_iff_tree_isomorphism(self):
        rng = random.Random(303)
        for _ in range(40):
            t1 = random_recursive_tree(rng, rng.randint(1, 8))
            if rng.random() < 0.5:
                t2, _ = random_relabelling(rng, t1)  # isomorphic by construction
                expected = True
            else:
                t2 = random_recursive_tree(rng, rng.randint(1, 8))
                expected = recursive_isomorphic(
                    t1, t1.root_child, t2, t2.root_child
                )
            table = tm.mismatch_table(t1, t2)
            assert table.is_isomorphic(t1.root_child, t2.root_child) == expected

    def test_codes_unchanged_by_relabelling(self):
        rng = random.Random(404)
        for _ in range(20):
            t = random_recursive_tree(rng, rng.randint(2, 15))
            relabelled, _ = random_relabelling(rng, t)
            code1, code2 = _canonical_codes(t, relabelled)
            assert code1[t.root_child] == code2[relabelled.root_child]
