import json
import pathlib
import subprocess
import sys

import pytest

import treemoves as tm
from treemoves import cli
from treemoves.cli import main

from helpers import EXAMPLE_T1, EXAMPLE_T2


@pytest.fixture
def example_files(tmp_path):
    f1 = tmp_path / "t1.nwk"
    f2 = tmp_path / "t2.nwk"
    f1.write_text(EXAMPLE_T1)
    f2.write_text(EXAMPLE_T2)
    return str(f1), str(f2)


def test_dist_linkcut(example_files, capsys):
    code = main(["dist", "linkcut", *example_files])
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    assert out[0] == "linkcut distance: 4"
    assert out[1:5] == ["move d b a", "move e b d", "move f b c", "move b a d"]
    assert out[5] == "verified: true"


def test_dist_perm_self(example_files, capsys):
    code = main(["dist", "perm", example_files[0], example_files[0]])
    out = capsys.readouterr().out
    assert code == 0
    assert "perm distance: 0" in out


def test_dist_perm_json_witness(example_files, capsys):
    code = main(["dist", "perm", *example_files, "--json"])
    assert code == 0
    record = json.loads(capsys.readouterr().out)
    assert record["distance"] == 6
    assert record["witness"] == "perm b>c c>d d>g e>h g>b h>e"
    assert record["verified"] is True


# ``sys.modules[name] = None`` makes every later ``import name`` fail
_WITHOUT_NUMPY = """
import sys
sys.modules["numpy"] = None
sys.path.insert(0, sys.argv[1])
from treemoves.cli import main
for variant in ("linkcut", "perm", "fpt", "exact", "approx"):
    code = main(["dist", variant, sys.argv[2], sys.argv[3], "--json"])
    print("exit", code)
"""


def test_dist_runs_without_numpy(example_files):
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-c", _WITHOUT_NUMPY, str(src), *example_files],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[1::2] == ["exit 0"] * 5
    records = [json.loads(line) for line in lines[0::2]]
    common = {"command": "dist", "verified": True}
    assert records == [
        {**common, "variant": "linkcut", "distance": 4, "method": "linear",
         "witness": "move d b a\nmove e b d\nmove f b c\nmove b a d"},
        {**common, "variant": "perm", "distance": 6, "method": "matching",
         "witness": "perm b>c c>d d>g e>h g>b h>e"},
        {**common, "variant": "fpt", "distance": 3, "method": "fpt",
         "witness": "perm b>d d>b\nmove f d c"},
        {**common, "variant": "exact", "distance": 3, "method": "oracle",
         "witness": "perm b>d d>b\nmove f d c"},
        {**common, "variant": "approx", "distance": 4, "method": "approx",
         "witness": "perm\nmove d b a\nmove e b d\nmove f b c\nmove b a d"},
    ]


_IMPORT_ADDS = """
import sys
sys.path.insert(0, sys.argv[1])
before = set(sys.modules)
import treemoves.cli
print(" ".join(sorted(set(sys.modules) - before)))
"""


def test_cli_import_loads_no_logging():
    # a fresh CLI process pays for every module the package imports
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_ADDS, str(src)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    added = set(proc.stdout.split())
    assert "treemoves.cli" in added
    assert not added & {"logging", "__future__", "dataclasses", "inspect"}


_ONE_CALL = """
import sys
sys.path.insert(0, sys.argv[1])
from treemoves.cli import main
sys.exit(main(sys.argv[2:]))
"""


def test_parser_reuse_changes_no_output(example_files, capsys, monkeypatch):
    # argparse wraps usage text to $COLUMNS, so pin it for both sides
    monkeypatch.setenv("COLUMNS", "80")
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    t1, t2 = example_files
    calls = [
        ["dist", "fpt", t1, t2, "--k", "2", "--json"],
        ["dist", "fpt", t1, t2, "--k", "x"],
        ["script", t1, t2],
        ["dist", "perm", t1, t2, "--json"],
        ["dist", "fpt", t1, t2, "--k", "2", "--json"],
    ]
    for argv in calls:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        fresh = subprocess.run(
            [sys.executable, "-c", _ONE_CALL, str(src), *argv],
            capture_output=True, text=True, timeout=120,
        )
        assert (code, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr)
    assert json.loads(out)["exceeded"] is True
    assert cli._build_parser.cache_info().currsize == 1


def test_dist_approx_reports_warning_in_one_line(example_files):
    # the first tree is not binary; with warnings as errors the answer stands
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c", _ONE_CALL, str(src),
         "dist", "approx", *example_files],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "approx distance: 4", "perm", "move d b a", "move e b d", "move f b c",
        "move b a d", "verified: true",
    ]
    assert proc.stderr == (
        "warning: first tree is not binary: "
        "the 4x approximation guarantee does not apply\n"
    )


def test_dist_exact_json(example_files, capsys):
    code = main(["dist", "exact", *example_files, "--json"])
    assert code == 0
    record = json.loads(capsys.readouterr().out)
    assert record["distance"] == 3
    assert record["method"] == "oracle"
    assert record["verified"] is True
    seq = tm.parse_script(record["witness"])
    assert tm.verify_sequence(
        tm.parse_tree(EXAMPLE_T1), seq, tm.parse_tree(EXAMPLE_T2)
    )


def test_dist_fpt_exceeds(example_files, capsys):
    code = main(["dist", "fpt", *example_files, "--k", "2", "--json"])
    assert code == 0
    record = json.loads(capsys.readouterr().out)
    assert record["exceeded"] is True and record["budget"] == 2


@pytest.fixture
def overshoot_files(tmp_path):
    # distance 5, but the vg candidate set needs 6
    f1 = tmp_path / "o1.nwk"
    f2 = tmp_path / "o2.nwk"
    f1.write_text("(((v5)v3)v2,v4)v1;")
    f2.write_text("(v3,((v4)v1)v5)v2;")
    return str(f1), str(f2)


def test_dist_fpt_vg_is_reported_as_heuristic(overshoot_files, capsys):
    fpt = ["dist", "fpt", *overshoot_files, "--candidates", "vg"]
    assert main([*fpt, "--k", "5"]) == 0
    (line,) = capsys.readouterr().out.splitlines()
    assert line == "vg heuristic found nothing within k=5 (lower bound 2, best found 6)"
    assert main([*fpt, "--k", "6"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "fpt distance: 6 (vg heuristic: an upper bound on the distance)"
    assert out[-1] == "verified: true"
    assert main([*fpt, "--k", "5", "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "command": "dist", "variant": "fpt", "exceeded": True, "method": "fpt-vg",
        "budget": 5, "lower_bound": 2, "best_found": 6,
    }
    assert main([*fpt, "--k", "6", "--json"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert sorted(record) == [
        "command", "distance", "method", "variant", "verified", "witness"
    ]
    assert (record["distance"], record["method"]) == (6, "fpt-vg")
    # the exact set still answers 5 under the same budget
    assert main(["dist", "fpt", *overshoot_files, "--k", "5", "--json"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert (record["distance"], record["method"]) == (5, "fpt")


# the exact set answers 5 at k = 5, so it exceeds only at k = 4
@pytest.mark.parametrize("candidates, k", [("all", 4), ("vg", 5)])
def test_dist_fpt_exceeded_names_its_search(overshoot_files, candidates, k, capsys):
    fpt = ["dist", "fpt", *overshoot_files, "--candidates", candidates, "--json"]
    assert main([*fpt, "--k", str(k)]) == 0
    exceeded = json.loads(capsys.readouterr().out)
    assert main([*fpt, "--k", str(k + 1)]) == 0
    answer = json.loads(capsys.readouterr().out)
    assert exceeded["exceeded"] is True and "exceeded" not in answer
    assert exceeded["method"] == answer["method"] == {"all": "fpt", "vg": "fpt-vg"}[candidates]


@pytest.mark.parametrize("candidates", ["all", "vg"])
def test_dist_fpt_guard_reject_says_so(overshoot_files, candidates, capsys):
    fpt = ["dist", "fpt", *overshoot_files, "--k", "1", "--candidates", candidates]
    assert main(fpt) == 0
    assert capsys.readouterr().out == (
        "distance exceeds budget k=1 (lower bound 2, the partition guard "
        "rejected the pair)\n"
    )
    assert main([*fpt, "--json"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["best_found"] is None and record["lower_bound"] == 2


def test_dist_fpt_nothing_found_past_the_guard(tmp_path, capsys):
    # the tops differ and one label cannot swap them, yet the two
    # disagreement classes pass the guard at k = 1
    f1, f2 = tmp_path / "t1.nwk", tmp_path / "t2.nwk"
    f1.write_text("(b)a;")
    f2.write_text("(a)b;")
    assert main(["dist", "fpt", str(f1), str(f2), "--k", "1"]) == 0
    assert capsys.readouterr().out == (
        "distance exceeds budget k=1 (lower bound 1, nothing found)\n"
    )


def test_dist_fpt_candidates_x_is_usage_error(example_files, capsys):
    with pytest.raises(SystemExit) as err:
        main(["dist", "fpt", *example_files, "--candidates", "x"])
    assert err.value.code == 2
    assert "invalid choice: 'x'" in capsys.readouterr().err


def test_dist_fpt_negative_budget_is_usage_error(example_files, capsys):
    with pytest.raises(SystemExit) as err:
        main(["dist", "fpt", *example_files, "--k", "-1"])
    assert err.value.code == 2
    assert "error:" in capsys.readouterr().err


def test_dist_exact_negative_limit_is_usage_error(example_files, capsys):
    with pytest.raises(SystemExit) as err:
        main(["dist", "exact", *example_files, "--limit", "-1"])
    assert err.value.code == 2
    assert "must be non-negative, got -1" in capsys.readouterr().err
    # a zero cap is a legal option that the guard then rejects
    assert main(["dist", "exact", *example_files, "--limit", "0"]) == 1
    assert "guard of 0" in capsys.readouterr().err


@pytest.mark.parametrize(
    "option, value, message",
    [("--n", "0", "must be at least 1, got 0"), ("--ops", "-1", "must be non-negative, got -1")],
    ids=["n-zero", "ops-negative"],
)
def test_gen_random_bad_count_is_usage_error(option, value, message, capsys):
    args = ["gen", "random", "--seed", "1", "--n", "5", "--ops", "2"]
    args[args.index(option) + 1] = value
    with pytest.raises(SystemExit) as err:
        main(args)
    assert err.value.code == 2
    assert f"argument {option}: {message}" in capsys.readouterr().err


def test_dist_perm_not_isomorphic_is_error(tmp_path, capsys):
    f1 = tmp_path / "a.nwk"
    f2 = tmp_path / "b.nwk"
    f1.write_text("((c)b)a;")
    f2.write_text("(b,c)a;")
    code = main(["dist", "perm", str(f1), str(f2)])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_script_and_verify_round_trip(example_files, tmp_path, capsys):
    code = main(["script", *example_files])
    assert code == 0
    script_text = capsys.readouterr().out
    script_file = tmp_path / "ops.txt"
    script_file.write_text(script_text)
    code = main(["verify", example_files[0], str(script_file), example_files[1]])
    assert code == 0
    assert capsys.readouterr().out.strip() == "verified: true"


def test_verify_canonical_witness(example_files, tmp_path, capsys):
    script_file = tmp_path / "ops.txt"
    script_file.write_text("perm b>d d>b\nmove f d c\n")
    code = main(["verify", example_files[0], str(script_file), example_files[1]])
    assert code == 0
    assert capsys.readouterr().out.strip() == "verified: true"


def test_verify_false(example_files, tmp_path, capsys):
    script_file = tmp_path / "ops.txt"
    script_file.write_text("move d b a\n")
    code = main(["verify", example_files[0], str(script_file), example_files[1]])
    assert code == 0
    assert capsys.readouterr().out.splitlines() == [
        "verified: false",
        "failed at operation 1: sequence replays to a different tree: "
        "parent of 'b' is 'a', not 'd'",
    ]


def test_verify_json_failure_fields(example_files, tmp_path, capsys):
    script_file = tmp_path / "ops.txt"
    for text, failed_at, reason in [
        ("perm b>d d>b\nmove f d c\n", None, None),
        ("move d c a\n", 0, "cannot apply move d c a: parent of 'd' is 'b', not 'c'"),
    ]:
        script_file.write_text(text)
        args = ["verify", example_files[0], str(script_file), example_files[1], "--json"]
        assert main(args) == 0
        assert json.loads(capsys.readouterr().out) == {
            "command": "verify",
            "operations": text.count("\n"),
            "verified": failed_at is None,
            "failed_at": failed_at,
            "reason": reason,
        }


def test_verify_script_error_names_line(example_files, tmp_path, capsys):
    script_file = tmp_path / "ops.txt"
    script_file.write_text("move d b a\nmove e e d\n")
    code = main(["verify", example_files[0], str(script_file), example_files[1]])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: line 2: move needs three distinct labels, got ('e', 'e', 'd')\n"
    )


def test_gen_random_deterministic(capsys):
    code = main(["gen", "random", "--seed", "5", "--n", "12", "--ops", "4"])
    assert code == 0
    first = capsys.readouterr().out
    main(["gen", "random", "--seed", "5", "--n", "12", "--ops", "4"])
    assert capsys.readouterr().out == first


def test_gen_random_ground_truth_verifies(capsys):
    code = main(["gen", "random", "--seed", "9", "--n", "15", "--ops", "6", "--json"])
    assert code == 0
    record = json.loads(capsys.readouterr().out)
    t1 = tm.parse_tree(record["t1"])
    t2 = tm.parse_tree(record["t2"])
    seq = tm.parse_script(record["script"])
    assert tm.verify_sequence(t1, seq, t2)


def test_gen_random_zero_ops_congruent(capsys):
    code = main(["gen", "random", "--seed", "3", "--n", "10", "--ops", "0", "--json"])
    assert code == 0
    record = json.loads(capsys.readouterr().out)
    assert record["t1"] == record["t2"]
    assert record["script"] == ""


def test_gen_reduction3dm(tmp_path, capsys):
    inst = tmp_path / "h.3dm"
    inst.write_text("a a'\nb\nc c'\na b c\na' b c'\n")
    code = main(["gen", "reduction3dm", str(inst), "--json"])
    assert code == 0
    record = json.loads(capsys.readouterr().out)
    assert record["labels"] == 18
    t1 = tm.parse_tree(record["t1"])
    t2 = tm.parse_tree(record["t2"])
    assert len(tm.movements_graph(t1, t2).edges) == 6


def test_missing_file(capsys):
    code = main(["dist", "linkcut", "/nonexistent/x.nwk", "/nonexistent/y.nwk"])
    assert code == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("role", ["tree", "script", "instance"])
def test_non_utf8_file_is_input_error(example_files, tmp_path, capsys, role):
    bad = tmp_path / "bad.txt"
    # a stray byte inside a tree; a UTF-16 byte-order mark before the rest
    bad.write_bytes(b"(b,\xffc)a;\n" if role == "tree" else b"\xff\xfemove d b a\n")
    argv = {
        "tree": ["dist", "linkcut", str(bad), example_files[1]],
        "script": ["verify", example_files[0], str(bad), example_files[1]],
        "instance": ["gen", "reduction3dm", str(bad)],
    }[role]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: cannot read {bad}: not UTF-8 text (invalid start byte)\n"
    )


def test_bom_tree_file(tmp_path, capsys):
    bom = tmp_path / "bom.nwk"
    bom.write_bytes(b"\xef\xbb\xbf(b,c)a;\n")
    plain = tmp_path / "plain.nwk"
    plain.write_text("(c,b)a;\n")
    assert main(["dist", "linkcut", str(bom), str(plain), "--json"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["distance"] == 0


def test_parse_error_position(tmp_path, capsys):
    bad = tmp_path / "bad.nwk"
    bad.write_text("(a,)b;")
    good = tmp_path / "good.nwk"
    good.write_text("x;")
    code = main(["dist", "linkcut", str(bad), str(good)])
    assert code == 1
    assert "position 3" in capsys.readouterr().err


def test_usage_error_exit_2():
    with pytest.raises(SystemExit) as err:
        main(["dist", "bogus", "a", "b"])
    assert err.value.code == 2
