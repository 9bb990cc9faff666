"""Command-line front end.

Subcommands::

    treemoves dist linkcut|perm|exact|fpt|approx T1 T2 [--k N]
              [--candidates vg|all] [--limit N]
    treemoves script T1 T2
    treemoves verify T1 SCRIPT T2
    treemoves gen random --seed S --n N --ops K
    treemoves gen reduction3dm INSTANCE

Tree files hold one tree in the text grammar; script files hold one
operation per line.  Every command prints a human-readable summary, or a
single flat JSON record with ``--json``.  Exit status: 0 on success
(including a failed verification or an exceeded budget, which are
answers, not errors), 1 on computation or input errors, 2 on usage
errors.
"""

import argparse
import functools
import json
import random
import sys
import warnings

from . import __version__
from .generate import random_operations, random_recursive_tree
from .linkcut import linkcut_distance, linkcut_script
from .ops import (
    OperationSequence,
    check_sequence,
    format_script,
    parse_script,
    verify_sequence,
)
from .permutation import optimal_permutation
from .rearrangement import BudgetExceeded, approx_binary, brute_force_distance, fpt_distance
from .reduction3dm import build_reduction, parse_instance
from .tree import TreeError, parse_tree, serialize_tree

__all__ = ["main"]


def _read(path):
    try:
        with open(path, encoding="utf-8-sig") as handle:
            return handle.read()
    except OSError as exc:
        raise TreeError(f"cannot read {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise TreeError(f"cannot read {path}: not UTF-8 text ({exc.reason})") from exc


def _load_tree(path):
    return parse_tree(_read(path))


def _emit(args, record, human_lines):
    if args.json:
        print(json.dumps(record))
    else:
        for line in human_lines:
            print(line)


def _exceeded_line(result, heuristic):
    k, low, best = result.budget, result.lower_bound, result.best_found
    seen = "nothing found" if best is None else f"best found {best}"
    if low > k:  # the guard's bound holds for every candidate set
        seen = "the partition guard rejected the pair"
    elif heuristic:
        return f"vg heuristic found nothing within k={k} (lower bound {low}, {seen})"
    return f"distance exceeds budget k={k} (lower bound {low}, {seen})"


def _cmd_dist(args):
    t1 = _load_tree(args.tree1)
    t2 = _load_tree(args.tree2)
    record = {"command": "dist", "variant": args.variant}
    if args.variant == "linkcut":
        distance = linkcut_distance(t1, t2)
        witness = linkcut_script(t1, t2)
        method = "linear"
    elif args.variant == "perm":
        pi = optimal_permutation(t1, t2)
        distance, witness, method = pi.size, OperationSequence((pi,)), "matching"
    elif args.variant == "exact":
        result = brute_force_distance(t1, t2, max_labels=args.limit)
        distance, witness, method = result.distance, result.witness, result.method
    elif args.variant == "fpt":
        result = fpt_distance(t1, t2, args.k, candidates=args.candidates)
        if isinstance(result, BudgetExceeded):
            record.update(
                exceeded=True,
                method="fpt-vg" if args.candidates == "vg" else "fpt",
                budget=result.budget,
                lower_bound=result.lower_bound,
                best_found=result.best_found,
            )
            _emit(args, record, [_exceeded_line(result, args.candidates == "vg")])
            return 0
        distance, witness, method = result.distance, result.witness, result.method
    else:  # approx
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = approx_binary(t1, t2)
        for warning in caught:
            print(f"warning: {warning.message}", file=sys.stderr)
        distance, witness, method = result.distance, result.witness, result.method
    verified = verify_sequence(t1, witness, t2)
    script = format_script(witness)
    record.update(distance=distance, method=method, witness=script, verified=verified)
    lines = [f"{args.variant} distance: {distance}"]
    if method == "fpt-vg":
        lines[0] += " (vg heuristic: an upper bound on the distance)"
    if script:
        lines.extend(script.splitlines())
    lines.append(f"verified: {'true' if verified else 'false'}")
    _emit(args, record, lines)
    return 0


def _cmd_script(args):
    t1 = _load_tree(args.tree1)
    t2 = _load_tree(args.tree2)
    seq = linkcut_script(t1, t2)
    script = format_script(seq)
    record = {
        "command": "script",
        "length": len(seq),
        "script": script,
        "verified": verify_sequence(t1, seq, t2),
    }
    _emit(args, record, script.splitlines())
    return 0


def _cmd_verify(args):
    t1 = _load_tree(args.tree1)
    t2 = _load_tree(args.tree2)
    seq = parse_script(_read(args.script))
    ok = verify_sequence(t1, seq, t2)
    # only a failed verification is replayed again, for its reason
    failed_at, reason = (None, None) if ok else check_sequence(t1, seq, t2)
    record = {
        "command": "verify",
        "operations": len(seq),
        "verified": ok,
        "failed_at": failed_at,
        "reason": reason,
    }
    lines = [f"verified: {'true' if ok else 'false'}"]
    if not ok:
        lines.append(f"failed at operation {failed_at}: {reason}")
    _emit(args, record, lines)
    return 0


def _cmd_gen_random(args):
    rng = random.Random(args.seed)
    t1 = random_recursive_tree(rng, args.n)
    t2, seq = random_operations(rng, t1, args.ops)
    script = format_script(seq)
    text1, text2 = serialize_tree(t1), serialize_tree(t2)
    record = {
        "command": "gen",
        "generator": "random",
        "seed": args.seed,
        "n": args.n,
        "ops": args.ops,
        "t1": text1,
        "t2": text2,
        "script": script,
    }
    lines = [f"tree1: {text1}", f"tree2: {text2}", "script:"]
    lines.extend(script.splitlines())
    _emit(args, record, lines)
    return 0


def _cmd_gen_reduction(args):
    instance = parse_instance(_read(args.instance))
    t1, t2 = build_reduction(instance)
    text1, text2 = serialize_tree(t1), serialize_tree(t2)
    record = {
        "command": "gen",
        "generator": "reduction3dm",
        "triples": instance.m,
        "labels": len(t1),
        "t1": text1,
        "t2": text2,
    }
    lines = [
        f"tree1: {text1}",
        f"tree2: {text2}",
        f"triples: {instance.m}, labels per tree: {len(t1)}",
    ]
    _emit(args, record, lines)
    return 0


def _non_negative(text):
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    return value


def _positive(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


@functools.cache
def _build_parser():
    # built on first use, not at import, and shared: parsing never changes it
    parser = argparse.ArgumentParser(
        prog="treemoves",
        description="Distances between fully-labelled rooted trees.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    dist = sub.add_parser("dist", help="compute a distance between two tree files")
    dist.add_argument(
        "variant", choices=["linkcut", "perm", "exact", "fpt", "approx"]
    )
    dist.add_argument("tree1")
    dist.add_argument("tree2")
    dist.add_argument(
        "--k", type=_non_negative, default=4, help="budget for fpt (default 4)"
    )
    dist.add_argument(
        "--candidates",
        choices=["vg", "all"],
        default="all",
        help="permutation-support candidate set for fpt "
        "(all = exact, vg = faster heuristic)",
    )
    dist.add_argument(
        "--limit", type=_non_negative, default=8,
        help="label cap for the exact oracle",
    )
    dist.add_argument("--json", action="store_true")
    dist.set_defaults(handler=_cmd_dist)

    script = sub.add_parser("script", help="print a shortest link-and-cut script")
    script.add_argument("tree1")
    script.add_argument("tree2")
    script.add_argument("--json", action="store_true")
    script.set_defaults(handler=_cmd_script)

    verify = sub.add_parser("verify", help="replay a script file between two trees")
    verify.add_argument("tree1")
    verify.add_argument("script")
    verify.add_argument("tree2")
    verify.add_argument("--json", action="store_true")
    verify.set_defaults(handler=_cmd_verify)

    gen = sub.add_parser("gen", help="generate instances")
    gen_sub = gen.add_subparsers(dest="generator", required=True)

    gen_random = gen_sub.add_parser("random", help="random tree pair with ground truth")
    gen_random.add_argument("--seed", type=int, required=True)
    gen_random.add_argument("--n", type=_positive, required=True)
    gen_random.add_argument("--ops", type=_non_negative, required=True)
    gen_random.add_argument("--json", action="store_true")
    gen_random.set_defaults(handler=_cmd_gen_random)

    gen_red = gen_sub.add_parser(
        "reduction3dm", help="tree pair encoding a 3DM instance file"
    )
    gen_red.add_argument("instance")
    gen_red.add_argument("--json", action="store_true")
    gen_red.set_defaults(handler=_cmd_gen_reduction)

    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except TreeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
