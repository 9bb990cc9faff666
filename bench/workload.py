"""Run one benchmark workload in this process and print its raw results.

The workload is a fixed list of ``treemoves.cli.main([...])`` calls made
by one caller in a closed loop: each call starts when the previous one
has returned.  Every call reads its tree and script files and prints
``--json``, so no cache inside the library outlives a call.  The list
runs in rounds until the next round would overrun ``--seconds`` (at least
one round runs), and every answer is checked against what the bench
knows about its inputs.

    python3 bench/workload.py --workload shallow --seed 1 --seconds 40 --trace 0

``bench/run.py`` starts this in a fresh process and turns its last
output line into metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import random
import resource
import shutil
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

import inputs as I
from tracing import Tracer, layer_metrics

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import treemoves.cli  # noqa: E402  (the checkout's own source tree)

OUT = ROOT / ".bench_out"

# Sizes are fixed per workload; the seed only changes the random structure.
SIZES = {
    "full": dict(
        lc_n=5000, lc_moves=10, perm_n=1000, perm_planted=40, star=200,
        approx_n=200, deep_n=4000, deep_perm_path=1000, deep_perm_cat=1500,
        cat_leaves=3, fpt_n=36, fpt_perm=4, fpt_k=5, fpt_jobs=8, small_n=36, small_jobs=6,
        exact_n=8, triples=(4, 5), guard_k=4,
    ),
    "tiny": dict(
        lc_n=300, lc_moves=10, perm_n=120, perm_planted=6, star=60,
        approx_n=40, deep_n=300, deep_perm_path=100, deep_perm_cat=120,
        cat_leaves=3, fpt_n=16, fpt_perm=3, fpt_k=4, fpt_jobs=2, small_n=20, small_jobs=2,
        exact_n=6, triples=(4,), guard_k=4,
    ),
}


def _recursive_profile(n):
    """Level sizes of a random recursive tree on n vertices in expectation.

    The depth of a random vertex is close to Poisson with mean ln n.
    """
    mean = math.log(n)
    sizes = [1]
    while sum(sizes) < n:
        d = len(sizes)
        size = round(n * math.exp(-mean) * mean**d / math.factorial(d))
        if size == 0 and d > mean:
            break
        sizes.append(max(size, 1))
    sizes[sizes.index(max(sizes))] += n - sum(sizes)
    return sizes


def _moved_pair(rng, p, moves, guard_k):
    """p after ``moves`` moves, with enough classes for the fpt guard to reject.

    The guard check keeps ``dist fpt`` on these big pairs a linear scan:
    a pair that passed it would start an O(n^k) search.
    """
    while True:
        q = dict(p)
        labels, moved = sorted(p), set()
        for _ in range(moves):
            I.random_move(rng, q, labels, moved)
        if I.class_count(p, q) > 2 * guard_k:
            return q


def _perm_job(rng, name, p, planted):
    """Relabel ``planted`` automorphism-fixed vertices: the distance is exact."""
    support = rng.sample(I.fixed_vertices(p), planted)
    return I.perm_job(name, p, I.relabel(p, I.derangement(rng, support)), planted, planted)


def _star_job(rng, name, leaves, planted):
    """Swap the centre into a planted cycle: every isomorphism mismatches 2 labels."""
    p = I.star_tree(leaves)
    top = I.top_of(p)
    support = [top] + rng.sample([v for v in p if v != top], planted - 1)
    return I.perm_job(name, p, I.relabel(p, I.derangement(rng, support)), 2, planted)


def _tight_pair(rng, n, size):
    """A permutation of ``size`` labels and one move that add 2*size + 1 classes.

    The class lower bound then equals the planted size, so the
    rearrangement distance is exactly ``size + 1``.  The top vertex is
    never permuted, so the search scans every support up to ``size``.
    """
    for _ in range(10000):
        p = I.recursive_tree(rng, n)
        pi = I.derangement(rng, rng.sample([v for v in p if p[v] is not None], size))
        q = I.relabel(p, pi)
        if I.class_count(p, q) != 2 * size:
            continue
        I.random_move(rng, q, sorted(q), set(pi))
        if I.class_count(p, q) == 2 * size + 1:
            return p, q
    raise RuntimeError(f"no tight pair found for n={n}, size={size}")


def _reduction_pair(rng, m):
    """Tree pair of the 3DM reduction for a random 3-bounded 1-common instance.

    Each element hangs under the top ``r``; triple i = (a, b, c) puts two
    gadget leaves under each of a, b, c in t1 and shifts them to b, c, a
    in t2, adding three classes per triple.
    """
    sets = [[f"{x}{i}" for i in range(m)] for x in "abc"]
    triples, uses = [], {}
    while len(triples) < m:
        t = tuple(rng.choice(s) for s in sets)
        if any(uses.get(e, 0) == 3 for e in t) or any(
            len(set(t) & set(u)) > 1 for u in triples
        ):
            continue
        triples.append(t)
        for e in t:
            uses[e] = uses.get(e, 0) + 1
    p1 = {"r": None, **{e: "r" for s in sets for e in s}}
    p2 = dict(p1)
    for i, (a, b, c) in enumerate(triples):
        for here, there in ((a, b), (b, c), (c, a)):
            for slot in (1, 2):
                p1[f"{i}_{here}_{slot}"] = here
                p2[f"{i}_{here}_{slot}"] = there
    return p1, p2


def _guard_job(name, p, q, k):
    if I.class_count(p, q) <= 2 * k:
        raise ValueError(f"{name}: the fpt guard would not reject at k={k}")
    return I.fpt_job(name, p, q, k, I.linkcut_count(p, q))


def shallow(rng, z):
    """Wide trees of depth about log n: random recursive trees, and for the
    permutation table random trees with a fixed level profile."""
    jobs = []
    for i in range(4):
        p = I.recursive_tree(rng, z["lc_n"])
        q = _moved_pair(rng, p, z["lc_moves"], z["guard_k"])
        jobs += [I.linkcut_job(f"lc{i}", p, q), _guard_job(f"fpt{i}", p, q, z["guard_k"])]
        if i == 0:
            jobs.append(I.script_job("script", p, q))
    for i in range(4):
        p = I.recursive_tree(rng, z["lc_n"])
        q, ops = I.mixed_script(rng, p, z["lc_moves"])
        jobs.append(I.verify_job(f"verify{i}", p, ops, q))
    for i in range(3):
        p = I.layered_tree(rng, _recursive_profile(z["perm_n"]))
        jobs.append(_perm_job(rng, f"perm{i}", p, z["perm_planted"]))
    jobs.append(_star_job(rng, "star", z["star"], z["perm_planted"]))
    p, q = I.binary_tree(rng, z["approx_n"]), I.binary_tree(rng, z["approx_n"])
    jobs.append(I.approx_job("approx", p, q))
    return jobs


def deep(rng, z):
    """Paths and caterpillars: depth close to n, one or few vertices per level.

    Each kind runs on two paths and one caterpillar, so its median falls
    inside the path cluster instead of between the two shapes' costs.
    """
    path = lambda size: I.path_tree(rng, size)  # noqa: E731
    caterpillar = lambda size: I.caterpillar_tree(rng, size, z["cat_leaves"])  # noqa: E731
    shapes = (path, path, caterpillar)
    n, jobs = z["deep_n"], []
    for i, shape in enumerate(shapes):
        p = shape(n)
        q = _moved_pair(rng, p, z["lc_moves"], z["guard_k"])
        jobs += [I.linkcut_job(f"lc{i}", p, q), _guard_job(f"fpt{i}", p, q, z["guard_k"])]
        if i == 0:
            jobs.append(I.script_job("script", p, q))
    for i, shape in enumerate(shapes):
        p = shape(n)
        q, ops = I.mixed_script(rng, p, z["lc_moves"])
        jobs.append(I.verify_job(f"verify{i}", p, ops, q))
    for i, shape in enumerate(shapes):
        size = z["deep_perm_path"] if shape is path else z["deep_perm_cat"]
        jobs.append(_perm_job(rng, f"perm{i}", shape(size), z["perm_planted"]))
    # two paths over the same labels and top: every other vertex moves
    p = I.path_tree(rng, z["approx_n"])
    top = I.top_of(p)
    rest = sorted(v for v in p if v != top)
    rng.shuffle(rest)
    q = {top: None, **dict(zip(rest, [top] + rest[:-1]))}
    jobs.append(I.approx_job("approx", p, q))
    return jobs


def search(rng, z):
    """Small pairs where the budgeted search does nearly all the work."""
    size, k = z["fpt_perm"], z["fpt_k"]
    jobs = []
    for i in range(z["fpt_jobs"]):
        p, q = _tight_pair(rng, z["fpt_n"], size)
        jobs.append(I.fpt_job(f"fpt{i}", p, q, k, size + 1, exact=size + 1))
    for i, m in enumerate(z["triples"]):
        p, q = _reduction_pair(rng, m)
        jobs.append(_guard_job(f"red{i}", p, q, z["guard_k"]))
    for i in range(2):
        p = I.recursive_tree(rng, z["exact_n"])
        q, _ = I.mixed_script(rng, p, 3)
        jobs.append(I.exact_job(f"exact{i}", p, q))
    small = z["small_n"]
    for i in range(z["small_jobs"]):
        p = I.recursive_tree(rng, small)
        q = _moved_pair(rng, p, 4, 0)
        jobs += [I.linkcut_job(f"lc{i}", p, q), I.script_job(f"script{i}", p, q)]
        q, ops = I.mixed_script(rng, p, 6)
        jobs.append(I.verify_job(f"verify{i}", p, ops, q))
        jobs.append(_perm_job(rng, f"perm{i}", p, 4))
    return jobs


WORKLOADS = {"shallow": shallow, "deep": deep, "search": search}


def build_jobs(workload, seed, scale="full"):
    return WORKLOADS[workload](random.Random(seed), SIZES[scale])


def run_job(job, workdir):
    """One CLI call; returns (seconds, problem or None)."""
    argv = [str(workdir / a) if a in job.files else a for a in job.argv]
    out, err = io.StringIO(), io.StringIO()
    problem = None
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = treemoves.cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception:
        code, problem = None, traceback.format_exc(limit=-3)
    elapsed = perf_counter() - start
    if problem is None and code != 0:
        problem = f"exit status {code}: {err.getvalue().strip()[-300:]}"
    if problem is None:
        try:
            problem = job.check(json.loads(out.getvalue().splitlines()[-1]))
        except (ValueError, IndexError, KeyError, TypeError) as exc:
            problem = f"unreadable --json output ({exc!r}): {out.getvalue()[-300:]!r}"
    return elapsed, problem


def run(workload, seed, seconds, trace=False, scale="full"):
    """Build the inputs, run rounds of the job list, return raw results."""
    jobs = build_jobs(workload, seed, scale)
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-{seed}-", dir=OUT))
    tracer = Tracer() if trace else None
    try:
        for job in jobs:
            for name, text in job.files.items():
                (workdir / name).write_text(text, encoding="utf-8")
        samples = {job.kind: [] for job in jobs}
        walls, failures, attempted = [], [], 0
        if tracer:
            tracer.install()
        began = perf_counter()
        while True:
            wall = 0.0
            for index, job in enumerate(jobs):
                if tracer:
                    tracer.job = (len(walls), index)
                elapsed, problem = run_job(job, workdir)
                attempted += 1
                wall += elapsed
                if problem is None:
                    samples[job.kind].append(elapsed)
                else:
                    failures.append(f"{job.kind} {' '.join(job.argv)}: {problem}")
            walls.append(wall)
            spent = perf_counter() - began
            if spent + spent / len(walls) > seconds:
                break
    finally:
        if tracer:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)
    result = {
        "workload": workload,
        "seed": seed,
        "digest": I.digest(jobs),
        "jobs": len(jobs),
        "rounds": len(walls),
        "round_wall_s": walls,
        "samples": samples,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:5],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer:
        tracer.write(OUT / f"spans-{workload}-seed{seed}.jsonl")
        result["layers"] = layer_metrics(tracer.spans, len(walls), tracer.missing)
        result["missing"] = sorted(tracer.missing)
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(SIZES), default="full")
    args = parser.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.scale)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
