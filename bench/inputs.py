"""Seeded inputs for the benchmark, built without the library.

Every tree is a parent map ``{label: parent or None}`` made here with the
bench's own ``random.Random(seed)`` and written in the documented tree
and script grammar, so a change to ``treemoves`` cannot change what the
bench feeds it.  Each job carries the answer the bench expects, worked
out from these parent maps alone: the link-and-cut distance is a count
of parent disagreements, planted permutations move only vertices that
every automorphism fixes (so the planted size is the exact permutation
distance), and the rearrangement lower bound is half the number of
(parent in t1, parent in t2) classes, rounded up.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass, field
from typing import Callable


# ---------------------------------------------------------------- trees


def recursive_tree(rng, n):
    """Random recursive tree: vertex i hangs under a uniform earlier vertex."""
    labels = [f"v{i}" for i in range(n)]
    parent = {labels[0]: None}
    for i in range(1, n):
        parent[labels[i]] = labels[rng.randrange(i)]
    return parent


def layered_tree(rng, level_sizes):
    """Random tree with a fixed number of vertices per depth.

    Every vertex picks a uniform parent on the level above, so the tree is
    as wide and shallow as a random recursive one, while the same-level
    vertex pairs that the permutation table loops over are the same in
    number for every seed.
    """
    levels, parent, i = [], {}, 0
    for size in level_sizes:
        level = [f"l{i + j}" for j in range(size)]
        i += size
        for v in level:
            parent[v] = rng.choice(levels[-1]) if levels else None
        levels.append(level)
    return parent


def binary_tree(rng, n):
    """Random tree in which every vertex has at most two children."""
    labels = [f"b{i}" for i in range(n)]
    parent = {labels[0]: None}
    open_slots = [labels[0], labels[0]]
    for label in labels[1:]:
        pick = rng.randrange(len(open_slots))
        parent[label] = open_slots[pick]
        open_slots[pick] = open_slots[-1]
        open_slots.pop()
        open_slots += [label, label]
    return parent


def _shuffled_labels(rng, n, prefix):
    labels = [f"{prefix}{i}" for i in range(n)]
    rng.shuffle(labels)
    return labels


def path_tree(rng, n):
    """A path whose labels appear in random order along it."""
    labels = _shuffled_labels(rng, n, "p")
    parent = {labels[0]: None}
    for above, below in zip(labels, labels[1:]):
        parent[below] = above
    return parent


def caterpillar_tree(rng, n, leaves_per_spine):
    """A spine of ``n / (leaves_per_spine + 1)`` vertices; the rest are leaves
    hung under uniformly chosen spine vertices."""
    labels = _shuffled_labels(rng, n, "c")
    spine_len = max(1, n // (leaves_per_spine + 1))
    spine, rest = labels[:spine_len], labels[spine_len:]
    parent = {spine[0]: None}
    for above, below in zip(spine, spine[1:]):
        parent[below] = above
    for label in rest:
        parent[label] = spine[rng.randrange(spine_len)]
    return parent


def star_tree(leaves):
    return {"s0": None, **{f"s{i}": "s0" for i in range(1, leaves + 1)}}


def children_of(parent):
    kids = {v: [] for v in parent}
    for v, p in parent.items():
        if p is not None:
            kids[p].append(v)
    return kids


def top_of(parent):
    return next(v for v, p in parent.items() if p is None)


def serialize(parent):
    """Tree text in the documented grammar, children in sorted order."""
    kids = children_of(parent)
    parts = []
    # iterative: paths thousands of vertices deep are legal input
    stack = [(False, top_of(parent))]
    while stack:
        is_text, item = stack.pop()
        cs = () if is_text else sorted(kids[item])
        if is_text or not cs:
            parts.append(item)
            continue
        parts.append("(")
        stack.append((True, ")" + item))
        for i, c in enumerate(reversed(cs)):
            if i:
                stack.append((True, ","))
            stack.append((False, c))
    return "".join(parts) + ";"


def is_descendant(parent, v, ancestor):
    v = parent[v]
    while v is not None:
        if v == ancestor:
            return True
        v = parent[v]
    return False


# ---------------------------------------------------------------- operations


def random_move(rng, parent, labels, moved):
    """Move a label not moved before to a random valid new parent, in place.

    Each label moves at most once, so the link-and-cut distance of the
    result equals the number of moves made.
    """
    top = top_of(parent)
    while True:
        child = labels[rng.randrange(len(labels))]
        if child == top or child in moved:
            continue
        target = labels[rng.randrange(len(labels))]
        source = parent[child]
        if target in (child, source) or is_descendant(parent, target, child):
            continue
        parent[child] = target
        moved.add(child)
        return ("move", child, source, target)


def derangement(rng, support):
    support = list(support)
    while True:
        images = support[:]
        rng.shuffle(images)
        if all(a != b for a, b in zip(support, images)):
            return dict(zip(support, images))


def relabel(parent, pi):
    get = pi.get
    return {
        get(v, v): None if p is None else get(p, p) for v, p in parent.items()
    }


def format_op(op):
    if op[0] == "move":
        return "move {} {} {}".format(*op[1:])
    return "perm " + " ".join(f"{a}>{b}" for a, b in sorted(op[1].items()))


def mixed_script(rng, parent, count):
    """``count`` random moves and 2-to-4-label permutations, as ``gen random`` makes."""
    parent = dict(parent)
    labels = sorted(parent)
    ops = []
    for _ in range(count):
        if rng.random() < 0.3:
            pi = derangement(rng, rng.sample(labels, rng.randint(2, 4)))
            parent = relabel(parent, pi)
            ops.append(("perm", pi))
        else:
            ops.append(random_move(rng, parent, labels, set()))
    return parent, ops


# ---------------------------------------------------------------- answers


def linkcut_count(p1, p2):
    return sum(1 for v, p in p1.items() if p != p2[v])


def class_count(p1, p2):
    """Number of (parent in t1, parent in t2) pairs over disagreeing labels."""
    return len({(p, p2[v]) for v, p in p1.items() if p != p2[v]})


def lower_bound(p1, p2):
    """Each permuted label repairs at most two classes, each move one."""
    return (class_count(p1, p2) + 1) // 2


def fixed_vertices(parent):
    """Vertices that every automorphism of the unlabelled tree fixes.

    A vertex is fixed when it and all its ancestors have no sibling with
    an isomorphic subtree.  Permuting only fixed labels gives a pair whose
    permutation distance is exactly the number of labels permuted.
    """
    kids = children_of(parent)
    top = top_of(parent)
    order = [top]
    for v in order:
        order.extend(kids[v])
    interned, code = {}, {}
    for v in reversed(order):
        key = tuple(sorted(code[c] for c in kids[v]))
        code[v] = interned.setdefault(key, len(interned))
    fixed = [top]
    for v in fixed:
        seen = {}
        for c in kids[v]:
            seen[code[c]] = seen.get(code[c], 0) + 1
        fixed.extend(c for c in kids[v] if seen[code[c]] == 1)
    return fixed


def replay_witness(p1, script, p2):
    """Size of ``script`` if it turns p1 into p2 by valid steps, else None."""
    parent = dict(p1)
    size = 0
    for line in script.splitlines():
        kind, *args = line.split()
        if kind == "move":
            child, source, target = args
            if (
                parent.get(child, "") != source
                or target not in parent
                or target == child
                or is_descendant(parent, target, child)
            ):
                return None
            parent[child] = target
            size += 1
        else:
            pi = dict(pair.split(">") for pair in args)
            if set(pi) != set(pi.values()) or not set(pi) <= set(parent):
                return None
            parent = relabel(parent, pi)
            size += sum(1 for a, b in pi.items() if a != b)
    return size if parent == p2 else None


def oracle_distance(p1, p2):
    """Exact rearrangement distance by trying every label permutation."""
    labels = sorted(p1)
    best = None
    for images in itertools.permutations(labels):
        pi = {a: b for a, b in zip(labels, images) if a != b}
        mid = relabel(p1, pi)
        if top_of(mid) != top_of(p2):
            continue
        value = len(pi) + linkcut_count(mid, p2)
        if best is None or value < best:
            best = value
    return best


# ---------------------------------------------------------------- jobs


@dataclass
class Job:
    """One ``treemoves`` command line with its input files and its check.

    ``check`` takes the parsed ``--json`` record and returns a problem
    description, or None when the answer is right.
    """

    kind: str
    argv: list
    files: dict
    check: Callable = field(repr=False)


def _expect(record, **wanted):
    for key, value in wanted.items():
        if record.get(key) != value:
            return f"{key} is {record.get(key)!r}, expected {value!r}"
    return None


def _tree_files(name, p1, p2):
    return {f"{name}.t1": serialize(p1), f"{name}.t2": serialize(p2)}


def linkcut_job(name, p1, p2):
    d = linkcut_count(p1, p2)

    def check(record):
        return _expect(record, distance=d, verified=True, method="linear") or (
            None
            if replay_witness(p1, record["witness"], p2) == d
            else "witness does not replay to t2 in d moves"
        )

    return Job("linkcut", ["dist", "linkcut", f"{name}.t1", f"{name}.t2", "--json"],
               _tree_files(name, p1, p2), check)


def script_job(name, p1, p2):
    d = linkcut_count(p1, p2)

    def check(record):
        return _expect(record, length=d, verified=True) or (
            None
            if replay_witness(p1, record["script"], p2) == d
            else "script does not replay to t2 in d moves"
        )

    return Job("script", ["script", f"{name}.t1", f"{name}.t2", "--json"],
               _tree_files(name, p1, p2), check)


def verify_job(name, p1, ops, p2):
    files = _tree_files(name, p1, p2)
    files[f"{name}.ops"] = "\n".join(format_op(op) for op in ops) + "\n"

    def check(record):
        return _expect(record, operations=len(ops), verified=True)

    return Job("verify", ["verify", f"{name}.t1", f"{name}.ops", f"{name}.t2", "--json"],
               files, check)


def perm_job(name, p1, p2, exact, planted):
    """``exact`` is the permutation distance, known from the construction."""

    def check(record):
        problem = _expect(record, distance=exact, verified=True, method="matching")
        if problem is None and record["distance"] > planted:
            problem = f"distance {record['distance']} exceeds planted {planted}"
        return problem

    return Job("perm", ["dist", "perm", f"{name}.t1", f"{name}.t2", "--json"],
               _tree_files(name, p1, p2), check)


def fpt_job(name, p1, p2, k, planted, exact=None):
    """Budgeted search; ``planted`` is the size of the sequence that made t2.

    Any answer within the budget must lie between the class lower bound
    and the planted size and come with a witness of that size; a budget
    report must carry the class lower bound, and is wrong when the planted
    sequence already fits the budget.
    """
    low = lower_bound(p1, p2)
    guard = class_count(p1, p2) > 2 * k

    def check(record):
        if record.get("exceeded"):
            if planted <= k:
                return f"budget {k} reported exceeded, planted size is {planted}"
            if guard and record.get("best_found") is not None:
                return "partition guard should reject with best_found null"
            return _expect(record, lower_bound=low, budget=k)
        if guard:
            return f"answer {record.get('distance')} passes a rejecting guard"
        d = record.get("distance")
        if not isinstance(d, int) or not low <= d <= min(planted, k):
            return f"distance {d!r} outside [{low}, {min(planted, k)}]"
        if exact is not None and d != exact:
            return f"distance {d} != exact {exact}"
        if replay_witness(p1, record["witness"], p2) != d:
            return "witness does not replay to t2 at the reported size"
        return _expect(record, verified=True, method="fpt")

    argv = ["dist", "fpt", f"{name}.t1", f"{name}.t2", "--k", str(k), "--json"]
    return Job("fpt", argv, _tree_files(name, p1, p2), check)


def exact_job(name, p1, p2):
    d = oracle_distance(p1, p2)

    def check(record):
        problem = _expect(record, distance=d, verified=True, method="oracle")
        if problem is None and replay_witness(p1, record["witness"], p2) != d:
            problem = "witness does not replay to t2 at the reported size"
        return problem

    return Job("exact", ["dist", "exact", f"{name}.t1", f"{name}.t2", "--json"],
               _tree_files(name, p1, p2), check)


def approx_job(name, p1, p2):
    d = linkcut_count(p1, p2)

    def check(record):
        return _expect(record, distance=d, verified=True, method="approx")

    return Job("approx", ["dist", "approx", f"{name}.t1", f"{name}.t2", "--json"],
               _tree_files(name, p1, p2), check)


def digest(jobs):
    """Hash of every input file, so two runs can show they read the same bytes."""
    h = hashlib.sha256()
    for job in jobs:
        for name in sorted(job.files):
            h.update(name.encode())
            h.update(job.files[name].encode())
    return h.hexdigest()[:16]
