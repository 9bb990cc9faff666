"""Independent oracles and small utilities shared by the test modules.

Everything here is deliberately naive: breadth-first search over whole
tree space, exhaustive bijection enumeration, recursive isomorphism by
trying all child matchings.  The production code must agree with these
on small instances.
"""

from itertools import combinations, permutations
from types import SimpleNamespace

import treemoves as tm
from treemoves.matching import min_cost_perfect_matching

EXAMPLE_T1 = "((d,e,f)b,(g,h)c)a;"
EXAMPLE_T2 = "((b,e)d,(g,f,h)c)a;"


def example_pair():
    return tm.parse_tree(EXAMPLE_T1), tm.parse_tree(EXAMPLE_T2)


def is_descendant(tree, label, ancestor):
    """True if ``ancestor`` is a strict ancestor of ``label`` in ``tree``."""
    p = tree.parent(label)
    while p is not None and p != ancestor:
        p = tree.parent(p)
    return p is not None


def depths(tree):
    """Map label -> number of strict ancestors (the top vertex is 0)."""
    out = {}
    for v in tree.labels:
        d, p = 0, tree.parent(v)
        while p is not None:
            d, p = d + 1, tree.parent(p)
        out[v] = d
    return out


def bfs_linkcut_distance(t1, t2):
    """Shortest link-and-cut script length by BFS over all trees."""
    if t1 == t2:
        return 0
    seen = {t1}
    frontier = [t1]
    dist = 0
    while frontier:
        dist += 1
        nxt = []
        for t in frontier:
            labs = sorted(t.labels)
            for v in labs:
                p = t.parent(v)
                if p is None:
                    continue
                for w in labs:
                    if w == v or w == p or is_descendant(t, w, v):
                        continue
                    u = tm.replay_sequence(t, (tm.LinkCutOp(v, p, w),))
                    if u == t2:
                        return dist
                    if u not in seen:
                        seen.add(u)
                        nxt.append(u)
        frontier = nxt
    raise AssertionError("trees not connected by link-and-cut moves")


def exhaustive_permutation_distance(t1, t2):
    """Minimum moved-label count over all bijections achieving congruence."""
    labs = sorted(t1.labels)
    p1 = t1.parent_map()
    p2 = t2.parent_map()
    best = None
    for images in permutations(labs):
        m = dict(zip(labs, images))
        ok = True
        for v in labs:
            par = p1[v]
            mapped = None if par is None else m[par]
            if p2[m[v]] != mapped:
                ok = False
                break
        if ok:
            moved = sum(1 for a, b in m.items() if a != b)
            if best is None or moved < best:
                best = moved
    return best


def naive_rearrangement_distance(t1, t2):
    """min over all label bijections of moved-count + link-and-cut distance."""
    labs = sorted(t1.labels)
    p2 = t2.parent_map()
    best = None
    for images in permutations(labs):
        m = dict(zip(labs, images))
        moved = sum(1 for a, b in m.items() if a != b)
        if best is not None and moved >= best:
            continue
        relabelled = {m[v]: (None if p is None else m[p]) for v, p in t1.parent_map().items()}
        if relabelled[t2.root_child] is not None:
            continue
        extra = sum(1 for v, p in relabelled.items() if p != p2[v])
        total = moved + extra
        if best is None or total < best:
            best = total
    return best


def rebuild_replay(tree, seq):
    """Replay ``seq`` by checking and rebuilding a whole tree per operation.

    This is the replay algorithm that predates the in-place one: quadratic,
    kept only as the reference that ``replay_sequence`` must agree with,
    result for result and error for error.
    """
    for op in seq:
        if isinstance(op, tm.LinkCutOp):
            for label in (op.child, op.source, op.target):
                if label not in tree:
                    raise tm.UnknownLabelError(f"no vertex labelled {label!r}")
            if tree.parent(op.child) != op.source:
                raise tm.WrongParentError(
                    f"cannot apply {op}: parent of {op.child!r} is "
                    f"{tree.parent(op.child)!r}, not {op.source!r}"
                )
            if op.target == op.child or is_descendant(tree, op.target, op.child):
                raise tm.DescendantTargetError(
                    f"cannot apply {op}: {op.target!r} is a descendant of {op.child!r}"
                )
            parent = tree.parent_map()
            parent[op.child] = op.target
        else:
            missing = op.support - set(tree.labels)
            if missing:
                raise tm.UnknownLabelError(
                    f"permutation moves unknown labels {sorted(missing)!r}"
                )
            parent = {
                op(v): (None if p is None else op(p))
                for v, p in tree.parent_map().items()
            }
        tree = tm.LabelledTree(parent)
    return tree


def eager_mismatch_table(t1, t2):
    """Mismatch costs of every isomorphic pair, filled bottom-up level by level.

    This is the table that predates the top-down memo: vertices bucketed
    by depth, canonical codes interned level by level, and a cost stored
    for every same-depth isomorphic pair (leaf pairs included) and an
    optimal child matching for every internal one, whether or not the
    root pair needs it.  Child blocks are solved in the same order, so
    it is kept as the reference ``mismatch_table`` must agree with, cost
    for cost and matching for matching.  Leaf blocks go to the solver
    here too, where ``mismatch_table`` pairs their unshared labels in
    sorted order; the two can break ties differently, though on the
    pairs the tests compare they do not.  Returns a namespace with ``cost`` and ``matchings``.
    """
    buckets = []
    for tree in (t1, t2):
        depth = depths(tree)
        levels = [[] for _ in range(max(depth.values()) + 1)]
        for v in sorted(depth):
            levels[depth[v]].append(v)
        buckets.append(levels)
    b1, b2 = buckets
    code1, code2 = {}, {}
    interned = {}
    for level in range(max(len(b1), len(b2)) - 1, -1, -1):
        for tree, levels, codes in ((t1, b1, code1), (t2, b2, code2)):
            for v in levels[level] if level < len(levels) else ():
                key = (level, tuple(sorted(codes[c] for c in tree.children(v))))
                codes[v] = interned.setdefault(key, len(interned))
    cost, matchings = {}, {}
    for level in range(min(len(b1), len(b2)) - 1, -1, -1):
        same_code = {}
        for v in b2[level]:
            same_code.setdefault(code2[v], []).append(v)
        for u in b1[level]:
            cu = t1.children(u)
            for v in same_code.get(code1[u], ()):
                delta = 0 if u == v else 1
                if not cu:
                    cost[u, v] = delta
                    continue
                blocks = {}
                for x in cu:
                    blocks.setdefault(code1[x], ([], []))[0].append(x)
                for y in t2.children(v):
                    blocks[code2[y]][1].append(y)
                total = 0
                pairs = []
                for xs, ys in blocks.values():
                    value, match = min_cost_perfect_matching(
                        [[cost[x, y] for y in ys] for x in xs]
                    )
                    total += value
                    pairs.extend((x, ys[j]) for x, j in zip(xs, match))
                cost[u, v] = total + delta
                matchings[u, v] = tuple(pairs)
    return SimpleNamespace(cost=cost, matchings=matchings)


def matched_pairs(matchings, u, v):
    """Every pair of the stored optimal isomorphism below (u, v), (u, v) first."""
    out = []
    stack = [(u, v)]
    while stack:
        pair = stack.pop()
        out.append(pair)
        stack.extend(matchings.get(pair, ()))
    return out


def exhaustive_support_scan(t1, t2, candidates, max_support, scored=None):
    """Best ``(value, mapping)`` over permutations with support in ``candidates``.

    This is the support scan that predates the pruned depth-first walk:
    every support of each size in ``itertools.combinations`` order, its
    neighbourhood rebuilt as a set and rescanned for the activity it can
    touch, and the floor test applied support by support.  It is kept
    only as the reference that ``rearrangement._search_best`` must agree
    with, value for value and mapping for mapping.  Every scored
    ``(support, images)`` is appended to ``scored`` when given.
    """
    p1, p2 = t1.parent_map(), t2.parent_map()
    r1, r2 = t1.root_child, t2.root_child
    base_active = sum(1 for v, p in p1.items() if p != p2[v])

    def score(support, images, aff, base_bad):
        sigma = dict(zip(support, images))
        if sigma.get(r1, r1) != r2:
            return None
        bad = 0
        for x in aff:
            p = p1[x]
            if p is not None:
                p = sigma.get(p, p)
            if p != p2[sigma.get(x, x)]:
                bad += 1
        return len(support) + base_active - base_bad + bad

    best_value, best_sigma = (base_active, {}) if r1 == r2 else (float("inf"), None)
    cands = sorted(candidates)
    for size in range(2, min(max_support, len(cands)) + 1):
        if size >= best_value:
            break
        patterns = [
            p for p in permutations(range(size)) if all(p[i] != i for i in range(size))
        ]
        layer_value, layer_sigma = float("inf"), None
        for support in combinations(cands, size):
            if r1 == r2:
                if r1 in support:
                    continue
            elif r1 not in support or r2 not in support:
                continue
            affected = set(support)
            for s in support:
                affected.update(t1.children(s))
            aff = tuple(affected)
            base_bad = sum(1 for x in aff if p1[x] != p2[x])
            floor = size + base_active - base_bad
            if floor >= layer_value or floor >= best_value:
                continue
            for pattern in patterns:
                images = tuple(support[j] for j in pattern)
                value = score(support, images, aff, base_bad)
                if scored is not None:
                    scored.append((support, images))
                if value is not None and value < layer_value:
                    layer_value, layer_sigma = value, dict(zip(support, images))
        if layer_value < best_value:
            best_value, best_sigma = layer_value, layer_sigma
    return best_value, best_sigma


def ilp_rearrangement_distance(t1, t2):
    """Exact rearrangement distance as a 0/1 program; ``(value, sigma)``.

    The canonical form is one permutation sigma followed by moves, so
    the distance is the minimum of |sigma| plus the labels whose parent
    edge sigma does not carry into t2.  ``x[l, a] = 1`` iff sigma(l) = a,
    a bijection that sends t1's top to t2's; for non-top l and a,
    ``y[l, a] <= x[l, a]`` and ``y[l, a] <= x[p1(l), p2(a)]``, so y marks
    the labels whose parent edge is kept.  The objective is
    ``(n - sum x[l, l]) + (n - 1 - sum y)``.  HiGHS breaks ties its own
    way, so ``sigma`` is a minimiser but not the search's witness.
    """
    from scipy.optimize import Bounds, LinearConstraint, milp
    from scipy.sparse import coo_array

    labels = sorted(t1.labels)
    n = len(labels)
    index = {v: i for i, v in enumerate(labels)}
    p1, p2 = t1.parent_map(), t2.parent_map()
    r1, r2 = t1.root_child, t2.root_child
    rows1 = [index[v] for v in labels if v != r1]
    rows2 = [index[v] for v in labels if v != r2]
    nx, m = n * n, n - 1
    cost = [0.0] * (nx + m * m)
    for i in range(n):
        cost[i * n + i] = -1.0
    for j in range(nx, nx + m * m):
        cost[j] = -1.0
    entries, row = [], 0  # (row, column, coefficient)
    for i in range(n):  # each label has one image and one preimage
        entries += [(row, i * n + j, 1.0) for j in range(n)]
        entries += [(row + 1, j * n + i, 1.0) for j in range(n)]
        row += 2
    for y_row, i in enumerate(rows1):
        pi = index[p1[labels[i]]]
        for y_col, j in enumerate(rows2):
            pj = index[p2[labels[j]]]
            y = nx + y_row * m + y_col
            entries += [(row, y, 1.0), (row, i * n + j, -1.0)]
            entries += [(row + 1, y, 1.0), (row + 1, pi * n + pj, -1.0)]
            row += 2
    r, c, v = zip(*entries)
    matrix = coo_array((v, (r, c)), shape=(row, nx + m * m))
    lower = [1.0] * (2 * n) + [-1.0] * (row - 2 * n)
    upper = [1.0] * (2 * n) + [0.0] * (row - 2 * n)
    low_bounds = [0.0] * len(cost)
    low_bounds[index[r1] * n + index[r2]] = 1.0
    res = milp(
        cost,
        constraints=LinearConstraint(matrix, lower, upper),
        integrality=[1] * len(cost),
        bounds=Bounds(low_bounds, 1.0),
    )
    if not res.success:
        raise AssertionError(f"milp failed: {res.message}")
    value = round(res.fun) + n + m
    sigma = {
        labels[i]: labels[j]
        for i in range(n)
        for j in range(n)
        if i != j and res.x[i * n + j] > 0.5
    }
    return value, sigma


def count_tree_builds(monkeypatch):
    """List that records the size of every ``LabelledTree`` built from now on.

    Both constructors are counted: the validated ``__init__`` and the
    parser's unchecked ``_from_parse``.
    """
    built = []
    init = tm.LabelledTree.__init__
    from_parse = tm.LabelledTree._from_parse

    def counting_init(self, parent):
        built.append(len(parent))
        init(self, parent)

    def counting_from_parse(cls, parent, children, top):
        built.append(len(parent))
        return from_parse(parent, children, top)

    monkeypatch.setattr(tm.LabelledTree, "__init__", counting_init)
    monkeypatch.setattr(tm.LabelledTree, "_from_parse", classmethod(counting_from_parse))
    return built


def partition_perturbation(t1, t2, pi):
    """Family partition sizes before and after permuting ``t1`` by ``pi``.

    Applying a permutation of size s can add or remove at most 2*s
    classes, so the two values always differ by at most ``2 * pi.size``.
    """
    before = len(tm.family_partition(t1, t2))
    after = len(tm.family_partition(tm.apply_permutation(t1, pi), t2))
    return before, after


def recursive_isomorphic(t1, u, t2, v):
    """Rooted subtree isomorphism by trying every child bijection."""
    cu = t1.children(u)
    cv = t2.children(v)
    if len(cu) != len(cv):
        return False
    if not cu:
        return True
    for images in permutations(cv):
        if all(recursive_isomorphic(t1, x, t2, y) for x, y in zip(cu, images)):
            return True
    return False
