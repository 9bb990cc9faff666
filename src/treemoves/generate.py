"""Seeded random generators for trees, operations and 3DM instances.

All functions take a ``random.Random`` so a single seed pins down every
byte of generated output.  Random trees follow the recursive model: each
new vertex attaches to a uniformly chosen existing vertex, which covers
unbounded degrees.
"""

from __future__ import annotations

from .ops import LinkCutOp, OperationSequence, Permutation, _move, _relabel, apply_permutation
from .reduction3dm import ThreeDMInstance
from .tree import LabelledTree, _in_subtree

__all__ = [
    "random_recursive_tree",
    "random_binary_tree",
    "random_permutation",
    "random_move",
    "random_operations",
    "random_relabelling",
    "random_3dm_instance",
]


def _tree_labels(n, labels):
    """The ``n`` labels of a new tree: ``labels``, or ``v1`` ... ``vn``."""
    if n < 1:
        raise ValueError("a tree needs at least one vertex")
    labels = list(labels) if labels is not None else [f"v{i}" for i in range(1, n + 1)]
    if len(labels) != n:
        raise ValueError(f"need exactly {n} labels, got {len(labels)}")
    return labels


def random_recursive_tree(rng, n, labels=None):
    """Uniform random recursive tree: vertex i attaches to a uniform earlier one."""
    labels = _tree_labels(n, labels)
    parent = {labels[0]: None}
    for i in range(1, n):
        parent[labels[i]] = labels[rng.randrange(i)]
    return LabelledTree(parent)


def random_binary_tree(rng, n, labels=None):
    """Random tree where every vertex keeps at most two children."""
    labels = _tree_labels(n, labels)
    parent = {labels[0]: None}
    open_slots = [labels[0]]
    load: dict = {labels[0]: 0}
    for i in range(1, n):
        pick = rng.randrange(len(open_slots))
        host = open_slots[pick]
        parent[labels[i]] = host
        load[host] += 1
        if load[host] == 2:
            # swap-remove keeps the choice uniform over open vertices
            open_slots[pick] = open_slots[-1]
            open_slots.pop()
        open_slots.append(labels[i])
        load[labels[i]] = 0
    return LabelledTree(parent)


def random_permutation(rng, labels, size):
    """Random permutation moving exactly ``size`` of the given labels."""
    pool = sorted(labels)
    if not 2 <= size <= len(pool):
        raise ValueError(f"support size must be in [2, {len(pool)}], got {size}")
    support = rng.sample(pool, size)
    while True:
        images = support[:]
        rng.shuffle(images)
        if all(a != b for a, b in zip(support, images)):
            return Permutation(dict(zip(support, images)))


def _draw_move(rng, parent, top, pool):
    """A random valid move on a parent map, or None if there is none."""
    non_top = [v for v in pool if v != top]
    rng.shuffle(non_top)
    for child in non_top:
        source = parent[child]
        for _ in range(20):
            w = pool[rng.randrange(len(pool))]
            if w != source and not _in_subtree(parent, w, child):
                return LinkCutOp(child, source, w)
        targets = [
            w for w in pool if w != source and not _in_subtree(parent, w, child)
        ]
        if targets:
            return LinkCutOp(child, source, rng.choice(targets))
    return None


def random_move(rng, tree):
    """A randomly chosen valid move, or None if the tree admits none.

    Rejection-samples targets first (nearly always immediate on random
    trees) and only falls back to a full scan on adversarial shapes.
    """
    return _draw_move(rng, tree._parent, tree.root_child, sorted(tree.labels))


def random_operations(rng, tree, count, perm_probability=0.3, keep_top=False):
    """Apply ``count`` random valid operations; returns (tree, sequence).

    With ``keep_top`` the top vertex keeps its label (permutations avoid
    it), so the result stays comparable under link-and-cut distance.
    The operations act on one parent map; one tree is built at the end.
    """
    ops = []
    parent = tree.parent_map()
    top = tree.root_child
    all_labels = sorted(parent)
    pool_size = len(all_labels) - (1 if keep_top else 0)
    for _ in range(count):
        use_perm = pool_size >= 2 and rng.random() < perm_probability
        op = None
        if not use_perm:
            op = _draw_move(rng, parent, top, all_labels)
        if op is None:
            if pool_size < 2:
                break
            pool = [v for v in all_labels if not keep_top or v != top]
            size = rng.randint(2, min(4, pool_size))
            op = random_permutation(rng, pool, size)
        if isinstance(op, LinkCutOp):
            _move(parent, op)
        else:
            _relabel(parent, op)
            top = op(top)
        ops.append(op)
    return LabelledTree(parent), OperationSequence(tuple(ops))


def random_relabelling(rng, tree):
    """Random full relabelling; returns (relabelled tree, permutation)."""
    olds = sorted(tree.labels)
    news = olds[:]
    rng.shuffle(news)
    pi = Permutation({o: n for o, n in zip(olds, news) if o != n})
    return apply_permutation(tree, pi), pi


def random_3dm_instance(rng, sizes=(3, 3, 3), m=3):
    """Random 3-bounded 1-common instance with at most ``m`` triples.

    The elements are ``a1``, ``b1``, ``c1`` and so on.  Triples are
    rejection-sampled from 60 draws; fewer than ``m`` may be kept when
    the constraints run out of room.
    """
    a = [f"a{i}" for i in range(1, sizes[0] + 1)]
    b = [f"b{i}" for i in range(1, sizes[1] + 1)]
    c = [f"c{i}" for i in range(1, sizes[2] + 1)]
    triples: list = []
    occurrences: dict = {}
    for _ in range(60):
        if len(triples) == m:
            break
        t = (rng.choice(a), rng.choice(b), rng.choice(c))
        if any(occurrences.get(e, 0) >= 3 for e in t):
            continue
        if any(len(set(t) & set(s)) > 1 for s in triples):
            continue
        triples.append(t)
        for e in t:
            occurrences[e] = occurrences.get(e, 0) + 1
    return ThreeDMInstance(tuple(a), tuple(b), tuple(c), tuple(triples))
