"""Layer spans recorded from outside the library.

The tracer replaces public functions at the module attribute through
which their caller looks them up (``treemoves.cli.parse_tree``,
``treemoves.permutation.min_cost_perfect_matching``, ...) with wrappers
that record a span: name, start, end, parent span, job id and a work
count.  ``LabelledTree`` is wrapped at its ``__init__``, so every
construction is seen whichever module makes it.  Nothing under ``src/``
changes.  Spans stay in memory and are written out when the run ends.
A name the library no longer has is skipped, and the metrics built on
it are reported absent.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
from collections import defaultdict
from time import perf_counter

# (module, attribute, span name): each layer's entry points as its caller sees them
WRAPPED = [
    ("treemoves.cli", "main", "cli.main"),
    ("treemoves.cli", "parse_tree", "tree.parse"),
    ("treemoves.tree.LabelledTree", "__init__", "tree.build"),
    ("treemoves.cli", "parse_script", "ops.parse_script"),
    ("treemoves.cli", "format_script", "ops.format_script"),
    ("treemoves.rearrangement", "replay_sequence", "ops.replay"),
    ("treemoves.cli", "linkcut_distance", "linkcut.distance"),
    ("treemoves.cli", "linkcut_script", "linkcut.script"),
    ("treemoves.rearrangement", "linkcut_script", "linkcut.script"),
    ("treemoves.cli", "verify_sequence", "rearrangement.verify"),
    ("treemoves.cli", "permutation_distance", "permutation.distance"),
    ("treemoves.cli", "optimal_permutation", "permutation.optimal"),
    ("treemoves.permutation", "mismatch_table", "permutation.table"),
    ("treemoves.permutation", "min_cost_perfect_matching", "matching.solve"),
    ("treemoves.cli", "fpt_distance", "rearrangement.fpt"),
    ("treemoves.cli", "brute_force_distance", "rearrangement.oracle"),
    ("treemoves.cli", "approx_binary", "rearrangement.approx"),
]

LAYERS = ("cli", "tree", "ops", "linkcut", "permutation", "matching", "rearrangement")

# fpt outcome codes kept in the span's count field
ANSWERED, EXCEEDED, GUARD_REJECT = 0, 1, 2


def _fpt_outcome(args, result):
    if getattr(result, "budget", None) is None:
        return ANSWERED
    return GUARD_REJECT if result.best_found is None else EXCEEDED


# work count of one call, from its arguments and result
_COUNTS = {
    "tree.parse": lambda args, result: len(result),
    "tree.build": lambda args, result: len(args[0]),
    "ops.replay": lambda args, result: len(args[1]),
    "linkcut.script": lambda args, result: len(result),
    "permutation.table": lambda args, result: len(args[0]) * len(args[1]),
    "matching.solve": lambda args, result: len(args[0]),
    "rearrangement.fpt": _fpt_outcome,
}


def _resolve(dotted):
    """The object a dotted path names: a module, or a class inside one."""
    module, _, attr = dotted.rpartition(".")
    try:
        return importlib.import_module(dotted)
    except ImportError:
        return getattr(importlib.import_module(module), attr, None)


class Tracer:
    """Wraps the layer entry points and keeps their spans in memory.

    A span is ``[name, start, end, parent index or -1, job id, count]``.
    """

    def __init__(self):
        self.spans = []
        self.job = None
        self.missing = set()
        self._stack = []
        self._undo = []

    def _wrap(self, name, fn):
        spans, stack, count = self.spans, self._stack, _COUNTS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.job, 0]
            spans.append(span)
            stack.append(index)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if count is not None:
                span[5] = count(args, result)
            return result

        return wrapper

    def install(self):
        wrapped = set()
        for owner_name, attr, name in WRAPPED:
            owner = _resolve(owner_name)
            fn = getattr(owner, attr, None) if owner is not None else None
            if fn is None:
                continue
            setattr(owner, attr, self._wrap(name, fn))
            self._undo.append((owner, attr, fn))
            wrapped.add(name)
        self.missing = {name for _, _, name in WRAPPED} - wrapped

    def uninstall(self):
        for owner, attr, fn in reversed(self._undo):
            setattr(owner, attr, fn)
        self._undo.clear()

    def write(self, path):
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(span) + "\n")


def _inside(spans, index, name):
    while index >= 0:
        if spans[index][0] == name:
            return True
        index = spans[index][3]
    return False


def _round_totals(spans, rounds):
    """Per round and per span name (and per layer): time, self time, calls, counts."""
    child = [0.0] * len(spans)
    for name, start, end, parent, job, count in spans:
        if parent >= 0:
            child[parent] += end - start
    totals = [defaultdict(lambda: defaultdict(float)) for _ in range(rounds)]
    for i, (name, start, end, parent, job, count) in enumerate(spans):
        t = totals[job[0]]
        own = end - start - child[i]
        f = t[name]
        f["s"] += end - start
        f["self"] += own
        f["calls"] += 1
        f["count"] += count
        f["max"] = max(f["max"], count)
        t[name.partition(".")[0]]["self"] += own
        if name == "rearrangement.fpt":
            f["exceeded"] += count != ANSWERED
            f["guard_rejects"] += count == GUARD_REJECT
        elif name == "tree.build" and _inside(spans, parent, "ops.replay"):
            t["ops.replay"]["builds"] += 1
    for t in totals:
        replay = t["ops.replay"]
        replay["builds_per_op"] = replay["builds"] / replay["count"] if replay["count"] else 0.0
    return totals


# metric -> (field, span or layer it is read from, other spans it needs)
LAYER_METRICS = {
    "tree.parse_s": ("s", "tree.parse"),
    "tree.parse_vertices": ("count", "tree.parse"),
    "tree.build_calls": ("calls", "tree.build"),
    "tree.build_vertices": ("count", "tree.build"),
    "ops.replay_s": ("s", "ops.replay"),
    "ops.replay_ops": ("count", "ops.replay"),
    "ops.trees_built_per_op": ("builds_per_op", "ops.replay", "tree.build"),
    "ops.parse_script_s": ("s", "ops.parse_script"),
    "ops.format_script_s": ("s", "ops.format_script"),
    "linkcut.distance_s": ("s", "linkcut.distance"),
    "linkcut.script_s": ("s", "linkcut.script"),
    "linkcut.moves": ("count", "linkcut.script"),
    "rearrangement.verify_s": ("s", "rearrangement.verify"),
    "permutation.table_s": ("self", "permutation.table"),
    "permutation.table_calls": ("calls", "permutation.table"),
    "permutation.table_cells": ("count", "permutation.table"),
    "matching.calls": ("calls", "matching.solve"),
    "matching.busy_s": ("s", "matching.solve"),
    "matching.rows_total": ("count", "matching.solve"),
    "matching.rows_max": ("max", "matching.solve"),
    "rearrangement.fpt_s": ("s", "rearrangement.fpt"),
    "rearrangement.fpt_calls": ("calls", "rearrangement.fpt"),
    "rearrangement.exceeded": ("exceeded", "rearrangement.fpt"),
    "rearrangement.guard_rejects": ("guard_rejects", "rearrangement.fpt"),
    "rearrangement.oracle_s": ("s", "rearrangement.oracle"),
    **{f"{layer}.self_s": ("self", layer) for layer in LAYERS},
}

_UNITS = {"s": "s", "self": "s", "builds_per_op": "ratio"}


def unit_of(metric):
    return _UNITS.get(LAYER_METRICS[metric][0], "count")


def layer_metrics(spans, rounds, missing):
    """Each layer metric as the median over rounds of its per-round value.

    Metrics built on a span that could not be wrapped are left out.
    """
    totals = _round_totals(spans, rounds)
    return {
        metric: statistics.median(t[source][field] for t in totals)
        for metric, (field, source, *needs) in LAYER_METRICS.items()
        if not missing.intersection([source, *needs])
    }
