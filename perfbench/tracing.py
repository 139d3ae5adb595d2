"""Spans and counters around each layer's public functions, installed from
outside the package.

A function is wrapped at every name it is bound to inside ``icmup``: the
CLI imports ``tokenize``, ``load_grammar`` and ``format_bits`` by name, so
wrapping only ``icmup.patterns.tokenize`` would record nothing.  A function
that a later version of the package removes or renames is reported as
absent (its metrics read 0) instead of stopping the run.

Spans (name, start, end, parent, op) live in compact arrays while the run
lasts and are written out when it ends.  A layer's self time is its span's
duration minus the time its child spans cover.
"""

from __future__ import annotations

import gzip
import math
import sys
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager


def _len_result(key):
    return lambda args, result: {key: len(result)}


def _kernel_work(args, result):
    return {"kernels.cells": len(args[0]) * len(args[1]), "kernels.pairs": len(result)}


def _zero_hits(args, result):
    return {"alignment.extend_columns.zero_hits": int(result[1] == 0)}


# layer -> (home module, functions, counters taken from arguments and result)
SPANS = {
    "cli.main": ("icmup.cli", ("main",), None),
    "patterns.tokenize": ("icmup.patterns", ("tokenize",),
                          _len_result("patterns.tokenize.symbols")),
    "patterns.parse_grammar": ("icmup.patterns", ("parse_grammar",),
                               _len_result("patterns.parse_grammar.patterns")),
    "codecs.rle_encode": ("icmup.codecs", ("rle_encode",),
                          _len_result("codecs.rle_encode.runs")),
    "codecs.discover_chunks": ("icmup.codecs", ("discover_chunks",),
                               _len_result("codecs.discover_chunks.chunks")),
    "codecs.chunk_encode": ("icmup.codecs", ("chunk_encode",), None),
    "codecs.decode": ("icmup.codecs", ("chunk_decode", "rle_decode"), None),
    "codecs.serialize": ("icmup.codecs", ("stream_to_json", "stream_from_json",
                                          "runs_to_json", "runs_from_json"), None),
    "kernels.match_pairs": ("icmup.kernels", ("match_pairs",), _kernel_work),
    "kernels.intern_ids": ("icmup.kernels", ("intern_ids",), None),
    "alignment.build_alignments": ("icmup.alignment", ("build_alignments",), None),
    "alignment.extend_columns": ("icmup.alignment", ("_extend_columns",), _zero_hits),
    "alignment.retrieve": ("icmup.alignment", ("retrieve",), None),
    "alignment.render": ("icmup.alignment", ("dump_columns", "parse_render"), None),
    "reporting.format_bits": ("icmup.reporting", ("format_bits",), None),
}

# Counted but not timed as spans: their time stays in the caller's self
# time (signatures are part of beam ranking; align_pair's work is in its
# extend_columns and kernel children).
COUNTED = {
    "alignment.signature": ("icmup.alignment", ("_signature",)),
    "alignment.align_pair": ("icmup.alignment", ("align_pair",)),
}

CURVE_LAYERS = ("codecs.rle_encode", "codecs.discover_chunks", "codecs.chunk_encode")


class Tracer:
    """Installs wrappers for the duration of one op and keeps what they
    record.  Create one after ``icmup`` is imported."""

    def __init__(self):
        self.names: list[str] = list(SPANS)
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.name = array("q")
        self.op = array("q")
        self.stack: list[int] = []
        self.current_op = -1
        self.counts: dict[tuple[int, str], float] = defaultdict(float)
        self.absent: set[str] = set()
        self.bindings: list[tuple[object, str, object, object]] = []
        for layer, (home, funcs, counter) in SPANS.items():
            self._bind(layer, home, funcs, counter, span=True)
        for layer, (home, funcs) in COUNTED.items():
            self._bind(layer, home, funcs, None, span=False)

    def _bind(self, layer, home, funcs, counter, span):
        modules = [m for name, m in list(sys.modules.items())
                   if name == "icmup" or name.startswith("icmup.")]
        found = 0
        for func in funcs:
            original = getattr(sys.modules.get(home), func, None)
            if not callable(original):
                continue
            found += 1
            wrapper = (self._span_wrapper(layer, original, counter) if span
                       else self._count_wrapper(layer, original))
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self.bindings.append((module, attr, original, wrapper))
        if not found:
            self.absent.add(layer)

    def _span_wrapper(self, layer, fn, counter):
        name_id = self.names.index(layer)
        start, end, parent, names, ops, stack = (self.start, self.end, self.parent,
                                                 self.name, self.op, self.stack)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(start)
            parent.append(stack[-1] if stack else -1)
            names.append(name_id)
            ops.append(self.current_op)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if counter is not None:
                self._add_counts(layer, counter, args, result)
            return result

        return wrapper

    def _count_wrapper(self, layer, fn):
        counts = self.counts
        key = f"{layer}.calls"

        def wrapper(*args, **kwargs):
            counts[(self.current_op, key)] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _add_counts(self, layer, counter, args, result):
        try:
            values = counter(args, result)
        except (TypeError, ValueError, IndexError, KeyError):
            self.absent.add(f"{layer} counters")
            return
        for key, value in values.items():
            self.counts[(self.current_op, key)] += value

    @contextmanager
    def recording(self, op_id: int):
        """Install every wrapper while one op runs, then restore the
        original functions."""
        self.current_op = op_id
        for module, attr, _, wrapper in self.bindings:
            setattr(module, attr, wrapper)
        try:
            yield
        finally:
            for module, attr, original, _ in self.bindings:
                setattr(module, attr, original)
            # an op cut off by its time cap can leave spans open
            self.stack.clear()
            self.current_op = -1

    def per_op(self) -> dict[int, dict[str, float]]:
        """Per op: ``<layer>.calls``, ``.s`` (inclusive), ``.self_s`` and the
        counters."""
        cover = [0.0] * len(self.start)
        for i in range(len(self.start)):
            p = self.parent[i]
            if p >= 0:
                cover[p] += self.end[i] - self.start[i]
        out: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for i in range(len(self.start)):
            row = out[self.op[i]]
            layer = self.names[self.name[i]]
            dur = self.end[i] - self.start[i]
            row[f"{layer}.calls"] += 1
            row[f"{layer}.s"] += dur
            row[f"{layer}.self_s"] += dur - cover[i]
        for (op, key), value in self.counts.items():
            out[op][key] += value
        return out

    def write_spans(self, path) -> None:
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("op\tname\tstart\tend\tparent\n")
            for i in range(len(self.start)):
                fh.write(f"{self.op[i]}\t{self.names[self.name[i]]}\t"
                         f"{self.start[i]:.7f}\t{self.end[i]:.7f}\t{self.parent[i]}\n")


def growth_exponent(points: list[tuple[int, float]]) -> float:
    """Least-squares slope of log(time) against log(symbols); 0 when there
    are not two distinct sizes with positive times."""
    pts = [(math.log(n), math.log(t)) for n, t in points if n > 0 and t > 0]
    if len({x for x, _ in pts}) < 2:
        return 0.0
    mx = sum(x for x, _ in pts) / len(pts)
    my = sum(y for _, y in pts) / len(pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    return sum((x - mx) * (y - my) for x, y in pts) / sxx


# per-layer metric -> (unit, better); every one is reported on every workload
METRICS = {
    "codecs.rle_encode.s": ("s/op", "lower"),
    "codecs.rle_encode.runs": ("count/op", "lower"),
    "codecs.rle_encode.growth_exp": ("slope", "lower"),
    "codecs.discover_chunks.s": ("s/op", "lower"),
    "codecs.discover_chunks.chunks": ("count/op", "higher"),
    "codecs.discover_chunks.growth_exp": ("slope", "lower"),
    "codecs.chunk_encode.s": ("s/op", "lower"),
    "codecs.chunk_encode.growth_exp": ("slope", "lower"),
    "codecs.decode.s": ("s/op", "lower"),
    "codecs.serialize.s": ("s/op", "lower"),
    "kernels.match_pairs.calls": ("calls/op", "lower"),
    "kernels.match_pairs.s": ("s/op", "lower"),
    "kernels.cells": ("cells/op", "lower"),
    "kernels.ns_per_cell": ("ns", "lower"),
    "kernels.pairs": ("count/op", "higher"),
    "kernels.intern_ids.s": ("s/op", "lower"),
    "alignment.build_alignments.s": ("s/op", "lower"),
    "alignment.build_alignments.self_s": ("s/op", "lower"),
    "alignment.extend_columns.calls": ("calls/op", "lower"),
    "alignment.extend_columns.self_s": ("s/op", "lower"),
    "alignment.extend_columns.zero_hit_frac": ("frac", "lower"),
    "alignment.signature.calls": ("calls/op", "lower"),
    "alignment.retrieve.s": ("s/op", "lower"),
    "alignment.align_pair.calls": ("calls/op", "lower"),
    "alignment.render.s": ("s/op", "lower"),
    "patterns.parse_grammar.s": ("s/op", "lower"),
    "patterns.parse_grammar.patterns": ("count/op", "higher"),
    "patterns.tokenize.s": ("s/op", "lower"),
    "patterns.tokenize.symbols": ("count/op", "higher"),
    "cli.main.calls": ("calls/op", "lower"),
    "cli.main.self_s": ("s/op", "lower"),
    "reporting.format_bits.calls": ("calls/op", "lower"),
    "reporting.format_bits.s": ("s/op", "lower"),
    "trace.overhead_frac": ("frac", "lower"),
}


def layer_metrics(rows: dict[int, dict[str, float]], sizes: dict[int, int],
                  overhead: float) -> tuple[dict[str, float], list[list[float]]]:
    """Per-layer metrics averaged over the traced ops, and the size-curve
    rows (symbols, then self seconds of each codec layer) per op."""
    n_ops = max(len(sizes), 1)
    total: dict[str, float] = defaultdict(float)
    for op in sizes:
        for key, value in rows.get(op, {}).items():
            total[key] += value
    values = {}
    for name in METRICS:
        values[name] = total[name] / n_ops
    cells = total["kernels.cells"]
    values["kernels.ns_per_cell"] = (total["kernels.match_pairs.s"] / cells * 1e9
                                     if cells else 0.0)
    calls = total["alignment.extend_columns.calls"]
    values["alignment.extend_columns.zero_hit_frac"] = (
        total["alignment.extend_columns.zero_hits"] / calls if calls else 0.0)
    curve = [[sizes[op]] + [rows.get(op, {}).get(f"{layer}.self_s", 0.0)
                            for layer in CURVE_LAYERS]
             for op in sorted(sizes)]
    for k, layer in enumerate(CURVE_LAYERS, start=1):
        values[f"{layer}.growth_exp"] = growth_exponent([(r[0], r[k]) for r in curve])
    values["trace.overhead_frac"] = overhead
    return values, curve
