"""Spans around calls into procsem's public functions, and their arithmetic.

A `Tracer` wraps selected module-level functions from outside the package:
every binding of the original function object in every ``procsem.*`` module
is replaced by one wrapper (``from .semantics import playout`` creates such
extra bindings), and `restore` puts every original back. Spans and counters
stay in memory until the caller writes them out.

A span is ``[key, parent, start, end]`` with ``key`` ``"<layer>.<function>"``
and ``parent`` the index of the enclosing span (-1 at the root).
"""

from __future__ import annotations

import functools
import math
import os
import sys
import time
from collections import Counter
from fractions import Fraction
from typing import Any, Callable

# Functions wrapped in the traced run, by procsem module. `core` has no entry
# point worth timing; its cost lands in its callers' self time.
TRACED_FUNCTIONS: dict[str, tuple[str, ...]] = {
    "synth": ("synth_corpus",),
    "tree_dsl": ("parse_tree", "render_tree", "parse_dfg_edges"),
    "semantics": (
        "language",
        "playout",
        "eventually_follows",
        "dfg_of_model",
        "footprint",
    ),
    "taskgen": (
        "validate_corpus",
        "gen_tsad",
        "gen_asad",
        "gen_snap",
        "gen_sdfd",
        "gen_sptd",
        "split_corpus",
    ),
    "promptgen": ("render_icl", "render_ft"),
    "evaluation": (
        "score_dataset",
        "score_sdfd",
        "score_sptd",
        "random_classification_baseline",
        "random_footprint_predictions",
    ),
    "fileio": (
        "read_corpus",
        "read_dataset",
        "write_dataset",
        "write_sequences",
        "write_icl_prompts",
        "write_ft_examples",
        "read_predictions",
        "write_predictions",
    ),
}

ROOT_KEY = "cli.main"

Span = list  # [key, parent, start, end]


def _count_result(tracer: "Tracer", key: str, args: tuple, kwargs: dict, result: Any) -> None:
    """Counters taken at the layer boundary, from arguments and results."""
    counts = tracer.counts
    if key == "semantics.language":
        counts["semantics.language.seqs_out"] += len(result)
    elif key == "synth.synth_corpus":
        counts["synth.kept"] += len(result)
    elif key.startswith("taskgen.gen_"):
        counts["taskgen.records_out"] += len(result) if isinstance(result, list) else 1
    elif key == "fileio.read_dataset":
        counts["fileio.read_dataset.records"] += len(result)
    elif key in ("fileio.write_dataset", "fileio.write_sequences"):
        counts[f"{key}.bytes"] += os.path.getsize(args[0] if args else kwargs["path"])
    elif key == "evaluation.score_dataset":
        counts["evaluation.parse_failures"] += result.n_parse_failures


class Tracer:
    """In-memory span recorder for one stage invocation."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter[str] = Counter()
        self._stack: list[int] = []

    def wrap(self, key: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            parent = self._stack[-1] if self._stack else -1
            index = len(self.spans)
            span = [key, parent, time.perf_counter(), 0.0]
            self.spans.append(span)
            self._stack.append(index)
            if key == "semantics.language" and parent >= 0:
                if self.spans[parent][0] == "synth.synth_corpus":
                    self.counts["synth.language_attempts"] += 1
            try:
                result = fn(*args, **kwargs)
            except ValueError as exc:
                if key == "semantics.language" and isinstance(
                    exc, sys.modules["procsem.semantics"].LanguageTooLargeError
                ):
                    self.counts["semantics.language.too_large"] += 1
                raise
            finally:
                span[3] = time.perf_counter()
                self._stack.pop()
            _count_result(self, key, args, kwargs, result)
            return result

        return traced


Patch = tuple[Any, str, Any]  # (module, attribute, original value)


def _procsem_modules() -> list[Any]:
    return [
        module
        for name, module in sorted(sys.modules.items())
        if module is not None and (name == "procsem" or name.startswith("procsem."))
    ]


def install(tracer: Tracer) -> list[Patch]:
    """Replace every procsem binding of each traced function by its wrapper.

    The listed modules must already be imported. Returns the patches that
    `restore` undoes.
    """
    wrappers: dict[int, tuple[Callable, Callable]] = {}
    for layer, names in TRACED_FUNCTIONS.items():
        module = sys.modules[f"procsem.{layer}"]
        for name in names:
            original = getattr(module, name)
            wrappers[id(original)] = (original, tracer.wrap(f"{layer}.{name}", original))
    patches: list[Patch] = []
    for module in _procsem_modules():
        for attr, value in list(vars(module).items()):
            entry = wrappers.get(id(value))
            if entry is not None and value is entry[0]:
                wrapper = entry[1]
                patches.append((module, attr, value))
                setattr(module, attr, wrapper)
    return patches


def restore(patches: list[Patch]) -> None:
    for module, attr, original in reversed(patches):
        setattr(module, attr, original)


# ---------------------------------------------------------------------------
# Arithmetic over recorded spans


def _covered(intervals: list[tuple[float, float]], low: float, high: float) -> float:
    """Length of the union of intervals, clipped to [low, high]."""
    total = 0.0
    cursor = low
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, high)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for _, parent, start, end in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    return [
        (end - start) - _covered(children.get(i, []), start, end)
        for i, (_, _, start, end) in enumerate(spans)
    ]


_PERCENTILE_LADDER = tuple(
    Fraction(p) for p in ("50", "90", "99", "99.9", "99.99", "99.999")
)


def tail_percentile(n: int, beyond: int = 10) -> Fraction | None:
    """Highest ladder percentile with at least `beyond` samples above it.

    With nearest-rank percentiles, percentile p of n samples is sample
    ceil(p * n / 100) in sorted order, so n - ceil(p * n / 100) lie beyond it.
    """
    best = None
    for p in _PERCENTILE_LADDER:
        if n - math.ceil(p * n / 100) >= beyond:
            best = p
    return best


def percentile(sorted_values: list[float], p: Fraction) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(p * len(sorted_values) / 100))
    return sorted_values[rank - 1]


def layer_metrics(traces: list[dict[str, Any]]) -> dict[str, float]:
    """Per-layer metrics over the traces of one pass (one file per stage).

    Every traced function gets ``<key>.calls`` and ``<key>.self_s``; counters
    pass through under their own names; `render_icl` adds per-query
    latencies, with the tail percentile and its sample count stated.
    """
    metrics: Counter[str] = Counter()
    icl_ms: list[float] = []
    for trace in traces:
        spans = trace["spans"]
        for (key, _, start, end), own in zip(spans, self_times(spans)):
            metrics[f"{key}.calls"] += 1
            metrics[f"{key}.self_s"] += own
            if key == "promptgen.render_icl":
                icl_ms.append((end - start) * 1000.0)
        metrics.update(trace["counts"])
    attempts = metrics.pop("synth.language_attempts", 0)
    kept = metrics.pop("synth.kept", 0)
    metrics["synth.accept_ratio"] = kept / attempts if attempts else 0.0
    icl_ms.sort()
    metrics["promptgen.render_icl.samples"] = len(icl_ms)
    if icl_ms:
        metrics["promptgen.render_icl.p50_ms"] = percentile(icl_ms, Fraction(50))
    tail = tail_percentile(len(icl_ms))
    if tail is not None:
        metrics["promptgen.render_icl.ptail_pct"] = float(tail)
        metrics["promptgen.render_icl.ptail_ms"] = percentile(icl_ms, tail)
    return dict(metrics)
