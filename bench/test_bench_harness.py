"""Tests for the benchmark harness's own arithmetic and span wrappers."""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import procsem
import procsem.cli
from procsem import parse_tree

import spans
from spans import Tracer, install, layer_metrics, restore, self_times, tail_percentile
from workloads import WORKLOADS

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


class TestSelfTimes:
    def test_leaf_span_keeps_its_duration(self):
        assert self_times([["a", -1, 1.0, 4.0]]) == [3.0]

    def test_nested_children_are_subtracted_once(self):
        spans_ = [
            ["root", -1, 0.0, 10.0],
            ["child", 0, 1.0, 4.0],
            ["grandchild", 1, 2.0, 3.0],
            ["child", 0, 5.0, 6.0],
        ]
        assert self_times(spans_) == [6.0, 2.0, 1.0, 1.0]

    def test_overlapping_children_count_their_union(self):
        spans_ = [
            ["root", -1, 0.0, 10.0],
            ["a", 0, 1.0, 5.0],
            ["b", 0, 3.0, 7.0],
            ["c", 0, 4.0, 6.0],
        ]
        assert self_times(spans_)[0] == pytest.approx(10.0 - 6.0)

    def test_children_are_clipped_to_the_parent(self):
        spans_ = [["root", -1, 2.0, 6.0], ["late", 0, 5.0, 9.0], ["early", 0, 0.0, 3.0]]
        assert self_times(spans_)[0] == pytest.approx(4.0 - 1.0 - 1.0)


class TestTailPercentile:
    @pytest.mark.parametrize(
        "n, expected",
        [
            (19, None),
            (20, Fraction(50)),
            (99, Fraction(50)),
            (100, Fraction(90)),
            (999, Fraction(90)),
            (1000, Fraction(99)),
            (10_000, Fraction("99.9")),
        ],
    )
    def test_highest_percentile_with_ten_samples_beyond(self, n, expected):
        assert tail_percentile(n) == expected

    def test_samples_beyond_the_chosen_rank(self):
        values = list(range(1, 1001))
        p = tail_percentile(len(values))
        cut = spans.percentile(values, p)
        assert sum(1 for v in values if v > cut) >= 10
        assert sum(1 for v in values if v > spans.percentile(values, Fraction("99.9"))) < 10


def _procsem_bindings() -> dict[tuple[str, str], object]:
    return {
        (name, attr): value
        for name, module in sys.modules.items()
        if module is not None and (name == "procsem" or name.startswith("procsem."))
        for attr, value in vars(module).items()
    }


class TestInstallRestore:
    def test_restore_leaves_every_attribute_identical(self):
        before = _procsem_bindings()
        patches = install(Tracer())
        try:
            assert procsem.playout is not before[("procsem", "playout")]
            assert procsem.taskgen.playout is procsem.semantics.playout
            assert procsem.cli.read_dataset is procsem.fileio.read_dataset
        finally:
            restore(patches)
        after = _procsem_bindings()
        assert after.keys() == before.keys()
        assert all(after[k] is before[k] for k in before)

    def test_every_binding_of_a_function_is_wrapped(self):
        original = procsem.semantics.playout
        bound_to = {k for k, v in _procsem_bindings().items() if v is original}
        assert len(bound_to) > 2
        patches = install(Tracer())
        try:
            assert {(m.__name__, a) for m, a, _ in patches} >= bound_to
            assert all(v is not original for v in _procsem_bindings().values())
        finally:
            restore(patches)

    def test_spans_nest_through_module_globals(self):
        tracer = Tracer()
        patches = install(tracer)
        try:
            model = procsem.semantics.playout(parse_tree("->('a', +('b', 'c'))"))
            procsem.semantics.footprint_of_model(model)
        finally:
            restore(patches)
        keys = [(key, parent) for key, parent, _, _ in tracer.spans]
        assert keys == [
            ("semantics.playout", -1),
            ("semantics.language", 0),
            ("semantics.dfg_of_model", -1),
            ("semantics.footprint", -1),
        ]
        assert tracer.counts["semantics.language.seqs_out"] == 2


def test_language_overflow_is_counted_and_reraised():
    tracer = Tracer()
    patches = install(tracer)
    try:
        with pytest.raises(procsem.LanguageTooLargeError):
            procsem.semantics.language(parse_tree("+('a', 'b', 'c')"), 2)
    finally:
        restore(patches)
    assert tracer.counts["semantics.language.too_large"] == 1
    assert tracer.spans[0][3] >= tracer.spans[0][2]


def _traced_cli(argv: list[str]) -> dict:
    tracer = Tracer()
    patches = install(tracer)
    try:
        code = tracer.wrap(spans.ROOT_KEY, procsem.cli.main)(argv)
    finally:
        restore(patches)
    assert code == 0
    return json.loads(json.dumps({"spans": tracer.spans, "counts": tracer.counts}))


def test_benchmark_names_every_metric_the_harness_makes(tmp_path, capsys):
    """Each per-layer name in BENCHMARK.json is produced by some workload."""
    d = str(tmp_path)
    corpus = f"{d}/c.jsonl"
    steps = [
        ["synth", "--n-models", "40", "--seed", "3", "--max-sequences", "64", "--out", corpus],
        ["validate", corpus, "--out", f"{d}/a.jsonl"],
        ["playout", corpus, "--out", f"{d}/s.jsonl"],
        ["gen", corpus, "--out-dir", d, "--seed", "3"],
        ["split", corpus, "--out", f"{d}/split.jsonl", "--seed", "3"],
        ["prompts", "--dataset", f"{d}/tsad.jsonl", "--split", f"{d}/split.jsonl",
         "--out", f"{d}/icl.jsonl"],
        ["prompts", "--dataset", f"{d}/sdfd.jsonl", "--split", f"{d}/split.jsonl",
         "--mode", "ft", "--query-split", "train", "--out", f"{d}/ft.jsonl"],
        ["baseline", "--dataset", f"{d}/tsad.jsonl", "--kind", "random_class",
         "--out", f"{d}/p.tsad.jsonl"],
        ["baseline", "--dataset", f"{d}/sdfd.jsonl", "--kind", "random_footprint",
         "--out", f"{d}/p.sdfd.jsonl"],
        ["score", "--dataset", f"{d}/sdfd.jsonl", "--predictions", f"{d}/p.sdfd.jsonl"],
        ["score", "--dataset", f"{d}/sptd.jsonl", "--predictions", f"{d}/p.sptd.jsonl"],
    ]
    traces = [_traced_cli(argv) for argv in steps[:-1]]
    with open(f"{d}/sptd.jsonl", encoding="utf-8") as src, open(
        f"{d}/p.sptd.jsonl", "w", encoding="utf-8"
    ) as dst:
        for row in map(json.loads, src):
            dst.write(json.dumps({"record_id": row["record_id"], "prediction": row["tree_text"]}) + "\n")
    traces.append(_traced_cli(steps[-1]))
    capsys.readouterr()
    made = set(layer_metrics(traces)) | {"trace_overhead_s"}
    for factory in WORKLOADS.values():
        workload = factory(1)
        for stage in workload.timed:
            made.add(f"cli.{stage.name}.wall_s")
            made.add(f"cli.{stage.name.split('.')[0]}.rss_mib")
    names = [m["name"] for m in json.loads(BENCHMARK_JSON.read_text("utf-8"))["per_layer"]]
    assert len(names) == len(set(names))
    assert sorted(set(names) - made) == []
