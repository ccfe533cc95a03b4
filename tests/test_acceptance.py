"""Acceptance gate for the package.

Each test function checks one release criterion end to end, at its stated
tolerance and time budget, against values derived by hand or by the
independent oracles in conftest. Run with `pytest tests/test_acceptance.py -v`
to get one pass/fail line per criterion.
"""

from __future__ import annotations

import io
import json
import random
import statistics
import time
from contextlib import redirect_stderr, redirect_stdout

from procsem import (
    LABEL_ANOMALOUS,
    LABEL_VALID,
    ProcessModel,
    Relation,
    Split,
    Task,
    TaskRecord,
    TreeSyntaxError,
    dfg_of_model,
    edge_fitness,
    eventually_follows,
    expected_random_footprint_fitness,
    footprint_of_model,
    gen_asad,
    gen_sdfd,
    gen_snap,
    gen_sptd,
    gen_tsad,
    parse_tree,
    played_out,
    playout,
    random_classification_baseline,
    random_footprint,
    random_footprint_predictions,
    render_dfg_edges,
    render_tree,
    score_dataset,
    score_sdfd,
    score_sptd,
    split_corpus,
    synth_corpus,
    validate_corpus,
)
from procsem.cli import main

from conftest import (
    M1_TREE_TEXT,
    oracle_ef_pairs,
    oracle_language,
    random_tree,
)

V, A = LABEL_VALID, LABEL_ANOMALOUS


def test_c01_worked_example_exact_semantics():
    """An order-handling tree plays out, and derives, exactly by hand."""
    started = time.monotonic()
    tree = parse_tree(M1_TREE_TEXT)
    model = playout(tree, model_id="m1")

    assert model.sequences == frozenset(
        {
            ("receive order", "accept order", "deliver package"),
            ("receive order", "reject order"),
        }
    )

    dfg = dfg_of_model(model.tree)
    forward = {
        ("receive order", "accept order"),
        ("accept order", "deliver package"),
        ("receive order", "reject order"),
    }
    assert dfg.edges == frozenset(forward)

    fp = footprint_of_model(model)
    for x, y in forward:
        assert fp.relation(x, y) is Relation.FORWARD
        assert fp.relation(y, x) is Relation.BACKWARD
    non_none = sum(1 for rel in fp.relations.values() if rel is not Relation.NONE)
    assert non_none == 6  # three forward entries and their mirrors

    assert eventually_follows(tree) == frozenset(
        {
            ("receive order", "accept order"),
            ("receive order", "deliver package"),
            ("receive order", "reject order"),
            ("accept order", "deliver package"),
        }
    )
    assert time.monotonic() - started < 1.0


def test_c02_random_classification_baseline_near_half():
    """Uniform guessing on balanced 10,000-record binary sets: F1 = 0.50±0.02."""
    started = time.monotonic()
    for task in (Task.TSAD, Task.ASAD):
        records = []
        for i in range(10_000):
            extra = (
                {"trace": ("a", "b")} if task is Task.TSAD else {"pair": ("a", "b")}
            )
            records.append(
                TaskRecord(
                    record_id=f"m{i % 97:03d}:{task.value}:{i:05d}",
                    task=task,
                    model_id=f"m{i % 97:03d}",
                    activity_set=("a", "b"),
                    label=V if i % 2 == 0 else A,
                    **extra,
                )
            )
        assert len(records) >= 10_000
        predictions = dict(random_classification_baseline(records, seed=2))
        report = score_dataset(records, predictions)
        assert abs(report.value - 0.50) <= 0.02, (task, report.value)
    assert time.monotonic() - started < 10.0


def test_c03_random_footprint_baseline_matches_expectation():
    """Monte-Carlo mean fitness sits within 3 SE of the analytic value, and
    the corpus-level baseline lands in [0.28, 0.36] at median |A| of 4-5."""
    started = time.monotonic()

    activities = frozenset({"a", "b", "c", "d"})
    gold = frozenset({("a", "b"), ("b", "c"), ("c", "d")})
    expected = expected_random_footprint_fitness(len(activities))
    assert expected == 0.3125  # (0.25 * 12 + 0.5 * 4) / 16
    rng = random.Random(2026)
    draws = [
        edge_fitness(activities, gold, random_footprint(activities, rng).edges)
        for _ in range(100_000)
    ]
    mean = statistics.fmean(draws)
    se = statistics.stdev(draws) / len(draws) ** 0.5
    assert abs(mean - expected) <= 3 * se, (mean, expected, se)

    models = validate_corpus(synth_corpus(n_models=200, seed=5)).admitted
    med = statistics.median(len(m.activity_set) for m in models)
    assert 4 <= med <= 5
    analytic_mean = statistics.fmean(
        expected_random_footprint_fitness(len(m.activity_set)) for m in models
    )
    assert 0.28 <= analytic_mean <= 0.36
    records = [gen_sdfd(m) for m in models]
    report = score_dataset(records, dict(random_footprint_predictions(records, seed=5)))
    assert 0.28 <= report.value <= 0.36, report.value
    assert time.monotonic() - started < 30.0


def test_c04_trace_anomaly_soundness_and_rate():
    """Every label agrees with oracle language membership on a 220-model
    corpus, and with all traces of length >= 3 the anomalous fraction
    stays in [0.40, 0.50]."""
    started = time.monotonic()
    entries = synth_corpus(n_models=220, seed=13, min_activities=3, min_trace_len=3)
    report = validate_corpus(entries)
    assert len(report.admitted) >= 200

    n_records = n_anomalous = 0
    for model in report.admitted:
        language = oracle_language(model.tree)
        for record in gen_tsad(model, seed=1):
            n_records += 1
            assert len(record.trace) >= 3
            member = record.trace in language
            if record.label == A:
                n_anomalous += 1
                assert not member, record.record_id
            else:
                assert member, record.record_id
    fraction = n_anomalous / n_records
    assert 0.40 <= fraction <= 0.50, fraction
    assert time.monotonic() - started < 60.0


def test_c05_pair_anomaly_exactness():
    """Positive pairs equal the eventually-follows set exactly; negatives
    balance positives whenever the complement allows; the two never overlap.
    Exhaustive over models with at most six activities."""
    entries = list(synth_corpus(n_models=50, seed=19, max_activities=6)) + [
        # saturated case: every ordered pair eventually follows
        ProcessModel(model_id="sat", tree=parse_tree("*(->('y1', 'y2'), tau)"))
    ]
    admitted = validate_corpus(entries).admitted
    assert admitted and all(len(m.activity_set) <= 6 for m in admitted)

    saw_saturated = False
    for model in admitted:
        records = gen_asad(model, seed=1)
        positives = {r.pair for r in records if r.label == V}
        negatives = {r.pair for r in records if r.label == A}
        ef = oracle_ef_pairs(oracle_language(model.tree))
        assert positives == ef, model.model_id
        universe = {
            (x, y) for x in model.activity_set for y in model.activity_set
        }
        complement = universe - ef
        assert negatives <= complement
        assert not positives & negatives
        assert len(negatives) == min(len(ef), len(complement))
        if len(complement) >= len(ef):
            assert len(negatives) == len(positives)
        else:
            saw_saturated = True
    assert saw_saturated  # the hand model exercised the scarce-complement branch


def test_c06_next_activity_coverage_and_continuability():
    """Records are exactly the first occurrences of all (strict prefix, next)
    pairs, the pre-dedup pair count is the sum of |sequence| - 1, and every
    gold answer extends its prefix into the oracle language."""
    entries = list(synth_corpus(n_models=40, seed=23, max_activities=6)) + [
        # two sequences sharing their first step, to force deduplication
        ProcessModel(model_id="dup", tree=parse_tree("*(->('z1', 'z2'), 'z3')"))
    ]
    for model in validate_corpus(entries).admitted:
        language = oracle_language(model.tree)
        enumerated = [
            (s[:k], s[k])
            for s in sorted(q for q in language if q)
            for k in range(1, len(s))
        ]
        assert len(enumerated) == sum(len(s) - 1 for s in language if s)
        expected, seen = [], set()
        for item in enumerated:
            if item not in seen:
                seen.add(item)
                expected.append(item)
        records = gen_snap(model)
        assert [(r.prefix, r.next_activity) for r in records] == expected
        for record in records:
            extended = record.prefix + (record.next_activity,)
            assert any(
                s[: len(extended)] == extended for s in language
            ), record.record_id


def test_c07_split_leakage_and_stratum_balance():
    """No execution sequence crosses split boundaries in 20 seeded runs, and
    per activity-count stratum each split holds its target share of
    components to within one component."""
    hand = [
        ("h00", "->('a', 'b')"),
        ("h01", "X(->('a', 'b'), 'c')"),
        ("h02", "X(->('d', 'e'), tau)"),
        ("h03", "X(->('f', 'g'), tau)"),
        ("h04", "->('p', 'q', 'r')"),
        ("h05", "X(->('p', 'q', 'r'), ->('s', 't'))"),
    ]
    entries = list(synth_corpus(n_models=60, seed=21)) + [
        ProcessModel(model_id=mid, tree=parse_tree(text)) for mid, text in hand
    ]
    models = validate_corpus(entries).admitted
    assert len(models) == 66
    by_id = {m.model_id: m for m in models}

    for seed in range(20):
        assignment = split_corpus(models, seed=seed)
        pools = {split: set() for split in Split}
        for model_id, split in assignment.assignment.items():
            pools[split] |= played_out(by_id[model_id]).sequences
        assert not pools[Split.TRAIN] & (pools[Split.VALIDATION] | pools[Split.TEST])
        assert not pools[Split.VALIDATION] & pools[Split.TEST]
        # models built to share a sequence (including the empty one) co-locate
        assert assignment.assignment["h00"] is assignment.assignment["h01"]
        assert assignment.assignment["h02"] is assignment.assignment["h03"]
        assert assignment.assignment["h04"] is assignment.assignment["h05"]

        per_bin: dict[int, list[Split]] = {}
        for component, bin_index in zip(
            assignment.components, assignment.component_bins
        ):
            per_bin.setdefault(bin_index, []).append(
                assignment.assignment[component[0]]
            )
        for bin_index, splits in per_bin.items():
            for ratio, split in zip((0.70, 0.20, 0.10), Split):
                deviation = abs(splits.count(split) - ratio * len(splits))
                assert deviation <= 1.0 + 1e-9, (seed, bin_index, split.value)


def test_c08_fitness_identities():
    """Self-comparison scores 1.0 on every corpus gold, the two hand-derived
    partial-credit cases reproduce exactly, and scoring a predicted tree
    equals scoring its played-out edges on 500 random tree pairs."""
    for model in validate_corpus(synth_corpus(n_models=80, seed=29)).admitted:
        dfg_record = gen_sdfd(model)
        assert score_sdfd(dfg_record, render_dfg_edges(dfg_record.edges)).fitness == 1.0
        tree_record = gen_sptd(model)
        assert score_sptd(tree_record, tree_record.tree_text).fitness == 1.0

    gold_edges = TaskRecord(
        record_id="m:sdfd:00000",
        task=Task.SDFD,
        model_id="m",
        activity_set=("a", "b", "c"),
        edges=(("a", "b"), ("b", "c")),
    )
    assert score_sdfd(gold_edges, "'a' -> 'b'").fitness == 7 / 9

    gold_tree = TaskRecord(
        record_id="m:sptd:00000",
        task=Task.SPTD,
        model_id="m",
        activity_set=("a", "b", "c"),
        tree_text="->('a', 'b', 'c')",
    )
    assert score_sptd(gold_tree, "->(+('a', 'b'), 'c')").fitness == 5 / 9

    rng = random.Random(31)
    checked = 0
    while checked < 500:
        gold = random_tree(rng, max_leaves=8)
        pred = random_tree(rng, max_leaves=8)
        gold_model = playout(gold, model_id="g")
        if not gold_model.activity_set:
            continue
        activities = tuple(sorted(gold_model.activity_set))
        via_tree = score_sptd(
            TaskRecord(
                record_id="g:sptd:00000",
                task=Task.SPTD,
                model_id="g",
                activity_set=activities,
                tree_text=render_tree(gold),
            ),
            render_tree(pred),
        )
        via_edges = score_sdfd(
            TaskRecord(
                record_id="g:sdfd:00000",
                task=Task.SDFD,
                model_id="g",
                activity_set=activities,
                edges=tuple(sorted(dfg_of_model(gold_model.tree).edges)),
            ),
            render_dfg_edges(tuple(dfg_of_model(playout(pred, model_id="p").tree).edges)),
        )
        assert via_tree.fitness == via_edges.fitness
        checked += 1


def test_c09_parser_round_trip_and_fuzz():
    """Rendering then parsing reproduces 1,000 random trees of up to 21
    leaves; 100,000 random byte strings never crash the parser."""
    rng = random.Random(37)
    for _ in range(1_000):
        tree = random_tree(rng, max_leaves=21)
        assert parse_tree(render_tree(tree)) == tree

    fuzz = random.Random(41)
    outcomes = {"ok": 0, "syntax_error": 0}
    for _ in range(100_000):
        text = bytes(
            fuzz.randrange(256) for _ in range(fuzz.randint(0, 24))
        ).decode("latin-1")
        try:
            parse_tree(text)
            outcomes["ok"] += 1
        except TreeSyntaxError:
            outcomes["syntax_error"] += 1
    assert sum(outcomes.values()) == 100_000
    assert outcomes["syntax_error"] > 0


def test_c10_full_pipeline_runtime(tmp_path):
    """Synthesizing 1,000 models, generating all five datasets, splitting,
    producing both random baselines and scoring them completes well inside
    five minutes."""
    started = time.monotonic()

    def run(argv):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
        assert code == 0, (argv, err.getvalue())
        return json.loads(out.getvalue())

    corpus = str(tmp_path / "corpus.jsonl")
    data = str(tmp_path / "data")
    run(["synth", "--n-models", "1000", "--seed", "4", "--out", corpus])
    summary = run(["gen", corpus, "--out-dir", data, "--seed", "4"])
    counts = summary["records"]
    assert counts["sdfd"] == counts["sptd"] == 1000
    assert counts["tsad"] >= 100_000
    assert counts["asad"] > 0 and counts["snap"] > 0

    summary = run(["split", corpus, "--out", str(tmp_path / "split.jsonl"),
                   "--seed", "4"])
    assert sum(summary["sizes"].values()) == 1000

    class_preds = str(tmp_path / "preds_class.jsonl")
    run(["baseline", "--dataset", f"{data}/tsad.jsonl",
         "--kind", "random_class", "--out", class_preds, "--seed", "4"])
    summary = run(["score", "--dataset", f"{data}/tsad.jsonl",
                   "--predictions", class_preds])
    assert 0.42 <= summary["value"] <= 0.58, summary["value"]

    fp_preds = str(tmp_path / "preds_fp.jsonl")
    run(["baseline", "--dataset", f"{data}/sdfd.jsonl",
         "--kind", "random_footprint", "--out", fp_preds, "--seed", "4"])
    summary = run(["score", "--dataset", f"{data}/sdfd.jsonl",
                   "--predictions", fp_preds])
    assert 0.25 <= summary["value"] <= 0.40, summary["value"]

    assert time.monotonic() - started < 300.0
