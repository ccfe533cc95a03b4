from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from procsem import (
    Dfg,
    LABEL_ANOMALOUS,
    LABEL_VALID,
    MatchingMode,
    Prediction,
    Relation,
    Task,
    TaskRecord,
    dfg_of_model,
    expected_random_footprint_fitness,
    footprint,
    footprint_fitness,
    footprint_to_dfg,
    gen_sdfd,
    gen_snap,
    gen_sptd,
    macro_f1,
    parse_binary_label,
    playout,
    random_classification_baseline,
    random_footprint,
    random_footprint_predictions,
    render_dfg_edges,
    render_tree,
    score_dataset,
    score_sdfd,
    score_sptd,
    synth_corpus,
    validate_corpus,
)
from procsem.evaluation import (
    LengthMismatchError,
    UnknownRecordError,
    fold_label,
    per_class_f1,
)

from conftest import oracle_per_class_f1, tree_strategy

V, A = LABEL_VALID, LABEL_ANOMALOUS


def sdfd_record(edges, activities, record_id="m:sdfd:00000"):
    return TaskRecord(
        record_id=record_id,
        task=Task.SDFD,
        model_id="m",
        activity_set=tuple(sorted(activities)),
        edges=tuple(sorted(edges)),
    )


def sptd_record(tree_text, activities, record_id="m:sptd:00000"):
    return TaskRecord(
        record_id=record_id,
        task=Task.SPTD,
        model_id="m",
        activity_set=tuple(sorted(activities)),
        tree_text=tree_text,
    )


class TestParseBinaryLabel:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("Valid", V),
            ("valid", V),
            ("false", V),
            ("  FALSE \n", V),
            ("Anomalous", A),
            ("true", A),
            ("True", A),
            ("maybe", None),
            ("", None),
            ("true.", None),
        ],
    )
    def test_aliases(self, text, expected):
        assert parse_binary_label(text) == expected


class TestMacroF1:
    def test_perfect(self):
        assert macro_f1([V, A, V, A], [V, A, V, A]) == 1.0

    def test_total_inversion(self):
        assert macro_f1([V, A], [A, V]) == 0.0

    def test_hand_computed_confusion(self):
        # class V: P=1, R=1/2, F1=2/3; class A: P=2/3, R=1, F1=4/5
        got = macro_f1([V, V, A, A], [V, A, A, A])
        assert got == pytest.approx(11 / 15, abs=1e-12)

    def test_zero_denominator_convention(self):
        scores = per_class_f1([V, V], [A, A], [V, A])
        assert scores[V] == 0.0  # no true positives, P+R = 0

    def test_none_predictions_hurt_recall_only(self):
        scores = per_class_f1([V, A], [None, A], [V, A])
        assert scores[V] == 0.0
        assert scores[A] == 1.0

    def test_unseen_predicted_class_drags_mean(self):
        got = macro_f1(["x", "x"], ["x", "y"])
        # class x: P=1, R=1/2, F1=2/3; class y: hallucinated, F1=0
        assert got == pytest.approx((2 / 3) / 2, abs=1e-12)

    def test_explicit_universe(self):
        assert macro_f1([V, V], [V, V], [V, A]) == 0.5

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            macro_f1([V], [V, A])

    def test_relabeling_invariance(self):
        rng = random.Random(5)
        golds = [rng.choice("pq") for _ in range(60)]
        preds = [rng.choice("pq") for _ in range(60)]
        mapping = {"p": "yes", "q": "no"}
        assert macro_f1(golds, preds) == pytest.approx(
            macro_f1([mapping[g] for g in golds], [mapping[p] for p in preds])
        )

    @settings(max_examples=300, deadline=None)
    @given(
        pairs=st.lists(
            st.tuples(st.sampled_from("abcd"), st.none() | st.sampled_from("abcde"))
        ),
        universe=st.none() | st.lists(st.sampled_from("abcdef"), unique=True),
    )
    def test_one_pass_counts_match_three_count_oracle(self, pairs, universe):
        # Explicit universes may name classes absent from both sides ("f")
        # and leave out predicted ones ("e").
        golds = [g for g, _ in pairs]
        preds = [p for _, p in pairs]
        got = per_class_f1(golds, preds, universe)
        assert list(got.items()) == list(
            oracle_per_class_f1(golds, preds, universe).items()
        )


class TestFootprintFitness:
    def test_identity(self):
        fp = footprint(
            Dfg(activities=frozenset("ab"), edges=frozenset({("a", "b")}))
        )
        assert footprint_fitness(fp, fp) == 1.0

    def test_hand_derived_seven_ninths(self):
        activities = frozenset("abc")
        gold = footprint(
            Dfg(activities=activities, edges=frozenset({("a", "b"), ("b", "c")}))
        )
        pred = footprint(Dfg(activities=activities, edges=frozenset({("a", "b")})))
        assert footprint_fitness(gold, pred) == 7 / 9

    def test_zero_edges_both_sides(self):
        activities = frozenset("abc")
        empty = footprint(Dfg(activities=activities, edges=frozenset()))
        assert footprint_fitness(empty, empty) == 1.0

    def test_symmetry_same_activity_set(self):
        activities = frozenset("abcd")
        rng = random.Random(0)
        for _ in range(20):
            left = random_footprint(activities, rng)
            right = random_footprint(activities, rng)
            assert footprint_fitness(left, right) == footprint_fitness(right, left)

    def test_diagonal_flag(self):
        activities = frozenset("ab")
        gold = footprint(Dfg(activities=activities, edges=frozenset({("a", "a")})))
        pred = footprint(Dfg(activities=activities, edges=frozenset()))
        # diagonal (a,a) disagrees: 3/4 with it, 2/2 without
        assert footprint_fitness(gold, pred) == 3 / 4
        assert footprint_fitness(gold, pred, include_diagonal=False) == 1.0


class TestScoreSdfd:
    def test_self_prediction_scores_one(self):
        record = sdfd_record({("a", "b"), ("b", "c")}, "abc")
        assert score_sdfd(record, render_dfg_edges(record.edges)).fitness == 1.0

    def test_hand_derived_seven_ninths(self):
        record = sdfd_record({("a", "b"), ("b", "c")}, "abc")
        assert score_sdfd(record, "'a' -> 'b'").fitness == 7 / 9

    def test_empty_prediction_vs_edgeless_gold(self):
        record = sdfd_record(set(), "ab")
        result = score_sdfd(record, "")
        assert result.fitness == 1.0
        assert not result.parse_failure

    def test_garbage_is_parse_failure(self):
        record = sdfd_record({("a", "b")}, "ab")
        result = score_sdfd(record, "no edges here")
        assert result.fitness == 0.0
        assert result.parse_failure

    def test_lenient_extraction_with_skipped_lines(self):
        record = sdfd_record({("a", "b")}, "ab")
        result = score_sdfd(record, "The pairs are:\n'a' -> 'b'\nthe end")
        assert result.fitness == 1.0
        assert result.skipped_lines == 2

    def test_hallucinated_activities_dropped_and_tallied(self):
        record = sdfd_record({("a", "b")}, "ab")
        result = score_sdfd(record, "'a' -> 'b'\n'a' -> 'ghost'")
        assert result.fitness == 1.0
        assert result.hallucinated == ("ghost",)

    def test_case_insensitive_default(self):
        record = sdfd_record({("pay order", "ship item")}, {"pay order", "ship item"})
        result = score_sdfd(record, "'Pay  Order' -> 'SHIP ITEM'")
        assert result.fitness == 1.0
        assert result.hallucinated == ()

    def test_case_sensitive_mode(self):
        record = sdfd_record({("a", "b")}, "ab")
        result = score_sdfd(record, "'A' -> 'b'", mode=MatchingMode.CASE_SENSITIVE)
        assert result.hallucinated == ("A",)
        # the lone edge is dropped, leaving only the two diagonal matches
        assert result.fitness == 2 / 4
        assert not result.parse_failure


class TestScoreSptd:
    def test_self_prediction_scores_one(self):
        record = sptd_record("->('a', X('b', 'c'))", "abc")
        assert score_sptd(record, record.tree_text).fitness == 1.0

    def test_hand_derived_five_ninths(self):
        record = sptd_record("->('a', 'b', 'c')", "abc")
        result = score_sptd(record, "->(+('a', 'b'), 'c')")
        assert result.fitness == 5 / 9

    def test_malformed_tree_is_parse_failure(self):
        record = sptd_record("->('a', 'b')", "ab")
        result = score_sptd(record, "->('a',")
        assert result.fitness == 0.0
        assert result.parse_failure

    def test_oversized_prediction_is_parse_failure(self):
        record = sptd_record("->('a', 'b')", "ab")
        huge = "+(" + ", ".join(f"'x{i}'" for i in range(12)) + ")"
        result = score_sptd(record, huge, max_sequences=1000)
        assert result.fitness == 0.0
        assert result.parse_failure

    def test_behaviorally_equal_trees_score_one(self):
        record = sptd_record("->('a', 'b')", "ab")
        assert score_sptd(record, "->('a', ->('b'))").fitness == 1.0

    @given(tree_strategy(max_leaves=6), tree_strategy(max_leaves=6))
    @settings(max_examples=80, deadline=None)
    def test_composition_identity(self, gold_tree, pred_tree):
        # scoring a tree equals scoring its played-out edge lines
        gold_model = playout(gold_tree, model_id="g")
        if not gold_model.activity_set:
            return
        gold_sptd = sptd_record(render_tree(gold_tree), gold_model.activity_set)
        gold_sdfd = sdfd_record(
            dfg_of_model(gold_model).edges, gold_model.activity_set
        )
        pred_model = playout(pred_tree, model_id="p")
        pred_edge_text = render_dfg_edges(tuple(dfg_of_model(pred_model).edges))
        via_tree = score_sptd(gold_sptd, render_tree(pred_tree))
        via_edges = score_sdfd(gold_sdfd, pred_edge_text)
        assert not via_tree.parse_failure
        assert not via_edges.parse_failure
        assert via_tree.fitness == via_edges.fitness


@pytest.fixture(scope="module")
def snap_records():
    entries = synth_corpus(n_models=10, seed=17, min_activities=3)
    report = validate_corpus(entries)
    records = []
    for admitted in report.admitted:
        records.extend(gen_snap(admitted.model))
    return records


class TestScoreDataset:
    def test_self_predictions_score_one_snap(self, snap_records):
        predictions = [
            Prediction(r.record_id, r.next_activity) for r in snap_records
        ]
        report = score_dataset(snap_records, predictions)
        assert report.value == 1.0
        assert report.metric_name == "macro_f1"
        assert report.n_parse_failures == 0

    def test_missing_predictions_counted(self, snap_records):
        predictions = [
            Prediction(r.record_id, r.next_activity) for r in snap_records[:-3]
        ]
        report = score_dataset(snap_records, predictions)
        assert report.n_missing_predictions == 3
        assert report.n_parse_failures == 3

    def test_unknown_record_rejected(self, snap_records):
        with pytest.raises(UnknownRecordError):
            score_dataset(snap_records, [Prediction("nope", "x")])

    def test_mixed_tasks_rejected(self, snap_records):
        other = sdfd_record({("a", "b")}, "ab")
        with pytest.raises(ValueError):
            score_dataset([*snap_records, other], [])

    def test_binary_universe_is_fixed(self):
        records = [
            TaskRecord(
                record_id=f"m:tsad:{i:05d}",
                task=Task.TSAD,
                model_id="m",
                activity_set=("a", "b"),
                trace=("a", "b"),
                label=V,
            )
            for i in range(4)
        ]
        predictions = [Prediction(r.record_id, "Valid") for r in records]
        report = score_dataset(records, predictions)
        assert set(report.per_class_f1) == {V, A}
        assert report.value == 0.5  # perfect V, empty A class contributes 0

    def test_generation_dataset_mean(self):
        records = [
            sdfd_record({("a", "b"), ("b", "c")}, "abc", "m:sdfd:00000"),
            sdfd_record({("a", "b")}, "ab", "m2:sdfd:00000"),
        ]
        predictions = [
            Prediction("m:sdfd:00000", "'a' -> 'b'"),
            Prediction("m2:sdfd:00000", "garbage"),
        ]
        report = score_dataset(records, predictions)
        assert report.metric_name == "mean_footprint_fitness"
        assert report.value == pytest.approx((7 / 9 + 0.0) / 2)
        assert report.n_parse_failures == 1
        assert report.per_record_fitness["m:sdfd:00000"] == 7 / 9


class TestRandomBaselines:
    def test_classification_deterministic(self):
        records = [
            TaskRecord(
                record_id=f"m:tsad:{i:05d}",
                task=Task.TSAD,
                model_id="m",
                activity_set=("a", "b"),
                trace=("a", "b"),
                label=V,
            )
            for i in range(50)
        ]
        assert random_classification_baseline(
            records, seed=3
        ) == random_classification_baseline(records, seed=3)

    def test_classification_emits_both_labels(self):
        records = [
            TaskRecord(
                record_id=f"m:asad:{i:05d}",
                task=Task.ASAD,
                model_id="m",
                activity_set=("a", "b"),
                pair=("a", "b"),
                label=V,
            )
            for i in range(200)
        ]
        texts = {p.raw_text for p in random_classification_baseline(records, seed=3)}
        assert texts == {V, A}

    def test_snap_draws_from_record_activity_set(self):
        records = [
            TaskRecord(
                record_id=f"m:snap:{i:05d}",
                task=Task.SNAP,
                model_id="m",
                activity_set=("x", "y", "z"),
                prefix=("x",),
                next_activity="y",
            )
            for i in range(100)
        ]
        predictions = random_classification_baseline(records, seed=3)
        assert {p.raw_text for p in predictions} <= {"x", "y", "z"}

    def test_baseline_rejects_generation_tasks(self):
        with pytest.raises(ValueError):
            random_classification_baseline([sdfd_record({("a", "b")}, "ab")], seed=0)

    def test_random_footprint_structure(self):
        fp = random_footprint(frozenset("abcd"), random.Random(1))
        assert len(fp.relations) == 16
        for x in "abcd":
            assert fp.relation(x, x) in (Relation.PARALLEL, Relation.NONE)

    def test_footprint_to_dfg_inverts(self):
        rng = random.Random(7)
        for _ in range(50):
            fp = random_footprint(frozenset("abcde"), rng)
            assert footprint(footprint_to_dfg(fp)) == fp

    def test_expected_fitness_formula(self):
        fp = footprint(
            Dfg(activities=frozenset("abcd"), edges=frozenset({("a", "b")}))
        )
        assert expected_random_footprint_fitness(fp) == pytest.approx(0.3125)
        assert expected_random_footprint_fitness(
            fp, include_diagonal=False
        ) == pytest.approx(0.25)

    def test_footprint_predictions_round_trip(self):
        record = sdfd_record({("a", "b"), ("b", "a")}, "abc")
        predictions = random_footprint_predictions([record], seed=11)
        assert len(predictions) == 1
        report = score_dataset([record], predictions)
        assert 0.0 <= report.value <= 1.0
        # an edge-free draw renders empty text, which is never a parse failure
        assert report.n_parse_failures == 0

    def test_footprint_predictions_reject_tree_records(self):
        with pytest.raises(ValueError):
            random_footprint_predictions([sptd_record("->('a','b')", "ab")], seed=0)
