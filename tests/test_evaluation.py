from __future__ import annotations

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from procsem import (
    Dfg,
    LABEL_ANOMALOUS,
    LABEL_VALID,
    LanguageTooLargeError,
    MatchingMode,
    Relation,
    Task,
    TaskRecord,
    answer_text,
    dfg_of_model,
    edge_fitness,
    expected_random_footprint_fitness,
    footprint,
    gen_sdfd,
    gen_snap,
    gen_sptd,
    language,
    macro_f1,
    parse_binary_label,
    parse_tree,
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
from procsem import evaluation
from procsem.core import tree_labels
from procsem.evaluation import (
    LengthMismatchError,
    UnknownRecordError,
    fold_label,
    per_class_f1,
)
from procsem.taskgen import model_rng

from conftest import (
    oracle_footprint,
    oracle_footprint_fitness,
    oracle_footprint_score,
    oracle_per_class_f1,
    oracle_random_footprint,
    tree_strategy,
)

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
        edges = frozenset({("a", "b")})
        assert edge_fitness(frozenset("ab"), edges, edges) == 1.0

    def test_hand_derived_seven_ninths(self):
        activities = frozenset("abc")
        gold = frozenset({("a", "b"), ("b", "c")})
        pred = frozenset({("a", "b")})
        assert edge_fitness(activities, gold, pred) == 7 / 9

    def test_zero_edges_both_sides(self):
        assert edge_fitness(frozenset("abc"), frozenset(), frozenset()) == 1.0

    def test_symmetry_same_activity_set(self):
        activities = frozenset("abcd")
        rng = random.Random(0)
        for _ in range(20):
            left = random_footprint(activities, rng).edges
            right = random_footprint(activities, rng).edges
            assert edge_fitness(activities, left, right) == edge_fitness(
                activities, right, left
            )

    def test_diagonal_flag(self):
        activities = frozenset("ab")
        gold = frozenset({("a", "a")})
        pred = frozenset()
        # diagonal (a,a) disagrees: 3/4 with it, 2/2 without
        assert edge_fitness(activities, gold, pred) == 3 / 4
        assert edge_fitness(activities, gold, pred, include_diagonal=False) == 1.0


edge_sets = st.sets(st.tuples(st.sampled_from("abcdz"), st.sampled_from("abcdz")))


class TestEdgeFitness:
    @given(
        st.sets(st.sampled_from("abcd")),
        edge_sets,
        edge_sets,
        st.booleans(),
    )
    @settings(max_examples=500, deadline=None)
    def test_matches_footprint_count(self, activities, gold, pred, include_diagonal):
        # "z" is outside every activity set: its edges never count.
        activities = frozenset(activities)
        pred_activities = frozenset(a for edge in pred for a in edge)
        inside = {(x, y) for x, y in gold if x in activities and y in activities}
        expected = oracle_footprint_fitness(
            oracle_footprint(activities, inside),
            oracle_footprint(pred_activities, pred),
            activities,
            include_diagonal,
        )
        got = edge_fitness(activities, frozenset(gold), frozenset(pred), include_diagonal)
        assert got == expected
        gold_fp = footprint(Dfg(activities=activities, edges=frozenset(inside)))
        pred_fp = footprint(Dfg(activities=pred_activities, edges=frozenset(pred)))
        assert edge_fitness(
            activities, gold_fp.edges, pred_fp.edges, include_diagonal
        ) == expected

    @given(st.integers(min_value=0, max_value=2**32), st.integers(0, 6), st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_explicit_footprints_match_footprint_count(self, seed, n, include_diagonal):
        rng = random.Random(seed)
        activities = frozenset("abcdef"[:n])
        gold = random_footprint(activities, rng)
        pred = random_footprint(frozenset("bcdefg"[:n]), rng)
        expected = oracle_footprint_fitness(
            gold.relations, pred.relations, activities, include_diagonal
        )
        assert edge_fitness(
            activities, gold.edges, pred.edges, include_diagonal
        ) == expected


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

    def test_repeated_edges_score_as_listed_once(self, monkeypatch):
        record = sdfd_record({("a", "b"), ("b", "c")}, "abc")
        edges = ["'a' -> 'b'", "'B' -> 'ghost'", "'c' -> 'a'"]
        once = score_sdfd(record, "\n".join([*edges, "no edge here"]))
        folded: list[str] = []
        monkeypatch.setattr(
            evaluation, "fold_label", lambda label, mode: folded.append(label) or fold_label(label, mode)
        )
        repeated = score_sdfd(record, "\n".join([*edges * 50, "no edge here"]))
        assert repeated.fitness == once.fitness == 5 / 9
        assert repeated.hallucinated == once.hallucinated == ("ghost",)
        assert repeated.skipped_lines == once.skipped_lines == 1
        # Each gold activity and each distinct predicted label is folded once.
        assert sorted(folded) == sorted([*"abc", "a", "b", "B", "ghost", "c"])

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

    def test_oversized_prediction_gets_its_fitness(self):
        # 12! sequences, far over any play-out cap; every label is unknown,
        # so the prediction has no gold edge: (a,b) and (b,a) disagree.
        record = sptd_record("->('a', 'b')", "ab")
        huge = "+(" + ", ".join(f"'x{i}'" for i in range(12)) + ")"
        with pytest.raises(LanguageTooLargeError):
            language(parse_tree(huge))
        result = score_sptd(record, huge)
        assert result.fitness == 0.5
        assert len(result.hallucinated) == 12
        assert not result.parse_failure

    def test_parallel_over_the_cap_on_gold_labels(self):
        # 9! = 362,880 sequences, which play-out refuses. The prediction
        # relates every pair of distinct activities PARALLEL; the gold chain
        # relates 8 pairs FORWARD, 8 BACKWARD and 56 NONE. Only the 9
        # diagonal pairs (NONE on both sides) agree.
        labels = "abcdefghi"
        record = sptd_record("->(" + ", ".join(f"'{a}'" for a in labels) + ")", labels)
        pred = "+(" + ", ".join(f"'{a.upper()}'" for a in labels) + ")"
        with pytest.raises(LanguageTooLargeError):
            language(parse_tree(pred))
        result = score_sptd(record, pred)
        assert result.fitness == 9 / 81
        assert result.hallucinated == ()
        assert not result.parse_failure
        assert score_sptd(record, pred, include_diagonal=False).fitness == 0.0

    def test_oversized_prediction_is_no_parse_failure_in_the_report(self):
        records = [
            sptd_record("->('a', 'b')", "ab", record_id="m:sptd:00000"),
            sptd_record("->('a', 'b')", "ab", record_id="n:sptd:00000"),
        ]
        huge = "+(" + ", ".join(f"'x{i}'" for i in range(12)) + ")"
        report = score_dataset(
            records,
            {"m:sptd:00000": huge, "n:sptd:00000": "->('a',"},
        )
        assert report.n_parse_failures == 1
        assert report.per_record_fitness == {"m:sptd:00000": 0.5, "n:sptd:00000": 0.0}
        assert report.n_hallucinated_activities == 12

    def test_behaviorally_equal_trees_score_one(self):
        record = sptd_record("->('a', 'b')", "ab")
        assert score_sptd(record, "->('a', ->('b'))").fitness == 1.0

    def test_the_walk_sees_at_most_one_label_beyond_the_gold(self, monkeypatch):
        # Every unmatched leaf is renamed to one label before the relation
        # walk, so 200 unknown labels cost no more than the gold allows; the
        # score and the tally are those of the answer as written.
        walked = []

        def spy(tree):
            walked.append(set(tree_labels(tree)))
            return dfg_of_model(tree)

        monkeypatch.setattr("procsem.evaluation.dfg_of_model", spy)
        record = sptd_record("->('a', X('b', 'c'))", "abc")
        unknown = ", ".join(f"'x{i}'" for i in range(200))
        answer = f"->('A', {unknown}, X('b', 'C'), 'x7')"
        result = score_sptd(record, answer)
        assert len(walked) == 2
        assert max(map(len, walked)) <= len(record.activity_set) + 1
        assert result == oracle_footprint_score(record, answer)
        assert result.hallucinated == tuple(sorted(f"x{i}" for i in range(200)))

    @given(tree_strategy(max_leaves=6), tree_strategy(max_leaves=6))
    @settings(max_examples=80, deadline=None)
    def test_composition_identity(self, gold_tree, pred_tree):
        # scoring a tree equals scoring its played-out edge lines
        gold_model = playout(gold_tree, model_id="g")
        if not gold_model.activity_set:
            return
        gold_sptd = sptd_record(render_tree(gold_tree), gold_model.activity_set)
        gold_sdfd = sdfd_record(
            dfg_of_model(gold_model.tree).edges, gold_model.activity_set
        )
        pred_model = playout(pred_tree, model_id="p")
        pred_edge_text = render_dfg_edges(tuple(dfg_of_model(pred_model.tree).edges))
        via_tree = score_sptd(gold_sptd, render_tree(pred_tree))
        via_edges = score_sdfd(gold_sdfd, pred_edge_text)
        assert not via_tree.parse_failure
        assert not via_edges.parse_failure
        assert via_tree.fitness == via_edges.fitness


# Labels that collide under case folding and whitespace collapsing, and
# ones that match no gold activity.
gold_labels = st.sampled_from(["A", "a", "b", "c d"])
pred_labels = st.sampled_from(["a", "A", "B", "b", "C  D", "c d", "e"])
DEFAULT_SCORING = (MatchingMode.CASE_INSENSITIVE, True)
# A hallucinated leaf between two gold leaves, one under X(·, tau), and two
# labels that fold onto one gold activity.
GOLD_AND_PREDICTED = [
    (parse_tree(gold), parse_tree(pred))
    for gold, pred in [
        ("->('a', 'b')", "->('a', 'e', 'b')"),
        ("->('a', 'b')", "->('a', X('e', tau), 'b')"),
        ("->('a', 'b')", "+('a', 'A', 'b')"),
    ]
]


class TestScoreAgainstPlayoutOracle:
    @given(
        tree_strategy(max_leaves=6, labels=gold_labels),
        tree_strategy(max_leaves=6, labels=pred_labels),
        st.sampled_from(list(MatchingMode)),
        st.booleans(),
    )
    @settings(max_examples=300, deadline=None)
    @example(*GOLD_AND_PREDICTED[0], *DEFAULT_SCORING)
    @example(*GOLD_AND_PREDICTED[1], *DEFAULT_SCORING)
    @example(*GOLD_AND_PREDICTED[2], *DEFAULT_SCORING)
    def test_sptd(self, gold_tree, pred_tree, mode, include_diagonal):
        gold_model = playout(gold_tree, model_id="g")
        record = sptd_record(render_tree(gold_tree), gold_model.activity_set)
        pred_text = render_tree(pred_tree)
        assert score_sptd(record, pred_text, mode, include_diagonal) == (
            oracle_footprint_score(record, pred_text, mode, include_diagonal)
        )

    @given(
        st.sets(gold_labels, min_size=1),
        st.sets(st.tuples(gold_labels, gold_labels)),
        st.lists(st.tuples(pred_labels, pred_labels)),
        st.sampled_from(list(MatchingMode)),
        st.booleans(),
    )
    @settings(max_examples=300, deadline=None)
    def test_sdfd(self, activities, gold_edges, pred_edges, mode, include_diagonal):
        gold_edges = {(x, y) for x, y in gold_edges if x in activities and y in activities}
        record = sdfd_record(gold_edges, activities)
        pred_text = render_dfg_edges(pred_edges)
        assert score_sdfd(record, pred_text, mode, include_diagonal) == (
            oracle_footprint_score(record, pred_text, mode, include_diagonal)
        )


@pytest.fixture(scope="module")
def snap_records():
    entries = synth_corpus(n_models=10, seed=17, min_activities=3)
    report = validate_corpus(entries)
    records = []
    for model in report.admitted:
        records.extend(gen_snap(model))
    return records


class TestScoreDataset:
    def test_self_predictions_score_one_snap(self, snap_records):
        predictions = {r.record_id: r.next_activity for r in snap_records}
        report = score_dataset(snap_records, predictions)
        assert report.value == 1.0
        assert report.metric_name == "macro_f1"
        assert report.n_parse_failures == 0

    def test_missing_predictions_counted(self, snap_records):
        predictions = {r.record_id: r.next_activity for r in snap_records[:-3]}
        report = score_dataset(snap_records, predictions)
        assert report.n_missing_predictions == 3
        assert report.n_parse_failures == 3

    def test_unknown_record_rejected(self, snap_records):
        with pytest.raises(UnknownRecordError) as exc_info:
            score_dataset(snap_records, {"nope": "x"})
        assert str(exc_info.value) == "prediction for unknown record 'nope'"
        assert exc_info.value.record_id == "nope"

    @pytest.mark.parametrize("order", ["in_order", "reversed"])
    def test_first_unknown_record_is_named(self, snap_records, order):
        # The first unknown id in map order is named, whatever the order of
        # the records.
        records = snap_records if order == "in_order" else snap_records[::-1]
        predictions = {
            snap_records[0].record_id: "x", "zz": "x", snap_records[1].record_id: "x", "aa": "x"
        }
        with pytest.raises(UnknownRecordError, match="'zz'"):
            score_dataset(records, predictions)

    def test_repeated_record_ids_are_each_scored(self, snap_records):
        # A records list that repeats an id scores each occurrence, and a
        # repeat does not hide a prediction for an unknown record: the
        # records answered (2) then number as many as the predictions.
        first, second = snap_records[:2]
        records = [first, first, second]
        right, wrong = first.next_activity, "no such activity"
        report = score_dataset(records, {first.record_id: right})
        assert (report.n_records, report.n_missing_predictions) == (3, 1)
        assert (report.value, report.n_parse_failures) == (0.5, 1)
        with pytest.raises(UnknownRecordError, match="'zz'"):
            score_dataset(records, {first.record_id: right, "zz": wrong})
        sdfd = [sdfd_record({("a", "b")}, "ab", "m:sdfd:00000")] * 2
        report = score_dataset(sdfd, {"m:sdfd:00000": "'a' -> 'b'"})
        assert (report.n_records, report.value, report.n_missing_predictions) == (2, 1.0, 0)
        assert report.per_record_fitness == {"m:sdfd:00000": 1.0}

    @pytest.mark.parametrize("order", ["in_order", "reversed", "repeated"])
    def test_records_are_taken_once_from_an_iterator(self, snap_records, order):
        # Every second record answered, from a generator that can be read
        # once, against the three-count oracle over the whole list.
        records = {
            "in_order": snap_records,
            "reversed": snap_records[::-1],
            "repeated": [r for r in snap_records for _ in range(2)],
        }[order]
        predictions = {r.record_id: r.next_activity for r in snap_records[::2]}
        report = score_dataset((r for r in records), predictions)
        golds = [fold_label(r.next_activity, MatchingMode.CASE_INSENSITIVE) for r in records]
        preds = [predictions.get(r.record_id) for r in records]
        preds = [None if p is None else fold_label(p, MatchingMode.CASE_INSENSITIVE)
                 for p in preds]
        assert report.per_class_f1 == oracle_per_class_f1(golds, preds)
        assert report.n_records == len(records)
        assert report.n_missing_predictions == report.n_parse_failures == preds.count(None)

    def test_mixed_tasks_rejected(self, snap_records):
        other = sdfd_record({("a", "b")}, "ab")
        with pytest.raises(ValueError):
            score_dataset([*snap_records, other], {})

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
        predictions = {r.record_id: "Valid" for r in records}
        report = score_dataset(records, predictions)
        assert set(report.per_class_f1) == {V, A}
        assert report.value == 0.5  # perfect V, empty A class contributes 0

    def test_generation_dataset_mean(self):
        records = [
            sdfd_record({("a", "b"), ("b", "c")}, "abc", "m:sdfd:00000"),
            sdfd_record({("a", "b")}, "ab", "m2:sdfd:00000"),
        ]
        predictions = {"m:sdfd:00000": "'a' -> 'b'", "m2:sdfd:00000": "garbage"}
        report = score_dataset(records, predictions)
        assert report.metric_name == "mean_footprint_fitness"
        assert report.value == pytest.approx((7 / 9 + 0.0) / 2)
        assert report.n_parse_failures == 1
        assert report.per_record_fitness["m:sdfd:00000"] == 7 / 9


def test_scoring_builds_no_footprint(monkeypatch):
    entries = synth_corpus(n_models=12, seed=23, min_activities=3)
    admitted = validate_corpus(entries).admitted
    sdfd = [gen_sdfd(m) for m in admitted]
    sptd = [gen_sptd(m) for m in admitted]
    sdfd_preds = dict(random_footprint_predictions(sdfd, seed=4))
    sptd_preds = {r.record_id: answer_text(r) for r in sptd}

    def refuse(dfg):
        raise AssertionError("scoring built a footprint")

    monkeypatch.setattr("procsem.evaluation.footprint", refuse)
    assert score_dataset(sdfd, sdfd_preds).n_parse_failures == 0
    assert score_dataset(sptd, sptd_preds).value == 1.0


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
        assert list(random_classification_baseline(records, seed=3)) == list(
            random_classification_baseline(records, seed=3)
        )

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
        texts = {text for _, text in random_classification_baseline(records, seed=3)}
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
        predictions = dict(random_classification_baseline(records, seed=3))
        assert list(predictions) == [r.record_id for r in records]
        assert set(predictions.values()) <= {"x", "y", "z"}

    def test_baseline_rejects_generation_tasks(self):
        with pytest.raises(ValueError):
            list(random_classification_baseline([sdfd_record({("a", "b")}, "ab")], seed=0))

    def test_random_footprint_structure(self):
        fp = random_footprint(frozenset("abcd"), random.Random(1))
        assert len(fp.relations) == 16
        for x in "abcd":
            assert fp.relation(x, x) in (Relation.PARALLEL, Relation.NONE)

    def test_footprint_to_dfg_inverts(self):
        rng = random.Random(7)
        for _ in range(50):
            fp = random_footprint(frozenset("abcde"), rng)
            assert footprint(Dfg(activities=fp.activities, edges=fp.edges)) == fp

    def test_expected_fitness_formula(self):
        assert expected_random_footprint_fitness(4) == pytest.approx(0.3125)
        assert expected_random_footprint_fitness(
            4, include_diagonal=False
        ) == pytest.approx(0.25)

    @pytest.mark.parametrize(
        "n,include_diagonal,expected",
        [(0, True, 1.0), (0, False, 1.0), (1, True, 0.5), (1, False, 1.0)],
    )
    def test_expected_fitness_with_few_activities(self, n, include_diagonal, expected):
        assert expected_random_footprint_fitness(n, include_diagonal) == expected

    @given(
        st.sets(st.text(min_size=1, max_size=3), min_size=1, max_size=8),
        st.integers(min_value=0, max_value=2**32),
    )
    @settings(max_examples=200, deadline=None)
    def test_random_footprint_matches_relation_draws(self, activities, seed):
        rng, oracle_rng = random.Random(seed), random.Random(seed)
        assert random_footprint(frozenset(activities), rng) == (
            oracle_random_footprint(activities, oracle_rng)
        )
        assert rng.getstate() == oracle_rng.getstate()

    @given(
        st.lists(
            st.tuples(
                st.sampled_from([Task.TSAD, Task.ASAD, Task.SNAP, Task.SDFD]),
                st.text(max_size=4),
                st.lists(st.text(min_size=1, max_size=2), min_size=1, max_size=5, unique=True),
            ),
            max_size=6,
        ),
        st.integers(min_value=0, max_value=2**64),
    )
    @settings(max_examples=200, deadline=None)
    def test_baselines_draw_as_a_fresh_model_rng_per_record(self, drawn, seed):
        # The baselines reseed one generator per record; each record's
        # answer is the one a generator of its own from `model_rng` gives.
        records = [
            TaskRecord(record_id=record_id, task=task, model_id="m",
                       activity_set=tuple(activities))
            for task, record_id, activities in drawn
        ]

        def expected(record):
            rng = model_rng(seed, "baseline", record.task.value, record.record_id)
            if record.task is Task.SDFD:
                edges = random_footprint(record.activity_set, rng).edges
                return record.record_id, render_dfg_edges(tuple(edges))
            classes = sorted(record.activity_set) if record.task is Task.SNAP else (V, A)
            return record.record_id, rng.choice(classes)

        classified = [r for r in records if r.task is not Task.SDFD]
        sdfd = [r for r in records if r.task is Task.SDFD]
        assert list(random_classification_baseline(classified, seed)) == [
            expected(r) for r in classified
        ]
        assert list(random_footprint_predictions(sdfd, seed)) == [expected(r) for r in sdfd]

    def test_footprint_predictions_round_trip(self):
        record = sdfd_record({("a", "b"), ("b", "a")}, "abc")
        predictions = dict(random_footprint_predictions([record], seed=11))
        assert len(predictions) == 1
        report = score_dataset([record], predictions)
        assert 0.0 <= report.value <= 1.0
        # an edge-free draw renders empty text, which is never a parse failure
        assert report.n_parse_failures == 0

    def test_footprint_predictions_reject_tree_records(self):
        with pytest.raises(ValueError):
            list(random_footprint_predictions([sptd_record("->('a','b')", "ab")], seed=0))
