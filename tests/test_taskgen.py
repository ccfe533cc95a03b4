from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from procsem import (
    EmptyLabelError,
    LABEL_ANOMALOUS,
    LABEL_VALID,
    ProcessModel,
    RejectionReason,
    Split,
    Task,
    eventually_follows,
    gen_asad,
    gen_sdfd,
    gen_snap,
    gen_sptd,
    gen_tsad,
    generate_dataset,
    generate_task,
    leaf,
    loop,
    par,
    parse_tree,
    played_out,
    playout,
    render_tree,
    seq,
    split_corpus,
    synth_corpus,
    tau,
    validate_corpus,
    xor,
)

from procsem import core, semantics, taskgen
from procsem.core import tree_labels
from procsem.taskgen import SequenceSharing, contiguous_runs, id_prefix_batches

from conftest import (
    EXTENDING_IDS,
    M1_TREE_TEXT,
    SHARING_CORPORA,
    asdict,
    oracle_dataset,
    oracle_ef_pairs,
    oracle_language,
    oracle_split_corpus,
    replace,
    shared_vocabulary_corpora,
)


def admit_one(tree, model_id="m"):
    report = validate_corpus([ProcessModel(model_id=model_id, tree=tree)])
    assert not report.rejected, report.rejected
    return report.admitted[0]


class TestValidateCorpus:
    def test_m1_admitted_with_two_sequences(self):
        model = admit_one(parse_tree(M1_TREE_TEXT), "m1")
        assert model.sequences is None
        assert len(played_out(model).sequences) == 2

    def test_duplicate_model_id(self):
        report = validate_corpus(
            [
                ProcessModel("m", seq(leaf("a"), leaf("b"))),
                ProcessModel("m", seq(leaf("c"), leaf("d"))),
            ]
        )
        assert len(report.admitted) == 1
        assert report.rejected[0].reason is RejectionReason.DUPLICATE_MODEL_ID

    def test_invalid_label(self):
        with pytest.raises(EmptyLabelError):
            leaf(" ")

    def test_duplicate_activity_labels(self):
        report = validate_corpus([ProcessModel("m", seq(leaf("a"), leaf("a")))])
        assert report.rejected[0].reason is RejectionReason.DUPLICATE_ACTIVITY_LABELS

    def test_labels_deduplicated_after_normalization(self):
        report = validate_corpus(
            [ProcessModel("m", seq(leaf("a  b"), leaf("a b")))]
        )
        assert report.rejected[0].reason is RejectionReason.DUPLICATE_ACTIVITY_LABELS

    def test_language_too_large(self):
        wide = par(*[leaf(f"a{i}") for i in range(8)])
        report = validate_corpus([ProcessModel("m", wide)], max_sequences=100)
        assert report.rejected[0].reason is RejectionReason.LANGUAGE_TOO_LARGE

    def test_play_out_cap_is_checked_before_the_activity_count(self):
        # One activity, and two sequences over a cap of one.
        report = validate_corpus([ProcessModel("m", xor(leaf("a"), tau()))], max_sequences=1)
        assert report.rejected[0].reason is RejectionReason.LANGUAGE_TOO_LARGE

    def test_admits_from_the_tree_alone(self, monkeypatch):
        # Every rejection reason after parsing, in row order, with no play-out.
        def no_play_out(*args, **kwargs):
            raise AssertionError("played out")

        monkeypatch.setattr(semantics, "_language_operator", no_play_out)
        monkeypatch.setattr(taskgen, "playout", no_play_out)
        over = par(*(leaf(f"o{i}") for i in range(4)))
        report = validate_corpus(
            [
                ProcessModel("dup", seq(leaf("a"), leaf("a"))),
                ProcessModel("big", over),
                ProcessModel("empty", seq(tau(), tau())),
                ProcessModel("one", leaf("a")),
                ProcessModel("m1", parse_tree(M1_TREE_TEXT), name="orders"),
                ProcessModel("again", parse_tree(M1_TREE_TEXT)),
            ],
            max_sequences=23,
        )
        assert [(r.model_id, r.reason) for r in report.rejected] == [
            ("dup", RejectionReason.DUPLICATE_ACTIVITY_LABELS),
            ("big", RejectionReason.LANGUAGE_TOO_LARGE),
            ("empty", RejectionReason.EMPTY_LANGUAGE),
            ("one", RejectionReason.TOO_FEW_ACTIVITIES),
            ("again", RejectionReason.DUPLICATE_ACTIVITY_SET),
        ]
        assert report.rejected[1].detail == "language exceeds 23 sequences"
        [model] = report.admitted
        assert (model.model_id, model.name, model.sequences) == ("m1", "orders", None)
        assert model.activity_set == frozenset(tree_labels(model.tree))

    def test_empty_language(self):
        report = validate_corpus([ProcessModel("m", xor(tau(), tau()))])
        assert report.rejected[0].reason is RejectionReason.EMPTY_LANGUAGE

    def test_too_few_activities(self):
        report = validate_corpus([ProcessModel("m", leaf("a"))])
        assert report.rejected[0].reason is RejectionReason.TOO_FEW_ACTIVITIES

    def test_optional_single_activity_still_too_few(self):
        report = validate_corpus([ProcessModel("m", xor(leaf("a"), tau()))])
        assert report.rejected[0].reason is RejectionReason.TOO_FEW_ACTIVITIES

    def test_duplicate_activity_set_keeps_first(self):
        report = validate_corpus(
            [
                ProcessModel("m1", seq(leaf("a"), leaf("b"))),
                ProcessModel("m2", xor(leaf("a"), leaf("b"))),
            ]
        )
        assert [a.model_id for a in report.admitted] == ["m1"]
        assert report.rejected[0].model_id == "m2"
        assert report.rejected[0].reason is RejectionReason.DUPLICATE_ACTIVITY_SET

    def test_batch_never_aborts(self):
        report = validate_corpus(
            [
                ProcessModel("bad", leaf("a")),
                ProcessModel("good", seq(leaf("a"), leaf("b"))),
            ]
        )
        assert [a.model_id for a in report.admitted] == ["good"]

    def test_admits_the_rows_themselves(self):
        rows = [
            ProcessModel("m1", parse_tree(M1_TREE_TEXT), name="orders", line=3),
            ProcessModel("one", leaf("a"), line=4),
            ProcessModel("m2", seq(leaf("x"), leaf("y")), line=7),
        ]
        report = validate_corpus(rows)
        assert len(report.admitted) == 2
        assert report.admitted[0] is rows[0] and report.admitted[1] is rows[2]
        assert [m.line for m in report.admitted] == [3, 7]

    def test_a_tree_past_the_leaf_limit_is_refused_for_its_leaves(self):
        # One sequence, far within the cap: the refusal names the leaf limit.
        long = seq(*(leaf(f"a{i}") for i in range(600)))
        report = validate_corpus([ProcessModel("long", long)])
        [rejection] = report.rejected
        assert rejection.reason is RejectionReason.LANGUAGE_TOO_LARGE
        assert rejection.detail == (
            f"tree exceeds the play-out limit of {semantics.MAX_PLAYOUT_LEAVES} leaves"
        )


class TestGenTsad:
    def test_swap_positions_are_the_draws_of_random_sample(self):
        # gen_tsad draws its swap positions as `rng.sample(range(n), 2)`
        # would; a change to CPython's `sample` fails here, not in the bytes.
        for n in range(2, 65):
            for seed in range(60):
                reference, drawn = random.Random(seed), random.Random(seed)
                for _ in range(3):
                    assert tuple(reference.sample(range(n), 2)) == taskgen._two_positions(drawn, n)
                assert reference.random() == drawn.random()

    def test_pads_to_min_log_size(self):
        model = admit_one(parse_tree(M1_TREE_TEXT), "m1")
        records = gen_tsad(model, seed=5)
        assert len(records) == 100
        assert len({r.record_id for r in records}) == 100

    def test_no_padding_when_log_is_large(self):
        model = admit_one(par(*[leaf(x) for x in "abcde"]), "m")
        assert len(played_out(model).sequences) == 120
        records = gen_tsad(model, seed=5)
        assert len(records) == 120

    def test_soundness_against_reference_language(self):
        tree = parse_tree(M1_TREE_TEXT)
        model = admit_one(tree, "m1")
        reference = oracle_language(tree)
        for record in gen_tsad(model, seed=5):
            if record.label == LABEL_ANOMALOUS:
                assert record.trace not in reference
            else:
                assert record.label == LABEL_VALID
                assert record.trace in reference

    def test_swap_closed_language_yields_only_valid(self):
        # every transposition of a trace of +('a','b') is again a trace
        model = admit_one(par(leaf("a"), leaf("b")), "m")
        records = gen_tsad(model, seed=5)
        assert all(r.label == LABEL_VALID for r in records)
        assert all(r.trace in played_out(model).sequences for r in records)

    def test_short_traces_never_anomalous(self):
        model = admit_one(xor(leaf("a"), seq(leaf("b"), leaf("c"))), "m")
        for record in gen_tsad(model, seed=5):
            if len(record.trace) < 2:
                assert record.label == LABEL_VALID

    def test_roughly_half_anomalous(self):
        model = admit_one(seq(*[leaf(x) for x in "abcdef"]), "m")
        records = gen_tsad(model, seed=5, min_log_size=2000)
        fraction = sum(r.label == LABEL_ANOMALOUS for r in records) / len(records)
        assert 0.40 <= fraction <= 0.55

    def test_deterministic(self):
        model = admit_one(parse_tree(M1_TREE_TEXT), "m1")
        assert gen_tsad(model, seed=9) == gen_tsad(model, seed=9)

    def test_noise_prob_zero_keeps_everything_valid(self):
        model = admit_one(seq(leaf("a"), leaf("b"), leaf("c")), "m")
        records = gen_tsad(model, seed=5, noise_prob=0.0)
        assert all(r.label == LABEL_VALID for r in records)

    def test_record_fields(self):
        model = admit_one(seq(leaf("b"), leaf("a")), "m")
        record = gen_tsad(model, seed=5)[0]
        assert record.task is Task.TSAD
        assert record.model_id == "m"
        assert record.activity_set == ("a", "b")
        assert record.pair is None and record.edges is None

    def test_records_are_slotted_values(self):
        model = admit_one(seq(leaf("b"), leaf("a")), "m")
        record = gen_tsad(model, seed=5)[0]
        with pytest.raises(TypeError):
            vars(record)
        assert replace(record, label=LABEL_ANOMALOUS).label == LABEL_ANOMALOUS
        assert asdict(record)["trace"] == record.trace

    def test_records_share_the_model_values(self):
        model = admit_one(parse_tree(M1_TREE_TEXT), "m1")
        records = gen_tsad(model, seed=5)
        assert all(r.activity_set is records[0].activity_set for r in records)
        assert all(r.model_id is records[0].model_id for r in records)


class TestGenAsad:
    def test_m1_positives_are_the_ef_set(self, m1_model):
        records = gen_asad(m1_model, seed=5)
        positives = {r.pair for r in records if r.label == LABEL_VALID}
        assert positives == oracle_ef_pairs(m1_model.sequences)
        assert len(positives) == 4

    def test_m1_balance_and_no_overlap(self, m1_model):
        records = gen_asad(m1_model, seed=5)
        positives = {r.pair for r in records if r.label == LABEL_VALID}
        negatives = {r.pair for r in records if r.label == LABEL_ANOMALOUS}
        assert len(negatives) == 4
        assert positives & negatives == set()
        universe = {
            (x, y) for x in m1_model.activity_set for y in m1_model.activity_set
        }
        assert negatives <= universe - positives

    def test_single_sequence_model(self):
        model = admit_one(seq(leaf("a"), leaf("b")), "m")
        records = gen_asad(model, seed=5)
        positives = [r for r in records if r.label == LABEL_VALID]
        negatives = [r for r in records if r.label == LABEL_ANOMALOUS]
        assert [r.pair for r in positives] == [("a", "b")]
        assert len(negatives) == 1
        assert negatives[0].pair in {("b", "a"), ("a", "a"), ("b", "b")}

    def test_saturated_ef_gives_no_negatives(self):
        # loop with silent redo: traces ab and abab saturate all four pairs
        model = admit_one(loop(seq(leaf("a"), leaf("b")), tau()), "m")
        assert eventually_follows(model.tree) == {
            ("a", "a"), ("a", "b"), ("b", "a"), ("b", "b"),
        }
        records = gen_asad(model, seed=5)
        assert all(r.label == LABEL_VALID for r in records)
        assert len(records) == 4

    def test_deterministic(self, m1_model):
        assert gen_asad(m1_model, seed=3) == gen_asad(m1_model, seed=3)


class TestGenSnap:
    def test_m1_three_records(self, m1_model):
        records = gen_snap(m1_model)
        got = {(r.prefix, r.next_activity) for r in records}
        assert got == {
            (("receive order",), "accept order"),
            (("receive order",), "reject order"),
            (("receive order", "accept order"), "deliver package"),
        }

    def test_dedup_keeps_first_occurrence(self):
        # traces (a,b) and (a,b,c,a,b) both open with the (a)->b step
        tree = loop(seq(leaf("a"), leaf("b")), leaf("c"))
        model = admit_one(tree, "m")
        records = gen_snap(model)
        pairs = [(r.prefix, r.next_activity) for r in records]
        assert len(pairs) == len(set(pairs))
        assert set(pairs) == {
            (("a",), "b"),
            (("a", "b"), "c"),
            (("a", "b", "c"), "a"),
            (("a", "b", "c", "a"), "b"),
        }

    def test_every_gold_is_continuable(self):
        tree = parse_tree("->('a', X(+('b', 'c'), 'd'))")
        model = admit_one(tree, "m")
        reference = oracle_language(tree)
        records = gen_snap(model)
        assert records
        for record in records:
            k = len(record.prefix)
            assert any(
                s[:k] == record.prefix and s[k] == record.next_activity
                for s in reference
                if len(s) > k
            )

    def test_length_one_sequences_emit_nothing(self):
        model = admit_one(xor(leaf("a"), leaf("b")), "m")
        assert gen_snap(model) == []


class TestGenSdfdSptd:
    def test_sdfd_m1_edges(self, m1_model):
        record = gen_sdfd(m1_model)
        assert record.edges == (
            ("accept order", "deliver package"),
            ("receive order", "accept order"),
            ("receive order", "reject order"),
        )

    def test_sdfd_parallel_pair(self):
        model = admit_one(par(leaf("a"), leaf("b")), "m")
        assert gen_sdfd(model).edges == (("a", "b"), ("b", "a"))

    def test_sptd_round_trips(self, m1_tree):
        model = admit_one(m1_tree, "m1")
        record = gen_sptd(model)
        assert parse_tree(record.tree_text) == model.tree
        assert record.tree_text == render_tree(model.tree)

    def test_generate_task_dispatch(self, m1_tree):
        model = admit_one(m1_tree, "m1")
        for task in Task:
            records = generate_task(task, model, seed=5)
            assert records
            assert all(r.task is task for r in records)


# Model ids built from pieces of record ids, so that one model's record ids
# often fall between another's.
_model_ids = st.lists(
    st.lists(st.sampled_from(["a", "b", ":", "-", "tsad", "0", "00001"]), max_size=5).map("".join),
    max_size=6,
    unique=True,
)


@settings(max_examples=150, deadline=None)
@given(_model_ids, st.randoms(use_true_random=False))
def test_generate_dataset_yields_record_id_order(model_ids, shuffler):
    tree = par(leaf("x"), xor(leaf("y"), leaf("z")))
    models = [playout(tree, model_id=m) for m in model_ids]
    shuffler.shuffle(models)
    for task, min_log_size in ((Task.TSAD, 12), (Task.SPTD, 1)):
        expected = oracle_dataset(task, models, 4, min_log_size=min_log_size)
        assert list(generate_dataset(task, models, 4, min_log_size=min_log_size)) == expected


# The ids of models whose record ids interleave, and random ids over the
# characters that make record ids extend one another.
_run_model_ids = st.lists(
    st.one_of(st.sampled_from(EXTENDING_IDS), st.text(alphabet="ab:-0", max_size=6)),
    max_size=9,
    unique=True,
)


@settings(max_examples=150, deadline=None)
@given(_run_model_ids, st.integers(min_value=1, max_value=4), st.randoms(use_true_random=False))
def test_the_datasets_of_contiguous_runs_join_to_the_whole(model_ids, n_runs, shuffler):
    tree = par(leaf("x"), xor(leaf("y"), leaf("z")))
    models = [playout(tree, model_id=m) for m in model_ids]
    shuffler.shuffle(models)
    batches = list(id_prefix_batches(models))
    runs = contiguous_runs(models, n_runs)
    assert len(runs) == max(1, min(n_runs, len(batches)))
    assert [m for run in runs for m in run] == [m for batch in batches for m in batch]
    if models:
        assert all(runs)
    for task, min_log_size in ((Task.TSAD, 12), (Task.SPTD, 1)):
        joined = [
            record
            for run in runs
            for record in generate_dataset(task, run, 4, min_log_size=min_log_size)
        ]
        assert joined == list(generate_dataset(task, models, 4, min_log_size=min_log_size))


def test_runs_split_the_models_evenly_at_batch_boundaries():
    # "a" and "a:x" share a batch; every other id is its own batch.
    tree = par(leaf("x"), leaf("y"))
    models = [playout(tree, model_id=m) for m in ("a", "a:x", "b", "c", "d", "e")]
    runs = contiguous_runs(models, 3)
    assert [[m.model_id for m in run] for run in runs] == [
        ["a", "a:x"], ["b", "c"], ["d", "e"]
    ]
    # More runs than batches: one run per batch.
    assert contiguous_runs(models, 9) == list(id_prefix_batches(models))
    assert contiguous_runs([], 4) == [[]]


class TestSplitCorpus:
    def _disjoint_models(self, n):
        models = []
        for i in range(n):
            tree = seq(leaf(f"a{i}"), leaf(f"b{i}"))
            models.append(playout(tree, model_id=f"m{i:02d}"))
        return models

    def test_ten_disjoint_models_split_7_2_1(self):
        assignment = split_corpus(self._disjoint_models(10), seed=1)
        sizes = {s: len(assignment.model_ids(s)) for s in Split}
        assert sizes == {Split.TRAIN: 7, Split.VALIDATION: 2, Split.TEST: 1}

    def test_shared_sequence_forces_same_split(self):
        shared = [
            playout(seq(leaf("a"), leaf("b")), model_id="m1"),
            playout(xor(seq(leaf("a"), leaf("b")), leaf("c")), model_id="m2"),
        ]
        others = self._disjoint_models(8)
        for seed in range(10):
            assignment = split_corpus(shared + others, seed=seed)
            assert assignment.assignment["m1"] is assignment.assignment["m2"]

    def test_shared_empty_sequence_links_models(self):
        models = [
            playout(xor(seq(leaf("a"), leaf("b")), tau()), model_id="m1"),
            playout(xor(seq(leaf("c"), leaf("d")), tau()), model_id="m2"),
        ]
        assignment = split_corpus(models, seed=0)
        assert len(assignment.components) == 1

    def test_no_leakage_brute_force(self):
        models = self._disjoint_models(12) + [
            playout(seq(leaf("a0"), leaf("b0"), leaf("c0")), model_id="x1"),
            playout(xor(seq(leaf("a1"), leaf("b1")), leaf("z")), model_id="x2"),
        ]
        for seed in range(5):
            assignment = split_corpus(models, seed=seed)
            train = [m for m in models if assignment.assignment[m.model_id] is Split.TRAIN]
            held_out = [
                m for m in models if assignment.assignment[m.model_id] is not Split.TRAIN
            ]
            for t in train:
                for h in held_out:
                    assert not (t.sequences & h.sequences)

    def test_deterministic_and_order_invariant(self):
        models = self._disjoint_models(20)
        forward = split_corpus(models, seed=4)
        backward = split_corpus(list(reversed(models)), seed=4)
        assert forward.assignment == backward.assignment

    def test_ratios_must_sum_to_one(self):
        with pytest.raises(ValueError):
            split_corpus(self._disjoint_models(3), ratios=(0.5, 0.2, 0.1), seed=0)

    @pytest.mark.parametrize(
        "ratios", [(1.2, -0.1, -0.1), (0.5, 0.5, float("nan")), (-0.0001, 0.5, 0.5001)]
    )
    def test_ratios_must_lie_in_unit_interval(self, ratios):
        with pytest.raises(ValueError, match=r"must lie in \[0, 1\]"):
            split_corpus(self._disjoint_models(3), ratios=ratios, seed=0)

    def test_stratum_deviation_at_most_one_component(self):
        # 30 small models (bin 2-3) and 15 larger ones (bin 4-5)
        models = self._disjoint_models(30)
        for i in range(15):
            tree = seq(leaf(f"p{i}"), leaf(f"q{i}"), leaf(f"r{i}"), leaf(f"s{i}"))
            models.append(playout(tree, model_id=f"big{i:02d}"))
        assignment = split_corpus(models, seed=2)
        ratios = dict(zip(Split, (0.70, 0.20, 0.10)))
        for bin_models, n in ((models[:30], 30), (models[30:], 15)):
            for split in Split:
                count = sum(
                    1 for m in bin_models if assignment.assignment[m.model_id] is split
                )
                assert abs(count - ratios[split] * n) <= 1


@pytest.fixture
def fold_calls(monkeypatch):
    """The number of `fold_tree` calls so far, through `core` and `semantics`."""
    calls = [0]
    fold = core.fold_tree

    def counted(*args):
        calls[0] += 1
        return fold(*args)

    monkeypatch.setattr(core, "fold_tree", counted)
    monkeypatch.setattr(semantics, "fold_tree", counted)
    return lambda: calls[0]


class TestTreeWalks:
    def test_a_play_out_folds_the_tree_once(self, fold_calls):
        model = admit_one(parse_tree(M1_TREE_TEXT), "m1")
        before = fold_calls()
        played = played_out(model)
        assert fold_calls() == before + 1
        assert len(played.sequences) == 2

    def test_split_folds_each_admitted_tree_once(self, fold_calls):
        corpus = synth_corpus(n_models=60, seed=5, max_sequences=512)
        admitted = validate_corpus(corpus, max_sequences=512).admitted
        before = fold_calls()
        split_corpus(admitted)
        # For its play-out alone: admission kept the activity set it read.
        assert fold_calls() - before == len(admitted)

    def test_admission_keeps_the_activity_set_it_read(self, fold_calls):
        model = admit_one(parse_tree(M1_TREE_TEXT), "m1")
        before = fold_calls()
        assert model.activity_set == frozenset(tree_labels(model.tree))
        assert fold_calls() == before + 1  # the oracle's walk alone


def _played_corpus(trees) -> list:
    return [playout(tree, model_id=f"m{i}") for i, tree in enumerate(trees)]


class TestSequenceSharing:
    """`split_corpus` maps only the sequences two models can share; these
    tests hold it to the split over every sequence's first owner."""

    @settings(max_examples=200, deadline=None)
    @given(shared_vocabulary_corpora(), st.integers(0, 3))
    def test_split_matches_the_full_sequence_map(self, trees, seed):
        models = _played_corpus(trees)
        assert split_corpus(models, seed=seed) == oracle_split_corpus(models, seed=seed)

    @pytest.mark.parametrize("texts", SHARING_CORPORA.values(), ids=SHARING_CORPORA.keys())
    def test_split_matches_the_full_sequence_map_on_edge_cases(self, texts):
        models = _played_corpus(map(parse_tree, texts))
        for seed in range(3):
            assert split_corpus(models, seed=seed) == oracle_split_corpus(models, seed=seed)

    @settings(max_examples=200, deadline=None)
    @given(shared_vocabulary_corpora())
    def test_keeps_exactly_the_sequences_two_alphabets_hold(self, trees):
        models = _played_corpus(trees)
        sharing = SequenceSharing(models)
        for model in models:
            expected = {
                s for s in model.sequences
                if sum(set(s) <= other.activity_set for other in models) >= 2
            }
            kept = sharing.shareable(model.sequences)
            assert len(kept) == len(expected) and set(kept) == expected
            # A sequence another language holds is always kept.
            for other in models:
                if other is not model:
                    assert model.sequences & other.sequences <= expected

    @pytest.mark.parametrize(
        "texts, kept",
        [
            (SHARING_CORPORA["only the empty sequence"], [{()}, {()}]),
            (SHARING_CORPORA["only a one-activity sequence"], [{("a",)}, {("a",)}]),
            (SHARING_CORPORA["first two labels shared, the third not"], [set(), set()]),
            (SHARING_CORPORA["one model"], [set()]),
        ],
    )
    def test_drops_what_one_alphabet_alone_holds(self, texts, kept):
        models = _played_corpus(map(parse_tree, texts))
        sharing = SequenceSharing(models)
        assert [set(sharing.shareable(m.sequences)) for m in models] == kept
