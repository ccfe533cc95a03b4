from __future__ import annotations

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import oracle_render_icl, replace
from procsem import (
    LABEL_ANOMALOUS,
    LABEL_VALID,
    PoolExhaustedError,
    PromptTemplates,
    ShotPool,
    Task,
    TaskRecord,
    gen_asad,
    gen_sdfd,
    gen_snap,
    gen_sptd,
    gen_tsad,
    load_templates,
    parse_binary_label,
    parse_dfg_edges,
    parse_tree,
    render_dfg_edges,
    render_ft,
    render_icl,
    synth_corpus,
    validate_corpus,
)
from procsem.evaluation import MatchingMode, fold_label
from procsem.promptgen import ANSWER_KEYS, answer_text, default_shots


def _record(task: Task, model_id: str, index: int, anomalous: bool) -> TaskRecord:
    a, b = f"a{index}", f"b{index}"
    label = LABEL_ANOMALOUS if anomalous else LABEL_VALID
    payload = {
        Task.TSAD: {"trace": (a, b), "label": label},
        Task.ASAD: {"pair": (a, b), "label": label},
        Task.SNAP: {"prefix": (a,), "next_activity": b},
        Task.SDFD: {"edges": ((a, b),)},
        Task.SPTD: {"tree_text": f"->('{a}', '{b}')"},
    }[task]
    return TaskRecord(
        record_id=f"{model_id}:{task.value}:{index:05d}",
        task=task,
        model_id=model_id,
        activity_set=(a, b),
        **payload,
    )


@st.composite
def icl_cases(draw):
    """A task, a shuffled train pool whose model m0 has one record, shots, seed."""
    task = draw(st.sampled_from(list(Task)))
    sizes = [1, *draw(st.lists(st.integers(1, 4), max_size=7))]
    pool = [
        _record(task, f"m{m}", i, draw(st.booleans()))
        for m, size in enumerate(sizes)
        for i in range(size)
    ]
    return task, draw(st.permutations(pool)), draw(st.integers(1, 7)), draw(st.integers(0, 3))


@pytest.fixture(scope="module")
def corpus_records():
    entries = synth_corpus(n_models=24, seed=41, min_activities=3)
    report = validate_corpus(entries)
    assert not report.rejected
    by_task: dict[Task, list[TaskRecord]] = {t: [] for t in Task}
    for model in report.admitted:
        by_task[Task.TSAD].extend(gen_tsad(model, seed=41, min_log_size=10))
        by_task[Task.ASAD].extend(gen_asad(model, seed=41))
        by_task[Task.SNAP].extend(gen_snap(model))
        by_task[Task.SDFD].append(gen_sdfd(model))
        by_task[Task.SPTD].append(gen_sptd(model))
    return by_task


class TestTemplates:
    def test_packaged_templates_load(self):
        for task in Task:
            templates = load_templates(task)
            assert templates.description
            assert "{activities}" in templates.block
            assert "{answer_key}" in templates.block

    def test_override_directory(self, tmp_path):
        (tmp_path / "tsad.desc.txt").write_text("Custom description.")
        (tmp_path / "tsad.block.txt").write_text(
            "A: {activities}\nI: {instance}\n{answer_key}"
        )
        templates = load_templates(Task.TSAD, tmp_path)
        assert templates.description == "Custom description."
        assert templates.block.startswith("A: ")

    def test_default_shots(self):
        assert default_shots(Task.TSAD) == 6
        assert default_shots(Task.ASAD) == 6
        assert default_shots(Task.SNAP) == 6
        assert default_shots(Task.SDFD) == 5
        assert default_shots(Task.SPTD) == 5


class TestRenderIcl:
    def test_binary_shots_balanced_and_interleaved(self, corpus_records):
        pool = corpus_records[Task.TSAD]
        query = pool[-1]
        bundle = render_icl(Task.TSAD, query, ShotPool(pool), shots=6, seed=1)
        by_id = {r.record_id: r for r in pool}
        labels = [by_id[rid].label for rid in bundle.shot_record_ids]
        assert labels == [
            LABEL_VALID, LABEL_ANOMALOUS, LABEL_VALID,
            LABEL_ANOMALOUS, LABEL_VALID, LABEL_ANOMALOUS,
        ]

    def test_odd_shot_count_favors_valid(self, corpus_records):
        pool = corpus_records[Task.ASAD]
        query = pool[0]
        bundle = render_icl(Task.ASAD, query, ShotPool(pool), shots=5, seed=1)
        by_id = {r.record_id: r for r in pool}
        labels = [by_id[rid].label for rid in bundle.shot_record_ids]
        assert labels.count(LABEL_VALID) == 3
        assert labels.count(LABEL_ANOMALOUS) == 2

    def test_query_is_never_a_shot(self, corpus_records):
        pool = corpus_records[Task.TSAD]
        query = pool[0]
        for seed in range(5):
            bundle = render_icl(Task.TSAD, query, ShotPool(pool), shots=6, seed=seed)
            assert query.record_id not in bundle.shot_record_ids

    def test_snap_shots_come_from_distinct_models(self, corpus_records):
        pool = corpus_records[Task.SNAP]
        query = pool[0]
        bundle = render_icl(Task.SNAP, query, ShotPool(pool), shots=6, seed=2)
        by_id = {r.record_id: r for r in pool}
        models = [by_id[rid].model_id for rid in bundle.shot_record_ids]
        assert len(set(models)) == 6

    def test_generation_shots_come_from_distinct_models(self, corpus_records):
        pool = corpus_records[Task.SPTD]
        query = pool[0]
        bundle = render_icl(Task.SPTD, query, ShotPool(pool), shots=5, seed=2)
        by_id = {r.record_id: r for r in pool}
        models = [by_id[rid].model_id for rid in bundle.shot_record_ids]
        assert len(set(models)) == 5

    def test_prompt_layout(self, corpus_records):
        pool = corpus_records[Task.TSAD]
        query = pool[3]
        templates = load_templates(Task.TSAD)
        bundle = render_icl(Task.TSAD, query, ShotPool(pool), shots=2, seed=0)
        assert bundle.prompt_text.startswith(templates.description)
        blocks = bundle.prompt_text.split("\n\n")
        assert len(blocks) == 1 + 2 + 1  # description, two shots, query
        assert blocks[-1].endswith(ANSWER_KEYS[Task.TSAD])
        for shot_block in blocks[1:-1]:
            key_line = shot_block.splitlines()[-1]
            assert key_line.startswith(ANSWER_KEYS[Task.TSAD])
            assert key_line != ANSWER_KEYS[Task.TSAD]

    def test_query_block_mentions_its_instance(self, corpus_records):
        pool = corpus_records[Task.SNAP]
        query = pool[5]
        bundle = render_icl(Task.SNAP, query, ShotPool(pool), shots=3, seed=0)
        tail = bundle.prompt_text.split("\n\n")[-1]
        assert "Prefix: [" + ", ".join(query.prefix) + "]" in tail

    def test_sdfd_shot_answers_are_edge_lines(self, corpus_records):
        pool = corpus_records[Task.SDFD]
        query = pool[0]
        bundle = render_icl(Task.SDFD, query, ShotPool(pool), shots=3, seed=0)
        by_id = {r.record_id: r for r in pool}
        for rid in bundle.shot_record_ids:
            shot = by_id[rid]
            if shot.edges:
                joined = "\n".join(
                    f"'{x}' -> '{y}'" for x, y in sorted(shot.edges)
                )
                assert joined in bundle.prompt_text

    def test_byte_identical_determinism(self, corpus_records):
        pool = corpus_records[Task.ASAD]
        query = pool[7]
        first = render_icl(Task.ASAD, query, ShotPool(pool), shots=6, seed=5)
        second = render_icl(Task.ASAD, query, ShotPool(pool), shots=6, seed=5)
        assert first == second
        shuffled_pool = list(reversed(pool))
        third = render_icl(Task.ASAD, query, ShotPool(shuffled_pool), shots=6, seed=5)
        assert third.prompt_text == first.prompt_text

    def test_pool_exhausted(self, corpus_records):
        record = corpus_records[Task.TSAD][0]
        with pytest.raises(PoolExhaustedError):
            render_icl(Task.TSAD, record, ShotPool([record]), shots=1, seed=0)

    @settings(max_examples=200, deadline=None)
    @given(icl_cases())
    def test_shot_pool_matches_list_oracle(self, case):
        task, records, shots, seed = case
        pool = ShotPool(records)
        outside = [_record(task, "m0", 99, True), _record(task, "new", 0, False)]
        for query in [*records, *outside]:
            try:
                expected = oracle_render_icl(task, query, records, shots, seed)
            except PoolExhaustedError:
                with pytest.raises(PoolExhaustedError):
                    render_icl(task, query, pool, shots, seed)
                continue
            assert render_icl(task, query, pool, shots, seed) == expected

    def test_shot_pool_rejects_repeated_ids(self, corpus_records):
        record = corpus_records[Task.SNAP][0]
        message = f"duplicate record_id {record.record_id!r} in the shot pool"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ShotPool([record, record])

    def test_shots_must_be_positive(self, corpus_records):
        pool = corpus_records[Task.TSAD]
        with pytest.raises(ValueError):
            render_icl(Task.TSAD, pool[0], ShotPool(pool), shots=0, seed=0)


class TestRenderFt:
    def test_tsad_exact_format(self):
        record = TaskRecord(
            record_id="m:tsad:00000",
            task=Task.TSAD,
            model_id="m",
            activity_set=("approve order", "create order", "reject order"),
            trace=("create order", "reject order"),
            label=LABEL_ANOMALOUS,
        )
        example = render_ft(Task.TSAD, record)
        assert example.input_text == (
            "Activities: {approve order, create order, reject order}\n"
            "Activity sequence: [create order, reject order]\n"
            "Anomalous:"
        )
        assert example.target_text == "true"

    def test_tsad_valid_is_false(self):
        record = TaskRecord(
            record_id="m:tsad:00001",
            task=Task.TSAD,
            model_id="m",
            activity_set=("a", "b"),
            trace=("a", "b"),
            label=LABEL_VALID,
        )
        assert render_ft(Task.TSAD, record).target_text == "false"

    def test_asad_pair_lines(self):
        record = TaskRecord(
            record_id="m:asad:00000",
            task=Task.ASAD,
            model_id="m",
            activity_set=("a", "b"),
            pair=("a", "b"),
            label=LABEL_VALID,
        )
        example = render_ft(Task.ASAD, record)
        assert example.input_text == (
            "Activities: {a, b}\n1. Activity: a\n2. Activity: b\nAnomalous:"
        )
        assert example.target_text == "false"

    def test_snap_format(self):
        record = TaskRecord(
            record_id="m:snap:00000",
            task=Task.SNAP,
            model_id="m",
            activity_set=("a", "b", "c"),
            prefix=("a", "b"),
            next_activity="c",
        )
        example = render_ft(Task.SNAP, record)
        assert example.input_text == (
            "Activities: {a, b, c}\nPrefix: [a, b]\nNext activity:"
        )
        assert example.target_text == "c"

    def test_generation_inputs_carry_description(self):
        sdfd = TaskRecord(
            record_id="m:sdfd:00000",
            task=Task.SDFD,
            model_id="m",
            activity_set=("a", "b"),
            edges=(("a", "b"),),
        )
        example = render_ft(Task.SDFD, sdfd)
        description = load_templates(Task.SDFD).description
        assert example.input_text.startswith(description)
        assert example.input_text.endswith(
            "Activities: {a, b}\nDirectly-follows pairs:"
        )
        assert example.target_text == "'a' -> 'b'"

    def test_classification_inputs_have_no_description(self, corpus_records):
        record = corpus_records[Task.TSAD][0]
        description = load_templates(Task.TSAD).description
        assert description not in render_ft(Task.TSAD, record).input_text

    def test_sptd_target_is_tree_text(self, corpus_records):
        record = corpus_records[Task.SPTD][0]
        example = render_ft(Task.SPTD, record)
        assert example.target_text == record.tree_text
        assert example.input_text.endswith("Process Tree:")

    def test_custom_templates_respected(self):
        record = TaskRecord(
            record_id="m:tsad:00000",
            task=Task.TSAD,
            model_id="m",
            activity_set=("a",),
            trace=("a",),
            label=LABEL_VALID,
        )
        templates = PromptTemplates(
            description="D", block="go {activities} | {instance} | {answer_key}"
        )
        example = render_ft(Task.TSAD, record, templates)
        assert example.input_text == "go {a} | [a] | Anomalous:"


class TestMissingFields:
    @pytest.mark.parametrize(
        "task,field",
        [
            (Task.TSAD, "trace"),
            (Task.ASAD, "pair"),
            (Task.SNAP, "prefix"),
            (Task.SNAP, "next_activity"),
            (Task.SDFD, "edges"),
            (Task.SPTD, "tree_text"),
        ],
    )
    def test_missing_field_names_record_and_field(self, task, field):
        record = replace(_record(task, "m", 0, False), **{field: None})
        with pytest.raises(ValueError, match=f"'m:{task.value}:00000' has no '{field}'"):
            render_ft(task, record)


class TestAnswersRoundTripThroughScoring:
    def test_every_task_answer_parses(self, corpus_records):
        for task, records in corpus_records.items():
            for record in records[:50]:
                answer = answer_text(record)
                if task in (Task.TSAD, Task.ASAD):
                    assert parse_binary_label(answer) == record.label
                elif task is Task.SNAP:
                    folded = fold_label(answer, MatchingMode.CASE_INSENSITIVE)
                    assert folded == fold_label(
                        record.next_activity, MatchingMode.CASE_INSENSITIVE
                    )
                elif task is Task.SDFD:
                    parsed = parse_dfg_edges(answer)
                    assert set(parsed.edges) == set(record.edges)
                    assert render_dfg_edges(parsed.edges) == answer
                    assert parsed.skipped == ()
                else:
                    assert parse_tree(answer) == parse_tree(record.tree_text)
