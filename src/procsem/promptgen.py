"""Prompt and fine-tuning text rendering for the five tasks.

Wording lives in template files (``templates/<task>.desc.txt`` for the task
description, ``templates/<task>.block.txt`` for one instance block); the
code fills the ``{activities}``, ``{instance}`` and ``{answer_key}``
placeholders. Answer strings are exactly what the scoring parsers accept,
so every emitted gold answer round-trips through evaluation.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Iterable, Sequence
from importlib import resources
from operator import attrgetter
from pathlib import Path
from typing import Any

from .core import Activity, Frozen, Trace
from .taskgen import (
    CLASSIFICATION_TASKS,
    GENERATION_TASKS,
    LABEL_ANOMALOUS,
    Task,
    TaskRecord,
    model_rng,
)
from .tree_dsl import render_dfg_edges

ANSWER_KEYS = {
    Task.TSAD: "Anomalous:",
    Task.ASAD: "Anomalous:",
    Task.SNAP: "Next activity:",
    Task.SDFD: "Directly-follows pairs:",
    Task.SPTD: "Process Tree:",
}

_BY_ID = attrgetter("record_id")

DEFAULT_SHOTS_CLASSIFICATION = 6
DEFAULT_SHOTS_GENERATION = 5


class PoolExhaustedError(ValueError):
    """Raised when the shot pool cannot satisfy the sampling constraints."""


class PromptTemplates(Frozen):
    def __init__(self, description: str, block: str) -> None:
        self.__dict__.update(description=description, block=block)


class PromptBundle(Frozen):
    def __init__(
        self, record_id: str, task: Task, prompt_text: str, shot_record_ids: tuple[str, ...]
    ) -> None:
        self.__dict__.update(record_id=record_id, task=task, prompt_text=prompt_text,
                             shot_record_ids=shot_record_ids)


class FtExample(Frozen):
    def __init__(self, record_id: str, task: Task, input_text: str, target_text: str) -> None:
        self.__dict__.update(record_id=record_id, task=task, input_text=input_text,
                             target_text=target_text)


def load_templates(task: Task, directory: str | Path | None = None) -> PromptTemplates:
    """Packaged defaults, or per-task files from an override directory."""
    base = resources.files(__package__) / "templates" if directory is None else Path(directory)
    texts = []
    for part in ("desc", "block"):
        path = base / f"{task.value}.{part}.txt"
        try:
            texts.append(path.read_text("utf-8").strip())
        except UnicodeDecodeError:
            raise ValueError(f"{path}: not UTF-8") from None
    description, block = texts
    return PromptTemplates(description=description, block=block)


def default_shots(task: Task) -> int:
    if task in GENERATION_TASKS:
        return DEFAULT_SHOTS_GENERATION
    return DEFAULT_SHOTS_CLASSIFICATION


def activities_text(activity_set: tuple[Activity, ...]) -> str:
    return "{" + ", ".join(sorted(activity_set)) + "}"


def trace_text(trace: Trace) -> str:
    return "[" + ", ".join(trace) + "]"


def _field(record: TaskRecord, name: str) -> Any:
    """The record's task field `name`; a record without it is an error."""
    value = getattr(record, name)
    if value is None:
        raise ValueError(f"record {record.record_id!r} has no {name!r}")
    return value


def instance_text(record: TaskRecord) -> str:
    if record.task is Task.TSAD:
        return trace_text(_field(record, "trace"))
    if record.task is Task.ASAD:
        first, second = _field(record, "pair")
        return f"1. Activity: {first}\n2. Activity: {second}"
    if record.task is Task.SNAP:
        return trace_text(_field(record, "prefix"))
    return ""


def answer_text(record: TaskRecord) -> str:
    """The gold answer exactly as the scoring parser for the task reads it."""
    if record.task in CLASSIFICATION_TASKS:
        return "true" if record.label == LABEL_ANOMALOUS else "false"
    if record.task is Task.SNAP:
        return _field(record, "next_activity")
    if record.task is Task.SDFD:
        return render_dfg_edges(_field(record, "edges"))
    return _field(record, "tree_text")


def _fill(block: str, record: TaskRecord, answer: str | None) -> str:
    key = ANSWER_KEYS[record.task]
    if answer is None:
        answer_line = key
    elif "\n" in answer:
        answer_line = f"{key}\n{answer}"
    elif answer:
        answer_line = f"{key} {answer}"
    else:
        answer_line = key
    text = block.replace("{activities}", activities_text(record.activity_set))
    text = text.replace("{instance}", instance_text(record))
    return text.replace("{answer_key}", answer_line)


class _Without(Sequence):
    """`items` with the entry at index `skip` left out, without a copy.

    `random.sample` and `random.choice` only take the length of a population
    and index it, so they draw from this view exactly what they would draw
    from the copied list.
    """

    __slots__ = ("_items", "_skip")

    def __init__(self, items: Sequence, skip: int) -> None:
        self._items = items
        self._skip = skip

    def __len__(self) -> int:
        return len(self._items) - 1

    def __getitem__(self, index: int) -> Any:
        if not 0 <= index < len(self):
            raise IndexError(index)
        return self._items[index + (index >= self._skip)]


def _position(records: Sequence[TaskRecord], record_id: str) -> int | None:
    """The index of the record with id `record_id` in id-sorted `records`."""
    i = bisect_left(records, record_id, key=_BY_ID)
    return i if i < len(records) and records[i].record_id == record_id else None


class ShotPool:
    """The training records that ICL shots are drawn from, indexed once.

    Records are sorted by `record_id` and grouped by label (for the binary
    tasks) and by model (for the others). Every accessor leaves out the
    record whose id is the query's, found by bisecting the id-sorted lists,
    so a query from the training split is never its own shot.
    """

    def __init__(self, records: Iterable[TaskRecord]) -> None:
        self._valid: list[TaskRecord] = []
        self._anomalous: list[TaskRecord] = []
        self._by_model: dict[str, list[TaskRecord]] = {}
        previous: str | None = None
        for r in sorted(records, key=_BY_ID):
            if r.record_id == previous:
                raise ValueError(f"duplicate record_id {r.record_id!r} in the shot pool")
            previous = r.record_id
            (self._anomalous if r.label == LABEL_ANOMALOUS else self._valid).append(r)
            self._by_model.setdefault(r.model_id, []).append(r)
        self._models = sorted(self._by_model)

    def by_label(self, query_id: str) -> tuple[Sequence[TaskRecord], Sequence[TaskRecord]]:
        """The valid and the anomalous records, without the query."""
        valid, anomalous = self._valid, self._anomalous
        index = _position(valid, query_id)
        if index is not None:
            return _Without(valid, index), anomalous
        index = _position(anomalous, query_id)
        if index is not None:
            return valid, _Without(anomalous, index)
        return valid, anomalous

    def models(self, query_id: str) -> Sequence[str]:
        """Sorted ids of the models that have a record besides the query."""
        for side in (self._valid, self._anomalous):
            index = _position(side, query_id)
            if index is None:
                continue
            model_id = side[index].model_id
            if len(self._by_model[model_id]) == 1:
                return _Without(self._models, bisect_left(self._models, model_id))
        return self._models

    def records(self, model_id: str, query_id: str) -> Sequence[TaskRecord]:
        """The records of one model, without the query."""
        group = self._by_model[model_id]
        index = _position(group, query_id)
        return group if index is None else _Without(group, index)


def _sample_binary_shots(
    query: TaskRecord, pool: ShotPool, shots: int, rng
) -> list[TaskRecord]:
    valid, anomalous = pool.by_label(query.record_id)
    need_valid = (shots + 1) // 2
    need_anomalous = shots // 2
    if len(valid) < need_valid or len(anomalous) < need_anomalous:
        raise PoolExhaustedError(
            f"need {need_valid} valid and {need_anomalous} anomalous shots, "
            f"pool has {len(valid)} and {len(anomalous)}"
        )
    picked_valid = rng.sample(valid, need_valid)
    picked_anomalous = rng.sample(anomalous, need_anomalous)
    interleaved: list[TaskRecord] = []
    for i in range(shots):
        side = picked_valid if i % 2 == 0 else picked_anomalous
        interleaved.append(side[i // 2])
    return interleaved


def _sample_model_shots(
    query: TaskRecord, pool: ShotPool, shots: int, rng
) -> list[TaskRecord]:
    models = pool.models(query.record_id)
    if len(models) < shots:
        raise PoolExhaustedError(
            f"need records from {shots} distinct models, pool has {len(models)}"
        )
    chosen_models = rng.sample(models, shots)
    return [rng.choice(pool.records(m, query.record_id)) for m in chosen_models]


def render_icl(
    task: Task,
    query: TaskRecord,
    pool: ShotPool,
    shots: int,
    seed: int,
    templates: PromptTemplates | None = None,
) -> PromptBundle:
    """Task description, `shots` solved examples, then the open query.

    Binary tasks get an evenly balanced, interleaved shot sequence starting
    with a valid example; next-activity and generation shots come from
    `shots` distinct models. The query record never appears as a shot.
    """
    if shots < 1:
        raise ValueError("shots must be >= 1")
    tpl = templates if templates is not None else load_templates(task)
    rng = model_rng(seed, "icl", task.value, query.record_id)
    if task in CLASSIFICATION_TASKS:
        shot_records = _sample_binary_shots(query, pool, shots, rng)
    else:
        shot_records = _sample_model_shots(query, pool, shots, rng)
    blocks = [_fill(tpl.block, r, answer_text(r)) for r in shot_records]
    blocks.append(_fill(tpl.block, query, None))
    prompt = "\n\n".join([tpl.description, *blocks])
    return PromptBundle(
        record_id=query.record_id,
        task=task,
        prompt_text=prompt,
        shot_record_ids=tuple(r.record_id for r in shot_records),
    )


def render_ft(
    task: Task,
    record: TaskRecord,
    templates: PromptTemplates | None = None,
) -> FtExample:
    """One fine-tuning pair: instance with an open answer key, gold target.

    Generation tasks carry the task description in the input; classification
    and next-activity inputs are the bare instance block.
    """
    tpl = templates if templates is not None else load_templates(task)
    block = _fill(tpl.block, record, None)
    if task in GENERATION_TASKS:
        input_text = f"{tpl.description}\n\n{block}"
    else:
        input_text = block
    return FtExample(
        record_id=record.record_id,
        task=task,
        input_text=input_text,
        target_text=answer_text(record),
    )
