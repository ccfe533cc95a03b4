"""JSON-Lines readers and writers for every pipeline file format.

One JSON object per line throughout; writers emit keys in a fixed order and
rows in a canonical sort so identical inputs produce identical bytes.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Iterable, Iterator

from .promptgen import FtExample, PromptBundle
from .taskgen import (
    LABEL_ANOMALOUS,
    LABEL_VALID,
    CorpusEntry,
    Prediction,
    Rejection,
    RejectionReason,
    Split,
    SplitAssignment,
    Task,
    TaskRecord,
)
from .tree_dsl import TreeSyntaxError, parse_tree, render_tree


class FileFormatError(ValueError):
    """Raised for unreadable lines; carries the path and line number."""

    def __init__(self, path: str | Path, line_number: int, reason: str) -> None:
        super().__init__(f"{path}:{line_number}: {reason}")
        self.path = str(path)
        self.line_number = line_number
        self.reason = reason


def _read_objects(path: str | Path) -> Iterator[tuple[int, dict[str, Any]]]:
    with open(path, encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            stripped = line.strip()
            if not stripped:
                continue
            try:
                obj = json.loads(stripped)
            except json.JSONDecodeError as exc:
                raise FileFormatError(path, line_number, f"bad JSON: {exc}") from None
            if not isinstance(obj, dict):
                raise FileFormatError(path, line_number, "expected a JSON object")
            yield line_number, obj


def _write_lines(path: str | Path, objects: Iterable[dict[str, Any]]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for obj in objects:
            handle.write(json.dumps(obj, ensure_ascii=False) + "\n")


def _require(obj: dict[str, Any], key: str, path: str | Path, line_number: int) -> Any:
    if key not in obj:
        raise FileFormatError(path, line_number, f"missing key {key!r}")
    return obj[key]


# ---------------------------------------------------------------------------
# Corpus files: {"model_id", "name"?, "tree"}


def read_corpus(path: str | Path) -> tuple[list[CorpusEntry], list[Rejection]]:
    """Parse a corpus file; tree syntax errors become per-entry rejections."""
    entries: list[CorpusEntry] = []
    rejections: list[Rejection] = []
    for line_number, obj in _read_objects(path):
        model_id = str(_require(obj, "model_id", path, line_number))
        tree_text = str(_require(obj, "tree", path, line_number))
        name = obj.get("name")
        try:
            tree = parse_tree(tree_text)
        except TreeSyntaxError as exc:
            rejections.append(
                Rejection(model_id, RejectionReason.PARSE_ERROR, str(exc))
            )
            continue
        entries.append(
            CorpusEntry(
                model_id=model_id,
                tree=tree,
                name=str(name) if name is not None else None,
            )
        )
    return entries, rejections


def write_corpus(path: str | Path, entries: Iterable[CorpusEntry]) -> None:
    def row(entry: CorpusEntry) -> dict[str, Any]:
        obj: dict[str, Any] = {"model_id": entry.model_id}
        if entry.name is not None:
            obj["name"] = entry.name
        obj["tree"] = render_tree(entry.tree)
        return obj

    _write_lines(path, (row(e) for e in sorted(entries, key=lambda e: e.model_id)))


# ---------------------------------------------------------------------------
# Dataset files: TaskRecord rows


def record_to_obj(record: TaskRecord) -> dict[str, Any]:
    obj: dict[str, Any] = {
        "record_id": record.record_id,
        "task": record.task.value,
        "model_id": record.model_id,
        "activity_set": list(record.activity_set),
    }
    if record.trace is not None:
        obj["trace"] = list(record.trace)
    if record.pair is not None:
        obj["pair"] = list(record.pair)
    if record.prefix is not None:
        obj["prefix"] = list(record.prefix)
    if record.label is not None:
        obj["label"] = record.label
    if record.next_activity is not None:
        obj["next_activity"] = record.next_activity
    if record.edges is not None:
        obj["edges"] = [list(edge) for edge in record.edges]
    if record.tree_text is not None:
        obj["tree_text"] = record.tree_text
    return obj


def _is_strings(value: Any) -> bool:
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


def _is_string_pair(value: Any) -> bool:
    return _is_strings(value) and len(value) == 2


# Keys each task's rows must carry, besides the ones every row carries.
_PAYLOAD_KEYS = {
    Task.TSAD: ("trace", "label"),
    Task.ASAD: ("pair", "label"),
    Task.SNAP: ("prefix", "next_activity"),
    Task.SDFD: ("edges",),
    Task.SPTD: ("tree_text",),
}

# Shape of each row field wherever it appears. Only presence and type are
# checked, because every pipeline pass reads its datasets several times.
_FIELD_SHAPES = {
    "activity_set": (_is_strings, "a list of strings"),
    "trace": (_is_strings, "a list of strings"),
    "pair": (_is_string_pair, "a list of two strings"),
    "prefix": (_is_strings, "a list of strings"),
    "label": (lambda v: v in (LABEL_VALID, LABEL_ANOMALOUS), "Valid or Anomalous"),
    "next_activity": (lambda v: isinstance(v, str), "a string"),
    "edges": (
        lambda v: isinstance(v, list) and all(_is_string_pair(e) for e in v),
        "a list of string pairs",
    ),
    "tree_text": (lambda v: isinstance(v, str), "a string"),
}


def obj_to_record(obj: dict[str, Any], path: str | Path, line_number: int) -> TaskRecord:
    try:
        task = Task(str(_require(obj, "task", path, line_number)))
    except ValueError:
        raise FileFormatError(path, line_number, f"unknown task {obj.get('task')!r}") from None
    for key in ("activity_set", *_PAYLOAD_KEYS[task]):
        _require(obj, key, path, line_number)
    for key, (is_valid, shape) in _FIELD_SHAPES.items():
        if key in obj and not is_valid(obj[key]):
            raise FileFormatError(path, line_number, f"{key!r} must be {shape}")
    return TaskRecord(
        record_id=str(_require(obj, "record_id", path, line_number)),
        task=task,
        model_id=str(_require(obj, "model_id", path, line_number)),
        activity_set=tuple(obj["activity_set"]),
        trace=tuple(obj["trace"]) if "trace" in obj else None,
        pair=tuple(obj["pair"]) if "pair" in obj else None,
        prefix=tuple(obj["prefix"]) if "prefix" in obj else None,
        label=obj.get("label"),
        next_activity=obj.get("next_activity"),
        edges=tuple(tuple(e) for e in obj["edges"]) if "edges" in obj else None,
        tree_text=obj.get("tree_text"),
    )


def read_dataset(path: str | Path) -> list[TaskRecord]:
    """The records of a dataset file; all of its rows belong to one task."""
    records: list[TaskRecord] = []
    for n, obj in _read_objects(path):
        record = obj_to_record(obj, path, n)
        if records and record.task is not records[0].task:
            reason = f"{record.task.value} row in a {records[0].task.value} dataset"
            raise FileFormatError(path, n, reason)
        records.append(record)
    return records


def write_dataset(path: str | Path, records: Iterable[TaskRecord]) -> None:
    ordered = sorted(records, key=lambda r: r.record_id)
    _write_lines(path, (record_to_obj(r) for r in ordered))


# ---------------------------------------------------------------------------
# Sequence files: {"model_id", "sequences"}


def write_sequences(path: str | Path, models: Iterable[Any]) -> None:
    """One row per model with its full played-out language, sorted."""
    ordered = sorted(models, key=lambda m: m.model_id)
    _write_lines(
        path,
        (
            {
                "model_id": m.model_id,
                "sequences": [list(s) for s in sorted(m.sequences)],
            }
            for m in ordered
        ),
    )


# ---------------------------------------------------------------------------
# Split files: {"model_id", "split"}


def read_split(path: str | Path) -> dict[str, Split]:
    assignment: dict[str, Split] = {}
    for line_number, obj in _read_objects(path):
        model_id = str(_require(obj, "model_id", path, line_number))
        raw = str(_require(obj, "split", path, line_number))
        try:
            assignment[model_id] = Split(raw)
        except ValueError:
            raise FileFormatError(path, line_number, f"unknown split {raw!r}") from None
    return assignment


def write_split(path: str | Path, assignment: SplitAssignment | dict[str, Split]) -> None:
    mapping = (
        assignment.assignment if isinstance(assignment, SplitAssignment) else assignment
    )
    _write_lines(
        path,
        (
            {"model_id": model_id, "split": mapping[model_id].value}
            for model_id in sorted(mapping)
        ),
    )


# ---------------------------------------------------------------------------
# Prompt files


def write_icl_prompts(path: str | Path, bundles: Iterable[PromptBundle]) -> None:
    ordered = sorted(bundles, key=lambda b: b.record_id)
    _write_lines(
        path,
        (
            {
                "record_id": b.record_id,
                "task": b.task.value,
                "prompt": b.prompt_text,
                "shot_record_ids": list(b.shot_record_ids),
            }
            for b in ordered
        ),
    )


def write_ft_examples(path: str | Path, examples: Iterable[FtExample]) -> None:
    ordered = sorted(examples, key=lambda e: e.record_id)
    _write_lines(
        path,
        (
            {
                "record_id": e.record_id,
                "task": e.task.value,
                "input": e.input_text,
                "target": e.target_text,
            }
            for e in ordered
        ),
    )


# ---------------------------------------------------------------------------
# Prediction files: {"record_id", "prediction"}


def read_predictions(path: str | Path) -> list[Prediction]:
    predictions: list[Prediction] = []
    for line_number, obj in _read_objects(path):
        predictions.append(
            Prediction(
                record_id=str(_require(obj, "record_id", path, line_number)),
                raw_text=str(_require(obj, "prediction", path, line_number)),
            )
        )
    return predictions


def write_predictions(path: str | Path, predictions: Iterable[Prediction]) -> None:
    ordered = sorted(predictions, key=lambda p: p.record_id)
    _write_lines(
        path,
        ({"record_id": p.record_id, "prediction": p.raw_text} for p in ordered),
    )
