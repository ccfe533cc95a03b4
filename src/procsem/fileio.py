"""JSON-Lines readers and writers for every pipeline file format.

One JSON object per line throughout; writers emit keys in a fixed order and
rows in a canonical sort so identical inputs produce identical bytes. Corpus
and split rows are sorted by model id; every other writer takes its rows in
id order and refuses a row out of it, so none holds its input whole, and
datasets are read only in id order.
Every value written is a string, a list of strings or a list of string lists,
so each row is spelled straight from its fields, with the string quoting of
the stdlib `json` encoder, into the bytes it gives with `ensure_ascii=False`.
"""

from __future__ import annotations

import json
import os
import re
import shutil
from collections import defaultdict
from contextlib import suppress
from json.encoder import encode_basestring as _quote
from operator import attrgetter, itemgetter
from pathlib import Path
from typing import IO, Any, Callable, Iterable, Iterator

from .core import ProcessModel, tree_labels
from .promptgen import FtExample, PromptBundle
from .taskgen import (
    LABEL_ANOMALOUS,
    LABEL_VALID,
    Rejection,
    RejectionReason,
    Split,
    Task,
    TaskRecord,
)
from .tree_dsl import TreeSyntaxError, parse_tree, render_tree


class FileFormatError(ValueError):
    """Raised for unreadable lines; carries the path and line number, if known."""

    def __init__(self, path: str | Path, line_number: int | None, reason: str) -> None:
        where = path if line_number is None else f"{path}:{line_number}"
        super().__init__(f"{where}: {reason}")
        self.path = str(path)
        self.line_number = line_number
        self.reason = reason


def _read_objects(path: str | Path) -> Iterator[tuple[int, dict[str, Any]]]:
    """Each JSON object of the file with its line number. The file is opened
    at the call, so a file that cannot be opened fails there, not at the
    first line read."""
    objects = _objects(path)
    next(objects)
    return objects


# The `json` module's C scanner: one call decodes one value and gives where
# it ends, with none of `json.loads`'s checks around it.
_scan = json.JSONDecoder().scan_once


def _objects(path: str | Path) -> Iterator[Any]:
    # `surrogateescape` reads each byte that does not decode as a lone
    # surrogate, absent from UTF-8, so the lines are judged in file order.
    with open(path, encoding="utf-8", errors="surrogateescape") as handle:
        yield None  # the file is open
        for line_number, line in enumerate(handle, start=1):
            if not line.isascii() and re.search(r"[\udc80-\udcff]", line):
                raise FileFormatError(path, line_number, "not UTF-8")
            stripped = line.strip()
            if not stripped:
                continue
            # A line is taken from the scanner only if its one value spans
            # all of it; `json.loads` decodes every other line alike or
            # raises the error that names what is wrong with it.
            try:
                obj, end = _scan(stripped, 0)
            except (StopIteration, ValueError, RecursionError):
                end = -1
            if end != len(stripped):
                try:
                    obj = json.loads(stripped)
                except json.JSONDecodeError as exc:
                    raise FileFormatError(path, line_number, f"bad JSON: {exc}") from None
                except RecursionError:
                    reason = "bad JSON: nested too deeply"
                    raise FileFormatError(path, line_number, reason) from None
            if type(obj) is not dict:
                raise FileFormatError(path, line_number, "expected a JSON object")
            yield line_number, obj


def _write_file(path: str | Path, fill: Callable[[IO], None], **how: str) -> None:
    """Open a sibling temp file of the resolved path with `open(temp, **how)`,
    fill it, then move it over the destination with the destination's mode,
    so a failed write leaves the old file or none. A destination that exists
    but is not a regular file, such as a FIFO or `/dev/stdout`, is written in
    place. An error in writing names `path`, not the temp file."""
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, **how) as handle:
            fill(handle)
        return
    target = os.path.realpath(path)
    temp = os.path.join(os.path.dirname(target), f".{os.path.basename(target)}.tmp")
    try:
        with open(temp, **how) as handle:
            fill(handle)
        with suppress(FileNotFoundError):
            shutil.copymode(target, temp)
        os.replace(temp, target)
    except BaseException as exc:
        with suppress(FileNotFoundError):
            os.remove(temp)
        if isinstance(exc, OSError) and exc.filename == temp:
            # Name the destination the caller gave, not the temp file.
            raise OSError(exc.errno, exc.strerror, os.fspath(path)) from None
        raise


def _write_text(path: str | Path, lines: Iterable[str]) -> None:
    """Write `lines` to `path` by `_write_file`'s rules."""
    _write_file(path, lambda handle: handle.writelines(lines), mode="w", encoding="utf-8")


# Bytes per read when joining files; a small buffer keeps the peak memory of
# a join that of the caller.
_COPY_CHUNK = 1 << 16


def join_files(path: str | Path, parts: Iterable[str | Path]) -> None:
    """Write the bytes of `parts`, one after another, to `path` by
    `_write_file`'s rules. An error in reading a part names the part."""

    def fill(handle: IO[bytes]) -> None:
        for part in parts:
            with open(part, "rb") as source:
                shutil.copyfileobj(source, handle, _COPY_CHUNK)

    _write_file(path, fill, mode="wb")


_BY_RECORD_ID = attrgetter("record_id")
_BY_MODEL_ID = attrgetter("model_id")


def _row(**spelled: str) -> str:
    """One row from values already spelled as JSON, keys in argument order."""
    return "{" + ", ".join(f'"{key}": {value}' for key, value in spelled.items()) + "}\n"


def _strings(values: Iterable[str]) -> str:
    """A JSON array of strings, with the `json` encoder's `", "` separator."""
    return "[" + ", ".join(map(_quote, values)) + "]"


def _string_lists(lists: Iterable[Iterable[str]]) -> str:
    return "[" + ", ".join(map(_strings, lists)) + "]"


def _require(obj: dict[str, Any], key: str, path: str | Path, line_number: int) -> Any:
    if key not in obj:
        raise FileFormatError(path, line_number, f"missing key {key!r}")
    return obj[key]


def _require_str(obj: dict[str, Any], key: str, path: str | Path, line_number: int) -> str:
    value = _require(obj, key, path, line_number)
    if not isinstance(value, str):
        raise FileFormatError(path, line_number, f"{key!r} must be a string")
    return value


def first_line(path: str | Path, key: str, value: str) -> int | None:
    """The line of the first row whose field `key` is `value`, from reading
    the file again on an error path; None if it cannot be, as for a pipe."""
    if not os.path.isfile(path):
        return None
    return next((n for n, obj in _read_objects(path) if obj.get(key) == value), None)


def _read_id_map(
    path: str | Path, key: str, field: str, convert: Callable[[str], Any]
) -> dict[str, Any]:
    """Each row's string `field`, through `convert`, under the row's string
    id `key`, in file order; no two rows share an id, and a value `convert`
    refuses with a ValueError is unknown."""
    values: dict[str, Any] = {}
    for line_number, obj in _read_objects(path):
        # A string is taken as it is; anything else raises in `_require_str`.
        row_id = obj.get(key)
        if type(row_id) is not str:
            row_id = _require_str(obj, key, path, line_number)
        if row_id in values:
            first = first_line(path, key, row_id)
            where = "" if first is None else f" (first on line {first})"
            raise FileFormatError(path, line_number, f"duplicate {key} {row_id!r}{where}")
        value = obj.get(field)
        if type(value) is not str:
            value = _require_str(obj, field, path, line_number)
        try:
            values[row_id] = convert(value)
        except ValueError:
            raise FileFormatError(path, line_number, f"unknown {field} {value!r}") from None
    return values


# The rule of every file whose rows are in id order, as (kind, id, previous id).
_OUT_OF_ORDER = "{} {!r} follows {!r}; ids must increase"


# ---------------------------------------------------------------------------
# Corpus files: {"model_id", "name"?, "tree"}


def read_corpus(path: str | Path) -> list[ProcessModel | Rejection]:
    """The rows of a corpus file in file order, each a model with its line;
    a row whose tree does not parse stands as its `parse_error` rejection."""
    rows: list[ProcessModel | Rejection] = []
    for line_number, obj in _read_objects(path):
        model_id = _require_str(obj, "model_id", path, line_number)
        tree_text = _require_str(obj, "tree", path, line_number)
        name = obj.get("name")
        if name is not None and not isinstance(name, str):
            raise FileFormatError(path, line_number, "'name' must be a string")
        try:
            tree = parse_tree(tree_text)
        except TreeSyntaxError as exc:
            rows.append(
                Rejection(model_id, RejectionReason.PARSE_ERROR, str(exc), line_number)
            )
            continue
        rows.append(ProcessModel(model_id, tree, name=name, line=line_number))
    return rows


def write_corpus(path: str | Path, models: Iterable[ProcessModel]) -> None:
    def row(model: ProcessModel) -> str:
        name = {} if model.name is None else {"name": _quote(model.name)}
        return _row(model_id=_quote(model.model_id), **name, tree=_quote(render_tree(model.tree)))

    _write_text(path, map(row, sorted(models, key=_BY_MODEL_ID)))


# ---------------------------------------------------------------------------
# Dataset files: TaskRecord rows


def _is_strings(value: Any) -> bool:
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


def _is_string_pair(value: Any) -> bool:
    return _is_strings(value) and len(value) == 2


_STRING = (lambda v: isinstance(v, str), "a string", str, _quote)
_STRINGS = (_is_strings, "a list of strings", tuple, _strings)
_PAIR = (_is_string_pair, "a list of two strings", tuple, _strings)
_LABEL = (lambda v: v in (LABEL_VALID, LABEL_ANOMALOUS), "Valid or Anomalous", str, _quote)
_SET = (lambda v: _is_strings(v) and len(set(v)) == len(v), "a list of distinct strings",
        tuple, _strings)
_EDGES = (
    lambda v: isinstance(v, list) and all(map(_is_string_pair, v)),
    "a list of string pairs",
    lambda v: tuple(map(tuple, v)),
    _string_lists,
)

# The fields of each task's rows besides `record_id`, `task`, `model_id` and
# `activity_set`, in row order: key → (shape check, the shape it wants,
# conversion to the record's value, spelling of the record's value). Beyond
# these, rows are checked only across fields (sdfd edges, sptd leaves),
# because every pipeline pass reads its datasets several times.
_FIELDS = {
    Task.TSAD: {"trace": _STRINGS, "label": _LABEL},
    Task.ASAD: {"pair": _PAIR, "label": _LABEL},
    Task.SNAP: {"prefix": _STRINGS, "next_activity": _STRING},
    Task.SDFD: {"edges": _EDGES},
    Task.SPTD: {"tree_text": _STRING},
}
# The other tasks' fields, which a row may not carry.
_FOREIGN = {
    task: set().union(*_FIELDS.values()) - fields.keys() for task, fields in _FIELDS.items()
}


# `obj_to_record` fills a record's slots through their descriptors, as the
# frozen dataclass's `__init__` does through `object.__setattr__`, at about
# half the cost per record; `TaskRecord` has no `__post_init__` to skip.
_PUT = {name: getattr(TaskRecord, name).__set__ for name in TaskRecord.__slots__}
# Each task's fields as `obj_to_record` checks them, in order, with their
# setters; and the setters of the slots its rows leave None.
_CHECKED = {
    task: tuple((key, spec, _PUT[key]) for key, spec in (("activity_set", _SET), *fields.items()))
    for task, fields in _FIELDS.items()
}
_ABSENT = {
    task: tuple(put for name, put in _PUT.items()
                if name not in ("record_id", "task", "model_id", "activity_set", *fields))
    for task, fields in _FIELDS.items()
}
_PUT_RECORD_ID, _PUT_TASK, _PUT_MODEL_ID = _PUT["record_id"], _PUT["task"], _PUT["model_id"]
# Each task by its value, so a row's task is found with one lookup.
_TASK_OF = {task.value: task for task in Task}


def _field(
    obj: dict[str, Any], key: str, spec: tuple, seen: dict[Any, Any],
    path: str | Path, line_number: int,
) -> Any:
    """The value of field `key`, checked and converted by `spec`, as the one
    copy of an equal value that `seen` holds; `obj_to_record` calls it for
    a value it does not find there."""
    value = _require(obj, key, path, line_number)
    is_valid, shape, convert, _ = spec
    if not is_valid(value):
        raise FileFormatError(path, line_number, f"{key!r} must be {shape}")
    converted = convert(value)
    return seen.setdefault(converted, converted)


def obj_to_record(
    obj: dict[str, Any],
    path: str | Path,
    line_number: int,
    shared: defaultdict[str, dict[Any, Any]],
) -> TaskRecord:
    """The record of one row as `json` decodes it. Rows read with the same
    `shared` dict share every equal field value and `model_id`."""
    try:
        task = _TASK_OF[obj["task"]]
    except (KeyError, TypeError):
        # A row with no `task` names task None.
        raise FileFormatError(path, line_number, f"unknown task {obj.get('task')!r}") from None
    if not _FOREIGN[task].isdisjoint(obj):
        key = next(k for k in obj if k in _FOREIGN[task])
        raise FileFormatError(path, line_number, f"{key!r} is not a {task.value} field")
    # Only checked values enter `seen`, so a value equal to one of them is
    # that copy, found with one lookup and no second check. A list is looked
    # up as the tuple it converts to and any other value as it is: no JSON
    # value but a list equals a tuple, and none but a string a string. A
    # missing key, a value that cannot be hashed and a new value go to
    # `_field`, which checks them in full.
    record = object.__new__(TaskRecord)
    for key, spec, put in _CHECKED[task]:
        seen = shared[key]
        value = obj.get(key)
        try:
            put(record, seen[tuple(value) if type(value) is list else value])
        except (KeyError, TypeError):
            put(record, _field(obj, key, spec, seen, path, line_number))
    for put in _ABSENT[task]:
        put(record, None)
    activities = record.activity_set
    if task is Task.SDFD and not {a for e in record.edges for a in e} <= set(activities):
        raise FileFormatError(path, line_number, "'edges' must join members of 'activity_set'")
    if task is Task.SPTD:
        try:
            leaves = tree_labels(parse_tree(record.tree_text))
        except TreeSyntaxError as exc:
            raise FileFormatError(path, line_number, f"'tree_text' does not parse: {exc}") from None
        if sorted(leaves) != sorted(activities):
            reason = "'activity_set' must list the leaves of 'tree_text'"
            raise FileFormatError(path, line_number, reason)
    record_id = obj.get("record_id")
    if type(record_id) is not str:
        record_id = _require_str(obj, "record_id", path, line_number)
    seen = shared["model_id"]
    try:
        model_id = seen[obj.get("model_id")]
    except (KeyError, TypeError):
        model_id = _field(obj, "model_id", _STRING, seen, path, line_number)
    _PUT_RECORD_ID(record, record_id)
    _PUT_TASK(record, task)
    _PUT_MODEL_ID(record, model_id)
    return record


def iter_dataset(path: str | Path) -> Iterator[TaskRecord]:
    """The records of a dataset file, one at a time; all of its rows belong
    to one task, and each `record_id` is greater than the one before it, as
    `write_dataset` writes them. The file is opened at the call, and a row
    that breaks a rule raises when it is reached. The rows of one model
    share their equal field values and `model_id`; the values of a model
    are let go when the next model's rows begin."""
    return _records(path, _read_objects(path))


def _records(
    path: str | Path, objects: Iterator[tuple[int, dict[str, Any]]]
) -> Iterator[TaskRecord]:
    last: TaskRecord | None = None
    model_id: Any = None
    shared: defaultdict[str, dict[Any, Any]] = defaultdict(dict)
    for n, obj in objects:
        if obj.get("model_id") != model_id:
            model_id, shared = obj.get("model_id"), defaultdict(dict)
        record = obj_to_record(obj, path, n, shared)
        if last is not None:
            if record.task is not last.task:
                reason = f"{record.task.value} row in a {last.task.value} dataset"
                raise FileFormatError(path, n, reason)
            if record.record_id <= last.record_id:
                reason = _OUT_OF_ORDER.format("record", record.record_id, last.record_id)
                raise FileFormatError(path, n, reason)
        last = record
        yield record


def read_dataset(path: str | Path) -> list[TaskRecord]:
    """The records of a dataset file by the rules of `iter_dataset`, as one list."""
    return list(iter_dataset(path))


# Each task's fields as (the row text before the value, key, spelling).
_SPELLINGS = {
    task: tuple((f', "{key}": ', key, spell) for key, (_, _, _, spell) in fields.items())
    for task, fields in _FIELDS.items()
}


def _in_id_order(items: Iterable[Any], kind: str, id_of: Callable[[Any], str]) -> Iterator[Any]:
    """`items` in the order given, each of whose ids must be greater than
    the one before it; an item out of that order is a ValueError naming it."""
    previous: str | None = None
    for item in items:
        current = id_of(item)
        if previous is not None and current <= previous:
            raise ValueError(_OUT_OF_ORDER.format(kind, current, previous))
        previous = current
        yield item


def _write_rows(
    path: str | Path, items: Iterable[Any], row: Callable[[Any], str],
    id_of: Callable[[Any], str] = _BY_RECORD_ID,
) -> int:
    """Write the `row` of each item in the order given, by `_write_file`'s
    rules, and return how many were written; each item's `id_of` must be
    greater than the one before it, as `_in_id_order` checks."""
    written = 0

    def lines() -> Iterator[str]:
        nonlocal written
        for item in _in_id_order(items, "record", id_of):
            written += 1
            yield row(item)

    _write_text(path, lines())
    return written


def write_dataset(path: str | Path, records: Iterable[TaskRecord]) -> int:
    """Write `records` as dataset rows in the order given and return how many
    were written. Each row is the bytes the `json` encoder gives for the
    record's object: `record_id`, `task`, `model_id`, `activity_set`, then the
    task's fields in `_FIELDS` order; other tasks' fields are not written.

    Each `record_id` must be greater than the one before it, so the file
    holds no id twice and `read_dataset` gives the records back in the same
    order. A record out of that order, or missing one of its task's fields,
    is a ValueError naming the record, and the old file stays."""
    last_key: tuple[Task, str, tuple[str, ...]] | None = None
    head = ""

    def row(record: TaskRecord) -> str:
        nonlocal last_key, head
        record_id = record.record_id
        # A model's rows come together, so its task, model and activity-set
        # part is spelled once per run of them.
        key = (record.task, record.model_id, record.activity_set)
        if key != last_key:
            last_key, head = key, (
                f', "task": {_quote(record.task.value)}'
                f', "model_id": {_quote(record.model_id)}'
                f', "activity_set": {_strings(record.activity_set)}'
            )
        parts = ['{"record_id": ', _quote(record_id), head]
        for before, field, spell in _SPELLINGS[record.task]:
            value = getattr(record, field)
            if value is None:
                raise ValueError(f"record {record_id!r} has no {field!r}")
            parts += (before, spell(value))
        parts.append("}\n")
        return "".join(parts)

    return _write_rows(path, records, row)


# ---------------------------------------------------------------------------
# Sequence files: {"model_id", "sequences"}


# Sequences per piece of a sequence row, so that no row of a large language
# is spelled as one string.
_SEQUENCES_PER_PIECE = 256


def _sequence_row(model_id: str, sequences: list[tuple[str, ...]]) -> Iterator[str]:
    """The `_row` of a model's sorted sequences, in pieces of at most
    `_SEQUENCES_PER_PIECE` sequences."""
    yield f'{{"model_id": {_quote(model_id)}, "sequences": ['
    for start in range(0, len(sequences), _SEQUENCES_PER_PIECE):
        piece = ", ".join(map(_strings, sequences[start:start + _SEQUENCES_PER_PIECE]))
        yield piece if start == 0 else ", " + piece
    yield "]}\n"


def write_sequences(path: str | Path, models: Iterable[ProcessModel]) -> None:
    """Write one row per model, in the order given, with the model's sorted
    sequences; nothing is played out here.

    As with `write_dataset`, each `model_id` must be greater than the one
    before it. A model out of that order, or holding no language, is a
    ValueError naming the model, and the old file stays."""

    def lines() -> Iterator[str]:
        for model in _in_id_order(models, "model", _BY_MODEL_ID):
            if model.sequences is None:
                raise ValueError(f"model {model.model_id!r} holds no language")
            yield from _sequence_row(model.model_id, sorted(model.sequences))

    _write_text(path, lines())


# ---------------------------------------------------------------------------
# Split files: {"model_id", "split"}


def read_split(path: str | Path) -> dict[str, Split]:
    """The split of each model; no two rows name the same model."""
    return _read_id_map(path, "model_id", "split", Split)


def write_split(path: str | Path, mapping: dict[str, Split]) -> None:
    _write_text(path, (
        _row(model_id=_quote(model_id), split=_quote(mapping[model_id].value))
        for model_id in sorted(mapping)
    ))


# ---------------------------------------------------------------------------
# Prompt files


def write_icl_prompts(path: str | Path, bundles: Iterable[PromptBundle]) -> int:
    """Write `bundles` in the order given, each `record_id` greater than the
    one before it, and return how many were written; a bundle out of that
    order is a ValueError naming it, and the old file stays."""
    return _write_rows(path, bundles, lambda b: _row(
        record_id=_quote(b.record_id), task=_quote(b.task.value),
        prompt=_quote(b.prompt_text), shot_record_ids=_strings(b.shot_record_ids),
    ))


def write_ft_examples(path: str | Path, examples: Iterable[FtExample]) -> int:
    """Write `examples` by the rules of `write_icl_prompts`."""
    return _write_rows(path, examples, lambda e: _row(
        record_id=_quote(e.record_id), task=_quote(e.task.value),
        input=_quote(e.input_text), target=_quote(e.target_text),
    ))


# ---------------------------------------------------------------------------
# Prediction files: {"record_id", "prediction"}


def read_predictions(path: str | Path) -> dict[str, str]:
    """Each record id's prediction text, in file order, which may be any; no
    two rows share a `record_id`. Equal texts are one shared string."""
    texts: dict[str, str] = {}
    return _read_id_map(path, "record_id", "prediction", lambda t: texts.setdefault(t, t))


def write_predictions(path: str | Path, predictions: Iterable[tuple[str, str]]) -> int:
    """Write `(record_id, text)` pairs by the rules of `write_icl_prompts`."""
    return _write_rows(
        path, predictions,
        lambda pair: _row(record_id=_quote(pair[0]), prediction=_quote(pair[1])),
        itemgetter(0),
    )
