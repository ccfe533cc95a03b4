"""Row encoders of `fileio` against the `json.dumps` oracles in conftest,
and the dataset reader against the writer."""

from __future__ import annotations

import json
import os
import stat
import tempfile
import threading
from operator import attrgetter
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from procsem import (
    LABEL_ANOMALOUS,
    LABEL_VALID,
    FileFormatError,
    FtExample,
    Leaf,
    ProcessModel,
    PromptBundle,
    Split,
    Task,
    TaskRecord,
    gen_tsad,
    iter_dataset,
    parse_tree,
    played_out,
    playout,
    read_dataset,
    read_predictions,
    render_tree,
    write_corpus,
    write_dataset,
    write_ft_examples,
    write_icl_prompts,
    write_predictions,
    write_sequences,
    write_split,
)
from procsem import fileio
from procsem.core import tree_labels

from conftest import (
    oracle_corpus_line,
    oracle_ft_line,
    oracle_icl_line,
    oracle_objects,
    oracle_prediction_line,
    oracle_record_line,
    oracle_records,
    oracle_sequences_line,
    oracle_split_line,
    replace,
    tree_strategy,
)

# Characters JSON escapes or that a hand-written encoder gets wrong: quote,
# backslash, control characters, the JavaScript line separators, non-ASCII
# and non-BMP text. Lone surrogates are left out: no UTF-8 file holds them.
_TRICKY = st.sampled_from(
    ['"', "\\", "\x00", "\x1f", "\x7f", "\n", "\t", "\u2028", "\u2029", "\xe9", "\U0001d11e"]
)
text = st.text(
    alphabet=st.one_of(_TRICKY, st.characters(blacklist_categories=("Cs",))),
    max_size=6,
)
strings = st.lists(text, max_size=4).map(tuple)
string_pairs = st.tuples(text, text)

_PAYLOADS = {
    Task.TSAD: st.fixed_dictionaries(
        {"trace": strings, "label": st.sampled_from([LABEL_VALID, LABEL_ANOMALOUS])}
    ),
    Task.ASAD: st.fixed_dictionaries(
        {"pair": string_pairs, "label": st.sampled_from([LABEL_VALID, LABEL_ANOMALOUS])}
    ),
    Task.SNAP: st.fixed_dictionaries({"prefix": strings, "next_activity": text}),
    Task.SDFD: st.fixed_dictionaries(
        {"edges": st.lists(string_pairs, max_size=4).map(tuple)}
    ),
    Task.SPTD: st.fixed_dictionaries({"tree_text": text}),
}


@st.composite
def task_records(draw) -> TaskRecord:
    task = draw(st.sampled_from(list(Task)))
    return TaskRecord(
        record_id=draw(text),
        task=task,
        # Few model ids, so that one model id meets several tasks and
        # activity sets within one file.
        model_id=draw(st.sampled_from(["m1", "m2"]) | text),
        activity_set=draw(strings),
        **draw(_PAYLOADS[task]),
    )


def _written(write, rows) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "rows.jsonl"
        write(path, rows)
        return path.read_bytes()


@settings(max_examples=150, deadline=None)
@given(st.lists(task_records(), max_size=8, unique_by=attrgetter("record_id")))
def test_dataset_rows_match_json_dumps(records):
    ordered = sorted(records, key=lambda r: r.record_id)
    expected = "".join(map(oracle_record_line, ordered)).encode("utf-8")
    assert _written(write_dataset, ordered) == expected


# `write_sequences` reads only a model's id and sequences, so a stand-in
# carries sequences of any text, which no tree's labels could spell.
@settings(deadline=None)
@given(
    st.lists(
        st.builds(
            SimpleNamespace,
            model_id=text,
            sequences=st.frozensets(strings, max_size=4),
        ),
        max_size=4,
        unique_by=attrgetter("model_id"),
    )
)
def test_sequence_rows_match_json_dumps(models):
    ordered = sorted(models, key=attrgetter("model_id"))
    expected = "".join(map(oracle_sequences_line, ordered)).encode("utf-8")
    assert _written(write_sequences, ordered) == expected


@pytest.mark.parametrize("second", ["m1", "m0"])
def test_sequence_rows_need_increasing_model_ids(tmp_path, second):
    # The order rule of `write_dataset`: a model whose id does not follow
    # the one before it is refused, and the old file stays.
    path = tmp_path / "sequences.jsonl"
    path.write_bytes(b"old\n")
    models = [
        SimpleNamespace(model_id="m1", sequences=frozenset({("a",)})),
        SimpleNamespace(model_id=second, sequences=frozenset({("b",)})),
    ]
    with pytest.raises(ValueError, match=f"model '{second}' follows 'm1'; ids must increase"):
        write_sequences(path, models)
    assert path.read_bytes() == b"old\n"
    assert os.listdir(tmp_path) == ["sequences.jsonl"]


def test_sequence_rows_need_a_played_out_model(tmp_path):
    # An admitted model holds no language, and `write_sequences` plays none out.
    model = ProcessModel("m", parse_tree("->('a', 'b')"))
    with pytest.raises(ValueError, match="model 'm' holds no language"):
        write_sequences(tmp_path / "sequences.jsonl", [model])
    write_sequences(tmp_path / "sequences.jsonl", [played_out(model)])
    assert json.loads((tmp_path / "sequences.jsonl").read_text("utf-8")) == {
        "model_id": "m", "sequences": [["a", "b"]]
    }


@pytest.mark.parametrize(
    "size",
    [0, 1, fileio._SEQUENCES_PER_PIECE, fileio._SEQUENCES_PER_PIECE + 1],
)
def test_sequence_rows_are_spelled_whole_at_the_piece_boundaries(size):
    # A row is written in pieces; its bytes are those of the one-string row.
    models = [
        SimpleNamespace(model_id="m", sequences=frozenset((f"a{i}", '"') for i in range(size))),
        SimpleNamespace(model_id="n", sequences=frozenset({("b",)})),
    ]
    expected = "".join(map(oracle_sequences_line, models)).encode("utf-8")
    assert _written(write_sequences, models) == expected


def test_sequence_row_of_a_seven_leaf_shuffle():
    model = playout(parse_tree("+('a', 'b', 'c', 'd', 'e', 'f', 'g')"), model_id="m")
    assert len(model.sequences) == 5040
    assert _written(write_sequences, [model]) == oracle_sequences_line(model).encode("utf-8")


def _expected(oracle, rows, key) -> bytes:
    return "".join(map(oracle, sorted(rows, key=key))).encode("utf-8")


@settings(deadline=None)
@given(
    st.lists(
        st.builds(
            ProcessModel,
            model_id=text,
            tree=tree_strategy(max_leaves=4),
            name=st.none() | text,
        ),
        max_size=4,
    )
)
@example([ProcessModel("m2", Leaf("a"), name='"x"'), ProcessModel("m1", Leaf("b"))])
def test_corpus_rows_match_json_dumps(entries):
    expected = _expected(oracle_corpus_line, entries, attrgetter("model_id"))
    assert _written(write_corpus, entries) == expected


@settings(deadline=None)
@given(st.dictionaries(text, st.sampled_from(list(Split)), max_size=5))
def test_split_rows_match_json_dumps(mapping):
    expected = "".join(oracle_split_line(m, mapping[m]) for m in sorted(mapping))
    assert _written(write_split, mapping) == expected.encode("utf-8")


tasks = st.sampled_from(list(Task))


@settings(deadline=None)
@given(st.lists(st.builds(PromptBundle, text, tasks, text, strings), max_size=5,
                unique_by=attrgetter("record_id")))
def test_icl_rows_match_json_dumps(bundles):
    bundles.sort(key=attrgetter("record_id"))
    expected = _expected(oracle_icl_line, bundles, attrgetter("record_id"))
    assert _written(write_icl_prompts, bundles) == expected


@settings(deadline=None)
@given(st.lists(st.builds(FtExample, text, tasks, text, text), max_size=5,
                unique_by=attrgetter("record_id")))
def test_ft_rows_match_json_dumps(examples):
    examples.sort(key=attrgetter("record_id"))
    expected = _expected(oracle_ft_line, examples, attrgetter("record_id"))
    assert _written(write_ft_examples, examples) == expected


@settings(deadline=None)
@given(st.dictionaries(text, text, max_size=5))
def test_prediction_rows_match_json_dumps(predictions):
    expected = "".join(oracle_prediction_line(i, predictions[i]) for i in sorted(predictions))
    assert _written(write_predictions, sorted(predictions.items())) == expected.encode("utf-8")


@settings(deadline=None)
@given(st.dictionaries(text, st.sampled_from(["Valid", "x\u2028", ""]) | text, max_size=6))
def test_prediction_maps_round_trip(predictions):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "predictions.jsonl"
        write_predictions(path, sorted(predictions.items()))
        read = read_predictions(path)
    assert read == predictions
    assert list(read) == sorted(predictions)
    held: dict[str, str] = {}
    assert all(held.setdefault(t, t) is t for t in read.values())


def test_prediction_rows_may_come_in_any_order(tmp_path):
    path = tmp_path / "predictions.jsonl"
    path.write_text(
        oracle_prediction_line("b", "Valid") + oracle_prediction_line("a", "Valid"),
        encoding="utf-8",
    )
    read = read_predictions(path)
    assert list(read.items()) == [("b", "Valid"), ("a", "Valid")]
    assert read["a"] is read["b"]


@pytest.mark.parametrize("pipe, first", [(False, " (first on line 1)"), (True, "")],
                         ids=["file", "pipe"])
def test_repeated_prediction_names_its_first_line(tmp_path, pipe, first):
    # A pipe cannot be read again to find the first row, so that goes unnamed.
    path = tmp_path / "predictions.jsonl"
    rows = [("a", "Valid"), ("b", "Valid"), ("a", "Anomalous")]
    text = "".join(oracle_prediction_line(*row) for row in rows)
    if pipe:
        os.mkfifo(path)
        threading.Thread(target=lambda: path.write_text(text, "utf-8"), daemon=True).start()
    else:
        path.write_text(text, encoding="utf-8")
    with pytest.raises(FileFormatError) as exc_info:
        read_predictions(path)
    assert str(exc_info.value) == f"{path}:3: duplicate record_id 'a'{first}"


# ---------------------------------------------------------------------------
# Reading back what the writer wrote


def _read_both(path) -> list[TaskRecord]:
    """The records of a dataset file as `read_dataset` lists them, which
    `iter_dataset` gives one at a time; or the error that both raise alike."""
    try:
        streamed = list(iter_dataset(path))
    except FileFormatError as exc:
        with pytest.raises(FileFormatError) as exc_info:
            read_dataset(path)
        assert str(exc_info.value) == str(exc)
        raise
    listed = read_dataset(path)
    assert listed == streamed
    return listed


def _distinct_leaves(tree) -> bool:
    labels = tree_labels(tree)
    return len(set(labels)) == len(labels)


@st.composite
def consistent_records(draw, task: Task, values: st.SearchStrategy[str] = text) -> TaskRecord:
    """Records that every reader check accepts: a distinct activity set,
    sdfd edges inside it, and an sptd tree whose leaves it lists. Model ids,
    activities and trace items are drawn from `values`."""
    if task is Task.SPTD:
        tree = draw(tree_strategy(max_leaves=6).filter(_distinct_leaves))
        activities = tuple(draw(st.permutations(tree_labels(tree))))
        payload = {"tree_text": render_tree(tree)}
    else:
        activities = tuple(draw(st.lists(values, max_size=4, unique=True)))
        label = st.sampled_from([LABEL_VALID, LABEL_ANOMALOUS])
        member = st.sampled_from(activities or ("",))
        edges = st.lists(st.tuples(member, member), max_size=4 if activities else 0)
        trace = st.lists(values, max_size=4).map(tuple)
        payload = draw(
            {
                Task.TSAD: st.fixed_dictionaries({"trace": trace, "label": label}),
                Task.ASAD: st.fixed_dictionaries(
                    {"pair": st.tuples(values, values), "label": label}
                ),
                Task.SNAP: st.fixed_dictionaries({"prefix": trace, "next_activity": values}),
                Task.SDFD: st.fixed_dictionaries({"edges": edges.map(tuple)}),
            }[task]
        )
    return TaskRecord(
        record_id=draw(text),
        task=task,
        model_id=draw(st.sampled_from(["m1", "m2"]) | values),
        activity_set=activities,
        **payload,
    )


@settings(max_examples=150, deadline=None)
@given(
    tasks.flatmap(
        lambda task: st.lists(
            consistent_records(task), max_size=6, unique_by=attrgetter("record_id")
        )
    )
)
def test_dataset_round_trip(records):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "rows.jsonl"
        assert write_dataset(path, sorted(records, key=attrgetter("record_id"))) == len(records)
        assert _read_both(path) == sorted(records, key=attrgetter("record_id"))


_FIELD_NAMES = {
    Task.TSAD: ("trace", "label"),
    Task.ASAD: ("pair", "label"),
    Task.SNAP: ("prefix", "next_activity"),
    Task.SDFD: ("edges",),
    Task.SPTD: ("tree_text",),
}


@settings(max_examples=150, deadline=None)
@given(
    tasks.flatmap(
        lambda task: st.lists(
            consistent_records(task, values=st.sampled_from(["a", "b", "\u2028"])),
            max_size=8,
            unique_by=attrgetter("record_id"),
        )
    )
)
def test_round_trip_shares_equal_values(records):
    # Few distinct values, so that rows repeat each other's values and the
    # reader shares most of them with the rows of the same model before
    # them; a row of another model starts the sharing afresh.
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "rows.jsonl"
        write_dataset(path, sorted(records, key=attrgetter("record_id")))
        read = _read_both(path)
    assert read == sorted(records, key=attrgetter("record_id"))
    held: dict = {}
    model_id = None
    for record in read:
        if record.model_id != model_id:
            model_id, held = record.model_id, {}
        for key in ("model_id", "activity_set", *_FIELD_NAMES[record.task]):
            value = getattr(record, key)
            assert held.setdefault((key, value), value) is value


def test_rows_of_one_model_share_their_values(tmp_path):
    tree = parse_tree("->('a', X('b', 'c'), 'd')")
    records = gen_tsad(playout(tree, model_id="m1"), seed=3)
    path = tmp_path / "tsad.jsonl"
    write_dataset(path, records)
    read = _read_both(path)
    assert read == sorted(records, key=attrgetter("record_id"))
    first = read[0]
    assert all(r.activity_set is first.activity_set for r in read)
    assert all(r.model_id is first.model_id for r in read)
    traces = {r.trace: r.trace for r in read}
    assert all(r.trace is traces[r.trace] for r in read)
    assert len(traces) < len(read)


def test_foreign_payload_key_is_fatal(tmp_path):
    record = TaskRecord("r1", Task.TSAD, "m1", ("a", "b"), trace=("a", "b"), label=LABEL_VALID)
    path = tmp_path / "tsad.jsonl"
    write_dataset(path, [record])
    row = json.loads(path.read_text("utf-8"))
    row["edges"] = [["a", "b"]]
    path.write_text("\n" + json.dumps(row) + "\n", encoding="utf-8")
    with pytest.raises(FileFormatError) as exc_info:
        _read_both(path)
    assert str(exc_info.value) == f"{path}:2: 'edges' is not a tsad field"



@pytest.mark.parametrize(
    "activity_set",
    [["a", "b", "a"], ["a", "b", 1], ["a", ["b"]], ["a", {"b": 1}], "ab", {"a": 1, "b": 2}],
)
def test_value_near_an_accepted_one_is_still_checked(tmp_path, activity_set):
    # The second row differs from the first, which passed, by a repeat, a
    # value that is no string, or a string or object whose characters or
    # keys are the first row's list; it is checked, not taken for the first.
    record = TaskRecord("r1", Task.TSAD, "m1", ("a", "b"), trace=("a", "b"), label=LABEL_VALID)
    path = tmp_path / "tsad.jsonl"
    write_dataset(path, [record])
    row = json.loads(path.read_text("utf-8"))
    bad = {**row, "record_id": "r2", "activity_set": activity_set}
    path.write_text(json.dumps(row) + "\n" + json.dumps(bad) + "\n", encoding="utf-8")
    with pytest.raises(FileFormatError) as exc_info:
        _read_both(path)
    assert str(exc_info.value) == f"{path}:2: 'activity_set' must be a list of distinct strings"


@st.composite
def records_with_foreign_fields(draw) -> tuple[TaskRecord, TaskRecord]:
    """A record every reader check accepts, and a copy that also carries
    some of the other tasks' fields."""
    record = draw(tasks.flatmap(consistent_records))
    offered: dict = {}
    for task in Task:
        offered.update(draw(_PAYLOADS[task]))
    foreign = {key: value for key, value in offered.items() if getattr(record, key) is None}
    keys = draw(st.lists(st.sampled_from(sorted(foreign)), min_size=1, unique=True))
    return record, replace(record, **{key: foreign[key] for key in keys})


@settings(max_examples=100, deadline=None)
@given(records_with_foreign_fields())
def test_foreign_fields_are_not_written(pair):
    record, carrier = pair
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "rows.jsonl"
        write_dataset(path, [carrier])
        assert _read_both(path) == [record]


def test_record_missing_a_task_field_is_not_written(tmp_path):
    record = TaskRecord("r1", Task.TSAD, "m1", ("a", "b"), trace=("a", "b"))
    with pytest.raises(ValueError, match="^record 'r1' has no 'label'$"):
        write_dataset(tmp_path / "tsad.jsonl", [record])


def test_failed_write_leaves_the_old_file(tmp_path):
    good = TaskRecord("r0", Task.TSAD, "m1", ("a", "b"), trace=("a", "b"), label=LABEL_VALID)
    bad = replace(good, record_id="r1", label=None)
    path = tmp_path / "tsad.jsonl"
    path.write_bytes(b"old\n")
    with pytest.raises(ValueError, match="^record 'r1' has no 'label'$"):
        write_dataset(path, [good, bad])
    assert path.read_bytes() == b"old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["tsad.jsonl"]


@pytest.mark.parametrize("ids", [("r1", "r1"), ("r2", "r1")])
def test_record_ids_out_of_order_are_not_written(tmp_path, ids):
    # A repeated id would give a file that `read_dataset` rejects.
    first = TaskRecord(ids[0], Task.TSAD, "m1", ("a", "b"), trace=("a", "b"), label=LABEL_VALID)
    second = replace(first, record_id=ids[1])
    path = tmp_path / "tsad.jsonl"
    path.write_bytes(b"old\n")
    with pytest.raises(ValueError) as exc_info:
        write_dataset(path, [first, second])
    assert str(exc_info.value) == f"record {ids[1]!r} follows {ids[0]!r}; ids must increase"
    assert path.read_bytes() == b"old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["tsad.jsonl"]


@pytest.mark.parametrize(
    "write, row",
    [
        (write_icl_prompts, lambda i: PromptBundle(i, Task.TSAD, "prompt", ("s",))),
        (write_ft_examples, lambda i: FtExample(i, Task.TSAD, "input", "target")),
        (write_predictions, lambda i: (i, "Valid")),
    ],
    ids=["icl", "ft", "predictions"],
)
@pytest.mark.parametrize("ids", [("r1", "r1"), ("r2", "r1")])
def test_prompt_and_prediction_rows_out_of_order_are_not_written(tmp_path, write, row, ids):
    # The writers take their rows in id order and sort nothing.
    path = tmp_path / "rows.jsonl"
    path.write_bytes(b"old\n")
    with pytest.raises(ValueError) as exc_info:
        write(path, [row(ids[0]), row(ids[1])])
    assert str(exc_info.value) == f"record {ids[1]!r} follows {ids[0]!r}; ids must increase"
    assert path.read_bytes() == b"old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["rows.jsonl"]
    assert write(path, iter([row("r1"), row("r2")])) == 2


def test_dataset_is_opened_at_the_call(tmp_path):
    with pytest.raises(FileNotFoundError):
        iter_dataset(tmp_path / "missing.jsonl")


def test_values_are_shared_within_a_model(tmp_path):
    # A model's values are let go when the next model's rows begin, so an
    # equal value of another model is a copy of its own.
    first = TaskRecord("a:1", Task.TSAD, "m1", ("a", "b"), trace=("a", "b"), label=LABEL_VALID)
    records = [first, replace(first, record_id="a:2"), replace(first, record_id="b:1",
                                                                model_id="m2")]
    path = tmp_path / "tsad.jsonl"
    write_dataset(path, records)
    read = _read_both(path)
    assert read == records
    assert read[1].trace is read[0].trace
    assert read[2].trace == read[0].trace and read[2].trace is not read[0].trace


@settings(max_examples=150, deadline=None)
@given(
    tasks.flatmap(lambda task: st.lists(consistent_records(task), max_size=5)),
    st.lists(st.sampled_from(["r1", "r2", "r3", "r4"]), min_size=5, max_size=5),
)
def test_dataset_order_is_read_as_it_is_written(records, ids):
    # Few ids, so that rows often come out of order or repeat an id. What
    # `write_dataset` accepts comes back equal and in order; what it refuses,
    # spelled row by row as given, `read_dataset` refuses for the same reason
    # at the first row out of order.
    records = [replace(r, record_id=i) for r, i in zip(records, ids)]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "rows.jsonl"
        try:
            write_dataset(path, records)
        except ValueError as exc:
            path.write_text("".join(map(oracle_record_line, records)), encoding="utf-8")
            line = next(
                n for n in range(2, len(records) + 1)
                if records[n - 1].record_id <= records[n - 2].record_id
            )
            with pytest.raises(FileFormatError) as exc_info:
                _read_both(path)
            assert str(exc_info.value) == f"{path}:{line}: {exc}"
        else:
            assert _read_both(path) == records


# ---------------------------------------------------------------------------
# The readers against the `json.loads` oracle

_MISSING = object()
# What a field may be broken to: dropped, another shape, a near miss of a
# value the reader accepts, or a number JSON spells `NaN` or `Infinity`.
_BROKEN = st.sampled_from([
    _MISSING, None, 5, True, "a", "ab", {"a": 1}, {"a": 1, "b": 2}, "tsad", LABEL_VALID,
    "->('a', ", [], ["a"], ["a", "a"], ["a", 1], [["a", "b"]], [["a", 1]],
    float("nan"), float("inf"),
])
# Ways to dress a row's line: a BOM, trailing data, a byte that is not
# UTF-8, a repeated key (the last one counts), and whitespace that
# `str.strip` takes off and JSON does not allow.
_DRESSINGS = {
    "bom": lambda line: b"\xef\xbb\xbf" + line,
    "trailing data": lambda line: line + b" x",
    "not utf-8": lambda line: line.replace(b'"', b'"\xff', 1),
    "repeated key": lambda line: line[:-1] + b', "record_id": "zz"}',
    "file separator": lambda line: line + b"\x1c",
    "line separator": lambda line: line + "\u2028".encode(),
    "next line": lambda line: line + "\x85".encode(),
    "no-break space": lambda line: "\xa0".encode() + line,
    "tab and cr": lambda line: b"\t" + line + b"\r",
}
_ODD_LINES = st.sampled_from([
    b"", b"  ", b"\t", b"[1]", b'"x"', b"3", b"null", b"NaN", b"-Infinity", b"{}", b"{} x",
    b"{bad", b"\xef\xbb\xbf{}", b"\xff", b'{"task": "tsad"} {"task": "tsad"}',
])


@st.composite
def reader_files(draw) -> bytes:
    """A dataset file of one task's rows, each with zero, one or two broken
    fields, some dressed, and odd lines among them."""
    task = draw(tasks)
    records = draw(st.lists(
        consistent_records(task, values=st.sampled_from(["a", "b", "\u2028"])),
        min_size=1, max_size=5, unique_by=attrgetter("record_id"),
    ))
    lines = []
    for record in sorted(records, key=attrgetter("record_id")):
        row = json.loads(oracle_record_line(record))
        # Most rows are whole, and most broken fields are the row's own.
        for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
            key = draw(st.sampled_from(sorted(row)) | st.sampled_from(TaskRecord.__slots__))
            value = draw(_BROKEN)
            if value is _MISSING:
                row.pop(key, None)
            else:
                row[key] = value
        line = json.dumps(row, ensure_ascii=False).encode("utf-8")
        if draw(st.integers(0, 3)) == 0:
            line = _DRESSINGS[draw(st.sampled_from(sorted(_DRESSINGS)))](line)
        lines.append(line)
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        lines.insert(draw(st.integers(0, len(lines))), draw(_ODD_LINES))
    return b"".join(line + b"\n" for line in lines)


def _outcome(read, path):
    """What `read(path)` gives, or the text of the FileFormatError it raises."""
    try:
        return read(path)
    except FileFormatError as exc:
        return str(exc)


def _sharing(records) -> list[list[int]]:
    """For each record and field, the first record holding that very object."""
    return [
        [next(i for i, other in enumerate(records) if getattr(other, key) is getattr(r, key))
         for key in TaskRecord.__slots__]
        for r in records
    ]


@settings(max_examples=300, deadline=None)
@given(reader_files())
def test_readers_match_the_json_loads_oracle(content):
    # Equal records sharing the same values, or the same error; and the
    # same objects, or the same error, for the decoder every reader uses.
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "rows.jsonl"
        path.write_bytes(content)
        expected = _outcome(oracle_records, path)
        read = _outcome(_read_both, path)
        objects = _outcome(lambda p: [(n, repr(obj)) for n, obj in fileio._read_objects(p)], path)
        oracle = _outcome(lambda p: [(n, repr(obj)) for n, obj in oracle_objects(p)], path)
    assert read == expected
    if isinstance(expected, list):
        assert _sharing(read) == _sharing(expected)
    assert objects == oracle


@pytest.mark.parametrize(
    "shuffle, line, ids",
    [
        # The fourth row moved up to the second: the old second row follows it.
        (lambda rows: rows.insert(1, rows.pop(3)), 3, ("m1:tsad:00001", "m1:tsad:00003")),
        # The second row written again after the third.
        (lambda rows: rows.insert(3, rows[1]), 4, ("m1:tsad:00001", "m1:tsad:00002")),
    ],
    ids=["moved", "repeated"],
)
def test_a_moved_or_repeated_row_names_both_ids(tmp_path, shuffle, line, ids):
    records = gen_tsad(playout(parse_tree("->('a', X('b', 'c'), 'd')"), model_id="m1"), seed=3)
    path = tmp_path / "tsad.jsonl"
    write_dataset(path, records)
    rows = path.read_text("utf-8").splitlines(keepends=True)
    shuffle(rows)
    path.write_text("".join(rows), encoding="utf-8")
    with pytest.raises(FileFormatError) as exc_info:
        _read_both(path)
    assert str(exc_info.value) == (
        f"{path}:{line}: record {ids[0]!r} follows {ids[1]!r}; ids must increase"
    )


def test_write_through_a_symlink_updates_its_target(tmp_path):
    target = tmp_path / "predictions.jsonl"
    target.write_bytes(b"old\n")
    target.chmod(0o640)
    link = tmp_path / "link.jsonl"
    link.symlink_to(target)
    write_predictions(link, [("r1", "a -> b")])
    assert link.is_symlink()
    assert target.read_bytes() == oracle_prediction_line("r1", "a -> b").encode("utf-8")
    assert stat.S_IMODE(target.stat().st_mode) == 0o640
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.jsonl", "predictions.jsonl"]


def test_write_to_a_fifo_goes_through_it_in_place(tmp_path):
    fifo = tmp_path / "predictions.fifo"
    os.mkfifo(fifo)
    received: list[bytes] = []
    # A daemon thread, so a writer that never opens the FIFO fails the test
    # instead of hanging the run.
    reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
    reader.start()
    write_predictions(fifo, [("r1", "Valid")])
    reader.join(timeout=10)
    assert received == [oracle_prediction_line("r1", "Valid").encode("utf-8")]
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)
    assert [p.name for p in tmp_path.iterdir()] == ["predictions.fifo"]
