"""Row encoders of `fileio` against the `json.dumps` oracles in conftest."""

from __future__ import annotations

import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from procsem import (
    LABEL_ANOMALOUS,
    LABEL_VALID,
    ProcessModel,
    Task,
    TaskRecord,
    write_dataset,
    write_sequences,
)

from conftest import oracle_record_line, oracle_sequences_line

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
@given(st.lists(task_records(), max_size=8))
def test_dataset_rows_match_json_dumps(records):
    ordered = sorted(records, key=lambda r: r.record_id)
    expected = "".join(map(oracle_record_line, ordered)).encode("utf-8")
    assert _written(write_dataset, records) == expected


@settings(deadline=None)
@given(
    st.lists(
        st.builds(
            ProcessModel.from_sequences,
            model_id=text,
            sequences=st.lists(strings, max_size=4),
        ),
        max_size=4,
    )
)
def test_sequence_rows_match_json_dumps(models):
    ordered = sorted(models, key=lambda m: m.model_id)
    expected = "".join(map(oracle_sequences_line, ordered)).encode("utf-8")
    assert _written(write_sequences, models) == expected
