"""Shared fixtures and independent oracles.

The oracles re-derive semantics with deliberately different algorithms
(plain recursion instead of the package's iterative tables) so that frozen
expectations in the tests do not depend on the code under test. The
capped play-out, the character-loop tokenizer and the `\\s+` whitespace
rule are step-by-step references for the package's faster kernels, the
play-out-and-footprint record score is the reference for scoring from
edge sets and tree relations, the relation-drawing random footprint is
the reference for drawing edges, the `json.dumps` rows are the
references for every file writer, the `json.loads` decoder with a
checked lookup per field is the reference for every file reader, and the
split over every sequence's first owner is the reference for the split
over shareable sequences.
"""

from __future__ import annotations

import json
import random
import re
from collections import defaultdict

import pytest
from hypothesis import strategies as st

from procsem import (
    DEFAULT_MAX_SEQUENCES,
    LABEL_ANOMALOUS,
    EmptyLabelError,
    FileFormatError,
    Footprint,
    LanguageTooLargeError,
    Leaf,
    MatchingMode,
    OpKind,
    Operator,
    PoolExhaustedError,
    ProcessTree,
    PromptBundle,
    RecordScore,
    Relation,
    Silent,
    Split,
    SplitAssignment,
    Task,
    TaskRecord,
    TreeSyntaxError,
    answer_text,
    generate_task,
    load_templates,
    normalize_label,
    parse_dfg_edges,
    parse_tree,
    playout,
    read_corpus,
    render_tree,
    validate_corpus,
)
from procsem import fileio
from procsem.core import tree_labels
from procsem.evaluation import fold_label
from procsem.promptgen import _fill
from procsem.semantics import MAX_PLAYOUT_LEAVES
from procsem.taskgen import ACTIVITY_BINS, DEFAULT_SPLIT_RATIOS, model_rng
from procsem.tree_dsl import _TAU_SPELLINGS, _UNICODE_OPS, _Parser

M1_TREE_TEXT = (
    "->('receive order', X(->('accept order', 'deliver package'), 'reject order'))"
)


# ---------------------------------------------------------------------------
# procsem's value types by their fields, in place of the `dataclasses` helpers


def asdict(value) -> dict:
    return {name: getattr(value, name) for name in type(value)._fields}


def replace(value, **changes):
    """A copy of `value`, built anew, with some fields changed."""
    return type(value)(**{**asdict(value), **changes})


@pytest.fixture
def m1_tree() -> ProcessTree:
    return parse_tree(M1_TREE_TEXT)


@pytest.fixture
def m1_model(m1_tree):
    return playout(m1_tree, model_id="m1")


# ---------------------------------------------------------------------------
# Oracles


def oracle_interleave(u: tuple, v: tuple) -> set[tuple]:
    if not u:
        return {v}
    if not v:
        return {u}
    out = {(u[0],) + rest for rest in oracle_interleave(u[1:], v)}
    out |= {(v[0],) + rest for rest in oracle_interleave(u, v[1:])}
    return out


def oracle_language(tree: ProcessTree) -> set[tuple]:
    """Reference play-out: direct recursion, no caps, no tables."""
    if isinstance(tree, Leaf):
        return {(tree.label,)}
    if isinstance(tree, Silent):
        return {()}
    langs = [oracle_language(c) for c in tree.children]
    if tree.kind is OpKind.SEQ:
        out = {()}
        for lang in langs:
            out = {u + v for u in out for v in lang}
        return out
    if tree.kind is OpKind.XOR:
        return set().union(*langs)
    if tree.kind is OpKind.AND:
        out = {()}
        for lang in langs:
            out = {
                w for u in out for v in lang for w in oracle_interleave(u, v)
            }
        return out
    body = langs[0]
    out = set(body)
    for redo in langs[1:]:
        out |= {u + v + w for u in body for v in redo for w in body}
    return out


def _capped(language: set[tuple], limit: int) -> set[tuple]:
    if len(language) > limit:
        raise LanguageTooLargeError(limit)
    return language


def _oracle_concat_pair(left: set[tuple], right: set[tuple], limit: int) -> set[tuple]:
    out: set[tuple] = set()
    for u in left:
        for v in right:
            out.add(u + v)
            if len(out) > limit:
                raise LanguageTooLargeError(limit)
    return out


def _oracle_shuffle_pair(u: tuple, v: tuple, limit: int) -> set[tuple]:
    """Suffix table: row i, cell j holds every interleaving of u[i:] and v[j:],
    and every filled cell is checked against the cap."""
    nu, nv = len(u), len(v)
    below: list[set[tuple]] = [{v[j:]} for j in range(nv + 1)]
    for i in range(nu - 1, -1, -1):
        row: list[set[tuple]] = [set() for _ in range(nv + 1)]
        row[nv] = {u[i:]}
        for j in range(nv - 1, -1, -1):
            cell = {(u[i],) + s for s in below[j]}
            cell.update((v[j],) + s for s in row[j + 1])
            row[j] = _capped(cell, limit)
        below = row
    return below[0]


def _oracle_shuffle_languages(left: set[tuple], right: set[tuple], limit: int) -> set[tuple]:
    out: set[tuple] = set()
    for u in left:
        for v in right:
            out.update(_oracle_shuffle_pair(u, v, limit))
            if len(out) > limit:
                raise LanguageTooLargeError(limit)
    return out


def oracle_capped_language(tree: ProcessTree, limit: int) -> set[tuple]:
    """Reference capped play-out: every operator grows its language one
    sequence at a time and checks the cap after each addition."""
    if len(tree_labels(tree)) > MAX_PLAYOUT_LEAVES:
        raise LanguageTooLargeError(limit, too_many_leaves=True)
    return _oracle_capped(tree, limit)


def _oracle_capped(tree: ProcessTree, limit: int) -> set[tuple]:
    if isinstance(tree, Leaf):
        return {(tree.label,)}
    if isinstance(tree, Silent):
        return {()}
    if tree.kind is OpKind.SEQ:
        out: set[tuple] = {()}
        for child in tree.children:
            out = _oracle_concat_pair(out, _oracle_capped(child, limit), limit)
        return out
    if tree.kind is OpKind.XOR:
        out = set()
        for child in tree.children:
            out |= _oracle_capped(child, limit)
        return _capped(out, limit)
    if tree.kind is OpKind.AND:
        out = {()}
        for child in tree.children:
            out = _oracle_shuffle_languages(out, _oracle_capped(child, limit), limit)
        return out
    body = _oracle_capped(tree.children[0], limit)
    out = set(body)
    for redo_child in tree.children[1:]:
        redo = _oracle_capped(redo_child, limit)
        for u in body:
            for v in redo:
                for w in body:
                    out.add(u + v + w)
                    if len(out) > limit:
                        raise LanguageTooLargeError(limit)
    return out


def oracle_collapse_whitespace(text: str) -> str:
    """Reference label whitespace rule: every `\\s+` run becomes one space."""
    return re.sub(r"\s+", " ", text).strip()


def oracle_tokenize(text: str) -> list[tuple[str, str, int]]:
    """Reference tree tokenizer: one character per step, labels included."""
    tokens: list[tuple[str, str, int]] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _UNICODE_OPS:
            tokens.append(("op", _UNICODE_OPS[ch], i))
            i += 1
            continue
        if text.startswith("->", i):
            tokens.append(("op", "->", i))
            i += 2
            continue
        if ch in "X+*":
            tokens.append(("op", ch, i))
            i += 1
            continue
        if ch == "(":
            tokens.append(("lparen", ch, i))
            i += 1
            continue
        if ch == ")":
            tokens.append(("rparen", ch, i))
            i += 1
            continue
        if ch == ",":
            tokens.append(("comma", ch, i))
            i += 1
            continue
        if ch == "'":
            j = i + 1
            parts: list[str] = []
            while j < n:
                c = text[j]
                if c == "\\":
                    if j + 1 >= n:
                        raise TreeSyntaxError(j, "dangling escape in label")
                    parts.append(text[j + 1])
                    j += 2
                    continue
                if c == "'":
                    break
                parts.append(c)
                j += 1
            else:
                raise TreeSyntaxError(i, "unterminated label")
            if j >= n:
                raise TreeSyntaxError(i, "unterminated label")
            tokens.append(("label", "".join(parts), i))
            i = j + 1
            continue
        if ch.isalpha():
            j = i
            while j < n and text[j].isalpha():
                j += 1
            word = text[i:j]
            if word in _TAU_SPELLINGS:
                tokens.append(("tau", word, i))
                i = j
                continue
            raise TreeSyntaxError(i, f"unexpected word {word!r}")
        raise TreeSyntaxError(i, f"unexpected character {ch!r}")
    return tokens


def oracle_parse_tree(text: str) -> ProcessTree:
    """`parse_tree` with the reference tokenizer in front of the package's parser."""
    parser = _Parser(oracle_tokenize(text), len(text))
    tree = parser.parse_tree(0)
    trailing = parser.peek()
    if trailing is not None:
        raise TreeSyntaxError(trailing[2], "trailing input after tree")
    return tree


def oracle_dfg_edges(sequences) -> set[tuple[str, str]]:
    return {
        (s[i], s[i + 1]) for s in sequences for i in range(len(s) - 1)
    }


def oracle_ef_pairs(sequences) -> set[tuple[str, str]]:
    pairs = set()
    for s in sequences:
        for i in range(len(s)):
            pairs.update((s[i], s[j]) for j in range(i + 1, len(s)))
    return pairs


# The relation of (y, x) given the relation of (x, y).
ORACLE_MIRROR = {
    Relation.FORWARD: Relation.BACKWARD,
    Relation.BACKWARD: Relation.FORWARD,
    Relation.PARALLEL: Relation.PARALLEL,
    Relation.NONE: Relation.NONE,
}


def oracle_footprint(activities, edges) -> dict[tuple[str, str], Relation]:
    """Reference footprint: the full map over every ordered pair."""
    relations = {}
    for x in activities:
        for y in activities:
            fwd = (x, y) in edges
            bwd = (y, x) in edges
            if fwd and bwd:
                relations[(x, y)] = Relation.PARALLEL
            elif fwd:
                relations[(x, y)] = Relation.FORWARD
            elif bwd:
                relations[(x, y)] = Relation.BACKWARD
            else:
                relations[(x, y)] = Relation.NONE
    return relations


def oracle_random_footprint(activity_set, rng: random.Random) -> Footprint:
    """Reference random footprint: draw each unordered pair's relation and
    each diagonal entry, then spell the draws as directly-follows edges."""
    offdiag = (Relation.FORWARD, Relation.BACKWARD, Relation.PARALLEL, Relation.NONE)
    diag = (Relation.PARALLEL, Relation.NONE)
    activities = sorted(activity_set)
    edges = set()
    for i, x in enumerate(activities):
        if rng.choice(diag) is Relation.PARALLEL:
            edges.add((x, x))
        for y in activities[i + 1 :]:
            rel = rng.choice(offdiag)
            if rel in (Relation.FORWARD, Relation.PARALLEL):
                edges.add((x, y))
            if rel in (Relation.BACKWARD, Relation.PARALLEL):
                edges.add((y, x))
    return Footprint(activities=frozenset(activities), edges=frozenset(edges))


def oracle_footprint_fitness(gold_relations, pred_relations, activities, include_diagonal=True):
    """Reference fitness: count the agreeing pairs of two footprint maps."""
    matches = 0
    total = 0
    for x in sorted(activities):
        for y in sorted(activities):
            if x == y and not include_diagonal:
                continue
            total += 1
            if gold_relations[(x, y)] is pred_relations.get((x, y), Relation.NONE):
                matches += 1
    return matches / total if total else 1.0


def oracle_footprint_score(
    record: TaskRecord,
    pred_text: str,
    mode: MatchingMode = MatchingMode.CASE_INSENSITIVE,
    include_diagonal: bool = True,
    max_sequences: int = DEFAULT_MAX_SEQUENCES,
) -> RecordScore:
    """Reference record score: play out the gold and predicted trees, map
    the predicted labels onto gold activities, drop unmapped edges and
    compare two full footprint maps. A prediction over the play-out cap
    scores 0 as a parse failure here."""
    if record.task is Task.SDFD:
        parsed = parse_dfg_edges(pred_text)
        skipped = len(parsed.skipped)
        if not parsed.edges and pred_text.strip():
            return RecordScore(record.record_id, 0.0, True, skipped_lines=skipped)
        pred_edges = set(parsed.edges)
        pred_activities = {a for edge in pred_edges for a in edge}
        gold_edges = set(record.edges)
        gold_activities = set(record.activity_set)
    else:
        skipped = 0
        try:
            pred_model = playout(parse_tree(pred_text), max_sequences)
        except (TreeSyntaxError, LanguageTooLargeError):
            return RecordScore(record.record_id, 0.0, True)
        pred_edges = oracle_dfg_edges(pred_model.sequences)
        pred_activities = pred_model.activity_set
        gold_model = playout(parse_tree(record.tree_text), max_sequences)
        gold_edges = oracle_dfg_edges(gold_model.sequences)
        gold_activities = set(gold_model.activity_set)
    fold_map = {}
    for a in sorted(record.activity_set):
        fold_map.setdefault(fold_label(a, mode), a)
    gold_of = {a: fold_map.get(fold_label(a, mode)) for a in pred_activities}
    mapped = {
        (gold_of[x], gold_of[y])
        for x, y in pred_edges
        if gold_of[x] is not None and gold_of[y] is not None
    }
    fitness = oracle_footprint_fitness(
        oracle_footprint(gold_activities, gold_edges),
        oracle_footprint(set(record.activity_set), mapped),
        gold_activities,
        include_diagonal,
    )
    return RecordScore(
        record.record_id,
        fitness,
        hallucinated=tuple(sorted(a for a, g in gold_of.items() if g is None)),
        skipped_lines=skipped,
    )


def oracle_per_class_f1(golds, preds, class_universe=None) -> dict[str, float]:
    """Reference per-class F1: three counting passes over all pairs per class."""
    if class_universe is None:
        class_universe = sorted({*golds, *(p for p in preds if p is not None)})
    scores = {}
    for cls in class_universe:
        tp = sum(1 for g, p in zip(golds, preds) if g == cls and p == cls)
        fp = sum(1 for g, p in zip(golds, preds) if g != cls and p == cls)
        fn = sum(1 for g, p in zip(golds, preds) if g == cls and p != cls)
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        if precision + recall == 0:
            scores[cls] = 0.0
        else:
            scores[cls] = 2 * precision * recall / (precision + recall)
    return scores


def _oracle_binary_shots(query, pool, shots, rng) -> list[TaskRecord]:
    valid = [r for r in pool if r.label != LABEL_ANOMALOUS and r.record_id != query.record_id]
    anomalous = [r for r in pool if r.label == LABEL_ANOMALOUS and r.record_id != query.record_id]
    need_valid = (shots + 1) // 2
    need_anomalous = shots // 2
    if len(valid) < need_valid or len(anomalous) < need_anomalous:
        raise PoolExhaustedError("oracle: pool too small")
    picked_valid = rng.sample(valid, need_valid)
    picked_anomalous = rng.sample(anomalous, need_anomalous)
    return [
        (picked_valid if i % 2 == 0 else picked_anomalous)[i // 2] for i in range(shots)
    ]


def _oracle_model_shots(query, pool, shots, rng) -> list[TaskRecord]:
    by_model: dict[str, list[TaskRecord]] = {}
    for r in pool:
        if r.record_id != query.record_id:
            by_model.setdefault(r.model_id, []).append(r)
    if len(by_model) < shots:
        raise PoolExhaustedError("oracle: pool too small")
    chosen_models = rng.sample(sorted(by_model), shots)
    return [rng.choice(by_model[m]) for m in chosen_models]


def oracle_render_icl(
    task: Task, query: TaskRecord, train_pool: list[TaskRecord], shots: int, seed: int
) -> PromptBundle:
    """Reference ICL prompt: the pool is sorted and filtered again per query."""
    tpl = load_templates(task)
    rng = model_rng(seed, "icl", task.value, query.record_id)
    pool = sorted(train_pool, key=lambda r: r.record_id)
    if task in (Task.TSAD, Task.ASAD):
        shot_records = _oracle_binary_shots(query, pool, shots, rng)
    else:
        shot_records = _oracle_model_shots(query, pool, shots, rng)
    blocks = [_fill(tpl.block, r, answer_text(r)) for r in shot_records]
    blocks.append(_fill(tpl.block, query, None))
    return PromptBundle(
        record_id=query.record_id,
        task=task,
        prompt_text="\n\n".join([tpl.description, *blocks]),
        shot_record_ids=tuple(r.record_id for r in shot_records),
    )


def oracle_record_line(record: TaskRecord) -> str:
    """Reference dataset row: the record as a dict, through `json.dumps`."""
    obj = {
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
    return json.dumps(obj, ensure_ascii=False) + "\n"


# Model ids in shuffled file order that extend one another by ":", so that
# the record ids of one model fall between those of another: the tsad rows of
# "a:tsad:00001" sort between "a:tsad:00001" and "a:tsad:00002" of model "a".
EXTENDING_IDS = ("b", "a:tsad:00001", "ab", "a", "a-b", "a:tsad:0", "a:")


def oracle_dataset(task: Task, models, seed: int, **settings) -> list[TaskRecord]:
    """Every admitted model's records of `task` built at once and sorted
    together by `record_id`."""
    records = [
        record for model in models for record in generate_task(task, model, seed, **settings)
    ]
    return sorted(records, key=lambda r: r.record_id)


def oracle_dataset_bytes(corpus_path, task: Task, seed: int, **settings) -> bytes:
    """Reference dataset file of `gen` for the corpus file."""
    admitted = validate_corpus(read_corpus(corpus_path)).admitted
    records = oracle_dataset(task, admitted, seed, **settings)
    return "".join(map(oracle_record_line, records)).encode("utf-8")


def oracle_sequences_line(model) -> str:
    """Reference sequence-file row, through `json.dumps`."""
    obj = {
        "model_id": model.model_id,
        "sequences": [list(s) for s in sorted(model.sequences)],
    }
    return json.dumps(obj, ensure_ascii=False) + "\n"


def oracle_corpus_line(entry) -> str:
    """Reference corpus row: `name` only when set, through `json.dumps`."""
    obj = {"model_id": entry.model_id}
    if entry.name is not None:
        obj["name"] = entry.name
    obj["tree"] = render_tree(entry.tree)
    return json.dumps(obj, ensure_ascii=False) + "\n"


def oracle_split_line(model_id: str, split) -> str:
    return json.dumps({"model_id": model_id, "split": split.value}, ensure_ascii=False) + "\n"


def oracle_icl_line(bundle) -> str:
    obj = {
        "record_id": bundle.record_id,
        "task": bundle.task.value,
        "prompt": bundle.prompt_text,
        "shot_record_ids": list(bundle.shot_record_ids),
    }
    return json.dumps(obj, ensure_ascii=False) + "\n"


def oracle_ft_line(example) -> str:
    obj = {
        "record_id": example.record_id,
        "task": example.task.value,
        "input": example.input_text,
        "target": example.target_text,
    }
    return json.dumps(obj, ensure_ascii=False) + "\n"


def oracle_prediction_line(record_id: str, text: str) -> str:
    obj = {"record_id": record_id, "prediction": text}
    return json.dumps(obj, ensure_ascii=False) + "\n"


def oracle_objects(path):
    """Reference decoder: each non-blank line of the file through
    `json.loads`, with its line number."""
    with open(path, encoding="utf-8", errors="surrogateescape") as handle:
        for line_number, line in enumerate(handle, start=1):
            if not line.isascii() and re.search(r"[\udc80-\udcff]", line):
                raise FileFormatError(path, line_number, "not UTF-8")
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


def _oracle_require(obj, key, path, line_number):
    if key not in obj:
        raise FileFormatError(path, line_number, f"missing key {key!r}")
    return obj[key]


def _oracle_field(obj, key, spec, seen, path, line_number):
    """Field `key` looked up in `seen` by a guarded `get`, else checked and
    converted by `spec` and stored there."""
    value = _oracle_require(obj, key, path, line_number)
    try:
        known = seen.get(tuple(value) if isinstance(value, list) else value)
    except TypeError:
        known = None
    if known is not None:
        return known
    is_valid, shape, convert, _ = spec
    if not is_valid(value):
        raise FileFormatError(path, line_number, f"{key!r} must be {shape}")
    converted = convert(value)
    return seen.setdefault(converted, converted)


def oracle_obj_to_record(obj, path, line_number, shared) -> TaskRecord:
    """Reference row conversion: the task through the `Task` enum and every
    field through `_oracle_field`, by the field tables of `fileio`."""
    try:
        task = Task(str(_oracle_require(obj, "task", path, line_number)))
    except ValueError:
        raise FileFormatError(path, line_number, f"unknown task {obj.get('task')!r}") from None
    if not fileio._FOREIGN[task].isdisjoint(obj):
        key = next(k for k in obj if k in fileio._FOREIGN[task])
        raise FileFormatError(path, line_number, f"{key!r} is not a {task.value} field")
    values = {
        key: _oracle_field(obj, key, spec, shared[key], path, line_number)
        for key, spec in (("activity_set", fileio._SET), *fileio._FIELDS[task].items())
    }
    activities = values["activity_set"]
    if task is Task.SDFD and not {a for e in values["edges"] for a in e} <= set(activities):
        raise FileFormatError(path, line_number, "'edges' must join members of 'activity_set'")
    if task is Task.SPTD:
        try:
            leaves = tree_labels(parse_tree(values["tree_text"]))
        except TreeSyntaxError as exc:
            raise FileFormatError(path, line_number, f"'tree_text' does not parse: {exc}") from None
        if sorted(leaves) != sorted(activities):
            reason = "'activity_set' must list the leaves of 'tree_text'"
            raise FileFormatError(path, line_number, reason)
    record_id = _oracle_require(obj, "record_id", path, line_number)
    if not isinstance(record_id, str):
        raise FileFormatError(path, line_number, "'record_id' must be a string")
    model_id = _oracle_field(obj, "model_id", fileio._STRING, shared["model_id"], path,
                             line_number)
    return TaskRecord(record_id=record_id, task=task, model_id=model_id, **values)


def oracle_records(path) -> list[TaskRecord]:
    """Reference dataset reader over `oracle_objects` and
    `oracle_obj_to_record`, by the rules of `iter_dataset`."""
    records: list[TaskRecord] = []
    model_id, shared = None, defaultdict(dict)
    for n, obj in oracle_objects(path):
        if obj.get("model_id") != model_id:
            model_id, shared = obj.get("model_id"), defaultdict(dict)
        record = oracle_obj_to_record(obj, path, n, shared)
        if records and record.task is not records[-1].task:
            reason = f"{record.task.value} row in a {records[-1].task.value} dataset"
            raise FileFormatError(path, n, reason)
        if records and record.record_id <= records[-1].record_id:
            reason = (f"record {record.record_id!r} follows {records[-1].record_id!r}; "
                      "ids must increase")
            raise FileFormatError(path, n, reason)
        records.append(record)
    return records


def oracle_split_corpus(models, ratios=DEFAULT_SPLIT_RATIOS, seed: int = 0) -> SplitAssignment:
    """Reference split: every sequence of every model is mapped to its first
    owner in id order, and a later owner joins that owner's component; the
    components are then dealt out by stratum as `split_corpus` deals them."""
    ordered = sorted(models, key=lambda m: m.model_id)
    parent = list(range(len(ordered)))

    def root(i: int) -> int:
        while parent[i] != i:
            i = parent[i]
        return i

    first_owner: dict[tuple, int] = {}
    for i, model in enumerate(ordered):
        for sequence in oracle_language(model.tree):
            owner = first_owner.setdefault(sequence, i)
            a, b = root(owner), root(i)
            parent[max(a, b)] = min(a, b)
    members: dict[int, list[int]] = {}
    for i in range(len(ordered)):
        members.setdefault(root(i), []).append(i)
    components = [tuple(ordered[i].model_id for i in group) for _, group in sorted(members.items())]
    bins = []
    for group in sorted(members.items()):
        largest = max(len(ordered[i].activity_set) for i in group[1])
        bins.append(next(
            (k for k, (low, high) in enumerate(ACTIVITY_BINS)
             if largest >= low and (high is None or largest <= high)),
            0,
        ))
    rng = random.Random(seed)
    assignment = {}
    for stratum in sorted(set(bins)):
        comps = sorted(c for c, b in zip(components, bins) if b == stratum)
        rng.shuffle(comps)
        counts = [0, 0, 0]
        for step, comp in enumerate(comps, start=1):
            best = max(range(3), key=lambda k: (ratios[k] * step - counts[k], ratios[k]))
            counts[best] += 1
            for model_id in comp:
                assignment[model_id] = list(Split)[best]
    return SplitAssignment(assignment, tuple(components), tuple(bins))


# ---------------------------------------------------------------------------
# Random tree strategies and generators


def _clean_label(raw: str) -> str | None:
    try:
        return normalize_label(raw)
    except EmptyLabelError:
        return None


label_strategy = (
    st.text(min_size=1, max_size=10)
    .map(_clean_label)
    .filter(lambda s: s is not None)
)


# Few labels, so one activity often sits on several leaves.
repeating_label_strategy = st.sampled_from("abc")


def tree_strategy(
    max_leaves: int = 12, labels: st.SearchStrategy[str] = label_strategy
) -> st.SearchStrategy[ProcessTree]:
    leaves = st.one_of(
        labels.map(Leaf),
        st.just(Silent()),
    )
    return st.recursive(
        leaves,
        lambda inner: st.builds(
            lambda kind, children: Operator(kind, tuple(children)),
            st.sampled_from(list(OpKind)),
            st.lists(inner, min_size=2, max_size=4),
        ),
        max_leaves=max_leaves,
    )


_LABEL_CHARS = "abcdefgh XYZ'\\éα"


def random_label(rng: random.Random) -> str:
    while True:
        raw = "".join(
            rng.choice(_LABEL_CHARS) for _ in range(rng.randint(1, 8))
        )
        label = _clean_label(raw)
        if label is not None:
            return label


def random_tree(rng: random.Random, max_leaves: int) -> ProcessTree:
    """Seeded random tree with quote- and escape-heavy labels."""
    budget = rng.randint(1, max_leaves)

    def build(leaves: int) -> ProcessTree:
        if leaves <= 1:
            if rng.random() < 0.15:
                return Silent()
            return Leaf(random_label(rng))
        kind = rng.choice(list(OpKind))
        n_children = rng.randint(2, min(4, leaves))
        sizes = [1] * n_children
        for _ in range(leaves - n_children):
            sizes[rng.randrange(n_children)] += 1
        return Operator(kind, tuple(build(s) for s in sizes))

    return build(budget)


# Corpora of tree texts whose models share activities, and some of them
# sequences. Each tree uses each of its labels once, so `validate` admits
# every model but the repeats of an activity set.
SHARING_CORPORA = {
    "only the empty sequence": ["X(->('a', 'b'), tau)", "X(->('c', 'd'), tau)"],
    "only a one-activity sequence": ["X('a', 'b')", "X('a', 'c')"],
    "a loop that repeats a label": ["*('a', 'b')", "*(X('a', 'c'), 'b')"],
    "a loop that repeats the first label": [
        "->(*('a', tau), 'b')", "X(->(*('a', tau), 'b'), 'c')",
    ],
    "equal alphabets": [
        "->('a', 'b')", "->('b', 'a')", "+('c', 'd')", "X(->('c', 'd'), 'e')",
        "X(->('d', 'c'), 'e')",
    ],
    "first two labels shared, the third not": ["->('a', 'b', 'c')", "->('a', 'b', 'd')"],
    "one model": ["->('a', 'b')"],
}


def _relabelled(tree: ProcessTree, labels) -> ProcessTree:
    """The tree with its leaves labelled by `labels` in leaf order."""
    if isinstance(tree, Leaf):
        return Leaf(next(labels))
    if isinstance(tree, Silent):
        return tree
    return Operator(tree.kind, tuple(_relabelled(child, labels) for child in tree.children))


def shared_vocabulary_corpora(
    max_models: int = 6, distinct_labels: bool = False
) -> st.SearchStrategy[list[ProcessTree]]:
    """Trees of at most five leaves over six labels, so that models share
    activities and often sequences. A label may sit on several leaves of
    one tree, unless `distinct_labels`, which keeps each tree admissible
    as far as its labels go."""
    trees = tree_strategy(max_leaves=5, labels=st.sampled_from("abcdef"))
    if distinct_labels:
        trees = st.builds(
            lambda tree, order: _relabelled(tree, iter(order)), trees, st.permutations("abcdef")
        )
    return st.lists(trees, min_size=1, max_size=max_models)
