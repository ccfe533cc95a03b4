"""Benchmark dataset construction from a validated process-tree corpus.

Five record kinds are generated per model:

  - tsad: is a full trace allowed by the model? Traces come from the model's
    own log, padded to a minimum size, with swap noise injected into roughly
    half of them.
  - asad: can activity y eventually follow activity x? Positives are the
    model's eventually-follows pairs, negatives an equal-size sample of the
    remaining ordered pairs.
  - snap: given a strict prefix of an allowed trace, name a correct next
    activity.
  - sdfd: produce the model's directly-follows edges from its activity set.
  - sptd: produce the model's process tree from its activity set.

All randomness is drawn from per-model streams derived from the global seed,
so generation is deterministic regardless of batch order or parallelism.
"""

from __future__ import annotations

import hashlib
import random
from collections.abc import Collection, Iterable, Iterator
from enum import Enum
from itertools import compress
from operator import attrgetter, itemgetter
from typing import Any

from .core import Activity, Frozen, ProcessModel, Trace, tree_labels
from .semantics import (
    DEFAULT_MAX_SEQUENCES,
    NO_CAP,
    LanguageTooLargeError,
    eventually_follows,
    dfg_of_model,
    language_size,
    playout,
)
from .tree_dsl import render_tree

LABEL_VALID = "Valid"
LABEL_ANOMALOUS = "Anomalous"

DEFAULT_MIN_LOG_SIZE = 100
DEFAULT_NOISE_PROB = 0.5
DEFAULT_MAX_RETRIES = 10
DEFAULT_SPLIT_RATIOS = (0.70, 0.20, 0.10)


class Task(str, Enum):
    TSAD = "tsad"
    ASAD = "asad"
    SNAP = "snap"
    SDFD = "sdfd"
    SPTD = "sptd"


CLASSIFICATION_TASKS = (Task.TSAD, Task.ASAD)
GENERATION_TASKS = (Task.SDFD, Task.SPTD)


class TaskRecord(Frozen):
    """One benchmark instance; non-applicable payload fields stay None."""

    __slots__ = (
        "record_id", "task", "model_id", "activity_set", "trace", "pair", "prefix", "label",
        "next_activity", "edges", "tree_text",
    )

    def __init__(
        self, record_id: str, task: Task, model_id: str, activity_set: tuple[Activity, ...],
        trace: Trace | None = None, pair: tuple[Activity, Activity] | None = None,
        prefix: Trace | None = None, label: str | None = None,
        next_activity: Activity | None = None,
        edges: tuple[tuple[Activity, Activity], ...] | None = None, tree_text: str | None = None,
    ) -> None:
        # Each slot is set through its own descriptor, at about half the cost
        # per field of `object.__setattr__`.
        _set_record_id(self, record_id)
        _set_task(self, task)
        _set_model_id(self, model_id)
        _set_activity_set(self, activity_set)
        _set_trace(self, trace)
        _set_pair(self, pair)
        _set_prefix(self, prefix)
        _set_label(self, label)
        _set_next_activity(self, next_activity)
        _set_edges(self, edges)
        _set_tree_text(self, tree_text)


(
    _set_record_id, _set_task, _set_model_id, _set_activity_set, _set_trace, _set_pair,
    _set_prefix, _set_label, _set_next_activity, _set_edges, _set_tree_text,
) = (getattr(TaskRecord, name).__set__ for name in TaskRecord.__slots__)


def model_seed(seed: int, *parts: str) -> int:
    """The seed of `model_rng(seed, *parts)`, for a caller that reseeds one
    generator instead of making one per draw."""
    key = ":".join([str(seed), *parts])
    digest = hashlib.sha256(key.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def model_rng(seed: int, *parts: str) -> random.Random:
    """Deterministic per-model random stream, independent of batch order."""
    return random.Random(model_seed(seed, *parts))


# ---------------------------------------------------------------------------
# Corpus validation


class RejectionReason(str, Enum):
    PARSE_ERROR = "parse_error"
    DUPLICATE_MODEL_ID = "duplicate_model_id"
    DUPLICATE_ACTIVITY_LABELS = "duplicate_activity_labels"
    LANGUAGE_TOO_LARGE = "language_too_large"
    EMPTY_LANGUAGE = "empty_language"
    TOO_FEW_ACTIVITIES = "too_few_activities"
    DUPLICATE_ACTIVITY_SET = "duplicate_activity_set"


class Rejection(Frozen):
    """A corpus row left out, and why; its line takes no part in equality."""

    _uncompared = ("line",)

    def __init__(
        self, model_id: str, reason: RejectionReason, detail: str = "", line: int | None = None
    ) -> None:
        self.__dict__.update(model_id=model_id, reason=reason, detail=detail, line=line)


class ValidationReport(Frozen):
    def __init__(
        self, admitted: tuple[ProcessModel, ...], rejected: tuple[Rejection, ...]
    ) -> None:
        self.__dict__.update(admitted=admitted, rejected=rejected)


def validate_corpus(
    entries: Iterable[ProcessModel | Rejection],
    max_sequences: int = DEFAULT_MAX_SEQUENCES,
) -> ValidationReport:
    """Admit only models fit for task generation, from their trees alone.

    Rejects duplicate model ids, trees reusing an activity label across
    leaves, languages over `max_sequences` (counted by `language_size`,
    not played out), empty-only languages, fewer than two activities, and
    repeats of an already-admitted activity set (first occurrence wins).
    A row rejected upstream is passed through in its place, and its id
    counts as seen. Rejections keep row order, and each carries its row's
    `line`; a duplicate id's detail names the first line of that id when
    it is known. An admitted model is its row itself, not a copy, keeping
    the activity set read here; a corpus row holds no language.
    """
    admitted: list[ProcessModel] = []
    rejected: list[Rejection] = []
    first_line_of: dict[str, int | None] = {}
    seen_activity_sets: set[frozenset[Activity]] = set()

    def reject(
        entry: ProcessModel | Rejection, reason: RejectionReason, detail: str = ""
    ) -> None:
        rejected.append(Rejection(entry.model_id, reason, detail, entry.line))

    for entry in entries:
        if entry.model_id in first_line_of:
            first = first_line_of[entry.model_id]
            detail = "" if first is None else f"first on line {first}"
            reject(entry, RejectionReason.DUPLICATE_MODEL_ID, detail)
            continue
        first_line_of[entry.model_id] = entry.line
        if isinstance(entry, Rejection):
            rejected.append(entry)
            continue
        labels = tree_labels(entry.tree)
        activity_set = frozenset(labels)
        if len(labels) != len(activity_set):
            reject(
                entry,
                RejectionReason.DUPLICATE_ACTIVITY_LABELS,
                "an activity label appears on more than one leaf",
            )
            continue
        try:
            language_size(entry.tree, max_sequences)
        except LanguageTooLargeError as exc:
            reject(entry, RejectionReason.LANGUAGE_TOO_LARGE, str(exc))
            continue
        # Every leaf occurs in some sequence, so a language holds only the
        # empty sequence exactly when its tree has no leaf.
        if not labels:
            reject(entry, RejectionReason.EMPTY_LANGUAGE)
            continue
        if len(activity_set) < 2:
            reject(entry, RejectionReason.TOO_FEW_ACTIVITIES)
            continue
        if activity_set in seen_activity_sets:
            reject(entry, RejectionReason.DUPLICATE_ACTIVITY_SET)
            continue
        seen_activity_sets.add(activity_set)
        # Keep the set walked here as the model's cached `activity_set`.
        vars(entry)["activity_set"] = activity_set
        admitted.append(entry)
    return ValidationReport(admitted=tuple(admitted), rejected=tuple(rejected))


def played_out(model: ProcessModel) -> ProcessModel:
    """The model holding its language: itself when it holds one, or else a
    copy with its tree played out, for the caller to read and drop. An
    admitted model's language is within the cap that admitted it, so the
    play-out sets no cap of its own."""
    if model.sequences is not None:
        return model
    return playout(model.tree, NO_CAP, model_id=model.model_id, name=model.name)


# ---------------------------------------------------------------------------
# Task generators


def _records(
    model: ProcessModel, task: Task, payloads: Iterable[tuple[Any, ...]]
) -> list[TaskRecord]:
    """The model's records of `task`, numbered in payload order. A payload
    lists the record's fields after `activity_set`, in field order (trace,
    pair, prefix, label, next_activity, edges, tree_text), up to the last
    one the task sets."""
    activities = tuple(sorted(model.activity_set))
    prefix = f"{model.model_id}:{task.value}:"
    model_id = model.model_id
    return [
        TaskRecord(f"{prefix}{i:05d}", task, model_id, activities, *payload)
        for i, payload in enumerate(payloads)
    ]


def _two_positions(rng: random.Random, n: int) -> tuple[int, int]:
    """`rng.sample(range(n), 2)` for n >= 2: the same draws, without the
    call's checks and pool. CPython's `sample` picks two of at most 21
    items from a pool whose picked slot the last item fills, and of more
    by drawing again until the second pick differs from the first."""
    a = rng.randrange(n)
    if n <= 21:
        j = rng.randrange(n - 1)
        return a, n - 1 if j == a else j
    b = rng.randrange(n)
    while b == a:
        b = rng.randrange(n)
    return a, b


def gen_tsad(
    model: ProcessModel,
    seed: int,
    min_log_size: int = DEFAULT_MIN_LOG_SIZE,
    noise_prob: float = DEFAULT_NOISE_PROB,
    max_retries: int = DEFAULT_MAX_RETRIES,
) -> list[TaskRecord]:
    """Trace-level anomaly records from the model's padded log.

    The log starts with one trace per non-empty sequence and is padded by
    uniform duplication up to min_log_size. Each trace instance is noised
    with probability noise_prob by swapping two random distinct positions,
    re-drawing positions up to max_retries times until the swapped trace
    leaves the language; if every retry stays in the language the original
    trace is emitted as Valid.
    """
    rng = model_rng(seed, Task.TSAD.value, model.model_id)
    played = played_out(model)
    base = played.nonempty_sequences
    log: list[Trace] = list(base)
    while len(log) < min_log_size:
        log.append(rng.choice(base))
    payloads: list[tuple[Trace, None, None, str]] = []
    for trace in log:
        noised: Trace | None = None
        if rng.random() < noise_prob and len(trace) >= 2:
            for _ in range(max_retries):
                a, b = _two_positions(rng, len(trace))
                candidate = list(trace)
                candidate[a], candidate[b] = candidate[b], candidate[a]
                swapped = tuple(candidate)
                if swapped not in played.sequences:
                    noised = swapped
                    break
        if noised is None:
            payloads.append((trace, None, None, LABEL_VALID))
        else:
            payloads.append((noised, None, None, LABEL_ANOMALOUS))
    return _records(model, Task.TSAD, payloads)


def gen_asad(model: ProcessModel, seed: int) -> list[TaskRecord]:
    """Activity-pair records: eventually-follows pairs vs sampled non-pairs.

    Negatives are drawn without replacement from the ordered-pair complement
    (self-pairs included). When the complement is smaller than the positive
    side, the whole complement is taken and the dataset is left imbalanced.
    The pairs are read off the model's tree, with no pass over its sequences.
    """
    rng = model_rng(seed, Task.ASAD.value, model.model_id)
    ef = eventually_follows(model.tree)
    positives = sorted(ef)
    ordered = sorted(model.activity_set)
    complement = [
        (x, y) for x in ordered for y in ordered if (x, y) not in ef
    ]
    negatives = sorted(rng.sample(complement, min(len(positives), len(complement))))
    payloads = [(None, p, None, LABEL_VALID) for p in positives]
    payloads += [(None, n, None, LABEL_ANOMALOUS) for n in negatives]
    return _records(model, Task.ASAD, payloads)


def gen_snap(model: ProcessModel) -> list[TaskRecord]:
    """Next-activity records: every strict prefix of every sequence.

    Identical (prefix, next) pairs within one model collapse to the first
    occurrence.
    """
    seen: set[tuple[Trace, Activity]] = set()
    payloads: list[tuple[None, None, Trace, None, Activity]] = []
    for sequence in played_out(model).nonempty_sequences:
        for k in range(1, len(sequence)):
            item = (sequence[:k], sequence[k])
            if item in seen:
                continue
            seen.add(item)
            payloads.append((None, None, item[0], None, item[1]))
    return _records(model, Task.SNAP, payloads)


def gen_sdfd(model: ProcessModel) -> TaskRecord:
    """One record per model: gold is the model's directly-follows edges,
    read off its tree."""
    dfg = dfg_of_model(model.tree)
    return _records(model, Task.SDFD, [(None,) * 5 + (tuple(sorted(dfg.edges)),)])[0]


def gen_sptd(model: ProcessModel) -> TaskRecord:
    """One record per model: gold is the model's canonical tree text."""
    return _records(model, Task.SPTD, [(None,) * 6 + (render_tree(model.tree),)])[0]


def generate_task(
    task: Task,
    model: ProcessModel,
    seed: int,
    min_log_size: int = DEFAULT_MIN_LOG_SIZE,
    noise_prob: float = DEFAULT_NOISE_PROB,
    max_retries: int = DEFAULT_MAX_RETRIES,
) -> list[TaskRecord]:
    """Uniform entry point over the five generators."""
    if task is Task.TSAD:
        return gen_tsad(model, seed, min_log_size, noise_prob, max_retries)
    if task is Task.ASAD:
        return gen_asad(model, seed)
    if task is Task.SNAP:
        return gen_snap(model)
    if task is Task.SDFD:
        return [gen_sdfd(model)]
    return [gen_sptd(model)]


_BY_RECORD_ID = attrgetter("record_id")


def _id_prefix(model: ProcessModel) -> str:
    """The text every record id of the model starts with (see `_records`)."""
    return model.model_id + ":"


def id_prefix_batches(models: Iterable[ProcessModel]) -> Iterator[list[ProcessModel]]:
    """The models in id-prefix order, cut into the batches whose records
    can interleave.

    Every record id starts with its model's id and ":", the model's id
    prefix. Two models' records can interleave only when one prefix starts
    with the other, and in prefix order such models directly follow the
    shorter one. So each model whose prefix starts with the current batch
    head's joins that batch. Every record of a batch sorts before every
    record of the batches after it.
    """
    batch: list[ProcessModel] = []
    for model in sorted(models, key=_id_prefix):
        if batch and not _id_prefix(model).startswith(_id_prefix(batch[0])):
            yield batch
            batch = []
        batch.append(model)
    if batch:
        yield batch


def contiguous_runs(
    models: Iterable[ProcessModel], n_runs: int
) -> list[list[ProcessModel]]:
    """The models in id-prefix order, cut at batch boundaries into at most
    `n_runs` non-empty runs of about equal batch count, fewer when there are
    fewer batches. The datasets of the runs, one after another, are the
    dataset of all the models."""
    batches = list(id_prefix_batches(models))
    n = max(1, min(n_runs, len(batches)))
    cuts = [len(batches) * k // n for k in range(n + 1)]
    return [
        [model for batch in batches[start:end] for model in batch]
        for start, end in zip(cuts, cuts[1:])
    ]


def generate_dataset(
    task: Task,
    models: Iterable[ProcessModel],
    seed: int,
    min_log_size: int = DEFAULT_MIN_LOG_SIZE,
    noise_prob: float = DEFAULT_NOISE_PROB,
    max_retries: int = DEFAULT_MAX_RETRIES,
) -> Iterator[TaskRecord]:
    """The records of `task` for every admitted model, in `record_id` order,
    generated one `id_prefix_batches` batch at a time. Each batch is sorted
    by `record_id`, which also places an index past 99,999."""
    for batch in id_prefix_batches(models):
        records: list[TaskRecord] = []
        for model in batch:
            records += generate_task(task, model, seed, min_log_size, noise_prob, max_retries)
        records.sort(key=_BY_RECORD_ID)
        yield from records


# ---------------------------------------------------------------------------
# Train / validation / test split


class Split(str, Enum):
    TRAIN = "train"
    VALIDATION = "validation"
    TEST = "test"


_SPLIT_ORDER = (Split.TRAIN, Split.VALIDATION, Split.TEST)

# Strata over the activity count of a leakage component's largest model.
ACTIVITY_BINS: tuple[tuple[int, int | None], ...] = (
    (2, 3),
    (4, 5),
    (6, 8),
    (9, 12),
    (13, None),
)


class SplitAssignment(Frozen):
    _unhashed = ("assignment",)

    def __init__(
        self, assignment: dict[str, Split], components: tuple[tuple[str, ...], ...],
        component_bins: tuple[int, ...],
    ) -> None:
        self.__dict__.update(assignment=assignment, components=components,
                             component_bins=component_bins)

    def model_ids(self, split: Split) -> list[str]:
        return sorted(mid for mid, s in self.assignment.items() if s is split)


class _UnionFind:
    def __init__(self, n: int) -> None:
        self.parent = list(range(n))

    def find(self, i: int) -> int:
        root = i
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[i] != root:
            self.parent[i], i = root, self.parent[i]
        return root

    def union(self, i: int, j: int) -> None:
        ri, rj = self.find(i), self.find(j)
        if ri != rj:
            self.parent[max(ri, rj)] = min(ri, rj)


class _HeldTwice(dict):
    """Label tuple or set -> whether two models or more hold each label in
    it, looked up on a miss in `holders`, the bit mask of the models whose
    activity set holds a label; `everyone` sets every model's bit."""

    __slots__ = ("holders", "everyone")

    def __init__(self, holders: dict[Activity, int], everyone: int) -> None:
        self.holders = holders
        self.everyone = everyone

    def __missing__(self, labels: Iterable[Activity]) -> bool:
        mask = self.everyone
        holders = self.holders
        for label in labels:
            mask &= holders[label]
        # A mask with two bits set or more loses a bit to `mask - 1`.
        held = self[labels] = mask & (mask - 1) != 0
        return held


_FIRST_TWO = itemgetter(slice(2))


class SequenceSharing:
    """Which sequences of a corpus's languages two of its models can share.

    A sequence lies in two models' languages only if both activity sets
    hold each of its labels. A model's own activity set holds each of its
    sequences, so a sequence is shareable when two activity sets of the
    corpus hold all its labels; any other sequence lies in one language
    alone, links no models and is counted once. The test reads the
    sequence and the activity sets alone, not the model the sequence came
    from, so a sequence two languages hold is kept from both.
    """

    def __init__(self, models: Iterable[ProcessModel]) -> None:
        holders: dict[Activity, int] = {}
        everyone = 0
        for position, model in enumerate(models):
            bit = 1 << position
            everyone |= bit
            for label in model.activity_set:
                holders[label] = holders.get(label, 0) | bit
        # The first two labels of a sequence recur across models, so their
        # answers are kept for the whole corpus.
        self._pairs = _HeldTwice(holders, everyone)

    def shareable(self, sequences: Collection[Trace]) -> list[Trace]:
        """The shareable ones of one model's `sequences`, in their order.

        A sequence whose first two labels no two models hold is dropped at
        once; for a sequence of at most two labels that test is the whole
        one. The longer ones left are checked on all their labels, once per
        label set: the sequences of one language share few label sets.
        """
        pairs = self._pairs
        candidates = list(compress(sequences, map(pairs.__getitem__, map(_FIRST_TWO, sequences))))
        if not candidates:
            return candidates
        label_sets = _HeldTwice(pairs.holders, pairs.everyone)
        return [s for s in candidates if len(s) < 3 or label_sets[frozenset(s)]]


def _bin_index(activity_count: int) -> int:
    for idx, (low, high) in enumerate(ACTIVITY_BINS):
        if activity_count >= low and (high is None or activity_count <= high):
            return idx
    return 0


def check_split_ratios(ratios: tuple[float, float, float]) -> None:
    """Raise ValueError unless the ratios lie in [0, 1] and sum to 1."""
    if not all(0.0 <= r <= 1.0 for r in ratios):
        raise ValueError("split ratios must lie in [0, 1]")
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise ValueError("split ratios must sum to 1")


def split_corpus(
    models: Iterable[ProcessModel],
    ratios: tuple[float, float, float] = DEFAULT_SPLIT_RATIOS,
    seed: int = 0,
) -> SplitAssignment:
    """Assign models to train/validation/test without sequence leakage.

    Models sharing any execution sequence always land in the same split:
    they are first merged into components (union-find over sequences), the
    components are stratified by the activity count of their largest model,
    and within each stratum a seeded greedy pass hands each component to the
    split furthest below its target share, tie-breaking toward the larger
    ratio.

    Only the sequences two models can share are mapped to their first
    owner. A sequence lies in two models' languages only if both activity
    sets hold each of its labels, so a sequence whose labels are not all
    held by two models lies in one language alone and links no models;
    leaving it out of the map changes no component (`SequenceSharing`).
    """
    check_split_ratios(ratios)
    ordered = sorted(models, key=lambda m: m.model_id)
    sharing = SequenceSharing(ordered)
    uf = _UnionFind(len(ordered))
    first_owner: dict[Trace, int] = {}
    for i, model in enumerate(ordered):
        for sequence in sharing.shareable(played_out(model).sequences):
            if sequence in first_owner:
                uf.union(first_owner[sequence], i)
            else:
                first_owner[sequence] = i
    grouped: dict[int, list[int]] = {}
    for i in range(len(ordered)):
        grouped.setdefault(uf.find(i), []).append(i)
    components = []
    largest: dict[tuple[str, ...], int] = {}
    for _, members in sorted(grouped.items()):
        comp = tuple(ordered[i].model_id for i in members)
        components.append(comp)
        largest[comp] = max(len(ordered[i].activity_set) for i in members)

    bins: dict[int, list[tuple[str, ...]]] = {}
    bin_of: dict[tuple[str, ...], int] = {}
    for comp in components:
        idx = _bin_index(largest[comp])
        bins.setdefault(idx, []).append(comp)
        bin_of[comp] = idx

    rng = random.Random(seed)
    assignment: dict[str, Split] = {}
    for idx in sorted(bins):
        comps = sorted(bins[idx])
        rng.shuffle(comps)
        counts = {s: 0 for s in _SPLIT_ORDER}
        for step, comp in enumerate(comps, start=1):
            deficits = {
                s: ratios[k] * step - counts[s]
                for k, s in enumerate(_SPLIT_ORDER)
            }
            best = max(
                _SPLIT_ORDER,
                key=lambda s: (deficits[s], ratios[_SPLIT_ORDER.index(s)]),
            )
            counts[best] += 1
            for model_id in comp:
                assignment[model_id] = best
    return SplitAssignment(
        assignment=assignment,
        components=tuple(components),
        component_bins=tuple(bin_of[comp] for comp in components),
    )
