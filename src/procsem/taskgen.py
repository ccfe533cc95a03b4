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
from dataclasses import dataclass, field
from enum import Enum

from .core import (
    Activity,
    EmptyLabelError,
    Leaf,
    Operator,
    ProcessModel,
    ProcessTree,
    Silent,
    Trace,
    normalize_label,
    tree_labels,
)
from .semantics import (
    DEFAULT_MAX_SEQUENCES,
    LanguageTooLargeError,
    eventually_follows,
    dfg_of_model,
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


@dataclass(frozen=True)
class TaskRecord:
    """One benchmark instance; non-applicable payload fields stay None."""

    record_id: str
    task: Task
    model_id: str
    activity_set: tuple[Activity, ...]
    trace: Trace | None = None
    pair: tuple[Activity, Activity] | None = None
    prefix: Trace | None = None
    label: str | None = None
    next_activity: Activity | None = None
    edges: tuple[tuple[Activity, Activity], ...] | None = None
    tree_text: str | None = None


@dataclass(frozen=True)
class Prediction:
    """A model's raw answer to the record with the same id."""

    record_id: str
    raw_text: str


def model_rng(seed: int, *parts: str) -> random.Random:
    """Deterministic per-model random stream, independent of batch order."""
    key = ":".join([str(seed), *parts])
    digest = hashlib.sha256(key.encode("utf-8")).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


# ---------------------------------------------------------------------------
# Corpus validation


@dataclass(frozen=True)
class CorpusEntry:
    model_id: str
    tree: ProcessTree
    name: str | None = None


class RejectionReason(str, Enum):
    PARSE_ERROR = "parse_error"
    DUPLICATE_MODEL_ID = "duplicate_model_id"
    INVALID_LABEL = "invalid_label"
    DUPLICATE_ACTIVITY_LABELS = "duplicate_activity_labels"
    LANGUAGE_TOO_LARGE = "language_too_large"
    EMPTY_LANGUAGE = "empty_language"
    TOO_FEW_ACTIVITIES = "too_few_activities"
    DUPLICATE_ACTIVITY_SET = "duplicate_activity_set"


@dataclass(frozen=True)
class Rejection:
    model_id: str
    reason: RejectionReason
    detail: str = ""


@dataclass(frozen=True)
class AdmittedModel:
    model: ProcessModel
    tree: ProcessTree


@dataclass(frozen=True)
class ValidationReport:
    admitted: tuple[AdmittedModel, ...]
    rejected: tuple[Rejection, ...]

    @property
    def models(self) -> list[ProcessModel]:
        return [a.model for a in self.admitted]


def _normalize_tree(tree: ProcessTree) -> ProcessTree:
    if isinstance(tree, Leaf):
        return Leaf(normalize_label(tree.label))
    if isinstance(tree, Silent):
        return tree
    return Operator(tree.kind, tuple(_normalize_tree(c) for c in tree.children))


def validate_corpus(
    entries: list[CorpusEntry],
    max_sequences: int = DEFAULT_MAX_SEQUENCES,
) -> ValidationReport:
    """Play out each entry and admit only models fit for task generation.

    Rejects duplicate model ids, trees reusing an activity label across
    leaves, play-out overflow, empty-only languages, fewer than two
    activities, and repeats of an already-admitted activity set (first
    occurrence wins). Rejections never abort the batch.
    """
    admitted: list[AdmittedModel] = []
    rejected: list[Rejection] = []
    seen_ids: set[str] = set()
    seen_activity_sets: set[frozenset[Activity]] = set()
    for entry in entries:
        if entry.model_id in seen_ids:
            rejected.append(
                Rejection(entry.model_id, RejectionReason.DUPLICATE_MODEL_ID)
            )
            continue
        seen_ids.add(entry.model_id)
        try:
            tree = _normalize_tree(entry.tree)
        except EmptyLabelError as exc:
            rejected.append(
                Rejection(entry.model_id, RejectionReason.INVALID_LABEL, str(exc))
            )
            continue
        labels = tree_labels(tree)
        if len(labels) != len(set(labels)):
            rejected.append(
                Rejection(
                    entry.model_id,
                    RejectionReason.DUPLICATE_ACTIVITY_LABELS,
                    "an activity label appears on more than one leaf",
                )
            )
            continue
        try:
            model = playout(
                tree, max_sequences, model_id=entry.model_id, name=entry.name
            )
        except LanguageTooLargeError as exc:
            rejected.append(
                Rejection(entry.model_id, RejectionReason.LANGUAGE_TOO_LARGE, str(exc))
            )
            continue
        if not any(model.sequences):
            rejected.append(
                Rejection(entry.model_id, RejectionReason.EMPTY_LANGUAGE)
            )
            continue
        if len(model.activity_set) < 2:
            rejected.append(
                Rejection(entry.model_id, RejectionReason.TOO_FEW_ACTIVITIES)
            )
            continue
        if model.activity_set in seen_activity_sets:
            rejected.append(
                Rejection(entry.model_id, RejectionReason.DUPLICATE_ACTIVITY_SET)
            )
            continue
        seen_activity_sets.add(model.activity_set)
        admitted.append(AdmittedModel(model=model, tree=tree))
    return ValidationReport(admitted=tuple(admitted), rejected=tuple(rejected))


# ---------------------------------------------------------------------------
# Task generators


def _sorted_activities(model: ProcessModel) -> tuple[Activity, ...]:
    return tuple(sorted(model.activity_set))


def _record_id(model_id: str, task: Task, index: int) -> str:
    return f"{model_id}:{task.value}:{index:05d}"


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
    base = model.nonempty_sequences
    log: list[Trace] = list(base)
    while len(log) < min_log_size:
        log.append(rng.choice(base))
    activities = _sorted_activities(model)
    records: list[TaskRecord] = []
    for i, trace in enumerate(log):
        noised: Trace | None = None
        if rng.random() < noise_prob and len(trace) >= 2:
            for _ in range(max_retries):
                a, b = rng.sample(range(len(trace)), 2)
                candidate = list(trace)
                candidate[a], candidate[b] = candidate[b], candidate[a]
                swapped = tuple(candidate)
                if swapped not in model.sequences:
                    noised = swapped
                    break
        records.append(
            TaskRecord(
                record_id=_record_id(model.model_id, Task.TSAD, i),
                task=Task.TSAD,
                model_id=model.model_id,
                activity_set=activities,
                trace=noised if noised is not None else trace,
                label=LABEL_ANOMALOUS if noised is not None else LABEL_VALID,
            )
        )
    return records


def gen_asad(model: ProcessModel, seed: int) -> list[TaskRecord]:
    """Activity-pair records: eventually-follows pairs vs sampled non-pairs.

    Negatives are drawn without replacement from the ordered-pair complement
    (self-pairs included). When the complement is smaller than the positive
    side, the whole complement is taken and the dataset is left imbalanced.
    """
    rng = model_rng(seed, Task.ASAD.value, model.model_id)
    ef = eventually_follows(model)
    positives = sorted(ef.pairs)
    ordered = sorted(model.activity_set)
    complement = [
        (x, y) for x in ordered for y in ordered if (x, y) not in ef.pairs
    ]
    negatives = sorted(rng.sample(complement, min(len(positives), len(complement))))
    activities = _sorted_activities(model)
    records: list[TaskRecord] = []
    for pair, label in [(p, LABEL_VALID) for p in positives] + [
        (n, LABEL_ANOMALOUS) for n in negatives
    ]:
        records.append(
            TaskRecord(
                record_id=_record_id(model.model_id, Task.ASAD, len(records)),
                task=Task.ASAD,
                model_id=model.model_id,
                activity_set=activities,
                pair=pair,
                label=label,
            )
        )
    return records


def gen_snap(model: ProcessModel) -> list[TaskRecord]:
    """Next-activity records: every strict prefix of every sequence.

    Identical (prefix, next) pairs within one model collapse to the first
    occurrence.
    """
    activities = _sorted_activities(model)
    seen: set[tuple[Trace, Activity]] = set()
    records: list[TaskRecord] = []
    for sequence in model.nonempty_sequences:
        for k in range(1, len(sequence)):
            item = (sequence[:k], sequence[k])
            if item in seen:
                continue
            seen.add(item)
            records.append(
                TaskRecord(
                    record_id=_record_id(model.model_id, Task.SNAP, len(records)),
                    task=Task.SNAP,
                    model_id=model.model_id,
                    activity_set=activities,
                    prefix=item[0],
                    next_activity=item[1],
                )
            )
    return records


def gen_sdfd(model: ProcessModel) -> TaskRecord:
    """One record per model: gold is the model's directly-follows edges."""
    dfg = dfg_of_model(model)
    return TaskRecord(
        record_id=_record_id(model.model_id, Task.SDFD, 0),
        task=Task.SDFD,
        model_id=model.model_id,
        activity_set=_sorted_activities(model),
        edges=tuple(sorted(dfg.edges)),
    )


def gen_sptd(model: ProcessModel, tree: ProcessTree) -> TaskRecord:
    """One record per model: gold is the model's canonical tree text."""
    return TaskRecord(
        record_id=_record_id(model.model_id, Task.SPTD, 0),
        task=Task.SPTD,
        model_id=model.model_id,
        activity_set=_sorted_activities(model),
        tree_text=render_tree(tree),
    )


def generate_task(
    task: Task,
    admitted: AdmittedModel,
    seed: int,
    min_log_size: int = DEFAULT_MIN_LOG_SIZE,
    noise_prob: float = DEFAULT_NOISE_PROB,
    max_retries: int = DEFAULT_MAX_RETRIES,
) -> list[TaskRecord]:
    """Uniform entry point over the five generators."""
    model = admitted.model
    if task is Task.TSAD:
        return gen_tsad(model, seed, min_log_size, noise_prob, max_retries)
    if task is Task.ASAD:
        return gen_asad(model, seed)
    if task is Task.SNAP:
        return gen_snap(model)
    if task is Task.SDFD:
        return [gen_sdfd(model)]
    return [gen_sptd(model, admitted.tree)]


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


@dataclass(frozen=True)
class SplitAssignment:
    assignment: dict[str, Split] = field(hash=False)
    components: tuple[tuple[str, ...], ...]
    component_bins: tuple[int, ...]

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


def _bin_index(activity_count: int) -> int:
    for idx, (low, high) in enumerate(ACTIVITY_BINS):
        if activity_count >= low and (high is None or activity_count <= high):
            return idx
    return 0


def split_corpus(
    models: list[ProcessModel],
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
    """
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise ValueError("split ratios must sum to 1")
    ordered = sorted(models, key=lambda m: m.model_id)
    uf = _UnionFind(len(ordered))
    first_owner: dict[Trace, int] = {}
    for i, model in enumerate(ordered):
        for sequence in model.sequences:
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
