"""Scoring of prediction files against gold records, plus random baselines.

Classification tasks are scored with macro F1 (the unweighted mean of
per-class F1 values). Generation tasks are scored with footprint-based
fitness: both the gold and the predicted behavior are reduced to footprints
over the gold activity set and the score is the fraction of ordered activity
pairs on which the two footprints agree.

Unparseable predictions score 0 and are counted; they are never excluded.
Matching is case-insensitive with whitespace folding by default, with a
case-sensitive mode available.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from statistics import fmean

from .core import MIRROR, Activity, Dfg, Footprint, Relation, collapse_whitespace
from .semantics import (
    DEFAULT_MAX_SEQUENCES,
    LanguageTooLargeError,
    dfg_of_model,
    footprint,
    playout,
)
from .taskgen import (
    CLASSIFICATION_TASKS,
    LABEL_ANOMALOUS,
    LABEL_VALID,
    Prediction,
    Task,
    TaskRecord,
    model_rng,
)
from .tree_dsl import TreeSyntaxError, parse_dfg_edges, parse_tree, render_dfg_edges

BINARY_CLASSES = (LABEL_VALID, LABEL_ANOMALOUS)


class MatchingMode(str, Enum):
    CASE_SENSITIVE = "case_sensitive"
    CASE_INSENSITIVE = "case_insensitive"


class LengthMismatchError(ValueError):
    """Raised when gold and prediction lists differ in length."""


class UnknownRecordError(ValueError):
    """Raised when a prediction references no record in the dataset."""


def fold_label(label: str, mode: MatchingMode) -> str:
    """Comparison key for a label under the given matching mode; "" if blank."""
    collapsed = collapse_whitespace(label)
    if mode is MatchingMode.CASE_SENSITIVE:
        return collapsed
    return collapsed.casefold()


_BINARY_ALIASES = {
    "valid": LABEL_VALID,
    "false": LABEL_VALID,
    "anomalous": LABEL_ANOMALOUS,
    "true": LABEL_ANOMALOUS,
}


def parse_binary_label(text: str) -> str | None:
    """Valid/Anomalous, with true/false accepted as aliases; None otherwise."""
    return _BINARY_ALIASES.get(text.strip().casefold())


# ---------------------------------------------------------------------------
# Macro F1


def per_class_f1(
    golds: list[str],
    preds: list[str | None],
    class_universe: list[str] | None = None,
) -> dict[str, float]:
    """F1 of each class in the universe, from one pass of tp/fp/fn counts.

    The default universe is the sorted union of gold and (non-None)
    predicted labels. A None prediction counts against its gold's recall
    only.
    """
    if len(golds) != len(preds):
        raise LengthMismatchError(f"{len(golds)} golds vs {len(preds)} predictions")
    tp: Counter[str] = Counter()
    fp: Counter[str] = Counter()
    fn: Counter[str] = Counter()
    for g, p in zip(golds, preds):
        if g == p:
            tp[g] += 1
            continue
        fn[g] += 1
        if p is not None:
            fp[p] += 1
    if class_universe is None:
        # tp and fn hold every gold, tp and fp every non-None prediction.
        class_universe = sorted({*tp, *fp, *fn})
    scores: dict[str, float] = {}
    for cls in class_universe:
        precision = tp[cls] / (tp[cls] + fp[cls]) if tp[cls] + fp[cls] else 0.0
        recall = tp[cls] / (tp[cls] + fn[cls]) if tp[cls] + fn[cls] else 0.0
        if precision + recall == 0:
            scores[cls] = 0.0
        else:
            scores[cls] = 2 * precision * recall / (precision + recall)
    return scores


def _mean_f1(scores: dict[str, float]) -> float:
    return fmean(scores.values()) if scores else 0.0


def macro_f1(
    golds: list[str],
    preds: list[str | None],
    class_universe: list[str] | None = None,
) -> float:
    """Unweighted mean of per-class F1 over the class universe.

    The default universe is the union of gold and (non-None) predicted
    labels; predictions of classes with no gold occurrence drag the mean
    down with a 0 entry.
    """
    return _mean_f1(per_class_f1(golds, preds, class_universe))


# ---------------------------------------------------------------------------
# Footprint fitness


def footprint_fitness(
    gold_fp: Footprint, pred_fp: Footprint, include_diagonal: bool = True
) -> float:
    """Fraction of ordered gold-activity pairs with equal relations.

    Pairs absent from the predicted footprint count as NONE; predicted
    activities outside the gold set are expected to be projected away by
    the caller.
    """
    activities = sorted(gold_fp.activities)
    matches = 0
    total = 0
    for x in activities:
        for y in activities:
            if x == y and not include_diagonal:
                continue
            total += 1
            pred_rel = pred_fp.relations.get((x, y), Relation.NONE)
            if gold_fp.relations[(x, y)] is pred_rel:
                matches += 1
    return matches / total if total else 1.0


@dataclass(frozen=True)
class RecordScore:
    record_id: str
    fitness: float
    parse_failure: bool = False
    hallucinated: tuple[Activity, ...] = ()
    skipped_lines: int = 0


def _footprint_score(
    record: TaskRecord,
    pred: Dfg,
    mode: MatchingMode,
    include_diagonal: bool,
    max_sequences: int,
    skipped_lines: int = 0,
) -> RecordScore:
    """Fitness of a predicted DFG against the record's gold behavior.

    Predicted labels are mapped onto gold activities under `mode`; labels
    that map to none are dropped from the edges and tallied as hallucinated.
    """
    gold_activities = frozenset(record.activity_set)
    fold_map: dict[str, Activity] = {}
    for a in sorted(gold_activities):
        fold_map.setdefault(fold_label(a, mode), a)
    gold_of = {a: fold_map.get(fold_label(a, mode)) for a in pred.activities}
    edges = frozenset(
        (gold_of[x], gold_of[y])
        for x, y in pred.edges
        if gold_of[x] is not None and gold_of[y] is not None
    )
    pred_fp = footprint(Dfg(activities=gold_activities, edges=edges))
    if record.task is Task.SDFD:
        gold_dfg = Dfg(activities=gold_activities, edges=frozenset(record.edges))
    else:
        gold_dfg = dfg_of_model(playout(parse_tree(record.tree_text), max_sequences))
    return RecordScore(
        record_id=record.record_id,
        fitness=footprint_fitness(footprint(gold_dfg), pred_fp, include_diagonal),
        hallucinated=tuple(sorted(a for a, g in gold_of.items() if g is None)),
        skipped_lines=skipped_lines,
    )


def score_sdfd(
    record: TaskRecord,
    pred_text: str,
    mode: MatchingMode = MatchingMode.CASE_INSENSITIVE,
    include_diagonal: bool = True,
    max_sequences: int = DEFAULT_MAX_SEQUENCES,
) -> RecordScore:
    """Footprint fitness of predicted edge lines against a gold DFG record.

    Non-empty text yielding no edges at all is a parse failure and scores 0;
    empty text is an empty (edge-free) prediction and is scored normally.
    """
    parsed = parse_dfg_edges(pred_text, strict=False)
    if not parsed.edges and pred_text.strip():
        return RecordScore(
            record_id=record.record_id,
            fitness=0.0,
            parse_failure=True,
            skipped_lines=len(parsed.skipped),
        )
    pred = Dfg(
        activities=frozenset(a for edge in parsed.edges for a in edge),
        edges=frozenset(parsed.edges),
    )
    return _footprint_score(
        record, pred, mode, include_diagonal, max_sequences, len(parsed.skipped)
    )


def score_sptd(
    record: TaskRecord,
    pred_text: str,
    mode: MatchingMode = MatchingMode.CASE_INSENSITIVE,
    include_diagonal: bool = True,
    max_sequences: int = DEFAULT_MAX_SEQUENCES,
) -> RecordScore:
    """Footprint fitness of a predicted tree against a gold tree record.

    The prediction is parsed and played out; its directly-follows behavior
    is compared footprint-to-footprint with the gold tree's. Any parse or
    play-out failure scores 0.
    """
    try:
        pred_model = playout(parse_tree(pred_text), max_sequences)
    except (TreeSyntaxError, LanguageTooLargeError):
        return RecordScore(
            record_id=record.record_id, fitness=0.0, parse_failure=True
        )
    return _footprint_score(
        record, dfg_of_model(pred_model), mode, include_diagonal, max_sequences
    )


# ---------------------------------------------------------------------------
# Dataset-level scoring


@dataclass(frozen=True)
class ScoreReport:
    task: Task
    n_records: int
    metric_name: str
    value: float
    matching_mode: MatchingMode
    n_parse_failures: int
    n_missing_predictions: int
    n_hallucinated_activities: int = 0
    per_class_f1: dict[str, float] = field(default_factory=dict, hash=False)
    per_record_fitness: dict[str, float] = field(default_factory=dict, hash=False)


def _classification_golds_preds(
    records: list[TaskRecord],
    by_id: dict[str, Prediction],
    mode: MatchingMode,
) -> tuple[list[str], list[str | None]]:
    """Gold and predicted classes; None marks a missing or unparseable answer.

    A missing prediction is read as empty text.
    """
    golds: list[str] = []
    preds: list[str | None] = []
    for record in records:
        prediction = by_id.get(record.record_id)
        text = prediction.raw_text if prediction is not None else ""
        if record.task is Task.SNAP:
            golds.append(fold_label(record.next_activity, mode))
            preds.append(fold_label(text, mode) or None)
        else:
            golds.append(record.label or "")
            preds.append(parse_binary_label(text))
    return golds, preds


def score_dataset(
    records: list[TaskRecord],
    predictions: list[Prediction],
    mode: MatchingMode = MatchingMode.CASE_INSENSITIVE,
    include_diagonal: bool = True,
    max_sequences: int = DEFAULT_MAX_SEQUENCES,
) -> ScoreReport:
    """Score one task's records against a prediction list.

    Records without a prediction count as parse failures (macro F1 treats
    them as unclassified; fitness tasks score them 0). Predictions for
    unknown record ids are rejected.
    """
    if not records:
        raise ValueError("no records to score")
    tasks = {r.task for r in records}
    if len(tasks) != 1:
        raise ValueError(f"records span multiple tasks: {sorted(t.value for t in tasks)}")
    task = tasks.pop()
    known = {r.record_id for r in records}
    by_id: dict[str, Prediction] = {}
    for p in predictions:
        if p.record_id not in known:
            raise UnknownRecordError(f"prediction for unknown record {p.record_id!r}")
        by_id[p.record_id] = p
    n_missing = sum(1 for r in records if r.record_id not in by_id)

    if task in CLASSIFICATION_TASKS or task is Task.SNAP:
        golds, preds = _classification_golds_preds(records, by_id, mode)
        universe = list(BINARY_CLASSES) if task in CLASSIFICATION_TASKS else None
        class_scores = per_class_f1(golds, preds, universe)
        return ScoreReport(
            task=task,
            n_records=len(records),
            metric_name="macro_f1",
            value=_mean_f1(class_scores),
            matching_mode=mode,
            n_parse_failures=preds.count(None),
            n_missing_predictions=n_missing,
            per_class_f1=class_scores,
        )

    scorer = score_sdfd if task is Task.SDFD else score_sptd
    record_scores = [
        scorer(r, by_id[r.record_id].raw_text, mode, include_diagonal, max_sequences)
        if r.record_id in by_id
        else RecordScore(record_id=r.record_id, fitness=0.0, parse_failure=True)
        for r in records
    ]
    return ScoreReport(
        task=task,
        n_records=len(records),
        metric_name="mean_footprint_fitness",
        value=fmean(s.fitness for s in record_scores),
        matching_mode=mode,
        n_parse_failures=sum(1 for s in record_scores if s.parse_failure),
        n_missing_predictions=n_missing,
        n_hallucinated_activities=sum(len(s.hallucinated) for s in record_scores),
        per_record_fitness={s.record_id: s.fitness for s in record_scores},
    )


# ---------------------------------------------------------------------------
# Random baselines


def random_classification_baseline(
    records: list[TaskRecord], seed: int
) -> list[Prediction]:
    """Uniform class draw per record; next-activity draws from the record's
    own activity set."""
    predictions: list[Prediction] = []
    for record in records:
        rng = model_rng(seed, "baseline", record.task.value, record.record_id)
        if record.task in CLASSIFICATION_TASKS:
            text = rng.choice(BINARY_CLASSES)
        elif record.task is Task.SNAP:
            text = rng.choice(sorted(record.activity_set))
        else:
            raise ValueError(f"no classification baseline for task {record.task.value}")
        predictions.append(Prediction(record_id=record.record_id, raw_text=text))
    return predictions


_OFFDIAG_RELATIONS = (
    Relation.FORWARD,
    Relation.BACKWARD,
    Relation.PARALLEL,
    Relation.NONE,
)
_DIAG_RELATIONS = (Relation.PARALLEL, Relation.NONE)


def random_footprint(activity_set: frozenset[Activity] | tuple[Activity, ...], rng: random.Random) -> Footprint:
    """Uniform relation per unordered pair (mirrored), uniform diagonal."""
    activities = sorted(activity_set)
    relations: dict[tuple[Activity, Activity], Relation] = {}
    for i, x in enumerate(activities):
        relations[(x, x)] = rng.choice(_DIAG_RELATIONS)
        for y in activities[i + 1 :]:
            rel = rng.choice(_OFFDIAG_RELATIONS)
            relations[(x, y)] = rel
            relations[(y, x)] = MIRROR[rel]
    return Footprint(activities=frozenset(activities), relations=relations)


def footprint_to_dfg(fp: Footprint) -> Dfg:
    """Edge set whose footprint is exactly `fp` (footprint∘this = identity)."""
    edges = {
        (x, y)
        for (x, y), rel in fp.relations.items()
        if rel is Relation.FORWARD or rel is Relation.PARALLEL
    }
    return Dfg(activities=fp.activities, edges=frozenset(edges))


def random_footprint_predictions(
    records: list[TaskRecord], seed: int
) -> list[Prediction]:
    """Edge-line predictions realizing one random footprint per record.

    Only DFG-generation records can be answered this way; for tree records
    score the equivalent DFG dataset of the same corpus (gold footprints
    coincide model for model).
    """
    predictions: list[Prediction] = []
    for record in records:
        if record.task is not Task.SDFD:
            raise ValueError("random footprint predictions apply to DFG records only")
        rng = model_rng(seed, "baseline", record.task.value, record.record_id)
        fp = random_footprint(record.activity_set, rng)
        edges = footprint_to_dfg(fp).edges
        predictions.append(
            Prediction(
                record_id=record.record_id, raw_text=render_dfg_edges(tuple(edges))
            )
        )
    return predictions


def expected_random_footprint_fitness(
    gold_fp: Footprint, include_diagonal: bool = True
) -> float:
    """Analytic mean fitness of the random-footprint baseline.

    Each off-diagonal ordered pair matches with probability 1/4, each
    diagonal pair with probability 1/2 (gold diagonals are PARALLEL or
    NONE by construction).
    """
    n = len(gold_fp.activities)
    if include_diagonal:
        if n == 0:
            return 1.0
        offdiag = n * (n - 1)
        return (0.25 * offdiag + 0.5 * n) / (n * n)
    return 0.25
