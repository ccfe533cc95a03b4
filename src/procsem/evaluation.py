"""Scoring of prediction files against gold records, plus random baselines.

Classification tasks are scored with macro F1 (the unweighted mean of
per-class F1 values). Generation tasks are scored with footprint-based
fitness: the fraction of ordered gold-activity pairs on which the gold and
the predicted footprints agree. It is computed from the two directly-follows
edge sets, read off the trees for tree tasks, so scoring builds no footprint
and never plays out a tree.

Unparseable predictions score 0 and are counted; they are never excluded.
Matching is case-insensitive with whitespace folding by default, with a
case-sensitive mode available.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from collections import Counter
from collections.abc import Collection, Iterable, Iterator, Mapping
from enum import Enum
from math import fsum

from .core import (
    Activity,
    Dfg,
    Footprint,
    Frozen,
    Leaf,
    Operator,
    Pair,
    Silent,
    collapse_whitespace,
    fold_tree,
    tree_labels,
)
from .semantics import dfg_of_model, footprint
from .taskgen import (
    CLASSIFICATION_TASKS,
    LABEL_ANOMALOUS,
    LABEL_VALID,
    Task,
    TaskRecord,
    model_seed,
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

    def __init__(self, record_id: str) -> None:
        super().__init__(f"prediction for unknown record {record_id!r}")
        self.record_id = record_id


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


class _Tally:
    """tp/fp/fn counts per class, taken one (gold, prediction) pair at a time;
    a None prediction counts against its gold's recall only."""

    def __init__(self) -> None:
        self.tp: Counter[str] = Counter()
        self.fp: Counter[str] = Counter()
        self.fn: Counter[str] = Counter()

    def add(self, gold: str, pred: str | None) -> None:
        if gold == pred:
            self.tp[gold] += 1
            return
        self.fn[gold] += 1
        if pred is not None:
            self.fp[pred] += 1

    def f1(self, class_universe: list[str] | None = None) -> dict[str, float]:
        """F1 of each class in the universe; by default the sorted union of
        the golds and the non-None predictions."""
        tp, fp, fn = self.tp, self.fp, self.fn
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
    tally = _Tally()
    for g, p in zip(golds, preds):
        tally.add(g, p)
    return tally.f1(class_universe)


def _mean(values: Collection[float]) -> float:
    """The mean of `values`, a correctly rounded sum over their count."""
    return fsum(values) / len(values)


def _mean_f1(scores: dict[str, float]) -> float:
    return _mean(scores.values()) if scores else 0.0


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


def edge_fitness(
    activities: frozenset[Activity],
    gold_edges: frozenset[Pair],
    pred_edges: frozenset[Pair],
    include_diagonal: bool = True,
) -> float:
    """Fraction of ordered pairs over `activities` whose footprint relations
    under the two edge sets agree.

    A pair's relation depends on the pair and its mirror, so it disagrees
    exactly when it or its mirror lies in D, the symmetric difference of
    the edge sets; the score is (total - |D ∪ Dᵀ|) / total. Edges outside
    the activities are ignored.
    """
    n = len(activities)
    total = n * n if include_diagonal else n * (n - 1)
    if not total:
        return 1.0
    diff = {
        (x, y)
        for x, y in gold_edges ^ pred_edges
        if x in activities and y in activities and (include_diagonal or x != y)
    }
    wrong = len(diff | {(y, x) for x, y in diff})
    return (total - wrong) / total


class RecordScore(Frozen):
    def __init__(
        self, record_id: str, fitness: float, parse_failure: bool = False,
        hallucinated: tuple[Activity, ...] = (), skipped_lines: int = 0,
    ) -> None:
        self.__dict__.update(record_id=record_id, fitness=fitness, parse_failure=parse_failure,
                             hallucinated=hallucinated, skipped_lines=skipped_lines)


def _gold_map(
    record: TaskRecord, labels: Iterable[Activity], mode: MatchingMode
) -> dict[Activity, Activity | None]:
    """Each predicted label mapped onto the gold activity it matches under
    `mode`, or None; of gold activities that fold alike, the first sorted."""
    fold_map: dict[str, Activity] = {}
    for a in sorted(record.activity_set):
        fold_map.setdefault(fold_label(a, mode), a)
    return {a: fold_map.get(fold_label(a, mode)) for a in labels}


def _footprint_score(
    record: TaskRecord, gold_edges: frozenset[Pair], gold_of: dict[Activity, Activity | None],
    pred_edges: Iterable[Pair], include_diagonal: bool, skipped_lines: int = 0,
) -> RecordScore:
    """Fitness of predicted edges, mapped onto gold activities by `gold_of`,
    whose unmatched labels are tallied as hallucinated."""
    return RecordScore(
        record_id=record.record_id,
        fitness=edge_fitness(
            frozenset(record.activity_set), gold_edges, frozenset(pred_edges), include_diagonal
        ),
        hallucinated=tuple(sorted(a for a, g in gold_of.items() if g is None)),
        skipped_lines=skipped_lines,
    )


def score_sdfd(
    record: TaskRecord,
    pred_text: str,
    mode: MatchingMode = MatchingMode.CASE_INSENSITIVE,
    include_diagonal: bool = True,
) -> RecordScore:
    """Footprint fitness of predicted edge lines against a gold DFG record.

    Non-empty text yielding no edges at all is a parse failure and scores 0;
    empty text is an empty (edge-free) prediction and is scored normally.
    Edges with an endpoint that matches no gold activity are dropped.
    """
    parsed = parse_dfg_edges(pred_text)
    if not parsed.edges and pred_text.strip():
        return RecordScore(
            record_id=record.record_id,
            fitness=0.0,
            parse_failure=True,
            skipped_lines=len(parsed.skipped),
        )
    gold_of = _gold_map(record, dict.fromkeys(a for edge in parsed.edges for a in edge), mode)
    edges = [(gold_of[x], gold_of[y]) for x, y in parsed.edges]
    gold_edges, skipped = frozenset(record.edges), len(parsed.skipped)
    return _footprint_score(record, gold_edges, gold_of, edges, include_diagonal, skipped)


def score_sptd(
    record: TaskRecord,
    pred_text: str,
    mode: MatchingMode = MatchingMode.CASE_INSENSITIVE,
    include_diagonal: bool = True,
) -> RecordScore:
    """Footprint fitness of a predicted tree against a gold tree record.

    Each leaf is renamed to the gold activity it matches, or to one label
    longer than any gold one, before the relations are read off the tree
    with no play-out: the walk meets at most one label more than the gold
    has, and the edges between gold activities stay. Only a tree that does
    not parse is a parse failure, and it scores 0.
    """
    try:
        tree = parse_tree(pred_text)
    except TreeSyntaxError:
        return RecordScore(
            record_id=record.record_id, fitness=0.0, parse_failure=True
        )
    gold_of = _gold_map(record, tree_labels(tree), mode)
    unmatched = "?" * (1 + max(map(len, record.activity_set), default=0))
    renamed = fold_tree(
        tree, lambda label: Leaf(gold_of[label] or unmatched), Silent(),
        lambda kind, parts: Operator(kind, tuple(parts)),
    )
    pred_edges = dfg_of_model(renamed).edges
    gold_edges = dfg_of_model(parse_tree(record.tree_text)).edges
    return _footprint_score(record, gold_edges, gold_of, pred_edges, include_diagonal)


# ---------------------------------------------------------------------------
# Dataset-level scoring


class ScoreReport(Frozen):
    """A task's score; the two maps, empty when not given, stay out of the hash."""

    _unhashed = ("per_class_f1", "per_record_fitness")

    def __init__(
        self, task: Task, n_records: int, metric_name: str, value: float,
        matching_mode: MatchingMode, n_parse_failures: int, n_missing_predictions: int,
        n_hallucinated_activities: int = 0, per_class_f1: dict[str, float] | None = None,
        per_record_fitness: dict[str, float] | None = None,
    ) -> None:
        self.__dict__.update(
            task=task, n_records=n_records, metric_name=metric_name, value=value,
            matching_mode=matching_mode, n_parse_failures=n_parse_failures,
            n_missing_predictions=n_missing_predictions,
            n_hallucinated_activities=n_hallucinated_activities,
            per_class_f1={} if per_class_f1 is None else per_class_f1,
            per_record_fitness={} if per_record_fitness is None else per_record_fitness,
        )


def score_dataset(
    records: Iterable[TaskRecord],
    predictions: Mapping[str, str],
    mode: MatchingMode = MatchingMode.CASE_INSENSITIVE,
    include_diagonal: bool = True,
) -> ScoreReport:
    """Score one task's records against each record id's prediction text,
    taking each record once, as it comes, in any order.

    Records without a prediction count as parse failures (macro F1 treats
    them as unclassified; fitness tasks score them 0). Predictions for
    unknown record ids are rejected, naming the first in map order.
    """
    # The prediction ids, sorted, and a byte for each that a record asked
    # for: all that the check for unknown ids keeps, so no record is held.
    # Records in id order find their id next to the last one found.
    ids = sorted(predictions)
    asked = bytearray(len(ids))
    at = 0

    def text_of(record_id: str) -> str | None:
        nonlocal at
        if at == len(ids) or ids[at] != record_id:
            at = bisect_left(ids, record_id)
            if at == len(ids) or ids[at] != record_id:
                return None
        asked[at] = 1
        at += 1
        return predictions[record_id]

    task: Task | None = None
    tally = _Tally()
    per_record: dict[str, float] = {}
    fitnesses: list[float] = []
    n_records = n_missing = n_failures = n_hallucinated = 0
    for record in records:
        if task is None:
            task = record.task
        elif record.task is not task:
            tasks = sorted({task.value, record.task.value})
            raise ValueError(f"records span multiple tasks: {tasks}")
        n_records += 1
        text = text_of(record.record_id)
        n_missing += text is None
        if task in CLASSIFICATION_TASKS or task is Task.SNAP:
            # A missing prediction is read as empty text; a None class
            # marks a missing or unparseable answer.
            if task is Task.SNAP:
                gold = fold_label(record.next_activity, mode)
                pred = fold_label(text or "", mode) or None
            else:
                gold, pred = record.label or "", parse_binary_label(text or "")
            tally.add(gold, pred)
            n_failures += pred is None
            continue
        if text is None:
            score = RecordScore(record_id=record.record_id, fitness=0.0, parse_failure=True)
        else:
            scorer = score_sdfd if task is Task.SDFD else score_sptd
            score = scorer(record, text, mode, include_diagonal)
        per_record[score.record_id] = score.fitness
        fitnesses.append(score.fitness)
        n_failures += score.parse_failure
        n_hallucinated += len(score.hallucinated)
    if task is None:
        raise ValueError("no records to score")
    if 0 in asked:
        unasked = {i for i, was_asked in zip(ids, asked) if not was_asked}
        raise UnknownRecordError(next(i for i in predictions if i in unasked))

    if task in CLASSIFICATION_TASKS or task is Task.SNAP:
        universe = list(BINARY_CLASSES) if task in CLASSIFICATION_TASKS else None
        class_scores = tally.f1(universe)
        return ScoreReport(
            task=task,
            n_records=n_records,
            metric_name="macro_f1",
            value=_mean_f1(class_scores),
            matching_mode=mode,
            n_parse_failures=n_failures,
            n_missing_predictions=n_missing,
            per_class_f1=class_scores,
        )
    return ScoreReport(
        task=task,
        n_records=n_records,
        metric_name="mean_footprint_fitness",
        value=_mean(fitnesses),
        matching_mode=mode,
        n_parse_failures=n_failures,
        n_missing_predictions=n_missing,
        n_hallucinated_activities=n_hallucinated,
        per_record_fitness=per_record,
    )


# ---------------------------------------------------------------------------
# Random baselines


def random_classification_baseline(
    records: Iterable[TaskRecord], seed: int
) -> Iterator[tuple[str, str]]:
    """Each record's id and a uniform class draw, in the records' order;
    next-activity draws from the record's own activity set."""
    rng = random.Random()
    for record in records:
        rng.seed(model_seed(seed, "baseline", record.task.value, record.record_id))
        if record.task in CLASSIFICATION_TASKS:
            text = rng.choice(BINARY_CLASSES)
        elif record.task is Task.SNAP:
            text = rng.choice(sorted(record.activity_set))
        else:
            raise ValueError(f"random_class does not apply to task {record.task.value}")
        yield record.record_id, text


def random_footprint(activity_set: frozenset[Activity] | tuple[Activity, ...], rng: random.Random) -> Footprint:
    """Uniform relation per unordered pair (mirrored), uniform diagonal,
    drawn as the pair's edges: x→y, y→x, both or neither; x→x or not."""
    activities = sorted(activity_set)
    edges: list[Pair] = []
    for i, x in enumerate(activities):
        edges.extend(rng.choice((((x, x),), ())))
        for y in activities[i + 1 :]:
            edges.extend(rng.choice((((x, y),), ((y, x),), ((x, y), (y, x)), ())))
    return footprint(Dfg(activities=frozenset(activities), edges=frozenset(edges)))


def random_footprint_predictions(
    records: Iterable[TaskRecord], seed: int
) -> Iterator[tuple[str, str]]:
    """Each record's id and the edge lines of one random footprint, in the
    records' order.

    Only DFG-generation records can be answered this way; for tree records
    score the equivalent DFG dataset of the same corpus (gold footprints
    coincide model for model).
    """
    rng = random.Random()
    for record in records:
        if record.task is not Task.SDFD:
            raise ValueError(
                "random_footprint emits directly-follows edge lines; generate "
                "them for the sdfd dataset of the same corpus (per-model gold "
                "footprints coincide with sptd)"
            )
        rng.seed(model_seed(seed, "baseline", record.task.value, record.record_id))
        edges = random_footprint(record.activity_set, rng).edges
        yield record.record_id, render_dfg_edges(tuple(edges))


def expected_random_footprint_fitness(n: int, include_diagonal: bool = True) -> float:
    """Analytic mean fitness of the random-footprint baseline over `n`
    gold activities.

    Each off-diagonal ordered pair matches with probability 1/4, each
    diagonal pair with probability 1/2 (gold diagonals are PARALLEL or
    NONE by construction). With no pair to score the fitness is 1.0.
    """
    if include_diagonal:
        if n == 0:
            return 1.0
        offdiag = n * (n - 1)
        return (0.25 * offdiag + 0.5 * n) / (n * n)
    return 0.25 if n > 1 else 1.0
