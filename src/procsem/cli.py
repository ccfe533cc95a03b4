"""Command-line pipeline over JSON-Lines files.

Subcommands: synth, validate, playout, gen, split, prompts, baseline,
score. Each prints a machine-readable JSON summary to stdout and a short
human-readable table to stderr. Exit codes: 0 success, 1 fatal input
error, 2 corpus rejections occurred but outputs were written.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import Counter
from contextlib import suppress
from dataclasses import dataclass, replace
from itertools import chain
from math import fsum
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator

from .core import ProcessModel, Trace
from .evaluation import (
    MatchingMode,
    ScoreReport,
    UnknownRecordError,
    random_classification_baseline,
    random_footprint_predictions,
    score_dataset,
)
from .fileio import (
    FileFormatError,
    first_line,
    iter_dataset,
    join_files,
    read_corpus,
    read_dataset,
    read_predictions,
    read_split,
    write_corpus,
    write_dataset,
    write_ft_examples,
    write_icl_prompts,
    write_predictions,
    write_sequences,
    write_split,
)
from .promptgen import (
    ShotPool,
    default_shots,
    load_templates,
    render_ft,
    render_icl,
)
from .semantics import DEFAULT_MAX_SEQUENCES
from .synth import synth_corpus
from .taskgen import (
    DEFAULT_MAX_RETRIES,
    DEFAULT_MIN_LOG_SIZE,
    DEFAULT_NOISE_PROB,
    DEFAULT_SPLIT_RATIOS,
    SequenceSharing,
    Split,
    Task,
    TaskRecord,
    ValidationReport,
    check_split_ratios,
    contiguous_runs,
    generate_dataset,
    played_out,
    split_corpus,
    validate_corpus,
)
from .workers import run_in_processes, usable_cpus

EXIT_OK = 0
EXIT_FATAL = 1
EXIT_PARTIAL = 2


@dataclass(frozen=True)
class RunConfig:
    seed: int = 0
    min_log_size: int = DEFAULT_MIN_LOG_SIZE
    noise_prob: float = DEFAULT_NOISE_PROB
    max_retries: int = DEFAULT_MAX_RETRIES
    split_ratios: tuple[float, float, float] = DEFAULT_SPLIT_RATIOS
    shots: int | None = None
    max_sequences: int = DEFAULT_MAX_SEQUENCES
    matching_mode: MatchingMode = MatchingMode.CASE_INSENSITIVE
    include_diagonal: bool = True

    def __post_init__(self) -> None:
        if not 0.0 <= self.noise_prob <= 1.0:
            raise ValueError("noise_prob must lie in [0, 1]")
        for key, low in (("min_log_size", 0), ("max_retries", 0), ("max_sequences", 1),
                         ("shots", 1)):
            value = getattr(self, key)
            if value is not None and value < low:
                raise ValueError(f"{key} must be at least {low}")
        check_split_ratios(self.split_ratios)


class _Parser(argparse.ArgumentParser):
    # Usage errors are fatal input errors (exit 1); exit 2 is reserved for
    # partial failures.
    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(EXIT_FATAL, f"{self.prog}: error: {message}\n")

    # A subcommand's parser reports the arguments it does not take itself,
    # with its own usage, instead of handing them up to the top-level parser.
    def parse_known_args(self, args=None, namespace=None):
        parsed, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return parsed, extras


def _parse_ratios(text: str) -> tuple[float, ...]:
    try:
        ratios = tuple(float(p) for p in text.split(","))
    except ValueError:
        ratios = ()
    if len(ratios) != 3:
        raise argparse.ArgumentTypeError("expected three comma-separated ratios")
    return ratios


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


_INT_KEY = (_is_int, "an integer", int)
_MATCHING_MODES = [m.value for m in MatchingMode]

# The one listing of the config keys. Key -> (flag, add_argument keywords,
# JSON type check of a --config value, what that check wants, conversion of a
# flag or file value to its RunConfig field). A --config file may hold any
# key; a subcommand has flags for only the keys it reads.
_CONFIG_KEYS: dict[str, tuple[str, dict[str, Any], Callable, str, Callable]] = {
    "seed": ("--seed", {"type": int, "help": "global random seed"}, *_INT_KEY),
    "min_log_size": ("--min-log-size", {"type": int}, *_INT_KEY),
    "noise_prob": ("--noise-prob", {"type": float}, _is_number, "a number", float),
    "max_retries": ("--max-retries", {"type": int}, *_INT_KEY),
    "split_ratios": (
        "--ratios",
        {"type": _parse_ratios, "metavar": "TRAIN,VALIDATION,TEST",
         "help": "train,validation,test ratios, e.g. 0.7,0.2,0.1"},
        lambda v: isinstance(v, list) and len(v) == 3 and all(map(_is_number, v)),
        "a list of three numbers",
        lambda v: tuple(float(x) for x in v),
    ),
    "shots": ("--shots", {"type": int}, *_INT_KEY),
    "max_sequences": ("--max-sequences", {"type": int}, *_INT_KEY),
    "matching_mode": (
        "--matching-mode",
        {"choices": _MATCHING_MODES},
        lambda v: v in _MATCHING_MODES,
        f"one of {', '.join(map(repr, _MATCHING_MODES))}",
        MatchingMode,
    ),
    "include_diagonal": (
        "--include-diagonal",
        {"action": argparse.BooleanOptionalAction,
         "help": "count footprint diagonal pairs (default: yes)"},
        lambda v: isinstance(v, bool), "true or false", bool,
    ),
}


def build_config(args: argparse.Namespace) -> RunConfig:
    """Defaults, overlaid by --config file values, overlaid by flags."""
    config = RunConfig()
    path = getattr(args, "config", None)
    if path:
        try:
            data = json.loads(Path(path).read_text("utf-8"))
        except UnicodeDecodeError:
            raise ValueError(f"{path}: not UTF-8") from None
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: bad JSON: {exc}") from None
        if not isinstance(data, dict):
            raise ValueError(f"{path}: config must be a JSON object")
        for key, value in data.items():
            if key not in _CONFIG_KEYS:
                raise ValueError(f"{path}: unknown config key {key!r}")
            _, _, is_valid, wanted, convert = _CONFIG_KEYS[key]
            if not is_valid(value):
                raise ValueError(f"{path}: {key!r} must be {wanted}")
            try:
                config = replace(config, **{key: convert(value)})
            except ValueError as exc:
                raise ValueError(f"{path}: {exc}") from None
    for key, (*_, convert) in _CONFIG_KEYS.items():
        value = getattr(args, key, None)
        if value is not None:
            config = replace(config, **{key: convert(value)})
    return config


def _emit(summary: dict[str, Any]) -> None:
    print(json.dumps(summary, ensure_ascii=False, indent=2))
    width = max(len(k) for k in summary)
    for key, value in summary.items():
        if isinstance(value, (dict, list)):
            value = json.dumps(value, ensure_ascii=False)
        print(f"  {key:<{width}}  {value}", file=sys.stderr)


def _validated(corpus_path: str, max_sequences: int) -> ValidationReport:
    return validate_corpus(read_corpus(corpus_path), max_sequences)


def _task_records(path: str, records: Iterable[TaskRecord]) -> tuple[Task, Iterator[TaskRecord]]:
    """The task that the records of a dataset file all share, read off the
    first, and the records; a file with none is an error."""
    records = iter(records)
    first = next(records, None)
    if first is None:
        raise ValueError(f"{path}: dataset is empty")
    return first.task, chain([first], records)


def _with_splits(
    records: Iterable[TaskRecord], assignment: dict[str, Split], split_path: str
) -> Iterator[tuple[TaskRecord, Split]]:
    """Each record with its model's split. The models the split file leaves
    out are an error after the last record, naming the first five."""
    missing: set[str] = set()
    for record in records:
        split = assignment.get(record.model_id)
        if split is None:
            missing.add(record.model_id)
        else:
            yield record, split
    if missing:
        raise ValueError(f"{split_path}: models missing from split file: {sorted(missing)[:5]}")


def _rejection_counts(report: ValidationReport) -> dict[str, int]:
    return dict(Counter(rejection.reason.value for rejection in report.rejected))


# ---------------------------------------------------------------------------
# Subcommands. Each takes the parsed arguments and the run config, writes its
# outputs and returns its summary; `main` prints the summary and picks the
# exit code.


def cmd_synth(args: argparse.Namespace, config: RunConfig) -> dict[str, Any]:
    models = synth_corpus(
        n_models=args.n_models,
        seed=config.seed,
        min_activities=args.min_activities,
        max_activities=args.max_activities,
        tau_prob=args.tau_prob,
        min_trace_len=args.min_trace_len,
        max_sequences=config.max_sequences,
    )
    write_corpus(args.out, models)
    return {"command": "synth", "models": len(models), "out": args.out}


def cmd_validate(args: argparse.Namespace, config: RunConfig) -> dict[str, Any]:
    report = _validated(args.corpus, config.max_sequences)
    write_corpus(args.out, report.admitted)
    return {
        "command": "validate",
        "admitted": len(report.admitted),
        "rejected": len(report.rejected),
        "rejection_reasons": _rejection_counts(report),
        "rejections": [
            {"model_id": r.model_id, "reason": r.reason.value, "detail": r.detail}
            for r in report.rejected
        ],
        "out": args.out,
    }


def cmd_playout(args: argparse.Namespace, config: RunConfig) -> dict[str, Any]:
    report = _validated(args.corpus, config.max_sequences)
    models = sorted(report.admitted, key=lambda m: m.model_id)
    sequence_counts: list[int] = []
    # A sequence no two models can share lies in one language alone, so it
    # is counted, not kept; the shareable ones are kept, to count each once
    # however many languages hold it.
    sharing = SequenceSharing(models)
    shared: set[Trace] = set()
    alone = 0

    def played_in_order() -> Iterator[ProcessModel]:
        # Each model is played out once, for its row, and counted there.
        nonlocal alone
        for model in models:
            played = played_out(model)
            kept = sharing.shareable(played.sequences)
            sequence_counts.append(len(played.sequences))
            alone += len(played.sequences) - len(kept)
            shared.update(kept)
            yield played

    write_sequences(args.out, played_in_order())
    activity_counts = [len(m.activity_set) for m in models]
    all_activities = set().union(*(m.activity_set for m in models)) if models else set()
    return {
        "command": "playout",
        "models": len(models),
        "unique_activities": len(all_activities),
        "activities_per_model": _spread(activity_counts),
        "unique_sequences": alone + len(shared),
        "sequences_per_model": _spread(sequence_counts),
        "rejected": len(report.rejected),
        "out": args.out,
    }


def _spread(counts: list[int]) -> dict[str, float]:
    if not counts:
        return {"avg": 0, "median": 0, "min": 0, "max": 0}
    ordered = sorted(counts)
    half = len(ordered) // 2
    return {
        "avg": round(fsum(ordered) / len(ordered), 2),
        "median": ordered[half] if len(ordered) % 2 else (ordered[half - 1] + ordered[half]) / 2,
        "min": ordered[0],
        "max": ordered[-1],
    }


def _part(destination: str, k: int, n_runs: int) -> str:
    """Where run `k` of `n_runs` writes its share of `destination`: the
    destination itself when there is one run, else a hidden sibling."""
    if n_runs == 1:
        return destination
    head, name = os.path.split(destination)
    return os.path.join(head, f".{name}.part{k}")


def cmd_gen(args: argparse.Namespace, config: RunConfig) -> dict[str, Any]:
    report = _validated(args.corpus, config.max_sequences)
    tasks = list(Task) if args.task == "all" else [Task(args.task)]
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    destinations = {task: str(out_dir / f"{task.value}.jsonl") for task in tasks}
    # One contiguous run of models per usable CPU. Cut at batch boundaries,
    # the runs' records follow one another in `record_id` order, so each
    # dataset is its runs' parts joined in order.
    runs = contiguous_runs(report.admitted, usable_cpus())

    def write_run(k: int) -> dict[str, int]:
        counts: dict[str, int] = {}
        for task, destination in destinations.items():
            part = _part(destination, k, len(runs))
            records = generate_dataset(
                task,
                runs[k],
                config.seed,
                config.min_log_size,
                config.noise_prob,
                config.max_retries,
            )
            try:
                counts[task.value] = write_dataset(part, records)
            except OSError as exc:
                if exc.filename != part:
                    raise
                raise OSError(exc.errno, exc.strerror, destination) from None
        return counts

    if len(runs) == 1:
        per_run = [write_run(0)]
    else:
        parts = {
            destination: [_part(destination, k, len(runs)) for k in range(len(runs))]
            for destination in destinations.values()
        }
        try:
            per_run = run_in_processes(len(runs), write_run)
            for destination, its_parts in parts.items():
                join_files(destination, its_parts)
        finally:
            for part in chain.from_iterable(parts.values()):
                with suppress(FileNotFoundError):
                    os.remove(part)
    return {
        "command": "gen",
        "records": {task.value: sum(c[task.value] for c in per_run) for task in tasks},
        "models": len(report.admitted),
        "rejected": len(report.rejected),
        "rejection_reasons": _rejection_counts(report),
        "out_dir": str(out_dir),
    }


def cmd_split(args: argparse.Namespace, config: RunConfig) -> dict[str, Any]:
    report = _validated(args.corpus, config.max_sequences)
    assignment = split_corpus(report.admitted, config.split_ratios, config.seed)
    write_split(args.out, assignment.assignment)
    return {
        "command": "split",
        "models": len(assignment.assignment),
        "components": len(assignment.components),
        "sizes": {split.value: len(assignment.model_ids(split)) for split in Split},
        "rejected": len(report.rejected),
        "out": args.out,
    }


def cmd_prompts(args: argparse.Namespace, config: RunConfig) -> dict[str, Any]:
    # ICL keeps nearly every record, in its shot pool and its queries, so it
    # takes the dataset as one list; fine-tuning pairs are rendered as the
    # records are read.
    dataset = read_dataset if args.mode == "icl" else iter_dataset
    task, records = _task_records(args.dataset, dataset(args.dataset))
    assignment = read_split(args.split)
    with_splits = _with_splits(records, assignment, args.split)
    query_split = Split(args.query_split)
    if args.mode == "ft":
        templates = load_templates(task, args.templates_dir)
        examples = write_ft_examples(args.out, (
            render_ft(task, record, templates)
            for record, split in with_splits
            if split is query_split
        ))
        return {
            "command": "prompts",
            "mode": "ft",
            "task": task.value,
            "examples": examples,
            "query_split": query_split.value,
            "out": args.out,
        }
    train: list[TaskRecord] = []
    queries: list[TaskRecord] = []
    for record, split in with_splits:
        if split is Split.TRAIN:
            train.append(record)
        if split is query_split:
            queries.append(record)
    pool = ShotPool(train)
    templates = load_templates(task, args.templates_dir)
    shots = config.shots if config.shots is not None else default_shots(task)
    prompts = write_icl_prompts(args.out, (
        render_icl(task, query, pool, shots, config.seed, templates) for query in queries
    ))
    return {
        "command": "prompts",
        "mode": "icl",
        "task": task.value,
        "prompts": prompts,
        "shots": shots,
        "query_split": query_split.value,
        "out": args.out,
    }


def cmd_baseline(args: argparse.Namespace, config: RunConfig) -> dict[str, Any]:
    task, records = _task_records(args.dataset, iter_dataset(args.dataset))
    if args.kind == "random_class":
        predictions = random_classification_baseline(records, config.seed)
    else:
        predictions = random_footprint_predictions(records, config.seed)
    return {
        "command": "baseline",
        "kind": args.kind,
        "task": task.value,
        "predictions": write_predictions(args.out, predictions),
        "out": args.out,
    }


def cmd_score(args: argparse.Namespace, config: RunConfig) -> dict[str, Any]:
    # Both files are opened before either is read, so one that cannot be
    # opened fails at once.
    records = iter_dataset(args.dataset)
    predictions = read_predictions(args.predictions)
    _, records = _task_records(args.dataset, records)
    try:
        report = score_dataset(
            records,
            predictions,
            mode=config.matching_mode,
            include_diagonal=config.include_diagonal,
        )
    except UnknownRecordError as exc:
        line = first_line(args.predictions, "record_id", exc.record_id)
        raise FileFormatError(args.predictions, line, str(exc)) from None
    return _report_summary(report, include_per_record=args.per_record)


def _report_summary(report: ScoreReport, include_per_record: bool) -> dict[str, Any]:
    summary: dict[str, Any] = {
        "command": "score",
        "task": report.task.value,
        "n_records": report.n_records,
        "metric": report.metric_name,
        "value": round(report.value, 6),
        "matching_mode": report.matching_mode.value,
        "n_parse_failures": report.n_parse_failures,
        "n_missing_predictions": report.n_missing_predictions,
    }
    if report.per_class_f1:
        summary["per_class_f1"] = {
            k: round(v, 6) for k, v in sorted(report.per_class_f1.items())
        }
    if report.per_record_fitness:
        summary["n_hallucinated_activities"] = report.n_hallucinated_activities
        if include_per_record:
            summary["per_record_fitness"] = {
                k: round(v, 6) for k, v in sorted(report.per_record_fitness.items())
            }
    return summary


# ---------------------------------------------------------------------------
# Parser assembly


def _add_config_flags(parser: argparse.ArgumentParser, *keys: str) -> None:
    """--config, and a flag for each config key the subcommand reads."""
    parser.add_argument("--config", help="JSON file with config defaults")
    for key in keys:
        flag, kwargs = _CONFIG_KEYS[key][:2]
        parser.add_argument(flag, dest=key, **kwargs)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="procsem", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a random synthetic corpus")
    p.add_argument("--n-models", type=int, required=True)
    p.add_argument("--min-activities", type=int, default=2)
    p.add_argument("--max-activities", type=int, default=8)
    p.add_argument("--tau-prob", type=float, default=0.15)
    p.add_argument("--min-trace-len", type=int, default=0)
    p.add_argument("--out", required=True)
    _add_config_flags(p, "seed", "max_sequences")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("validate", help="play out a corpus, report rejections")
    p.add_argument("corpus")
    p.add_argument("--out", required=True, help="admitted corpus file")
    _add_config_flags(p, "max_sequences")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("playout", help="write per-model sequences and stats")
    p.add_argument("corpus")
    p.add_argument("--out", required=True)
    _add_config_flags(p, "max_sequences")
    p.set_defaults(func=cmd_playout)

    p = sub.add_parser("gen", help="generate task datasets from a corpus")
    p.add_argument("corpus")
    p.add_argument("--task", choices=[*[t.value for t in Task], "all"], default="all")
    p.add_argument("--out-dir", required=True)
    _add_config_flags(p, "seed", "min_log_size", "noise_prob", "max_retries", "max_sequences")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("split", help="leakage-free train/validation/test split")
    p.add_argument("corpus")
    p.add_argument("--out", required=True)
    _add_config_flags(p, "seed", "split_ratios", "max_sequences")
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("prompts", help="render ICL prompts or fine-tuning pairs")
    p.add_argument("--dataset", required=True)
    p.add_argument("--split", required=True)
    p.add_argument("--mode", choices=["icl", "ft"], default="icl")
    p.add_argument(
        "--query-split",
        choices=[s.value for s in Split],
        default=Split.TEST.value,
    )
    p.add_argument("--templates-dir", default=None)
    p.add_argument("--out", required=True)
    _add_config_flags(p, "seed", "shots")
    p.set_defaults(func=cmd_prompts)

    p = sub.add_parser("baseline", help="write random baseline predictions")
    p.add_argument("--dataset", required=True)
    p.add_argument("--kind", choices=["random_class", "random_footprint"], required=True)
    p.add_argument("--out", required=True)
    _add_config_flags(p, "seed")
    p.set_defaults(func=cmd_baseline)

    p = sub.add_parser("score", help="score a prediction file against a dataset")
    p.add_argument("--dataset", required=True)
    p.add_argument("--predictions", required=True)
    p.add_argument("--per-record", action="store_true")
    _add_config_flags(p, "matching_mode", "include_diagonal")
    p.set_defaults(func=cmd_score)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        summary = args.func(args, build_config(args))
        _emit(summary)
    # File-format, unknown-record and shot-pool errors are all ValueErrors.
    except (OSError, ValueError) as exc:
        print(f"procsem: error: {exc}", file=sys.stderr)
        return EXIT_FATAL
    # Exit 2 means exactly: rows were rejected, and the outputs were written.
    return EXIT_PARTIAL if summary.get("rejected") else EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
