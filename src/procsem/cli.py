"""Command-line pipeline over JSON-Lines files.

Subcommands: synth, validate, playout, gen, split, prompts, baseline,
score. Each prints a machine-readable JSON summary to stdout and a short
human-readable table to stderr. Exit codes: 0 success, 1 fatal input
error, 2 corpus rejections occurred but outputs were written.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from statistics import fmean, median
from typing import Any

from .evaluation import (
    MatchingMode,
    ScoreReport,
    random_classification_baseline,
    random_footprint_predictions,
    score_dataset,
)
from .fileio import (
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
    default_shots,
    load_templates,
    render_ft,
    render_icl,
)
from .semantics import DEFAULT_MAX_SEQUENCES
from .synth import synth_corpus
from .taskgen import (
    CLASSIFICATION_TASKS,
    CorpusEntry,
    DEFAULT_MAX_RETRIES,
    DEFAULT_MIN_LOG_SIZE,
    DEFAULT_NOISE_PROB,
    DEFAULT_SPLIT_RATIOS,
    Split,
    Task,
    TaskRecord,
    ValidationReport,
    generate_task,
    split_corpus,
    validate_corpus,
)

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
        if abs(sum(self.split_ratios) - 1.0) > 1e-9:
            raise ValueError("split ratios must sum to 1")


class _Parser(argparse.ArgumentParser):
    # Usage errors are fatal input errors (exit 1); exit 2 is reserved for
    # partial failures.
    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(EXIT_FATAL, f"{self.prog}: error: {message}\n")


def _parse_ratios(text: str) -> tuple[float, float, float]:
    parts = [p for p in text.split(",") if p.strip()]
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("expected three comma-separated ratios")
    return (float(parts[0]), float(parts[1]), float(parts[2]))


_CONFIG_KEYS = {
    "seed": int,
    "min_log_size": int,
    "noise_prob": float,
    "max_retries": int,
    "split_ratios": lambda v: tuple(float(x) for x in v),
    "shots": int,
    "max_sequences": int,
    "matching_mode": MatchingMode,
    "include_diagonal": bool,
}


def build_config(args: argparse.Namespace) -> RunConfig:
    """Defaults, overlaid by --config file values, overlaid by flags."""
    config = RunConfig()
    path = getattr(args, "config", None)
    if path:
        data = json.loads(Path(path).read_text("utf-8"))
        if not isinstance(data, dict):
            raise ValueError(f"{path}: config must be a JSON object")
        for key, value in data.items():
            if key not in _CONFIG_KEYS:
                raise ValueError(f"{path}: unknown config key {key!r}")
            config = replace(config, **{key: _CONFIG_KEYS[key](value)})
    for key in _CONFIG_KEYS:
        value = getattr(args, key, None)
        if value is not None:
            config = replace(config, **{key: value})
    return config


def _emit(summary: dict[str, Any]) -> None:
    print(json.dumps(summary, ensure_ascii=False, indent=2))
    width = max(len(k) for k in summary)
    for key, value in summary.items():
        if isinstance(value, (dict, list)):
            value = json.dumps(value, ensure_ascii=False)
        print(f"  {key:<{width}}  {value}", file=sys.stderr)


def _validated(corpus_path: str, max_sequences: int) -> tuple[ValidationReport, int]:
    entries, parse_rejections = read_corpus(corpus_path)
    report = validate_corpus(entries, max_sequences)
    report = ValidationReport(
        admitted=report.admitted,
        rejected=tuple([*parse_rejections, *report.rejected]),
    )
    status = EXIT_PARTIAL if report.rejected else EXIT_OK
    return report, status


def _read_task_dataset(path: str) -> tuple[Task, list[TaskRecord]]:
    """The records of a non-empty dataset file, and the task they all share."""
    records = read_dataset(path)
    if not records:
        raise ValueError(f"{path}: dataset is empty")
    return records[0].task, records


def _rejection_counts(report: ValidationReport) -> dict[str, int]:
    counts: dict[str, int] = {}
    for rejection in report.rejected:
        counts[rejection.reason.value] = counts.get(rejection.reason.value, 0) + 1
    return counts


# ---------------------------------------------------------------------------
# Subcommands


def cmd_synth(args: argparse.Namespace) -> int:
    config = build_config(args)
    entries = synth_corpus(
        n_models=args.n_models,
        seed=config.seed,
        min_activities=args.min_activities,
        max_activities=args.max_activities,
        tau_prob=args.tau_prob,
        min_trace_len=args.min_trace_len,
        max_sequences=config.max_sequences,
    )
    write_corpus(args.out, entries)
    _emit({"command": "synth", "models": len(entries), "out": args.out})
    return EXIT_OK


def cmd_validate(args: argparse.Namespace) -> int:
    config = build_config(args)
    report, status = _validated(args.corpus, config.max_sequences)
    write_corpus(
        args.out,
        [
            CorpusEntry(
                model_id=a.model.model_id, tree=a.tree, name=a.model.name
            )
            for a in report.admitted
        ],
    )
    _emit(
        {
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
    )
    return status


def cmd_playout(args: argparse.Namespace) -> int:
    config = build_config(args)
    report, status = _validated(args.corpus, config.max_sequences)
    models = report.models
    write_sequences(args.out, models)
    activity_counts = [len(m.activity_set) for m in models]
    sequence_counts = [len(m.sequences) for m in models]
    all_activities = set().union(*(m.activity_set for m in models)) if models else set()
    all_sequences = set().union(*(m.sequences for m in models)) if models else set()
    _emit(
        {
            "command": "playout",
            "models": len(models),
            "unique_activities": len(all_activities),
            "activities_per_model": _spread(activity_counts),
            "unique_sequences": len(all_sequences),
            "sequences_per_model": _spread(sequence_counts),
            "rejected": len(report.rejected),
            "out": args.out,
        }
    )
    return status


def _spread(counts: list[int]) -> dict[str, float]:
    if not counts:
        return {"avg": 0, "median": 0, "min": 0, "max": 0}
    return {
        "avg": round(fmean(counts), 2),
        "median": median(counts),
        "min": min(counts),
        "max": max(counts),
    }


def cmd_gen(args: argparse.Namespace) -> int:
    config = build_config(args)
    report, status = _validated(args.corpus, config.max_sequences)
    tasks = list(Task) if args.task == "all" else [Task(args.task)]
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    counts: dict[str, int] = {}
    for task in tasks:
        records = []
        for admitted in report.admitted:
            records.extend(
                generate_task(
                    task,
                    admitted,
                    config.seed,
                    config.min_log_size,
                    config.noise_prob,
                    config.max_retries,
                )
            )
        write_dataset(out_dir / f"{task.value}.jsonl", records)
        counts[task.value] = len(records)
    _emit(
        {
            "command": "gen",
            "records": counts,
            "models": len(report.admitted),
            "rejected": len(report.rejected),
            "rejection_reasons": _rejection_counts(report),
            "out_dir": str(out_dir),
        }
    )
    return status


def cmd_split(args: argparse.Namespace) -> int:
    config = build_config(args)
    report, status = _validated(args.corpus, config.max_sequences)
    assignment = split_corpus(report.models, config.split_ratios, config.seed)
    write_split(args.out, assignment)
    _emit(
        {
            "command": "split",
            "models": len(assignment.assignment),
            "components": len(assignment.components),
            "sizes": {
                split.value: len(assignment.model_ids(split)) for split in Split
            },
            "rejected": len(report.rejected),
            "out": args.out,
        }
    )
    return status


def cmd_prompts(args: argparse.Namespace) -> int:
    config = build_config(args)
    task, records = _read_task_dataset(args.dataset)
    assignment = read_split(args.split)
    missing = sorted({r.model_id for r in records} - set(assignment))
    if missing:
        raise ValueError(f"models missing from split file: {missing[:5]}")
    templates = load_templates(task, args.templates_dir)
    shots = config.shots if config.shots is not None else default_shots(task)
    query_split = Split(args.query_split)
    if args.mode == "ft":
        examples = [
            render_ft(task, r, templates)
            for r in records
            if assignment[r.model_id] is query_split
        ]
        write_ft_examples(args.out, examples)
        _emit(
            {
                "command": "prompts",
                "mode": "ft",
                "task": task.value,
                "examples": len(examples),
                "query_split": query_split.value,
                "out": args.out,
            }
        )
        return EXIT_OK
    pool = [r for r in records if assignment[r.model_id] is Split.TRAIN]
    queries = [r for r in records if assignment[r.model_id] is query_split]
    bundles = [
        render_icl(task, q, pool, shots, config.seed, templates) for q in queries
    ]
    write_icl_prompts(args.out, bundles)
    _emit(
        {
            "command": "prompts",
            "mode": "icl",
            "task": task.value,
            "prompts": len(bundles),
            "shots": shots,
            "query_split": query_split.value,
            "out": args.out,
        }
    )
    return EXIT_OK


def cmd_baseline(args: argparse.Namespace) -> int:
    config = build_config(args)
    task, records = _read_task_dataset(args.dataset)
    if args.kind == "random_class":
        if task not in (*CLASSIFICATION_TASKS, Task.SNAP):
            raise ValueError(f"random_class does not apply to task {task.value}")
        predictions = random_classification_baseline(records, config.seed)
    else:
        if task is not Task.SDFD:
            raise ValueError(
                "random_footprint emits directly-follows edge lines; generate "
                "them for the sdfd dataset of the same corpus (per-model gold "
                "footprints coincide with sptd)"
            )
        predictions = random_footprint_predictions(records, config.seed)
    write_predictions(args.out, predictions)
    _emit(
        {
            "command": "baseline",
            "kind": args.kind,
            "task": task.value,
            "predictions": len(predictions),
            "out": args.out,
        }
    )
    return EXIT_OK


def cmd_score(args: argparse.Namespace) -> int:
    config = build_config(args)
    records = read_dataset(args.dataset)
    predictions = read_predictions(args.predictions)
    report = score_dataset(
        records,
        predictions,
        mode=config.matching_mode,
        include_diagonal=config.include_diagonal,
        max_sequences=config.max_sequences,
    )
    summary = _report_summary(report, include_per_record=args.per_record)
    _emit(summary)
    return EXIT_OK


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


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON file with config defaults")
    parser.add_argument("--seed", type=int, help="global random seed")
    parser.add_argument("--min-log-size", dest="min_log_size", type=int)
    parser.add_argument("--noise-prob", dest="noise_prob", type=float)
    parser.add_argument("--max-retries", dest="max_retries", type=int)
    parser.add_argument(
        "--ratios",
        dest="split_ratios",
        type=_parse_ratios,
        help="train,validation,test ratios, e.g. 0.7,0.2,0.1",
    )
    parser.add_argument("--shots", type=int)
    parser.add_argument("--max-sequences", dest="max_sequences", type=int)
    parser.add_argument(
        "--matching-mode",
        dest="matching_mode",
        type=MatchingMode,
        choices=list(MatchingMode),
    )
    parser.add_argument(
        "--include-diagonal",
        dest="include_diagonal",
        action=argparse.BooleanOptionalAction,
        default=None,
        help="count footprint diagonal pairs (default: yes)",
    )


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
    _add_config_flags(p)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("validate", help="play out a corpus, report rejections")
    p.add_argument("corpus")
    p.add_argument("--out", required=True, help="admitted corpus file")
    _add_config_flags(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("playout", help="write per-model sequences and stats")
    p.add_argument("corpus")
    p.add_argument("--out", required=True)
    _add_config_flags(p)
    p.set_defaults(func=cmd_playout)

    p = sub.add_parser("gen", help="generate task datasets from a corpus")
    p.add_argument("corpus")
    p.add_argument(
        "--task",
        choices=[*[t.value for t in Task], "all"],
        default="all",
    )
    p.add_argument("--out-dir", required=True)
    _add_config_flags(p)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("split", help="leakage-free train/validation/test split")
    p.add_argument("corpus")
    p.add_argument("--out", required=True)
    _add_config_flags(p)
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
    _add_config_flags(p)
    p.set_defaults(func=cmd_prompts)

    p = sub.add_parser("baseline", help="write random baseline predictions")
    p.add_argument("--dataset", required=True)
    p.add_argument("--kind", choices=["random_class", "random_footprint"], required=True)
    p.add_argument("--out", required=True)
    _add_config_flags(p)
    p.set_defaults(func=cmd_baseline)

    p = sub.add_parser("score", help="score a prediction file against a dataset")
    p.add_argument("--dataset", required=True)
    p.add_argument("--predictions", required=True)
    p.add_argument("--per-record", action="store_true")
    _add_config_flags(p)
    p.set_defaults(func=cmd_score)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    # File-format, unknown-record and shot-pool errors are all ValueErrors.
    except (OSError, ValueError) as exc:
        print(f"procsem: error: {exc}", file=sys.stderr)
        return EXIT_FATAL


if __name__ == "__main__":
    raise SystemExit(main())
