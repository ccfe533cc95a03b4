"""Output checks; each failed check counts as one failed operation.

Tolerances are stated here. Random baselines draw one class or relation per
record from a per-record stream, so their scores sit near the analytic
expectation, within a few standard errors at these dataset sizes.
"""

from __future__ import annotations

import json
from pathlib import Path

from stages import StageRun, line_count

# Shots per ICL prompt when --shots is not given (procsem's defaults).
DEFAULT_SHOTS = {"tsad": 6, "asad": 6, "snap": 6, "sdfd": 5, "sptd": 5}

RANDOM_CLASS_F1 = 0.5
RANDOM_CLASS_F1_TOLERANCE = 0.05
RANDOM_FOOTPRINT_TOLERANCE = 0.05

Check = tuple[str, bool]


def _arg(run: StageRun, flag: str) -> str:
    args = run.stage.args
    return args[args.index(flag) + 1]


def count_checks(run: StageRun, workdir: Path) -> list[Check]:
    """Record counts in the stage's stdout summary equal its files' lines."""
    name, summary = run.stage.name, run.summary
    if summary is None:
        return [(f"{name}: stdout holds a JSON summary", False)]
    command = run.stage.command
    if command == "gen":
        pairs = [
            (summary["records"].get(Path(out).stem, -1), out) for out in run.stage.outputs
        ]
    elif command == "score":
        pairs = [(summary["n_records"], _arg(run, "--dataset"))]
    else:
        if command == "prompts":
            key = "prompts" if _arg(run, "--mode") == "icl" else "examples"
        else:
            key = {
                "synth": "models",
                "validate": "admitted",
                "playout": "models",
                "split": "models",
                "baseline": "predictions",
            }[command]
        pairs = [(summary[key], run.stage.outputs[0])]
    return [
        (f"{name}: summary count {count} == lines of {path}",
         count == line_count(workdir / path))
        for count, path in pairs
    ]


def _expected_random_footprint_fitness(n: int) -> float:
    """Mean fitness of a uniform random footprint over n activities, diagonal
    included: off-diagonal pairs match with probability 1/4, diagonal pairs
    (always PARALLEL or NONE in gold) with probability 1/2."""
    return (0.25 * n * (n - 1) + 0.5 * n) / (n * n)


def _read_jsonl(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def semantic_checks(run: StageRun, workdir: Path) -> list[Check]:
    """Checks on what a stage computed, keyed by stage name."""
    name, summary = run.stage.name, run.summary or {}
    if name in ("score.tsad", "score.asad"):
        value = summary.get("value", -1.0)
        return [(f"{name}: random_class macro F1 {value} within "
                 f"{RANDOM_CLASS_F1_TOLERANCE} of {RANDOM_CLASS_F1}",
                 abs(value - RANDOM_CLASS_F1) <= RANDOM_CLASS_F1_TOLERANCE)]
    if name == "score.sdfd":
        gold = _read_jsonl(workdir / _arg(run, "--dataset"))
        expected = sum(
            _expected_random_footprint_fitness(len(r["activity_set"])) for r in gold
        ) / len(gold)
        value = summary.get("value", -1.0)
        return [(f"{name}: random_footprint fitness {value} within "
                 f"{RANDOM_FOOTPRINT_TOLERANCE} of expected {expected:.6f}",
                 abs(value - expected) <= RANDOM_FOOTPRINT_TOLERANCE)]
    if name == "score.sptd":
        return [(f"{name}: oracle predictions score 1.0 with 0 parse failures",
                 summary.get("value") == 1.0 and summary.get("n_parse_failures") == 0)]
    if name.startswith("prompts_icl."):
        shots = DEFAULT_SHOTS[name.split(".")[1]]
        bad = [
            row["record_id"]
            for row in _read_jsonl(workdir / run.stage.outputs[0])
            if len(row["shot_record_ids"]) != shots
            or row["record_id"] in row["shot_record_ids"]
        ]
        return [(f"{name}: {shots} shots per prompt, query never its own shot "
                 f"({len(bad)} bad)", not bad)]
    return []


def stage_checks(run: StageRun, workdir: Path) -> list[Check]:
    """All checks for one finished stage; later ones need a clean exit."""
    exit_ok = run.ok
    checks: list[Check] = [(
        f"{run.stage.name}: exit {run.exit_code} (expected 0)"
        + (", timed out" if run.timed_out else ""),
        exit_ok,
    )]
    if exit_ok and run.stage.name != "warmup":
        try:
            checks += count_checks(run, workdir)
            checks += semantic_checks(run, workdir)
        except (KeyError, IndexError, TypeError, ValueError, OSError) as exc:
            checks.append((f"{run.stage.name}: outputs readable ({exc!r})", False))
    return checks
