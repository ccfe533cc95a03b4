"""procsem benchmark: drive the CLI stage by stage and report metrics.

Usage (from the repository root):

    python3 bench/run.py --workload build --seed 1 --seconds 25 --trace 0

With ``--trace 0`` it sets up the workload's inputs several times, then
repeats the timed pipeline for ``--seconds`` and prints the end-to-end
metrics. With ``--trace 1`` it also runs every stage under the span tracer
and prints the per-layer metrics. The last stdout line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it hold a readable table and the run's details (environment stamp,
per-stage figures, output digests, failed checks). See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from statistics import median
from typing import Any

from checks import Check, stage_checks
from spans import layer_metrics
from stages import (
    BENCH_DIR,
    STAGE_TIMEOUT_S,
    Stage,
    StageRun,
    child_env,
    line_count,
    run_stage,
    sha256_file,
)
from workloads import WARMUP, WORKLOADS, Workload

# Set-up repeats at least this often and for at least this long, so a
# warm-up-only set-up still yields a median of many samples.
SETUP_REPEATS = 3
SETUP_SECONDS = 3.0
# A run starts no stage after this many seconds and kills one still running
# then, so it ends within the harness's time limit even if procsem hangs.
RUN_BUDGET_S = 165.0
# Timed passes per untraced run, at least; the run goes on while
# --seconds have not passed. A traced run splits --seconds between
# untraced and traced passes and makes at least one of each.
MIN_REPS = 2


@dataclass
class Rep:
    """One pass over the timed stages."""

    wall_s: float
    runs: list[StageRun]
    digests: dict[str, str]
    traces: list[dict[str, Any]]

    @property
    def peak_rss_mib(self) -> float:
        return max(r.rss_mib for r in self.runs)


class Bench:
    def __init__(self, root: Path, workdir: Path, workload: Workload) -> None:
        self.workdir = workdir
        self.workload = workload
        self.env = child_env(root, workdir)
        self.deadline = time.perf_counter() + RUN_BUDGET_S
        self.attempted = 0
        self.failures: list[str] = []
        self._setup_digests: dict[str, str] | None = None
        self._rep_digests: dict[str, str] | None = None

    def record(self, checks: list[Check]) -> None:
        for label, ok in checks:
            self.attempted += 1
            if not ok:
                self.failures.append(label)

    def _fresh(self, *names: str) -> None:
        for name in names:
            shutil.rmtree(self.workdir / name, ignore_errors=True)
            (self.workdir / name).mkdir(parents=True)

    def launch(self, stage: Stage, log: str, traced: bool) -> StageRun:
        spans_out = self.workdir / "spans" / f"{log}.json" if traced else None
        timeout = min(STAGE_TIMEOUT_S, max(0.0, self.deadline - time.perf_counter()))
        return run_stage(stage, self.workdir, self.env, log, spans_out, timeout)

    def _digests(self, stages: tuple[Stage, ...]) -> dict[str, str]:
        digests = {}
        for stage in stages:
            for out in stage.outputs:
                path = self.workdir / out
                digests[out] = sha256_file(path) if path.is_file() else "missing"
        return digests

    def _same_as_first(self, digests: dict[str, str], first: dict[str, str] | None, what: str) -> dict[str, str]:
        if first is None:
            return digests
        changed = sorted(k for k in first.keys() | digests.keys() if first.get(k) != digests.get(k))
        self.record([(f"{what}: outputs byte-identical to the first ({changed})", not changed)])
        return first

    def traces(self, tag: str) -> list[dict[str, Any]]:
        traces = []
        for path in sorted((self.workdir / "spans").glob(f"{tag}.*.json")):
            try:
                traces.append(json.loads(path.read_text("utf-8")))
            except ValueError as exc:
                self.record([(f"{path.name}: readable spans ({exc})", False)])
        return traces

    def setup(self, traced: bool = False) -> float:
        """Make the inputs; returns the set-up time."""
        self._fresh("in", "logs", "spans", "tmp")
        runs: list[StageRun] = []
        prepared: list[Check] = []
        start = time.perf_counter()
        for i, step in enumerate((WARMUP, *self.workload.setup)):
            if not isinstance(step, Stage):
                try:
                    step(self.workdir)
                    prepared.append((f"set-up step {step.__name__}", True))
                except (OSError, KeyError, ValueError) as exc:
                    prepared.append((f"set-up step {step.__name__} ({exc!r})", False))
                continue
            log = f"setup.{i:02d}.{step.name}"
            runs.append(self.launch(step, log, traced and step is not WARMUP))
        setup_s = time.perf_counter() - start
        self.record(prepared)
        for run in runs:
            self.record(stage_checks(run, self.workdir))
        self._setup_digests = self._same_as_first(
            self._digests(self.workload.setup_stages), self._setup_digests, "set-up"
        )
        return setup_s

    def rep(self, index: int, traced: bool) -> Rep:
        self._fresh("out")
        tag = f"rep{index:03d}{'t' if traced else ''}"
        runs = []
        # Wall time covers launch of the first stage to exit of the last;
        # every check waits until afterwards.
        start = time.perf_counter()
        for i, stage in enumerate(self.workload.timed):
            runs.append(self.launch(stage, f"{tag}.{i:02d}.{stage.name}", traced))
        wall = time.perf_counter() - start
        for run in runs:
            self.record(stage_checks(run, self.workdir))
        digests = self._digests(self.workload.timed)
        self._rep_digests = self._same_as_first(digests, self._rep_digests, f"pipeline {tag}")
        return Rep(wall, runs, digests, self.traces(tag) if traced else [])

    def measure(self, seconds: float, traced: bool, min_reps: int, first_index: int = 0) -> list[Rep]:
        reps: list[Rep] = []
        start = time.perf_counter()
        while not reps or (
            (len(reps) < min_reps or time.perf_counter() - start < seconds)
            and time.perf_counter() < self.deadline
        ):
            reps.append(self.rep(first_index + len(reps), traced))
        return reps

    def records(self, rep: Rep) -> int:
        """Rows the timed stages wrote, plus records read by `score`."""
        total = 0
        for run in rep.runs:
            for out in run.stage.outputs:
                path = self.workdir / out
                total += line_count(path) if path.is_file() else 0
            if run.stage.command == "score" and run.summary:
                total += int(run.summary.get("n_records", 0))
        return total


def stage_figures(reps: list[Rep]) -> dict[str, float]:
    """Median wall time per stage and median max RSS per subcommand kind."""
    walls: dict[str, list[float]] = {}
    rss: dict[str, list[float]] = {}
    for rep in reps:
        rep_rss: dict[str, float] = {}
        for run in rep.runs:
            walls.setdefault(f"cli.{run.stage.name}.wall_s", []).append(run.wall_s)
            kind = f"cli.{run.stage.name.split('.')[0]}.rss_mib"
            rep_rss[kind] = max(rep_rss.get(kind, 0.0), run.rss_mib)
        for kind, value in rep_rss.items():
            rss.setdefault(kind, []).append(value)
    return {k: median(v) for k, v in {**walls, **rss}.items()}


def median_metrics(dicts: list[dict[str, float]]) -> dict[str, float]:
    keys = set().union(*dicts) if dicts else set()
    return {k: median(d.get(k, 0.0) for d in dicts) for k in keys}


def git_commit(root: Path) -> str:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text("utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text("utf-8").strip()
        for line in (git / "packed-refs").read_text("utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def stamp(root: Path) -> dict[str, Any]:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "git_commit": git_commit(root),
    }


def untraced_run(bench: Bench, seconds: float) -> tuple[dict[str, float], dict[str, Any]]:
    setups: list[float] = []
    start = time.perf_counter()
    while len(setups) < SETUP_REPEATS or (
        time.perf_counter() - start < SETUP_SECONDS and time.perf_counter() < bench.deadline
    ):
        setups.append(bench.setup())
    reps = bench.measure(seconds, traced=False, min_reps=MIN_REPS)
    pipeline_s = median(r.wall_s for r in reps)
    records = bench.records(reps[0])
    metrics = {
        "setup_s": median(setups),
        "pipeline_s": pipeline_s,
        "records_per_s": records / pipeline_s,
        "peak_rss_mib": median(r.peak_rss_mib for r in reps),
    }
    details = {
        "setup_s": setups,
        "pipeline_s": [r.wall_s for r in reps],
        "records": records,
        "stages": stage_figures(reps),
        "digests": reps[0].digests,
    }
    return metrics, details


def traced_run(bench: Bench, seconds: float) -> tuple[dict[str, float], dict[str, Any]]:
    """Untraced passes for stage figures, then traced passes for spans.

    Layer figures cover the timed stages (median over traced passes), except
    `synth.*`, which comes from the traced set-up when synth is not timed.
    """
    bench.setup(traced=True)
    plain = bench.measure(seconds / 2, traced=False, min_reps=1)
    traced = bench.measure(seconds / 2, traced=True, min_reps=1, first_index=len(plain))
    plain_s = median(r.wall_s for r in plain)
    traced_s = median(r.wall_s for r in traced)
    metrics = median_metrics([layer_metrics(r.traces) for r in traced])
    if not metrics.get("synth.synth_corpus.calls"):
        setup = layer_metrics(bench.traces("setup"))
        metrics.update((k, v) for k, v in setup.items() if k.startswith("synth."))
    metrics.update(stage_figures(plain))
    metrics["trace_overhead_s"] = traced_s - plain_s
    details = {
        "pipeline_s": [r.wall_s for r in plain],
        "traced_pipeline_s": [r.wall_s for r in traced],
        "digests": plain[0].digests,
    }
    return metrics, details


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    root = BENCH_DIR.parent
    if not (root / "src" / "procsem" / "cli.py").is_file():
        print(f"bench: no procsem sources under {root / 'src'}", file=sys.stderr)
        return 2
    config = json.loads((root / "BENCHMARK.json").read_text("utf-8"))
    wanted = config["per_layer"] if args.trace else config["end_to_end"]
    workload = WORKLOADS[args.workload](args.seed)
    workdir = root / ".bench_work" / f"{workload.name}.{os.getpid()}"
    bench = Bench(root, workdir, workload)
    # On SIGTERM, unwind so the running stage is killed and the work
    # directory removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        run = traced_run if args.trace else untraced_run
        measured, details = run(bench, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    metrics = {
        m["name"]: {"value": measured.get(m["name"], 0.0), "unit": m["unit"]}
        for m in wanted
    }
    fail_ratio = len(bench.failures) / bench.attempted
    details.update(
        workload=workload.name,
        seed=args.seed,
        trace=args.trace,
        stamp=stamp(root),
        output_digest=hashlib.sha256(
            json.dumps(details["digests"], sort_keys=True).encode()
        ).hexdigest(),
        failures=bench.failures,
    )
    print(json.dumps({"details": details}, sort_keys=True))
    for name, metric in metrics.items():
        print(f"  {name:<48} {metric['value']:>14.6g} {metric['unit']}")
    print(f"  {'fail_ratio':<48} {fail_ratio:>14.6g} ratio "
          f"({len(bench.failures)}/{bench.attempted} operations)")
    result = {
        "correct": not bench.failures,
        "attempted": bench.attempted,
        "failed": len(bench.failures),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
