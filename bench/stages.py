"""One procsem CLI invocation as a child process: wall time, max RSS, exit.

Each child is reaped with `os.wait4`, which returns that child's own
resource usage; `RUSAGE_CHILDREN` would keep a running maximum across all
children and so cannot give a per-stage RSS.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

STAGE_TIMEOUT_S = 150.0

BENCH_DIR = Path(__file__).resolve().parent


@dataclass(frozen=True)
class Stage:
    """A procsem CLI invocation; paths are relative to the work directory."""

    name: str
    args: tuple[str, ...]
    outputs: tuple[str, ...] = ()

    @property
    def command(self) -> str:
        return self.args[0]


@dataclass
class StageRun:
    stage: Stage
    wall_s: float
    rss_mib: float
    exit_code: int
    timed_out: bool
    summary: dict[str, Any] | None = None

    @property
    def ok(self) -> bool:
        # The workloads' corpora have no rejections, so every stage exits 0.
        return not self.timed_out and self.exit_code == 0


def child_env(root: Path, workdir: Path) -> dict[str, str]:
    """Environment that imports procsem from the checkout and keeps temp
    files inside it."""
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["TMPDIR"] = str(workdir / "tmp")
    return env


def run_stage(
    stage: Stage,
    workdir: Path,
    env: dict[str, str],
    log_name: str,
    spans_out: Path | None = None,
    timeout: float = STAGE_TIMEOUT_S,
) -> StageRun:
    """Run `stage` to completion; with `spans_out`, under the span tracer."""
    if spans_out is None:
        argv = [sys.executable, "-m", "procsem.cli", *stage.args]
    else:
        runner = str(BENCH_DIR / "traced_stage.py")
        argv = [sys.executable, runner, str(spans_out), log_name, *stage.args]
    logs = workdir / "logs"
    stdout_path = logs / f"{log_name}.out"
    timed_out = threading.Event()
    with open(stdout_path, "wb") as out, open(logs / f"{log_name}.err", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=workdir, env=env, stdin=subprocess.DEVNULL, stdout=out, stderr=err
        )

        def kill() -> None:
            timed_out.set()
            proc.kill()

        timer = threading.Timer(timeout, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall_s = time.perf_counter() - start
    timer.join()
    proc.returncode = os.waitstatus_to_exitcode(status)
    try:
        summary = json.loads(stdout_path.read_text("utf-8"))
    except ValueError:
        summary = None
    return StageRun(
        stage=stage,
        wall_s=wall_s,
        rss_mib=usage.ru_maxrss / 1024.0,
        exit_code=proc.returncode,
        timed_out=timed_out.is_set(),
        summary=summary if isinstance(summary, dict) else None,
    )


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def line_count(path: Path) -> int:
    with open(path, "rb") as handle:
        return sum(1 for line in handle if line.strip())
