"""The three benchmark workloads, as procsem CLI stage lists.

Each workload derives every input from the benchmark seed. Set-up stages
make the files the timed stages consume; the timed stages run one at a
time from one parent process (a closed loop with one client).

Synthetic corpora are drawn with a lowered `--max-sequences` cap. Language
sizes are heavy-tailed: with the default cap a single model can hold 32,768
sequences, and the record count of a 1,000-model corpus varies by a third
between seeds, so a run's cost would hinge on whether its seed drew one
huge model. The cap bounds the work one model can contribute.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Union

from stages import Stage

TASKS = ("tsad", "asad", "snap", "sdfd", "sptd")

BUILD_MODELS = 1000
BUILD_MAX_SEQUENCES = 512

CONSUME_MODELS = 150
CONSUME_SPLIT = (("train", 0.7), ("validation", 0.2), ("test", 0.1))
CONSUME_MAX_SEQUENCES = 100

WIDE_POOL_MODELS = 450
WIDE_MIN_ACTIVITIES = 10
WIDE_MAX_ACTIVITIES = 16
WIDE_MAX_SEQUENCES = 2048
# Work budget of the wide corpus, in events (activity occurrences over all
# sequences of a language). Each model is charged its events plus a fixed
# WIDE_MODEL_EVENTS for the per-model work (parsing, normalisation, the
# activity-grid passes of asad and footprints); on a 2-core x86-64 box with
# CPython 3.11 one model cost about as much as 1,600 events.
WIDE_WORK_BUDGET = 800_000
WIDE_MODEL_EVENTS = 1_600

WARMUP = Stage("warmup", ("--help",))


# A set-up step is a CLI stage or a benchmark-side function that writes
# input files into the work directory.
Step = Union[Stage, Callable[[Path], None]]


@dataclass(frozen=True)
class Workload:
    name: str
    setup: tuple[Step, ...]
    timed: tuple[Stage, ...]

    @property
    def setup_stages(self) -> tuple[Stage, ...]:
        return tuple(step for step in self.setup if isinstance(step, Stage))


def _synth(out: str, seed: int, models: int, cap: int, *extra: str) -> Stage:
    return Stage(
        "synth",
        ("synth", "--n-models", str(models), "--seed", str(seed),
         "--max-sequences", str(cap), *extra, "--out", out),
        (out,),
    )


def build(seed: int) -> Workload:
    s = str(seed)
    corpus = "out/corpus.jsonl"
    return Workload(
        name="build",
        setup=(),
        timed=(
            _synth(corpus, seed, BUILD_MODELS, BUILD_MAX_SEQUENCES),
            Stage("validate", ("validate", corpus, "--out", "out/admitted.jsonl"),
                  ("out/admitted.jsonl",)),
            Stage("playout", ("playout", corpus, "--out", "out/sequences.jsonl"),
                  ("out/sequences.jsonl",)),
            Stage("gen", ("gen", corpus, "--out-dir", "out/data", "--seed", s),
                  tuple(f"out/data/{t}.jsonl" for t in TASKS)),
            Stage("split", ("split", corpus, "--out", "out/split.jsonl", "--seed", s),
                  ("out/split.jsonl",)),
        ),
    )


def _dealt_split(seed: int) -> Callable[[Path], None]:
    def dealt_split(workdir: Path) -> None:
        """Deal models 70/20/10 by a seeded shuffle.

        procsem's leakage-free split keeps every component of models that
        share a sequence in one part, and one component holds about a third
        of a synthetic corpus. Whichever part it lands in swings the ICL
        work (test queries times train pool) several-fold between seeds, so
        the read-side workload deals models itself.
        """
        with open(workdir / "in/corpus.jsonl", encoding="utf-8") as handle:
            model_ids = sorted(json.loads(line)["model_id"] for line in handle)
        random.Random(seed).shuffle(model_ids)
        parts: dict[str, str] = {}
        start = 0
        for i, (part, share) in enumerate(CONSUME_SPLIT):
            end = len(model_ids) if i == len(CONSUME_SPLIT) - 1 else start + round(share * len(model_ids))
            parts.update((m, part) for m in model_ids[start:end])
            start = end
        with open(workdir / "in/split.jsonl", "w", encoding="utf-8") as handle:
            for model_id in sorted(parts):
                handle.write(json.dumps({"model_id": model_id, "split": parts[model_id]}) + "\n")

    return dealt_split


def consume(seed: int) -> Workload:
    s = str(seed)
    data, split = "in/data", "in/split.jsonl"
    timed: list[Stage] = []
    for t in TASKS:
        out = f"out/icl.{t}.jsonl"
        timed.append(Stage(
            f"prompts_icl.{t}",
            ("prompts", "--dataset", f"{data}/{t}.jsonl", "--split", split,
             "--mode", "icl", "--query-split", "test", "--seed", s, "--out", out),
            (out,),
        ))
    for t in TASKS:
        out = f"out/ft.{t}.jsonl"
        timed.append(Stage(
            f"prompts_ft.{t}",
            ("prompts", "--dataset", f"{data}/{t}.jsonl", "--split", split,
             "--mode", "ft", "--query-split", "train", "--seed", s, "--out", out),
            (out,),
        ))
    scored = ("tsad", "asad", "snap", "sdfd")
    for t in scored:
        kind = "random_footprint" if t == "sdfd" else "random_class"
        out = f"out/pred.{t}.jsonl"
        timed.append(Stage(
            f"baseline.{t}",
            ("baseline", "--dataset", f"{data}/{t}.jsonl", "--kind", kind,
             "--seed", s, "--out", out),
            (out,),
        ))
    for t in scored:
        timed.append(Stage(
            f"score.{t}",
            ("score", "--dataset", f"{data}/{t}.jsonl",
             "--predictions", f"out/pred.{t}.jsonl"),
        ))
    return Workload(
        name="consume",
        setup=(
            _synth("in/corpus.jsonl", seed, CONSUME_MODELS, CONSUME_MAX_SEQUENCES),
            Stage("gen", ("gen", "in/corpus.jsonl", "--out-dir", data, "--seed", s),
                  tuple(f"{data}/{t}.jsonl" for t in TASKS)),
            _dealt_split(seed),
        ),
        timed=tuple(timed),
    )


def _oracle_sptd_predictions(workdir: Path) -> None:
    """Each sptd record's own gold tree as its prediction."""
    with open(workdir / "in/gold/sptd.jsonl", encoding="utf-8") as src, open(
        workdir / "in/pred.sptd.jsonl", "w", encoding="utf-8"
    ) as dst:
        for line in src:
            record = json.loads(line)
            dst.write(json.dumps(
                {"record_id": record["record_id"], "prediction": record["tree_text"]},
                ensure_ascii=False,
            ) + "\n")


def _work_budget_corpus(workdir: Path) -> None:
    """Keep pool models, in file order, while their work fits the budget;
    later models that fit still join.

    A fixed number of models leaves the total language size to the seed,
    and a fixed number of events leaves the model count to it; charging
    both makes every seed do about the same amount of work.
    """
    with open(workdir / "in/pool.seq.jsonl", encoding="utf-8") as handle:
        events = {
            row["model_id"]: sum(len(s) for s in row["sequences"])
            for row in map(json.loads, handle)
        }
    total = 0
    with open(workdir / "in/pool.jsonl", encoding="utf-8") as src, open(
        workdir / "in/corpus.jsonl", "w", encoding="utf-8"
    ) as dst:
        for line in src:
            size = events[json.loads(line)["model_id"]] + WIDE_MODEL_EVENTS
            if total + size <= WIDE_WORK_BUDGET:
                total += size
                dst.write(line)


def wide(seed: int) -> Workload:
    s = str(seed)
    corpus = "in/corpus.jsonl"
    timed = [
        Stage("validate", ("validate", corpus, "--out", "out/admitted.jsonl"),
              ("out/admitted.jsonl",)),
        Stage("playout", ("playout", corpus, "--out", "out/sequences.jsonl"),
              ("out/sequences.jsonl",)),
    ]
    for t in ("asad", "sdfd", "sptd"):
        timed.append(Stage(
            f"gen.{t}",
            ("gen", corpus, "--task", t, "--out-dir", "out/data", "--seed", s),
            (f"out/data/{t}.jsonl",),
        ))
    timed += [
        Stage("split", ("split", corpus, "--out", "out/split.jsonl", "--seed", s),
              ("out/split.jsonl",)),
        Stage("baseline.sdfd",
              ("baseline", "--dataset", "out/data/sdfd.jsonl", "--kind",
               "random_footprint", "--seed", s, "--out", "out/pred.sdfd.jsonl"),
              ("out/pred.sdfd.jsonl",)),
        Stage("score.sdfd", ("score", "--dataset", "out/data/sdfd.jsonl",
                             "--predictions", "out/pred.sdfd.jsonl")),
        Stage("score.sptd", ("score", "--dataset", "out/data/sptd.jsonl",
                             "--predictions", "in/pred.sptd.jsonl")),
    ]
    return Workload(
        name="wide",
        setup=(
            _synth("in/pool.jsonl", seed, WIDE_POOL_MODELS, WIDE_MAX_SEQUENCES,
                   "--min-activities", str(WIDE_MIN_ACTIVITIES),
                   "--max-activities", str(WIDE_MAX_ACTIVITIES)),
            Stage("playout", ("playout", "in/pool.jsonl", "--out", "in/pool.seq.jsonl"),
                  ("in/pool.seq.jsonl",)),
            _work_budget_corpus,
            Stage("gen", ("gen", corpus, "--task", "sptd", "--out-dir", "in/gold",
                          "--seed", s), ("in/gold/sptd.jsonl",)),
            _oracle_sptd_predictions,
        ),
        timed=tuple(timed),
    )


WORKLOADS: dict[str, Callable[[int], Workload]] = {
    "build": build,
    "consume": consume,
    "wide": wide,
}
