from __future__ import annotations

import errno
import hashlib
import io
import json
import os
import statistics
import subprocess
import sys
import tempfile
import threading
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings

import procsem
from procsem import (
    MatchingMode,
    ProcessModel,
    Task,
    answer_text,
    parse_tree,
    read_dataset,
    validate_corpus,
    write_corpus,
    write_predictions,
)
from procsem.cli import (
    EXIT_FATAL,
    EXIT_OK,
    EXIT_PARTIAL,
    RunConfig,
    _spread,
    build_config,
    build_parser,
    main,
)
from procsem.tree_dsl import MAX_DEPTH

from conftest import (
    EXTENDING_IDS,
    SHARING_CORPORA,
    oracle_corpus_line,
    oracle_dataset_bytes,
    oracle_language,
    shared_vocabulary_corpora,
)


def run(argv):
    """In-process CLI call; returns (exit code, parsed summary, stderr text)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    text = out.getvalue()
    summary = json.loads(text) if text.strip() else None
    return code, summary, err.getvalue()


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    """One full pipeline run shared by the read-only assertions below."""
    root = tmp_path_factory.mktemp("pipeline")
    paths = {
        "corpus": str(root / "corpus.jsonl"),
        "data": str(root / "data"),
        "split": str(root / "split.jsonl"),
        "icl": str(root / "icl_tsad.jsonl"),
        "ft": str(root / "ft_sdfd.jsonl"),
        "preds": str(root / "preds_tsad.jsonl"),
        "root": root,
    }
    base = ["--seed", "7"]
    steps = [
        ["synth", "--n-models", "25", "--min-activities", "3",
         "--out", paths["corpus"], *base],
        ["gen", paths["corpus"], "--out-dir", paths["data"],
         "--min-log-size", "20", *base],
        ["split", paths["corpus"], "--out", paths["split"], *base],
        ["prompts", "--dataset", f"{paths['data']}/tsad.jsonl",
         "--split", paths["split"], "--mode", "icl", "--out", paths["icl"], *base],
        ["prompts", "--dataset", f"{paths['data']}/sdfd.jsonl",
         "--split", paths["split"], "--mode", "ft", "--query-split", "train",
         "--out", paths["ft"], *base],
        ["baseline", "--dataset", f"{paths['data']}/tsad.jsonl",
         "--kind", "random_class", "--out", paths["preds"], *base],
    ]
    summaries = {}
    for argv in steps:
        code, summary, err = run(argv)
        assert code == EXIT_OK, f"{argv}: {err}"
        summaries[argv[0]] = summary
    paths["summaries"] = summaries
    return paths


class TestPipeline:
    def test_synth_summary(self, ws):
        assert ws["summaries"]["synth"]["models"] == 25

    def test_gen_writes_all_five_datasets(self, ws):
        counts = ws["summaries"]["gen"]["records"]
        assert set(counts) == {"tsad", "asad", "snap", "sdfd", "sptd"}
        assert counts["sdfd"] == 25
        assert counts["sptd"] == 25
        # logs are padded up to min_log_size but never truncated
        assert counts["tsad"] >= 25 * 20
        assert counts["asad"] > 0
        assert counts["snap"] > 0

    def test_split_sizes(self, ws):
        sizes = ws["summaries"]["split"]["sizes"]
        assert sum(sizes.values()) == 25
        assert sizes["train"] > sizes["validation"] >= sizes["test"]

    def test_icl_prompt_count_matches_test_split(self, ws):
        records = read_dataset(f"{ws['data']}/tsad.jsonl")
        with open(ws["split"], encoding="utf-8") as handle:
            test_models = {
                row["model_id"]
                for row in map(json.loads, handle)
                if row["split"] == "test"
            }
        expected = sum(1 for r in records if r.model_id in test_models)
        with open(ws["icl"], encoding="utf-8") as handle:
            prompts = [json.loads(line) for line in handle]
        assert len(prompts) == expected
        assert all(p["prompt"].strip() for p in prompts)

    def test_ft_examples_cover_train_split(self, ws):
        with open(ws["ft"], encoding="utf-8") as handle:
            examples = [json.loads(line) for line in handle]
        assert examples
        assert all(e["task"] == "sdfd" for e in examples)
        assert all(e["input"].endswith("Directly-follows pairs:") for e in examples)
        records = {r.record_id: r for r in read_dataset(f"{ws['data']}/sdfd.jsonl")}
        for example in examples:
            edges = records[example["record_id"]].edges
            # an empty target is the correct answer for an edge-free model
            assert (example["target"] == "") == (edges == ())

    def test_baseline_then_score(self, ws):
        code, summary, _ = run(
            ["score", "--dataset", f"{ws['data']}/tsad.jsonl",
             "--predictions", ws["preds"]]
        )
        assert code == EXIT_OK
        assert summary["metric"] == "macro_f1"
        assert 0.3 < summary["value"] < 0.7
        assert summary["n_missing_predictions"] == 0

    def test_footprint_baseline_then_score(self, ws, tmp_path):
        preds = str(tmp_path / "preds_sdfd.jsonl")
        code, _, _ = run(
            ["baseline", "--dataset", f"{ws['data']}/sdfd.jsonl",
             "--kind", "random_footprint", "--out", preds, "--seed", "7"]
        )
        assert code == EXIT_OK
        code, summary, _ = run(
            ["score", "--dataset", f"{ws['data']}/sdfd.jsonl",
             "--predictions", preds, "--per-record"]
        )
        assert code == EXIT_OK
        assert summary["metric"] == "mean_footprint_fitness"
        assert 0.1 < summary["value"] < 0.6
        assert len(summary["per_record_fitness"]) == 25

    def test_self_predictions_score_perfectly(self, ws, tmp_path):
        for name in ("tsad", "asad", "snap", "sdfd", "sptd"):
            dataset = f"{ws['data']}/{name}.jsonl"
            records = read_dataset(dataset)
            preds = str(tmp_path / f"self_{name}.jsonl")
            write_predictions(preds, ((r.record_id, answer_text(r)) for r in records))
            code, summary, _ = run(
                ["score", "--dataset", dataset, "--predictions", preds]
            )
            assert code == EXIT_OK
            assert summary["value"] == 1.0, name
            assert summary["n_parse_failures"] == 0, name


class TestDeterminism:
    def test_synth_is_reproducible(self, tmp_path):
        a, b = str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")
        for out in (a, b):
            code, _, _ = run(
                ["synth", "--n-models", "12", "--seed", "3", "--out", out]
            )
            assert code == EXIT_OK
        assert Path(a).read_bytes() == Path(b).read_bytes()

    def test_gen_is_reproducible(self, ws, tmp_path):
        first, second = tmp_path / "d1", tmp_path / "d2"
        for out_dir in (first, second):
            code, _, _ = run(
                ["gen", ws["corpus"], "--out-dir", str(out_dir), "--seed", "7",
                 "--min-log-size", "20"]
            )
            assert code == EXIT_OK
        for name in ("tsad", "asad", "snap", "sdfd", "sptd"):
            assert (first / f"{name}.jsonl").read_bytes() == (
                second / f"{name}.jsonl"
            ).read_bytes()

    def test_prompts_are_reproducible(self, ws, tmp_path):
        a, b = str(tmp_path / "p1.jsonl"), str(tmp_path / "p2.jsonl")
        for out in (a, b):
            code, _, _ = run(
                ["prompts", "--dataset", f"{ws['data']}/snap.jsonl",
                 "--split", ws["split"], "--mode", "icl", "--out", out,
                 "--seed", "7"]
            )
            assert code == EXIT_OK
        assert Path(a).read_bytes() == Path(b).read_bytes()

    def test_different_seed_changes_datasets(self, ws, tmp_path):
        other = tmp_path / "d3"
        code, _, _ = run(
            ["gen", ws["corpus"], "--out-dir", str(other), "--seed", "8",
             "--min-log-size", "20"]
        )
        assert code == EXIT_OK
        original = Path(f"{ws['data']}/tsad.jsonl").read_bytes()
        assert (other / "tsad.jsonl").read_bytes() != original


# sha256 of each output for `synth --n-models 60 --seed 3` and default
# settings. A speed-up must leave every output byte as it is; a change that
# alters output on purpose says so and updates these digests.
GOLDEN_DIGESTS = {
    "corpus.jsonl": "2d7fcd9e208a044790e51c019db448e6896a559814017af2c7d4043ddcff1b06",
    "data/tsad.jsonl": "dc9e31070d6e32bdd7ba3355d9248b443552f6bbf7418cd2a406e27b61f738bb",
    "data/asad.jsonl": "0e2b4bda78a6a36b3e27ac09feec8f847d9d87d0559739c3a81f7563312751d4",
    "data/snap.jsonl": "be886e657772006c24ed0466ef5b3431f549c8ee13c1f7ee11c1792ad7972003",
    "data/sdfd.jsonl": "8ef414851f669af21648143e4da09a0b0b49966edce40e0a31eec340ae34b468",
    "data/sptd.jsonl": "fdb19414b0bae929290f2c04a77b4fc4c6eb2ee92cd3f58ddf56c8e6306b2d11",
    "sequences.jsonl": "a69595681e975f38187912e43d0f3c8ae029d586f11b9cb483f838effafa93d6",
    "split.jsonl": "e65d810078308321bcfbee89286d921cfa909c13ec2d901215d05ad1542a8aaf",
}


def test_outputs_match_golden_digests(tmp_path):
    corpus = str(tmp_path / "corpus.jsonl")
    steps = [
        ["synth", "--n-models", "60", "--seed", "3", "--out", corpus],
        ["gen", corpus, "--out-dir", str(tmp_path / "data")],
        ["playout", corpus, "--out", str(tmp_path / "sequences.jsonl")],
        ["split", corpus, "--out", str(tmp_path / "split.jsonl")],
    ]
    for argv in steps:
        code, _, err = run(argv)
        assert code == EXIT_OK, f"{argv}: {err}"
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in GOLDEN_DIGESTS
    }
    assert digests == GOLDEN_DIGESTS


# sha256 of each output for a corpus shaped like the `wide` benchmark
# (10-16 activities, cap 2048) plus one malformed and one over-cap tree row.
# The `*.stdout` entries are the JSON summaries of every step; the validate
# summary carries the tree-error position of the malformed row.
WIDE_GOLDEN_DIGESTS = {
    "validate.stdout": "89b6c6a31ba1c1da915e205c9d8cb58860623840d8a546e9a76048ca5361b1b8",
    "sequences.jsonl": "39e41a4a7628dd8d64da4e6caa3315e0ea38e7f3ca6fe2bb3f3918477262ddf5",
    "data/asad.jsonl": "1dd5270c6b026877d34cf6478a9651b4fb45491693aab620edc50104a38bbd17",
    "data/sdfd.jsonl": "c66cb6426622b205e308516a3314d69c519cb5bf25ec4d1e33efbb6941d7eef1",
    "data/sptd.jsonl": "6526d87ce1c43ce03400fd43985d4c8a9b82ba11973b9ec6aea43c7b044834ac",
    "split.jsonl": "f83d033a5b9fa4d5fd98a2d7f1205eb86f4bd88f7e6eb9fe2275c68adf9ecd9a",
    "score_sdfd.stdout": "7a3a6eab30b895b5276989bc6efe3a31117eae8f535e52eebcab6e08a45e0cbc",
    "score_sptd.stdout": "6f99d76a87d3f47d4dd814b57a8d5d081456f349c0f627a46d97c7a833cdcee7",
    "synth.stdout": "a4252a5e3fead83fd22117dba4b898b5b7c9dfade1de6fdf58c0aaf18d20051d",
    "playout.stdout": "92a569768f7189516aceee1bd0300595a754c7423b214640c62d4e6c2cadcf8c",
    "gen_asad.stdout": "d1b02279f04c03f94252388237c177704cbafe6d52254839edfe5b5057ff95d3",
    "gen_sdfd.stdout": "ad2fb0d0efb77bc4ba9a0d1d6b18670045850b5ec84dc40908d12ef488b93dd6",
    "gen_sptd.stdout": "c32e90b642207771b3667595a41e7e09986f07daa792d5876e4a9d93bb239887",
    "split.stdout": "6932cffe84569fb9d16fc0cf77994084d19e70db380112db0744e542a6386b03",
    "baseline.stdout": "17a4edb97ad3792371cc20030afd5fec4bb81d92902adee2935a677396c8f140",
}

WIDE_EXTRA_ROWS = [
    {"model_id": "zz-malformed", "tree": "→('alpha', ×('be\\'ta', 'gam ma' 'delta'))"},
    {"model_id": "zz-over-cap", "tree": "+('a', 'b', 'c', 'd', 'e', 'f', 'g')"},
]


def test_wide_outputs_match_golden_digests(tmp_path, monkeypatch):
    # Relative paths keep the summaries, which echo them, the same everywhere.
    monkeypatch.chdir(tmp_path)
    cap = ["--max-sequences", "2048"]

    def step(name, argv, expected=EXIT_OK):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
        assert code == expected, f"{argv}: {err.getvalue()}"
        Path(name).write_text(out.getvalue(), encoding="utf-8")

    step("synth.stdout",
         ["synth", "--n-models", "24", "--min-activities", "10",
          "--max-activities", "16", "--seed", "2", "--out", "corpus.jsonl", *cap])
    with open("corpus.jsonl", "a", encoding="utf-8") as handle:
        for row in WIDE_EXTRA_ROWS:
            handle.write(json.dumps(row, ensure_ascii=False) + "\n")

    # Only the corpus subcommands play out, so only they take the cap.
    step("validate.stdout",
         ["validate", "corpus.jsonl", "--out", "admitted.jsonl", *cap], EXIT_PARTIAL)
    step("playout.stdout",
         ["playout", "corpus.jsonl", "--out", "sequences.jsonl", *cap], EXIT_PARTIAL)
    for task in ("asad", "sdfd", "sptd"):
        step(f"gen_{task}.stdout",
             ["gen", "corpus.jsonl", "--task", task, "--out-dir", "data", *cap],
             EXIT_PARTIAL)
    step("split.stdout", ["split", "corpus.jsonl", "--out", "split.jsonl", *cap], EXIT_PARTIAL)
    step("baseline.stdout", ["baseline", "--dataset", "data/sdfd.jsonl", "--kind",
                             "random_footprint", "--out", "pred_sdfd.jsonl"])
    step("score_sdfd.stdout", ["score", "--dataset", "data/sdfd.jsonl",
                               "--predictions", "pred_sdfd.jsonl"])
    write_predictions(
        "pred_sptd.jsonl",
        ((r.record_id, r.tree_text) for r in read_dataset("data/sptd.jsonl")),
    )
    step("score_sptd.stdout", ["score", "--dataset", "data/sptd.jsonl",
                               "--predictions", "pred_sptd.jsonl"])
    digests = {
        name: hashlib.sha256(Path(name).read_bytes()).hexdigest()
        for name in WIDE_GOLDEN_DIGESTS
    }
    assert digests == WIDE_GOLDEN_DIGESTS


def _extending_corpus(path):
    path.write_text("".join(
        json.dumps({"model_id": model_id, "tree": f"->('x{i}', X('y{i}', ->('z{i}', 'w{i}')))"})
        + "\n"
        for i, model_id in enumerate(EXTENDING_IDS)
    ), encoding="utf-8")
    return str(path)


def test_gen_orders_rows_of_ids_that_extend_one_another(tmp_path):
    corpus = _extending_corpus(tmp_path / "corpus.jsonl")
    code, summary, err = run(["gen", corpus, "--out-dir", str(tmp_path), "--seed", "2"])
    assert code == EXIT_OK, err
    assert summary["models"] == len(EXTENDING_IDS)
    for task in Task:
        written = (tmp_path / f"{task.value}.jsonl").read_bytes()
        assert written == oracle_dataset_bytes(corpus, task, seed=2, min_log_size=100), task
        assert summary["records"][task.value] == written.count(b"\n")


def test_gen_orders_a_six_digit_record_index(tmp_path):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text('{"model_id": "m", "tree": "X(\'a\', \'b\')"}\n', encoding="utf-8")
    code, summary, err = run(
        ["gen", str(corpus), "--out-dir", str(tmp_path), "--task", "tsad",
         "--min-log-size", "100001", "--seed", "2"]
    )
    assert code == EXIT_OK, err
    assert summary["records"] == {"tsad": 100001}
    written = (tmp_path / "tsad.jsonl").read_bytes()
    assert written == oracle_dataset_bytes(corpus, Task.TSAD, seed=2, min_log_size=100001)


def _with_workers(monkeypatch, workers):
    """Make `gen` see `workers` usable CPUs; the list counts its forks."""
    monkeypatch.setattr(procsem.cli, "usable_cpus", lambda: workers)
    forks = []
    real_fork = os.fork

    def fork():
        forks.append(1)
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)
    return forks


@pytest.mark.parametrize("corpus", ["ws", "extending"])
def test_gen_bytes_do_not_depend_on_the_worker_count(ws, tmp_path, monkeypatch, corpus):
    if corpus == "ws":
        path, settings = ws["corpus"], ["--seed", "7", "--min-log-size", "20"]
    else:
        path, settings = _extending_corpus(tmp_path / "corpus.jsonl"), ["--seed", "2"]
    outputs = {}
    for workers in (1, 2, 3):
        forks = _with_workers(monkeypatch, workers)
        out_dir = tmp_path / f"data{workers}"
        code, summary, err = run(["gen", path, "--out-dir", str(out_dir), *settings])
        assert code == EXIT_OK, err
        # One run per worker here: each corpus has more id-prefix batches.
        assert len(forks) == workers - 1
        # Only the datasets are left: no part or temp file.
        files = {p.name: p.read_bytes() for p in out_dir.iterdir()}
        assert sorted(files) == sorted(f"{task.value}.jsonl" for task in Task)
        del summary["out_dir"]
        outputs[workers] = files, summary
    assert outputs[2] == outputs[1]
    assert outputs[3] == outputs[1]
    if corpus == "ws":
        # The fixture's run, at this machine's CPU count, gave the same.
        expected = dict(ws["summaries"]["gen"])
        del expected["out_dir"]
        assert outputs[1][1] == expected
        assert outputs[1][0] == {
            name: (Path(ws["data"]) / name).read_bytes() for name in outputs[1][0]
        }


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_golden_digests_hold_for_any_worker_count(tmp_path, monkeypatch, workers):
    _with_workers(monkeypatch, workers)
    for name in ("build", "wide"):
        (tmp_path / name).mkdir()
    test_outputs_match_golden_digests(tmp_path / "build")
    test_wide_outputs_match_golden_digests(tmp_path / "wide", monkeypatch)


def _fail_replace_in(monkeypatch, which, part_name):
    """Make the rename of `part_name`'s temp file fail with a full disk in
    the parent (`which` "parent") or in any forked child ("child")."""
    parent, real_replace = os.getpid(), os.replace

    def replace(src, dst, *args, **kwargs):
        in_child = os.getpid() != parent
        if os.path.basename(dst) == part_name and in_child == (which == "child"):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), src, None, dst)
        return real_replace(src, dst, *args, **kwargs)

    monkeypatch.setattr(os, "replace", replace)


@pytest.mark.parametrize("which,part", [("child", 1), ("child", 2), ("parent", 0)])
def test_a_failed_part_write_names_the_destination_and_leaves_nothing(
    tmp_path, monkeypatch, which, part
):
    corpus = _extending_corpus(tmp_path / "corpus.jsonl")
    out_dir = tmp_path / "data"
    out_dir.mkdir()
    (out_dir / "snap.jsonl").write_text("old\n", encoding="utf-8")
    forks = _with_workers(monkeypatch, 3)
    _fail_replace_in(monkeypatch, which, f".snap.jsonl.part{part}")
    code, summary, err = run(["gen", corpus, "--out-dir", str(out_dir), "--seed", "2"])
    assert len(forks) == 2
    assert code == EXIT_FATAL
    assert summary is None
    destination = str(out_dir / "snap.jsonl")
    assert err == f"procsem: error: [Errno 28] No space left on device: {destination!r}\n"
    # No dataset is written, the old one stays, and no part or temp file is left.
    assert sorted(p.name for p in out_dir.iterdir()) == ["snap.jsonl"]
    assert (out_dir / "snap.jsonl").read_text("utf-8") == "old\n"
    # Every child has been reaped.
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_child_that_dies_without_a_message_is_an_error(tmp_path, monkeypatch):
    corpus = _extending_corpus(tmp_path / "corpus.jsonl")
    _with_workers(monkeypatch, 2)
    parent, real_generate = os.getpid(), procsem.cli.generate_dataset

    def generate(*args, **kwargs):
        if os.getpid() != parent:
            raise RuntimeError("a bug in a worker")
        return real_generate(*args, **kwargs)

    monkeypatch.setattr(procsem.cli, "generate_dataset", generate)
    code, _, err = run(["gen", corpus, "--out-dir", str(tmp_path / "data"), "--seed", "2"])
    assert code == EXIT_FATAL
    assert err.startswith("procsem: error: worker process ")
    assert err.endswith(" failed with exit status 1\n")
    assert err.count("\n") == 1
    assert list((tmp_path / "data").iterdir()) == []
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestConfigHandling:
    def test_config_file_equals_flags(self, ws, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"seed": 7, "min_log_size": 20}))
        via_config = tmp_path / "via_config"
        code, _, _ = run(
            ["gen", ws["corpus"], "--out-dir", str(via_config),
             "--config", str(config)]
        )
        assert code == EXIT_OK
        assert (via_config / "tsad.jsonl").read_bytes() == Path(
            f"{ws['data']}/tsad.jsonl"
        ).read_bytes()

    def test_flag_overrides_config(self, ws, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"seed": 99, "min_log_size": 20}))
        out_dir = tmp_path / "override"
        code, _, _ = run(
            ["gen", ws["corpus"], "--out-dir", str(out_dir),
             "--config", str(config), "--seed", "7"]
        )
        assert code == EXIT_OK
        assert (out_dir / "tsad.jsonl").read_bytes() == Path(
            f"{ws['data']}/tsad.jsonl"
        ).read_bytes()

    def test_unknown_config_key_is_fatal(self, ws, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"seeed": 7}))
        code, _, err = run(
            ["split", ws["corpus"], "--out", str(tmp_path / "s.jsonl"),
             "--config", str(config)]
        )
        assert code == EXIT_FATAL
        assert "unknown config key" in err

    def test_invalid_noise_prob_is_fatal(self, ws, tmp_path):
        code, _, err = run(
            ["gen", ws["corpus"], "--out-dir", str(tmp_path / "d"),
             "--noise-prob", "1.5"]
        )
        assert code == EXIT_FATAL
        assert "noise_prob" in err

    @pytest.mark.parametrize(
        "ratios",
        ["a,b,c", "0.7,x,0.1", "0.7,0.2", "0.5,0.2,0.2,0.1", "0.7,,0.2,0.1", "0.7,0.2,0.1,"],
    )
    def test_ratios_that_are_not_three_numbers_are_a_usage_error(self, ws, tmp_path,
                                                                 capsys, ratios):
        out = tmp_path / "s.jsonl"
        with pytest.raises(SystemExit) as exc_info:
            main(["split", ws["corpus"], "--out", str(out), "--ratios", ratios])
        assert exc_info.value.code == EXIT_FATAL
        err = capsys.readouterr().err
        assert "[--ratios TRAIN,VALIDATION,TEST]" in err
        assert err.endswith("procsem split: error: argument --ratios: "
                            "expected three comma-separated ratios\n")
        assert not out.exists()

    def test_out_of_range_ratio_flag_is_fatal(self, ws, tmp_path):
        out = tmp_path / "s.jsonl"
        code, _, err = run(
            ["split", ws["corpus"], "--out", str(out), "--ratios", "1.2,-0.1,-0.1"]
        )
        assert code == EXIT_FATAL
        assert err == "procsem: error: split ratios must lie in [0, 1]\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "key,value,reason",
        [
            ("noise_prob", 1.5, "noise_prob must lie in [0, 1]"),
            ("split_ratios", [1.2, -0.1, -0.1], "split ratios must lie in [0, 1]"),
            ("split_ratios", [0.5, 0.2, 0.1], "split ratios must sum to 1"),
            ("max_sequences", 0, "max_sequences must be at least 1"),
            ("min_log_size", -3, "min_log_size must be at least 0"),
            ("max_retries", -3, "max_retries must be at least 0"),
            ("shots", 0, "shots must be at least 1"),
        ],
    )
    def test_out_of_range_config_value_names_the_file(
        self, ws, tmp_path, key, value, reason
    ):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({key: value}))
        code, _, err = run(
            ["split", ws["corpus"], "--out", str(tmp_path / "s.jsonl"),
             "--config", str(config)]
        )
        assert code == EXIT_FATAL
        assert err == f"procsem: error: {config}: {reason}\n"

    @pytest.mark.parametrize(
        "key,value,wanted",
        [
            ("include_diagonal", "false", "true or false"),
            ("seed", "x", "an integer"),
            ("max_sequences", True, "an integer"),
            ("noise_prob", "0.5", "a number"),
            ("split_ratios", [0.7, 0.3], "a list of three numbers"),
            ("matching_mode", "exact", "one of 'case_sensitive', 'case_insensitive'"),
        ],
    )
    def test_mistyped_config_value_is_fatal(self, ws, tmp_path, key, value, wanted):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({key: value}))
        code, _, err = run(
            ["split", ws["corpus"], "--out", str(tmp_path / "s.jsonl"),
             "--config", str(config)]
        )
        assert code == EXIT_FATAL
        assert err == f"procsem: error: {config}: {key!r} must be {wanted}\n"

    def test_config_of_every_value_kind_is_read(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "seed": 3, "noise_prob": 1, "split_ratios": [0.5, 0.25, 0.25],
            "matching_mode": "case_sensitive", "include_diagonal": False,
        }))
        args = build_parser().parse_args(["split", "c.jsonl", "--out", "s.jsonl",
                                          "--config", str(config)])
        assert build_config(args) == RunConfig(
            seed=3, noise_prob=1.0, split_ratios=(0.5, 0.25, 0.25),
            matching_mode=MatchingMode.CASE_SENSITIVE, include_diagonal=False,
        )

    def test_bad_json_config_names_the_file(self, ws, tmp_path):
        config = tmp_path / "config.json"
        config.write_text("{seed: 3}")
        code, _, err = run(
            ["split", ws["corpus"], "--out", str(tmp_path / "s.jsonl"),
             "--config", str(config)]
        )
        assert code == EXIT_FATAL
        assert err.startswith(f"procsem: error: {config}: bad JSON: ")

    def test_non_utf8_config_names_the_file(self, ws, tmp_path):
        config = tmp_path / "config.json"
        config.write_bytes(b'{"seed": 3, "note": "\xff"}\n')
        code, _, err = run(
            ["split", ws["corpus"], "--out", str(tmp_path / "s.jsonl"),
             "--config", str(config)]
        )
        assert code == EXIT_FATAL
        assert err == f"procsem: error: {config}: not UTF-8\n"


# The config flags each subcommand reads; a --config file may hold any key.
SUBCOMMAND_CONFIG_FLAGS = {
    "synth": {"--seed", "--max-sequences"},
    "validate": {"--max-sequences"},
    "playout": {"--max-sequences"},
    "gen": {"--seed", "--min-log-size", "--noise-prob", "--max-retries", "--max-sequences"},
    "split": {"--seed", "--ratios", "--max-sequences"},
    "prompts": {"--seed", "--shots"},
    "baseline": {"--seed"},
    "score": {"--matching-mode", "--include-diagonal", "--no-include-diagonal"},
}
ALL_CONFIG_FLAGS = set().union(*SUBCOMMAND_CONFIG_FLAGS.values())

# A valid command line of each subcommand. Run in this order in a directory
# that holds corpus.jsonl, each reads what the ones before it wrote.
SUBCOMMAND_ARGV = {
    "synth": ["synth", "--n-models", "3", "--out", "c2.jsonl"],
    "validate": ["validate", "corpus.jsonl", "--out", "a.jsonl"],
    "playout": ["playout", "corpus.jsonl", "--out", "s.jsonl"],
    "gen": ["gen", "corpus.jsonl", "--task", "tsad", "--out-dir", "data"],
    "split": ["split", "corpus.jsonl", "--out", "split.jsonl"],
    "prompts": ["prompts", "--dataset", "data/tsad.jsonl", "--split", "split.jsonl",
                "--out", "icl.jsonl"],
    "baseline": ["baseline", "--dataset", "data/tsad.jsonl", "--kind", "random_class",
                 "--out", "pred.jsonl"],
    "score": ["score", "--dataset", "data/tsad.jsonl", "--predictions", "pred.jsonl"],
}


def _help_text(command):
    out = io.StringIO()
    with redirect_stdout(out), pytest.raises(SystemExit) as exc_info:
        main([command, "--help"])
    assert exc_info.value.code == EXIT_OK
    return out.getvalue()


class TestCliSurface:
    @pytest.mark.parametrize("command", SUBCOMMAND_CONFIG_FLAGS)
    def test_help_lists_exactly_the_config_flags_read(self, command):
        listed = {
            word.strip("[],") for word in _help_text(command).split()
            if word.strip("[],") in ALL_CONFIG_FLAGS | {"--config"}
        }
        assert listed == SUBCOMMAND_CONFIG_FLAGS[command] | {"--config"}

    @pytest.mark.parametrize("command", SUBCOMMAND_CONFIG_FLAGS)
    def test_a_config_flag_not_read_is_a_usage_error(
        self, command, capsys, tmp_path, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        for flag in sorted(ALL_CONFIG_FLAGS - SUBCOMMAND_CONFIG_FLAGS[command]):
            value = [] if "diagonal" in flag else ["1"]
            with pytest.raises(SystemExit) as exc_info:
                main([*SUBCOMMAND_ARGV[command], flag, *value])
            assert exc_info.value.code == EXIT_FATAL
            # The subcommand's own usage, which lists the options it does take.
            err = capsys.readouterr().err
            assert err.startswith(f"usage: procsem {command} [-h]")
            assert err.endswith(
                f"procsem {command}: error: unrecognized arguments: {' '.join([flag, *value])}\n"
            )

    def test_an_unknown_option_before_the_subcommand_gets_the_top_level_usage(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["--foo", *SUBCOMMAND_ARGV["validate"]])
        assert exc_info.value.code == EXIT_FATAL
        err = capsys.readouterr().err
        assert err.startswith("usage: procsem [-h]")
        assert err.endswith("procsem: error: unrecognized arguments: --foo\n")

    def test_score_help_spells_the_matching_modes(self):
        assert "{case_sensitive,case_insensitive}" in _help_text("score")

    def test_bad_matching_mode_names_the_choices(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main([*SUBCOMMAND_ARGV["score"], "--matching-mode", "exact"])
        assert exc_info.value.code == EXIT_FATAL
        assert ("invalid choice: 'exact' (choose from 'case_sensitive', "
                "'case_insensitive')") in capsys.readouterr().err

    def test_one_config_file_serves_every_subcommand(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        Path("corpus.jsonl").write_text(
            '{"model_id": "m1", "tree": "->(\'a\', X(\'b\', \'c\'))"}\n'
            '{"model_id": "m2", "tree": "X(\'d\', +(\'e\', \'f\'))"}\n',
            encoding="utf-8",
        )
        Path("config.json").write_text(json.dumps({
            "seed": 4, "min_log_size": 5, "noise_prob": 0.0, "max_retries": 2,
            "split_ratios": [0.5, 0.0, 0.5], "shots": 1, "max_sequences": 50,
            "matching_mode": "case_sensitive", "include_diagonal": False,
        }))
        for command, argv in SUBCOMMAND_ARGV.items():
            code, summary, err = run([*argv, "--config", "config.json"])
            assert code == EXIT_OK, f"{command}: {err}"
            assert summary["command"] == command


class TestFailureModes:
    def test_validate_flags_bad_rows_with_partial_exit(self, tmp_path):
        corpus = tmp_path / "corpus.jsonl"
        rows = [
            {"model_id": "ok", "tree": "->('a', 'b')"},
            {"model_id": "broken", "tree": "->('a',"},
            {"model_id": "tiny", "tree": "'only'"},
        ]
        corpus.write_text(
            "".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8"
        )
        out = str(tmp_path / "admitted.jsonl")
        code, summary, _ = run(["validate", str(corpus), "--out", out])
        assert code == EXIT_PARTIAL
        assert summary["admitted"] == 1
        assert summary["rejected"] == 2
        reasons = summary["rejection_reasons"]
        assert reasons == {"parse_error": 1, "too_few_activities": 1}
        # the admitted corpus re-validates cleanly
        code, summary, _ = run(
            ["validate", out, "--out", str(tmp_path / "again.jsonl")]
        )
        assert code == EXIT_OK
        assert summary["rejected"] == 0

    def test_validate_writes_the_admitted_rows_as_json_dumps(self, tmp_path):
        rows = [
            {"model_id": "z9", "name": 'say "hi" \\ back', "tree": "->('o\\'k', 'b')"},
            {"model_id": "broken", "name": "x", "tree": "->('a',"},
            {"model_id": "m\u00e9", "name": "Bestellung prüfen — 注文", "tree": "X('c', 'd')"},
            {"model_id": "tiny", "name": "\"", "tree": "'only'"},
            {"model_id": "a1", "tree": "+('e', X('f', tau))"},
            {"model_id": "again", "tree": "->('b', 'o\\'k')"},
            {"model_id": "b2", "name": None, "tree": "*('g', 'h')"},
        ]
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text(
            "".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8"
        )
        out = tmp_path / "admitted.jsonl"
        code, summary, _ = run(["validate", str(corpus), "--out", str(out)])
        assert code == EXIT_PARTIAL
        assert [(r["model_id"], r["reason"]) for r in summary["rejections"]] == [
            ("broken", "parse_error"),
            ("tiny", "too_few_activities"),
            ("again", "duplicate_activity_set"),
        ]
        admitted = [
            procsem.ProcessModel(r["model_id"], parse_tree(r["tree"]), name=r.get("name"))
            for r in sorted(rows, key=lambda r: r["model_id"])
            if r["model_id"] in {"z9", "m\u00e9", "a1", "b2"}
        ]
        expected = "".join(map(oracle_corpus_line, admitted))
        assert out.read_bytes() == expected.encode("utf-8")

    def test_first_row_of_an_id_wins_even_when_it_does_not_parse(self, tmp_path):
        rows = [
            {"model_id": "m1", "tree": "->('a',"},
            {"model_id": "m1", "tree": "->('a', 'b')"},
            {"model_id": "m2", "tree": "X('c', 'd')"},
            {"model_id": "m2", "tree": "X('c',"},
        ]
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
        out = tmp_path / "admitted.jsonl"
        code, summary, _ = run(["validate", str(corpus), "--out", str(out)])
        assert code == EXIT_PARTIAL
        assert [(r["model_id"], r["reason"]) for r in summary["rejections"]] == [
            ("m1", "parse_error"),
            ("m1", "duplicate_model_id"),
            ("m2", "duplicate_model_id"),
        ]
        assert [r["detail"] for r in summary["rejections"][1:]] == [
            "first on line 1",
            "first on line 3",
        ]
        assert summary["admitted"] == 1
        assert [json.loads(line)["model_id"] for line in out.read_text("utf-8").splitlines()] == ["m2"]
        rejected = procsem.validate_corpus(procsem.read_corpus(corpus)).rejected
        assert [r.line for r in rejected] == [1, 2, 4]

    @pytest.mark.parametrize(
        "key,value", [("model_id", 5), ("tree", ["->('a', 'b')"]), ("name", 7)]
    )
    def test_mistyped_corpus_row_is_fatal(self, tmp_path, key, value):
        # A numeric id must not pass for its string twin on the next row.
        rows = [
            {"model_id": "5", "name": "n", "tree": "->('a', 'b')", key: value},
            {"model_id": "5", "tree": "->('c', 'd')"},
        ]
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
        out = tmp_path / "admitted.jsonl"
        code, _, err = run(["validate", str(corpus), "--out", str(out)])
        assert code == EXIT_FATAL
        assert err == f"procsem: error: {corpus}:1: {key!r} must be a string\n"
        assert not out.exists()

    def test_missing_file_is_fatal(self, tmp_path):
        code, _, err = run(
            ["playout", str(tmp_path / "nope.jsonl"),
             "--out", str(tmp_path / "o.jsonl")]
        )
        assert code == EXIT_FATAL
        assert "error" in err

    def test_write_error_names_the_destination(self, tmp_path):
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text('{"model_id": "m", "tree": "->(\'a\', \'b\')"}\n', encoding="utf-8")
        out = tmp_path / "missing" / "dir" / "a.jsonl"
        code, _, err = run(["validate", str(corpus), "--out", str(out)])
        assert code == EXIT_FATAL
        assert err == f"procsem: error: [Errno 2] No such file or directory: {str(out)!r}\n"

    def test_usage_error_exits_one(self):
        with pytest.raises(SystemExit) as exc_info:
            run(["synth", "--out", "x.jsonl"])  # missing required --n-models
        assert exc_info.value.code == EXIT_FATAL

    def test_unknown_prediction_id_is_fatal(self, ws, tmp_path):
        preds = str(tmp_path / "bogus.jsonl")
        known = read_dataset(f"{ws['data']}/tsad.jsonl")[0].record_id
        write_predictions(preds, [(known, "Valid"), ("zzz", "Valid")])
        code, summary, err = run(
            ["score", "--dataset", f"{ws['data']}/tsad.jsonl",
             "--predictions", preds]
        )
        assert code == EXIT_FATAL
        assert summary is None
        assert err == f"procsem: error: {preds}:2: prediction for unknown record 'zzz'\n"

    def test_unknown_prediction_id_in_a_pipe_names_the_file(self, ws, tmp_path):
        # A pipe cannot be read again to find the row, so its line goes unnamed.
        preds = tmp_path / "bogus.fifo"
        os.mkfifo(preds)
        row = json.dumps({"record_id": "zzz", "prediction": "Valid"}) + "\n"
        threading.Thread(target=lambda: preds.write_text(row, "utf-8"), daemon=True).start()
        code, _, err = run(
            ["score", "--dataset", f"{ws['data']}/tsad.jsonl", "--predictions", str(preds)]
        )
        assert code == EXIT_FATAL
        assert err == f"procsem: error: {preds}: prediction for unknown record 'zzz'\n"

    def test_footprint_baseline_rejects_tree_dataset(self, ws, tmp_path):
        code, _, err = run(
            ["baseline", "--dataset", f"{ws['data']}/sptd.jsonl",
             "--kind", "random_footprint", "--out", str(tmp_path / "p.jsonl")]
        )
        assert code == EXIT_FATAL
        assert err == (
            "procsem: error: random_footprint emits directly-follows edge lines; "
            "generate them for the sdfd dataset of the same corpus (per-model "
            "gold footprints coincide with sptd)\n"
        )

    def test_class_baseline_rejects_generation_dataset(self, ws, tmp_path):
        code, _, err = run(
            ["baseline", "--dataset", f"{ws['data']}/sdfd.jsonl",
             "--kind", "random_class", "--out", str(tmp_path / "p.jsonl")]
        )
        assert code == EXIT_FATAL
        assert err == "procsem: error: random_class does not apply to task sdfd\n"

    def test_prompts_require_split_coverage(self, ws, tmp_path):
        partial_split = tmp_path / "partial.jsonl"
        with open(ws["split"], encoding="utf-8") as handle:
            lines = handle.readlines()
        partial_split.write_text("".join(lines[:3]), encoding="utf-8")
        code, _, err = run(
            ["prompts", "--dataset", f"{ws['data']}/tsad.jsonl",
             "--split", str(partial_split), "--out", str(tmp_path / "p.jsonl")]
        )
        assert code == EXIT_FATAL
        assert "missing from split" in err

    def test_missing_split_models_name_the_split_file(self, ws, tmp_path):
        partial_split = tmp_path / "partial.jsonl"
        with open(ws["split"], encoding="utf-8") as handle:
            partial_split.write_text(handle.readline(), encoding="utf-8")
        code, _, err = run(
            ["prompts", "--dataset", f"{ws['data']}/sdfd.jsonl",
             "--split", str(partial_split), "--out", str(tmp_path / "p.jsonl")]
        )
        assert code == EXIT_FATAL
        assert err.startswith(
            f"procsem: error: {partial_split}: models missing from split file: "
        )

    @pytest.mark.parametrize("mode", ["icl", "ft"])
    def test_missing_split_models_are_the_first_five_sorted(self, ws, tmp_path, mode):
        # Fine-tuning pairs are rendered as the records are read; the models
        # missing from the split are named after the last record, and the
        # old file stays.
        dataset = f"{ws['data']}/tsad.jsonl"
        rows = Path(ws["split"]).read_text("utf-8").splitlines(keepends=True)
        partial = tmp_path / "partial.jsonl"
        partial.write_text("".join(rows[1::2]), encoding="utf-8")
        kept = {json.loads(row)["model_id"] for row in rows[1::2]}
        missing = sorted({r.model_id for r in read_dataset(dataset)} - kept)
        assert len(missing) > 5
        out = tmp_path / "out.jsonl"
        out.write_bytes(b"old\n")
        code, summary, err = run(
            ["prompts", "--dataset", dataset, "--split", str(partial), "--mode", mode,
             "--query-split", "train", "--out", str(out)]
        )
        assert (code, summary) == (EXIT_FATAL, None)
        assert err == (
            f"procsem: error: {partial}: models missing from split file: {missing[:5]}\n"
        )
        assert out.read_bytes() == b"old\n"

    @pytest.mark.parametrize("mode", ["icl", "ft"])
    def test_prompts_name_an_empty_dataset(self, ws, tmp_path, mode):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("", encoding="utf-8")
        code, _, err = run(
            ["prompts", "--dataset", str(empty), "--split", ws["split"], "--mode", mode,
             "--out", str(tmp_path / "out.jsonl")]
        )
        assert code == EXIT_FATAL
        assert err == f"procsem: error: {empty}: dataset is empty\n"

    def test_score_opens_both_files_before_reading_either(self, ws, tmp_path, monkeypatch):
        # A missing prediction file fails at once: no dataset row is read.
        def refuse(*args):
            raise AssertionError("a dataset row was read")

        monkeypatch.setattr("procsem.fileio.obj_to_record", refuse)
        missing = tmp_path / "missing.jsonl"
        code, summary, err = run(
            ["score", "--dataset", f"{ws['data']}/tsad.jsonl", "--predictions", str(missing)]
        )
        assert (code, summary) == (EXIT_FATAL, None)
        assert err == f"procsem: error: [Errno 2] No such file or directory: {str(missing)!r}\n"

    def test_prompts_open_the_dataset_before_reading_the_split(self, tmp_path):
        dataset, split = tmp_path / "missing.jsonl", tmp_path / "split.jsonl"
        split.write_text("{bad json\n", encoding="utf-8")
        for mode in ("icl", "ft"):
            code, _, err = run(
                ["prompts", "--dataset", str(dataset), "--split", str(split), "--mode", mode,
                 "--out", str(tmp_path / "out.jsonl")]
            )
            assert code == EXIT_FATAL
            assert err == (
                f"procsem: error: [Errno 2] No such file or directory: {str(dataset)!r}\n"
            )

    @pytest.mark.parametrize(
        "task,key,value",
        [
            ("snap", "next_activity", None),  # None drops the key
            ("asad", "pair", 5),
            ("asad", "pair", ["a"]),
            ("tsad", "trace", None),
            ("tsad", "label", "maybe"),
            ("sdfd", "edges", [["a", 1]]),
            ("sptd", "tree_text", ["->('a', 'b')"]),
            ("sptd", "activity_set", "ab"),
            ("tsad", "record_id", 7),
            ("asad", "model_id", 3),
            ("tsad", "activity_set", ["a", "a"]),
            ("sdfd", "edges", [["a", "b"]]),
            ("sptd", "tree_text", "->('a', "),
            ("sptd", "activity_set", ["no such leaf"]),
        ],
    )
    def test_malformed_dataset_row_is_fatal(self, ws, tmp_path, task, key, value):
        lines = Path(f"{ws['data']}/{task}.jsonl").read_text("utf-8").splitlines()
        row = json.loads(lines[1])
        if value is None:
            del row[key]
        else:
            row[key] = value
        lines[1] = json.dumps(row)
        dataset = tmp_path / f"{task}.jsonl"
        dataset.write_text("\n".join(lines) + "\n", encoding="utf-8")
        preds = tmp_path / "preds.jsonl"
        preds.write_text("", encoding="utf-8")
        code, _, err = run(
            ["score", "--dataset", str(dataset), "--predictions", str(preds)]
        )
        assert code == EXIT_FATAL
        assert err.startswith(f"procsem: error: {dataset}:2: ")
        assert repr(key) in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "key,value,shape",
        [
            ("activity_set", [["a", "b"], "c"], "a list of distinct strings"),
            ("activity_set", {"a": 0, "b": 1, "c": 2}, "a list of distinct strings"),
            ("activity_set", ["a", "a", "b"], "a list of distinct strings"),
            ("activity_set", ["a", "b", 3], "a list of distinct strings"),
            ("activity_set", "abc", "a list of distinct strings"),
            ("trace", {"a": 0, "b": 1}, "a list of strings"),
            ("trace", [["a"], "b"], "a list of strings"),
            ("label", ["Valid"], "Valid or Anomalous"),
            ("model_id", ["m"], "a string"),
        ],
    )
    def test_bad_value_after_a_valid_row_of_its_model_is_fatal(
        self, tmp_path, key, value, shape
    ):
        # The reader shares each value with the equal ones it has already
        # read; a bad row that follows a good one of the same model must
        # still get the full check.
        good = {"record_id": "m:tsad:00000", "task": "tsad", "model_id": "m",
                "activity_set": ["a", "b", "c"], "trace": ["a", "b"], "label": "Valid"}
        bad = {**good, "record_id": "m:tsad:00001", key: value}
        dataset = tmp_path / "bad.jsonl"
        dataset.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n", encoding="utf-8")
        preds = tmp_path / "preds.jsonl"
        preds.write_text("", encoding="utf-8")
        code, summary, err = run(
            ["score", "--dataset", str(dataset), "--predictions", str(preds)]
        )
        assert code == EXIT_FATAL
        assert summary is None
        assert err == f"procsem: error: {dataset}:2: {key!r} must be {shape}\n"

    def test_sptd_row_must_list_its_tree_leaves(self, tmp_path):
        # Scored over the listed activities, this row would give the
        # reversed tree fitness 1.0.
        row = {"record_id": "m:sptd:00000", "task": "sptd", "model_id": "m",
               "activity_set": ["a"], "tree_text": "->('a', 'b')"}
        dataset = tmp_path / "sptd.jsonl"
        dataset.write_text(json.dumps(row) + "\n", encoding="utf-8")
        preds = tmp_path / "preds.jsonl"
        write_predictions(preds, [("m:sptd:00000", "->('b', 'a')")])
        code, summary, err = run(
            ["score", "--dataset", str(dataset), "--predictions", str(preds), "--per-record"]
        )
        assert code == EXIT_FATAL
        assert summary is None
        assert err == (
            f"procsem: error: {dataset}:1: 'activity_set' must list the leaves of 'tree_text'\n"
        )

    def test_mixed_task_dataset_is_fatal(self, ws, tmp_path):
        tsad = Path(f"{ws['data']}/tsad.jsonl").read_text("utf-8")
        sdfd = Path(f"{ws['data']}/sdfd.jsonl").read_text("utf-8")
        mixed = tmp_path / "mixed.jsonl"
        mixed.write_text(tsad + "\n" + sdfd, encoding="utf-8")
        first_sdfd_line = tsad.count("\n") + 2  # after the blank line
        out = tmp_path / "ft.jsonl"
        code, _, err = run(
            ["prompts", "--dataset", str(mixed), "--split", ws["split"],
             "--mode", "ft", "--query-split", "train", "--out", str(out)]
        )
        assert code == EXIT_FATAL
        assert f"{mixed}:{first_sdfd_line}: sdfd row in a tsad dataset" in err
        assert not out.exists()

    def test_empty_dataset_is_fatal(self, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("", encoding="utf-8")
        code, _, err = run(
            ["baseline", "--dataset", str(empty), "--kind", "random_class",
             "--out", str(tmp_path / "p.jsonl")]
        )
        assert code == EXIT_FATAL
        assert "dataset is empty" in err

    def test_score_names_an_empty_dataset(self, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("", encoding="utf-8")
        preds = tmp_path / "preds.jsonl"
        preds.write_text("", encoding="utf-8")
        code, _, err = run(
            ["score", "--dataset", str(empty), "--predictions", str(preds)]
        )
        assert code == EXIT_FATAL
        assert err == f"procsem: error: {empty}: dataset is empty\n"

    def test_repeated_dataset_record_is_fatal(self, ws, tmp_path):
        lines = Path(f"{ws['data']}/asad.jsonl").read_text("utf-8").splitlines()
        dataset = tmp_path / "asad.jsonl"
        dataset.write_text("\n".join([*lines[:3], lines[1]]) + "\n", encoding="utf-8")
        preds = tmp_path / "preds.jsonl"
        preds.write_text("", encoding="utf-8")
        code, _, err = run(
            ["score", "--dataset", str(dataset), "--predictions", str(preds)]
        )
        record_id = json.loads(lines[1])["record_id"]
        assert code == EXIT_FATAL
        assert err == (
            f"procsem: error: {dataset}:4: record {record_id!r} follows "
            f"{json.loads(lines[2])['record_id']!r}; ids must increase\n"
        )

    @pytest.mark.parametrize(
        "row",
        [
            ({"record_id": 7, "prediction": "Valid"}, "'record_id' must be a string"),
            ({"record_id": "ID1", "prediction": None}, "'prediction' must be a string"),
            ({"record_id": "ID1", "prediction": ["Valid"]}, "'prediction' must be a string"),
            ({"record_id": "ID0", "prediction": "Valid"}, "duplicate record_id"),
        ],
    )
    def test_bad_prediction_row_is_fatal(self, ws, tmp_path, row):
        row, reason = row
        dataset = f"{ws['data']}/tsad.jsonl"
        ids = [r.record_id for r in read_dataset(dataset)[:2]]
        placeholders = {"ID0": ids[0], "ID1": ids[1]}
        row = {**row, "record_id": placeholders.get(row["record_id"], row["record_id"])}
        preds = tmp_path / "preds.jsonl"
        preds.write_text(
            json.dumps({"record_id": ids[0], "prediction": "Valid"}) + "\n"
            + json.dumps(row) + "\n",
            encoding="utf-8",
        )
        code, _, err = run(["score", "--dataset", dataset, "--predictions", str(preds)])
        assert code == EXIT_FATAL
        assert err.startswith(f"procsem: error: {preds}:2: {reason}")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("key,value", [("model_id", 3), ("split", None)])
    def test_mistyped_split_row_is_fatal(self, ws, tmp_path, key, value):
        lines = Path(ws["split"]).read_text("utf-8").splitlines()
        row = json.loads(lines[0])
        row[key] = value
        split = tmp_path / "split.jsonl"
        split.write_text("\n".join([json.dumps(row), *lines[1:]]) + "\n", encoding="utf-8")
        code, _, err = run(
            ["prompts", "--dataset", f"{ws['data']}/sdfd.jsonl", "--split", str(split),
             "--mode", "ft", "--out", str(tmp_path / "ft.jsonl")]
        )
        assert code == EXIT_FATAL
        assert err == f"procsem: error: {split}:1: {key!r} must be a string\n"

    def test_repeated_split_row_is_fatal(self, ws, tmp_path):
        lines = Path(ws["split"]).read_text("utf-8").splitlines()
        row = json.loads(lines[0])
        again = json.dumps({**row, "split": "test" if row["split"] != "test" else "train"})
        split = tmp_path / "split.jsonl"
        split.write_text("\n".join([lines[0], again, *lines[1:]]) + "\n", encoding="utf-8")
        code, _, err = run(
            ["prompts", "--dataset", f"{ws['data']}/sdfd.jsonl", "--split", str(split),
             "--mode", "ft", "--out", str(tmp_path / "ft.jsonl")]
        )
        assert code == EXIT_FATAL
        assert err == (
            f"procsem: error: {split}:2: duplicate model_id "
            f"{row['model_id']!r} (first on line 1)\n"
        )

    @staticmethod
    def _sources(ws):
        """The file of each kind that `ws` holds."""
        return {
            "corpus": ws["corpus"],
            "dataset": f"{ws['data']}/tsad.jsonl",
            "predictions": ws["preds"],
            "split": ws["split"],
        }

    def _lines(self, ws, kind):
        return Path(self._sources(ws)[kind]).read_bytes().splitlines(keepends=True)

    def _read_with(self, ws, tmp_path, kind, lines):
        """Run the command that reads `lines` as its `kind` file, beside the
        other files of `ws`; return its result and the file's path."""
        bad = tmp_path / f"{kind}.jsonl"
        bad.write_bytes(b"".join(lines))
        paths = {**self._sources(ws), kind: str(bad)}
        argv = {
            "corpus": ["validate", paths["corpus"], "--out", str(tmp_path / "o.jsonl")],
            "dataset": ["score", "--dataset", paths["dataset"],
                        "--predictions", paths["predictions"]],
            "predictions": ["score", "--dataset", paths["dataset"],
                            "--predictions", paths["predictions"]],
            "split": ["prompts", "--dataset", paths["dataset"], "--split", paths["split"],
                      "--mode", "ft", "--out", str(tmp_path / "ft.jsonl")],
        }[kind]
        return run(argv), bad

    @pytest.mark.parametrize("kind", ["corpus", "dataset", "predictions", "split"])
    def test_non_utf8_row_names_path_and_line(self, ws, tmp_path, kind):
        # The dataset's bad line lies past the first block a text-mode read
        # decodes, so its number is not that of the last row read.
        lines = self._lines(ws, kind)
        bad_line = 300 if kind == "dataset" else 2
        assert len(lines) > bad_line
        lines[bad_line - 1] = lines[bad_line - 1].replace(b'"', b'"\xff', 1)
        (code, summary, err), bad = self._read_with(ws, tmp_path, kind, lines)
        assert code == EXIT_FATAL
        assert summary is None
        assert err == f"procsem: error: {bad}:{bad_line}: not UTF-8\n"

    @pytest.mark.parametrize("kind", ["corpus", "dataset", "predictions", "split"])
    def test_deeply_nested_row_names_path_and_line(self, ws, tmp_path, kind):
        # The decoder recurses once per level; a line nested deeper than
        # the interpreter's recursion limit is a bad row, not a traceback.
        lines = self._lines(ws, kind)
        depth = 100_000
        lines[1] = b'{"record_id": ' + b"[" * depth + b"]" * depth + b"}\n"
        (code, summary, err), bad = self._read_with(ws, tmp_path, kind, lines)
        assert code == EXIT_FATAL
        assert summary is None
        assert err == f"procsem: error: {bad}:2: bad JSON: nested too deeply\n"

    @pytest.mark.parametrize(
        "first_row,reason",
        [
            (b"{bad json", "bad JSON: "),
            (b'{"model_id": 5, "tree": "\'a\'"}', "'model_id' must be a string\n"),
        ],
    )
    def test_row_error_wins_over_a_later_bad_byte(self, tmp_path, first_row, reason):
        # Both lines lie in the first block a text-mode read decodes.
        bad = tmp_path / "bad.jsonl"
        bad.write_bytes(first_row + b'\n{"model_id": "m\xff", "tree": "\'a\'"}\n')
        code, summary, err = run(["validate", str(bad), "--out", str(tmp_path / "o.jsonl")])
        assert code == EXIT_FATAL
        assert summary is None
        assert err.startswith(f"procsem: error: {bad}:1: {reason}")
        assert err.count("\n") == 1

    def test_non_utf8_template_names_the_file(self, ws, tmp_path):
        templates = tmp_path / "templates"
        templates.mkdir()
        (templates / "tsad.desc.txt").write_bytes(b"Decide \xff\n")
        (templates / "tsad.block.txt").write_text("{instance}\n", encoding="utf-8")
        code, _, err = run(
            ["prompts", "--dataset", f"{ws['data']}/tsad.jsonl", "--split", ws["split"],
             "--mode", "ft", "--templates-dir", str(templates),
             "--out", str(tmp_path / "ft.jsonl")]
        )
        assert code == EXIT_FATAL
        assert err == f"procsem: error: {templates / 'tsad.desc.txt'}: not UTF-8\n"


def _nested_tree(operators: int) -> str:
    """Tree text whose leaves 'a' and 'b' sit under `operators` nested
    operators, cycling through ->, X and + with a tau sibling on each level."""
    text = "->('a', 'b')"
    for i in range(operators - 1):
        text = f"{('->', 'X', '+')[i % 3]}({text}, tau)"
    return text


def test_a_tree_at_the_depth_limit_passes_every_stage(tmp_path):
    deep, deeper = _nested_tree(MAX_DEPTH), _nested_tree(MAX_DEPTH + 1)
    rows = [
        {"model_id": "deep", "tree": deep},
        {"model_id": "deeper", "tree": deeper},
        {"model_id": "shallow", "tree": "->('c', 'd')"},
    ]
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
    data = tmp_path / "data"
    for argv in (
        ["validate", str(corpus), "--out", str(tmp_path / "admitted.jsonl")],
        ["playout", str(corpus), "--out", str(tmp_path / "sequences.jsonl")],
        ["gen", str(corpus), "--out-dir", str(data)],
        ["split", str(corpus), "--out", str(tmp_path / "split.jsonl")],
    ):
        code, summary, err = run(argv)
        assert (code, summary["rejected"]) == (EXIT_PARTIAL, 1), f"{argv[0]}: {err}"
        if argv[0] == "validate":
            assert [(r["model_id"], r["reason"]) for r in summary["rejections"]] == [
                ("deeper", "parse_error")
            ]
    sptd, preds = str(data / "sptd.jsonl"), tmp_path / "preds.jsonl"
    # The deep tree as gold and as the prediction for both records, then one
    # level deeper as a prediction, which does not parse.
    for answer, fitness, failures in ((deep, 1.0, 0), (deeper, 0.0, 1)):
        write_predictions(
            preds,
            [("deep:sptd:00000", answer), ("shallow:sptd:00000", deep)],
        )
        code, summary, err = run(
            ["score", "--dataset", sptd, "--predictions", str(preds), "--per-record"]
        )
        assert code == EXIT_OK, err
        assert summary["per_record_fitness"]["deep:sptd:00000"] == fitness
        assert summary["n_parse_failures"] == failures


def test_python_dash_m_runs_the_cli():
    src = str(Path(procsem.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-m", "procsem", "--help"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert "prompts" in proc.stdout


def _unique_sequences(trees) -> tuple[int, int]:
    """`playout`'s `unique_sequences` on a corpus of the trees, and the size
    of the union of the admitted models' languages."""
    entries = [ProcessModel(f"m{i}", tree) for i, tree in enumerate(trees)]
    with tempfile.TemporaryDirectory() as tmp:
        corpus = str(Path(tmp) / "corpus.jsonl")
        write_corpus(corpus, entries)
        code, summary, _ = run(["playout", corpus, "--out", str(Path(tmp) / "s.jsonl")])
    assert code in (EXIT_OK, EXIT_PARTIAL)
    admitted = validate_corpus(entries).admitted
    return summary["unique_sequences"], len(set().union(*(oracle_language(m.tree) for m in admitted)))


@settings(max_examples=150, deadline=None)
@given(shared_vocabulary_corpora(distinct_labels=True))
def test_playout_counts_each_distinct_sequence_once(trees):
    counted, expected = _unique_sequences(trees)
    assert counted == expected


@pytest.mark.parametrize("texts", SHARING_CORPORA.values(), ids=SHARING_CORPORA.keys())
def test_playout_counts_each_distinct_sequence_once_on_edge_cases(texts):
    counted, expected = _unique_sequences(map(parse_tree, texts))
    assert counted == expected


@pytest.mark.parametrize(
    "counts, spelled",
    [
        ([], '{"avg": 0, "median": 0, "min": 0, "max": 0}'),
        ([3, 1, 2], '{"avg": 2.0, "median": 2, "min": 1, "max": 3}'),
        ([4, 1, 3, 2], '{"avg": 2.5, "median": 2.5, "min": 1, "max": 4}'),
        ([5, 2, 5, 5], '{"avg": 4.25, "median": 5.0, "min": 2, "max": 5}'),
        ([1, 2, 2], '{"avg": 1.67, "median": 2, "min": 1, "max": 2}'),
    ],
    ids=["none", "odd", "even", "even-equal-middle", "odd-rounded"],
)
def test_spread_spells_what_statistics_gave(counts, spelled):
    # An even count's median is the mean of the middle two, a float even
    # when they are equal, as `statistics.median` gives it.
    assert json.dumps(_spread(counts)) == spelled
    if counts:
        oracle = {"avg": round(statistics.fmean(counts), 2), "median": statistics.median(counts)}
        assert json.dumps({k: _spread(counts)[k] for k in oracle}) == json.dumps(oracle)
