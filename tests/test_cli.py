from __future__ import annotations

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from procsem import (
    Prediction,
    answer_text,
    read_dataset,
    write_predictions,
)
from procsem.cli import EXIT_FATAL, EXIT_OK, EXIT_PARTIAL, main


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
            write_predictions(
                preds,
                [Prediction(r.record_id, answer_text(r)) for r in records],
            )
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
        assert open(a, "rb").read() == open(b, "rb").read()

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
        assert open(a, "rb").read() == open(b, "rb").read()

    def test_different_seed_changes_datasets(self, ws, tmp_path):
        other = tmp_path / "d3"
        code, _, _ = run(
            ["gen", ws["corpus"], "--out-dir", str(other), "--seed", "8",
             "--min-log-size", "20"]
        )
        assert code == EXIT_OK
        original = open(f"{ws['data']}/tsad.jsonl", "rb").read()
        assert (other / "tsad.jsonl").read_bytes() != original


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
        assert (via_config / "tsad.jsonl").read_bytes() == open(
            f"{ws['data']}/tsad.jsonl", "rb"
        ).read()

    def test_flag_overrides_config(self, ws, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"seed": 99, "min_log_size": 20}))
        out_dir = tmp_path / "override"
        code, _, _ = run(
            ["gen", ws["corpus"], "--out-dir", str(out_dir),
             "--config", str(config), "--seed", "7"]
        )
        assert code == EXIT_OK
        assert (out_dir / "tsad.jsonl").read_bytes() == open(
            f"{ws['data']}/tsad.jsonl", "rb"
        ).read()

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

    def test_missing_file_is_fatal(self, tmp_path):
        code, _, err = run(
            ["playout", str(tmp_path / "nope.jsonl"),
             "--out", str(tmp_path / "o.jsonl")]
        )
        assert code == EXIT_FATAL
        assert "error" in err

    def test_usage_error_exits_one(self):
        with pytest.raises(SystemExit) as exc_info:
            run(["synth", "--out", "x.jsonl"])  # missing required --n-models
        assert exc_info.value.code == EXIT_FATAL

    def test_unknown_prediction_id_is_fatal(self, ws, tmp_path):
        preds = str(tmp_path / "bogus.jsonl")
        write_predictions(preds, [Prediction("no-such-record", "Valid")])
        code, _, err = run(
            ["score", "--dataset", f"{ws['data']}/tsad.jsonl",
             "--predictions", preds]
        )
        assert code == EXIT_FATAL
        assert "unknown record" in err

    def test_footprint_baseline_rejects_tree_dataset(self, ws, tmp_path):
        code, _, err = run(
            ["baseline", "--dataset", f"{ws['data']}/sptd.jsonl",
             "--kind", "random_footprint", "--out", str(tmp_path / "p.jsonl")]
        )
        assert code == EXIT_FATAL
        assert "sdfd" in err

    def test_class_baseline_rejects_generation_dataset(self, ws, tmp_path):
        code, _, err = run(
            ["baseline", "--dataset", f"{ws['data']}/sdfd.jsonl",
             "--kind", "random_class", "--out", str(tmp_path / "p.jsonl")]
        )
        assert code == EXIT_FATAL
        assert "random_class" in err

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
