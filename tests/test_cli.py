"""End-to-end command line runs over the dump fixture."""

from __future__ import annotations

import ast
import importlib.util
import json
import logging
import re
import subprocess
import sys
from pathlib import Path

import pytest

from tagrec import cli
from tagrec.cli import SETTINGS, main
from tagrec.ingest import read_corpus

FIXTURES = Path(__file__).parent / "fixtures"
DUMP = str(FIXTURES / "posts_fixture.xml")
SERVE = Path(__file__).resolve().parents[1] / "perfbench" / "serve.py"


@pytest.fixture(scope="module", autouse=True)
def _restore_root_logging():
    # main() installs its own root handler and level; undo so later test
    # modules still see caplog's capture.
    root = logging.getLogger()
    handlers, level = root.handlers[:], root.level
    yield
    root.handlers = handlers
    root.setLevel(level)

TINY_TRAIN_FLAGS = [
    "--layers", "1",
    "--heads", "2",
    "--model-dim", "8",
    "--ffn-dim", "16",
    "--title-len", "16",
    "--description-len", "24",
    "--code-len", "24",
    "--batch-size", "8",
    "--lr", "1e-3",
    "--epochs", "1",
    "--seed", "0",
]


def run_pipeline(root: Path) -> dict[str, Path]:
    """ingest -> build-vocab -> tokenizer-train -> train, tiny settings."""
    ingest = root / "ingest"
    vocab = root / "vocab"
    tok = root / "tok"
    model = root / "model"
    assert main(["ingest", "--quiet", "--dump", DUMP, "--out-dir", str(ingest)]) == 0
    assert main([
        "build-vocab", "--quiet",
        "--corpus", str(ingest / "corpus.jsonl"),
        "--out-dir", str(vocab),
        "--theta", "1",
    ]) == 0
    assert main([
        "tokenizer-train", "--quiet",
        "--corpus", str(vocab / "corpus_filtered.jsonl"),
        "--out-dir", str(tok),
        "--vocab-size", "300",
    ]) == 0
    assert main([
        "train", "--quiet",
        "--corpus", str(vocab / "corpus_filtered.jsonl"),
        "--vocab", str(vocab / "tag_vocab.json"),
        "--tokenizer", str(tok / "tokenizer.json"),
        "--out-dir", str(model),
        "--test-count", "3",
        *TINY_TRAIN_FLAGS,
    ]) == 0
    return {
        "corpus": ingest / "corpus.jsonl",
        "stats": ingest / "ingest_stats.json",
        "vocab": vocab / "tag_vocab.json",
        "filtered": vocab / "corpus_filtered.jsonl",
        "tokenizer": tok / "tokenizer.json",
        "checkpoint": model / "model.ckpt",
        "trace": model / "loss_trace.csv",
        "test_corpus": model / "test.jsonl",
    }


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory) -> dict[str, Path]:
    return run_pipeline(tmp_path_factory.mktemp("pipeline"))


class TestPipeline:
    def test_ingest_matches_golden_corpus(self, pipeline):
        assert pipeline["corpus"].read_bytes() == (FIXTURES / "posts_golden.jsonl").read_bytes()
        stats = json.loads(pipeline["stats"].read_text())
        assert stats == {
            "rows_total": 24,
            "questions_yielded": 20,
            "filtered_non_question": 1,
            "filtered_untagged": 1,
            "skipped_malformed": 2,
        }

    def test_run_config_echoed(self, pipeline):
        payload = json.loads((pipeline["corpus"].parent / "run_config.json").read_text())
        assert payload["command"] == "ingest"
        assert payload["options"]["dump"] == DUMP
        assert list(payload["options"]) == sorted(payload["options"])

    def test_chronological_holdout_takes_newest_ids(self, pipeline):
        held = read_corpus(pipeline["test_corpus"])
        assert [p.id for p in held] == [18, 19, 20]

    def test_train_artifacts_exist(self, pipeline):
        assert pipeline["checkpoint"].stat().st_size > 0
        header = pipeline["trace"].read_text().splitlines()[0]
        assert header == "step,lr,loss"

    def test_evaluate_writes_reports(self, pipeline, tmp_path, capsys):
        out = tmp_path / "eval"
        code = main([
            "evaluate", "--quiet",
            "--corpus", str(pipeline["test_corpus"]),
            "--checkpoint", str(pipeline["checkpoint"]),
            "--vocab", str(pipeline["vocab"]),
            "--tokenizer", str(pipeline["tokenizer"]),
            "--out-dir", str(out),
        ])
        assert code == 0
        table = capsys.readouterr().out
        assert "@5" in table and table.startswith("  ")
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["count"] == 3
        assert set(metrics["f1"]) == {"1", "2", "3", "4", "5"}
        assert all(0.0 <= v <= 1.0 for v in metrics["f1"].values())
        missed = json.loads((out / "missed_tags.json").read_text())
        assert "missed_tags" in missed
        csv_head = (out / "per_instance.csv").read_text().splitlines()[0]
        assert csv_head.split(",")[:3] == ["instance", "p@1", "p@2"]

    def test_predict_emits_ranked_tag_json(self, pipeline, capsys):
        code = main([
            "predict", "--quiet",
            "--checkpoint", str(pipeline["checkpoint"]),
            "--vocab", str(pipeline["vocab"]),
            "--tokenizer", str(pipeline["tokenizer"]),
            "--title", "How do I parse JSON in python?",
            "--k", "4",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["tags"]) == 4
        probs = [t["probability"] for t in payload["tags"]]
        assert probs == sorted(probs, reverse=True)
        assert all(0.0 < p < 1.0 for p in probs)

    def test_predict_accepts_post_json_file(self, pipeline, tmp_path, capsys):
        post = tmp_path / "post.json"
        post.write_text(json.dumps({"title": "t", "description": "d", "code": "c"}))
        code = main([
            "predict", "--quiet",
            "--checkpoint", str(pipeline["checkpoint"]),
            "--vocab", str(pipeline["vocab"]),
            "--tokenizer", str(pipeline["tokenizer"]),
            "--post-json", str(post),
            "--k", "1",
        ])
        assert code == 0
        assert len(json.loads(capsys.readouterr().out)["tags"]) == 1

    def test_predict_rejects_non_string_post_field(self, pipeline, tmp_path, capsys):
        post = tmp_path / "post.json"
        post.write_text(json.dumps({"title": 5, "description": "d"}))
        code = main([
            "predict", "--quiet",
            "--checkpoint", str(pipeline["checkpoint"]),
            "--vocab", str(pipeline["vocab"]),
            "--tokenizer", str(pipeline["tokenizer"]),
            "--post-json", str(post),
        ])
        assert code == 2
        error = json.loads(capsys.readouterr().err.splitlines()[-1])["error"]
        assert error["type"] == "ArtifactError"
        assert "title" in error["message"] and "description" not in error["message"]

    def test_bench_writes_latency_report(self, pipeline, tmp_path, capsys):
        out = tmp_path / "bench"
        code = main([
            "bench", "--quiet",
            "--checkpoint", str(pipeline["checkpoint"]),
            "--vocab", str(pipeline["vocab"]),
            "--tokenizer", str(pipeline["tokenizer"]),
            "--corpus", str(pipeline["test_corpus"]),
            "--out-dir", str(out),
            "--sample-n", "2",
            "--repeats", "2",
        ])
        assert code == 0
        report = json.loads((out / "latency.json").read_text())
        assert report["count"] == 4
        assert report["unit"] == "ms"
        assert json.loads(capsys.readouterr().out) == report

    def test_compare_identical_csvs(self, pipeline, tmp_path, capsys):
        eval_out = tmp_path / "eval"
        main([
            "evaluate", "--quiet",
            "--corpus", str(pipeline["test_corpus"]),
            "--checkpoint", str(pipeline["checkpoint"]),
            "--vocab", str(pipeline["vocab"]),
            "--tokenizer", str(pipeline["tokenizer"]),
            "--out-dir", str(eval_out),
        ])
        capsys.readouterr()
        csv_path = str(eval_out / "per_instance.csv")
        result_path = tmp_path / "compare.json"
        code = main(["compare", "--quiet", "--a", csv_path, "--b", csv_path, "--out", str(result_path)])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["wilcoxon_p"] == 1.0
        assert payload["cliffs_delta"] == 0.0
        assert payload["magnitude"] == "negligible"
        assert payload["column"] == "f1@5"
        assert json.loads(result_path.read_text()) == payload

    def test_benchmark_serve_stage_on_the_pipeline(self, pipeline):
        # The benchmark's serve stage feeds TripletModel.forward cut-to-length
        # (ids, mask) arrays and reads TokenSequence.length.
        spec = importlib.util.spec_from_file_location("perfbench_serve", SERVE)
        serve = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(serve)
        result = serve.serve({
            "checkpoint": str(pipeline["checkpoint"]),
            "vocab": str(pipeline["vocab"]),
            "tokenizer": str(pipeline["tokenizer"]),
            "corpus": str(pipeline["filtered"]),
            "test_corpus": str(pipeline["test_corpus"]),
            "min_seconds": None,
        })
        assert result["roundtrip_failures"] == []
        assert result["padding_max_diff"] <= 1e-5
        held_out = [p.id for p in read_corpus(pipeline["test_corpus"])]
        assert [r["id"] for r in result["rankings"]] == held_out


class TestDeterminism:
    def test_double_run_artifacts_are_byte_identical(self, tmp_path):
        a = run_pipeline(tmp_path / "a")
        b = run_pipeline(tmp_path / "b")
        for key in ("corpus", "stats", "vocab", "filtered", "tokenizer", "checkpoint", "trace", "test_corpus"):
            assert a[key].read_bytes() == b[key].read_bytes(), key


class TestAblate:
    def test_leave_one_out_variants_reported(self, pipeline, tmp_path, capsys):
        out = tmp_path / "ablation"
        code = main([
            "ablate", "--quiet",
            "--corpus", str(pipeline["filtered"]),
            "--test-corpus", str(pipeline["test_corpus"]),
            "--vocab", str(pipeline["vocab"]),
            "--tokenizer", str(pipeline["tokenizer"]),
            "--out-dir", str(out),
            "--components", "title,code",
            *TINY_TRAIN_FLAGS,
        ])
        assert code == 0
        payload = json.loads((out / "ablation.json").read_text())
        assert set(payload["variants"]) == {"full", "no_title", "no_code"}
        assert set(payload["f1_delta_vs_full"]) == {"no_title", "no_code"}
        for variant, deltas in payload["f1_delta_vs_full"].items():
            for k, delta in deltas.items():
                full = payload["variants"]["full"]["f1"][k]
                assert delta == pytest.approx(payload["variants"][variant]["f1"][k] - full)
        stdout = capsys.readouterr().out
        assert "no_title" in stdout and "dF1@5" in stdout

    def test_vocabulary_smaller_than_the_cutoffs_rejected_before_training(self, pipeline, tmp_path, capsys, monkeypatch):
        def refuse_to_fit(*args, **kwargs):
            raise AssertionError("a variant was trained before the cutoffs were checked")

        monkeypatch.setattr(cli, "_fit", refuse_to_fit)
        payload = json.loads(pipeline["vocab"].read_text())
        payload["tags"] = payload["tags"][:4]
        vocab = tmp_path / "tag_vocab.json"
        vocab.write_text(json.dumps(payload))
        code = main([
            "ablate", "--quiet",
            "--corpus", str(pipeline["filtered"]),
            "--test-corpus", str(pipeline["test_corpus"]),
            "--vocab", str(vocab),
            "--tokenizer", str(pipeline["tokenizer"]),
            "--out-dir", str(tmp_path / "ablation"),
            "--components", "title,code",
            *TINY_TRAIN_FLAGS,
        ])
        assert code == 2
        error = json.loads(capsys.readouterr().err.splitlines()[-1])["error"]
        assert error["type"] == "EvalError"
        assert "cutoff 5" in error["message"] and "4 tags" in error["message"]

    def test_single_component_rejected(self, pipeline, tmp_path):
        code = main([
            "ablate", "--quiet",
            "--corpus", str(pipeline["filtered"]),
            "--test-corpus", str(pipeline["test_corpus"]),
            "--vocab", str(pipeline["vocab"]),
            "--tokenizer", str(pipeline["tokenizer"]),
            "--out-dir", str(tmp_path / "x"),
            "--components", "title",
        ])
        assert code == 2


class TestErrorHandling:
    def _stderr_error(self, capsys) -> dict:
        err_lines = [l for l in capsys.readouterr().err.splitlines() if l.strip()]
        payload = json.loads(err_lines[-1])
        assert set(payload["error"]) == {"type", "message"}
        return payload["error"]

    def test_missing_required_flags(self, capsys):
        assert main(["ingest", "--quiet", "--dump", DUMP]) == 2
        error = self._stderr_error(capsys)
        assert "--out-dir" in error["message"]

    def test_missing_input_file(self, tmp_path, capsys):
        assert main(["ingest", "--quiet", "--dump", "/nope/posts.xml", "--out-dir", str(tmp_path)]) == 2
        assert "not found" in self._stderr_error(capsys)["message"]

    def test_default_theta_too_high_for_tiny_corpus(self, tmp_path, capsys):
        ingest = tmp_path / "ingest"
        main(["ingest", "--quiet", "--dump", DUMP, "--out-dir", str(ingest)])
        code = main([
            "build-vocab", "--quiet",
            "--corpus", str(ingest / "corpus.jsonl"),
            "--out-dir", str(tmp_path / "vocab"),
        ])
        assert code == 2
        assert self._stderr_error(capsys)["type"] == "EmptyLabelSpaceError"

    def test_checkpoint_vocab_mismatch(self, pipeline, tmp_path, capsys):
        other_vocab = tmp_path / "other_vocab"
        main([
            "build-vocab", "--quiet",
            "--corpus", str(pipeline["corpus"]),
            "--out-dir", str(other_vocab),
            "--theta", "2",
        ])
        code = main([
            "evaluate", "--quiet",
            "--corpus", str(pipeline["test_corpus"]),
            "--checkpoint", str(pipeline["checkpoint"]),
            "--vocab", str(other_vocab / "tag_vocab.json"),
            "--tokenizer", str(pipeline["tokenizer"]),
            "--out-dir", str(tmp_path / "eval"),
        ])
        assert code == 2
        assert self._stderr_error(capsys)["type"] == "VocabHashMismatchError"

    @pytest.mark.parametrize("vocab_size", [280, 330])
    @pytest.mark.parametrize("command", ["evaluate", "predict", "bench"])
    def test_tokenizer_checkpoint_mismatch(self, pipeline, command, vocab_size, tmp_path, capsys):
        # The checkpoint was trained with the pipeline's 300-token tokenizer.
        assert main([
            "tokenizer-train", "--quiet",
            "--corpus", str(pipeline["filtered"]),
            "--out-dir", str(tmp_path / "tok"),
            "--vocab-size", str(vocab_size),
        ]) == 0
        inputs = {
            "evaluate": ["--corpus", str(pipeline["test_corpus"]), "--out-dir", str(tmp_path / "out")],
            "predict": ["--title", "How do I parse JSON in python?"],
            "bench": ["--corpus", str(pipeline["test_corpus"]), "--out-dir", str(tmp_path / "out"), "--sample-n", "1", "--repeats", "1"],
        }
        code = main([
            command, "--quiet",
            "--checkpoint", str(pipeline["checkpoint"]),
            "--vocab", str(pipeline["vocab"]),
            "--tokenizer", str(tmp_path / "tok" / "tokenizer.json"),
            *inputs[command],
        ])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        error = json.loads(captured.err.splitlines()[-1])["error"]
        assert error["type"] == "ArtifactError"
        assert str(vocab_size) in error["message"] and "300" in error["message"]

    def test_truncated_dump_leaves_no_corpus(self, tmp_path, capsys):
        dump = tmp_path / "truncated.xml"
        text = Path(DUMP).read_bytes()
        dump.write_bytes(text[: len(text) // 2])
        out = tmp_path / "out"
        assert main(["ingest", "--quiet", "--dump", str(dump), "--out-dir", str(out)]) == 2
        assert self._stderr_error(capsys)["type"] == "DumpParseError"
        assert not (out / "corpus.jsonl").exists()
        assert list(out.glob("*.tmp")) == []

    @pytest.mark.parametrize(
        "flags, error_type",
        [(["--heads", "3"], "EncoderConfigError"), (["--batch-size", "0"], "TrainConfigError")],
        ids=["heads", "batch_size"],
    )
    def test_failed_train_leaves_no_held_out_split(self, pipeline, flags, error_type, tmp_path, capsys, monkeypatch):
        def refuse_to_encode(*args, **kwargs):
            raise AssertionError("the corpus was encoded before every setting was checked")

        monkeypatch.setattr(cli, "build_dataset", refuse_to_encode)
        out = tmp_path / "model"
        code = main([
            "train", "--quiet",
            "--corpus", str(pipeline["filtered"]),
            "--vocab", str(pipeline["vocab"]),
            "--tokenizer", str(pipeline["tokenizer"]),
            "--out-dir", str(out),
            "--test-count", "3",
            *TINY_TRAIN_FLAGS, *flags,
        ])
        assert code == 2
        assert self._stderr_error(capsys)["type"] == error_type
        assert list(out.iterdir()) == []

    def test_train_refuses_a_stale_held_out_split(self, pipeline, tmp_path, capsys, monkeypatch):
        def refuse_to_load(*args, **kwargs):
            raise AssertionError("the corpus was loaded before the output directory was checked")

        monkeypatch.setattr(cli, "_load_corpus", refuse_to_load)
        out = tmp_path / "model"
        out.mkdir()
        stale = out / "test.jsonl"
        stale.write_bytes(pipeline["test_corpus"].read_bytes())
        code = main([
            "train", "--quiet",
            "--corpus", str(pipeline["filtered"]),
            "--vocab", str(pipeline["vocab"]),
            "--tokenizer", str(pipeline["tokenizer"]),
            "--out-dir", str(out),
            *TINY_TRAIN_FLAGS,
        ])
        assert code == 2
        error = self._stderr_error(capsys)
        assert error["type"] == "ArtifactError"
        assert str(stale) in error["message"]
        assert list(out.iterdir()) == [stale]
        assert stale.read_bytes() == pipeline["test_corpus"].read_bytes()

    def _evaluate_without_scoring(self, pipeline, ks: str, out: Path, monkeypatch) -> int:
        def refuse_to_score(*args, **kwargs):
            raise AssertionError("the posts were scored before the cutoffs were checked")

        monkeypatch.setattr(cli, "build_eval_instances", refuse_to_score)
        return main([
            "evaluate", "--quiet",
            "--corpus", str(pipeline["test_corpus"]),
            "--checkpoint", str(pipeline["checkpoint"]),
            "--vocab", str(pipeline["vocab"]),
            "--tokenizer", str(pipeline["tokenizer"]),
            "--out-dir", str(out),
            "--ks", ks,
        ])

    @pytest.mark.parametrize("ks", ["1,1", "0,1"])
    def test_evaluate_rejects_bad_cutoffs_before_scoring(self, pipeline, ks, tmp_path, capsys, monkeypatch):
        assert self._evaluate_without_scoring(pipeline, ks, tmp_path / "eval", monkeypatch) == 2
        error = self._stderr_error(capsys)
        assert error["type"] == "EvalError"
        assert "distinct and >= 1" in error["message"]

    def test_evaluate_rejects_a_cutoff_above_the_tag_count(self, pipeline, tmp_path, capsys, monkeypatch):
        num_tags = len(json.loads(pipeline["vocab"].read_text())["tags"])
        code = self._evaluate_without_scoring(pipeline, f"1,{num_tags + 1}", tmp_path / "eval", monkeypatch)
        assert code == 2
        error = self._stderr_error(capsys)
        assert error["type"] == "EvalError"
        assert f"cutoff {num_tags + 1}" in error["message"] and f"{num_tags} tags" in error["message"]

    def test_negative_test_count_rejected(self, pipeline, tmp_path, capsys):
        out = tmp_path / "model"
        code = main([
            "train", "--quiet",
            "--corpus", str(pipeline["filtered"]),
            "--vocab", str(pipeline["vocab"]),
            "--tokenizer", str(pipeline["tokenizer"]),
            "--out-dir", str(out),
            "--test-count", "-3",
            *TINY_TRAIN_FLAGS,
        ])
        assert code == 2
        assert "test_count -3" in self._stderr_error(capsys)["message"]
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("text", ["{not json", "[1, 2]"], ids=["invalid", "not_an_object"])
    def test_bad_post_json_names_the_file(self, pipeline, text, tmp_path, capsys):
        post = tmp_path / "post.json"
        post.write_text(text)
        code = main([
            "predict", "--quiet",
            "--checkpoint", str(pipeline["checkpoint"]),
            "--vocab", str(pipeline["vocab"]),
            "--tokenizer", str(pipeline["tokenizer"]),
            "--post-json", str(post),
        ])
        assert code == 2
        error = self._stderr_error(capsys)
        assert error["type"] == "ArtifactError"
        assert str(post) in error["message"]

    def test_predict_rejects_unknown_post_json_field(self, pipeline, tmp_path, capsys):
        post = tmp_path / "post.json"
        post.write_text(json.dumps({"titel": "How do I parse JSON in python?", "code": "json.loads(s)"}))
        code = main([
            "predict", "--quiet",
            "--checkpoint", str(pipeline["checkpoint"]),
            "--vocab", str(pipeline["vocab"]),
            "--tokenizer", str(pipeline["tokenizer"]),
            "--post-json", str(post),
        ])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        error = json.loads(captured.err.splitlines()[-1])["error"]
        assert error["type"] == "ArtifactError"
        assert "'titel'" in error["message"] and str(post) in error["message"]

    @pytest.mark.parametrize(
        "text", [[], ["--title", " \n", "--code", ""]], ids=["no_text", "blank_text"]
    )
    def test_predict_rejects_an_empty_post(self, pipeline, text, capsys):
        code = main([
            "predict", "--quiet",
            "--checkpoint", str(pipeline["checkpoint"]),
            "--vocab", str(pipeline["vocab"]),
            "--tokenizer", str(pipeline["tokenizer"]),
            *text,
        ])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        error = json.loads(captured.err.splitlines()[-1])["error"]
        assert error["type"] == "ArtifactError"
        assert "no text" in error["message"]

    def test_compare_rejects_non_finite_value(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        a.write_text("instance,f1@5\n" + "".join(f"{i},{v}\n" for i, v in enumerate([0.1, 0.5, "nan", 0.3, 0.7, 0.2, 0.8])))
        b.write_text("instance,f1@5\n" + "".join(f"{i},{v}\n" for i, v in enumerate([0.2, 0.1, 0.4, 0.6, 0.5, 0.9, 0.3])))
        assert main(["compare", "--quiet", "--a", str(a), "--b", str(b)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err.splitlines()[-1])["error"]["type"] == "StatsError"

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"theta": 1, "bogus": 3}))
        code = main([
            "build-vocab", "--quiet", "--config", str(config),
            "--corpus", str(FIXTURES / "posts_golden.jsonl"),
            "--out-dir", str(tmp_path / "out"),
        ])
        assert code == 2
        assert "bogus" in self._stderr_error(capsys)["message"]

    def test_compare_missing_column(self, tmp_path, capsys):
        csv_path = tmp_path / "metrics.csv"
        csv_path.write_text("instance,p@1\n0,1.0\n")
        assert main(["compare", "--quiet", "--a", str(csv_path), "--b", str(csv_path)]) == 2
        assert "f1@5" in self._stderr_error(capsys)["message"]


class TestConfigPrecedence:
    def test_flag_beats_config_beats_default(self, tmp_path):
        ingest = tmp_path / "ingest"
        main(["ingest", "--quiet", "--dump", DUMP, "--out-dir", str(ingest)])
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"theta": 3}))

        out_a = tmp_path / "config_only"
        main([
            "build-vocab", "--quiet", "--config", str(config),
            "--corpus", str(ingest / "corpus.jsonl"), "--out-dir", str(out_a),
        ])
        assert json.loads((out_a / "run_config.json").read_text())["options"]["theta"] == 3

        out_b = tmp_path / "flag_wins"
        main([
            "build-vocab", "--quiet", "--config", str(config), "--theta", "1",
            "--corpus", str(ingest / "corpus.jsonl"), "--out-dir", str(out_b),
        ])
        assert json.loads((out_b / "run_config.json").read_text())["options"]["theta"] == 1


def _tiny_flags_without(name: str) -> list[str]:
    i = TINY_TRAIN_FLAGS.index("--" + name.replace("_", "-"))
    return TINY_TRAIN_FLAGS[:i] + TINY_TRAIN_FLAGS[i + 2 :]


def _train_with_config(pipeline, out: Path, settings: dict, flags: list[str]) -> int:
    config = out.parent / f"{out.name}.json"
    config.write_text(json.dumps(settings))
    return main([
        "train", "--quiet", "--config", str(config),
        "--corpus", str(pipeline["filtered"]),
        "--vocab", str(pipeline["vocab"]),
        "--tokenizer", str(pipeline["tokenizer"]),
        "--out-dir", str(out),
        *flags,
    ])


class TestConfigValueTypes:
    def _error(self, capsys) -> dict:
        return json.loads(capsys.readouterr().err.splitlines()[-1])["error"]

    def test_string_for_integer_setting_rejected(self, pipeline, tmp_path, capsys):
        code = _train_with_config(pipeline, tmp_path / "m", {"layers": "1"}, _tiny_flags_without("layers"))
        assert code == 2
        error = self._error(capsys)
        assert error["type"] == "ArtifactError" and "layers" in error["message"]

    def test_string_for_boolean_setting_rejected(self, pipeline, tmp_path, capsys):
        # Equal lengths, so a shared-weight model would be valid and train.
        flags = [*_tiny_flags_without("title_len"), "--title-len", "24"]
        code = _train_with_config(pipeline, tmp_path / "m", {"share_weights": "no"}, flags)
        assert code == 2
        assert "share_weights" in self._error(capsys)["message"]
        assert not (tmp_path / "m" / "model.ckpt").exists()

    def test_integer_for_float_setting_recorded_as_float(self, pipeline, tmp_path):
        flags = _tiny_flags_without("lr")
        assert _train_with_config(pipeline, tmp_path / "config", {"lr": 1}, flags) == 0
        assert _train_with_config(pipeline, tmp_path / "flag", {}, [*flags, "--lr", "1"]) == 0
        from_config, from_flag = (
            json.loads((tmp_path / run / "run_config.json").read_text())["options"] for run in ("config", "flag")
        )
        assert type(from_config["lr"]) is float
        assert from_config | {"out_dir": None} == from_flag | {"out_dir": None}
        assert (tmp_path / "config" / "model.ckpt").read_bytes() == (tmp_path / "flag" / "model.ckpt").read_bytes()

    @pytest.mark.parametrize(
        "command, key, value",
        [
            ("build-vocab", "theta", "1"),
            ("build-vocab", "theta", True),
            ("build-vocab", "theta", 1.5),
            ("build-vocab", "corpus", None),
            ("train", "lr", "1e-3"),
            ("train", "max_grad_norm", None),
            ("train", "share_weights", 0),
            ("train", "pooling", "sum"),
            ("train", "components", ["title"]),
            ("predict", "k", 2.0),
        ],
    )
    def test_wrong_json_type_rejected_before_any_work(self, command, key, value, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({key: value}))
        assert main([command, "--quiet", "--config", str(config)]) == 2
        error = self._error(capsys)
        assert error["type"] == "ArtifactError" and repr(key) in error["message"]

    def test_null_accepted_where_the_default_is_null(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"post_json": None}))
        assert main(["predict", "--quiet", "--config", str(config)]) == 2
        assert self._error(capsys)["message"].startswith("missing required settings")


class TestLogging:
    def test_info_logs_are_json_lines(self, tmp_path, capsys):
        main(["ingest", "--dump", DUMP, "--out-dir", str(tmp_path / "out")])
        lines = [l for l in capsys.readouterr().err.splitlines() if l.strip()]
        assert lines
        for line in lines:
            payload = json.loads(line)
            assert payload["level"] in {"info", "warning"}

    def test_quiet_suppresses_info(self, tmp_path, capsys):
        main(["ingest", "--quiet", "--dump", DUMP, "--out-dir", str(tmp_path / "out")])
        levels = {json.loads(l)["level"] for l in capsys.readouterr().err.splitlines() if l.strip()}
        assert "info" not in levels


SUBCOMMANDS = [
    "ingest", "build-vocab", "tokenizer-train", "train", "evaluate",
    "predict", "ablate", "bench", "compare",
]


def _listed_settings(command: str, capsys) -> set[str]:
    with pytest.raises(SystemExit) as exit_info:
        main([command, "--help"])
    assert exit_info.value.code == 0
    flags = set(re.findall(r"(?<![\w-])--([a-z][a-z0-9-]*)", capsys.readouterr().out))
    flags -= {"help", "config", "quiet"}
    flags -= {f for f in flags if f.startswith("no-") and f[3:] in flags}
    return {f.replace("-", "_") for f in flags}


@pytest.mark.parametrize("command", SUBCOMMANDS)
def test_help_lists_exactly_the_config_keys(command, tmp_path, capsys):
    listed = _listed_settings(command, capsys)
    # Offer every key any command knows, plus the removed "workers"; the
    # command names the ones it rejects, so the rest are the ones it accepts.
    candidates = set().union(*(_listed_settings(c, capsys) for c in SUBCOMMANDS), SETTINGS, {"workers"})
    config = tmp_path / "config.json"
    config.write_text(json.dumps(dict.fromkeys(candidates)))
    assert main([command, "--quiet", "--config", str(config)]) == 2
    message = json.loads(capsys.readouterr().err.splitlines()[-1])["error"]["message"]
    assert message.startswith("config file has unknown settings")
    unknown = set(ast.literal_eval(message.split(": ", 1)[1]))
    assert candidates - unknown == listed


def test_ingest_workers_flag_is_gone():
    with pytest.raises(SystemExit) as exit_info:
        main(["ingest", "--quiet", "--dump", DUMP, "--out-dir", "unused", "--workers", "2"])
    assert exit_info.value.code == 2


def test_module_entry_point_reports_version():
    proc = subprocess.run(
        [sys.executable, "-m", "tagrec.cli", "--version"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "tagrec 0.1.0"
