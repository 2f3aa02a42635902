"""Each output check accepts the program's output and rejects a corrupted copy."""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import checks  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from tagrec import cli  # noqa: E402
from tagrec.eval import EvalInstance, evaluate_corpus, write_json  # noqa: E402
from tagrec.train import write_loss_trace  # noqa: E402


@pytest.fixture
def ingested(tmp_path):
    """A small generated dump run through ``tagrec ingest``, and its truth."""
    posts = gen.sample_posts(gen.DumpSpec(questions=30, answers=5), seed=3)
    dump = tmp_path / "Posts.xml"
    dump.write_text(gen.render_dump(posts), encoding="utf-8")
    assert cli.main(["ingest", "--dump", str(dump), "--out-dir", str(tmp_path / "ingest"), "--quiet"]) == 0
    truth = [p.corpus_record() for p in posts if p.kind == gen.QUESTION]
    return tmp_path / "ingest" / "corpus.jsonl", truth


def test_corpus_check_accepts_ingest_output(ingested):
    corpus, truth = ingested
    checks.check_records(corpus, truth)


def test_corpus_check_rejects_dropped_post(ingested):
    corpus, truth = ingested
    lines = corpus.read_text(encoding="utf-8").splitlines(keepends=True)
    corpus.write_text("".join(lines[:7] + lines[8:]), encoding="utf-8")
    with pytest.raises(checks.CheckError):
        checks.check_records(corpus, truth)


def test_corpus_check_rejects_one_byte_change_in_code(ingested):
    corpus, truth = ingested
    records = [json.loads(line) for line in corpus.read_text(encoding="utf-8").splitlines()]
    i = next(n for n, r in enumerate(records) if r["code"])
    code = records[i]["code"]
    j = code.index("=") if "=" in code else 0
    records[i]["code"] = code[:j] + chr(ord(code[j]) ^ 1) + code[j + 1 :]
    corpus.write_text("".join(json.dumps(r, ensure_ascii=False) + "\n" for r in records), encoding="utf-8")
    with pytest.raises(checks.CheckError, match="code"):
        checks.check_records(corpus, truth)


def test_vocab_check_orders_by_count_then_tag(tmp_path):
    records = [{"tags": ["b", "a"]}, {"tags": ["a", "c"]}, {"tags": ["c", "b"]}, {"tags": ["d"]}]
    assert checks.tag_counts(records, theta=2) == [("a", 2), ("b", 2), ("c", 2)]
    path = tmp_path / "tag_vocab.json"
    entries = [{"tag": t, "count": 2} for t in ("a", "b", "c")]
    path.write_text(json.dumps({"format_version": 1, "theta": 2, "tags": entries}), encoding="utf-8")
    assert checks.check_vocab(path, records, theta=2) == ["a", "b", "c"]
    path.write_text(json.dumps({"format_version": 1, "theta": 2, "tags": entries[::-1]}), encoding="utf-8")
    with pytest.raises(checks.CheckError):
        checks.check_vocab(path, records, theta=2)


def test_tokenizer_check_counts_merges(tmp_path):
    path = tmp_path / "tokenizer.json"
    path.write_text(json.dumps({"vocab_size": 262, "merges": [[97, 98], [260, 99]]}), encoding="utf-8")
    assert checks.check_tokenizer(path, 262) == 2
    with pytest.raises(checks.CheckError):
        checks.check_tokenizer(path, 263)


def _trace(tmp_path, losses):
    path = tmp_path / "loss_trace.csv"
    write_loss_trace([(i, 1e-4, loss) for i, loss in enumerate(losses)], path)
    return path


def test_loss_check_accepts_falling_trace_from_ln2(tmp_path):
    start = 10 * math.log(2.0)
    checks.check_loss_trace(_trace(tmp_path, [start * 1.03, start, start * 0.9, start * 0.8]), num_tags=10)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_loss_check_rejects_non_finite_loss(tmp_path, bad):
    start = 10 * math.log(2.0)
    with pytest.raises(checks.CheckError, match="non-finite"):
        checks.check_loss_trace(_trace(tmp_path, [start, bad, start * 0.9, start * 0.8]), num_tags=10)


def test_loss_check_rejects_wrong_start_and_flat_trend(tmp_path):
    start = 10 * math.log(2.0)
    with pytest.raises(checks.CheckError, match="first loss"):
        checks.check_loss_trace(_trace(tmp_path, [2 * start, start]), num_tags=10)
    with pytest.raises(checks.CheckError, match="last-quarter"):
        checks.check_loss_trace(_trace(tmp_path, [start, start * 0.9, start * 1.1, start]), num_tags=10)


TRUTHS = [{"python", "pandas"}, {"java"}, {"c", "c++", "linux"}]
TOPS = [
    ["python", "java", "r", "pandas", "c"],
    ["c", "java", "python", "r", "ruby"],
    ["linux", "c", "go", "rust", "c++"],
]


def _eval_artifacts(tmp_path):
    """metrics.json and per_instance.csv as ``tagrec evaluate`` writes them."""
    instances = [EvalInstance(ground_truth=frozenset(t), ranked_prediction=tuple(r)) for t, r in zip(TRUTHS, TOPS)]
    report = evaluate_corpus(instances)
    write_json(report.to_json_dict(), tmp_path / "metrics.json")
    report.write_per_instance_csv(tmp_path / "per_instance.csv")
    return tmp_path / "per_instance.csv", tmp_path / "metrics.json"


def test_metric_check_accepts_evaluate_output(tmp_path):
    per_instance, metrics = _eval_artifacts(tmp_path)
    checks.check_metrics(per_instance, metrics, TRUTHS, [{"top": top} for top in TOPS])


def test_metric_check_rejects_swapped_ranking(tmp_path):
    per_instance, metrics = _eval_artifacts(tmp_path)
    swapped = [list(top) for top in TOPS]
    swapped[1][0], swapped[1][1] = swapped[1][1], swapped[1][0]
    with pytest.raises(checks.CheckError, match="per_instance"):
        checks.check_metrics(per_instance, metrics, TRUTHS, [{"top": top} for top in swapped])


def test_ranking_check_needs_open_interval_and_order():
    good = [{"id": 1, "top": [], "probs": [0.9, 0.5, 0.5, 0.1]}]
    checks.check_rankings(good, [1])
    with pytest.raises(checks.CheckError, match="non-increasing"):
        checks.check_rankings([{"id": 1, "top": [], "probs": [0.5, 0.9, 0.1]}], [1])
    with pytest.raises(checks.CheckError, match=r"\(0, 1\)"):
        checks.check_rankings([{"id": 1, "top": [], "probs": [1.0, 0.5]}], [1])
    with pytest.raises(checks.CheckError, match="ranked posts"):
        checks.check_rankings(good, [2])


def test_padding_check_tolerance():
    checks.check_padding(3e-7)
    with pytest.raises(checks.CheckError):
        checks.check_padding(2e-5)
    with pytest.raises(checks.CheckError):
        checks.check_padding(float("nan"))


def test_benchmark_json_names_the_reported_metrics():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == tracing.METRICS
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(run.WORKLOADS)
