"""Output checks, computed apart from the program.

Each check compares a pipeline artifact with what the benchmark derives on
its own from the generator's truth, or tests a property the method must
have. None of them compares against a stored copy of earlier output. A
failed check raises ``CheckError`` naming the artifact and the first
difference.
"""

from __future__ import annotations

import csv
import json
import math
from collections import Counter
from pathlib import Path

KS = (1, 2, 3, 4, 5)
BASE_VOCAB = 260  # 256 byte tokens plus four specials
# The initial classifier (std 0.02) gives each tag a logit spread of about
# 0.02 * |pooled vector|, which moves the first loss by up to ~7% from
# num_tags * ln 2 on full-length default-shape posts.
LOSS_INIT_TOLERANCE = 0.10
PADDING_TOLERANCE = 1e-5
METRIC_TOLERANCE = 1e-12


class CheckError(Exception):
    """An artifact differs from what the benchmark expects."""


def _read_jsonl(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def check_records(path: Path, expected: list[dict]) -> None:
    """A JSONL corpus equals the expected records, record for record."""
    got = _read_jsonl(path)
    for i, (have, want) in enumerate(zip(got, expected)):
        if have != want:
            fields = sorted(k for k in set(have) | set(want) if have.get(k) != want.get(k))
            raise CheckError(f"{path.name}: record {i} (id {want['id']}) differs in {fields}")
    if len(got) != len(expected):
        raise CheckError(f"{path.name}: {len(got)} records, expected {len(expected)}")


def check_json(path: Path, expected: dict) -> None:
    got = json.loads(path.read_text(encoding="utf-8"))
    if got != expected:
        raise CheckError(f"{path.name}: {got} != expected {expected}")


def tag_counts(records: list[dict], theta: int) -> list[tuple[str, int]]:
    """Tags with count >= theta, ordered by (-count, tag)."""
    counts = Counter(tag for record in records for tag in record["tags"])
    return sorted(((t, c) for t, c in counts.items() if c >= theta), key=lambda tc: (-tc[1], tc[0]))


def check_vocab(path: Path, records: list[dict], theta: int) -> list[str]:
    """tag_vocab.json equals the benchmark's own count; returns the kept tags."""
    payload = json.loads(path.read_text(encoding="utf-8"))
    got = [(entry["tag"], entry["count"]) for entry in payload["tags"]]
    want = tag_counts(records, theta)
    if payload["theta"] != theta or got != want:
        raise CheckError(f"{path.name}: tags {got[:5]}... (theta {payload['theta']}) != expected {want[:5]}... (theta {theta})")
    return [tag for tag, _ in want]


def filter_records(records: list[dict], kept: list[str]) -> list[dict]:
    """Records with out-of-vocabulary tags removed; records left tagless dropped."""
    kept_set = set(kept)
    out = []
    for record in records:
        tags = [t for t in record["tags"] if t in kept_set]
        if tags:
            out.append({**record, "tags": tags})
    return out


def check_tokenizer(path: Path, vocab_size: int) -> int:
    """The tokenizer reached its target size; returns the merge count."""
    payload = json.loads(path.read_text(encoding="utf-8"))
    merges = len(payload["merges"])
    if merges != vocab_size - BASE_VOCAB or payload["vocab_size"] != vocab_size:
        raise CheckError(f"{path.name}: {merges} merges (vocab {payload['vocab_size']}), expected {vocab_size - BASE_VOCAB}")
    return merges


def check_roundtrip(failures: list) -> None:
    if failures:
        raise CheckError(f"decode(tokenize(text)) != text for (post id, field) {failures}")


def check_loss_trace(path: Path, num_tags: int) -> list[float]:
    """Finite losses, a first loss near num_tags * ln 2, and a falling trend."""
    with open(path, encoding="utf-8", newline="") as fh:
        losses = [float(row["loss"]) for row in csv.DictReader(fh)]
    if not losses:
        raise CheckError(f"{path.name}: no training steps")
    bad = [i for i, loss in enumerate(losses) if not math.isfinite(loss)]
    if bad:
        raise CheckError(f"{path.name}: non-finite loss at steps {bad}")
    # At near-zero init every sigmoid is near 1/2, so each tag costs ln 2.
    start = num_tags * math.log(2.0)
    if abs(losses[0] - start) > LOSS_INIT_TOLERANCE * start:
        raise CheckError(f"{path.name}: first loss {losses[0]:.4f} is not within 10% of num_tags*ln2 = {start:.4f}")
    quarter = max(1, len(losses) // 4)
    first, last = losses[:quarter], losses[-quarter:]
    if sum(last) / len(last) >= sum(first) / len(first):
        raise CheckError(f"{path.name}: last-quarter mean loss {sum(last) / len(last):.4f} is not below the first {sum(first) / len(first):.4f}")
    return losses


def check_rankings(rankings: list[dict], expected_ids: list[int]) -> None:
    """Probabilities in (0, 1), non-increasing down each ranking."""
    ids = [r["id"] for r in rankings]
    if ids != expected_ids:
        raise CheckError(f"predict stage ranked posts {ids[:5]}..., expected {expected_ids[:5]}...")
    for r in rankings:
        probs = r["probs"]
        if not all(0.0 < p < 1.0 for p in probs):
            raise CheckError(f"post {r['id']}: probability outside (0, 1)")
        if any(a < b for a, b in zip(probs, probs[1:])):
            raise CheckError(f"post {r['id']}: ranking is not non-increasing in probability")


def ranking_scores(truth: set[str], ranked: list[str]) -> dict[str, float]:
    """P/R/F1 at each k by set arithmetic; recall divides by min(k, |truth|)."""
    row = {}
    for k in KS:
        hits = len(truth & set(ranked[:k]))
        p = hits / k
        r = hits / min(k, len(truth))
        row[f"p@{k}"] = p
        row[f"r@{k}"] = r
        row[f"f1@{k}"] = 0.0 if p + r == 0 else 2 * p * r / (p + r)
    return row


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=METRIC_TOLERANCE, abs_tol=METRIC_TOLERANCE)


def check_metrics(per_instance_csv: Path, metrics_json: Path, truths: list[set[str]], rankings: list[dict]) -> None:
    """per_instance.csv and metrics.json equal P/R/F1 recomputed from the rankings."""
    rows = [ranking_scores(truth, r["top"]) for truth, r in zip(truths, rankings)]
    with open(per_instance_csv, encoding="utf-8", newline="") as fh:
        got = list(csv.DictReader(fh))
    if len(got) != len(rows):
        raise CheckError(f"{per_instance_csv.name}: {len(got)} rows, expected {len(rows)}")
    for i, (have, want) in enumerate(zip(got, rows)):
        for key, value in want.items():
            if not _close(float(have[key]), value):
                raise CheckError(f"{per_instance_csv.name}: row {i} {key} = {have[key]}, recomputed {value!r}")
    report = json.loads(metrics_json.read_text(encoding="utf-8"))
    if report["count"] != len(rows):
        raise CheckError(f"{metrics_json.name}: count {report['count']}, expected {len(rows)}")
    for name, prefix in (("precision", "p"), ("recall", "r"), ("f1", "f1")):
        for k in KS:
            mean = sum(row[f"{prefix}@{k}"] for row in rows) / len(rows)
            if not _close(report[name][str(k)], mean):
                raise CheckError(f"{metrics_json.name}: {name}@{k} = {report[name][str(k)]}, recomputed {mean!r}")


def check_padding(max_diff: float) -> None:
    """Criterion 07: cutting sequences to real length leaves probabilities unchanged."""
    if not max_diff <= PADDING_TOLERANCE:
        raise CheckError(f"cut-to-length probabilities differ from padded ones by {max_diff:.3g}")


def check_identical(a: Path, b: Path) -> None:
    if a.read_bytes() != b.read_bytes():
        raise CheckError(f"{a} and {b} differ")
