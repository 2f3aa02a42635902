"""Evaluation: top-k ranking metrics, significance tests, latency protocol.

Precision@k divides hits by k. Recall@k divides by k when the post carries
more than k true tags and by the true-tag count otherwise, so a perfect
ranking always scores 1.0. F1@k is their harmonic mean, defined as 0 when
both are 0. Corpus numbers are unweighted means over posts.
"""

from __future__ import annotations

import csv
import json
import math
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .ingest import DecomposedPost
from .model import TripletModel, encode_post, predict_top_k
from .tokenizer import Tokenizer

DEFAULT_KS = (1, 2, 3, 4, 5)

MAGNITUDE_NEGLIGIBLE = 0.147
MAGNITUDE_SMALL = 0.33
MAGNITUDE_MEDIUM = 0.474

EXACT_ENUMERATION_LIMIT = 25
MIN_NONZERO_DIFFERENCES = 6


class EvalError(ValueError):
    """Invalid evaluation input."""


class StatsError(ValueError):
    """Statistical test preconditions not met."""


@dataclass(frozen=True)
class EvalInstance:
    """One test post: its true tags and the model's ranked tag names."""

    ground_truth: frozenset[str]
    ranked_prediction: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.ground_truth:
            raise EvalError("ground truth must be non-empty")
        if len(set(self.ranked_prediction)) != len(self.ranked_prediction):
            raise EvalError("ranked prediction contains duplicates")


def precision_at_k(instance: EvalInstance, k: int) -> float:
    """Fraction of the top k predictions that are true tags."""
    if k < 1:
        raise EvalError(f"k must be >= 1, got {k}")
    if len(instance.ranked_prediction) < k:
        raise EvalError(f"ranking has only {len(instance.ranked_prediction)} entries, need {k}")
    hits = sum(1 for t in instance.ranked_prediction[:k] if t in instance.ground_truth)
    return hits / k


def recall_at_k(instance: EvalInstance, k: int) -> float:
    """Hits over min(k, |true tags|): capped so a perfect top-k scores 1.0."""
    if k < 1:
        raise EvalError(f"k must be >= 1, got {k}")
    if len(instance.ranked_prediction) < k:
        raise EvalError(f"ranking has only {len(instance.ranked_prediction)} entries, need {k}")
    hits = sum(1 for t in instance.ranked_prediction[:k] if t in instance.ground_truth)
    truth = len(instance.ground_truth)
    denom = k if truth > k else truth
    return hits / denom


def f1_at_k(instance: EvalInstance, k: int) -> float:
    """Harmonic mean of precision@k and recall@k; 0 when both are 0."""
    p = precision_at_k(instance, k)
    r = recall_at_k(instance, k)
    if p + r == 0.0:
        return 0.0
    return 2.0 * p * r / (p + r)


@dataclass(frozen=True)
class MetricsReport:
    """Corpus means plus the per-post score table they were averaged from."""

    count: int
    ks: tuple[int, ...]
    precision: dict[int, float]
    recall: dict[int, float]
    f1: dict[int, float]
    per_instance: tuple[dict[str, float], ...]

    def to_json_dict(self) -> dict:
        return {
            "count": self.count,
            "ks": list(self.ks),
            "precision": {str(k): self.precision[k] for k in self.ks},
            "recall": {str(k): self.recall[k] for k in self.ks},
            "f1": {str(k): self.f1[k] for k in self.ks},
        }

    def format_table(self) -> str:
        header = "   " + "".join(f"{'@' + str(k):>10}" for k in self.ks)
        p_row = "P  " + "".join(f"{self.precision[k]:>10.4f}" for k in self.ks)
        r_row = "R  " + "".join(f"{self.recall[k]:>10.4f}" for k in self.ks)
        f_row = "F1 " + "".join(f"{self.f1[k]:>10.4f}" for k in self.ks)
        return "\n".join([header, p_row, r_row, f_row])

    def write_per_instance_csv(self, path: str | Path) -> None:
        columns = ["instance"]
        for prefix in ("p", "r", "f1"):
            columns += [f"{prefix}@{k}" for k in self.ks]
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(columns)
            for i, row in enumerate(self.per_instance):
                writer.writerow([i] + [repr(row[c]) for c in columns[1:]])


def evaluate_corpus(instances: Sequence[EvalInstance], ks: Sequence[int] = DEFAULT_KS) -> MetricsReport:
    """Score every instance at every k and average."""
    if not instances:
        raise EvalError("no instances to evaluate")
    ks = tuple(ks)
    if not ks or any(k < 1 for k in ks) or len(set(ks)) != len(ks):
        raise EvalError(f"ks must be distinct and >= 1, got {ks}")
    rows = []
    for inst in instances:
        row: dict[str, float] = {}
        for k in ks:
            row[f"p@{k}"] = precision_at_k(inst, k)
            row[f"r@{k}"] = recall_at_k(inst, k)
            row[f"f1@{k}"] = f1_at_k(inst, k)
        rows.append(row)
    n = len(rows)
    return MetricsReport(
        count=n,
        ks=ks,
        precision={k: sum(r[f"p@{k}"] for r in rows) / n for k in ks},
        recall={k: sum(r[f"r@{k}"] for r in rows) / n for k in ks},
        f1={k: sum(r[f"f1@{k}"] for r in rows) / n for k in ks},
        per_instance=tuple(rows),
    )


def build_eval_instances(
    model: TripletModel,
    tok: Tokenizer,
    posts: Sequence[DecomposedPost],
    top_n: int = 5,
) -> list[EvalInstance]:
    """Run the model over test posts and keep the top_n ranked names."""
    instances = []
    for post in posts:
        pred = model.predict(encode_post(post, tok, model.config))
        names = predict_top_k(pred, min(top_n, len(pred.tags)))
        instances.append(EvalInstance(ground_truth=frozenset(post.tags), ranked_prediction=tuple(names)))
    return instances


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """Ranks 1..n with tied values sharing their average rank."""
    _, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
    first = np.cumsum(counts) - counts  # 0-based sorted position of each value's first copy
    return ((2 * first + counts + 1) / 2.0)[inverse]


def _exact_two_sided_p(ranks: np.ndarray, w_plus: float) -> float:
    """Distribution of W+ over all 2^n sign assignments, via subset-sum counts.

    Ranks are doubled so ties' half-integer averages become integers; the
    two-sided p sums the probability of outcomes at least as far from the
    mean as observed.
    """
    doubled = np.rint(2.0 * ranks).astype(np.int64)
    total = int(doubled.sum())
    counts = np.zeros(total + 1, dtype=np.float64)
    counts[0] = 1.0
    for r in doubled:
        shifted = np.zeros_like(counts)
        shifted[r:] = counts[: counts.size - r]
        counts = counts + shifted
    observed_dev = abs(int(np.rint(4.0 * w_plus)) - total)  # |2*w2_obs - total|
    sums = np.arange(total + 1)
    extreme = np.abs(2 * sums - total) >= observed_dev
    return float(counts[extreme].sum() / counts.sum())


def _normal_two_sided_p(nonzero: np.ndarray, ranks: np.ndarray, w_plus: float) -> float:
    """Large-sample normal approximation with the tie variance correction."""
    n = nonzero.size
    mean = n * (n + 1) / 4.0
    _, tie_counts = np.unique(np.abs(nonzero), return_counts=True)
    tie_term = float((tie_counts.astype(np.float64) ** 3 - tie_counts).sum()) / 48.0
    var = n * (n + 1) * (2 * n + 1) / 24.0 - tie_term
    if var <= 0:
        raise StatsError("degenerate variance in normal approximation")
    z = (w_plus - mean) / math.sqrt(var)
    return math.erfc(abs(z) / math.sqrt(2.0))


def wilcoxon_signed_rank(a: Sequence[float], b: Sequence[float]) -> float:
    """Two-sided paired test on a - b. Zero differences are dropped first.

    All-zero differences return p = 1.0 (the samples are indistinguishable);
    otherwise at least six non-zero differences are required. Small samples
    use the exact sign-assignment distribution, larger ones the normal
    approximation with tie correction.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise StatsError(f"paired samples must be equal-length 1-D, got {a.shape} and {b.shape}")
    diff = a - b
    nonzero = diff[diff != 0.0]
    if nonzero.size == 0:
        return 1.0
    if nonzero.size < MIN_NONZERO_DIFFERENCES:
        raise StatsError(
            f"need at least {MIN_NONZERO_DIFFERENCES} non-zero differences, got {nonzero.size}"
        )
    ranks = _average_ranks(np.abs(nonzero))
    w_plus = float(ranks[nonzero > 0].sum())
    if nonzero.size <= EXACT_ENUMERATION_LIMIT:
        return _exact_two_sided_p(ranks, w_plus)
    return _normal_two_sided_p(nonzero, ranks, w_plus)


@dataclass(frozen=True)
class EffectSize:
    """Cliff's delta with its conventional magnitude label."""

    delta: float
    magnitude: str


def classify_magnitude(delta: float) -> str:
    ad = abs(delta)
    if ad < MAGNITUDE_NEGLIGIBLE:
        return "negligible"
    if ad < MAGNITUDE_SMALL:
        return "small"
    if ad < MAGNITUDE_MEDIUM:
        return "medium"
    return "large"


def cliffs_delta(a: Sequence[float], b: Sequence[float]) -> EffectSize:
    """Dominance statistic: P(a > b) - P(a < b) over all cross pairs."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 1 or b.ndim != 1 or a.size == 0 or b.size == 0:
        raise StatsError("both samples must be non-empty 1-D sequences")
    delta = float(np.sign(a[:, None] - b[None, :]).mean())
    return EffectSize(delta=delta, magnitude=classify_magnitude(delta))


def missed_tag_analysis(
    instances: Sequence[EvalInstance], f1_scores: Sequence[float]
) -> list[tuple[str, int]]:
    """Tags of completely missed posts (F1@5 = 0), most frequent first."""
    if len(instances) != len(f1_scores):
        raise EvalError(f"{len(instances)} instances but {len(f1_scores)} scores")
    counts: dict[str, int] = {}
    for inst, score in zip(instances, f1_scores):
        if score == 0.0:
            for tag in inst.ground_truth:
                counts[tag] = counts.get(tag, 0) + 1
    return sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))


@dataclass(frozen=True)
class LatencyStats:
    """Pooled single-post inference timings, milliseconds."""

    count: int
    mean: float
    std: float
    min: float
    p25: float
    p50: float
    p75: float
    max: float

    def to_json_dict(self) -> dict:
        return {
            "count": self.count,
            "unit": "ms",
            "std": self.std,
            "min": self.min,
            "25%": self.p25,
            "50%": self.p50,
            "75%": self.p75,
            "max": self.max,
            "mean": self.mean,
        }


def compute_latency_stats(samples_ms: Sequence[float]) -> LatencyStats:
    """Summary statistics with linear-interpolation percentiles."""
    samples = np.asarray(samples_ms, dtype=np.float64)
    if samples.size == 0:
        raise EvalError("no latency samples")
    q25, q50, q75 = np.percentile(samples, [25, 50, 75])
    return LatencyStats(
        count=int(samples.size),
        mean=float(samples.mean()),
        std=float(samples.std(ddof=1)) if samples.size > 1 else 0.0,
        min=float(samples.min()),
        p25=float(q25),
        p50=float(q50),
        p75=float(q75),
        max=float(samples.max()),
    )


def latency_bench(
    model: TripletModel,
    tok: Tokenizer,
    posts: Sequence[DecomposedPost],
    sample_n: int = 2000,
    repeats: int = 5,
    seed: int = 0,
    timer: Callable[[], float] = time.perf_counter,
) -> LatencyStats:
    """Time single-post prediction end to end and pool across repeats.

    sample_n posts are drawn with replacement using the seed; each is packed
    to the model's configured lengths once, then every repeat times
    model.predict on every sampled post.
    """
    if not posts:
        raise EvalError("no posts to sample")
    if sample_n < 1 or repeats < 1:
        raise EvalError(f"sample_n and repeats must be >= 1, got {sample_n}, {repeats}")
    rng = np.random.default_rng(seed)
    chosen = rng.integers(0, len(posts), size=sample_n)
    encoded = [encode_post(posts[i], tok, model.config) for i in chosen]
    samples = np.empty(repeats * sample_n, dtype=np.float64)
    pos = 0
    for _ in range(repeats):
        for seqs in encoded:
            t0 = timer()
            model.predict(seqs)
            t1 = timer()
            samples[pos] = (t1 - t0) * 1000.0
            pos += 1
    return compute_latency_stats(samples)


def write_json(payload: dict, path: str | Path) -> None:
    """Stable two-space-indented JSON artifact."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=False)
        fh.write("\n")
