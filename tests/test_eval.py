"""Ranking metrics, significance tests, effect size, and latency statistics."""

from __future__ import annotations

import csv
import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import rankdata
from scipy.stats import wilcoxon as scipy_wilcoxon

from conftest import make_post, make_sequence, tiny_model_config
from tagrec.eval import (
    EvalError,
    EvalInstance,
    StatsError,
    build_eval_instances,
    cliffs_delta,
    classify_magnitude,
    compute_latency_stats,
    evaluate_corpus,
    f1_at_k,
    latency_bench,
    missed_tag_analysis,
    precision_at_k,
    recall_at_k,
    wilcoxon_signed_rank,
    write_json,
)
from tagrec.model import TripletModel
from tagrec.tokenizer import train_tokenizer
from tagrec.vocab import TagVocabulary

POOL = [f"tag{i:02d}" for i in range(12)]


def inst(gt: set[str], ranked: tuple[str, ...]) -> EvalInstance:
    return EvalInstance(ground_truth=frozenset(gt), ranked_prediction=ranked)


class TestMetricHandExamples:
    def test_four_of_five_worked_example(self):
        x = inst(
            {"python", "machine-learning", "neural-network", "tensorflow", "keras"},
            ("python", "pytorch", "neural-network", "tensorflow", "keras"),
        )
        assert precision_at_k(x, 5) == pytest.approx(0.8)
        assert recall_at_k(x, 5) == pytest.approx(0.8)
        assert f1_at_k(x, 5) == pytest.approx(0.8)
        assert precision_at_k(x, 1) == 1.0
        assert recall_at_k(x, 1) == 1.0
        assert precision_at_k(x, 2) == 0.5
        assert recall_at_k(x, 2) == 0.5

    def test_recall_denominator_capped_at_truth_size(self):
        x = inst({"a", "b"}, ("a", "b", "x", "y", "z"))
        assert recall_at_k(x, 5) == 1.0
        assert precision_at_k(x, 5) == pytest.approx(0.4)
        assert f1_at_k(x, 5) == pytest.approx(4.0 / 7.0)

    def test_more_truth_than_k_divides_by_k(self):
        x = inst({"a", "b", "c", "d"}, ("a", "x", "b"))
        assert recall_at_k(x, 2) == pytest.approx(0.5)
        assert recall_at_k(x, 3) == pytest.approx(2.0 / 3.0)

    def test_total_miss_scores_zero(self):
        x = inst({"a"}, ("x", "y", "z"))
        assert precision_at_k(x, 3) == 0.0
        assert recall_at_k(x, 3) == 0.0
        assert f1_at_k(x, 3) == 0.0

    def test_validation(self):
        x = inst({"a"}, ("a", "b"))
        with pytest.raises(EvalError, match="k must be"):
            precision_at_k(x, 0)
        with pytest.raises(EvalError, match="only 2"):
            recall_at_k(x, 3)
        with pytest.raises(EvalError, match="non-empty"):
            inst(set(), ("a",))
        with pytest.raises(EvalError, match="duplicates"):
            inst({"a"}, ("a", "a"))


class TestMetricsAgainstSetOracle:
    def test_random_instances_match_plain_set_arithmetic(self, rng):
        instances = []
        for _ in range(200):
            gt = set(rng.choice(POOL, size=rng.integers(1, 6), replace=False))
            ranked = tuple(rng.choice(POOL, size=5, replace=False))
            instances.append(inst(gt, ranked))
        report = evaluate_corpus(instances, ks=(1, 2, 3, 4, 5))
        for k in (1, 2, 3, 4, 5):
            precisions, recalls, f1s = [], [], []
            for x in instances:
                hits = len(set(x.ranked_prediction[:k]) & x.ground_truth)
                p = hits / k
                r = hits / min(k, len(x.ground_truth))
                precisions.append(p)
                recalls.append(r)
                f1s.append(0.0 if p + r == 0 else 2 * p * r / (p + r))
            assert report.precision[k] == pytest.approx(sum(precisions) / 200, rel=1e-12)
            assert report.recall[k] == pytest.approx(sum(recalls) / 200, rel=1e-12)
            assert report.f1[k] == pytest.approx(sum(f1s) / 200, rel=1e-12)

    @given(
        st.sets(st.sampled_from(POOL), min_size=1, max_size=6),
        st.permutations(POOL),
        st.integers(1, 5),
    )
    def test_f1_is_harmonic_mean(self, gt, ranked, k):
        x = inst(gt, tuple(ranked[:8]))
        p, r = precision_at_k(x, k), recall_at_k(x, k)
        want = 0.0 if p + r == 0 else 2 * p * r / (p + r)
        assert f1_at_k(x, k) == pytest.approx(want)


class TestReport:
    def _two_instances(self):
        return [
            inst({"a", "b"}, ("a", "x", "y", "z", "w")),
            inst({"a"}, ("a", "b", "c", "d", "e")),
        ]

    def test_means_and_counts(self):
        report = evaluate_corpus(self._two_instances(), ks=(1, 5))
        assert report.count == 2
        assert report.precision[1] == 1.0
        assert report.precision[5] == pytest.approx((0.2 + 0.2) / 2)
        assert report.recall[5] == pytest.approx((0.5 + 1.0) / 2)

    def test_json_dict_uses_string_keys(self):
        payload = evaluate_corpus(self._two_instances(), ks=(1, 5)).to_json_dict()
        assert set(payload["precision"]) == {"1", "5"}
        assert payload["count"] == 2
        json.dumps(payload)

    def test_table_contains_all_columns(self):
        table = evaluate_corpus(self._two_instances(), ks=(1, 3, 5)).format_table()
        lines = table.splitlines()
        assert len(lines) == 4
        assert "@1" in lines[0] and "@5" in lines[0]
        assert lines[1].startswith("P ") and lines[3].startswith("F1")

    def test_per_instance_csv_round_trips(self, tmp_path):
        report = evaluate_corpus(self._two_instances(), ks=(1, 5))
        path = tmp_path / "per_instance.csv"
        report.write_per_instance_csv(path)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        assert float(rows[0]["p@5"]) == report.per_instance[0]["p@5"]
        assert float(rows[1]["r@1"]) == report.per_instance[1]["r@1"]

    def test_invalid_inputs(self):
        with pytest.raises(EvalError, match="no instances"):
            evaluate_corpus([], ks=(1,))
        with pytest.raises(EvalError, match="distinct"):
            evaluate_corpus(self._two_instances(), ks=(1, 1))
        with pytest.raises(EvalError, match=">= 1"):
            evaluate_corpus(self._two_instances(), ks=(0,))


class TestBuildEvalInstances:
    def test_flat_head_model_yields_known_ranking(self):
        tags = ("alpha", "beta", "gamma", "delta", "epsilon")
        vocab = TagVocabulary(tags=tags, counts=(9, 8, 7, 6, 5), theta=1)
        config = tiny_model_config(300, 5, components=("title",))
        model = TripletModel(config, vocab, seed=0)
        model.classifier_weight.data[:] = 0.0
        model.classifier_bias.data[:] = np.array([0.1, 0.9, -0.3, 0.5, 0.2], dtype=np.float32)
        tok = train_tokenizer("post text", vocab_size=260)
        posts = [make_post(1, ("alpha", "beta")), make_post(2, ("gamma",))]
        instances = build_eval_instances(model, tok, posts, top_n=3)
        assert [x.ranked_prediction for x in instances] == [
            ("beta", "delta", "epsilon"),
            ("beta", "delta", "epsilon"),
        ]
        assert instances[0].ground_truth == frozenset({"alpha", "beta"})
        assert instances[1].ground_truth == frozenset({"gamma"})


class TestWilcoxon:
    def test_constant_shift_of_ten_pairs(self):
        base = np.arange(10, dtype=float) + 1.0
        assert wilcoxon_signed_rank(base + 1.0, base) == pytest.approx(2.0 / 1024.0, abs=0)

    def test_all_zero_differences_give_p_one(self):
        same = [0.4, 0.4, 0.7, 0.1, 0.9, 0.2]
        assert wilcoxon_signed_rank(same, same) == 1.0

    def test_fewer_than_six_nonzero_differences_rejected(self):
        a = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]
        b = [1.0, 2.0, 3.1, 4.1, 5.1, 6.1, 7.1]
        with pytest.raises(StatsError, match="at least 6"):
            wilcoxon_signed_rank(a, b)

    def test_symmetric_differences_give_p_one(self):
        a = np.array([1.0, -1.0, 2.0, -2.0, 3.0, -3.0])
        assert wilcoxon_signed_rank(a, np.zeros(6)) == 1.0

    def test_exact_mode_matches_brute_force_enumeration_with_ties(self):
        """Independent oracle: enumerate all 2^8 sign assignments directly."""
        diffs = np.array([0.5, -0.5, 1.2, 1.2, -2.0, 0.7, 3.1, -1.2])
        a = np.concatenate([diffs, [3.0]])
        b = np.concatenate([np.zeros(8), [3.0]])
        got = wilcoxon_signed_rank(a, b)

        ranks = rankdata(np.abs(diffs))
        total = ranks.sum()
        observed = ranks[diffs > 0].sum()
        hits = 0
        for signs in itertools.product((0, 1), repeat=8):
            w = sum(r for s, r in zip(signs, ranks) if s)
            if abs(2 * w - total) >= abs(2 * observed - total) - 1e-12:
                hits += 1
        assert got == pytest.approx(hits / 2.0**8, abs=0)

    def test_exact_mode_matches_scipy_on_untied_data(self, rng):
        a = rng.normal(size=12)
        b = rng.normal(size=12)
        want = scipy_wilcoxon(a, b, zero_method="wilcox", method="exact").pvalue
        assert wilcoxon_signed_rank(a, b) == pytest.approx(want, rel=1e-12)

    def test_normal_mode_matches_scipy_with_tie_correction(self, rng):
        a = np.round(rng.normal(size=40), 1)
        b = np.round(a + rng.normal(0.3, 0.6, size=40), 1)
        assert np.count_nonzero(a - b) > 25
        want = scipy_wilcoxon(a, b, zero_method="wilcox", correction=False, method="approx").pvalue
        assert wilcoxon_signed_rank(a, b) == pytest.approx(want, rel=1e-10)

    def test_shape_validation(self):
        with pytest.raises(StatsError, match="equal-length"):
            wilcoxon_signed_rank([1.0, 2.0], [1.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_values_rejected(self, bad):
        a = [0.1, 0.5, 0.9, 0.3, 0.7, 0.2, 0.8]
        b = [0.2, 0.1, 0.4, 0.6, 0.5, 0.9, 0.3]
        with pytest.raises(StatsError, match="finite"):
            wilcoxon_signed_rank(a[:2] + [bad] + a[3:], b)
        with pytest.raises(StatsError, match="finite"):
            wilcoxon_signed_rank(a, b[:2] + [bad] + b[3:])

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.integers(-5, 5), min_size=8, max_size=14))
    def test_p_values_lie_in_unit_interval_and_are_symmetric(self, deltas):
        a = np.arange(len(deltas), dtype=float)
        b = a + np.array(deltas, dtype=float)
        nonzero = np.count_nonzero(np.array(deltas))
        if nonzero == 0:
            assert wilcoxon_signed_rank(a, b) == 1.0
            return
        if nonzero < 6:
            return
        p_ab = wilcoxon_signed_rank(a, b)
        p_ba = wilcoxon_signed_rank(b, a)
        assert 0.0 < p_ab <= 1.0
        assert p_ab == pytest.approx(p_ba, abs=0)


class TestCliffsDelta:
    @pytest.mark.parametrize(
        "twos,magnitude",
        [(1, "negligible"), (2, "small"), (4, "medium"), (5, "large")],
    )
    def test_constructed_dominance_fractions(self, twos, magnitude):
        a = [2.0] * twos + [1.0] * (10 - twos)
        b = [1.0] * 10
        effect = cliffs_delta(a, b)
        assert effect.delta == pytest.approx(twos / 10.0)
        assert effect.magnitude == magnitude

    def test_identical_samples_have_zero_delta(self):
        effect = cliffs_delta([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert effect.delta == 0.0
        assert effect.magnitude == "negligible"

    def test_complete_dominance_is_plus_one(self):
        assert cliffs_delta([5.0, 6.0], [1.0, 2.0]).delta == 1.0
        assert cliffs_delta([1.0, 2.0], [5.0, 6.0]).delta == -1.0

    def test_matches_pair_counting_oracle(self, rng):
        a = rng.integers(0, 6, size=17).astype(float)
        b = rng.integers(0, 6, size=23).astype(float)
        greater = sum(1 for x in a for y in b if x > y)
        less = sum(1 for x in a for y in b if x < y)
        want = (greater - less) / (len(a) * len(b))
        assert cliffs_delta(a, b).delta == pytest.approx(want, rel=1e-12)

    def test_threshold_boundaries(self):
        assert classify_magnitude(0.1469) == "negligible"
        assert classify_magnitude(0.147) == "small"
        assert classify_magnitude(0.33) == "medium"
        assert classify_magnitude(0.474) == "large"
        assert classify_magnitude(-0.474) == "large"

    def test_empty_sample_rejected(self):
        with pytest.raises(StatsError, match="non-empty"):
            cliffs_delta([], [1.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_values_rejected(self, bad):
        with pytest.raises(StatsError, match="finite"):
            cliffs_delta([0.1, bad, 0.3], [0.2, 0.4])
        with pytest.raises(StatsError, match="finite"):
            cliffs_delta([0.1, 0.3], [0.2, bad, 0.4])

    def test_memory_does_not_grow_with_the_pair_count(self, rng):
        a = rng.integers(0, 6, size=3000).astype(float)
        b = rng.integers(0, 6, size=3000).astype(float)
        tracemalloc.start()
        try:
            cliffs_delta(a, b)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    @given(
        st.lists(st.floats(-10, 10), min_size=1, max_size=8),
        st.lists(st.floats(-10, 10), min_size=1, max_size=8),
    )
    def test_antisymmetry(self, a, b):
        assert cliffs_delta(a, b).delta == pytest.approx(-cliffs_delta(b, a).delta, abs=1e-12)


class TestMissedTags:
    def test_only_zero_f1_posts_counted_sorted_by_count_then_name(self):
        instances = [
            inst({"python", "numpy"}, ("x", "y", "z", "w", "v")),
            inst({"python"}, ("x", "y", "z", "w", "v")),
            inst({"numpy"}, ("numpy", "y", "z", "w", "v")),
            inst({"apache", "python"}, ("x", "y", "z", "w", "v")),
        ]
        scores = [0.0, 0.0, 1.0, 0.0]
        assert missed_tag_analysis(instances, scores) == [
            ("python", 3),
            ("apache", 1),
            ("numpy", 1),
        ]

    def test_no_misses_is_empty(self):
        assert missed_tag_analysis([inst({"a"}, ("a",))], [1.0]) == []

    def test_length_mismatch_rejected(self):
        with pytest.raises(EvalError, match="scores"):
            missed_tag_analysis([inst({"a"}, ("a",))], [1.0, 0.0])


class TestLatencyStats:
    def test_one_to_hundred_percentiles(self):
        stats = compute_latency_stats(list(range(1, 101)))
        assert stats.count == 100
        assert stats.mean == pytest.approx(50.5)
        assert stats.p50 == pytest.approx(50.5)
        assert stats.p25 == pytest.approx(25.75)
        assert stats.p75 == pytest.approx(75.25)
        assert stats.min == 1.0 and stats.max == 100.0
        assert stats.std == pytest.approx(math.sqrt((100**3 - 100) / 12.0 / 99.0))

    def test_single_sample_has_zero_std(self):
        stats = compute_latency_stats([7.5])
        assert stats.std == 0.0
        assert stats.mean == stats.p50 == 7.5

    def test_empty_rejected(self):
        with pytest.raises(EvalError, match="no latency"):
            compute_latency_stats([])

    def test_json_dict_layout(self):
        payload = compute_latency_stats([1.0, 2.0]).to_json_dict()
        assert list(payload) == ["count", "unit", "std", "min", "25%", "50%", "75%", "max", "mean"]
        assert payload["unit"] == "ms"


class TestLatencyBench:
    def _model_and_posts(self):
        tags = ("a", "b")
        vocab = TagVocabulary(tags=tags, counts=(5, 4), theta=1)
        config = tiny_model_config(300, 2, components=("title",))
        model = TripletModel(config, vocab, seed=0)
        tok = train_tokenizer("benchmark text", vocab_size=260)
        return model, tok, [make_post(1, ("a",))]

    def test_fake_timer_measures_every_prediction(self):
        """Timer seam: deterministic durations of 1, 2, 3 ms per call pair."""
        model, tok, posts = self._model_and_posts()
        durations = [0.001, 0.002, 0.003] * 2

        def ticks():
            now = 0.0
            for d in durations:
                yield now
                yield now + d
                now += d + 0.5

        it = ticks()
        stats = latency_bench(model, tok, posts, sample_n=3, repeats=2, seed=0, timer=lambda: next(it))
        assert stats.count == 6
        assert stats.mean == pytest.approx(2.0)
        assert stats.min == pytest.approx(1.0)
        assert stats.max == pytest.approx(3.0)
        assert stats.p50 == pytest.approx(2.0)
        assert stats.std == pytest.approx(math.sqrt(4.0 / 5.0))

    def test_real_timer_smoke(self):
        model, tok, posts = self._model_and_posts()
        stats = latency_bench(model, tok, posts, sample_n=2, repeats=1, seed=0)
        assert stats.count == 2
        assert stats.min >= 0.0

    def test_validation(self):
        model, tok, posts = self._model_and_posts()
        with pytest.raises(EvalError, match="no posts"):
            latency_bench(model, tok, [], sample_n=1, repeats=1)
        with pytest.raises(EvalError, match=">= 1"):
            latency_bench(model, tok, posts, sample_n=0, repeats=1)


def test_write_json_is_stable_and_ends_with_newline(tmp_path):
    path = tmp_path / "out.json"
    write_json({"b": 1, "a": [1, 2]}, path)
    text = path.read_text()
    assert text.endswith("\n")
    assert text.index('"b"') < text.index('"a"')
    assert json.loads(text) == {"b": 1, "a": [1, 2]}
