"""Encoder forward pass against a loop-based reference implementation."""

from __future__ import annotations

import gc
import math
import tracemalloc
import weakref

import numpy as np
import pytest

from conftest import encode_component, finite_difference_gradient, make_sequence
from tagrec import tensor as T
from tagrec.encoder import (
    ATTENTION_MASK_BIAS,
    Encoder,
    EncoderConfig,
    EncoderConfigError,
    pool,
)

TINY = dict(vocab_size=261, layers=1, heads=2, model_dim=8, ffn_dim=16, max_positions=8)


def _ln_rows(x: np.ndarray) -> np.ndarray:
    mu = x.mean(axis=-1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
    return (x - mu) / np.sqrt(var + 1e-5)


def _gelu_np(x: np.ndarray) -> np.ndarray:
    c = math.sqrt(2.0 / math.pi)
    return 0.5 * x * (1.0 + np.tanh(c * (x + 0.044715 * x**3)))


def reference_encode(enc: Encoder, ids: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Recompute the pooled output with per-query attention loops.

    Deliberately organised position by position and head by head, unlike
    the batched production path, so wiring mistakes cannot cancel out.
    """
    cfg = enc.config
    p = {name: t.data.astype(np.float64) for name, t in enc.parameters()}
    batch, seq = ids.shape
    d, n_heads = cfg.model_dim, cfg.heads
    hd = d // n_heads

    x = p["tok_emb"][ids] + p["pos_emb"][np.arange(seq)]
    for i in range(cfg.layers):
        blk = {k.rsplit(".", 1)[1]: v for k, v in p.items() if k.startswith(f"blocks.{i}.")}
        h = _ln_rows(x) * blk["attn_ln_gain"] + blk["attn_ln_bias"]
        q = h @ blk["wq"] + blk["bq"]
        k = h @ blk["wk"] + blk["bk"]
        v = h @ blk["wv"] + blk["bv"]
        ctx = np.zeros_like(x)
        for b in range(batch):
            for head in range(n_heads):
                lo, hi = head * hd, (head + 1) * hd
                for t in range(seq):
                    scores = np.empty(seq)
                    for u in range(seq):
                        dot = float(q[b, t, lo:hi] @ k[b, u, lo:hi]) / math.sqrt(hd)
                        scores[u] = dot + (0.0 if mask[b, u] else ATTENTION_MASK_BIAS)
                    w = np.exp(scores - scores.max())
                    w = w / w.sum()
                    ctx[b, t, lo:hi] = sum(w[u] * v[b, u, lo:hi] for u in range(seq))
        x = x + ctx @ blk["wo"] + blk["bo"]
        h2 = _ln_rows(x) * blk["ffn_ln_gain"] + blk["ffn_ln_bias"]
        x = x + _gelu_np(h2 @ blk["w1"] + blk["b1"]) @ blk["w2"] + blk["b2"]
    x = _ln_rows(x) * p["final_ln_gain"] + p["final_ln_bias"]
    return np.stack([x[b][mask[b]].mean(axis=0) for b in range(batch)])


def _batch(rng, cfg: EncoderConfig, lengths: list[int], seq: int):
    ids = np.full((len(lengths), seq), 0, dtype=np.int64)
    mask = np.zeros((len(lengths), seq), dtype=bool)
    for row, n in enumerate(lengths):
        ids[row, :n] = rng.integers(0, cfg.vocab_size, n)
        mask[row, :n] = True
    return ids, mask


class TestLoopReferenceOracle:
    def test_one_layer_matches_reference(self, rng):
        cfg = EncoderConfig(**TINY)
        enc = Encoder(cfg, seed=3, dtype=np.float64)
        ids, mask = _batch(rng, cfg, [6, 3], seq=6)
        got = enc.forward(ids, mask).data
        want = reference_encode(enc, ids, mask)
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-12)

    def test_two_layers_three_heads_match_reference(self, rng):
        cfg = EncoderConfig(vocab_size=40, layers=2, heads=3, model_dim=12, ffn_dim=20, max_positions=8)
        # no special ids in this batch, so the small vocab is safe
        enc = Encoder(cfg, seed=7, dtype=np.float64)
        ids, mask = _batch(rng, cfg, [8, 5, 2], seq=8)
        got = enc.forward(ids, mask).data
        want = reference_encode(enc, ids, mask)
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-12)

    def test_cls_pooling_matches_reference_first_position(self, rng):
        cfg = EncoderConfig(**{**TINY, "pooling": "cls_first"})
        enc = Encoder(cfg, seed=11, dtype=np.float64)
        ids, mask = _batch(rng, cfg, [5, 4], seq=5)
        got = enc.forward(ids, mask).data
        cfg_mean = EncoderConfig(**TINY)
        twin = Encoder(cfg_mean, seed=11, dtype=np.float64)
        hidden = twin.hidden_states(ids, mask).data
        np.testing.assert_allclose(got, hidden[:, 0, :], rtol=1e-12)


class TestPooling:
    def test_mean_max_cls_hand_example(self):
        hidden = T.Tensor(np.array([[[1.0, 3.0], [3.0, 1.0]]]))
        mask = np.array([[True, True]])
        assert pool(hidden, mask, "mean").data.tolist() == [[2.0, 2.0]]
        assert pool(hidden, mask, "max").data.tolist() == [[3.0, 3.0]]
        assert pool(hidden, mask, "cls_first").data.tolist() == [[1.0, 3.0]]

    def test_masked_positions_excluded(self):
        hidden = T.Tensor(np.array([[[1.0, 3.0], [9.0, 9.0]]]))
        mask = np.array([[True, False]])
        assert pool(hidden, mask, "mean").data.tolist() == [[1.0, 3.0]]
        assert pool(hidden, mask, "max").data.tolist() == [[1.0, 3.0]]

    def test_unknown_strategy_rejected(self):
        with pytest.raises(EncoderConfigError, match="pooling"):
            pool(T.Tensor(np.zeros((1, 2, 2))), np.ones((1, 2), dtype=bool), "sum")


class TestPaddingInvariance:
    @pytest.mark.parametrize("pooling", ["mean", "cls_first", "max"])
    def test_extra_padding_never_changes_output(self, pooling):
        """Pad weights are exactly 0, so only BLAS summation order may differ."""
        cfg = EncoderConfig(vocab_size=261, layers=2, heads=2, model_dim=16, ffn_dim=32, max_positions=64, pooling=pooling)
        enc = Encoder(cfg, seed=5)
        content = [7, 19, 3, 3, 30]
        short = make_sequence(content, max_len=16)
        long = make_sequence(content, max_len=64)
        out_short = enc.forward(short.ids[None, :], short.mask[None, :]).data
        out_long = enc.forward(long.ids[None, :], long.mask[None, :]).data
        np.testing.assert_allclose(out_short, out_long, rtol=1e-5, atol=1e-6)

    def test_padded_keys_get_exactly_zero_weight(self):
        """Probe the mask bias directly: softmax over biased scores is 0.0 on pads."""
        scores = np.array([[0.3, -0.7, 0.0, 0.0]])
        biased = scores + np.where(np.array([True, True, False, False]), 0.0, ATTENTION_MASK_BIAS)
        weights = T.softmax(T.Tensor(biased.astype(np.float32))).data
        assert weights[0, 2] == 0.0 and weights[0, 3] == 0.0
        assert abs(weights[0, :2].sum() - 1.0) < 1e-6

    def test_padded_rows_do_not_leak_across_batch(self, rng):
        cfg = EncoderConfig(**TINY)
        enc = Encoder(cfg, seed=9)
        ids, mask = _batch(rng, cfg, [6, 2], seq=6)
        batched = enc.forward(ids, mask).data
        solo = enc.forward(ids[:1], mask[:1]).data
        np.testing.assert_allclose(batched[0], solo[0], rtol=1e-6, atol=1e-7)


class TestDeterminism:
    def test_same_seed_bitwise_identical(self, rng):
        cfg = EncoderConfig(**TINY)
        a, b = Encoder(cfg, seed=21), Encoder(cfg, seed=21)
        for (name_a, pa), (name_b, pb) in zip(a.parameters(), b.parameters()):
            assert name_a == name_b
            np.testing.assert_array_equal(pa.data, pb.data)
        ids, mask = _batch(rng, cfg, [4], seq=4)
        np.testing.assert_array_equal(a.forward(ids, mask).data, b.forward(ids, mask).data)

    def test_different_seeds_differ(self):
        cfg = EncoderConfig(**TINY)
        a, b = Encoder(cfg, seed=1), Encoder(cfg, seed=2)
        assert not np.array_equal(a.tok_emb.data, b.tok_emb.data)

    def test_parameter_order_stable_and_complete(self):
        cfg = EncoderConfig(**TINY)
        names = [name for name, _ in Encoder(cfg, seed=0).parameters()]
        assert names[:2] == ["tok_emb", "pos_emb"]
        assert names[-2:] == ["final_ln_gain", "final_ln_bias"]
        assert len(names) == 2 + 16 * cfg.layers + 2
        assert len(set(names)) == len(names)


class TestDropout:
    def test_dropout_only_active_with_rng(self):
        cfg = EncoderConfig(**{**TINY, "dropout_rate": 0.5})
        enc = Encoder(cfg, seed=4)
        seq = make_sequence([5, 6, 7], max_len=8)
        ids, mask = seq.ids[None, :], seq.mask[None, :]
        infer_a = enc.forward(ids, mask).data
        infer_b = enc.forward(ids, mask).data
        np.testing.assert_array_equal(infer_a, infer_b)
        trained = enc.forward(ids, mask, rng=np.random.default_rng(0)).data
        assert not np.allclose(trained, infer_a)

    def test_zero_rate_ignores_rng(self):
        cfg = EncoderConfig(**TINY)
        enc = Encoder(cfg, seed=4)
        seq = make_sequence([5, 6], max_len=8)
        with_rng = enc.forward(seq.ids[None, :], seq.mask[None, :], rng=np.random.default_rng(0)).data
        without = enc.forward(seq.ids[None, :], seq.mask[None, :]).data
        np.testing.assert_array_equal(with_rng, without)


class TestValidation:
    def test_dimension_and_rate_checks(self):
        with pytest.raises(EncoderConfigError, match="divisible"):
            EncoderConfig(vocab_size=10, heads=3, model_dim=8)
        with pytest.raises(EncoderConfigError, match="dropout"):
            EncoderConfig(vocab_size=10, dropout_rate=1.0)
        with pytest.raises(EncoderConfigError, match=">= 1"):
            EncoderConfig(vocab_size=0)
        with pytest.raises(EncoderConfigError, match="pooling"):
            EncoderConfig(vocab_size=10, pooling="last")

    def test_sequence_length_and_shape_checks(self):
        enc = Encoder(EncoderConfig(**TINY), seed=0)
        too_long = np.zeros((1, 9), dtype=np.int64)
        with pytest.raises(T.ShapeError, match="max_positions"):
            enc.forward(too_long, np.ones((1, 9), dtype=bool))
        with pytest.raises(T.ShapeError, match="equal"):
            enc.forward(np.zeros((1, 4), dtype=np.int64), np.ones((1, 5), dtype=bool))


class TestGradients:
    def test_backward_matches_finite_differences(self, rng):
        cfg = EncoderConfig(vocab_size=10, layers=1, heads=2, model_dim=4, ffn_dim=8, max_positions=6)
        enc = Encoder(cfg, seed=13, dtype=np.float64)
        ids, mask = _batch(rng, cfg, [5, 3], seq=5)
        coeff = T.Tensor(rng.normal(size=(2, cfg.model_dim)))

        def loss_fn() -> T.Tensor:
            return T.total(enc.forward(ids, mask) * coeff)

        loss = loss_fn()
        loss.backward()
        checked = ["tok_emb", "blocks.0.wq", "blocks.0.attn_ln_gain", "blocks.0.w1", "final_ln_gain"]
        params = dict(enc.parameters())
        for name in checked:
            numeric = finite_difference_gradient(loss_fn, params[name])
            np.testing.assert_allclose(
                params[name].grad, numeric.reshape(params[name].shape), rtol=1e-4, atol=1e-6,
                err_msg=name,
            )

    def test_gradient_reaches_every_parameter(self, rng):
        cfg = EncoderConfig(**TINY)
        enc = Encoder(cfg, seed=2, dtype=np.float64)
        ids, mask = _batch(rng, cfg, [6, 4], seq=6)
        T.total(enc.forward(ids, mask)).backward()
        for name, param in enc.parameters():
            assert param.grad is not None, name

    def test_graph_is_freed_without_the_cyclic_collector(self, rng):
        # A node must not refer to itself: dropping the loss frees the whole
        # graph by reference counting. Tensor has __slots__ and no __weakref__,
        # so watch an intermediate node's ndarray instead.
        cfg = EncoderConfig(**TINY)
        enc = Encoder(cfg, seed=2)
        ids, mask = _batch(rng, cfg, [6, 4], seq=6)
        gc.disable()
        try:
            loss = T.total(enc.forward(ids, mask))
            loss.backward()
            hidden = weakref.ref(loss._parents[0]._parents[0].data)
            assert hidden() is not None
            del loss
            assert hidden() is None
        finally:
            gc.enable()

    def test_backward_frees_inner_adjoints_as_it_goes(self, rng):
        # Only leaves keep their grad. If every inner node kept its adjoint
        # until the loss is dropped, backward would hold about as much again
        # as the forward graph.
        cfg = EncoderConfig(vocab_size=261, layers=2, heads=2, model_dim=16, ffn_dim=64, max_positions=256)
        enc = Encoder(cfg, seed=4)
        ids, mask = _batch(rng, cfg, [256, 180], seq=256)
        tracemalloc.start()
        try:
            loss = T.total(enc.forward(ids, mask))
            forward_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            loss.backward()
            backward_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert backward_peak < 1.5 * forward_peak, (forward_peak, backward_peak)


def test_encode_component_is_single_row_forward():
    cfg = EncoderConfig(**TINY)
    enc = Encoder(cfg, seed=6)
    seq = make_sequence([4, 8, 15], max_len=8)
    vec = encode_component(enc, seq)
    assert vec.shape == (cfg.model_dim,)
    np.testing.assert_array_equal(vec, enc.forward(seq.ids[None, :], seq.mask[None, :]).data[0])
