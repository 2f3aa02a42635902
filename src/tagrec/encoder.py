"""Transformer encoder over packed token sequences.

Pre-norm residual blocks (multi-head self-attention, then a GELU FFN), token
plus learned position embeddings in, one pooled vector per sequence out.
Padded key positions receive a -1e9 additive bias before the softmax, which
underflows to an exactly zero attention weight, so extra padding cannot leak
into real positions; outputs agree to float summation order.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Iterator

import numpy as np

from . import tensor as T

POOLING_STRATEGIES = ("mean", "cls_first", "max")

ATTENTION_MASK_BIAS = -1e9
INIT_STD = 0.02


class EncoderConfigError(ValueError):
    """Inconsistent encoder hyperparameters."""


@dataclass(frozen=True)
class EncoderConfig:
    """Shape hyperparameters for one component encoder."""

    vocab_size: int
    layers: int = 2
    heads: int = 4
    model_dim: int = 128
    ffn_dim: int = 512
    max_positions: int = 512
    dropout_rate: float = 0.0
    pooling: str = "mean"

    def __post_init__(self) -> None:
        if min(self.vocab_size, self.layers, self.heads, self.model_dim, self.ffn_dim, self.max_positions) < 1:
            raise EncoderConfigError(f"all encoder dimensions must be >= 1: {self}")
        if self.model_dim % self.heads != 0:
            raise EncoderConfigError(
                f"model_dim {self.model_dim} is not divisible by heads {self.heads}"
            )
        if not 0.0 <= self.dropout_rate < 1.0:
            raise EncoderConfigError(f"dropout_rate {self.dropout_rate} outside [0, 1)")
        if self.pooling not in POOLING_STRATEGIES:
            raise EncoderConfigError(f"unknown pooling {self.pooling!r}, expected one of {POOLING_STRATEGIES}")

    def to_json_dict(self) -> dict:
        return asdict(self)


class Encoder:
    """Parameter container plus forward pass for one component."""

    def __init__(
        self,
        config: EncoderConfig,
        seed: int | np.random.SeedSequence = 0,
        dtype: type = np.float32,
    ) -> None:
        self.config = config
        self.dtype = np.dtype(dtype)
        rng = np.random.default_rng(seed)
        d, f = config.model_dim, config.ffn_dim

        def weight(*shape: int) -> T.Tensor:
            return T.Tensor(rng.normal(0.0, INIT_STD, shape).astype(self.dtype), requires_grad=True)

        def zeros(*shape: int) -> T.Tensor:
            return T.Tensor(np.zeros(shape, dtype=self.dtype), requires_grad=True)

        def ones(*shape: int) -> T.Tensor:
            return T.Tensor(np.ones(shape, dtype=self.dtype), requires_grad=True)

        self.tok_emb = weight(config.vocab_size, d)
        self.pos_emb = weight(config.max_positions, d)
        self.blocks = []
        for _ in range(config.layers):
            self.blocks.append(
                {
                    "attn_ln_gain": ones(d), "attn_ln_bias": zeros(d),
                    "wq": weight(d, d), "bq": zeros(d),
                    "wk": weight(d, d), "bk": zeros(d),
                    "wv": weight(d, d), "bv": zeros(d),
                    "wo": weight(d, d), "bo": zeros(d),
                    "ffn_ln_gain": ones(d), "ffn_ln_bias": zeros(d),
                    "w1": weight(d, f), "b1": zeros(f),
                    "w2": weight(f, d), "b2": zeros(d),
                }
            )
        self.final_ln_gain = ones(d)
        self.final_ln_bias = zeros(d)

    def parameters(self) -> Iterator[tuple[str, T.Tensor]]:
        """Named parameters in a fixed order; checkpoints rely on it."""
        yield "tok_emb", self.tok_emb
        yield "pos_emb", self.pos_emb
        for i, block in enumerate(self.blocks):
            for name, param in block.items():
                yield f"blocks.{i}.{name}", param
        yield "final_ln_gain", self.final_ln_gain
        yield "final_ln_bias", self.final_ln_bias

    def hidden_states(
        self, ids: np.ndarray, mask: np.ndarray, rng: np.random.Generator | None = None
    ) -> T.Tensor:
        """Per-position representations, shape (batch, seq, model_dim).

        rng enables dropout on the residual branches; omit it for inference.
        """
        ids = np.asarray(ids)
        mask = np.asarray(mask, dtype=bool)
        if ids.ndim != 2 or ids.shape != mask.shape:
            raise T.ShapeError(f"hidden_states: ids {ids.shape} and mask {mask.shape} must be equal 2-D shapes")
        batch, seq = ids.shape
        cfg = self.config
        if seq > cfg.max_positions:
            raise T.ShapeError(f"sequence length {seq} exceeds max_positions {cfg.max_positions}")

        positions = np.broadcast_to(np.arange(seq), (batch, seq))
        x = T.embedding(self.tok_emb, ids) + T.embedding(self.pos_emb, positions)

        # 0 on real keys, -1e9 on padded keys, broadcast over heads and queries.
        bias = np.where(mask, 0.0, ATTENTION_MASK_BIAS).astype(self.dtype)
        attn_bias = T.Tensor(bias[:, None, None, :])

        heads = cfg.heads
        head_dim = cfg.model_dim // heads
        scale = 1.0 / float(np.sqrt(head_dim))

        for block in self.blocks:
            h = T.layer_norm(x) * block["attn_ln_gain"] + block["attn_ln_bias"]
            q = self._split_heads(h @ block["wq"] + block["bq"], batch, seq, heads, head_dim)
            k = self._split_heads(h @ block["wk"] + block["bk"], batch, seq, heads, head_dim)
            v = self._split_heads(h @ block["wv"] + block["bv"], batch, seq, heads, head_dim)
            scores = (q @ T.transpose(k, (0, 1, 3, 2))) * scale + attn_bias
            attn = T.softmax(scores)
            ctx = attn @ v
            merged = T.reshape(T.transpose(ctx, (0, 2, 1, 3)), (batch, seq, cfg.model_dim))
            x = x + self._dropout(merged @ block["wo"] + block["bo"], rng)

            h2 = T.layer_norm(x) * block["ffn_ln_gain"] + block["ffn_ln_bias"]
            ffn = T.gelu(h2 @ block["w1"] + block["b1"]) @ block["w2"] + block["b2"]
            x = x + self._dropout(ffn, rng)

        return T.layer_norm(x) * self.final_ln_gain + self.final_ln_bias

    def _split_heads(self, t: T.Tensor, batch: int, seq: int, heads: int, head_dim: int) -> T.Tensor:
        return T.transpose(T.reshape(t, (batch, seq, heads, head_dim)), (0, 2, 1, 3))

    def _dropout(self, t: T.Tensor, rng: np.random.Generator | None) -> T.Tensor:
        rate = self.config.dropout_rate
        if rng is None or rate == 0.0:
            return t
        keep = (rng.random(t.shape) >= rate).astype(self.dtype) / self.dtype.type(1.0 - rate)
        return t * T.Tensor(keep)

    def forward(
        self, ids: np.ndarray, mask: np.ndarray, rng: np.random.Generator | None = None
    ) -> T.Tensor:
        """Pooled sequence representations, shape (batch, model_dim)."""
        return pool(self.hidden_states(ids, mask, rng), mask, self.config.pooling)


def pool(hidden: T.Tensor, mask: np.ndarray, strategy: str) -> T.Tensor:
    """Collapse (batch, seq, d) to (batch, d) over unmasked positions."""
    if strategy == "mean":
        return T.masked_mean(hidden, mask)
    if strategy == "max":
        return T.masked_max(hidden, mask)
    if strategy == "cls_first":
        return T.select_position(hidden, 0)
    raise EncoderConfigError(f"unknown pooling {strategy!r}, expected one of {POOLING_STRATEGIES}")
