"""Training loop: multi-label BCE objective, Adam, linear LR decay.

The loss on a batch is the mean over posts of the summed per-tag binary
cross-entropy (probabilities clipped to [1e-7, 1 - 1e-7] so a saturated
sigmoid cannot produce log(0)). The learning rate decays linearly from its
initial value to zero across the total planned step count. Runs are
deterministic: the same seed, data, and config reproduce the loss trace
bit for bit.
"""

from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from . import tensor as T
from .ingest import DecomposedPost
from .model import ModelConfig, TripletModel, encode_post
from .tokenizer import TokenSequence, Tokenizer
from .vocab import TagVocabulary

log = logging.getLogger(__name__)

PROB_CLIP_EPS = 1e-7
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class TrainConfigError(ValueError):
    """Inconsistent training hyperparameters."""


class TrainingDivergedError(RuntimeError):
    """Loss became NaN or infinite; the run is unrecoverable."""


@dataclass(frozen=True)
class TrainConfig:
    """Optimization hyperparameters."""

    batch_size: int = 64
    initial_lr: float = 7e-5
    epochs: int = 1
    seed: int = 0
    weight_decay: float = 0.0
    warmup_steps: int = 0
    max_grad_norm: float | None = None

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise TrainConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.initial_lr <= 0:
            raise TrainConfigError(f"initial_lr must be positive, got {self.initial_lr}")
        if self.epochs < 1:
            raise TrainConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.weight_decay < 0:
            raise TrainConfigError(f"weight_decay must be >= 0, got {self.weight_decay}")
        if self.warmup_steps < 0:
            raise TrainConfigError(f"warmup_steps must be >= 0, got {self.warmup_steps}")
        if self.max_grad_norm is not None and self.max_grad_norm <= 0:
            raise TrainConfigError(f"max_grad_norm must be positive, got {self.max_grad_norm}")


@dataclass(frozen=True)
class TrainExample:
    """One post, encoded: component sequences plus the multi-hot target."""

    sequences: dict[str, TokenSequence]
    target: np.ndarray


def target_vector(tags: Sequence[str], vocab: TagVocabulary) -> np.ndarray:
    """Multi-hot target over the vocabulary; unknown tags are a caller bug."""
    target = np.zeros(len(vocab), dtype=np.float32)
    for tag in tags:
        idx = vocab.index.get(tag)
        if idx is None:
            raise ValueError(f"tag {tag!r} is not in the vocabulary; filter posts first")
        target[idx] = 1.0
    if not target.any():
        raise ValueError("post has no in-vocabulary tags")
    return target


def build_dataset(
    posts: Sequence[DecomposedPost],
    tok: Tokenizer,
    config: ModelConfig,
    vocab: TagVocabulary,
) -> list[TrainExample]:
    """Encode every post's configured components and build its target."""
    dataset = []
    for post in posts:
        try:
            target = target_vector(post.tags, vocab)
        except ValueError as exc:
            raise ValueError(f"post {post.id}: {exc}") from exc
        dataset.append(TrainExample(sequences=encode_post(post, tok, config), target=target))
    return dataset


def bce_loss(probs: T.Tensor, targets: np.ndarray) -> T.Tensor:
    """Mean over the batch of the per-post sum of per-tag cross-entropies."""
    targets = np.asarray(targets)
    if probs.data.ndim != 2 or probs.shape != targets.shape:
        raise T.ShapeError(f"bce_loss: probs {probs.shape} and targets {targets.shape} must be equal 2-D shapes")
    batch = probs.shape[0]
    p = T.clip(probs, PROB_CLIP_EPS, 1.0 - PROB_CLIP_EPS)
    y = T.Tensor(targets.astype(p.dtype))
    per_entry = y * T.log(p) + (1.0 - y) * T.log(1.0 - p)
    return T.total(per_entry) * (-1.0 / batch)


def lr_at(step: int, total_steps: int, config: TrainConfig) -> float:
    """Learning rate for a 0-based step: optional warmup ramp, then linear decay to 0."""
    warmup = config.warmup_steps
    if warmup > 0 and step < warmup:
        return config.initial_lr * (step + 1) / warmup
    span = max(total_steps - warmup, 1)
    frac = (step - warmup) / span
    return config.initial_lr * max(0.0, 1.0 - frac)


class Adam:
    """Adam with bias correction and optional decoupled weight decay."""

    def __init__(self, params: Sequence[tuple[str, T.Tensor]], config: TrainConfig) -> None:
        self.params = list(params)
        self.config = config
        self.t = 0
        self._m = {name: np.zeros_like(p.data) for name, p in self.params}
        self._v = {name: np.zeros_like(p.data) for name, p in self.params}

    def zero_grad(self) -> None:
        for _, p in self.params:
            p.grad = None

    def step(self, lr: float) -> None:
        cfg = self.config
        self.t += 1
        bc1 = 1.0 - ADAM_BETA1**self.t
        bc2 = 1.0 - ADAM_BETA2**self.t
        for name, p in self.params:
            if p.grad is None:
                continue
            g = p.grad
            m = self._m[name]
            v = self._v[name]
            m *= ADAM_BETA1
            m += (1.0 - ADAM_BETA1) * g
            v *= ADAM_BETA2
            v += (1.0 - ADAM_BETA2) * g * g
            update = (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)
            if cfg.weight_decay > 0:
                update = update + cfg.weight_decay * p.data
            p.data = p.data - (lr * update).astype(p.data.dtype)


def clip_gradients(params: Sequence[tuple[str, T.Tensor]], max_norm: float) -> float:
    """Scale all gradients so their global L2 norm is at most max_norm."""
    total = 0.0
    for _, p in params:
        if p.grad is not None:
            total += float((p.grad.astype(np.float64) ** 2).sum())
    norm = math.sqrt(total)
    if norm > max_norm and norm > 0:
        scale = max_norm / norm
        for _, p in params:
            if p.grad is not None:
                p.grad *= p.data.dtype.type(scale)
    return norm


def _stack_batch(
    examples: Sequence[TrainExample], components: Sequence[str]
) -> tuple[dict[str, tuple[np.ndarray, np.ndarray]], np.ndarray]:
    batch = {
        c: (
            np.stack([ex.sequences[c].ids for ex in examples]),
            np.stack([ex.sequences[c].mask for ex in examples]),
        )
        for c in components
    }
    targets = np.stack([ex.target for ex in examples])
    return batch, targets


def train(
    model: TripletModel,
    dataset: Sequence[TrainExample],
    config: TrainConfig,
    trace_path: str | Path | None = None,
) -> list[tuple[int, float, float]]:
    """Optimize the model in place; returns the (step, lr, loss) trace.

    Every epoch reshuffles the dataset with the run's seeded generator; the
    final short batch is kept. A non-finite loss aborts immediately.
    """
    if not dataset:
        raise ValueError("empty dataset")
    rng = np.random.default_rng(config.seed)
    params = list(model.parameters())
    optimizer = Adam(params, config)
    n = len(dataset)
    steps_per_epoch = (n + config.batch_size - 1) // config.batch_size
    total_steps = steps_per_epoch * config.epochs

    trace: list[tuple[int, float, float]] = []
    step = 0
    for _ in range(config.epochs):
        order = rng.permutation(n)
        for start in range(0, n, config.batch_size):
            examples = [dataset[i] for i in order[start : start + config.batch_size]]
            batch, targets = _stack_batch(examples, model.config.components)
            probs = model.forward(batch, rng=rng)
            loss = bce_loss(probs, targets)
            loss_value = float(loss.data)
            lr = lr_at(step, total_steps, config)
            if not math.isfinite(loss_value):
                raise TrainingDivergedError(
                    f"non-finite loss {loss_value} at step {step} (lr {lr:.3e}, batch of {len(examples)})"
                )
            optimizer.zero_grad()
            T.backward(loss)
            if config.max_grad_norm is not None:
                clip_gradients(params, config.max_grad_norm)
            optimizer.step(lr)
            trace.append((step, lr, loss_value))
            step += 1
        log.info("epoch done: step %d of %d, loss %.4f", step, total_steps, trace[-1][2])

    if trace_path is not None:
        write_loss_trace(trace, trace_path)
    return trace


def write_loss_trace(trace: Sequence[tuple[int, float, float]], path: str | Path) -> None:
    """CSV with full-precision floats so identical runs diff clean."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "lr", "loss"])
        for step, lr, loss in trace:
            writer.writerow([step, repr(lr), repr(loss)])
