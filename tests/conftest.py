"""Shared fixtures and the acceptance summary hook."""

from __future__ import annotations

import re
from collections import Counter
from typing import Callable

import numpy as np
import pytest

from tagrec.encoder import Encoder, EncoderConfig
from tagrec.ingest import DecomposedPost
from tagrec.model import COMPONENT_ORDER, ModelConfig
from tagrec.tensor import Tensor
from tagrec.tokenizer import CLS_ID, PAD_ID, SEP_ID, TokenSequence

_ACCEPTANCE_RESULTS: dict[str, str] = {}


def pytest_runtest_logreport(report):
    if report.when != "call" or "test_acceptance" not in report.nodeid:
        return
    match = re.search(r"test_criterion_(\d+)", report.nodeid)
    if match:
        _ACCEPTANCE_RESULTS[report.nodeid] = report.outcome


def pytest_terminal_summary(terminalreporter):
    if not _ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for nodeid in sorted(_ACCEPTANCE_RESULTS, key=_criterion_number):
        outcome = _ACCEPTANCE_RESULTS[nodeid]
        label = "PASS" if outcome == "passed" else outcome.upper()
        name = nodeid.split("::")[-1]
        terminalreporter.write_line(f"[{label}] {name}")


def _criterion_number(nodeid: str) -> int:
    match = re.search(r"test_criterion_(\d+)", nodeid)
    return int(match.group(1)) if match else 99


def make_sequence(content_ids: list[int], max_len: int) -> TokenSequence:
    """Hand-packed sequence following the CLS/content/SEP/PAD layout."""
    assert len(content_ids) <= max_len - 2
    ids = np.full(max_len, PAD_ID, dtype=np.int32)
    ids[0] = CLS_ID
    ids[1 : 1 + len(content_ids)] = content_ids
    ids[1 + len(content_ids)] = SEP_ID
    mask = np.zeros(max_len, dtype=bool)
    mask[: len(content_ids) + 2] = True
    return TokenSequence(ids=ids, mask=mask)


def finite_difference_gradient(fn: Callable[[], Tensor], param: Tensor, h: float = 1e-4) -> np.ndarray:
    """Central-difference gradient of scalar fn() w.r.t. param, one coordinate at a time.

    The independent oracle against backward(); param should be float64 for
    the differences to be trustworthy at h=1e-4.
    """
    flat = param.data.reshape(-1)
    grad = np.zeros_like(flat)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        f_plus = float(fn().data)
        flat[i] = orig - h
        f_minus = float(fn().data)
        flat[i] = orig
        grad[i] = (f_plus - f_minus) / (2.0 * h)
    return grad.reshape(param.shape)


def naive_bpe_merges(corpus_text: str, vocab_size: int) -> list[tuple[int, int]]:
    """Reference BPE trainer: recount every pair in every chunk on every merge.

    Picks the pair by (-count, left bytes, right bytes), merges it left to
    right in every chunk and stops when no pair is left; the independent
    oracle for train_tokenizer.
    """
    chunks = [list(chunk.encode("utf-8")) for chunk in re.findall(r"\S+|\s+", corpus_text)]
    token_bytes = [bytes([i]) for i in range(256)] + [b""] * 4
    merges: list[tuple[int, int]] = []
    while len(token_bytes) < vocab_size:
        counts = Counter(pair for chunk in chunks for pair in zip(chunk, chunk[1:]))
        if not counts:
            break
        best = min(counts, key=lambda p: (-counts[p], token_bytes[p[0]], token_bytes[p[1]]))
        new_id = len(token_bytes)
        merges.append(best)
        token_bytes.append(token_bytes[best[0]] + token_bytes[best[1]])
        for chunk in chunks:
            i = 0
            while i + 1 < len(chunk):
                if (chunk[i], chunk[i + 1]) == best:
                    chunk[i : i + 2] = [new_id]
                i += 1
    return merges


def encode_component(encoder: Encoder, seq: TokenSequence) -> np.ndarray:
    """Pooled vector for one sequence, shape (model_dim,): a batch-of-one forward."""
    out = encoder.forward(seq.ids[None, :], seq.mask[None, :])
    return out.data[0]


def make_post(
    post_id: int,
    tags: tuple[str, ...],
    title: str = "a title",
    description: str = "a description",
    code: str = "some code",
    date: str | None = None,
) -> DecomposedPost:
    return DecomposedPost(
        id=post_id,
        creation_date=date or f"2020-01-01T00:00:{post_id % 60:02d}",
        title=title,
        description=description,
        code=code,
        tags=tags,
    )


def tiny_model_config(
    vocab_size: int,
    num_tags: int,
    components: tuple[str, ...] = COMPONENT_ORDER,
    layers: int = 1,
    heads: int = 2,
    model_dim: int = 8,
    ffn_dim: int = 16,
    max_positions: int = 8,
    pooling: str = "mean",
    share_weights: bool = False,
) -> ModelConfig:
    enc = EncoderConfig(
        vocab_size=vocab_size,
        layers=layers,
        heads=heads,
        model_dim=model_dim,
        ffn_dim=ffn_dim,
        max_positions=max_positions,
        pooling=pooling,
    )
    return ModelConfig(
        components=components,
        encoders={c: enc for c in components},
        num_tags=num_tags,
        share_weights=share_weights,
    )


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(42)
