"""Multi-component tag recommendation model.

One encoder per post component (title, description, code; any non-empty
subset for ablations), pooled vectors concatenated in canonical order and
fed through a sigmoid linear head that scores every tag independently.
Checkpoints capture the config, a hash of the tag vocabulary, and every
parameter buffer bit-exactly.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from . import tensor as T
from .encoder import INIT_STD, Encoder, EncoderConfig
from .ingest import DecomposedPost, artifact_path
from .tokenizer import TRUNCATION_STRATEGIES, TokenSequence, Tokenizer, encode
from .vocab import TagVocabulary

COMPONENT_ORDER = ("title", "description", "code")

CHECKPOINT_MAGIC = b"TAGRECK1"
CHECKPOINT_VERSION = 1


class ModelConfigError(ValueError):
    """Inconsistent model configuration."""


class CheckpointError(ValueError):
    """Unreadable or corrupt checkpoint file."""


class TruncatedCheckpointError(CheckpointError):
    """Checkpoint file ends before all parameter buffers."""


class VersionMismatchError(CheckpointError):
    """Checkpoint was written by an incompatible format version."""


class VocabHashMismatchError(CheckpointError):
    """Checkpoint was trained against a different tag vocabulary."""


@dataclass(frozen=True)
class ModelConfig:
    """Which components exist, their encoder shapes, and the label count."""

    components: tuple[str, ...]
    encoders: dict[str, EncoderConfig]
    num_tags: int
    share_weights: bool = False
    truncation: str = "head_only"

    def __post_init__(self) -> None:
        if not self.components:
            raise ModelConfigError("at least one component is required")
        unknown = [c for c in self.components if c not in COMPONENT_ORDER]
        if unknown:
            raise ModelConfigError(f"unknown components {unknown}, expected among {COMPONENT_ORDER}")
        if len(set(self.components)) != len(self.components):
            raise ModelConfigError(f"duplicate components in {self.components}")
        canonical = tuple(c for c in COMPONENT_ORDER if c in self.components)
        object.__setattr__(self, "components", canonical)
        if set(self.encoders) != set(canonical):
            raise ModelConfigError(
                f"encoder configs {sorted(self.encoders)} do not match components {canonical}"
            )
        if self.num_tags < 1:
            raise ModelConfigError(f"num_tags must be >= 1, got {self.num_tags}")
        if self.truncation not in TRUNCATION_STRATEGIES:
            raise ModelConfigError(f"unknown truncation {self.truncation!r}")
        if self.share_weights and len({self.encoders[c] for c in canonical}) != 1:
            raise ModelConfigError("share_weights requires identical encoder configs across components")

    def to_json_dict(self) -> dict:
        return {
            "components": list(self.components),
            "num_tags": self.num_tags,
            "share_weights": self.share_weights,
            "truncation": self.truncation,
            "encoders": {c: self.encoders[c].to_json_dict() for c in self.components},
        }

    @classmethod
    def from_json_dict(cls, payload: dict) -> "ModelConfig":
        try:
            encoders = {c: EncoderConfig(**cfg) for c, cfg in payload["encoders"].items()}
            return cls(
                components=tuple(payload["components"]),
                encoders=encoders,
                num_tags=payload["num_tags"],
                share_weights=payload["share_weights"],
                truncation=payload["truncation"],
            )
        except (KeyError, TypeError) as exc:
            raise ModelConfigError(f"malformed model config: {exc}") from exc


@dataclass(frozen=True)
class Prediction:
    """Per-tag probabilities with the tag names and the descending ranking."""

    probabilities: np.ndarray
    ranked: np.ndarray
    tags: tuple[str, ...]


class TripletModel:
    """Component encoders plus the shared sigmoid classification head."""

    def __init__(
        self,
        config: ModelConfig,
        vocab: TagVocabulary,
        seed: int = 0,
        dtype: type = np.float32,
    ) -> None:
        if config.num_tags != len(vocab):
            raise ModelConfigError(f"num_tags {config.num_tags} does not match vocabulary size {len(vocab)}")
        self.config = config
        self.vocab = vocab
        self.dtype = np.dtype(dtype)
        seeds = np.random.SeedSequence(seed).spawn(len(config.components) + 1)
        if config.share_weights:
            shared = Encoder(config.encoders[config.components[0]], seed=seeds[0], dtype=dtype)
            self.encoders = {c: shared for c in config.components}
        else:
            self.encoders = {
                c: Encoder(config.encoders[c], seed=s, dtype=dtype)
                for c, s in zip(config.components, seeds)
            }
        in_dim = sum(config.encoders[c].model_dim for c in config.components)
        head_rng = np.random.default_rng(seeds[-1])
        self.classifier_weight = T.Tensor(
            head_rng.normal(0.0, INIT_STD, (in_dim, config.num_tags)).astype(self.dtype), requires_grad=True
        )
        self.classifier_bias = T.Tensor(np.zeros(config.num_tags, dtype=self.dtype), requires_grad=True)

    def parameters(self) -> Iterator[tuple[str, T.Tensor]]:
        """Named parameters in checkpoint order."""
        if self.config.share_weights:
            encoder = self.encoders[self.config.components[0]]
            for name, param in encoder.parameters():
                yield f"encoder.shared.{name}", param
        else:
            for component in self.config.components:
                for name, param in self.encoders[component].parameters():
                    yield f"encoder.{component}.{name}", param
        yield "classifier.weight", self.classifier_weight
        yield "classifier.bias", self.classifier_bias

    def forward(
        self,
        batch: dict[str, tuple[np.ndarray, np.ndarray]],
        rng: np.random.Generator | None = None,
    ) -> T.Tensor:
        """Tag probabilities for a batch, shape (batch, num_tags).

        batch maps each configured component to (ids, mask) arrays of shape
        (batch, seq). Missing components are a wiring error.
        """
        missing = [c for c in self.config.components if c not in batch]
        if missing:
            raise ModelConfigError(f"batch is missing components {missing}")
        pooled = [self.encoders[c].forward(*batch[c], rng=rng) for c in self.config.components]
        joint = pooled[0] if len(pooled) == 1 else T.concat(pooled, axis=-1)
        logits = joint @ self.classifier_weight + self.classifier_bias
        return T.sigmoid(logits)

    def predict(self, seqs: dict[str, TokenSequence]) -> Prediction:
        """Score one post; ranking breaks probability ties by tag index."""
        with T.no_grad():
            probs = self.forward(stack_sequences([seqs], self.config.components)).data[0]
        ranked = np.argsort(-probs, kind="stable")
        return Prediction(probabilities=probs, ranked=ranked, tags=self.vocab.tags)


def predict_top_k(pred: Prediction, k: int) -> list[str]:
    """Names of the k highest-probability tags, best first."""
    if not 1 <= k <= len(pred.tags):
        raise ValueError(f"k must be in [1, {len(pred.tags)}], got {k}")
    return [pred.tags[i] for i in pred.ranked[:k]]


def encode_post(post: DecomposedPost, tok: Tokenizer, config: ModelConfig) -> dict[str, TokenSequence]:
    """Pack a post's configured components to their encoders' max lengths."""
    return {
        c: encode(tok, getattr(post, c), config.encoders[c].max_positions, config.truncation)
        for c in config.components
    }


def stack_sequences(
    posts: Sequence[dict[str, TokenSequence]], components: Sequence[str]
) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """The forward batch for encode_post results: per component, (ids, mask) of shape (posts, seq)."""
    return {
        c: (np.stack([seqs[c].ids for seqs in posts]), np.stack([seqs[c].mask for seqs in posts]))
        for c in components
    }


def save_checkpoint(model: TripletModel, path: str | Path) -> None:
    """Write magic, version, config JSON, vocab hash, then raw parameter buffers."""
    if model.dtype != np.float32:
        raise CheckpointError(f"checkpoints are float32-only, model is {model.dtype}")
    config_blob = json.dumps(model.config.to_json_dict(), separators=(",", ":")).encode("utf-8")
    vocab_digest = bytes.fromhex(model.vocab.content_hash())
    with artifact_path(path) as tmp, open(tmp, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", CHECKPOINT_VERSION))
        fh.write(struct.pack("<I", len(config_blob)))
        fh.write(config_blob)
        fh.write(vocab_digest)
        for _, param in model.parameters():
            fh.write(np.ascontiguousarray(param.data, dtype="<f4").tobytes())


def load_checkpoint(path: str | Path, vocab: TagVocabulary) -> TripletModel:
    """Rebuild a model from a checkpoint, verifying it matches the vocabulary."""
    blob = Path(path).read_bytes()
    offset = 0

    def take(n: int, what: str) -> bytes:
        nonlocal offset
        if offset + n > len(blob):
            raise TruncatedCheckpointError(f"truncated checkpoint: {what} ends at byte {len(blob)} of {offset + n}")
        piece = blob[offset : offset + n]
        offset += n
        return piece

    magic = take(len(CHECKPOINT_MAGIC), "magic")
    if magic != CHECKPOINT_MAGIC:
        raise CheckpointError(f"not a checkpoint: bad magic {magic!r}")
    (version,) = struct.unpack("<I", take(4, "version"))
    if version != CHECKPOINT_VERSION:
        raise VersionMismatchError(f"checkpoint format version {version}, expected {CHECKPOINT_VERSION}")
    (config_len,) = struct.unpack("<I", take(4, "config length"))
    try:
        payload = json.loads(take(config_len, "config").decode("utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise CheckpointError(f"unreadable checkpoint config: {exc}") from exc
    config = ModelConfig.from_json_dict(payload)

    stored_digest = take(32, "vocabulary hash")
    actual_digest = bytes.fromhex(vocab.content_hash())
    if stored_digest != actual_digest:
        raise VocabHashMismatchError(
            f"checkpoint vocabulary hash {stored_digest.hex()[:12]} does not match "
            f"the supplied vocabulary {actual_digest.hex()[:12]}"
        )

    model = TripletModel(config, vocab)
    for name, param in model.parameters():
        raw = take(param.data.size * 4, f"parameter {name}")
        param.data = np.frombuffer(raw, dtype="<f4").astype(np.float32).reshape(param.data.shape)
    if offset != len(blob):
        raise CheckpointError(f"checkpoint has {len(blob) - offset} trailing bytes")
    return model
