"""The benchmark's workloads: dump make-up, pipeline settings, model shape.

Why each workload exists is recorded in ``BENCHMARK.json`` and the README.
Training runs on a slice of the filtered corpus (its first ``train_posts +
test_posts`` posts), because one padded default-shape post costs about
0.4 s per training step on the reference machine; ``--test-count`` then
holds out the ``test_posts`` newest posts of that slice for evaluation and
prediction. The batch is one that fits in memory: the documented
``--batch-size 64`` does not (see CHANGES.md).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from gen import DumpSpec

# The CLI's default encoder shape: 2 layers, 4 heads, width 128, FFN 512,
# lengths 100/512/512.
DEFAULT_SHAPE = {
    "layers": 2, "heads": 4, "model_dim": 128, "ffn_dim": 512,
    "title_len": 100, "description_len": 512, "code_len": 512,
}

# Larger than the CLI's 7e-5 so that a handful of steps lowers the loss by
# more than the loss varies between batches (the loss-trace check).
TRAIN_LR = 1e-3


@dataclass(frozen=True)
class Workload:
    dump: DumpSpec
    theta: int
    vocab_size: int
    batch_size: int
    train_posts: int
    test_posts: int
    shape: dict = field(default_factory=lambda: dict(DEFAULT_SHAPE))

    def train_flags(self) -> list[str]:
        flags = {**self.shape, "batch_size": self.batch_size, "lr": TRAIN_LR, "test_count": self.test_posts}
        return [arg for key, value in flags.items() for arg in (f"--{key.replace('_', '-')}", str(value))]


WORKLOADS = {
    "so-mix": Workload(
        dump=DumpSpec(questions=800),
        theta=15,
        vocab_size=512,
        batch_size=4,
        train_posts=8,
        test_posts=20,
    ),
    "prep-heavy": Workload(
        dump=DumpSpec(
            questions=2000,
            answers=1400,
            untagged=200,
            overtagged=100,
            title_words=(5, 15),
            description_words=(20, 200),
            rare_share=0.3,
        ),
        theta=25,
        vocab_size=600,
        batch_size=16,
        train_posts=640,
        test_posts=500,
        shape={
            "layers": 1, "heads": 2, "model_dim": 32, "ffn_dim": 64,
            "title_len": 32, "description_len": 64, "code_len": 64,
        },
    ),
}
