"""Every artifact writer replaces its file whole, or leaves the old one as it was."""

from __future__ import annotations

import numpy as np
import pytest

from conftest import tiny_model_config
from tagrec.eval import MetricsReport, write_json
from tagrec.model import TripletModel, save_checkpoint
from tagrec.train import write_loss_trace
from tagrec.vocab import TagVocabulary

ROW = {"p@1": 1.0, "r@1": 0.5, "f1@1": 2 / 3}


def _report(rows: list[dict]) -> MetricsReport:
    means = {1: 0.5}
    return MetricsReport(count=len(rows), ks=(1,), precision=means, recall=means, f1=means, per_instance=tuple(rows))


def _model(unsaveable: bool = False) -> TripletModel:
    vocab = TagVocabulary(tags=("a", "b", "c"), counts=(3, 2, 1), theta=1)
    model = TripletModel(tiny_model_config(40, 3, components=("title",)), vocab, seed=0)
    if unsaveable:
        model.classifier_bias.data = np.array(["not a number"] * 3)
    return model


# (good write, write that fails after it has started), each given the target path.
WRITERS = {
    "write_json": (
        lambda p: write_json({"a": 1, "b": [1, 2]}, p),
        lambda p: write_json({"a": 2, "b": object()}, p),
    ),
    "write_loss_trace": (
        lambda p: write_loss_trace([(1, 1e-3, 0.69)], p),
        lambda p: write_loss_trace([(1, 1e-3, 0.5), (2, 1e-3)], p),
    ),
    "write_per_instance_csv": (
        lambda p: _report([ROW]).write_per_instance_csv(p),
        lambda p: _report([{**ROW, "p@1": 0.0}, {"p@1": 0.0}]).write_per_instance_csv(p),
    ),
    "save_checkpoint": (
        lambda p: save_checkpoint(_model(), p),
        lambda p: save_checkpoint(_model(unsaveable=True), p),
    ),
}


@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_failed_write_keeps_the_previous_artifact(writer, tmp_path):
    good, bad = WRITERS[writer]
    path = tmp_path / "artifact"
    good(path)
    before = path.read_bytes()
    assert before

    with pytest.raises((TypeError, ValueError, KeyError)):
        bad(path)

    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["artifact"]
