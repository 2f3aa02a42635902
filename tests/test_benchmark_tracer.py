"""The benchmark's tracer (perfbench/tracing.py) wraps tagrec names that exist.

``install`` looks every name up with getattr, so a deleted or renamed
function would otherwise break only a traced benchmark run.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

from test_train import tiny_training_setup

from tagrec import model, tensor, train

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_install_finds_every_name_and_uninstall_restores_it():
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        patched = list(tracer._patches)
    finally:
        tracer.uninstall()

    owners = {(target, key) for target, key, _ in patched}
    for expected in (
        (tensor, "layer_norm"),
        (tensor, "topo_order"),
        (model, "encode_post"),
        (model.TripletModel, "predict"),
        (train.Adam, "step"),
    ):
        assert expected in owners
    for target, key, original in patched:
        assert getattr(target, key) is original, f"{target.__name__}.{key} is still wrapped"


def test_training_forward_and_backward_are_attributed_to_train():
    # summarize credits train.forward_s and train.backward_s only to spans
    # whose direct parent is train.train.
    tracing = _load_tracing()
    model_, dataset = tiny_training_setup(num_posts=4, seed=8)
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        train.train(model_, dataset, train.TrainConfig(batch_size=2, epochs=1))
    finally:
        tracer.uninstall()
    total, _, counts = tracing.summarize([{"spans": tracer.spans, "counts": dict(tracer.counts)}])
    assert counts["train.steps"] == 2
    assert total.get("train.model.forward", 0.0) > 0
    assert total.get("train.tensor.backward", 0.0) > 0
