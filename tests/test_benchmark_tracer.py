"""The benchmark's tracer (perfbench/tracing.py) wraps tagrec names that exist.

``install`` looks every name up with getattr, so a deleted or renamed
function would otherwise break only a traced benchmark run.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

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
