"""Span tracing of the tagrec layers from outside the package.

``install`` wraps the public functions of each module, in every module
that imported them, so that each call records a span (name, start, end,
parent) and the counts that go with it. Spans stay in memory and are
written out once, when the traced stage ends. ``layer_metrics`` turns the
spans of all stages of one run into the per-layer metrics; a span's self
time is its duration minus the durations of its children.
"""

from __future__ import annotations

import importlib
import json
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter
from typing import Callable

# Per-layer metrics reported by a traced run: name -> (unit, better).
METRICS = {
    "ingest.parse_s": ("s", "lower"),
    "ingest.decompose_s": ("s", "lower"),
    "ingest.write_s": ("s", "lower"),
    "ingest.read_corpus_s": ("s", "lower"),
    "ingest.rows": ("count", "higher"),
    "ingest.posts": ("count", "higher"),
    "vocab.build_s": ("s", "lower"),
    "vocab.filter_s": ("s", "lower"),
    "tokenizer.train_s": ("s", "lower"),
    "tokenizer.merges": ("count", "higher"),
    "tokenizer.encode_s": ("s", "lower"),
    "tokenizer.encode_calls": ("count", "lower"),
    "tokenizer.tokens_produced": ("count", "lower"),
    "tokenizer.tokens_kept": ("count", "higher"),
    "tokenizer.kept_token_share": ("ratio", "higher"),
    "tensor.embedding_s": ("s", "lower"),
    "tensor.proj_matmul_s": ("s", "lower"),
    "tensor.attn_matmul_s": ("s", "lower"),
    "tensor.softmax_s": ("s", "lower"),
    "tensor.layer_norm_s": ("s", "lower"),
    "tensor.gelu_s": ("s", "lower"),
    "tensor.pool_s": ("s", "lower"),
    "tensor.elementwise_s": ("s", "lower"),
    "tensor.layout_s": ("s", "lower"),
    "tensor.sigmoid_s": ("s", "lower"),
    "tensor.op_calls": ("count", "lower"),
    "tensor.backward_s": ("s", "lower"),
    "tensor.backward_calls": ("count", "lower"),
    "tensor.graph_nodes": ("count", "lower"),
    "encoder.title_s": ("s", "lower"),
    "encoder.description_s": ("s", "lower"),
    "encoder.code_s": ("s", "lower"),
    "encoder.positions": ("count", "lower"),
    "encoder.real_positions": ("count", "higher"),
    "encoder.real_position_share": ("ratio", "higher"),
    "model.forward_s": ("s", "lower"),
    "model.head_s": ("s", "lower"),
    "model.predict_s": ("s", "lower"),
    "model.encode_post_s": ("s", "lower"),
    "model.infer_graph_forwards": ("count", "lower"),
    "model.save_s": ("s", "lower"),
    "model.load_s": ("s", "lower"),
    "train.build_dataset_s": ("s", "lower"),
    "train.forward_s": ("s", "lower"),
    "train.loss_s": ("s", "lower"),
    "train.backward_s": ("s", "lower"),
    "train.optimizer_s": ("s", "lower"),
    "train.steps": ("count", "higher"),
    "eval.build_instances_s": ("s", "lower"),
    "eval.score_s": ("s", "lower"),
    "eval.forwards_per_post": ("forwards/post", "lower"),
    "cli.ingest_s": ("s", "lower"),
    "cli.build_vocab_s": ("s", "lower"),
    "cli.tokenizer_train_s": ("s", "lower"),
    "cli.train_s": ("s", "lower"),
    "cli.evaluate_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}

# tensor op families, each timed as tensor.<family>_s.
TENSOR_FAMILIES = {
    "embedding": ("embedding",),
    "softmax": ("softmax",),
    "layer_norm": ("layer_norm",),
    "gelu": ("gelu",),
    "pool": ("masked_mean", "masked_max", "select_position"),
    "elementwise": ("add", "mul", "log", "clip", "total"),
    "layout": ("reshape", "transpose", "concat"),
    "sigmoid": ("sigmoid",),
}
CLI_COMMANDS = ("ingest", "build_vocab", "tokenizer_train", "train", "evaluate")

_DONE = object()


class Tracer:
    """In-memory span recorder plus the patches that feed it."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.active = True

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, perf_counter(), 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self._stack.pop()

    def parent_name(self) -> str | None:
        return self.spans[self._stack[-1]][0] if self._stack else None

    def wrap(self, name: str | Callable, fn: Callable, after: Callable | None = None) -> Callable:
        """fn recording one span per call; name may be computed from the arguments."""

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = self._open(name(args) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if after is not None:
                after(args, result)
            return result

        return traced

    def wrap_iter(self, name: str, fn: Callable, after: Callable | None = None) -> Callable:
        """Generator function recording one span per item pulled from it."""

        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            items = 0
            while True:
                idx = self._open(name)
                try:
                    item = next(it, _DONE)
                finally:
                    self._close(idx)
                if item is _DONE:
                    break
                items += 1
                yield item
            if after is not None:
                after(args, items)

        return traced

    def patch(self, owner: object, attr: str, make: Callable[[Callable], Callable]) -> None:
        """Replace owner.attr, and every tagrec module binding of the same object."""
        orig = getattr(owner, attr)
        new = make(orig)
        targets = [(owner, attr)]
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.startswith("tagrec") and mod is not owner:
                targets += [(mod, k) for k, v in vars(mod).items() if v is orig]
        for target, key in targets:
            self._patches.append((target, key, getattr(target, key)))
            setattr(target, key, new)

    def uninstall(self) -> None:
        """Stop recording; wrappers already handed out call straight through."""
        self.active = False
        while self._patches:
            target, key, orig = self._patches.pop()
            setattr(target, key, orig)

    def dump(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps({"spans": self.spans, "counts": dict(self.counts)}), encoding="utf-8")


def install(t: Tracer) -> None:
    """Wrap the public functions of every tagrec layer."""
    # The package re-exports a function named train, so import the modules by path.
    cli, evaluation, ingest, model, tensor, tokenizer, train, vocab = (
        importlib.import_module(f"tagrec.{name}")
        for name in ("cli", "eval", "ingest", "model", "tensor", "tokenizer", "train", "vocab")
    )

    def count(key: str, value: Callable = lambda args, result: 1) -> Callable:
        def after(args, result):
            t.counts[key] += value(args, result)

        return after

    def span(name, after=None):
        return lambda fn: t.wrap(name, fn, after)

    for command in CLI_COMMANDS:
        t.patch(cli, f"cmd_{command}", span(f"cli.{command}"))

    def parsed(args, items):
        t.counts["ingest.posts"] += items
        t.counts["ingest.rows"] += args[1].rows_total

    t.patch(ingest, "parse_dump", lambda fn: t.wrap_iter("ingest.parse_dump", fn, parsed))
    for name in ("decompose_all", "write_corpus", "read_corpus"):
        t.patch(ingest, name, span(f"ingest.{name}"))
    for name in ("build_tag_vocab", "filter_posts"):
        t.patch(vocab, name, span(f"vocab.{name}"))

    t.patch(tokenizer, "train_tokenizer", span("tokenizer.train_tokenizer", count("tokenizer.merges", lambda a, r: len(r.merges))))
    t.patch(tokenizer, "tokenize", span("tokenizer.tokenize", count("tokenizer.tokens_produced", lambda a, r: len(r))))

    def encoded(args, seq):
        t.counts["tokenizer.encode_calls"] += 1
        t.counts["tokenizer.tokens_kept"] += seq.length - 2

    t.patch(tokenizer, "encode", span("tokenizer.encode", encoded))

    op_call = count("tensor.op_calls")
    for family, names in TENSOR_FAMILIES.items():
        for name in names:
            t.patch(tensor, name, span(f"tensor.{family}", op_call))

    def matmul_family(args) -> str:
        both_4d = args[0].data.ndim == 4 and args[1].data.ndim == 4
        return "tensor.attn_matmul" if both_4d else "tensor.proj_matmul"

    t.patch(tensor, "matmul", span(matmul_family, op_call))
    t.patch(tensor, "backward", span("tensor.backward", count("tensor.backward_calls")))
    t.patch(tensor, "topo_order", span("tensor.topo_order", count("tensor.graph_nodes", lambda a, r: len(r))))

    def positions(args, result):
        mask = args[1]
        t.counts["encoder.positions"] += mask.size
        t.counts["encoder.real_positions"] += int(mask.sum())

    def wrap_encoders(init):
        def traced_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            for component, enc in self.encoders.items():
                enc.forward = t.wrap(f"encoder.{component}", enc.forward, positions)

        return traced_init

    def inference_graph(args, probs):
        if t.parent_name() == "model.predict" and probs.requires_grad:
            t.counts["model.infer_graph_forwards"] += 1

    t.patch(model.TripletModel, "__init__", wrap_encoders)
    t.patch(model.TripletModel, "forward", span("model.forward", inference_graph))
    t.patch(model.TripletModel, "predict", span("model.predict"))
    for name in ("encode_post", "save_checkpoint", "load_checkpoint"):
        t.patch(model, name, span(f"model.{name}"))

    for name in ("build_dataset", "train", "bce_loss"):
        t.patch(train, name, span(f"train.{name}"))
    t.patch(train.Adam, "step", span("train.optimizer_step", count("train.steps")))
    t.patch(evaluation, "build_eval_instances", span("eval.build_eval_instances", count("eval.posts", lambda a, r: len(r))))
    t.patch(evaluation, "evaluate_corpus", span("eval.evaluate_corpus"))


def _has_ancestor(spans: list, idx: int, name: str) -> bool:
    while idx >= 0:
        if spans[idx][0] == name:
            return True
        idx = spans[idx][3]
    return False


def summarize(stage_traces: list[dict]) -> tuple[dict[str, float], dict[str, float], Counter]:
    """Total and self seconds per span name, plus counts, over all stages."""
    total: Counter = Counter()
    own: Counter = Counter()
    counts: Counter = Counter()
    for trace in stage_traces:
        spans = trace["spans"]
        child_time = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child_time[parent] += end - start
        for i, (name, start, end, parent) in enumerate(spans):
            total[name] += end - start
            own[name] += end - start - child_time[i]
            parent_name = spans[parent][0] if parent >= 0 else None
            if parent_name == "train.train" and name in ("model.forward", "tensor.backward"):
                total[f"train.{name}"] += end - start
            if name == "model.forward" and _has_ancestor(spans, parent, "eval.build_eval_instances"):
                counts["eval.forwards"] += 1
        counts.update(trace["counts"])
    return dict(total), dict(own), counts


def layer_metrics(stage_traces: list[dict], overhead_s: float) -> dict[str, float]:
    total, own, counts = summarize(stage_traces)
    s = lambda name: total.get(name, 0.0)
    ratio = lambda a, b: a / b if b else 0.0
    encoders = s("encoder.title") + s("encoder.description") + s("encoder.code")
    values = {
        "ingest.parse_s": s("ingest.parse_dump"),
        "ingest.decompose_s": s("ingest.decompose_all"),
        "ingest.write_s": s("ingest.write_corpus"),
        "ingest.read_corpus_s": s("ingest.read_corpus"),
        "ingest.rows": counts["ingest.rows"],
        "ingest.posts": counts["ingest.posts"],
        "vocab.build_s": s("vocab.build_tag_vocab"),
        "vocab.filter_s": s("vocab.filter_posts"),
        "tokenizer.train_s": s("tokenizer.train_tokenizer"),
        "tokenizer.merges": counts["tokenizer.merges"],
        "tokenizer.encode_s": s("tokenizer.encode"),
        "tokenizer.encode_calls": counts["tokenizer.encode_calls"],
        "tokenizer.tokens_produced": counts["tokenizer.tokens_produced"],
        "tokenizer.tokens_kept": counts["tokenizer.tokens_kept"],
        "tokenizer.kept_token_share": ratio(counts["tokenizer.tokens_kept"], counts["tokenizer.tokens_produced"]),
        **{f"tensor.{family}_s": s(f"tensor.{family}") for family in TENSOR_FAMILIES},
        "tensor.proj_matmul_s": s("tensor.proj_matmul"),
        "tensor.attn_matmul_s": s("tensor.attn_matmul"),
        "tensor.op_calls": counts["tensor.op_calls"],
        "tensor.backward_s": s("tensor.backward"),
        "tensor.backward_calls": counts["tensor.backward_calls"],
        "tensor.graph_nodes": counts["tensor.graph_nodes"],
        "encoder.title_s": s("encoder.title"),
        "encoder.description_s": s("encoder.description"),
        "encoder.code_s": s("encoder.code"),
        "encoder.positions": counts["encoder.positions"],
        "encoder.real_positions": counts["encoder.real_positions"],
        "encoder.real_position_share": ratio(counts["encoder.real_positions"], counts["encoder.positions"]),
        "model.forward_s": s("model.forward"),
        "model.head_s": s("model.forward") - encoders,
        "model.predict_s": s("model.predict"),
        "model.encode_post_s": s("model.encode_post"),
        "model.infer_graph_forwards": counts["model.infer_graph_forwards"],
        "model.save_s": s("model.save_checkpoint"),
        "model.load_s": s("model.load_checkpoint"),
        "train.build_dataset_s": s("train.build_dataset"),
        "train.forward_s": s("train.model.forward"),
        "train.loss_s": s("train.bce_loss"),
        "train.backward_s": s("train.tensor.backward"),
        "train.optimizer_s": s("train.optimizer_step"),
        "train.steps": counts["train.steps"],
        "eval.build_instances_s": s("eval.build_eval_instances"),
        "eval.score_s": s("eval.evaluate_corpus"),
        "eval.forwards_per_post": ratio(counts["eval.forwards"], counts["eval.posts"]),
        # Command time outside every layer span: argument handling, artifact loading and writing.
        **{f"cli.{command}_s": own.get(f"cli.{command}", 0.0) for command in CLI_COMMANDS},
        "trace.overhead_s": overhead_s,
    }
    return {name: float(values[name]) for name in METRICS}
