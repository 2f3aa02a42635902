"""The benchmark's own stages: the encode pass and closed-loop prediction.

``encode`` loads the checkpoint's configuration and packs every post of the
filtered corpus with ``model.encode_post``, timing the pass. ``serve`` loads
the checkpoint once, warms up, then acts as a single caller that times
``encode_post`` -> ``TripletModel.predict`` -> ``predict_top_k`` on each
held-out post, in whole rounds over them. The first round's rankings and
probabilities are written out for the output checks, and two properties of
the program are tested after timing: the tokenizer round-trips every
component text, and cutting a post's sequences to their real length leaves
its probabilities unchanged.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np

from tagrec import ingest
from tagrec import model as M
from tagrec import tokenizer as TK
from tagrec.vocab import TagVocabulary

TOP_K = 5
WARMUP_CALLS = 3
PADDING_SAMPLE = 4


def _load(config: dict):
    vocab = TagVocabulary.from_json(Path(config["vocab"]).read_text(encoding="utf-8"))
    tok = TK.Tokenizer.from_json(Path(config["tokenizer"]).read_text(encoding="utf-8"))
    return tok, M.load_checkpoint(config["checkpoint"], vocab)


def encode(config: dict) -> dict:
    tok, model = _load(config)
    corpus = ingest.read_corpus(config["corpus"])
    start = time.perf_counter()
    for post in corpus:
        M.encode_post(post, tok, model.config)
    return {"posts": len(corpus), "seconds": time.perf_counter() - start}


def serve(config: dict, tracer=None) -> dict:
    tok, model = _load(config)
    corpus = ingest.read_corpus(config["corpus"])
    held_out = ingest.read_corpus(config["test_corpus"])

    def call(post):
        pred = model.predict(M.encode_post(post, tok, model.config))
        return pred, M.predict_top_k(pred, TOP_K)

    for post in held_out[:WARMUP_CALLS]:
        call(post)

    latencies_ms = []
    rankings = []
    start = time.perf_counter()
    while True:
        for post in held_out:
            t0 = time.perf_counter()
            pred, top = call(post)
            latencies_ms.append((time.perf_counter() - t0) * 1000.0)
            if len(rankings) < len(held_out):
                rankings.append({"id": post.id, "top": top, "probs": pred.probabilities[pred.ranked].tolist()})
        if config["min_seconds"] is None:
            break
        if len(latencies_ms) >= config["min_calls"] and time.perf_counter() - start >= config["min_seconds"]:
            break
    if tracer is not None:
        tracer.uninstall()

    return {
        "latencies_ms": latencies_ms,
        "rankings": rankings,
        "roundtrip_failures": _roundtrip_failures(tok, corpus),
        "padding_max_diff": _padding_max_diff(model, tok, held_out[:PADDING_SAMPLE]),
    }


def _roundtrip_failures(tok, posts) -> list:
    """Component texts for which decode(tokenize(t)) != t (first few only)."""
    failures = []
    for post in posts:
        for field in ("title", "description", "code"):
            text = getattr(post, field)
            if TK.decode(tok, TK.tokenize(tok, text)) != text and len(failures) < 5:
                failures.append([post.id, field])
    return failures


def _padding_max_diff(model, tok, posts) -> float:
    """Largest probability change from cutting every sequence to its real length."""
    worst = 0.0
    for post in posts:
        seqs = M.encode_post(post, tok, model.config)
        padded = model.predict(seqs).probabilities
        cut = {c: (seq.ids[None, : seq.length], seq.mask[None, : seq.length]) for c, seq in seqs.items()}
        probs = model.forward(cut).data[0]
        worst = max(worst, float(np.abs(probs - padded).max()))
    return worst


def main(kind: str, config_path: str, out_path: str, tracer=None) -> None:
    config = json.loads(Path(config_path).read_text(encoding="utf-8"))
    result = encode(config) if kind == "encode" else serve(config, tracer)
    Path(out_path).write_text(json.dumps(result), encoding="utf-8")
