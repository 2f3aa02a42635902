"""Release gate: one test per shipping criterion, summarized per run.

Each test is self-contained and states the behavior it locks in. The
conftest hook prints a [PASS]/[FAILED] line per criterion after the run.
"""

from __future__ import annotations

import time
from pathlib import Path

import numpy as np
import pytest

from conftest import encode_component, finite_difference_gradient, make_sequence
from tagrec import tensor as T
from tagrec.encoder import Encoder, EncoderConfig
from tagrec.eval import (
    EvalInstance,
    build_eval_instances,
    cliffs_delta,
    evaluate_corpus,
    f1_at_k,
    latency_bench,
    precision_at_k,
    recall_at_k,
    wilcoxon_signed_rank,
)
from tagrec.ingest import DecomposedPost, decompose, parse_dump, write_corpus
from tagrec.model import (
    ModelConfig,
    TripletModel,
    encode_post,
    load_checkpoint,
    save_checkpoint,
)
from tagrec.tokenizer import CLS_ID, SEP_ID, TokenSequence, encode, tokenize, train_tokenizer
from tagrec.train import TrainConfig, bce_loss, build_dataset, train
from tagrec.vocab import TagVocabulary, build_tag_vocab

FIXTURES = Path(__file__).parent / "fixtures"

GROUP_WORDS = ("alpha", "bravo", "charlie", "delta")
GROUP_TAGS = [f"{w}-{j}" for w in GROUP_WORDS for j in range(5)]


def grouped_posts(n: int, keyword_components: tuple[str, ...]) -> list[DecomposedPost]:
    """Synthetic corpus: post i belongs to group i % 4 and carries exactly
    that group's five tags; the group keyword appears only in the named
    components, everything else is constant filler."""
    posts = []
    for i in range(n):
        g = i % 4
        word = GROUP_WORDS[g]
        texts = {
            "title": f"how to use {word} case {i}" if "title" in keyword_components else "a question title",
            "description": f"question about {word} number {i}" if "description" in keyword_components else "a question description",
            "code": f"import {word}\nrun({i})" if "code" in keyword_components else "run()",
        }
        posts.append(
            DecomposedPost(
                id=i + 1,
                creation_date=f"2021-01-01T{i // 3600:02d}:{(i // 60) % 60:02d}:{i % 60:02d}",
                title=texts["title"],
                description=texts["description"],
                code=texts["code"],
                tags=tuple(GROUP_TAGS[g * 5 : (g + 1) * 5]),
            )
        )
    return posts


def triplet_config(tok_vocab: int, num_tags: int, components=("title", "description", "code"), **enc_kwargs) -> ModelConfig:
    encoders = {c: EncoderConfig(vocab_size=tok_vocab, **enc_kwargs) for c in components}
    return ModelConfig(components=components, encoders=encoders, num_tags=num_tags)


def test_criterion_01_metrics_match_brute_force_on_random_instances(rng):
    """1,000 random rankings over a 50-tag pool: every per-instance score and
    every corpus mean agrees with a from-scratch set-arithmetic computation
    to 1e-12, in under five seconds."""
    pool = [f"tag{i:02d}" for i in range(50)]
    started = time.perf_counter()
    instances = []
    for _ in range(1000):
        gt = frozenset(rng.choice(pool, size=int(rng.integers(1, 6)), replace=False))
        ranked = tuple(rng.choice(pool, size=5, replace=False))
        instances.append(EvalInstance(ground_truth=gt, ranked_prediction=ranked))

    report = evaluate_corpus(instances, ks=(1, 2, 3, 4, 5))

    for k in (1, 2, 3, 4, 5):
        expected_rows = []
        for inst in instances:
            hits = len(set(inst.ranked_prediction[:k]) & inst.ground_truth)
            p = hits / k
            r = hits / (k if len(inst.ground_truth) > k else len(inst.ground_truth))
            f = 0.0 if p + r == 0 else 2 * p * r / (p + r)
            expected_rows.append((p, r, f))
        for row, (p, r, f) in zip(report.per_instance, expected_rows):
            assert abs(row[f"p@{k}"] - p) <= 1e-12
            assert abs(row[f"r@{k}"] - r) <= 1e-12
            assert abs(row[f"f1@{k}"] - f) <= 1e-12
        n = len(instances)
        assert abs(report.precision[k] - sum(p for p, _, _ in expected_rows) / n) <= 1e-12
        assert abs(report.recall[k] - sum(r for _, r, _ in expected_rows) / n) <= 1e-12
        assert abs(report.f1[k] - sum(f for _, _, f in expected_rows) / n) <= 1e-12

    assert time.perf_counter() - started < 5.0


def test_criterion_02_worked_example_scores_point_eight():
    """Five true tags, four recovered in the top five: precision, recall,
    and F1 at five all equal 0.8 exactly."""
    instance = EvalInstance(
        ground_truth=frozenset({"python", "machine-learning", "neural-network", "tensorflow", "keras"}),
        ranked_prediction=("python", "pytorch", "neural-network", "tensorflow", "keras"),
    )
    assert precision_at_k(instance, 5) == pytest.approx(0.8, abs=1e-15)
    assert recall_at_k(instance, 5) == pytest.approx(0.8, abs=1e-15)
    assert f1_at_k(instance, 5) == pytest.approx(0.8, abs=1e-15)


def test_criterion_03_every_gradient_matches_finite_differences(rng):
    """1-layer, 2-head, d=8 triplet model, 5 tags, 3 posts: each of the
    ~2,700 parameter scalars agrees with 64-bit central differences at
    h=1e-4 within max(1e-4 * |numeric|, 1e-6), in under a minute."""
    started = time.perf_counter()
    vocab = TagVocabulary(tags=tuple(f"t{i}" for i in range(5)), counts=(9, 8, 7, 6, 5), theta=1)
    config = triplet_config(24, 5, layers=1, heads=2, model_dim=8, ffn_dim=16, max_positions=6)
    model = TripletModel(config, vocab, seed=11, dtype=np.float64)

    def sequence(length: int) -> TokenSequence:
        ids = np.zeros(6, dtype=np.int32)
        mask = np.zeros(6, dtype=bool)
        ids[:length] = rng.integers(0, 24, length)
        mask[:length] = True
        return TokenSequence(ids=ids, mask=mask)

    batch = {}
    for component in config.components:
        seqs = [sequence(n) for n in (6, 4, 3)]
        batch[component] = (np.stack([s.ids for s in seqs]), np.stack([s.mask for s in seqs]))
    targets = (rng.random((3, 5)) < 0.4).astype(np.float64)
    targets[np.arange(3), rng.integers(0, 5, 3)] = 1.0

    def loss_fn() -> T.Tensor:
        return bce_loss(model.forward(batch), targets)

    loss_fn().backward()
    for name, param in model.parameters():
        numeric = finite_difference_gradient(loss_fn, param, h=1e-4)
        err = np.abs(param.grad - numeric)
        tol = np.maximum(1e-4 * np.abs(numeric), 1e-6)
        assert np.all(err <= tol), f"{name}: worst {float((err - tol).max()):.3e} over tolerance"
    assert time.perf_counter() - started < 60.0


def test_criterion_04_learnable_end_to_end_at_default_width():
    """64 synthetic posts over 20 tags, 2-layer/4-head/d=128/ffn=512
    encoders: 160 optimization steps reach training-set F1@5 of at least
    0.95, in under five minutes."""
    started = time.perf_counter()
    posts = grouped_posts(64, keyword_components=("title", "description", "code"))
    vocab = build_tag_vocab(posts, theta=1)
    assert len(vocab) == 20
    text = "\n".join(f"{p.title}\n{p.description}\n{p.code}" for p in posts)
    tok = train_tokenizer(text, vocab_size=300)
    config = triplet_config(
        tok.vocab_size, 20, layers=2, heads=4, model_dim=128, ffn_dim=512, max_positions=16
    )
    model = TripletModel(config, vocab, seed=0)
    dataset = build_dataset(posts, tok, config, vocab)

    trace = train(model, dataset, TrainConfig(batch_size=16, initial_lr=1e-3, epochs=40, seed=0))
    assert len(trace) == 160
    assert len(trace) <= 300

    report = evaluate_corpus(build_eval_instances(model, tok, posts, top_n=5))
    assert report.f1[5] >= 0.95
    assert time.perf_counter() - started < 300.0


def test_criterion_05_code_only_signal_needs_the_code_tower():
    """Tags are decided solely by a keyword in the code component. The twin
    without the code tower sees identical inputs for every post and lands at
    F1@5 = 0.25; the full triplet separates the groups and scores >= 0.9."""
    posts = grouped_posts(40, keyword_components=("code",))
    vocab = build_tag_vocab(posts, theta=1)
    text = "\n".join(f"{p.title}\n{p.description}\n{p.code}" for p in posts)
    tok = train_tokenizer(text, vocab_size=300)

    def run(components: tuple[str, ...]) -> float:
        encoders = {
            c: EncoderConfig(vocab_size=tok.vocab_size, layers=1, heads=2, model_dim=32, ffn_dim=64, max_positions=16)
            for c in components
        }
        config = ModelConfig(components=components, encoders=encoders, num_tags=len(vocab))
        model = TripletModel(config, vocab, seed=0)
        dataset = build_dataset(posts, tok, config, vocab)
        train(model, dataset, TrainConfig(batch_size=8, initial_lr=3e-3, epochs=40, seed=0))
        return evaluate_corpus(build_eval_instances(model, tok, posts, top_n=5)).f1[5]

    full = run(("title", "description", "code"))
    without_code = run(("title", "description"))
    assert full >= 0.9
    assert without_code <= 0.3


def test_criterion_06_truncation_windows_token_by_token():
    """A 600-token document packed to 512: head keeps tokens 1-510, tail
    keeps tokens 91-600, each verified position by position."""
    text = "".join(chr(33 + (i % 91)) for i in range(600))
    tok = train_tokenizer(text, vocab_size=260)
    stream = tokenize(tok, text)
    assert len(stream) == 600

    head = encode(tok, text, max_len=512, strategy="head_only")
    assert head.ids[0] == CLS_ID
    assert head.ids[1:511].tolist() == stream[0:510]
    assert head.ids[511] == SEP_ID
    assert bool(head.mask.all())

    tail = encode(tok, text, max_len=512, strategy="tail_only")
    assert tail.ids[0] == CLS_ID
    assert tail.ids[1:511].tolist() == stream[90:600]
    assert tail.ids[511] == SEP_ID
    assert bool(tail.mask.all())


def test_criterion_07_padding_to_512_leaves_embeddings_unchanged():
    """The same content packed to length 16 and to length 512 pools to
    component embeddings equal within 1e-6."""
    config = EncoderConfig(vocab_size=300, layers=2, heads=4, model_dim=32, ffn_dim=64, max_positions=512)
    encoder = Encoder(config, seed=3)
    content = [7, 19, 3, 3, 30, 5, 42]
    short = encode_component(encoder, make_sequence(content, max_len=16))
    long = encode_component(encoder, make_sequence(content, max_len=512))
    assert float(np.max(np.abs(short - long))) < 1e-6


def test_criterion_08_golden_ingestion_and_rare_tag_boundary(tmp_path):
    """The 20-post dump fixture decomposes to the byte-identical golden
    JSONL, and the rare-tag threshold keeps a count-50 tag while dropping a
    count-49 tag."""
    posts = [decompose(p) for p in parse_dump(FIXTURES / "posts_fixture.xml")]
    assert len(posts) == 20
    out = tmp_path / "corpus.jsonl"
    write_corpus(posts, out)
    assert out.read_bytes() == (FIXTURES / "posts_golden.jsonl").read_bytes()

    boundary = [
        DecomposedPost(id=i + 1, creation_date="2020-01-01T00:00:00", title="t", description="d", code="", tags=("kept",) if i < 50 else ("dropped",))
        for i in range(99)
    ]
    vocab = build_tag_vocab(boundary, theta=50)
    assert "kept" in vocab and vocab.counts[vocab.index["kept"]] == 50
    assert "dropped" not in vocab


def test_criterion_09_signed_rank_and_dominance_statistics():
    """Ten pairs shifted by a constant give the exact two-sided p of 2/1024;
    dominance fractions of 0, .1, .2, .4, .6 earn the conventional labels."""
    base = np.linspace(1.0, 10.0, 10)
    assert wilcoxon_signed_rank(base + 0.5, base) == pytest.approx(2.0 / 1024.0, abs=0)

    labels = {}
    for tenths in (0, 1, 2, 4, 6):
        a = [2.0] * tenths + [1.0] * (10 - tenths)
        effect = cliffs_delta(a, [1.0] * 10)
        assert effect.delta == pytest.approx(tenths / 10.0, abs=1e-15)
        labels[tenths / 10.0] = effect.magnitude
    assert labels == {0.0: "negligible", 0.1: "negligible", 0.2: "small", 0.4: "medium", 0.6: "large"}


def test_criterion_10_smaller_encoder_is_strictly_faster():
    """Measured over the same sampled posts, the 1-layer/d=64 model's mean
    single-post latency is strictly below the 2-layer/d=128 default, and the
    report carries the full statistic set."""
    posts = grouped_posts(8, keyword_components=("title", "description", "code"))
    vocab = build_tag_vocab(posts, theta=1)
    text = "\n".join(f"{p.title}\n{p.description}\n{p.code}" for p in posts)
    tok = train_tokenizer(text, vocab_size=300)

    def bench(layers: int, model_dim: int):
        config = triplet_config(
            tok.vocab_size, len(vocab), layers=layers, heads=4, model_dim=model_dim, ffn_dim=512, max_positions=64
        )
        model = TripletModel(config, vocab, seed=0)
        return latency_bench(model, tok, posts, sample_n=6, repeats=2, seed=0)

    default = bench(layers=2, model_dim=128)
    small = bench(layers=1, model_dim=64)
    assert small.mean < default.mean
    for stats in (default, small):
        payload = stats.to_json_dict()
        assert {"std", "min", "25%", "50%", "75%", "max", "mean"} <= set(payload)
        assert payload["min"] <= payload["25%"] <= payload["50%"] <= payload["75%"] <= payload["max"]


def test_criterion_11_checkpoint_round_trip_is_bit_exact_on_100_posts(tmp_path):
    """Save then load, and every probability on 100 posts built from the
    ingestion fixture is bit-identical."""
    base = [decompose(p) for p in parse_dump(FIXTURES / "posts_fixture.xml")]
    posts = []
    for i in range(100):
        src = base[i % len(base)]
        posts.append(DecomposedPost(
            id=i + 1, creation_date=src.creation_date, title=src.title,
            description=src.description, code=src.code, tags=src.tags,
        ))
    vocab = build_tag_vocab(posts, theta=1)
    text = "\n".join(f"{p.title}\n{p.description}\n{p.code}" for p in base)
    tok = train_tokenizer(text, vocab_size=300)
    config = triplet_config(
        tok.vocab_size, len(vocab), layers=1, heads=2, model_dim=16, ffn_dim=32, max_positions=32
    )
    model = TripletModel(config, vocab, seed=4)
    dataset = build_dataset(posts[:16], tok, config, vocab)
    train(model, dataset, TrainConfig(batch_size=8, initial_lr=1e-3, epochs=1, seed=0))

    path = tmp_path / "model.ckpt"
    save_checkpoint(model, path)
    loaded = load_checkpoint(path, vocab)

    for post in posts:
        seqs = encode_post(post, tok, config)
        before = model.predict(seqs)
        after = loaded.predict(seqs)
        assert np.array_equal(before.probabilities, after.probabilities)
        assert np.array_equal(before.ranked, after.ranked)
