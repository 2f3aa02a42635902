"""Loss function, LR schedule, Adam arithmetic, and the training loop."""

from __future__ import annotations

import csv
import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import finite_difference_gradient, make_post, tiny_model_config
from tagrec import tensor as T
from tagrec.model import TripletModel
from tagrec.tokenizer import train_tokenizer
from tagrec.train import (
    Adam,
    TrainConfig,
    TrainConfigError,
    TrainingDivergedError,
    accumulate_gradients,
    bce_loss,
    build_dataset,
    clip_gradients,
    lr_at,
    target_vector,
    train,
    write_loss_trace,
)
from tagrec.vocab import TagVocabulary


def make_vocab(tags: tuple[str, ...]) -> TagVocabulary:
    return TagVocabulary(tags=tags, counts=tuple(10 for _ in tags), theta=1)


def tiny_training_setup(num_posts: int = 8, num_tags: int = 4, seed: int = 0):
    tags = tuple(f"t{i}" for i in range(num_tags))
    vocab = make_vocab(tags)
    posts = [
        make_post(i, (tags[i % num_tags],), title=f"post number {i}", code=f"x = {i}")
        for i in range(num_posts)
    ]
    tok = train_tokenizer("post number x = 0123456789", vocab_size=260)
    config = tiny_model_config(300, num_tags)
    model = TripletModel(config, vocab, seed=seed)
    dataset = build_dataset(posts, tok, config, vocab)
    return model, dataset


class TestBCE:
    def test_uniform_half_probabilities_give_two_log_two(self):
        probs = T.Tensor(np.array([[0.5, 0.5]]))
        loss = bce_loss(probs, np.array([[1.0, 0.0]]))
        assert float(loss.data) == pytest.approx(1.3862943611198906, rel=1e-12)

    def test_hand_computed_two_post_batch(self):
        probs = T.Tensor(np.array([[0.9, 0.2], [0.4, 0.7]]))
        targets = np.array([[1.0, 0.0], [0.0, 1.0]])
        want = -(math.log(0.9) + math.log(0.8) + math.log(0.6) + math.log(0.7)) / 2.0
        assert float(bce_loss(probs, targets).data) == pytest.approx(want, rel=1e-12)

    def test_saturated_probabilities_stay_finite(self):
        probs = T.Tensor(np.array([[0.0, 1.0]]))
        loss = bce_loss(probs, np.array([[1.0, 0.0]]))
        assert math.isfinite(float(loss.data))
        assert float(loss.data) == pytest.approx(-2.0 * math.log(1e-7), rel=1e-6)

    def test_batch_mean_invariant_under_duplication(self):
        probs = np.array([[0.8, 0.3], [0.6, 0.9]])
        targets = np.array([[1.0, 0.0], [1.0, 1.0]])
        single = float(bce_loss(T.Tensor(probs), targets).data)
        doubled = float(bce_loss(T.Tensor(np.tile(probs, (2, 1))), np.tile(targets, (2, 1))).data)
        assert doubled == pytest.approx(single, rel=1e-12)

    def test_gradient_matches_finite_differences(self):
        data = np.array([[0.3, 0.7, 0.5], [0.9, 0.1, 0.6]])
        targets = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
        probs = T.Tensor(data.copy(), requires_grad=True)
        bce_loss(probs, targets).backward()
        numeric = finite_difference_gradient(
            lambda: bce_loss(probs, targets), probs, h=1e-6
        )
        np.testing.assert_allclose(probs.grad, numeric.reshape(probs.shape), rtol=1e-6, atol=1e-9)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(T.ShapeError):
            bce_loss(T.Tensor(np.zeros((2, 3))), np.zeros((2, 2)))


class TestTargets:
    def test_multi_hot_layout(self):
        vocab = make_vocab(("a", "b", "c", "d"))
        np.testing.assert_array_equal(target_vector(("c", "a"), vocab), [1, 0, 1, 0])

    def test_unknown_tag_rejected(self):
        vocab = make_vocab(("a",))
        with pytest.raises(ValueError, match="not in the vocabulary"):
            target_vector(("zzz",), vocab)


class TestSchedule:
    def test_linear_decay_hand_values(self):
        config = TrainConfig(initial_lr=1e-3)
        assert lr_at(0, 10, config) == pytest.approx(1e-3)
        assert lr_at(5, 10, config) == pytest.approx(5e-4)
        assert lr_at(9, 10, config) == pytest.approx(1e-4)
        assert lr_at(10, 10, config) == 0.0

    def test_warmup_ramp_then_decay(self):
        config = TrainConfig(initial_lr=1e-3, warmup_steps=4)
        assert lr_at(0, 12, config) == pytest.approx(2.5e-4)
        assert lr_at(3, 12, config) == pytest.approx(1e-3)
        assert lr_at(4, 12, config) == pytest.approx(1e-3)
        assert lr_at(8, 12, config) == pytest.approx(5e-4)
        assert lr_at(12, 12, config) == 0.0

    @given(st.integers(0, 200), st.integers(1, 200))
    def test_rate_never_negative_never_above_initial(self, step, total):
        config = TrainConfig(initial_lr=7e-5)
        rate = lr_at(step, total, config)
        assert 0.0 <= rate <= config.initial_lr + 1e-18


class TestAdam:
    def test_first_step_matches_hand_reference(self):
        """One update on a single weight, bias correction included."""
        p = T.Tensor(np.array([1.0, -2.0]), requires_grad=True)
        p.grad = np.array([0.5, -1.5])
        config = TrainConfig(initial_lr=0.1)
        opt = Adam([("w", p)], config)
        opt.step(lr=0.1)
        g = np.array([0.5, -1.5])
        m_hat = (0.1 * g) / (1 - 0.9)
        v_hat = (0.001 * g * g) / (1 - 0.999)
        want = np.array([1.0, -2.0]) - 0.1 * m_hat / (np.sqrt(v_hat) + 1e-8)
        np.testing.assert_allclose(p.data, want, rtol=1e-12)

    def test_two_steps_accumulate_moments(self):
        p = T.Tensor(np.array([0.0]), requires_grad=True)
        config = TrainConfig(initial_lr=0.1)
        opt = Adam([("w", p)], config)
        m = v = 0.0
        x = 0.0
        for t, g in enumerate([0.4, -0.2], start=1):
            p.grad = np.array([g])
            opt.step(lr=0.05)
            m = 0.9 * m + 0.1 * g
            v = 0.999 * v + 0.001 * g * g
            x -= 0.05 * (m / (1 - 0.9**t)) / (math.sqrt(v / (1 - 0.999**t)) + 1e-8)
        assert p.data[0] == pytest.approx(x, rel=1e-10)

    def test_decoupled_weight_decay_shrinks_parameter(self):
        p = T.Tensor(np.array([2.0]), requires_grad=True)
        p.grad = np.array([0.0])
        opt = Adam([("w", p)], TrainConfig(initial_lr=0.1, weight_decay=0.5))
        opt.step(lr=0.1)
        assert p.data[0] == pytest.approx(2.0 - 0.1 * 0.5 * 2.0)

    def test_none_gradients_skipped(self):
        p = T.Tensor(np.array([1.0]), requires_grad=True)
        opt = Adam([("w", p)], TrainConfig())
        opt.step(lr=0.1)
        assert p.data[0] == 1.0

    def test_zero_grad_clears(self):
        p = T.Tensor(np.array([1.0]), requires_grad=True)
        p.grad = np.array([3.0])
        Adam([("w", p)], TrainConfig()).zero_grad()
        assert p.grad is None


class TestClipping:
    def test_norm_scaled_down_to_threshold(self):
        a = T.Tensor(np.array([3.0]), requires_grad=True)
        b = T.Tensor(np.array([4.0]), requires_grad=True)
        a.grad, b.grad = np.array([3.0]), np.array([4.0])
        norm = clip_gradients([("a", a), ("b", b)], max_norm=1.0)
        assert norm == pytest.approx(5.0)
        assert a.grad[0] == pytest.approx(0.6)
        assert b.grad[0] == pytest.approx(0.8)

    def test_small_gradients_untouched(self):
        a = T.Tensor(np.array([0.3]), requires_grad=True)
        a.grad = np.array([0.3])
        clip_gradients([("a", a)], max_norm=1.0)
        assert a.grad[0] == 0.3


class TestTrainLoop:
    def test_two_runs_are_bit_identical(self):
        traces = []
        finals = []
        for _ in range(2):
            model, dataset = tiny_training_setup(seed=5)
            trace = train(model, dataset, TrainConfig(batch_size=4, initial_lr=1e-3, epochs=2, seed=7))
            traces.append(trace)
            finals.append(np.concatenate([p.data.ravel() for _, p in model.parameters()]))
        assert traces[0] == traces[1]
        np.testing.assert_array_equal(finals[0], finals[1])

    def test_loss_decreases_on_tiny_overfit(self):
        model, dataset = tiny_training_setup(num_posts=4, seed=1)
        trace = train(model, dataset, TrainConfig(batch_size=4, initial_lr=2e-2, epochs=100, seed=0))
        assert trace[-1][2] < 0.2
        assert trace[-1][2] < trace[0][2] * 0.25

    def test_trace_steps_and_lrs(self):
        model, dataset = tiny_training_setup(num_posts=6, seed=2)
        config = TrainConfig(batch_size=4, initial_lr=1e-3, epochs=2, seed=0)
        trace = train(model, dataset, config)
        assert [s for s, _, _ in trace] == [0, 1, 2, 3]
        assert [lr for _, lr, _ in trace] == [lr_at(s, 4, config) for s in range(4)]

    def test_divergence_aborts(self):
        model, dataset = tiny_training_setup(num_posts=4, seed=3)
        model.classifier_weight.data[:] = np.nan
        before = {name: p.data.copy() for name, p in model.parameters()}
        with pytest.raises(TrainingDivergedError, match="non-finite"):
            train(model, dataset, TrainConfig(batch_size=4, epochs=1))
        for name, p in model.parameters():
            np.testing.assert_array_equal(p.data, before[name], err_msg=name)

    def test_no_graph_lives_into_the_next_step(self):
        # Tensor has __slots__ and no __weakref__, so watch the logits'
        # ndarray. Without the cyclic collector, a step's graph can die only
        # by reference counting, once nothing in train() still names it.
        model, dataset = tiny_training_setup(num_posts=8, seed=6)
        forward = model.forward
        logits: list[weakref.ref] = []
        alive_at_next_forward = []

        def watched(batch, rng=None):
            if logits:
                alive_at_next_forward.append(logits[-1]() is not None)
            probs = forward(batch, rng=rng)
            logits.append(weakref.ref(probs._parents[0].data))
            return probs

        model.forward = watched
        gc.disable()
        try:
            train(model, dataset, TrainConfig(batch_size=2, initial_lr=1e-3, epochs=1, seed=0))
        finally:
            gc.enable()
        assert alive_at_next_forward == [False, False, False]

    def test_gradients_add_across_calls(self):
        # Two half batches add up to twice the full batch's mean-loss gradient:
        # nothing zeroes or rescales grad between calls.
        model, dataset = tiny_training_setup(num_posts=8, seed=6)
        params = list(model.parameters())
        rng = np.random.default_rng(0)
        accumulate_gradients(model, dataset[:4], rng)
        accumulate_gradients(model, dataset[4:], rng)
        halves = {name: p.grad.copy() for name, p in params}
        Adam(params, TrainConfig()).zero_grad()
        accumulate_gradients(model, dataset, rng)
        for name, p in params:
            np.testing.assert_allclose(halves[name], 2.0 * p.grad, rtol=1e-5, atol=1e-7, err_msg=name)

    def test_every_parameter_moves(self):
        model, dataset = tiny_training_setup(num_posts=4, seed=4)
        before = {name: p.data.copy() for name, p in model.parameters()}
        train(model, dataset, TrainConfig(batch_size=4, initial_lr=1e-3, epochs=2, seed=0))
        for name, p in model.parameters():
            assert not np.array_equal(before[name], p.data), name

    def test_empty_dataset_rejected(self):
        model, _ = tiny_training_setup(num_posts=2)
        with pytest.raises(ValueError, match="empty"):
            train(model, [], TrainConfig())

    def test_trace_csv_round_trips_exact_floats(self, tmp_path):
        path = tmp_path / "trace.csv"
        trace = [(0, 0.0007, 1.2345678901234567), (1, 0.00035, 0.9999999999999999)]
        write_loss_trace(trace, path)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [int(r["step"]) for r in rows] == [0, 1]
        assert [float(r["lr"]) for r in rows] == [0.0007, 0.00035]
        assert [float(r["loss"]) for r in rows] == [trace[0][2], trace[1][2]]


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(batch_size=0),
            dict(initial_lr=0.0),
            dict(epochs=0),
            dict(initial_lr=-7e-5),
            dict(batch_size=-1),
            dict(weight_decay=-0.1),
            dict(warmup_steps=-1),
            dict(max_grad_norm=0.0),
        ],
    )
    def test_bad_hyperparameters(self, kwargs):
        with pytest.raises(TrainConfigError):
            TrainConfig(**kwargs)


@settings(max_examples=30, deadline=None)
@given(
    st.lists(st.floats(0.01, 0.99), min_size=2, max_size=6),
    st.lists(st.integers(0, 1), min_size=2, max_size=6),
)
def test_bce_matches_scalar_reference(probs, bits):
    n = min(len(probs), len(bits))
    p = np.array(probs[:n])[None, :]
    y = np.array([float(b) for b in bits[:n]])[None, :]
    got = float(bce_loss(T.Tensor(p), y).data)
    want = -sum(
        y[0, i] * math.log(p[0, i]) + (1 - y[0, i]) * math.log(1 - p[0, i]) for i in range(n)
    )
    assert got == pytest.approx(want, rel=1e-10)
