"""Autodiff kernel: hand-derived gradients, finite-difference oracle, graph shape."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tagrec import tensor as T


def numeric_grad(fn, param: T.Tensor, h: float = 1e-4) -> np.ndarray:
    """Independent central-difference gradient, written only from the definition."""
    flat = param.data.reshape(-1)
    out = np.zeros_like(flat)
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + h
        up = float(fn().data)
        flat[i] = keep - h
        down = float(fn().data)
        flat[i] = keep
        out[i] = (up - down) / (2 * h)
    return out.reshape(param.shape)


def assert_grad_matches(fn, params: list[T.Tensor], rtol: float = 1e-4, atol: float = 1e-6) -> None:
    for p in params:
        p.grad = None
    loss = fn()
    T.backward(loss)
    for p in params:
        expected = numeric_grad(fn, p)
        np.testing.assert_allclose(p.grad, expected, rtol=rtol, atol=atol)


def leaf(data, requires_grad=True) -> T.Tensor:
    return T.Tensor(np.asarray(data, dtype=np.float64), requires_grad=requires_grad)


class TestHandDerivedGradients:
    def test_sigmoid_at_zero(self):
        """sigmoid(0) = 0.5 and its derivative there is exactly 0.25."""
        x = leaf([0.0])
        y = T.total(T.sigmoid(x))
        T.backward(y)
        assert float(y.data) == 0.5
        np.testing.assert_allclose(x.grad, [0.25], rtol=0, atol=0)

    def test_log_gradient_is_reciprocal(self):
        x = leaf([2.0, 4.0])
        T.backward(T.total(T.log(x)))
        np.testing.assert_allclose(x.grad, [0.5, 0.25])

    def test_square_via_fanout(self):
        """y = x*x must see both paths: dy/dx = 2x."""
        x = leaf([3.0, -1.5])
        T.backward(T.total(T.mul(x, x)))
        np.testing.assert_allclose(x.grad, [6.0, -3.0])

    def test_diamond_graph_sums_adjoints(self):
        """z = x*y + x gives dz/dx = y + 1, dz/dy = x."""
        x = leaf([2.0])
        y = leaf([5.0])
        T.backward(T.total(x * y + x))
        np.testing.assert_allclose(x.grad, [6.0])
        np.testing.assert_allclose(y.grad, [2.0])

    def test_matmul_hand_values(self):
        a = leaf([[1.0, 2.0], [3.0, 4.0]])
        b = leaf([[1.0], [1.0]])
        out = a @ b
        np.testing.assert_array_equal(out.data, [[3.0], [7.0]])
        T.backward(T.total(out))
        np.testing.assert_array_equal(a.grad, [[1.0, 1.0], [1.0, 1.0]])
        np.testing.assert_array_equal(b.grad, [[4.0], [6.0]])

    def test_softmax_uniform_and_jacobian_row(self):
        x = leaf([[0.0, 0.0]])
        s = T.softmax(x)
        np.testing.assert_allclose(s.data, [[0.5, 0.5]])
        T.backward(T.total(T.mul(s, T.Tensor(np.array([[1.0, 0.0]])))))
        np.testing.assert_allclose(x.grad, [[0.25, -0.25]])

    def test_gelu_pinned_values(self):
        x = leaf([0.0, 1.0, -0.5, 2.0])
        y = T.gelu(x)
        np.testing.assert_allclose(
            y.data,
            [0.0, 0.8411919906082768, -0.15428599017485606, 1.954597694087775],
            rtol=1e-12,
        )

    def test_layer_norm_two_point_row(self):
        x = leaf([[1.0, 3.0]])
        y = T.layer_norm(x)
        np.testing.assert_allclose(y.data, [[-1.0, 1.0]], rtol=1e-4)

    def test_clip_blocks_gradient_outside_window(self):
        x = leaf([-1.0, 0.5, 2.0])
        T.backward(T.total(T.clip(x, 0.0, 1.0)))
        np.testing.assert_array_equal(x.grad, [0.0, 1.0, 0.0])


class TestFiniteDifferenceOracle:
    def test_elementwise_chain(self, rng):
        x = leaf(rng.normal(size=(3, 4)))
        assert_grad_matches(lambda: T.total(T.sigmoid(T.gelu(x) * 0.7 + 0.1)), [x])

    def test_matmul_add_mul(self, rng):
        a = leaf(rng.normal(size=(3, 4)))
        b = leaf(rng.normal(size=(4, 2)))
        c = leaf(rng.normal(size=(2,)))
        assert_grad_matches(lambda: T.total((a @ b + c) * c), [a, b, c])

    def test_batched_matmul(self, rng):
        a = leaf(rng.normal(size=(2, 3, 4)))
        b = leaf(rng.normal(size=(2, 4, 3)))
        assert_grad_matches(lambda: T.total(a @ b), [a, b])

    def test_batched_times_shared_weight(self, rng):
        x = leaf(rng.normal(size=(2, 3, 4)))
        w = leaf(rng.normal(size=(4, 5)))
        assert_grad_matches(lambda: T.total(T.gelu(x @ w)), [x, w])

    def test_softmax_and_layer_norm(self, rng):
        x = leaf(rng.normal(size=(2, 5)))
        weights = T.Tensor(rng.normal(size=(2, 5)))
        assert_grad_matches(lambda: T.total(T.softmax(x) * weights), [x])
        assert_grad_matches(lambda: T.total(T.layer_norm(x) * weights), [x])

    def test_embedding_accumulates_repeated_ids(self, rng):
        table = leaf(rng.normal(size=(6, 3)))
        ids = np.array([[0, 2, 0], [5, 5, 1]])
        weights = T.Tensor(rng.normal(size=(2, 3, 3)))
        assert_grad_matches(lambda: T.total(T.embedding(table, ids) * weights), [table])

    def test_masked_mean_and_max(self, rng):
        x = leaf(rng.normal(size=(2, 4, 3)))
        mask = np.array([[True, True, False, False], [True, True, True, True]])
        assert_grad_matches(lambda: T.total(T.masked_mean(x, mask)), [x])
        assert_grad_matches(lambda: T.total(T.masked_max(x, mask)), [x])

    def test_concat_and_select(self, rng):
        a = leaf(rng.normal(size=(2, 3)))
        b = leaf(rng.normal(size=(2, 2)))
        assert_grad_matches(lambda: T.total(T.gelu(T.concat([a, b], axis=-1))), [a, b])
        x = leaf(rng.normal(size=(2, 4, 3)))
        assert_grad_matches(lambda: T.total(T.select_position(x, 0) * 2.0), [x])

    def test_reshape_transpose(self, rng):
        x = leaf(rng.normal(size=(2, 3, 4)))
        assert_grad_matches(
            lambda: T.total(T.gelu(T.transpose(T.reshape(x, (2, 4, 3)), (1, 0, 2)))), [x]
        )

    def test_broadcast_add_unbroadcasts(self, rng):
        x = leaf(rng.normal(size=(2, 3, 4)))
        bias = leaf(rng.normal(size=(4,)))
        row = leaf(rng.normal(size=(3, 1)))
        assert_grad_matches(lambda: T.total(T.sigmoid(x + bias + row)), [x, bias, row])


class TestGraphMechanics:
    def test_masked_positions_get_zero_attention_path(self):
        """Softmax over a -1e9-biased column yields exactly zero weight."""
        scores = T.Tensor(np.array([[0.0, 0.0, -1e9]]))
        s = T.softmax(scores)
        assert s.data[0, 2] == 0.0
        np.testing.assert_allclose(s.data[0, :2], [0.5, 0.5])

    def test_no_grad_inputs_build_no_graph(self):
        a = T.Tensor(np.ones((2, 2)))
        out = a @ T.Tensor(np.ones((2, 2)))
        assert out._parents == ()
        assert not out.requires_grad

    def test_no_grad_block_records_no_graph_and_restores(self):
        w = leaf(np.ones((2, 2)))
        with pytest.raises(RuntimeError):
            with T.no_grad():
                out = T.embedding(w, np.array([0, 1])) @ w
                raise RuntimeError
        assert out._parents == () and not out.requires_grad
        assert (w @ w).requires_grad

    def test_grad_accumulates_across_backward_calls(self):
        x = leaf([1.0])
        T.backward(T.total(x * 2.0))
        T.backward(T.total(x * 3.0))
        np.testing.assert_allclose(x.grad, [5.0])

    def test_backward_requires_scalar(self):
        x = leaf([1.0, 2.0])
        with pytest.raises(T.ShapeError, match="scalar"):
            T.backward(x * 1.0)

    def test_float32_stays_float32(self):
        x = T.Tensor(np.ones((2, 2), dtype=np.float32), requires_grad=True)
        y = T.gelu(T.layer_norm(x @ x + 1.0))
        assert y.dtype == np.float32
        T.backward(T.total(y))
        assert x.grad.dtype == np.float32


class TestShapeErrors:
    def test_matmul_inner_mismatch_names_both_shapes(self):
        a = T.Tensor(np.ones((2, 3)))
        b = T.Tensor(np.ones((4, 2)))
        with pytest.raises(T.ShapeError, match=r"\(2, 3\).*\(4, 2\)"):
            a @ b

    def test_add_incompatible_broadcast(self):
        with pytest.raises(T.ShapeError, match="broadcast"):
            T.Tensor(np.ones((2, 3))) + T.Tensor(np.ones((4,)))

    def test_embedding_out_of_range(self):
        table = T.Tensor(np.ones((4, 2)))
        with pytest.raises(T.ShapeError, match="out of range"):
            T.embedding(table, np.array([0, 4]))

    def test_masked_mean_rejects_empty_row(self):
        x = T.Tensor(np.ones((1, 3, 2)))
        with pytest.raises(T.ShapeError, match="no unmasked"):
            T.masked_mean(x, np.zeros((1, 3), dtype=bool))

    def test_concat_mismatched_other_axes(self):
        with pytest.raises(T.ShapeError, match="incompatible"):
            T.concat([T.Tensor(np.ones((2, 3))), T.Tensor(np.ones((3, 3)))], axis=-1)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(min_value=-30, max_value=30), min_size=2, max_size=8))
def test_softmax_rows_are_distributions(values):
    s = T.softmax(T.Tensor(np.array([values])))
    assert np.all(s.data >= 0)
    np.testing.assert_allclose(s.data.sum(), 1.0, rtol=1e-6)


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.floats(min_value=-100, max_value=100), min_size=2, max_size=8).filter(
        lambda v: max(v) - min(v) > 1e-3
    )
)
@example(values=[0.0, 0.125])
def test_layer_norm_standardizes_rows(values):
    # eps sits inside the square root, so the output variance is var / (var + eps), not 1.
    x = np.array([values])
    y = T.layer_norm(T.Tensor(x), eps=1e-5).data
    np.testing.assert_allclose(y.mean(), 0.0, atol=1e-5)
    np.testing.assert_allclose(y.var(), x.var() / (x.var() + 1e-5), rtol=1e-9)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_random_chain_matches_finite_differences(seed):
    rng = np.random.default_rng(seed)
    x = leaf(rng.normal(size=(2, 3)))
    w = leaf(rng.normal(size=(3, 3)))

    def fn():
        return T.total(T.softmax(T.layer_norm(x @ w)) * T.Tensor(np.ones((2, 3))))

    assert_grad_matches(fn, [x, w])
