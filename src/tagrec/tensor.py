"""Reverse-mode automatic differentiation over numpy arrays.

A ``Tensor`` wraps an ndarray and remembers how it was produced; calling
``backward`` on a scalar loss walks the recorded graph once in reverse
topological order and accumulates ``grad`` arrays on every leaf tensor that
requested them. Fan-out sums: a tensor consumed by several downstream ops
receives the sum of their adjoint contributions. An op output's adjoint is
dropped as soon as it has been passed to the op's inputs.

Only the primitives the encoder stack needs are provided. Each op checks its
operand shapes eagerly and raises ``ShapeError`` naming both shapes, so a
bad wiring fails at the call site instead of deep inside a matmul.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

FLOAT_DTYPES = (np.float32, np.float64)
_grad_enabled = True


@contextmanager
def no_grad() -> Iterator[None]:
    """Record no graph inside the block; ops return tensors without parents."""
    global _grad_enabled
    previous, _grad_enabled = _grad_enabled, False
    try:
        yield
    finally:
        _grad_enabled = previous


class ShapeError(ValueError):
    """Operand shapes are incompatible for the requested op."""


class Tensor:
    """Node in the autodiff graph: an ndarray plus backward bookkeeping."""

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward")

    def __init__(self, data: np.ndarray | float | int | Sequence, requires_grad: bool = False) -> None:
        arr = np.asarray(data)
        if arr.dtype not in FLOAT_DTYPES:
            arr = arr.astype(np.float32)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[Tensor], None] | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"

    def _accumulate(self, g: np.ndarray) -> None:
        if not self.requires_grad:
            return
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += g.astype(self.data.dtype, copy=False)

    # Arithmetic sugar; the heavy lifting lives in the module functions.
    def __add__(self, other: "Tensor | float") -> "Tensor":
        return add(self, _coerce(other, self.dtype))

    __radd__ = __add__

    def __mul__(self, other: "Tensor | float") -> "Tensor":
        return mul(self, _coerce(other, self.dtype))

    __rmul__ = __mul__

    def __sub__(self, other: "Tensor | float") -> "Tensor":
        return add(self, mul(_coerce(other, self.dtype), _coerce(-1.0, self.dtype)))

    def __rsub__(self, other: "Tensor | float") -> "Tensor":
        return add(_coerce(other, self.dtype), mul(self, _coerce(-1.0, self.dtype)))

    def __matmul__(self, other: "Tensor") -> "Tensor":
        return matmul(self, other)

    def backward(self) -> None:
        backward(self)


def _coerce(value: "Tensor | float | int | np.ndarray", dtype: np.dtype) -> Tensor:
    if isinstance(value, Tensor):
        return value
    return Tensor(np.asarray(value, dtype=dtype))


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum an adjoint back down to the shape it was broadcast from."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


def _make(out_data: np.ndarray, parents: tuple[Tensor, ...], backward_fn: Callable[[Tensor], None]) -> Tensor:
    """Wrap op output; graph edges are recorded only when a parent needs them.

    backward_fn is stored unbound and called with the node, so a node never
    refers to itself and its graph is freed as soon as the loss is dropped.
    """
    needs = _grad_enabled and any(p.requires_grad for p in parents)
    out = Tensor(out_data, requires_grad=needs)
    if needs:
        out._parents = parents
        out._backward = backward_fn
    return out


def add(a: Tensor, b: Tensor) -> Tensor:
    try:
        out_data = a.data + b.data
    except ValueError as exc:
        raise ShapeError(f"add: cannot broadcast {a.shape} with {b.shape}") from exc

    def bwd(out: Tensor) -> None:
        a._accumulate(_unbroadcast(out.grad, a.shape))
        b._accumulate(_unbroadcast(out.grad, b.shape))

    return _make(out_data, (a, b), bwd)


def mul(a: Tensor, b: Tensor) -> Tensor:
    try:
        out_data = a.data * b.data
    except ValueError as exc:
        raise ShapeError(f"mul: cannot broadcast {a.shape} with {b.shape}") from exc

    def bwd(out: Tensor) -> None:
        a._accumulate(_unbroadcast(out.grad * b.data, a.shape))
        b._accumulate(_unbroadcast(out.grad * a.data, b.shape))

    return _make(out_data, (a, b), bwd)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Batched matrix product. Supports (..., n, k) @ (k, m) and (..., n, k) @ (..., k, m)."""
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ShapeError(f"matmul: operands must be at least 2-D, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul: inner dims differ, {a.shape} vs {b.shape}")
    out_data = a.data @ b.data

    def bwd(out: Tensor) -> None:
        g = out.grad
        if a.requires_grad:
            ga = g @ np.swapaxes(b.data, -1, -2)
            a._accumulate(_unbroadcast(ga, a.shape))
        if b.requires_grad:
            gb = np.swapaxes(a.data, -1, -2) @ g
            b._accumulate(_unbroadcast(gb, b.shape))

    return _make(out_data, (a, b), bwd)


def sigmoid(x: Tensor) -> Tensor:
    # Branch on sign so exp never overflows.
    d = x.data
    e = np.exp(-np.abs(d))
    out_data = np.where(d >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    out_data = out_data.astype(d.dtype, copy=False)

    def bwd(out: Tensor) -> None:
        x._accumulate(out.grad * out.data * (1.0 - out.data))

    return _make(out_data, (x,), bwd)


def log(x: Tensor) -> Tensor:
    out_data = np.log(x.data)

    def bwd(out: Tensor) -> None:
        x._accumulate(out.grad / x.data)

    return _make(out_data, (x,), bwd)


def clip(x: Tensor, lo: float, hi: float) -> Tensor:
    """Clamp values to [lo, hi]; gradient is 1 inside the window, 0 outside."""
    out_data = np.clip(x.data, lo, hi)

    def bwd(out: Tensor) -> None:
        inside = ((x.data >= lo) & (x.data <= hi)).astype(x.data.dtype)
        x._accumulate(out.grad * inside)

    return _make(out_data, (x,), bwd)


def gelu(x: Tensor) -> Tensor:
    """Gaussian error linear unit, tanh approximation."""
    d = x.data
    c = d.dtype.type(np.sqrt(2.0 / np.pi))
    inner = c * (d + 0.044715 * d**3)
    t = np.tanh(inner)
    out_data = (0.5 * d * (1.0 + t)).astype(d.dtype, copy=False)

    def bwd(out: Tensor) -> None:
        sech2 = 1.0 - t * t
        d_inner = c * (1.0 + 3 * 0.044715 * d * d)
        grad = 0.5 * (1.0 + t) + 0.5 * d * sech2 * d_inner
        x._accumulate(out.grad * grad.astype(d.dtype, copy=False))

    return _make(out_data, (x,), bwd)


def softmax(x: Tensor) -> Tensor:
    """Softmax over the last axis with rowwise max subtraction."""
    shifted = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    out_data = e / e.sum(axis=-1, keepdims=True)

    def bwd(out: Tensor) -> None:
        s = out.data
        g = out.grad
        dot = (g * s).sum(axis=-1, keepdims=True)
        x._accumulate(s * (g - dot))

    return _make(out_data, (x,), bwd)


def layer_norm(x: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean and unit variance (no affine)."""
    mu = x.data.mean(axis=-1, keepdims=True)
    var = x.data.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mu) * inv
    out_data = xhat.astype(x.data.dtype, copy=False)

    def bwd(out: Tensor) -> None:
        g = out.grad
        n = x.data.shape[-1]
        g_mean = g.mean(axis=-1, keepdims=True)
        gx_mean = (g * xhat).mean(axis=-1, keepdims=True)
        x._accumulate((inv * (g - g_mean - xhat * gx_mean)).astype(x.data.dtype, copy=False))

    return _make(out_data, (x,), bwd)


def embedding(table: Tensor, ids: np.ndarray) -> Tensor:
    """Row lookup: ids (...,) int array into table (V, d) -> (..., d)."""
    ids = np.asarray(ids)
    if not np.issubdtype(ids.dtype, np.integer):
        raise ShapeError(f"embedding: ids must be integers, got dtype {ids.dtype}")
    if table.data.ndim != 2:
        raise ShapeError(f"embedding: table must be 2-D, got {table.shape}")
    if ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]):
        raise ShapeError(f"embedding: id out of range for table {table.shape}: [{ids.min()}, {ids.max()}]")
    out_data = table.data[ids]

    # np.add.at writes straight into table.grad, so bypass _accumulate.
    def bwd(out: Tensor) -> None:
        if table.grad is None:
            table.grad = np.zeros_like(table.data)
        d = table.shape[1]
        np.add.at(table.grad, ids.reshape(-1), out.grad.reshape(-1, d))

    return _make(out_data, (table,), bwd)


def masked_mean(x: Tensor, mask: np.ndarray) -> Tensor:
    """Mean of x (..., n, d) over axis -2, counting only positions where mask is true.

    Every row must have at least one unmasked position; an all-masked row is
    a caller bug and raises immediately.
    """
    m = np.asarray(mask, dtype=bool)
    if m.shape != x.shape[:-1]:
        raise ShapeError(f"masked_mean: mask {m.shape} does not match x {x.shape} minus last axis")
    counts = m.sum(axis=-1, keepdims=True)
    if (counts == 0).any():
        raise ShapeError("masked_mean: row with no unmasked positions")
    weights = (m / counts).astype(x.data.dtype)  # (..., n)
    out_data = (x.data * weights[..., None]).sum(axis=-2)

    def bwd(out: Tensor) -> None:
        x._accumulate(out.grad[..., None, :] * weights[..., None])

    return _make(out_data, (x,), bwd)


def masked_max(x: Tensor, mask: np.ndarray) -> Tensor:
    """Max of x (..., n, d) over axis -2 among unmasked positions.

    Gradient routes to the first position attaining the max in each column.
    """
    m = np.asarray(mask, dtype=bool)
    if m.shape != x.shape[:-1]:
        raise ShapeError(f"masked_max: mask {m.shape} does not match x {x.shape} minus last axis")
    if (~m).all(axis=-1).any():
        raise ShapeError("masked_max: row with no unmasked positions")
    neg = np.finfo(x.data.dtype).min
    filled = np.where(m[..., None], x.data, neg)
    out_data = filled.max(axis=-2)
    argmax = filled.argmax(axis=-2)  # (..., d)

    def bwd(out: Tensor) -> None:
        g = np.zeros_like(x.data)
        np.put_along_axis(g, argmax[..., None, :], out.grad[..., None, :], axis=-2)
        x._accumulate(g)

    return _make(out_data, (x,), bwd)


def concat(tensors: Sequence[Tensor], axis: int = -1) -> Tensor:
    if not tensors:
        raise ShapeError("concat: empty tensor list")
    shapes = [t.shape for t in tensors]
    base = list(shapes[0])
    ax = axis if axis >= 0 else len(base) + axis
    for s in shapes[1:]:
        if len(s) != len(base) or any(i != ax and s[i] != base[i] for i in range(len(s))):
            raise ShapeError(f"concat: incompatible shapes {shapes} on axis {axis}")
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[ax] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def bwd(out: Tensor) -> None:
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            idx = [slice(None)] * out.grad.ndim
            idx[ax] = slice(lo, hi)
            t._accumulate(out.grad[tuple(idx)])

    return _make(out_data, tuple(tensors), bwd)


def select_position(x: Tensor, position: int) -> Tensor:
    """Slice x (..., n, d) at a fixed position on axis -2 -> (..., d)."""
    n = x.shape[-2]
    if not 0 <= position < n:
        raise ShapeError(f"select_position: position {position} out of range for {x.shape}")
    out_data = x.data[..., position, :]

    def bwd(out: Tensor) -> None:
        g = np.zeros_like(x.data)
        g[..., position, :] = out.grad
        x._accumulate(g)

    return _make(out_data, (x,), bwd)


def reshape(x: Tensor, shape: tuple[int, ...]) -> Tensor:
    try:
        out_data = x.data.reshape(shape)
    except ValueError as exc:
        raise ShapeError(f"reshape: cannot view {x.shape} as {shape}") from exc

    def bwd(out: Tensor) -> None:
        x._accumulate(out.grad.reshape(x.shape))

    return _make(out_data, (x,), bwd)


def transpose(x: Tensor, axes: tuple[int, ...]) -> Tensor:
    out_data = np.transpose(x.data, axes)
    inverse = np.argsort(axes)

    def bwd(out: Tensor) -> None:
        x._accumulate(np.transpose(out.grad, inverse))

    return _make(out_data, (x,), bwd)


def total(x: Tensor) -> Tensor:
    """Sum all elements to a scalar tensor."""
    out_data = x.data.sum()

    def bwd(out: Tensor) -> None:
        x._accumulate(np.broadcast_to(out.grad, x.shape).copy())

    return _make(out_data, (x,), bwd)


def topo_order(root: Tensor) -> list[Tensor]:
    """Parents-before-children ordering of the graph reachable from root."""
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in seen:
                stack.append((parent, False))
    return order


def backward(loss: Tensor) -> None:
    """Run reverse-mode accumulation from a scalar loss."""
    if loss.data.ndim != 0:
        raise ShapeError(f"backward: root must be a scalar, got shape {loss.shape}")
    if not loss.requires_grad:
        raise ValueError("backward: root does not require grad")
    loss.grad = np.ones_like(loss.data)
    for node in reversed(topo_order(loss)):
        if node._backward is not None and node.grad is not None:
            node._backward(node)
            node.grad = None
