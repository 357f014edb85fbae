"""Minimal reverse-mode automatic differentiation over dense float64 arrays.

A Tensor wraps a C-contiguous float64 ndarray.  Every operation whose
inputs require gradients appends its output to the active Graph (a
dynamic tape rebuilt for each forward pass).  Graph.backward walks the
tape in strict reverse append order, so a node's gradient is fully
accumulated before its own backward closure fires; a tensor consumed by
k downstream ops receives the sum of the k contributions.

Gradients are never zeroed implicitly.  Leaf parameters keep their
.grad until zero_grad is called on them, which is what lets an
optimizer step read accumulated gradients and what makes the reset an
explicit, visible part of the training loop.  An op output lets go of
its gradient and its backward closure (with what the closure captured)
as the sweep fires it, so after backward only leaf .grad is readable
and the tape cannot be swept again.

A gradient array is owned, not copied: accumulate keeps the array it is
given, and add, reshape and transpose pass g or a view of it on, so one
array may be shared by several nodes.  So a backward may write into an
array it allocated, or into a forward buffer that dies with its node,
until it passes that array to accumulate; an array passed to accumulate
is never written again, and a second contribution is summed into a new
array.

A gather into a leaf table with more rows than it has indices leaves a
row-sparse gradient: (sorted unique rows, one summed gradient row each)
on its table, never a table-sized array, and a second such gather
merges rows.  .grad still reads dense (it is built on first read).
Every other gather takes the dense scatter-add, one bincount and no
sort: a leaf table no larger than its gather, and an op output, whose
gradient the sweep reads dense.  Both forms sum each row's terms in
input order from +0.0, and accumulate mixes them exactly, so sparse and
dense gradients are bitwise equal.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import ShapeError

COSINE_EPS = 1e-12


def _as_f64(data) -> np.ndarray:
    # ascontiguousarray would promote 0-d to 1-d, so guard it
    a = np.asarray(data, dtype=np.float64)
    if not a.flags["C_CONTIGUOUS"]:
        a = np.ascontiguousarray(a)
    return a


class Tensor:
    """Dense float64 array with an optional gradient slot.

    data is stored row-major.  The gradient is held dense, in data's
    shape, or row-sparse, as a sorted unique row index array plus one
    gradient row per index.  requires_grad marks the tensor as a
    gradient sink; tensors produced by ops inherit it from their inputs.
    """

    __slots__ = ("data", "_grad", "_rows", "requires_grad", "_backward", "name")

    def __init__(self, data, requires_grad: bool = False, name: str = ""):
        self.data = _as_f64(data)
        self._grad: np.ndarray | None = None
        self._rows: np.ndarray | None = None  # None: _grad is dense
        self.requires_grad = requires_grad
        self._backward: Callable[[np.ndarray], None] | None = None
        self.name = name

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def grad(self) -> np.ndarray | None:
        """The dense gradient; a row-sparse one is densified (and kept
        dense) on read."""
        if self._rows is not None:
            self._grad = _scatter_rows(self._rows, self._grad, self.data.shape)
            self._rows = None
        return self._grad

    def grad_rows(self):
        """The gradient without densifying it: (rows, g) such that the
        dense gradient is zeros with g written at rows.  rows is an index
        array for a row-sparse gradient and ... for a dense one; None
        when there is no gradient."""
        if self._grad is None:
            return None
        return (... if self._rows is None else self._rows), self._grad

    def accumulate(self, g: np.ndarray) -> None:
        if self._grad is None:
            self._grad = g
        else:
            self._grad = self.grad + g

    def accumulate_rows(self, rows: np.ndarray, g: np.ndarray) -> None:
        """Add a row-sparse gradient, rows sorted and unique; g is owned
        from here on."""
        if self._grad is None:
            self._grad, self._rows = g, rows
        elif self._rows is None:
            self._grad = self._grad + _scatter_rows(rows, g, self.data.shape)
        else:
            self._rows, self._grad = _sum_rows(
                np.concatenate([self._rows, rows]), np.concatenate([self._grad, g])
            )

    def zero_grad(self) -> None:
        self._grad = None
        self._rows = None

    def __repr__(self):
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad}{tag})"


def _scatter_add(idx: np.ndarray, g: np.ndarray, n_rows: int) -> np.ndarray:
    """Rows of g (n, K) summed into n_rows zero rows at idx (n,), each from
    +0.0 in input order: bitwise np.add.at into zeros, and never -0.0."""
    k = g.shape[1]
    sums = np.bincount(
        (idx[:, None] * k + np.arange(k)).reshape(-1), weights=g.reshape(-1), minlength=n_rows * k,
    )
    # bincount over an empty index returns int64, not float64
    return sums.astype(np.float64, copy=False).reshape(n_rows, k)


def _sum_rows(idx: np.ndarray, g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The sorted unique indices of idx (n,) and the rows of g (n, K) that
    share each summed, bitwise the dense scatter-add's rows."""
    rows, inv = np.unique(idx, return_inverse=True)
    return rows, _scatter_add(inv, g, rows.size)


def _scatter_rows(rows: np.ndarray, g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    full = np.zeros(shape)
    full[rows] = g
    return full


def constant(data, name: str = "") -> Tensor:
    return Tensor(data, requires_grad=False, name=name)


def parameter(data, name: str = "") -> Tensor:
    return Tensor(data, requires_grad=True, name=name)


class Graph:
    """Append-only tape of op outputs for one forward pass."""

    def __init__(self):
        self.nodes: list[Tensor] = []
        self.swept = False

    def append(self, t: Tensor) -> None:
        self.nodes.append(t)

    def backward(self, loss: Tensor) -> None:
        """Seed d(loss)/d(loss) = 1 and sweep the tape in reverse.

        loss must be scalar (shape () or size 1).  Nodes that never
        received a gradient are dead branches and are skipped.  Each
        node drops its gradient and closure before the closure runs.
        """
        if loss.data.size != 1:
            raise ShapeError(f"backward needs a scalar loss, got shape {loss.data.shape}")
        if self.swept:
            raise ShapeError("backward already swept this tape; its op gradients are released")
        self.swept = True
        loss.accumulate(np.ones_like(loss.data))
        for node in reversed(self.nodes):
            g, backward = node.grad, node._backward
            node._grad = node._rows = node._backward = None
            if g is not None:
                backward(g)


_ACTIVE = Graph()
_GRAD_ENABLED = True


def active_graph() -> Graph:
    return _ACTIVE


def fresh_graph() -> Graph:
    """Start a new tape (one per forward pass) and make it active."""
    global _ACTIVE
    _ACTIVE = Graph()
    return _ACTIVE


@contextmanager
def no_grad():
    """Run forwards without taping; numerics are unchanged."""
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


def _register(out: Tensor, backward: Callable[[np.ndarray], None], *parents: Tensor) -> Tensor:
    if _GRAD_ENABLED and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._backward = backward
        _ACTIVE.append(out)
    return out


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce a broadcast gradient back to the operand's shape."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def zero_grads(tensors: Iterable[Tensor]) -> None:
    for t in tensors:
        t.zero_grad()


# ---------------------------------------------------------------------------
# elementwise and broadcasting ops


def add(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(a.data + b.data)

    def backward(g):
        if a.requires_grad:
            a.accumulate(_unbroadcast(g, a.shape))
        if b.requires_grad:
            b.accumulate(_unbroadcast(g, b.shape))

    return _register(out, backward, a, b)


def sub(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(a.data - b.data)

    def backward(g):
        if a.requires_grad:
            a.accumulate(_unbroadcast(g, a.shape))
        if b.requires_grad:
            b.accumulate(_unbroadcast(-g, b.shape))

    return _register(out, backward, a, b)


def mul(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(a.data * b.data)

    def backward(g):
        if a.requires_grad:
            a.accumulate(_unbroadcast(g * b.data, a.shape))
        if b.requires_grad:
            b.accumulate(_unbroadcast(g * a.data, b.shape))

    return _register(out, backward, a, b)


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)
    out = Tensor(a.data * c)

    def backward(g):
        a.accumulate(g * c)

    return _register(out, backward, a)


def relu(x: Tensor) -> Tensor:
    out = Tensor(np.maximum(x.data, 0.0))

    def backward(g):
        x.accumulate(g * (x.data > 0.0))

    return _register(out, backward, x)


def sigmoid(x: Tensor) -> Tensor:
    """Numerically stable logistic: exp is only ever taken of -|x|."""
    z = np.exp(-np.abs(x.data))
    val = np.where(x.data >= 0.0, 1.0 / (1.0 + z), z / (1.0 + z))
    out = Tensor(val)

    def backward(g):
        x.accumulate(g * val * (1.0 - val))

    return _register(out, backward, x)


def logsumexp(x: Tensor, c: float) -> Tensor:
    """log sum exp(c * x) over the last axis, shifted by the detached row
    max of c * x so exp stays bounded: one node, bitwise the values and
    gradients of the scale, sub, exp, sum, log and add ops it replaces."""
    c = float(c)
    e = x.data * c
    shift = e.max(axis=-1, keepdims=True)
    e -= shift
    np.exp(e, out=e)
    s = e.sum(axis=-1)
    out = Tensor(np.log(s) + shift[..., 0])

    def backward(g):
        # e dies with this node: the gradient (e * (g / s)) * c is built in it
        np.multiply(e, (g / s)[..., None], out=e)
        x.accumulate(np.multiply(e, c, out=e))

    return _register(out, backward, x)


def tlog(x: Tensor) -> Tensor:
    out = Tensor(np.log(x.data))

    def backward(g):
        x.accumulate(g / x.data)

    return _register(out, backward, x)


def clip(x: Tensor, lo: float, hi: float) -> Tensor:
    """Clamp to [lo, hi]; gradient passes through wherever the input
    already lies inside the interval (inclusive)."""
    out = Tensor(np.clip(x.data, lo, hi))
    inside = (x.data >= lo) & (x.data <= hi)

    def backward(g):
        x.accumulate(g * inside)

    return _register(out, backward, x)


# ---------------------------------------------------------------------------
# reductions and reshaping


def tsum(x: Tensor, axis: int | None = None) -> Tensor:
    out = Tensor(x.data.sum(axis=axis))

    def backward(g):
        if axis is None:
            x.accumulate(np.broadcast_to(g, x.shape))
        else:
            x.accumulate(np.broadcast_to(np.expand_dims(g, axis), x.shape))

    return _register(out, backward, x)


def tmean(x: Tensor, axis: int | None = None) -> Tensor:
    n = x.data.size if axis is None else x.shape[axis]
    out = Tensor(x.data.mean(axis=axis))

    def backward(g):
        if axis is None:
            x.accumulate(np.broadcast_to(g / n, x.shape))
        else:
            x.accumulate(np.broadcast_to(np.expand_dims(g / n, axis), x.shape))

    return _register(out, backward, x)


def reshape(x: Tensor, shape: tuple[int, ...]) -> Tensor:
    out = Tensor(x.data.reshape(shape))

    def backward(g):
        x.accumulate(g.reshape(x.shape))

    return _register(out, backward, x)


def transpose(x: Tensor, axes: tuple[int, ...]) -> Tensor:
    out = Tensor(x.data.transpose(axes))
    inv = np.argsort(axes)

    def backward(g):
        x.accumulate(g.transpose(inv))

    return _register(out, backward, x)


def take(x: Tensor, i: int) -> Tensor:
    """x[i] along the first axis, as a view: no copy forward, and the
    backward writes g into the slot of a zeroed gradient of x's shape."""
    out = Tensor(x.data[i])

    def backward(g):
        gx = np.zeros_like(x.data)
        gx[i] = g
        x.accumulate(gx)

    return _register(out, backward, x)


def concat(parts: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Join parts along axis; a single part is returned as is, untaped."""
    if len(parts) == 1:
        return parts[0]
    out = Tensor(np.concatenate([p.data for p in parts], axis=axis))
    sizes = [p.shape[axis] for p in parts]

    def backward(g):
        offset = 0
        for p, n in zip(parts, sizes):
            if p.requires_grad:
                idx = [slice(None)] * g.ndim
                idx[axis] = slice(offset, offset + n)
                p.accumulate(g[tuple(idx)])
            offset += n

    return _register(out, backward, *parts)


def conv1d(x: Tensor, kernel: Tensor, axis: int) -> Tensor:
    """ReLU'd valid cross-correlation of a width-w kernel along one axis,
    stride 1: out[.., l, ..] = max(sum_i x[.., l+i, ..] * kernel[i], 0).
    Taps add left to right, so a per-element replay of the same sum is
    bitwise equal.  The backward masks g where the sum is > 0, bitwise
    as a separate relu() would, reduces one kernel gradient per tap, in
    einsum's own loop rather than a BLAS dot whose sum order follows the
    thread count, and writes the x gradient of every tap through one
    scratch buffer."""
    if kernel.ndim != 1:
        raise ShapeError(f"conv1d needs a 1-d kernel, got shape {kernel.shape}")
    w = kernel.shape[0]
    extent = x.shape[axis]
    if not 1 <= w <= extent:
        raise ShapeError(f"kernel width {w} does not fit axis {axis} with extent {extent}")
    out_len = extent - w + 1
    taps = []
    for i in range(w):
        idx = [slice(None)] * x.ndim
        idx[axis] = slice(i, i + out_len)
        taps.append(tuple(idx))
    k = kernel.data
    acc = x.data[taps[0]] * k[0]
    for i in range(1, w):
        acc += x.data[taps[i]] * k[i]
    live = acc > 0.0
    np.maximum(acc, 0.0, out=acc)
    out = Tensor(acc)

    def backward(g):
        g = g * live  # owned from here, so width 1 scales it in place
        if kernel.requires_grad:
            dims = "abcdefghijklmnopqrstuvwxyz"[: g.ndim]  # einsum cannot sum "..." away
            kernel.accumulate(np.array([np.einsum(f"{dims},{dims}->", g, x.data[t]) for t in taps]))
        if x.requires_grad and w == 1:
            x.accumulate(np.multiply(g, k[0], out=g))
        elif x.requires_grad:
            gx = np.zeros_like(x.data)
            tap = np.empty(g.shape)
            for i, t in enumerate(taps):
                gx[t] += np.multiply(g, k[i], out=tap)
            x.accumulate(gx)

    return _register(out, backward, x, kernel)


# ---------------------------------------------------------------------------
# linear algebra


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """a (..., m, k) @ b (..., k, n): equal leading axes are a batch, one
    matrix product per leading index."""
    if a.ndim < 2 or a.ndim != b.ndim or a.shape[:-2] != b.shape[:-2] or a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul shapes incompatible: {a.shape} @ {b.shape}")
    out = Tensor(a.data @ b.data)

    def backward(g):
        if a.requires_grad:
            a.accumulate(g @ np.swapaxes(b.data, -1, -2))
        if b.requires_grad:
            b.accumulate(np.swapaxes(a.data, -1, -2) @ g)

    return _register(out, backward, a, b)


def gather_rows(table: Tensor, indices: np.ndarray) -> Tensor:
    """Row lookup table[indices]; backward scatter-adds, so repeated
    indices sum their gradients.  A leaf table with more rows than
    indices gets a row-sparse gradient, only the rows looked up; any
    other table the dense scatter-add."""
    idx = np.asarray(indices)
    if table.ndim != 2:
        raise ShapeError(f"gather_rows needs a 2-d table, got shape {table.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= table.shape[0]):
        raise IndexError(
            f"row index out of range for table with {table.shape[0]} rows: "
            f"min={idx.min()}, max={idx.max()}"
        )
    out = Tensor(table.data[idx])
    dense = table._backward is not None or table.shape[0] <= idx.size

    def backward(g):
        flat, rows = idx.reshape(-1), g.reshape(-1, table.shape[1])
        if dense:
            table.accumulate(_scatter_add(flat, rows, table.shape[0]))
        else:
            table.accumulate_rows(*_sum_rows(flat, rows))

    return _register(out, backward, table)


def normalize_rows(x: Tensor) -> Tensor:
    """Divide each row (vector along the last axis) by max(its L2 norm,
    COSINE_EPS); leading axes are a batch of matrices.  Row products of two
    normalized matrices are then exactly the floored cosine values."""
    if x.ndim < 2:
        raise ShapeError(f"normalize_rows needs a matrix, got shape {x.shape}")
    norms = np.linalg.norm(x.data, axis=-1)
    r = np.maximum(norms, COSINE_EPS)[..., None]
    y = x.data / r
    out = Tensor(y)
    live = (norms > COSINE_EPS)[..., None]

    def backward(g):
        # d(x/r)/dx with r = ||x||: (g - y (y.g)) / r; below the floor r is constant.
        proj = (y * g).sum(axis=-1, keepdims=True)
        gx = np.where(live, (g - y * proj) / r, g / r)
        x.accumulate(gx)

    return _register(out, backward, x)
