"""Dense float64 tensors with reverse-mode automatic differentiation.

Every tensor produced by an operation keeps references to its parents, the
local vector-Jacobian product, and a monotonically increasing sequence
number.  Creation order is therefore a valid topological order of the
implicit tape, and ``backward`` replays reachable nodes in descending
sequence order.

Recording happens only while gradients are enabled (see ``no_grad``) and
only for results that can reach a ``requires_grad`` leaf, so inference
passes carry no bookkeeping cost.
"""

from __future__ import annotations

import itertools
from contextlib import contextmanager

import numpy as np

__all__ = [
    "DimensionError",
    "Tensor",
    "as_tensor",
    "no_grad",
    "grad_enabled",
    "backward",
    "add",
    "sub",
    "mul",
    "div",
    "neg",
    "matmul",
    "relu",
    "sigmoid",
    "tanh",
    "exp",
    "log",
    "sqrt",
    "softplus",
    "tsum",
    "tmean",
    "reshape",
    "transpose",
    "concat",
    "slice_last",
    "gather_stack",
    "take_rows",
    "segment_sum",
    "repeat_rows",
    "logsumexp",
]


class DimensionError(ValueError):
    """Operand shapes are incompatible with the requested operation."""


_seq = itertools.count()
_grad_enabled = True


@contextmanager
def no_grad():
    """Disable graph recording inside the block."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


def grad_enabled() -> bool:
    return _grad_enabled


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_vjp", "_seq")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        if not np.isfinite(arr).all():
            raise ValueError("leaf tensor values must be finite")
        self.data = arr
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = ()
        self._vjp = None
        self._seq = next(_seq)

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def item(self) -> float:
        return float(self.data)

    def detach(self) -> "Tensor":
        """A constant leaf sharing this tensor's values."""
        out = Tensor.__new__(Tensor)
        out.data = self.data
        out.grad = None
        out.requires_grad = False
        out._parents = ()
        out._vjp = None
        out._seq = next(_seq)
        return out

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # arithmetic operators delegate to the module-level primitives
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)

    def sum(self, axis=None, keepdims=False):
        return tsum(self, axis=axis, keepdims=keepdims)

    def mean(self):
        return tmean(self)

    def reshape(self, shape):
        return reshape(self, shape)


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _result(data, parents, vjp) -> Tensor:
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    out._seq = next(_seq)
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._vjp = vjp
    else:
        out.requires_grad = False
        out._parents = ()
        out._vjp = None
    return out


def _unbroadcast(g, shape):
    """Sum a gradient down to ``shape`` (reverses numpy broadcasting)."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (gs, ss) in enumerate(zip(g.shape, shape)) if ss == 1 and gs != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def add(a, b):
    a, b = as_tensor(a), as_tensor(b)
    data = a.data + b.data

    def vjp(g):
        return _unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)

    return _result(data, (a, b), vjp)


def sub(a, b):
    a, b = as_tensor(a), as_tensor(b)
    data = a.data - b.data

    def vjp(g):
        return _unbroadcast(g, a.data.shape), _unbroadcast(-g, b.data.shape)

    return _result(data, (a, b), vjp)


def mul(a, b):
    a, b = as_tensor(a), as_tensor(b)
    data = a.data * b.data

    def vjp(g):
        return _unbroadcast(g * b.data, a.data.shape), _unbroadcast(g * a.data, b.data.shape)

    return _result(data, (a, b), vjp)


def div(a, b):
    a, b = as_tensor(a), as_tensor(b)
    data = a.data / b.data

    def vjp(g):
        ga = _unbroadcast(g / b.data, a.data.shape)
        gb = _unbroadcast(-g * a.data / (b.data * b.data), b.data.shape)
        return ga, gb

    return _result(data, (a, b), vjp)


def neg(a):
    a = as_tensor(a)

    def vjp(g):
        return (-g,)

    return _result(-a.data, (a,), vjp)


def matmul(a, b):
    a, b = as_tensor(a), as_tensor(b)
    A, B = a.data, b.data
    if A.ndim == 0 or B.ndim == 0:
        raise DimensionError("matmul operands must be at least 1-D")
    try:
        data = A @ B
    except ValueError as exc:
        raise DimensionError(f"matmul shapes {A.shape} and {B.shape}: {exc}") from None

    def vjp(g):
        A2 = A.reshape(1, -1) if A.ndim == 1 else A
        B2 = B.reshape(-1, 1) if B.ndim == 1 else B
        if A.ndim == 1 and B.ndim == 1:
            g2 = g.reshape(1, 1)
        elif A.ndim == 1:
            g2 = np.expand_dims(g, -2)
        elif B.ndim == 1:
            g2 = np.expand_dims(g, -1)
        else:
            g2 = g
        ga = g2 @ np.swapaxes(B2, -1, -2)
        gb = np.swapaxes(A2, -1, -2) @ g2
        if A.ndim == 1:
            ga = ga.reshape(ga.shape[:-2] + (A.shape[0],))
        if B.ndim == 1:
            gb = gb.reshape(gb.shape[:-1])
        return _unbroadcast(ga, A.shape), _unbroadcast(gb, B.shape)

    return _result(data, (a, b), vjp)


def relu(a):
    a = as_tensor(a)
    data = np.maximum(a.data, 0.0)

    def vjp(g):
        return (g * (a.data > 0),)

    return _result(data, (a,), vjp)


def _expit(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    e = np.exp(x[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def sigmoid(a):
    a = as_tensor(a)
    s = _expit(a.data)

    def vjp(g):
        return (g * s * (1.0 - s),)

    return _result(s, (a,), vjp)


def tanh(a):
    a = as_tensor(a)
    t = np.tanh(a.data)

    def vjp(g):
        return (g * (1.0 - t * t),)

    return _result(t, (a,), vjp)


def exp(a):
    a = as_tensor(a)
    e = np.exp(a.data)

    def vjp(g):
        return (g * e,)

    return _result(e, (a,), vjp)


def log(a):
    a = as_tensor(a)

    def vjp(g):
        return (g / a.data,)

    return _result(np.log(a.data), (a,), vjp)


def sqrt(a):
    a = as_tensor(a)
    r = np.sqrt(a.data)

    def vjp(g):
        return (g * 0.5 / r,)

    return _result(r, (a,), vjp)


def softplus(a):
    """log(1 + e^x), evaluated in log-sum-exp form."""
    a = as_tensor(a)
    data = np.logaddexp(0.0, a.data)

    def vjp(g):
        return (g * _expit(a.data),)

    return _result(data, (a,), vjp)


def tsum(a, axis=None, keepdims=False):
    a = as_tensor(a)
    data = a.data.sum(axis=axis, keepdims=keepdims)

    def vjp(g):
        if axis is None:
            return (np.broadcast_to(g, a.data.shape),)
        gg = g
        if not keepdims:
            axes = axis if isinstance(axis, tuple) else (axis,)
            for ax in sorted(ax % a.data.ndim for ax in axes):
                gg = np.expand_dims(gg, ax)
        return (np.broadcast_to(gg, a.data.shape),)

    return _result(data, (a,), vjp)


def tmean(a):
    a = as_tensor(a)
    n = a.data.size
    data = a.data.mean()

    def vjp(g):
        return (np.broadcast_to(g / n, a.data.shape),)

    return _result(data, (a,), vjp)


def reshape(a, shape):
    a = as_tensor(a)
    data = a.data.reshape(shape)

    def vjp(g):
        return (g.reshape(a.data.shape),)

    return _result(data, (a,), vjp)


def transpose(a, axes=None):
    a = as_tensor(a)
    data = np.transpose(a.data, axes)
    if axes is None:
        inv = None
    else:
        inv = np.argsort(axes)

    def vjp(g):
        return (np.transpose(g, inv),)

    return _result(data, (a,), vjp)


def concat(tensors, axis=0):
    tensors = [as_tensor(t) for t in tensors]
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def vjp(g):
        sl = [slice(None)] * g.ndim
        out = []
        for i in range(len(tensors)):
            sl[axis] = slice(offsets[i], offsets[i + 1])
            out.append(g[tuple(sl)])
        return tuple(out)

    return _result(data, tuple(tensors), vjp)


def slice_last(a, start, stop):
    a = as_tensor(a)
    data = a.data[..., start:stop]

    def vjp(g):
        full = np.zeros_like(a.data)
        full[..., start:stop] = g
        return (full,)

    return _result(data, (a,), vjp)


def gather_stack(items):
    """Stack gathered rows into an (n, d) tensor.

    ``items`` is a sequence of ``(tensor, row)`` pairs where ``row`` is None
    for a 1-D tensor used whole, or an integer row index into a 2-D tensor.
    The same tensor may appear many times; its gradient accumulates.
    """
    if not items:
        raise DimensionError("gather_stack needs at least one item")
    groups = {}  # id -> [tensor, positions, rows]
    order = []
    for pos, (t, r) in enumerate(items):
        key = id(t)
        if key not in groups:
            groups[key] = [t, [], [] if r is not None else None]
            order.append(key)
        grp = groups[key]
        grp[1].append(pos)
        if r is not None:
            if grp[2] is None:
                raise DimensionError("tensor used both whole and by row")
            grp[2].append(r)

    first = items[0]
    d = first[0].data.shape[-1]
    data = np.empty((len(items), d), dtype=np.float64)
    for pos, (t, r) in enumerate(items):
        v = t.data if r is None else t.data[r]
        if v.shape != (d,):
            raise DimensionError(f"gathered row has shape {v.shape}, expected ({d},)")
        data[pos] = v

    parents = tuple(groups[k][0] for k in order)
    packed = [
        (np.asarray(groups[k][1]), None if groups[k][2] is None else np.asarray(groups[k][2]))
        for k in order
    ]

    def vjp(g):
        out = []
        for t, (positions, rows) in zip(parents, packed):
            if rows is None:
                out.append(g[positions].sum(axis=0))
            else:
                acc = np.zeros_like(t.data)
                np.add.at(acc, rows, g[positions])
                out.append(acc)
        return tuple(out)

    return _result(data, parents, vjp)


def take_rows(src, rows, fill):
    """Row ``i`` is ``src[rows[i]]`` where ``rows[i] >= 0``, else the
    constant ``fill[i]``.  Gradients of taken rows scatter back to ``src``;
    a row taken many times accumulates."""
    src = as_tensor(src)
    rows = np.asarray(rows, dtype=np.intp)
    data = np.array(fill, dtype=np.float64)
    if data.shape != (rows.size,) + src.data.shape[1:]:
        raise DimensionError(f"fill shape {data.shape} does not match {rows.size} rows of src")
    pos = np.flatnonzero(rows >= 0)
    taken = rows[pos]
    data[pos] = src.data[taken]

    def vjp(g):
        acc = np.zeros_like(src.data)
        np.add.at(acc, taken, g[pos])
        return (acc,)

    return _result(data, (src,), vjp)


def _segment_starts(seg, n_seg):
    counts = np.bincount(seg, minlength=n_seg)
    starts = np.zeros(n_seg, dtype=np.intp)
    np.cumsum(counts[:-1], out=starts[1:])
    return counts, starts


def segment_sum(a, seg, n_seg):
    """Sum rows of ``a`` by non-decreasing segment id into (n_seg, ...)."""
    a = as_tensor(a)
    seg = np.asarray(seg, dtype=np.intp)
    if seg.size and np.any(np.diff(seg) < 0):
        raise ValueError("segment ids must be non-decreasing")
    counts, starts = _segment_starts(seg, n_seg)
    data = np.zeros((n_seg,) + a.data.shape[1:], dtype=np.float64)
    valid = counts > 0
    if a.data.shape[0]:
        data[valid] = np.add.reduceat(a.data, starts[valid], axis=0)

    def vjp(g):
        return (g[seg],)

    return _result(data, (a,), vjp)


def repeat_rows(a, idx):
    """Gather rows ``a[idx]``; the transpose of ``segment_sum`` for sorted idx."""
    a = as_tensor(a)
    idx = np.asarray(idx, dtype=np.intp)
    data = a.data[idx]

    def vjp(g):
        acc = np.zeros_like(a.data)
        if idx.size and np.all(np.diff(idx) >= 0):
            counts, starts = _segment_starts(idx, a.data.shape[0])
            valid = counts > 0
            acc[valid] = np.add.reduceat(g, starts[valid], axis=0)
        else:
            np.add.at(acc, idx, g)
        return (acc,)

    return _result(data, (a,), vjp)


def logsumexp(a, axis=-1, keepdims=False):
    a = as_tensor(a)
    shift = np.max(a.data, axis=axis, keepdims=True)
    e = exp(sub(a, Tensor(shift)))
    s = log(tsum(e, axis=axis, keepdims=True))
    out = add(s, Tensor(shift))
    if not keepdims:
        out = reshape(out, np.sum(e.data, axis=axis).shape)
    return out


def backward(loss, leaves=None):
    """Propagate d(loss)/d(leaf) to every reachable ``requires_grad`` leaf.

    Returns a map from leaf tensor to its gradient array.  When ``leaves``
    is given, leaves the loss never touched are included with zero
    gradients.
    """
    loss = as_tensor(loss)
    if loss.data.size != 1:
        raise ValueError("backward expects a scalar loss")

    topo = []
    seen = {id(loss)}
    stack = [loss]
    while stack:
        t = stack.pop()
        topo.append(t)
        for p in t._parents:
            if id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    topo.sort(key=lambda t: t._seq, reverse=True)

    grads = {id(loss): np.ones_like(loss.data)}
    result = {}
    for t in topo:
        g = grads.pop(id(t), None)
        if g is None:
            continue
        if t._vjp is None:
            if t.requires_grad:
                t.grad = g
                result[t] = g
            continue
        for p, pg in zip(t._parents, t._vjp(g)):
            if pg is None or not p.requires_grad:
                continue
            key = id(p)
            if key in grads:
                grads[key] = grads[key] + pg
            else:
                grads[key] = pg

    if leaves is not None:
        for leaf in leaves:
            if leaf not in result:
                z = np.zeros_like(leaf.data)
                leaf.grad = z
                result[leaf] = z
    return result
