"""The three learned layer kinds: feed-forward nets, a recurrent memory
cell, and multi-head dot-product attention.

Layers register their weights on a shared :class:`ParameterSet` under a
name prefix, so a whole model checkpoints as one flat map.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .params import ParameterSet
from .tensor import (
    DimensionError,
    Tensor,
    add,
    div,
    exp,
    matmul,
    mul,
    relu,
    repeat_rows,
    reshape,
    segment_sum,
    sigmoid,
    slice_last,
    sub,
    tanh,
    transpose,
    tsum,
)

VALID_KINDS = ("feedforward", "recurrent-cell", "attention")


@dataclass(frozen=True)
class LayerSpec:
    kind: str
    in_dim: int
    out_dim: int
    hidden_dim: int | None = None
    heads: int = 1
    key_dim: int | None = None
    value_dim: int | None = None

    def __post_init__(self):
        if self.kind not in VALID_KINDS:
            raise ValueError(f"unknown layer kind {self.kind!r}")
        dims = [self.in_dim, self.out_dim]
        if self.hidden_dim is not None:
            dims.append(self.hidden_dim)
        if self.key_dim is not None:
            dims.append(self.key_dim)
        if self.value_dim is not None:
            dims.append(self.value_dim)
        if any(d <= 0 for d in dims):
            raise ValueError("layer dims must be positive")
        if self.kind == "attention":
            if self.heads <= 0:
                raise ValueError("head count must be positive")
            if self.out_dim % self.heads:
                raise ValueError("attention output dim must be divisible by head count")


def uniform_init(rng: np.random.Generator, shape, fan_in: int) -> np.ndarray:
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape)


class Feedforward:
    """Two-layer perceptron: relu hidden layer, linear output."""

    def __init__(self, params: ParameterSet, name: str, in_dim: int, out_dim: int,
                 hidden_dim: int | None = None, rng: np.random.Generator | None = None):
        rng = rng if rng is not None else np.random.default_rng(0)
        hidden = out_dim if hidden_dim is None else hidden_dim
        self.spec = LayerSpec("feedforward", in_dim, out_dim, hidden_dim=hidden)
        self.name = name
        self.w1 = params.add(f"{name}.w1", uniform_init(rng, (hidden, in_dim), in_dim))
        self.b1 = params.add(f"{name}.b1", uniform_init(rng, (hidden,), in_dim))
        self.w2 = params.add(f"{name}.w2", uniform_init(rng, (out_dim, hidden), hidden))
        self.b2 = params.add(f"{name}.b2", uniform_init(rng, (out_dim,), hidden))

    def apply(self, x: Tensor) -> Tensor:
        if x.data.shape[-1] != self.spec.in_dim:
            raise DimensionError(
                f"{self.name}: input dim {x.data.shape[-1]} != {self.spec.in_dim}")
        h = relu(add(matmul(x, transpose(self.w1)), self.b1))
        return add(matmul(h, transpose(self.w2)), self.b2)


class RecurrentCell:
    """Four-gate LSTM-style cell whose single state vector doubles as the
    carried cell value: new = output ⊙ tanh(forget ⊙ state + input ⊙ cand).

    Zero parameters make the zero state a fixed point for any input.
    """

    GATES = ("input", "forget", "candidate", "output")

    def __init__(self, params: ParameterSet, name: str, in_dim: int, state_dim: int,
                 rng: np.random.Generator | None = None):
        rng = rng if rng is not None else np.random.default_rng(0)
        self.spec = LayerSpec("recurrent-cell", in_dim, state_dim)
        self.name = name
        k = 4 * state_dim
        self.w = params.add(f"{name}.w", uniform_init(rng, (k, in_dim), in_dim))
        self.u = params.add(f"{name}.u", uniform_init(rng, (k, state_dim), state_dim))
        self.b = params.add(f"{name}.b", uniform_init(rng, (k,), state_dim))

    def apply(self, x: Tensor, state: Tensor, return_gates: bool = False):
        if x.data.shape[-1] != self.spec.in_dim or state.data.shape[-1] != self.spec.out_dim:
            raise DimensionError(
                f"{self.name}: got input dim {x.data.shape[-1]} / state dim "
                f"{state.data.shape[-1]}, expected {self.spec.in_dim} / {self.spec.out_dim}")
        z = add(add(matmul(x, transpose(self.w)), matmul(state, transpose(self.u))), self.b)
        d = self.spec.out_dim
        gate_in = sigmoid(slice_last(z, 0, d))
        gate_forget = sigmoid(slice_last(z, d, 2 * d))
        cand = tanh(slice_last(z, 2 * d, 3 * d))
        gate_out = sigmoid(slice_last(z, 3 * d, 4 * d))
        cell = add(mul(gate_forget, state), mul(gate_in, cand))
        new_state = mul(gate_out, tanh(cell))
        if return_gates:
            gates = {"input": gate_in, "forget": gate_forget,
                     "candidate": cand, "output": gate_out}
            return new_state, gates
        return new_state


def _segment_max(values: np.ndarray, seg: np.ndarray, n_seg: int) -> np.ndarray:
    out = np.full((n_seg,) + values.shape[1:], -np.inf)
    np.maximum.at(out, seg, values)
    return out


class MultiHeadAttention:
    """Segmented multi-head dot-product attention: query ``i`` attends over
    the key/value rows whose segment id is ``i``.

    Per head: weights = softmax(q · kᵀ / sqrt(d_head)) within a segment,
    output is the weight-combined value projections, heads concatenated.
    A query whose segment has no rows gets a zero output.
    """

    def __init__(self, params: ParameterSet, name: str, query_dim: int, out_dim: int,
                 heads: int, key_dim: int | None = None, value_dim: int | None = None,
                 rng: np.random.Generator | None = None):
        rng = rng if rng is not None else np.random.default_rng(0)
        key_dim = query_dim if key_dim is None else key_dim
        value_dim = key_dim if value_dim is None else value_dim
        self.spec = LayerSpec("attention", query_dim, out_dim, heads=heads,
                              key_dim=key_dim, value_dim=value_dim)
        self.name = name
        self.wq = params.add(f"{name}.wq", uniform_init(rng, (out_dim, query_dim), query_dim))
        self.wk = params.add(f"{name}.wk", uniform_init(rng, (out_dim, key_dim), key_dim))
        self.wv = params.add(f"{name}.wv", uniform_init(rng, (out_dim, value_dim), value_dim))

    def apply(self, queries: Tensor, keys: Tensor, values: Tensor, seg: np.ndarray):
        """queries (n_q, d_q), keys (n, d_k), values (n, d_v), ``seg`` (n,)
        non-decreasing query ids.  Returns (output (n_q, out_dim),
        weights (n, heads))."""
        n = keys.data.shape[0]
        if n == 0:
            raise ValueError("attention requires a non-empty key set")
        if values.data.shape[0] != n or np.shape(seg) != (n,):
            raise DimensionError("keys, values and segment ids must have equal length")
        if queries.data.ndim != 2 or queries.data.shape[1] != self.spec.in_dim:
            raise DimensionError(
                f"{self.name}: query shape {queries.data.shape} != (n, {self.spec.in_dim})")
        if keys.data.shape[1] != self.spec.key_dim or values.data.shape[1] != self.spec.value_dim:
            raise DimensionError(f"{self.name}: key/value dims do not match layer spec")
        seg = np.asarray(seg, dtype=np.intp)
        n_q = queries.data.shape[0]
        H = self.spec.heads
        D = self.spec.out_dim
        dh = D // H
        q = matmul(queries, transpose(self.wq))
        k = matmul(keys, transpose(self.wk))
        v = matmul(values, transpose(self.wv))
        qr = repeat_rows(q, seg)
        logits = mul(tsum(mul(reshape(qr, (n, H, dh)), reshape(k, (n, H, dh))), axis=2),
                     1.0 / np.sqrt(dh))
        shift = _segment_max(logits.data, seg, n_q)
        e = exp(sub(logits, Tensor(shift[seg])))
        denom = segment_sum(e, seg, n_q)
        alpha = div(e, repeat_rows(denom, seg))
        weighted = mul(reshape(v, (n, H, dh)), reshape(alpha, (n, H, 1)))
        return reshape(segment_sum(weighted, seg, n_q), (n_q, D)), alpha
