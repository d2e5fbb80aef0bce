"""The three learned layer kinds: feed-forward nets, a recurrent memory
cell, and multi-head dot-product attention.

Layers register their weights on a shared :class:`ParameterSet` under a
name prefix, so a whole model checkpoints as one flat map.
"""

from __future__ import annotations

import numpy as np

from .params import ParameterSet
from .tensor import DimensionError, Tensor, feedforward, recurrent_cell, segment_attention


def _check_positive(name: str, **dims) -> None:
    bad = {k: v for k, v in dims.items() if v <= 0}
    if bad:
        raise ValueError(f"{name}: layer dims must be positive, got {bad}")


def uniform_init(rng: np.random.Generator, shape, fan_in: int) -> np.ndarray:
    if fan_in == 0:   # only an empty shape has no inputs
        return np.zeros(shape)
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape)


class Feedforward:
    """Two-layer perceptron: relu hidden layer, linear output.  ``apply``
    runs it as the one op :func:`tensor.feedforward` on (n, in) rows, with
    the bits of the seven primitives it replaces."""

    def __init__(self, params: ParameterSet, name: str, in_dim: int, out_dim: int,
                 hidden_dim: int | None = None, rng: np.random.Generator | None = None):
        rng = rng if rng is not None else np.random.default_rng(0)
        hidden = out_dim if hidden_dim is None else hidden_dim
        _check_positive(name, in_dim=in_dim, out_dim=out_dim, hidden_dim=hidden)
        self.name, self.in_dim, self.out_dim = name, in_dim, out_dim
        self.w1 = params.add(f"{name}.w1", uniform_init(rng, (hidden, in_dim), in_dim))
        self.b1 = params.add(f"{name}.b1", uniform_init(rng, (hidden,), in_dim))
        self.w2 = params.add(f"{name}.w2", uniform_init(rng, (out_dim, hidden), hidden))
        self.b2 = params.add(f"{name}.b2", uniform_init(rng, (out_dim,), hidden))

    def apply(self, x: Tensor) -> Tensor:
        if x.data.ndim != 2 or x.data.shape[1] != self.in_dim:
            raise DimensionError(f"{self.name}: input shape {x.data.shape} != (n, {self.in_dim})")
        return feedforward(x, self.w1, self.b1, self.w2, self.b2)


class RecurrentCell:
    """Four-gate LSTM-style cell whose single state vector doubles as the
    carried cell value: new = output ⊙ tanh(forget ⊙ state + input ⊙ cand).

    ``apply`` runs the step as the one op :func:`tensor.recurrent_cell` on
    (n, in) input rows and (n, d) state rows.  Fusing saves the fresh
    temporaries, and their page faults, of about twenty primitive ops, not
    arithmetic.  It sums in their order, x·wᵀ, then + state·uᵀ, then + b,
    so values and gradients keep their bits.

    Zero parameters make the zero state a fixed point for any input.
    """

    GATES = ("input", "forget", "candidate", "output")

    def __init__(self, params: ParameterSet, name: str, in_dim: int, state_dim: int,
                 rng: np.random.Generator | None = None):
        rng = rng if rng is not None else np.random.default_rng(0)
        _check_positive(name, in_dim=in_dim, state_dim=state_dim)
        self.name, self.in_dim, self.out_dim = name, in_dim, state_dim
        k = 4 * state_dim
        self.w = params.add(f"{name}.w", uniform_init(rng, (k, in_dim), in_dim))
        self.u = params.add(f"{name}.u", uniform_init(rng, (k, state_dim), state_dim))
        self.b = params.add(f"{name}.b", uniform_init(rng, (k,), state_dim))

    def apply(self, x: Tensor, state: Tensor) -> Tensor:
        n = x.data.shape[:1]
        if x.data.shape != n + (self.in_dim,) or state.data.shape != n + (self.out_dim,):
            raise DimensionError(
                f"{self.name}: got input {x.data.shape} / state {state.data.shape}, "
                f"expected (n, {self.in_dim}) / (n, {self.out_dim})")
        return recurrent_cell(x, state, self.w, self.u, self.b)


class MultiHeadAttention:
    """A self projection plus segmented multi-head dot-product attention:
    each query's output is ``self_proj · q`` plus its attention over its own
    rows; each row serves as both key and value.

    Rows are factored as ``[table[index], extra]``: a table of distinct
    states, an index into it per row, and per-row extra columns.  Per head:
    weights = softmax(q · kᵀ / sqrt(d_head)) over a query's rows, output is
    the weight-combined value projections, heads concatenated.  A query
    with no rows gets its self projection alone.  Parameters are
    registered and drawn in the order ``{name}.self_proj``,
    ``{name}.attn.wq``, ``{name}.attn.wk``, ``{name}.attn.wv``.

    Rows come packed position-major; :func:`tensor.segment_attention`
    gives the layout and the order of its sums.
    """

    def __init__(self, params: ParameterSet, name: str, query_dim: int, out_dim: int,
                 heads: int, key_dim: int | None = None,
                 rng: np.random.Generator | None = None):
        rng = rng if rng is not None else np.random.default_rng(0)
        key_dim = query_dim if key_dim is None else key_dim
        # an empty query is allowed: its rows then weigh the same
        if query_dim < 0:
            raise ValueError(f"{name}: query dim must be >= 0, got {query_dim}")
        _check_positive(name, out_dim=out_dim, key_dim=key_dim, heads=heads)
        if out_dim % heads:
            raise ValueError(f"{name}: output dim {out_dim} is not divisible by {heads} heads")
        self.name, self.in_dim, self.out_dim = name, query_dim, out_dim
        self.heads, self.key_dim = heads, key_dim
        self.self_proj = params.add(f"{name}.self_proj",
                                    uniform_init(rng, (out_dim, query_dim), query_dim))
        self.wq = params.add(f"{name}.attn.wq", uniform_init(rng, (out_dim, query_dim), query_dim))
        self.wk = params.add(f"{name}.attn.wk", uniform_init(rng, (out_dim, key_dim), key_dim))
        self.wv = params.add(f"{name}.attn.wv", uniform_init(rng, (out_dim, key_dim), key_dim))

    def apply(self, queries: Tensor, table: Tensor, index: np.ndarray, extra: np.ndarray,
              order: np.ndarray, sizes: np.ndarray):
        """queries (n_q, d_q), table (u, d_s), ``index`` (n,) rows of the
        table, constant ``extra`` (n, d_e) with d_s + d_e the key dim, and
        the packed layout ``order``/``sizes`` of the n rows.  Returns
        (output (n_q, out_dim), weights (n, heads)); the op checks that
        index, extra and sizes cover the same rows."""
        if queries.data.ndim != 2 or queries.data.shape[1] != self.in_dim:
            raise DimensionError(
                f"{self.name}: query shape {queries.data.shape} != (n, {self.in_dim})")
        width = table.data.shape[1] + np.shape(extra)[1]
        if width != self.key_dim:
            raise DimensionError(f"{self.name}: row width {width} != key dim {self.key_dim}")
        return segment_attention(queries, table, index, extra, self.self_proj, self.wq, self.wk,
                                 self.wv, order, sizes, self.heads)
