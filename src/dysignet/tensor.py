"""Dense single-precision tensors with reverse-mode automatic
differentiation.

Every array the model computes with is ``DTYPE``, float32: parameters,
activations, gradients and every buffer the fused ops allocate.  Python
floats mix in without widening an array (NEP 50), so constants are written
as Python floats, and ``np.bincount``, which sums in float64, has its
result cast back.  ``DTYPE`` is read where an array is made, never copied,
so setting it to float64 runs the same code in double precision.

Every tensor produced by an operation keeps references to its parents, the
local vector-Jacobian product, and a monotonically increasing sequence
number.  Creation order is therefore a valid topological order of the
implicit tape, and ``backward`` replays reachable nodes in descending
sequence order, freeing each op's vjp once it has run: a tape is consumed
by one backward.  The tape's root is the decoder output, seeded with the
gradient of the task loss, which ``heads`` computes in closed form, so
there is no scalar loss tensor.  The module holds only the ops the model
runs, each on ``Tensor`` operands, and the fused ops take 2-D rows only:
every caller passes rows.

Recording happens only while gradients are enabled (see ``no_grad``) and
only for results that can reach a ``requires_grad`` leaf, so inference
passes carry no bookkeeping cost.
"""

from __future__ import annotations

import itertools
import math
from contextlib import contextmanager

import numpy as np

DTYPE = np.float32
_CHUNK_ROWS = 1 << 12  # packed rows per attention row pass, in whole blocks; tests patch it


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
    __slots__ = ("data", "requires_grad", "_parents", "_vjp", "_seq")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=DTYPE)
        self.requires_grad = bool(requires_grad)
        self._parents = ()
        self._vjp = None
        self._seq = next(_seq)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def _result(data, parents, vjp) -> Tensor:
    out = Tensor.__new__(Tensor)
    out.data = data
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


def _expit(x, out=None):
    """Logistic sigmoid without masks.  ``e = exp(-|x|)`` is at most 1, so
    the numerator ``max(e, x >= 0)`` is 1 where x >= 0 and ``e`` elsewhere,
    and ``num / (1 + e)`` is bitwise the two-branch form, for ±inf, -0.0
    and 0-d input too; NaN stays NaN.  ``out`` may be ``x`` itself.  The
    result has the dtype of ``x``."""
    e = np.abs(x, out=np.empty(np.shape(x), dtype=np.result_type(x, DTYPE)))
    np.negative(e, out=e)
    np.exp(e, out=e)
    if out is None:
        out = np.empty_like(e)
    np.maximum(e, np.greater_equal(x, 0), out=out)
    e += 1.0
    out /= e
    return out


def concat(tensors, axis=0):
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


def _scatter_cols(index, cols, n):
    """(d, n) array whose column ``k`` sums the columns ``cols[:, i]`` with
    ``index[i] == k``, for a feature-major (d, len(index)) ``cols``.  One
    ``bincount`` per feature adds in row order, as ``np.add.at`` does, so
    under float64 the sums are bitwise equal at a fraction of its cost."""
    out = np.empty((cols.shape[0], n), dtype=DTYPE)
    for j, col in enumerate(cols):
        out[j] = np.bincount(index, weights=col, minlength=n)
    return out


def _scatter_rows(index, rows, n):
    """(n, ...) array whose row ``k`` sums the ``rows[i]`` with
    ``index[i] == k``, bitwise as ``np.add.at`` under float64."""
    cols = rows.reshape(rows.shape[0], math.prod(rows.shape[1:])).T
    return _scatter_cols(index, cols, n).T.reshape((n,) + rows.shape[1:])


def gather_stack(items):
    """Stack gathered rows into an (n, d) tensor.

    ``items`` is a sequence of ``(tensor, row)`` pairs that all name one
    2-D tensor, ``row`` a non-negative row index into it.  A row may
    repeat; its gradient accumulates.
    """
    if not items:
        raise DimensionError("gather_stack needs at least one item")
    src = items[0][0]
    if any(t is not src for t, _ in items):
        raise DimensionError("gather_stack gathers the rows of one tensor")
    if src.data.ndim != 2:
        raise DimensionError(f"gather_stack needs a 2-D tensor, got shape {src.data.shape}")
    rows = np.fromiter((r for _, r in items), np.intp, len(items))
    return take_rows(src, rows, np.zeros((len(items), src.data.shape[1]), dtype=DTYPE))


def take_rows(src, rows, fill):
    """Row ``i`` is ``src[rows[i]]`` where ``rows[i] >= 0``, else the
    constant ``fill[i]``.  Gradients of taken rows scatter back to ``src``;
    a row taken many times accumulates.  When every taken row is distinct
    the gradient is scattered by assignment, and adding 0.0 gives it the
    bits of the summing scatter, ``-0.0`` turned to ``0.0`` included."""
    rows = np.asarray(rows, dtype=np.intp)
    data = np.array(fill, dtype=DTYPE)
    if data.shape != (rows.size,) + src.data.shape[1:]:
        raise DimensionError(f"fill shape {data.shape} does not match {rows.size} rows of src")
    pos = np.flatnonzero(rows >= 0)
    taken = rows[pos]
    data[pos] = src.data[taken]

    def vjp(g):
        n = src.data.shape[0]
        hit = np.zeros(n, dtype=bool)
        hit[taken] = True
        if np.count_nonzero(hit) < taken.size:
            return (_scatter_rows(taken, g[pos], n),)
        out = np.zeros((n,) + g.shape[1:], dtype=DTYPE)
        out[taken] = g[pos]
        out += 0.0
        return (out,)

    return _result(data, (src,), vjp)


def _gate_blocks(a, d):
    """Views of the four width-``d`` column blocks of ``a``."""
    return [a[:, k * d:(k + 1) * d] for k in range(4)]


def _sigmoid_grad(g, s):
    """``g * s * (1 - s)`` in place in ``g``, in that order."""
    g *= s
    g *= 1.0 - s


def _live_rows(g, *saved):
    """The indices of the rows of ``g`` with a nonzero entry (None when
    every row has one), then those rows of ``g`` and of each ``saved``
    array.  A zero cotangent row adds nothing to any gradient, so a vjp
    may run on the live rows alone and :func:`_spread` its input gradients
    back."""
    live = np.flatnonzero(g.any(axis=1))
    if live.size == g.shape[0]:
        return (None, g) + saved
    return (live, g[live]) + tuple(a[live] for a in saved)


def _spread(part, live, n):
    """The input-gradient rows ``part`` of the ``live`` rows as all n rows,
    zero elsewhere."""
    if live is None:
        return part
    out = np.zeros((n,) + part.shape[1:], dtype=DTYPE)
    out[live] = part
    return out


def _hidden(X, w1, b1):
    """``relu(X · w1ᵀ + b1)``, each step in place on one buffer."""
    h = X @ w1.T
    h += b1
    np.maximum(h, 0.0, out=h)
    return h


def feedforward(x, w1, b1, w2, b2):
    """``relu(x · w1ᵀ + b1) · w2ᵀ + b2`` as one op on (n, in) rows ``x``.
    The vjp keeps no array of its own: on the rows whose cotangent has a
    nonzero entry it recomputes the hidden activations from ``x.data`` as
    the forward pass did, and gives the other rows zero input gradients;
    the parameter gradients keep their values, their sums regrouped."""
    out = _hidden(x.data, w1.data, b1.data) @ w2.data.T
    out += b2.data

    def vjp(g):
        live, g, X = _live_rows(g, x.data)
        h = _hidden(X, w1.data, b1.data)
        g_w2 = (h.T @ g).T
        g_h = g @ w2.data
        g_h *= h > 0
        g_w1 = (X.T @ g_h).T
        g_x = _spread(g_h @ w1.data, live, x.data.shape[0]) if x.requires_grad else None
        return g_x, g_w1, g_h.sum(axis=0), g_w2, g.sum(axis=0)

    return _result(out, (x, w1, b1, w2, b2), vjp)


def _cell_gates(X, S, w, u, b):
    """The input, forget, candidate and output gates of rows ``X``, ``S``,
    each from its column block of ``z`` into one contiguous (4, n, d)
    buffer, and the tanh of the cell value, computed in place."""
    z = X @ w.T
    z += S @ u.T
    z += b
    gates = np.empty((4,) + S.shape, dtype=DTYPE)
    for f, zk, out in zip((_expit, _expit, np.tanh, _expit), _gate_blocks(z, S.shape[1]), gates):
        f(zk, out=out)
    gi, gf, c, go = gates
    tc = gf * S
    tc += gi * c
    np.tanh(tc, out=tc)
    return gi, gf, c, go, tc


def recurrent_cell(x, state, w, u, b):
    """Four-gate cell step as one op: ``z = x · wᵀ + state · uᵀ + b``
    split into input, forget, candidate and output blocks of the state
    width d, then ``output ⊙ tanh(forget ⊙ state + input ⊙ candidate)``.
    ``x`` is (n, in) and ``state`` (n, d).  Like :func:`feedforward`'s,
    the vjp keeps no array of its own: on the rows whose cotangent has a
    nonzero entry it recomputes the gates and cell tanh from the inputs."""
    d = state.data.shape[1]
    *_, go, tc = _cell_gates(x.data, state.data, w.data, u.data, b.data)
    new = go * tc

    def vjp(g):
        live, g, X, S = _live_rows(g, x.data, state.data)
        gi, gf, c, go, tc = _cell_gates(X, S, w.data, u.data, b.data)
        # every term is formed as the composed ops formed it, operands and
        # order alike, and g_z is written block by block into one buffer
        g_z = np.empty((S.shape[0], 4 * d), dtype=DTYPE)
        gz_i, gz_f, gz_c, gz_o = _gate_blocks(g_z, d)
        np.multiply(g, tc, out=gz_o)
        _sigmoid_grad(gz_o, go)
        g_cell = g * go
        g_cell *= 1.0 - tc * tc
        np.multiply(g_cell, c, out=gz_i)
        _sigmoid_grad(gz_i, gi)
        np.multiply(g_cell, gi, out=gz_c)
        gz_c *= 1.0 - c * c
        np.multiply(g_cell, S, out=gz_f)
        _sigmoid_grad(gz_f, gf)
        g_x = _spread(g_z @ w.data, live, state.data.shape[0]) if x.requires_grad else None
        g_s = None
        if state.requires_grad:
            g_s = g_cell * gf
            g_s += g_z @ u.data
            g_s = _spread(g_s, live, state.data.shape[0])
        return g_x, g_s, (X.T @ g_z).T, (S.T @ g_z).T, g_z.sum(axis=0)

    return _result(new, (x, state, w, u, b), vjp)


def _prefix_sum(rows, spans, m0):
    """Per-query sums of packed ``rows``: block (s, e, m) adds its rows
    onto the first m queries, newest block first."""
    out = np.zeros((m0,) + rows.shape[1:], dtype=DTYPE)
    for s, e, m in spans:
        out[:m] += rows[s:e]
    return out


def _gathered(src, index, spans):
    """Per run of whole blocks (at most ``_CHUNK_ROWS`` rows, or one longer
    block): its first row, blocks and ``src[index]`` rows, in one buffer."""
    runs = []
    for span in spans:
        if runs and span[1] - runs[-1][0][0] <= _CHUNK_ROWS:
            runs[-1].append(span)
        else:
            runs.append([span])
    buf = np.empty((max([0] + [r[-1][1] - r[0][0] for r in runs]), src.shape[1]), dtype=DTYPE)
    for blocks in runs:
        c0, c1 = blocks[0][0], blocks[-1][1]
        # "clip" skips take's buffered bounds check, which the caller has made
        yield c0, blocks, np.take(src, index[c0:c1], axis=0, out=buf[:c1 - c0], mode="clip")


def _row_dots(src, index, q, spans, heads):
    """(n, heads): per row and head, its ``src`` row dotted with its query's ``q`` row."""
    out = np.empty((index.size, heads), dtype=DTYPE)
    for c0, blocks, rows in _gathered(src, index, spans):
        for s, e, m in blocks:
            rows[s - c0:e - c0] *= q[:m]
        np.einsum("nhd->nh", rows.reshape(len(rows), heads, -1), out=out[c0:c0 + len(rows)])
    return out


def _row_sums(src, index, w, spans, m0):
    """``_prefix_sum`` of the rows ``src[index[i]]`` scaled per head by ``w[i]``."""
    out = np.zeros((m0, src.shape[1]), dtype=DTYPE)
    for c0, blocks, rows in _gathered(src, index, spans):
        rows3 = rows.reshape(len(rows), w.shape[1], -1)
        rows3 *= w[c0:c0 + len(rows), :, None]
        for s, e, m in blocks:
            out[:m] += rows[s - c0:e - c0]
    return out


def _scatter_heads(index, w, f3, slot, n):
    """(n, D) sums onto table rows ``index[i]`` of ``w[i, h]`` times head
    h's part of ``f3[slot[i]]``, one (rows,) column per feature: a take,
    the head's weights, and a ``bincount`` over every row in row order."""
    col = np.empty(index.size, dtype=DTYPE)
    out = np.empty((f3.shape[1] * f3.shape[2], n), dtype=DTYPE)
    for h, f_h in enumerate(f3.transpose(1, 2, 0)):
        w_h = w[:, h].copy()
        for j, f_j in enumerate(f_h, h * f3.shape[2]):
            np.take(f_j, slot, out=col, mode="clip")
            col *= w_h
            out[j] = np.bincount(index, weights=col, minlength=n)
    return out.T


def segment_attention(queries, table, index, extra, ws, wq, wk, wv, order, sizes, heads):
    """A self projection plus segmented multi-head dot-product attention
    as one op: query ``i``'s output is ``ws · queries[i]`` plus its
    attention over its own rows.  The self term and its gradients are the
    products a separate ``queries · wsᵀ`` formed, and the attention terms
    are added onto them, so values keep the bits of the two-op form.

    Key/value row ``i`` is ``[table[index[i]], extra[i]]``: a row of a
    table of distinct states followed by constant extra columns, so each
    table row is projected once however many rows point at it.  Per head
    the weights are softmax(q · kᵀ / sqrt(d_head)) over a query's rows and
    the output is the weight-combined value projections, heads
    concatenated; a query with no rows gets its self projection alone, and
    with no rows at all ``wq``, ``wk``, ``wv`` and the table get zero
    gradients.

    Rows come packed position-major.  ``order`` lists the queries that
    have rows, longest segment first, and block p holds ``sizes[p]`` rows
    (non-increasing, ``sizes[0] == len(order)``): one row of each of the
    first ``sizes[p]`` queries in ``order``, in that order.  Each per-query
    reduction (softmax max and denominator, the weighted value sum and the
    backward ``g_q`` sum) is then at most ``len(sizes)`` in-place adds onto
    a shrinking contiguous prefix, and sums run block by block: newest
    first and sequential when block p holds the p-th newest rows, as
    ``HistoryLog.recent`` lays out a history it reads from the event log.
    That order differs from a segment-major reduction, so values move in
    the last bits.

    The extra columns enter through per-query projections: for column c,
    ``q · wk_c`` per query and head scales ``extra[:, c]`` into the
    logits, and ``Σ alpha · extra[:, c]`` per query and head scales
    ``wv_c`` into the output; the backward pass mirrors this.  No (n, D)
    array is made: each D-wide row pass (a key or value gather, then its
    per-head sums or per-query adds) takes consecutive whole blocks, at
    most ``_CHUNK_ROWS`` rows or one longer block at a time, through one
    scratch buffer, and the backward pass recomputes the per-row terms.
    The two scatters onto table rows build one (n,) column per feature.
    Blocks still add newest first and a scatter sums all rows in row
    order, so the chunk size moves no bit.

    Returns (output (n_q, out_dim), weights (n, heads)) with the weights
    in the given row order.  The weights are constants; gradients flow to
    queries, table, ws, wq, wk and wv.
    """
    index = np.asarray(index, dtype=np.intp)
    extra = np.asarray(extra, dtype=DTYPE)
    order = np.asarray(order, dtype=np.intp)
    sizes = np.asarray(sizes, dtype=np.intp)
    n, m0 = index.size, order.size
    n_q, u = queries.data.shape[0], table.data.shape[0]
    if extra.shape[:1] != (n,) or sizes.sum() != n:
        raise DimensionError("index, extra rows and block sizes must cover the same rows")
    if sizes[:1].sum() != m0 or (sizes <= 0).any() or (np.diff(sizes) > 0).any():
        raise ValueError("block sizes must be positive, non-increasing and start at the "
                         "number of queries with rows")
    if (order < 0).any() or (order >= n_q).any() or np.unique(order).size != m0:
        raise ValueError("query order must list distinct query rows")
    if (index < 0).any() or (index >= u).any():
        raise IndexError(f"row index out of range for a table of {u} rows")
    D = wq.data.shape[0]
    dh = D // heads
    scale = 1.0 / math.sqrt(dh)
    ds, ne = table.data.shape[1], extra.shape[1]
    ends = np.cumsum(sizes)
    spans = list(zip((ends - sizes).tolist(), ends.tolist(), sizes.tolist()))
    slot = np.arange(n) - np.repeat(ends - sizes, sizes)   # row -> position in order
    ex = [extra[:, c:c + 1] for c in range(ne)]
    wk_s, wv_s = wk.data[:, :ds], wv.data[:, :ds]
    wk_x = wk.data[:, ds:].T.reshape(ne, heads, dh)
    wv_x = wv.data[:, ds:].T.reshape(ne, heads, dh)

    X = queries.data[order]
    Q = X @ wq.data.T
    Q3 = Q.reshape(m0, heads, dh)
    Kt, Vt = table.data @ wk_s.T, table.data @ wv_s.T
    logits = _row_dots(Kt, index, Q, spans, heads)
    for c in range(ne):
        logits += ex[c] * np.einsum("mhd,hd->mh", Q3, wk_x[c])[slot]
    logits *= scale
    shift = logits[:m0].copy()
    for s, e, m in spans[1:]:
        np.maximum(shift[:m], logits[s:e], out=shift[:m])
    logits -= shift[slot]
    alpha = np.exp(logits, out=logits)
    alpha /= _prefix_sum(alpha, spans, m0)[slot]
    out = _row_sums(Vt, index, alpha, spans, m0)
    out3 = out.reshape(m0, heads, dh)
    alpha_ex = [_prefix_sum(alpha * ex[c], spans, m0) for c in range(ne)]
    for c in range(ne):
        out3 += alpha_ex[c][:, :, None] * wv_x[c]
    full = queries.data @ ws.data.T
    full[order] += out

    def vjp(g):
        gq = g[order]
        gq3 = gq.reshape(m0, heads, dh)
        # softmax backward: d(alpha) is g · v, and a segment's sum of
        # alpha * d(alpha) is <g, out>
        g_logits = _row_dots(Vt, index, gq, spans, heads)
        for c in range(ne):
            g_logits += ex[c] * np.einsum("mhd,hd->mh", gq3, wv_x[c])[slot]
        g_logits -= np.einsum("mhd,mhd->mh", gq3, out3)[slot]
        g_logits *= alpha
        g_logits *= scale
        # keys: g_logits ⊗ q per row, summed onto table rows
        g_kt = _scatter_heads(index, g_logits, Q3, slot, u)
        # queries: g_logits ⊗ k summed per query
        g_q = _row_sums(Kt, index, g_logits, spans, m0)
        g_q3 = g_q.reshape(m0, heads, dh)
        g_wk_x = np.empty((ne, heads, dh), dtype=DTYPE)
        g_wv_x = np.empty((ne, heads, dh), dtype=DTYPE)
        for c in range(ne):
            b = _prefix_sum(g_logits * ex[c], spans, m0)
            g_q3 += b[:, :, None] * wk_x[c]
            g_wk_x[c] = np.einsum("mh,mhd->hd", b, Q3)
            g_wv_x[c] = np.einsum("mh,mhd->hd", alpha_ex[c], gq3)
        # values: alpha ⊗ g per row, summed onto table rows
        g_vt = _scatter_heads(index, alpha, gq3, slot, u)
        g_queries = g @ ws.data
        g_queries[order] += g_q @ wq.data
        g_wk = np.concatenate([g_kt.T @ table.data, g_wk_x.reshape(ne, D).T], axis=1)
        g_wv = np.concatenate([g_vt.T @ table.data, g_wv_x.reshape(ne, D).T], axis=1)
        return (g_queries, g_kt @ wk_s + g_vt @ wv_s, (queries.data.T @ g).T, g_q.T @ X,
                g_wk, g_wv)

    weights = _result(alpha, (), None)
    return _result(full, (queries, table, ws, wq, wk, wv), vjp), weights


def _consumed(g):
    raise RuntimeError("tape already consumed")


def backward(root, grad, leaves=None):
    """Propagate ``grad``, the gradient of a scalar objective with respect
    to ``root``, to every reachable ``requires_grad`` leaf.

    Returns a map from leaf tensor to its gradient array.  When ``leaves``
    is given, leaves the root never reaches are included with zero
    gradients.  Each op drops its parents and vjp once its vjp has run, so
    what it kept is freed before the ops below it run, and a second
    backward through it raises ``RuntimeError``.
    """
    grad = np.asarray(grad, dtype=DTYPE)
    if grad.shape != root.data.shape:
        raise ValueError(f"seed gradient shape {grad.shape} != root shape {root.data.shape}")

    topo = []
    seen = {id(root)}
    stack = [root]
    while stack:
        t = stack.pop()
        topo.append(t)
        for p in t._parents:
            if id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    topo.sort(key=lambda t: t._seq)

    grads = {id(root): grad}
    result = {}
    while topo:
        t = topo.pop()
        g = grads.pop(id(t), None)
        if g is None:
            continue
        if t._vjp is None:
            if t.requires_grad:
                result[t] = g
            continue
        parents, vjp = t._parents, t._vjp
        t._parents, t._vjp = (), _consumed
        for p, pg in zip(parents, vjp(g)):
            if pg is not None and p.requires_grad:
                grads[id(p)] = grads[id(p)] + pg if id(p) in grads else pg

    if leaves is not None:
        for leaf in leaves:
            if leaf not in result:
                result[leaf] = np.zeros_like(leaf.data)
    return result
