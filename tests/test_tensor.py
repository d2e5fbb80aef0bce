import ast
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dysignet.tensor as T
from dysignet.tensor import Tensor, backward

from helpers import attend_segments, pack_rows, weighted
from oracles import add, detach, expit, matmul, mul, neg, relu, sigmoid, slice_last, tanh, transpose
from oracles import gather_stack as oracle_gather_stack

ONE = np.ones((1, 1))


def test_simple_square_gradient():
    x = Tensor([[3.0]], requires_grad=True)
    grads = backward(mul(x, x), ONE)
    assert grads[x] == pytest.approx(6.0)


def test_seed_scales_the_gradient():
    x = Tensor([[3.0, -1.0]], requires_grad=True)
    grads = backward(mul(x, x), np.array([[0.5, 2.0]]))
    assert np.array_equal(grads[x], [[3.0, -4.0]])


def test_disconnected_leaf_gets_zero():
    x = Tensor([[3.0]], requires_grad=True)
    p = Tensor(np.ones(4), requires_grad=True)
    grads = backward(mul(x, x), ONE, leaves=[x, p])
    assert np.all(grads[p] == 0.0)
    assert grads[p].shape == (4,)


def test_seed_of_another_shape_rejected():
    x = Tensor(np.ones((1, 3)), requires_grad=True)
    for seed in (1.0, np.ones(3), np.ones((3, 1))):
        with pytest.raises(ValueError):
            backward(mul(x, x), seed)


def test_matmul_shape_error():
    # mismatched inner dims, and operands that are not 2-D
    for a, b in ((np.ones((2, 3)), np.ones((2, 3))), (np.ones(3), np.ones((3, 2))),
                 (np.ones((2, 3)), np.ones(3)), (np.ones((2, 2, 3)), np.ones((3, 2)))):
        with pytest.raises(T.DimensionError):
            matmul(Tensor(a), Tensor(b))


def test_no_grad_records_nothing():
    x = Tensor(np.ones((1, 3)), requires_grad=True)
    with T.no_grad():
        y = mul(x, x)
    assert y._parents == () and not y.requires_grad


def test_detach_cuts_graph():
    x = Tensor([[2.0]], requires_grad=True)
    y = detach(mul(x, x))
    grads = backward(mul(y, Tensor([[3.0]])), ONE, leaves=[x])
    assert np.all(grads[x] == 0.0)


def test_creation_order_is_topological():
    x = Tensor(np.arange(3.0).reshape(1, 3), requires_grad=True)
    y = mul(add(x, 1.0), tanh(x))
    stack, seen = [y], set()
    while stack:
        t = stack.pop()
        for p in t._parents:
            assert p._seq < t._seq
            if id(p) not in seen:
                seen.add(id(p))
                stack.append(p)


def test_forward_values_match_numpy():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(3, 4))
    b = rng.normal(size=(4,))
    c = rng.normal(size=(4, 2))
    ta, tb = Tensor(a), Tensor(b)
    assert np.allclose(add(ta, tb).data, a + b)
    assert np.allclose(matmul(ta, Tensor(c)).data, a @ c)
    assert np.array_equal(transpose(ta).data, ta.data.T)


def _fd_check(f, tensors, eps=1e-6, tol=5e-6):
    """``f`` returns ``(out, value, seed)`` as :func:`helpers.weighted`."""
    out, _, seed = f()
    grads = backward(out, seed, leaves=tensors)
    for t in tensors:
        flat = t.data.ravel()
        gf = grads[t].ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            up = f()[1]
            flat[i] = orig - eps
            down = f()[1]
            flat[i] = orig
            fd = (up - down) / (2 * eps)
            assert abs(fd - gf[i]) <= tol * max(1.0, abs(fd)), (fd, gf[i])


@pytest.mark.usefixtures("float64")
def test_elementwise_and_matmul_gradients():
    rng = np.random.default_rng(1)
    a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    b = Tensor(rng.normal(size=(4,)), requires_grad=True)
    c = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
    w = rng.normal(size=(3, 2))

    def f():
        y = matmul(add(a, b), c)          # (3, 2)
        z = mul(mul(y, y), sigmoid(neg(y)))   # y² / (e^y + 1)
        return weighted(tanh(z), w)

    _fd_check(f, [a, b, c])


@pytest.mark.usefixtures("float64")
def test_unary_gradients():
    rng = np.random.default_rng(3)
    x = Tensor(rng.uniform(-2.0, 2.0, size=(1, 6)), requires_grad=True)
    w = rng.normal(size=(1, 24))

    def f():
        y = T.concat([relu(x), sigmoid(x), tanh(x), neg(x)], axis=1)
        return weighted(mul(y, y), w)

    _fd_check(f, [x])


@pytest.mark.usefixtures("float64")
def test_slice_row_transpose_gradients():
    rng = np.random.default_rng(4)
    m = Tensor(rng.normal(size=(4, 6)), requires_grad=True)
    w = rng.normal(size=(4, 4))

    def f():
        a = slice_last(m, 1, 4)             # (4, 3)
        b = T.take_rows(m, [2], np.zeros((1, 6)))   # (1, 6)
        c = transpose(a)                  # (3, 4)
        return weighted(T.concat([mul(c, c), slice_last(mul(b, b), 0, 4)]), w)

    _fd_check(f, [m])


def _attention_weights(rng, q_dim, row_dim, out_dim=4):
    """ws, wq, wk and wv."""
    return [Tensor(rng.normal(size=(out_dim, d)), requires_grad=True)
            for d in (q_dim, q_dim, row_dim, row_dim)]


def _attend(q, table, index, extra, ws, wq, wk, wv, seg, n_q, heads):
    """``segment_attention`` on rows given with query ids ``seg``."""
    return attend_segments(
        lambda i, x, order, sizes: T.segment_attention(q, table, i, x, ws, wq, wk, wv,
                                                       order, sizes, heads),
        n_q, index, extra, seg)


@pytest.mark.usefixtures("float64")
def test_gather_attention_repeated_row_gradients():
    rng = np.random.default_rng(5)
    m = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    ws, wq, wk, wv = _attention_weights(rng, 3, 5)
    extra = rng.normal(size=(5, 2))
    index = np.array([0, 2, 2, 1, 2])   # table row 2 serves all three segments
    seg = np.array([0, 0, 1, 2, 2])
    w = rng.normal(size=(5, 4))

    def f():
        g = T.gather_stack([(m, 0), (m, 3), (m, 2), (m, 0), (m, 3)])
        out, _ = _attend(g, m, index, extra, ws, wq, wk, wv, seg, 5, 2)
        return weighted(mul(out, out), w)

    _fd_check(f, [m, ws, wq, wk, wv])


@pytest.mark.usefixtures("float64")
def test_segment_attention_repeated_row_accumulates():
    # one table row used three times gets the summed gradient of three copies
    rng = np.random.default_rng(8)
    ws, wq, wk, wv = _attention_weights(rng, 2, 3)
    q = Tensor(rng.normal(size=(2, 2)))
    row = rng.normal(size=(1, 3))
    seg = np.array([0, 0, 1])
    shared = Tensor(row, requires_grad=True)
    copies = Tensor(np.repeat(row, 3, axis=0), requires_grad=True)
    out1, _ = _attend(q, shared, [0, 0, 0], np.zeros((3, 0)), ws, wq, wk, wv, seg, 2, 2)
    out3, _ = _attend(q, copies, [0, 1, 2], np.zeros((3, 0)), ws, wq, wk, wv, seg, 2, 2)
    assert np.abs(out1.data - out3.data).max() < 1e-14
    seed = rng.normal(size=out1.data.shape)
    g1 = backward(out1, seed, leaves=[shared])[shared]
    g3 = backward(out3, seed, leaves=[copies])[copies]
    assert np.abs(g1[0] - g3.sum(axis=0)).max() < 1e-12


@pytest.mark.usefixtures("float64")
@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_scatter_rows_equals_add_at_bitwise(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 6))
    m = int(rng.integers(0, 40))
    shape = [(m,), (m, int(rng.integers(0, 5))), (m, 3, 2)][seed % 3]
    index = rng.integers(0, n, size=m)   # repeats whenever m > n
    rows = rng.choice([-1.0, 1.0], size=shape) * 10.0 ** rng.uniform(-3.0, 3.0, size=shape)
    expected = np.zeros((n,) + shape[1:])
    np.add.at(expected, index, rows)
    got = T._scatter_rows(index, rows, n)
    assert got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


_SPECIAL = np.array([np.inf, -np.inf, np.nan, -0.0, 0.0, 5e-324, -5e-324, 709.0, -745.0])


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_expit_bitwise_equals_two_branch_form(seed):
    rng = np.random.default_rng(seed)
    scale = [1.0, 30.0, 1e3][seed % 3]   # 1e3 saturates both tails
    m = rng.uniform(-scale, scale, size=(int(rng.integers(1, 9)), 6))
    m.ravel()[rng.integers(0, m.size, size=4)] = rng.choice(_SPECIAL, size=4)
    cases = [m, m[:, 2:4], m[:, ::3], m[0], _SPECIAL, np.array(m[0, 0])]
    for x in cases:
        got, expected = T._expit(x), expit(x)
        assert got.shape == expected.shape
        assert np.array_equal(got, expected, equal_nan=True)
    block = m.copy()
    T._expit(block[:, 1:3], out=block[:, 1:3])   # in place on a column block
    assert np.array_equal(block[:, 1:3], expit(m[:, 1:3]), equal_nan=True)
    assert np.array_equal(block[:, 3:], m[:, 3:], equal_nan=True)


def test_take_rows_mixes_taken_and_fill_rows():
    src = Tensor(np.arange(6.0).reshape(3, 2), requires_grad=True)
    fill = np.array([[9.0, 9.0], [8.0, 8.0], [7.0, 7.0], [6.0, 6.0]])
    out = T.take_rows(src, np.array([2, -1, 0, -1]), fill)
    assert np.array_equal(out.data, [[4.0, 5.0], [8.0, 8.0], [0.0, 1.0], [6.0, 6.0]])
    g = backward(out, np.arange(8.0).reshape(4, 2), leaves=[src])[src]
    assert np.array_equal(g, [[4.0, 5.0], [0.0, 0.0], [0.0, 1.0]])
    with pytest.raises(T.DimensionError):
        T.take_rows(src, np.array([0, 1]), np.zeros((3, 2)))


def test_take_rows_repeated_row_accumulates():
    src = Tensor(np.ones((2, 3)), requires_grad=True)
    out = T.take_rows(src, np.array([1, 1, -1, 1]), np.zeros((4, 3)))
    g = backward(out, np.ones((4, 3)), leaves=[src])[src]
    assert np.array_equal(g, [[0.0] * 3, [3.0] * 3])


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_take_rows_gradient_of_distinct_rows_has_the_summing_scatter_bits(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 8))
    rows = rng.permutation(n)[:int(rng.integers(0, n + 1))]
    rows = np.insert(rows, rng.integers(0, rows.size + 1, size=2), -1)   # two fill rows
    g = rng.normal(size=(rows.size, 3)).astype(T.DTYPE)
    g.ravel()[rng.integers(0, g.size, size=3)] = rng.choice([-0.0, 0.0, np.nan, -np.inf], 3)
    src = Tensor(np.zeros((n, 3)), requires_grad=True)
    got = backward(T.take_rows(src, rows, np.zeros((rows.size, 3))), g, leaves=[src])[src]
    taken = rows >= 0
    assert got.tobytes() == T._scatter_rows(rows[taken], g[taken], n).tobytes()


@pytest.mark.usefixtures("float64")
def test_take_rows_gradients():
    rng = np.random.default_rng(7)
    src = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    fill = rng.normal(size=(6, 3))
    rows = np.array([3, -1, 0, 3, -1, 1])
    w = rng.normal(size=(6, 3))

    def f():
        out = T.take_rows(src, rows, fill)
        return weighted(mul(out, out), w)

    _fd_check(f, [src])


@pytest.mark.parametrize("order, sizes", [
    ([1, 0], [1, 2]),
    ([1, 0], [2, 2]),
    ([1, 0, 2], [2, 1]),
    ([1, 1], [2, 1]),
    ([1, 3], [2, 1]),
    ([1, 0], [2, 1, 0]),
], ids=["growing-blocks", "too-many-rows", "first-block-short", "repeated-query",
        "unknown-query", "empty-block"])
def test_segment_attention_rejects_bad_packing(order, sizes):
    rng = np.random.default_rng(9)
    ws, wq, wk, wv = _attention_weights(rng, 2, 2)
    q, table = Tensor(np.ones((3, 2))), Tensor(np.ones((3, 2)))
    T.segment_attention(q, table, [0, 1, 2], np.zeros((3, 0)), ws, wq, wk, wv, [1, 0], [2, 1], 2)
    with pytest.raises(ValueError):
        T.segment_attention(q, table, [0, 1, 2], np.zeros((3, 0)), ws, wq, wk, wv,
                            order, sizes, 2)


def test_segment_attention_rejects_out_of_range_index():
    rng = np.random.default_rng(9)
    ws, wq, wk, wv = _attention_weights(rng, 2, 2)
    q, table = Tensor(np.ones((2, 2))), Tensor(np.ones((3, 2)))
    for index in ([0, 1, 3], [0, -1, 2]):
        with pytest.raises(IndexError):
            T.segment_attention(q, table, index, np.zeros((3, 0)), ws, wq, wk, wv,
                                [1, 0], [2, 1], 2)


def test_segment_attention_empty_segments_get_zeros():
    # the attention term of a query without rows is zero: its output is
    # its self projection, and its gradient comes through ws alone
    rng = np.random.default_rng(10)
    ws, wq, wk, wv = _attention_weights(rng, 2, 4)
    q = Tensor(rng.normal(size=(5, 2)), requires_grad=True)
    table = Tensor(np.arange(6.0).reshape(2, 3))
    out, w = _attend(q, table, [0, 1, 1], rng.normal(size=(3, 1)), ws, wq, wk, wv,
                     np.array([0, 0, 3]), 5, 2)
    base = q.data @ ws.data.T
    assert np.array_equal(out.data[[1, 2, 4]], base[[1, 2, 4]])
    assert np.all(out.data[[0, 3]] != base[[0, 3]])
    assert np.allclose(w.data[:2].sum(axis=0), 1.0) and np.allclose(w.data[2], 1.0)
    seed = np.ones(out.data.shape, dtype=T.DTYPE)
    g = backward(out, seed, leaves=[q])[q]
    assert np.array_equal(g[[1, 2, 4]], (seed @ ws.data)[[1, 2, 4]])


@pytest.mark.usefixtures("float64")
def test_segment_attention_zero_rows_is_the_self_projection():
    # no query has rows: the packing is empty, the output is q · wsᵀ, and
    # the table and the attention weights get zero gradients
    rng = np.random.default_rng(11)
    ws, wq, wk, wv = _attention_weights(rng, 3, 5)
    q = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    table = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
    empty = np.zeros(0, dtype=np.intp)
    out, w = T.segment_attention(q, table, empty, np.zeros((0, 2)), ws, wq, wk, wv,
                                 empty, empty, 2)
    assert np.array_equal(out.data, q.data @ ws.data.T) and w.data.shape == (0, 2)
    seed = rng.normal(size=out.data.shape)
    grads = backward(out, seed, leaves=[q, table, ws, wq, wk, wv])
    assert np.array_equal(grads[q], seed @ ws.data)
    assert np.array_equal(grads[ws], (q.data.T @ seed).T)
    for t in (table, wq, wk, wv):
        assert grads[t].shape == t.data.shape and not grads[t].any()


def _packed_attention_run(lengths, seed):
    """Forward and backward of ``segment_attention`` over queries with
    ``lengths`` rows each, packed as ``HistoryLog.recent`` packs them.
    Returns (sizes, the output, the weights and the six gradients)."""
    rng = np.random.default_rng(seed)
    seg = np.repeat(np.arange(len(lengths)), lengths)
    perm, order, sizes = pack_rows(seg, len(lengths))
    ws, wq, wk, wv = _attention_weights(rng, 3, 5, out_dim=8)
    q = Tensor(rng.normal(size=(len(lengths), 3)), requires_grad=True)
    table = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    index = rng.integers(0, 4, size=seg.size)[perm]
    extra = rng.normal(size=(seg.size, 2))
    out, w = T.segment_attention(q, table, index, extra, ws, wq, wk, wv, order, sizes, 2)
    grads = backward(out, rng.normal(size=out.data.shape), leaves=[q, table, ws, wq, wk, wv])
    return sizes, [out.data, w.data] + [grads[t] for t in (q, table, ws, wq, wk, wv)]


@pytest.mark.parametrize("lengths", [
    [9, 0, 4, 7, 1, 0, 7, 3],
    [2, 5, 5, 0, 1],
    [6],
    [0, 0, 0],
], ids=["blocks-longer-than-a-chunk", "tied-lengths", "single-query", "zero-rows"])
@pytest.mark.parametrize("chunk", ["1", "3", "first-block-less-one"])
def test_segment_attention_chunk_size_moves_no_bit(monkeypatch, lengths, chunk):
    # row passes run over whole blocks, newest first, and the scatters over
    # every row in row order, so no chunk size changes a value or gradient
    sizes, want = _packed_attention_run(lengths, 21)
    rows = {"1": 1, "3": 3, "first-block-less-one": int(sizes[:1].sum()) - 1}[chunk]
    monkeypatch.setattr(T, "_CHUNK_ROWS", rows)
    _, got = _packed_attention_run(lengths, 21)
    assert [a.tobytes() for a in got] == [a.tobytes() for a in want]


def test_segment_attention_working_set_is_bounded():
    # 400 queries with full 64-row histories, D 64 and 8 heads: forward
    # plus backward holds no (rows, D) array, so the traced peak stays
    # within 256 B per packed row plus 2 MiB for the chunk buffer and the
    # per-query and per-table arrays
    rng = np.random.default_rng(12)
    n_q, cap, width, D = 400, 64, 64, 64
    n = n_q * cap
    ws, wq, wk, wv = _attention_weights(rng, width, width + 2, out_dim=D)
    q = Tensor(rng.normal(size=(n_q, width)), requires_grad=True)
    table = Tensor(rng.normal(size=(n_q, width)), requires_grad=True)
    index = rng.integers(0, n_q, size=n)
    extra = rng.normal(size=(n, 2)).astype(T.DTYPE)
    order, sizes = np.arange(n_q), np.full(cap, n_q)
    seed = rng.normal(size=(n_q, D)).astype(T.DTYPE)
    tracemalloc.start()
    try:
        out, _ = T.segment_attention(q, table, index, extra, ws, wq, wk, wv, order, sizes, 8)
        backward(out, seed, leaves=[q, table, ws, wq, wk, wv])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 256 * n + 2 * 2 ** 20, f"{peak / n:.0f} B per packed row"


def test_second_backward_through_a_consumed_tape_raises():
    # backward frees each op's vjp as it runs, so a graph backpropagates
    # once: a second pass raises rather than returning zero gradients,
    # also when a new op sits on top of the consumed one
    x = Tensor([[3.0]], requires_grad=True)
    y = mul(x, x)
    assert backward(y, ONE)[x] == pytest.approx(6.0)
    with pytest.raises(RuntimeError, match="tape already consumed"):
        backward(y, ONE)
    with pytest.raises(RuntimeError, match="tape already consumed"):
        backward(mul(y, x), ONE)
    assert backward(mul(x, x), ONE)[x] == pytest.approx(6.0)


def test_gather_stack_rejects_mixed_use():
    # rows come from one tensor: items naming another one are rejected, even
    # one of the same shape and values, and so is a 1-D tensor
    m, same, v = Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))), Tensor(np.ones(3))
    for items in ([(m, 0), (same, 0)], [(m, 0), (v, 0)], [(v, 0), (m, 1)],
                  [(m, 0), (v, 1), (m, 1)], [(m, 1), (Tensor(np.ones((2, 4))), 0)]):
        with pytest.raises(T.DimensionError):
            T.gather_stack(items)


def test_repeated_parent_accumulates():
    x = Tensor([[2.0]], requires_grad=True)
    y = add(mul(x, x), mul(Tensor([[3.0]]), x))
    assert backward(y, ONE)[x] == pytest.approx(7.0)


def test_forward_determinism():
    rng = np.random.default_rng(6)
    a = rng.normal(size=(5, 5))

    def run():
        t = Tensor(a, requires_grad=True)
        out = tanh(matmul(t, transpose(t)))
        return out.data.copy(), backward(out, np.ones((5, 5)))[t].copy()

    v1, g1 = run()
    v2, g2 = run()
    assert np.array_equal(v1, v2) and np.array_equal(g1, g2)


@pytest.mark.usefixtures("float64")
@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5), st.integers(1, 5), st.integers(0, 2 ** 31 - 1))
def test_matmul_gradient_property(m, k, seed):
    rng = np.random.default_rng(seed)
    a = Tensor(rng.normal(size=(m, k)), requires_grad=True)
    b = Tensor(rng.normal(size=(k, 1)), requires_grad=True)
    w = rng.normal(size=(m, 1))
    grads = backward(matmul(a, b), w, leaves=[a, b])
    assert np.allclose(grads[a], w @ b.data.T)
    assert np.allclose(grads[b], a.data.T @ w)


@pytest.mark.usefixtures("float64")
@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_gather_stack_equals_per_item_oracle_bitwise(seed):
    # rows of one 2-D tensor, repeated rows included
    rng = np.random.default_rng(seed)
    d = int(rng.integers(1, 6))
    m = Tensor(rng.normal(size=(rng.integers(1, 9), d)), requires_grad=True)
    items = [(m, r) for r in rng.integers(m.data.shape[0], size=rng.integers(1, 40)).tolist()]
    g = rng.choice([-1.0, 1.0], size=(len(items), d)) * 10.0 ** rng.uniform(-3, 3, (len(items), d))
    out = T.gather_stack(items)
    grads = backward(out, g, leaves=[m])
    values, expected = oracle_gather_stack(items, g)
    assert out.data.tobytes() == values.tobytes()
    assert grads[m].shape == expected[id(m)].shape
    assert grads[m].tobytes() == expected[id(m)].tobytes()


def test_gather_stack_rejects_bad_shapes():
    # no items, a row of a 1-D tensor, a row of a 3-D tensor
    for items in ([], [(Tensor(np.ones(3)), 0)], [(Tensor(np.ones((2, 2, 3))), 0)]):
        with pytest.raises(T.DimensionError):
            T.gather_stack(items)


def test_every_public_op_has_a_caller_outside_tests():
    # ops that only tests use belong in tests/oracles.py, not the library.  A
    # call counts only if it resolves to the tensor module: a name imported
    # from it, or an attribute of a name bound to the module itself
    root = Path(__file__).resolve().parents[1]
    source = root / "src" / "dysignet" / "tensor.py"
    public = {node.name for node in ast.parse(source.read_text()).body
              if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")}
    called = set()
    for path in [*source.parent.glob("*.py"), *(root / "bench").glob("*.py")]:
        if path == source:
            continue
        tree = ast.parse(path.read_text())
        names, modules = {}, set()   # local name -> tensor function; names of the module
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module in ("tensor", "dysignet.tensor"):
                names.update({a.asname or a.name: a.name for a in node.names})
            elif isinstance(node, ast.ImportFrom) and node.module in (None, "dysignet"):
                modules.update(a.asname or a.name for a in node.names if a.name == "tensor")
        for node in ast.walk(tree):
            func = node.func if isinstance(node, ast.Call) else None
            if isinstance(func, ast.Name) and func.id in names:
                called.add(names[func.id])
            elif (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)
                  and func.value.id in modules):
                called.add(func.attr)
    assert public and public <= called, sorted(public - called)
