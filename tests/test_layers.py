import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dysignet.tensor as T
from dysignet.layers import Feedforward, MultiHeadAttention, RecurrentCell
from dysignet.params import ParameterSet
from dysignet.tensor import Tensor

from helpers import attend_segments, max_grad_error, model_dtype, pack_rows, weighted
from oracles import attention, cell_step, feedforward


def _ffn(in_dim, out_dim, hidden=None, seed=0):
    ps = ParameterSet()
    net = Feedforward(ps, "net", in_dim, out_dim, hidden_dim=hidden,
                      rng=np.random.default_rng(seed))
    return ps, net


def test_layer_constructors_validate_dims():
    ps = ParameterSet()
    for bad in (lambda: Feedforward(ps, "f", 0, 3), lambda: Feedforward(ps, "f", 3, 3, 0),
                lambda: RecurrentCell(ps, "c", 0, 3), lambda: RecurrentCell(ps, "c", 3, 0),
                lambda: MultiHeadAttention(ps, "a", -1, 4, heads=2, key_dim=2),
                lambda: MultiHeadAttention(ps, "a", 4, 4, heads=0),
                lambda: MultiHeadAttention(ps, "a", 4, 6, heads=4)):
        with pytest.raises(ValueError):
            bad()
    assert len(ps) == 0   # a rejected layer registers nothing
    attn = MultiHeadAttention(ps, "a", 0, 4, heads=2, key_dim=2)   # an empty query is allowed
    assert (attn.in_dim, attn.out_dim, attn.heads, attn.key_dim) == (0, 4, 2, 2)
    assert list(ps.names()) == ["a.self_proj", "a.attn.wq", "a.attn.wk", "a.attn.wv"]


def test_ffn_zero_weights_returns_bias():
    ps, net = _ffn(3, 2)
    for name in ("net.w1", "net.b1", "net.w2"):
        ps[name].data[...] = 0.0
    ps["net.b2"].data[...] = [5.0, -1.0]
    for x in (np.zeros(3), np.ones(3), np.array([-2.0, 7.0, 0.1])):
        assert np.array_equal(net.apply(Tensor([x])).data, [[5.0, -1.0]])


def test_ffn_identity_case():
    ps, net = _ffn(3, 3)
    ps["net.w1"].data[...] = np.eye(3)
    ps["net.w2"].data[...] = np.eye(3)
    ps["net.b1"].data[...] = 0.0
    ps["net.b2"].data[...] = 0.0
    x = Tensor([[0.3, 1.5, 0.0]])  # non-negative: the hidden relu is inactive
    assert np.array_equal(net.apply(x).data, x.data)


@pytest.mark.usefixtures("float64")
def test_ffn_matches_manual_matmul_oracle():
    ps, net = _ffn(3, 2, seed=42)
    x = np.random.default_rng(1).normal(size=3)
    w1, b1 = ps["net.w1"].data, ps["net.b1"].data
    w2, b2 = ps["net.w2"].data, ps["net.b2"].data
    expected = w2 @ np.maximum(w1 @ x + b1, 0.0) + b2
    assert np.abs(net.apply(Tensor([x])).data[0] - expected).max() < 1e-12


def test_ffn_batched_equals_single():
    ps, net = _ffn(4, 3, seed=7)
    xb = np.random.default_rng(2).normal(size=(5, 4))
    batched = net.apply(Tensor(xb)).data
    for i in range(5):
        assert np.allclose(net.apply(Tensor(xb[i:i + 1])).data[0], batched[i], atol=1e-14)


def test_ffn_dim_error():
    _, net = _ffn(3, 2)
    for x in (np.ones((1, 4)), np.ones(3)):   # a wrong width, a 1-D vector
        with pytest.raises(T.DimensionError):
            net.apply(Tensor(x))


@pytest.mark.usefixtures("float64")
def test_ffn_gradcheck():
    ps, net = _ffn(3, 2, seed=3)
    x = Tensor(np.random.default_rng(4).normal(size=(1, 3)))
    w = np.array([[0.7, -1.3]])
    assert max_grad_error(lambda: weighted(net.apply(x), w), ps) < 1e-6


def _cell(in_dim, state_dim, seed=0):
    ps = ParameterSet()
    cell = RecurrentCell(ps, "cell", in_dim, state_dim, rng=np.random.default_rng(seed))
    return ps, cell


def test_cell_zero_params_zero_state_fixed_point():
    ps, cell = _cell(3, 4)
    for name in ps.names():
        ps[name].data[...] = 0.0
    zero = Tensor(np.zeros((1, 4)))
    for x in (np.zeros(3), np.ones(3) * 9.0, np.array([-5.0, 2.0, 0.3])):
        assert np.array_equal(cell.apply(Tensor([x]), zero).data, np.zeros((1, 4)))


def test_cell_deterministic():
    ps, cell = _cell(3, 4, seed=5)
    x = Tensor(np.array([[0.5, -1.0, 2.0]]))
    s = Tensor(np.array([[0.1, 0.2, -0.3, 0.4]]))
    a = cell.apply(x, s).data
    b = cell.apply(x, s).data
    assert np.array_equal(a, b)


@pytest.mark.usefixtures("float64")
def test_cell_matches_gate_formula_oracle():
    ps, cell = _cell(3, 4, seed=11)
    rng = np.random.default_rng(12)
    x, s = rng.normal(size=3), rng.normal(size=4)
    w, u, b = ps["cell.w"].data, ps["cell.u"].data, ps["cell.b"].data
    z = w @ x + u @ s + b
    sig = lambda t: 1.0 / (1.0 + np.exp(-t))
    i, f, g, o = sig(z[:4]), sig(z[4:8]), np.tanh(z[8:12]), sig(z[12:])
    expected = o * np.tanh(f * s + i * g)
    got = cell.apply(Tensor([x]), Tensor([s])).data[0]
    assert np.abs(got - expected).max() < 1e-12


def test_cell_batched_equals_single():
    ps, cell = _cell(3, 4, seed=13)
    rng = np.random.default_rng(14)
    xb, sb = rng.normal(size=(6, 3)), rng.normal(size=(6, 4))
    batched = cell.apply(Tensor(xb), Tensor(sb)).data
    for i in range(6):
        single = cell.apply(Tensor(xb[i:i + 1]), Tensor(sb[i:i + 1])).data[0]
        assert np.allclose(single, batched[i], atol=1e-14)


def test_cell_dim_error():
    _, cell = _cell(3, 4)
    # a wrong state width, a state of another row count, 1-D vectors
    for x, s in ((np.ones((1, 3)), np.ones((1, 5))), (np.ones((2, 3)), np.ones((1, 4))),
                 (np.ones(3), np.ones(4))):
        with pytest.raises(T.DimensionError):
            cell.apply(Tensor(x), Tensor(s))


@pytest.mark.usefixtures("float64")
def test_cell_gradcheck():
    ps, cell = _cell(2, 3, seed=15)
    rng = np.random.default_rng(16)
    x, s = Tensor(rng.normal(size=(1, 2))), Tensor(rng.normal(size=(1, 3)))
    w = rng.normal(size=(1, 3))
    assert max_grad_error(lambda: weighted(cell.apply(x, s), w), ps) < 1e-6


@pytest.mark.usefixtures("float64")
@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_cell_gate_ranges(seed):
    # bounded draws keep pre-activations below float64 sigmoid saturation,
    # so the analytic open intervals are checkable exactly
    rng = np.random.default_rng(seed)
    in_dim = int(rng.integers(1, 6))
    d = int(rng.integers(1, 6))
    ps = ParameterSet()
    cell = RecurrentCell(ps, "cell", in_dim, d, rng=rng)
    for name in ps.names():
        ps[name].data[...] = rng.uniform(-1.0, 1.0, size=ps[name].data.shape)
    x = Tensor(rng.uniform(-1.0, 1.0, size=(1, in_dim)))
    s = Tensor(rng.uniform(-1.0, 1.0, size=(1, d)))
    new, gates = cell_step(cell, x, s)
    for key in ("input", "forget", "output"):
        assert np.all(gates[key].data > 0.0) and np.all(gates[key].data < 1.0)
    assert np.all(np.abs(gates["candidate"].data) < 1.0)
    assert np.array_equal(cell.apply(x, s).data, new.data)


# --------------------------------------------------------------- fused ops

@pytest.mark.usefixtures("float64")
def test_fused_ffn_batched_gradcheck():
    rng = np.random.default_rng(31)
    ps, net = _ffn(3, 2, hidden=4, seed=32)
    x = ps.add("x", rng.normal(size=(4, 3)))
    w = rng.normal(size=(4, 2))
    assert max_grad_error(lambda: weighted(net.apply(x), w), ps) < 1e-6


@pytest.mark.usefixtures("float64")
def test_fused_cell_batched_gradcheck():
    rng = np.random.default_rng(33)
    ps, cell = _cell(2, 3, seed=34)
    x = ps.add("x", rng.normal(size=(3, 2)))
    s = ps.add("state", rng.normal(size=(3, 3)))
    w = rng.normal(size=(3, 3))
    assert max_grad_error(lambda: weighted(cell.apply(x, s), w), ps) < 1e-6


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.sampled_from([1, 3, 17]),
       st.sampled_from([np.float32, np.float64]))
def test_fused_ops_bitwise_equal_composed_oracle(seed, n, dtype):
    # the fused ops keep the composed ops' summation order, so values and
    # gradients agree bit for bit, one row or many, saturated or not, at
    # either model dtype
    with model_dtype(dtype):
        _check_fused_ops_bitwise(seed, n)


def _check_fused_ops_bitwise(seed, n):
    rng = np.random.default_rng(seed)
    in_dim, d = int(rng.integers(1, 6)), int(rng.integers(1, 6))
    ps = ParameterSet()
    net = Feedforward(ps, "net", in_dim, d, hidden_dim=int(rng.integers(1, 7)), rng=rng)
    cell = RecurrentCell(ps, "cell", d, d, rng=rng)
    x = ps.add("x", rng.normal(scale=10.0 ** rng.uniform(-2.0, 2.0), size=(n, in_dim)))
    s = ps.add("state", rng.normal(size=(n, d)))
    w = rng.normal(size=(n, d))
    runs = []
    for msg, step in ((net.apply, cell.apply),
                      (lambda v: feedforward(net, v), lambda v, old: cell_step(cell, v, old)[0])):
        h = msg(x)
        out = step(h, s)
        grads = T.backward(out, w, leaves=ps.tensors())
        runs.append([h.data, out.data] + [grads[p] for p in ps.tensors()])
    for got, expected in zip(*runs):
        assert got.shape == expected.shape and got.dtype == T.DTYPE
        assert np.array_equal(got, expected)


@pytest.mark.usefixtures("float64")
@pytest.mark.parametrize("live", [[0, 2, 4], [3], []], ids=["some", "one", "none"])
def test_fused_ops_skip_zero_cotangent_rows(live):
    """A row whose output cotangent is all zero (-0.0 included) gets exact
    +0.0 input gradients from both fused ops, a row with one nonzero entry
    is worked on, and the parameter gradients equal those of the composed
    ops, which run on every row."""
    rng = np.random.default_rng(35)
    n, in_dim, d = 6, 3, 4
    ps = ParameterSet()
    net = Feedforward(ps, "net", in_dim, d, hidden_dim=5, rng=rng)
    cell = RecurrentCell(ps, "cell", d, d, rng=rng)
    x = ps.add("x", rng.normal(size=(n, in_dim)))
    s = ps.add("state", rng.normal(size=(n, d)))
    w = np.zeros((n, d))
    w[live] = rng.normal(size=(len(live), d))
    w[live[:1], 1:] = 0.0
    dead = np.setdiff1d(np.arange(n), live)
    w[dead[0], 1] = -0.0
    runs = []
    for msg, step in ((net.apply, cell.apply),
                      (lambda v: feedforward(net, v), lambda v, old: cell_step(cell, v, old)[0])):
        grads = T.backward(step(msg(x), s), w, leaves=ps.tensors())
        runs.append({name: grads[p] for name, p in zip(ps.names(), ps.tensors())})
    fused, composed = runs
    for name in ("x", "state"):
        assert np.array_equal(fused[name][dead], np.zeros((dead.size, fused[name].shape[1])))
        assert not np.signbit(fused[name][dead]).any()
    for name, g in fused.items():
        assert np.allclose(g, composed[name], rtol=1e-12, atol=1e-15), name
    assert max_grad_error(lambda: weighted(cell.apply(net.apply(x), s), w), ps) < 1e-6


def test_fused_ops_tape_keeps_no_activations():
    """Under gradient recording the two memory ops hold nothing past their
    outputs until backward: the vjps recompute the hidden activations,
    gates and cell tanh of the rows they work on from the inputs, which the
    tape holds anyway.  Shaped like the message net and the cell."""
    n, d = 4096, 32
    rng = np.random.default_rng(36)
    ps = ParameterSet()
    net = Feedforward(ps, "net", 2 * d + 2, d, rng=rng)
    cell = RecurrentCell(ps, "cell", d, d, rng=rng)
    x = ps.add("x", rng.normal(size=(n, 2 * d + 2)))
    s = ps.add("state", rng.normal(size=(n, d)))
    tracemalloc.start()
    try:
        out = cell.apply(net.apply(x), s)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert out.requires_grad
    assert held <= 2 * n * d * out.data.itemsize + 64 * 2 ** 10, f"{held / n:.0f} B per row"


def _attn(q_dim, out_dim, heads, kv_dim=None, seed=0):
    ps = ParameterSet()
    att = MultiHeadAttention(ps, "att", q_dim, out_dim, heads, key_dim=kv_dim,
                             rng=np.random.default_rng(seed))
    return ps, att


def _one_segment(n):
    return np.zeros(n, dtype=np.intp)


def _apply_rows(att, q, kv, seg):
    """Attention over plain rows: each row is its own table entry and no
    row has extra columns."""
    n = kv.data.shape[0]
    return _apply(att, q, kv, np.arange(n), np.zeros((n, 0)), seg)


def _apply(att, q, table, index, extra, seg):
    return attend_segments(lambda *rows: att.apply(q, table, *rows), q.data.shape[0],
                           index, extra, seg)


def test_attention_singleton_weight_one():
    ps, att = _attn(4, 6, 3, kv_dim=5, seed=1)
    rng = np.random.default_rng(2)
    q = Tensor(rng.normal(size=(1, 4)))
    kv = Tensor(rng.normal(size=(1, 5)))
    out, w = _apply_rows(att, q, kv, _one_segment(1))
    assert np.allclose(w.data, 1.0)
    expected = ps["att.self_proj"].data @ q.data[0] + ps["att.attn.wv"].data @ kv.data[0]
    assert np.allclose(out.data[0], expected, atol=1e-6)


def test_attention_equal_logits_uniform():
    ps, att = _attn(4, 6, 3, kv_dim=5, seed=3)
    rng = np.random.default_rng(4)
    q = Tensor(rng.normal(size=(1, 4)))
    one = rng.normal(size=5)
    kv = Tensor(np.tile(one, (4, 1)))  # identical keys -> identical logits
    _, w = _apply_rows(att, q, kv, _one_segment(4))
    assert np.allclose(w.data, 0.25)


@pytest.mark.usefixtures("float64")
def test_attention_matches_softmax_formula_oracle():
    ps, att = _attn(5, 4, 2, kv_dim=6, seed=5)
    rng = np.random.default_rng(6)
    q = rng.normal(size=5)
    kv = rng.normal(size=(3, 6))
    out, w = _apply_rows(att, Tensor(q[None, :]), Tensor(kv), _one_segment(3))
    expected_out, expected_w = attention(att, q, kv)
    assert np.abs(w.data - expected_w.T).max() < 1e-12
    assert np.abs(out.data[0] - expected_out).max() < 1e-12


def test_attention_zero_rows_is_the_self_projection():
    # no query has rows: each output is its self projection, and wq, wk,
    # wv and the table get zero gradients
    ps, att = _attn(4, 4, 2, kv_dim=5, seed=9)
    rng = np.random.default_rng(9)
    q = ps.add("queries", rng.normal(size=(3, 4)))
    table = ps.add("table", rng.normal(size=(2, 3)))
    empty = np.zeros(0, dtype=np.intp)
    out, w = att.apply(q, table, empty, np.zeros((0, 2)), empty, empty)
    assert np.array_equal(out.data, q.data @ att.self_proj.data.T) and w.data.shape == (0, 2)
    seed = rng.normal(size=out.data.shape).astype(T.DTYPE)
    grads = T.backward(out, seed, leaves=ps.tensors())
    assert np.array_equal(grads[q], seed @ att.self_proj.data)
    assert np.array_equal(grads[att.self_proj], (q.data.T @ seed).T)
    for p in (att.wq, att.wk, att.wv, table):
        assert grads[p].shape == p.data.shape and not grads[p].any()


def test_attention_mismatched_lengths_rejected():
    _, att = _attn(4, 4, 2, seed=10)
    with pytest.raises(T.DimensionError):
        att.apply(Tensor(np.ones((1, 4))), Tensor(np.ones((2, 4))), np.arange(2),
                  np.zeros((3, 0)), np.zeros(1, dtype=np.intp), np.array([2]))


@pytest.mark.usefixtures("float64")
def test_attention_gradcheck():
    ps, att = _attn(3, 4, 2, kv_dim=4, seed=11)
    rng = np.random.default_rng(12)
    q = Tensor(rng.normal(size=(1, 3)))
    kv = Tensor(rng.normal(size=(3, 4)))
    w = rng.normal(size=(1, 4))

    def loss():
        out, _ = _apply_rows(att, q, kv, _one_segment(3))
        return weighted(out, w)

    assert max_grad_error(loss, ps) < 1e-6


# four queries over segments of 3, 1, 0 and 2 rows: the empty segment
# (query 2) must get its self projection alone and take no weight
SEGMENTS = np.array([0, 0, 0, 1, 3, 3], dtype=np.intp)


@pytest.mark.usefixtures("float64")
def test_attention_segments_match_per_segment_oracle():
    ps, att = _attn(5, 6, 3, kv_dim=4, seed=13)
    rng = np.random.default_rng(14)
    q = rng.normal(scale=3.0, size=(4, 5))
    kv = rng.normal(scale=3.0, size=(SEGMENTS.size, 4))
    out, w = _apply_rows(att, Tensor(q), Tensor(kv), SEGMENTS)
    assert np.all(w.data >= 0.0)
    for i in range(4):
        rows = SEGMENTS == i
        if rows.any():
            assert np.abs(w.data[rows].sum(axis=0) - 1.0).max() < 1e-12
        expected_out, expected_w = attention(att, q[i], kv[rows])
        assert np.abs(w.data[rows] - expected_w.T).max(initial=0.0) < 1e-12
        assert np.abs(out.data[i] - expected_out).max() < 1e-12


@pytest.mark.usefixtures("float64")
def test_attention_segments_gradcheck():
    ps, att = _attn(3, 4, 2, kv_dim=5, seed=15)
    rng = np.random.default_rng(16)
    q = Tensor(rng.normal(size=(4, 3)))
    kv = Tensor(rng.normal(size=(SEGMENTS.size, 5)))
    w = rng.normal(size=(4, 4))

    def loss():
        out, _ = _apply_rows(att, q, kv, SEGMENTS)
        return weighted(out, w)

    assert max_grad_error(loss, ps) < 1e-6


# factored rows: table row 1 is used by segments 0, 1 and 3; segment 2 is
# empty; row i is [table[TABLE_INDEX[i]], extra[i]]
TABLE_INDEX = np.array([1, 0, 1, 1, 2, 1], dtype=np.intp)


def _factored(extra_dim, seed):
    """Attention, an objective over it and its inputs, with the queries
    and the table registered as parameters so the gradcheck covers them
    too."""
    rng = np.random.default_rng(seed)
    ps, att = _attn(3, 4, 2, kv_dim=4 + extra_dim, seed=seed)
    q = ps.add("queries", rng.normal(size=(4, 3)))
    table = ps.add("table", rng.normal(size=(3, 4)))
    extra = rng.normal(size=(SEGMENTS.size, extra_dim))
    w = rng.normal(size=(4, 4))

    def loss():
        out, _ = _apply(att, q, table, TABLE_INDEX, extra, SEGMENTS)
        return weighted(out, w)

    return ps, att, q, table, extra, loss


@pytest.mark.usefixtures("float64")
@pytest.mark.parametrize("extra_dim", [2, 0])
def test_factored_attention_gradcheck(extra_dim):
    ps, _, _, _, _, loss = _factored(extra_dim, seed=17)
    assert max_grad_error(loss, ps) < 1e-6


@pytest.mark.usefixtures("float64")
def test_factored_attention_equals_explicit_rows_oracle():
    _, att, q, table, extra, _ = _factored(2, seed=18)
    out, w = _apply(att, q, table, TABLE_INDEX, extra, SEGMENTS)
    rows = np.concatenate([table.data[TABLE_INDEX], extra], axis=1)
    for i in range(4):
        sel = SEGMENTS == i
        expected_out, expected_w = attention(att, q.data[i], rows[sel])
        assert np.abs(w.data[sel] - expected_w.T).max(initial=0.0) < 1e-12
        assert np.abs(out.data[i] - expected_out).max() < 1e-12


@pytest.mark.usefixtures("float64")
@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_attention_weights_normalized(seed):
    rng = np.random.default_rng(seed)
    heads = int(rng.integers(1, 5))
    dh = int(rng.integers(1, 4))
    q_dim = int(rng.integers(1, 7))
    kv_dim = int(rng.integers(1, 7))
    n = int(rng.integers(1, 9))
    ps = ParameterSet()
    att = MultiHeadAttention(ps, "att", q_dim, heads * dh, heads,
                             key_dim=kv_dim, rng=rng)
    q = Tensor(rng.normal(scale=3.0, size=(1, q_dim)))
    kv = Tensor(rng.normal(scale=3.0, size=(n, kv_dim)))
    _, w = _apply_rows(att, q, kv, _one_segment(n))
    assert np.all(w.data >= 0.0)
    assert np.abs(w.data.sum(axis=0) - 1.0).max() < 1e-9


@pytest.mark.usefixtures("float64")
@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_packed_attention_matches_per_query_oracle(seed):
    # unsorted segment lengths with empty ones and one at the cap, a
    # small table so rows repeat, 0 or 2 extra columns, and queries large
    # enough at times that an unshifted softmax would overflow
    rng = np.random.default_rng(seed)
    cap = 6
    n_q = int(rng.integers(1, 8))
    lengths = rng.integers(0, cap + 1, size=n_q)
    lengths[rng.integers(n_q)] = cap
    extra_dim = 2 * (seed % 2)
    heads, dh = int(rng.integers(1, 4)), int(rng.integers(1, 4))
    _, att = _attn(3, heads * dh, heads, kv_dim=4 + extra_dim, seed=seed % 1000)
    q = rng.normal(scale=rng.choice([2.0, 300.0]), size=(n_q, 3))
    table = rng.normal(scale=2.0, size=(int(rng.integers(1, 5)), 4))
    seg = rng.permutation(np.repeat(np.arange(n_q), lengths))
    perm, order, sizes = pack_rows(seg, n_q)
    n = seg.size
    index = rng.integers(0, table.shape[0], size=n)
    extra = rng.normal(size=(n, extra_dim))
    out, w = att.apply(Tensor(q), Tensor(table), index, extra, order, sizes)
    assert w.data.shape == (n, heads)
    rows = np.concatenate([table[index], extra], axis=1)
    query_of = seg[perm]   # the query of each row as passed
    for i in range(n_q):
        mine = query_of == i
        expected_out, expected_w = attention(att, q[i], rows[mine])
        assert np.abs(out.data[i] - expected_out).max() < 1e-12 * max(1.0, abs(expected_out).max())
        assert np.abs(w.data[mine] - expected_w.T).max(initial=0.0) < 1e-12
        if mine.any():
            assert np.abs(w.data[mine].sum(axis=0) - 1.0).max() < 1e-12


@pytest.mark.usefixtures("float64")
def test_packed_attention_batched_gradcheck():
    # six segments of unequal, unsorted lengths (one empty) and two extra
    # columns, so the per-query projections of wk's and wv's extra
    # columns are checked against finite differences too
    rng = np.random.default_rng(19)
    seg = rng.permutation(np.repeat(np.arange(6), [2, 5, 0, 1, 4, 3]))
    perm, order, sizes = pack_rows(seg, 6)
    ps, att = _attn(3, 4, 2, kv_dim=6, seed=19)
    q = ps.add("queries", rng.normal(size=(6, 3)))
    table = ps.add("table", rng.normal(size=(4, 4)))
    index = rng.integers(0, 4, size=seg.size)
    extra = rng.normal(size=(seg.size, 2))
    w = rng.normal(size=(6, 4))

    def loss():
        out, _ = att.apply(q, table, index, extra, order, sizes)
        return weighted(out, w)

    assert max_grad_error(loss, ps) < 1e-6
