import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dysignet.tensor as T
from dysignet.layers import Feedforward, LayerSpec, MultiHeadAttention, RecurrentCell
from dysignet.params import ParameterSet
from dysignet.tensor import Tensor

from helpers import max_grad_error
from oracles import attention


def _ffn(in_dim, out_dim, hidden=None, seed=0):
    ps = ParameterSet()
    net = Feedforward(ps, "net", in_dim, out_dim, hidden_dim=hidden,
                      rng=np.random.default_rng(seed))
    return ps, net


def test_layer_spec_validation():
    with pytest.raises(ValueError):
        LayerSpec("feedforward", 0, 3)
    with pytest.raises(ValueError):
        LayerSpec("attention", 4, 6, heads=4)
    with pytest.raises(ValueError):
        LayerSpec("perceptron", 4, 4)


def test_ffn_zero_weights_returns_bias():
    ps, net = _ffn(3, 2)
    for name in ("net.w1", "net.b1", "net.w2"):
        ps[name].data[...] = 0.0
    ps["net.b2"].data[...] = [5.0, -1.0]
    for x in (np.zeros(3), np.ones(3), np.array([-2.0, 7.0, 0.1])):
        assert np.array_equal(net.apply(Tensor(x)).data, [5.0, -1.0])


def test_ffn_identity_case():
    ps, net = _ffn(3, 3)
    ps["net.w1"].data[...] = np.eye(3)
    ps["net.w2"].data[...] = np.eye(3)
    ps["net.b1"].data[...] = 0.0
    ps["net.b2"].data[...] = 0.0
    v = np.array([0.3, 1.5, 0.0])  # non-negative: the hidden relu is inactive
    assert np.array_equal(net.apply(Tensor(v)).data, v)


def test_ffn_matches_manual_matmul_oracle():
    ps, net = _ffn(3, 2, seed=42)
    x = np.random.default_rng(1).normal(size=3)
    w1, b1 = ps["net.w1"].data, ps["net.b1"].data
    w2, b2 = ps["net.w2"].data, ps["net.b2"].data
    expected = w2 @ np.maximum(w1 @ x + b1, 0.0) + b2
    assert np.abs(net.apply(Tensor(x)).data - expected).max() < 1e-12


def test_ffn_batched_equals_single():
    ps, net = _ffn(4, 3, seed=7)
    xb = np.random.default_rng(2).normal(size=(5, 4))
    batched = net.apply(Tensor(xb)).data
    for i in range(5):
        assert np.allclose(net.apply(Tensor(xb[i])).data, batched[i], atol=1e-14)


def test_ffn_dim_error():
    _, net = _ffn(3, 2)
    with pytest.raises(T.DimensionError):
        net.apply(Tensor(np.ones(4)))


def test_ffn_gradcheck():
    ps, net = _ffn(3, 2, seed=3)
    x = Tensor(np.random.default_rng(4).normal(size=3))
    w = Tensor(np.array([0.7, -1.3]))
    assert max_grad_error(lambda: T.tsum(T.mul(net.apply(x), w)), ps) < 1e-6


def _cell(in_dim, state_dim, seed=0):
    ps = ParameterSet()
    cell = RecurrentCell(ps, "cell", in_dim, state_dim, rng=np.random.default_rng(seed))
    return ps, cell


def test_cell_zero_params_zero_state_fixed_point():
    ps, cell = _cell(3, 4)
    for name in ps.names():
        ps[name].data[...] = 0.0
    zero = Tensor(np.zeros(4))
    for x in (np.zeros(3), np.ones(3) * 9.0, np.array([-5.0, 2.0, 0.3])):
        assert np.array_equal(cell.apply(Tensor(x), zero).data, np.zeros(4))


def test_cell_deterministic():
    ps, cell = _cell(3, 4, seed=5)
    x = Tensor(np.array([0.5, -1.0, 2.0]))
    s = Tensor(np.array([0.1, 0.2, -0.3, 0.4]))
    a = cell.apply(x, s).data
    b = cell.apply(x, s).data
    assert np.array_equal(a, b)


def test_cell_matches_gate_formula_oracle():
    ps, cell = _cell(3, 4, seed=11)
    rng = np.random.default_rng(12)
    x, s = rng.normal(size=3), rng.normal(size=4)
    w, u, b = ps["cell.w"].data, ps["cell.u"].data, ps["cell.b"].data
    z = w @ x + u @ s + b
    sig = lambda t: 1.0 / (1.0 + np.exp(-t))
    i, f, g, o = sig(z[:4]), sig(z[4:8]), np.tanh(z[8:12]), sig(z[12:])
    expected = o * np.tanh(f * s + i * g)
    got = cell.apply(Tensor(x), Tensor(s)).data
    assert np.abs(got - expected).max() < 1e-12


def test_cell_batched_equals_single():
    ps, cell = _cell(3, 4, seed=13)
    rng = np.random.default_rng(14)
    xb, sb = rng.normal(size=(6, 3)), rng.normal(size=(6, 4))
    batched = cell.apply(Tensor(xb), Tensor(sb)).data
    for i in range(6):
        single = cell.apply(Tensor(xb[i]), Tensor(sb[i])).data
        assert np.allclose(single, batched[i], atol=1e-14)


def test_cell_dim_error():
    _, cell = _cell(3, 4)
    with pytest.raises(T.DimensionError):
        cell.apply(Tensor(np.ones(3)), Tensor(np.ones(5)))


def test_cell_gradcheck():
    ps, cell = _cell(2, 3, seed=15)
    rng = np.random.default_rng(16)
    x, s = Tensor(rng.normal(size=2)), Tensor(rng.normal(size=3))
    w = Tensor(rng.normal(size=3))
    assert max_grad_error(lambda: T.tsum(T.mul(cell.apply(x, s), w)), ps) < 1e-6


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
    x = Tensor(rng.uniform(-1.0, 1.0, size=in_dim))
    s = Tensor(rng.uniform(-1.0, 1.0, size=d))
    _, gates = cell.apply(x, s, return_gates=True)
    for key in ("input", "forget", "output"):
        assert np.all(gates[key].data > 0.0) and np.all(gates[key].data < 1.0)
    assert np.all(np.abs(gates["candidate"].data) < 1.0)


def _attn(q_dim, out_dim, heads, kv_dim=None, seed=0):
    ps = ParameterSet()
    att = MultiHeadAttention(ps, "att", q_dim, out_dim, heads, key_dim=kv_dim,
                             value_dim=kv_dim, rng=np.random.default_rng(seed))
    return ps, att


def _one_segment(n):
    return np.zeros(n, dtype=np.intp)


def test_attention_singleton_weight_one():
    ps, att = _attn(4, 6, 3, kv_dim=5, seed=1)
    rng = np.random.default_rng(2)
    q = Tensor(rng.normal(size=(1, 4)))
    kv = Tensor(rng.normal(size=(1, 5)))
    out, w = att.apply(q, kv, kv, _one_segment(1))
    assert np.allclose(w.data, 1.0)
    assert np.allclose(out.data[0], ps["att.wv"].data @ kv.data[0], atol=1e-12)


def test_attention_equal_logits_uniform():
    ps, att = _attn(4, 6, 3, kv_dim=5, seed=3)
    rng = np.random.default_rng(4)
    q = Tensor(rng.normal(size=(1, 4)))
    one = rng.normal(size=5)
    kv = Tensor(np.tile(one, (4, 1)))  # identical keys -> identical logits
    _, w = att.apply(q, kv, kv, _one_segment(4))
    assert np.allclose(w.data, 0.25)


def test_attention_matches_softmax_formula_oracle():
    ps, att = _attn(5, 4, 2, kv_dim=6, seed=5)
    rng = np.random.default_rng(6)
    q = rng.normal(size=5)
    kv = rng.normal(size=(3, 6))
    out, w = att.apply(Tensor(q[None, :]), Tensor(kv), Tensor(kv), _one_segment(3))
    expected_out, expected_w = attention(att, q, kv)
    assert np.abs(w.data - expected_w.T).max() < 1e-12
    assert np.abs(out.data[0] - expected_out).max() < 1e-12


def test_attention_empty_keys_rejected():
    _, att = _attn(4, 4, 2, seed=9)
    with pytest.raises(ValueError):
        att.apply(Tensor(np.ones((1, 4))), Tensor(np.empty((0, 4))), Tensor(np.empty((0, 4))),
                  _one_segment(0))


def test_attention_mismatched_lengths_rejected():
    _, att = _attn(4, 4, 2, seed=10)
    with pytest.raises(T.DimensionError):
        att.apply(Tensor(np.ones((1, 4))), Tensor(np.ones((2, 4))), Tensor(np.ones((3, 4))),
                  _one_segment(2))


def test_attention_gradcheck():
    ps, att = _attn(3, 4, 2, kv_dim=4, seed=11)
    rng = np.random.default_rng(12)
    q = Tensor(rng.normal(size=(1, 3)))
    kv = Tensor(rng.normal(size=(3, 4)))
    w = Tensor(rng.normal(size=(1, 4)))

    def loss():
        out, _ = att.apply(q, kv, kv, _one_segment(3))
        return T.tsum(T.mul(out, w))

    assert max_grad_error(loss, ps) < 1e-6


# four queries over segments of 3, 1, 0 and 2 rows: the empty segment
# (query 2) must get a zero output and take no weight
SEGMENTS = np.array([0, 0, 0, 1, 3, 3], dtype=np.intp)


def test_attention_segments_match_per_segment_oracle():
    ps, att = _attn(5, 6, 3, kv_dim=4, seed=13)
    rng = np.random.default_rng(14)
    q = rng.normal(scale=3.0, size=(4, 5))
    kv = rng.normal(scale=3.0, size=(SEGMENTS.size, 4))
    out, w = att.apply(Tensor(q), Tensor(kv), Tensor(kv), SEGMENTS)
    assert np.all(w.data >= 0.0)
    for i in range(4):
        rows = SEGMENTS == i
        if not rows.any():
            assert np.array_equal(out.data[i], np.zeros(6))
            continue
        assert np.abs(w.data[rows].sum(axis=0) - 1.0).max() < 1e-12
        expected_out, expected_w = attention(att, q[i], kv[rows])
        assert np.abs(w.data[rows] - expected_w.T).max() < 1e-12
        assert np.abs(out.data[i] - expected_out).max() < 1e-12


def test_attention_segments_gradcheck():
    ps, att = _attn(3, 4, 2, kv_dim=5, seed=15)
    rng = np.random.default_rng(16)
    q = Tensor(rng.normal(size=(4, 3)))
    kv = Tensor(rng.normal(size=(SEGMENTS.size, 5)))
    w = Tensor(rng.normal(size=(4, 4)))

    def loss():
        out, _ = att.apply(q, kv, kv, SEGMENTS)
        return T.tsum(T.mul(out, w))

    assert max_grad_error(loss, ps) < 1e-6


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
                             key_dim=kv_dim, value_dim=kv_dim, rng=rng)
    q = Tensor(rng.normal(scale=3.0, size=(1, q_dim)))
    kv = Tensor(rng.normal(scale=3.0, size=(n, kv_dim)))
    _, w = att.apply(q, kv, kv, _one_segment(n))
    assert np.all(w.data >= 0.0)
    assert np.abs(w.data.sum(axis=0) - 1.0).max() < 1e-9
