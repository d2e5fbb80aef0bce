import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dysignet.tensor as T
from dysignet.tensor import Tensor, backward


def test_leaf_rejects_nonfinite():
    with pytest.raises(ValueError):
        Tensor([1.0, np.nan])
    with pytest.raises(ValueError):
        Tensor(np.inf)


def test_simple_square_gradient():
    x = Tensor(3.0, requires_grad=True)
    loss = T.mul(x, x)
    grads = backward(loss)
    assert grads[x] == pytest.approx(6.0)


def test_disconnected_leaf_gets_zero():
    x = Tensor(3.0, requires_grad=True)
    p = Tensor(np.ones(4), requires_grad=True)
    loss = T.mul(x, x)
    grads = backward(loss, leaves=[x, p])
    assert np.all(grads[p] == 0.0)
    assert grads[p].shape == (4,)


def test_nonscalar_loss_rejected():
    x = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(ValueError):
        backward(T.mul(x, x))


def test_matmul_shape_error():
    a = Tensor(np.ones((2, 3)))
    b = Tensor(np.ones((2, 3)))
    with pytest.raises(T.DimensionError):
        T.matmul(a, b)


def test_no_grad_records_nothing():
    x = Tensor(np.ones(3), requires_grad=True)
    with T.no_grad():
        y = T.mul(x, x)
    assert y._parents == () and not y.requires_grad


def test_detach_cuts_graph():
    x = Tensor(2.0, requires_grad=True)
    y = T.mul(x, x).detach()
    loss = T.mul(y, Tensor(3.0))
    grads = backward(loss, leaves=[x])
    assert np.all(grads[x] == 0.0)


def test_creation_order_is_topological():
    x = Tensor(np.arange(3.0), requires_grad=True)
    y = T.mul(T.add(x, 1.0), T.exp(x))
    loss = T.tsum(y)
    stack, seen = [loss], set()
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
    ta, tb = Tensor(a), Tensor(b)
    assert np.allclose(T.add(ta, tb).data, a + b)
    assert np.allclose(T.matmul(ta, tb).data, a @ b)
    assert np.allclose(T.softplus(tb).data, np.log1p(np.exp(b)))
    assert np.allclose(T.logsumexp(ta, axis=1).data,
                       np.log(np.exp(a).sum(axis=1)))


def _fd_check(f, tensors, eps=1e-6, tol=5e-6):
    loss = f()
    grads = backward(loss, leaves=tensors)
    for t in tensors:
        flat = t.data.ravel()
        gf = grads[t].ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            up = f().item()
            flat[i] = orig - eps
            down = f().item()
            flat[i] = orig
            fd = (up - down) / (2 * eps)
            assert abs(fd - gf[i]) <= tol * max(1.0, abs(fd)), (fd, gf[i])


def test_elementwise_and_matmul_gradients():
    rng = np.random.default_rng(1)
    a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    b = Tensor(rng.normal(size=(4,)), requires_grad=True)
    c = Tensor(rng.normal(size=(4, 2)), requires_grad=True)

    def f():
        y = T.matmul(T.add(a, b), c)          # (3, 2)
        z = T.div(T.mul(y, y), T.add(T.exp(b.sum()), 1.0))
        return T.tmean(T.tanh(z))

    _fd_check(f, [a, b, c])


def test_batched_matmul_gradients():
    rng = np.random.default_rng(2)
    k = Tensor(rng.normal(size=(2, 5, 3)), requires_grad=True)
    q = Tensor(rng.normal(size=(2, 3, 1)), requires_grad=True)

    def f():
        logits = T.matmul(k, q)
        e = T.exp(T.sub(logits, Tensor(logits.data.max(axis=1, keepdims=True))))
        w = T.div(e, T.tsum(e, axis=1, keepdims=True))
        return T.tsum(T.mul(w, w))

    _fd_check(f, [k, q])


def test_unary_gradients():
    rng = np.random.default_rng(3)
    x = Tensor(rng.uniform(0.5, 2.0, size=6), requires_grad=True)

    def f():
        y = T.concat([T.relu(x), T.sigmoid(x), T.log(x), T.sqrt(x), T.softplus(x)])
        return T.tmean(T.mul(y, y))

    _fd_check(f, [x])


def test_slice_row_transpose_reshape_gradients():
    rng = np.random.default_rng(4)
    m = Tensor(rng.normal(size=(4, 6)), requires_grad=True)

    def f():
        a = T.slice_last(m, 1, 4)             # (4, 3)
        b = T.repeat_rows(m, [2])             # (1, 6)
        c = T.transpose(T.reshape(a, (2, 2, 3)), (1, 0, 2))
        return T.add(T.tsum(T.mul(c, c)), T.tsum(T.mul(b, b)))

    _fd_check(f, [m])


def test_gather_segment_repeat_gradients():
    rng = np.random.default_rng(5)
    m = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    v = Tensor(rng.normal(size=3), requires_grad=True)
    seg = np.array([0, 0, 1, 2, 2])

    def f():
        g = T.gather_stack([(m, 0), (v, None), (m, 2), (m, 0), (v, None)])
        s = T.segment_sum(g, seg, 3)
        r = T.repeat_rows(s, np.array([0, 1, 1, 2, 2]))
        return T.tmean(T.mul(r, g))

    _fd_check(f, [m, v])


def test_take_rows_mixes_taken_and_fill_rows():
    src = Tensor(np.arange(6.0).reshape(3, 2), requires_grad=True)
    fill = np.array([[9.0, 9.0], [8.0, 8.0], [7.0, 7.0], [6.0, 6.0]])
    out = T.take_rows(src, np.array([2, -1, 0, -1]), fill)
    assert np.array_equal(out.data, [[4.0, 5.0], [8.0, 8.0], [0.0, 1.0], [6.0, 6.0]])
    g = backward(T.tsum(T.mul(out, Tensor(np.arange(8.0).reshape(4, 2)))), leaves=[src])[src]
    assert np.array_equal(g, [[4.0, 5.0], [0.0, 0.0], [0.0, 1.0]])
    with pytest.raises(T.DimensionError):
        T.take_rows(src, np.array([0, 1]), np.zeros((3, 2)))


def test_take_rows_repeated_row_accumulates():
    src = Tensor(np.ones((2, 3)), requires_grad=True)
    out = T.take_rows(src, np.array([1, 1, -1, 1]), np.zeros((4, 3)))
    g = backward(T.tsum(out), leaves=[src])[src]
    assert np.array_equal(g, [[0.0] * 3, [3.0] * 3])


def test_take_rows_gradients():
    rng = np.random.default_rng(7)
    src = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    fill = rng.normal(size=(6, 3))
    rows = np.array([3, -1, 0, 3, -1, 1])
    w = Tensor(rng.normal(size=(6, 3)))

    def f():
        out = T.take_rows(src, rows, fill)
        return T.tsum(T.tanh(T.mul(T.mul(out, out), w)))

    _fd_check(f, [src])


def test_segment_sum_requires_sorted_ids():
    x = Tensor(np.ones((3, 2)))
    with pytest.raises(ValueError):
        T.segment_sum(x, np.array([1, 0, 2]), 3)


def test_segment_sum_handles_empty_segments():
    x = Tensor(np.arange(6.0).reshape(3, 2))
    out = T.segment_sum(x, np.array([0, 0, 3]), 5)
    assert np.allclose(out.data[0], [2.0, 4.0])
    assert np.all(out.data[[1, 2, 4]] == 0.0)
    assert np.allclose(out.data[3], [4.0, 5.0])


def test_gather_stack_rejects_mixed_use():
    m = Tensor(np.ones((2, 3)))
    with pytest.raises(T.DimensionError):
        T.gather_stack([(m, 0), (m, None)])


def test_repeated_parent_accumulates():
    x = Tensor(2.0, requires_grad=True)
    loss = T.add(T.mul(x, x), T.mul(3.0, x))
    assert backward(loss)[x] == pytest.approx(7.0)


def test_forward_determinism():
    rng = np.random.default_rng(6)
    a = rng.normal(size=(5, 5))

    def run():
        t = Tensor(a, requires_grad=True)
        out = T.tsum(T.tanh(T.matmul(t, T.transpose(t))))
        return out.data.copy(), backward(out)[t].copy()

    v1, g1 = run()
    v2, g2 = run()
    assert np.array_equal(v1, v2) and np.array_equal(g1, g2)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5), st.integers(1, 5), st.integers(0, 2 ** 31 - 1))
def test_matmul_gradient_property(m, k, seed):
    rng = np.random.default_rng(seed)
    a = Tensor(rng.normal(size=(m, k)), requires_grad=True)
    b = Tensor(rng.normal(size=(k,)), requires_grad=True)
    w = rng.normal(size=(m,))

    def f():
        return T.tsum(T.mul(T.matmul(a, b), Tensor(w)))

    grads = backward(f(), leaves=[a, b])
    assert np.allclose(grads[a], np.outer(w, b.data))
    assert np.allclose(grads[b], a.data.T @ w)
