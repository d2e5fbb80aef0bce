import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as scipy_stats

import dysignet.tensor as T
from dysignet.events import SignedEvent
from dysignet.heads import (
    PairDecoder,
    TaskKind,
    loss_bce,
    loss_ce3,
    loss_rmse,
    negative_sample,
    task_labels,
    task_loss,
    task_outputs,
)
from dysignet.params import ParameterSet, adam_step
from dysignet.tensor import Tensor, backward

import oracles
from helpers import log_of, max_grad_error
from oracles import score_pair


def _decoder(embedding_dim, task, seed=0):
    ps = ParameterSet()
    dec = PairDecoder(ps, "decoder", embedding_dim, task, rng=np.random.default_rng(seed))
    return ps, dec


def test_task_kind_arities_and_names():
    assert TaskKind.from_name("signed_existence") is TaskKind.SIGNED_EXISTENCE
    assert TaskKind.from_name("signed-weight") is TaskKind.SIGNED_WEIGHT
    assert [t.arity for t in TaskKind] == [1, 1, 3, 1]
    assert TaskKind.EXISTENCE.needs_negatives
    assert not TaskKind.SIGN.needs_negatives
    assert not TaskKind.SIGNED_WEIGHT.needs_negatives


def test_zero_decoder_outputs_bias():
    ps, dec = _decoder(4, TaskKind.SIGNED_EXISTENCE)
    for name in ("decoder.w1", "decoder.b1", "decoder.w2"):
        ps[name].data[...] = 0.0
    ps["decoder.b2"].data[...] = [0.5, -0.5, 2.0]
    rng = np.random.default_rng(1)
    for _ in range(3):
        z_u, z_v = rng.normal(size=4), rng.normal(size=4)
        assert np.array_equal(score_pair(dec, z_u, z_v), [0.5, -0.5, 2.0])


def test_score_pair_is_order_sensitive():
    ps, dec = _decoder(4, TaskKind.SIGN, seed=2)
    rng = np.random.default_rng(3)
    z_u, z_v = rng.normal(size=4), rng.normal(size=4)
    assert not np.allclose(score_pair(dec, z_u, z_v), score_pair(dec, z_v, z_u))


@pytest.mark.usefixtures("float64")
def test_score_pair_matches_feedforward_oracle():
    ps, dec = _decoder(3, TaskKind.SIGN, seed=4)
    rng = np.random.default_rng(5)
    z_u, z_v = rng.normal(size=3), rng.normal(size=3)
    x = np.concatenate([z_u, z_v])
    w1, b1 = ps["decoder.w1"].data, ps["decoder.b1"].data
    w2, b2 = ps["decoder.w2"].data, ps["decoder.b2"].data
    expected = w2 @ np.maximum(w1 @ x + b1, 0.0) + b2
    got = score_pair(dec, z_u, z_v)
    assert np.abs(got - expected).max() < 1e-12


def test_score_rows_matches_score_pair():
    ps, dec = _decoder(3, TaskKind.SIGNED_EXISTENCE, seed=6)
    rng = np.random.default_rng(7)
    z = Tensor(rng.normal(size=(4, 3)))
    pairs = [(0, 1), (2, 3), (1, 1)]
    batched = dec.score_rows(z, {i: i for i in range(4)}, pairs).data
    for i, (u, v) in enumerate(pairs):
        single = score_pair(dec, z.data[u], z.data[v])
        assert np.allclose(batched[i], single, atol=1e-14)


def _events(pairs):
    return log_of(SignedEvent(float(i), u, v, 1.0) for i, (u, v) in enumerate(pairs))


def test_negative_sample_counts():
    rng = np.random.default_rng(0)
    events = _events([(0, 1), (1, 2), (3, 0), (2, 2)])
    fakes = negative_sample(events, np.arange(5), rng)
    assert len(fakes) == len(events)
    for (u, v), ev in zip(fakes, events):
        assert u == ev.src
        assert v != ev.dst


def test_negative_sample_two_node_universe():
    rng = np.random.default_rng(1)
    fakes = negative_sample(_events([(0, 1)]), np.array([0, 1]), rng)
    assert fakes.tolist() == [[0, 0]]  # the only alternative destination


def test_negative_sample_singleton_universe_skips(caplog):
    rng = np.random.default_rng(2)
    with caplog.at_level(logging.WARNING):
        fakes = negative_sample(_events([(0, 0)]), np.array([0]), rng)
    assert fakes.shape == (0, 2)
    assert any("skipped" in r.message for r in caplog.records)


def test_negative_sample_uniformity_chi_squared():
    rng = np.random.default_rng(3)
    universe = np.arange(20)
    events = _events([(0, 5)] * 100_000)
    draws = np.array([v for _, v in negative_sample(events, universe, rng)])
    counts = np.bincount(draws, minlength=20)
    assert counts[5] == 0
    _, p = scipy_stats.chisquare(counts[np.arange(20) != 5])
    assert p > 0.01


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(2, 12), k=st.integers(0, 80))
def test_negative_sample_equals_per_event_oracle(seed, n, k):
    """Random universes of 2-12 nodes: the same pairs and the same
    generator state after the call as drawing one value at a time."""
    setup = np.random.default_rng(seed)
    universe = setup.permutation(n + 3)[:n]
    # destinations mostly from the universe (redraws), some outside it
    dst = np.where(setup.random(k) < 0.8, setup.choice(universe, k), n + 3)
    events = log_of((float(i), int(setup.integers(n + 4)), int(v), 1.0)
                    for i, v in enumerate(dst))
    mine, ref = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
    got = negative_sample(events, universe, mine)
    assert got.shape == (k, 2) and got.dtype == np.int64
    assert got.tolist() == [list(p) for p in oracles.negative_sample(events, universe, ref)]
    assert mine.bit_generator.state == ref.bit_generator.state


def test_bce_zero_logits_is_ln2():
    labels = np.array([0, 1] * 4)
    assert loss_bce(np.zeros(8), labels)[0] == pytest.approx(np.log(2.0), abs=1e-12)


def test_bce_saturated_correct_is_near_zero():
    assert loss_bce(np.array([20.0]), np.array([1]))[0] <= 1e-8
    assert loss_bce(np.array([-20.0]), np.array([0]))[0] <= 1e-8


def test_bce_matches_direct_formula():
    rng = np.random.default_rng(4)
    logits = rng.normal(size=32) * 3
    labels = rng.integers(0, 2, size=32)
    sig = 1.0 / (1.0 + np.exp(-logits))
    expected = -np.mean(labels * np.log(sig) + (1 - labels) * np.log(1 - sig))
    got = loss_bce(logits, labels)[0]
    assert abs(got - expected) < 1e-10


def test_ce3_uniform_logits_is_ln3():
    labels = np.array([0, 1, 2, 0, 1])
    assert loss_ce3(np.zeros((5, 3)), labels)[0] == pytest.approx(np.log(3.0), abs=1e-12)


def test_ce3_onehot_near_zero():
    logits = np.full((3, 3), -10.0)
    logits[np.arange(3), [0, 1, 2]] = 10.0
    assert loss_ce3(logits, np.array([0, 1, 2]))[0] < 1e-8


def test_ce3_matches_softmax_formula():
    rng = np.random.default_rng(5)
    logits = rng.normal(size=(20, 3)) * 2
    labels = rng.integers(0, 3, size=20)
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    p = e / e.sum(axis=1, keepdims=True)
    expected = -np.mean(np.log(p[np.arange(20), labels]))
    assert abs(loss_ce3(logits, labels)[0] - expected) < 1e-10


def test_ce3_label_range_checked():
    with pytest.raises(ValueError):
        loss_ce3(np.zeros((2, 3)), np.array([0, 3]))


def test_rmse_exact_zero_and_sign_case():
    t = np.array([1.0, -2.0, 0.5])
    assert loss_rmse(t, t)[0] == 0.0
    assert loss_rmse(np.zeros(2), np.array([-1.0, 1.0]))[0] == pytest.approx(1.0)


def test_rmse_matches_direct_formula():
    rng = np.random.default_rng(6)
    preds = rng.normal(size=25)
    targets = rng.normal(size=25)
    expected = np.sqrt(np.mean((preds - targets) ** 2))
    assert abs(loss_rmse(preds, targets)[0] - expected) < 1e-12


def test_rmse_empty_rejected():
    with pytest.raises(ValueError):
        loss_rmse(np.zeros(0), np.zeros(0))


@pytest.mark.usefixtures("float64")
@pytest.mark.parametrize("task, logits, labels", [
    (TaskKind.EXISTENCE, [[30.0], [-30.0], [30.0], [-30.0], [0.4]], [1.0, 0.0, 0.0, 1.0, 1.0]),
    (TaskKind.SIGN, [[1.3], [-0.7], [2.2], [0.0]], [1.0, 1.0, 0.0, 0.0]),
    (TaskKind.SIGNED_EXISTENCE, [[30.0, -30.0, 0.0], [-30.0, 30.0, 1.0], [0.5, -0.2, 0.1]],
     [0, 0, 2]),
    (TaskKind.SIGNED_WEIGHT, [[1.5], [-2.0], [0.25]], [1.0, -1.0, 0.5]),
    (TaskKind.SIGNED_WEIGHT, [[1.5], [-2.0], [0.25]], [1.5, -2.0, 0.25]),
], ids=["existence-saturated", "sign", "signed-existence-saturated", "signed-weight",
        "signed-weight-zero-error"])
def test_closed_form_loss_gradient_matches_finite_differences(task, logits, labels):
    x, labels, eps = np.array(logits), np.array(labels), 1e-5
    value, grad = task_loss(task, Tensor(x), labels)
    assert np.isfinite(value) and grad.shape == x.shape and grad.dtype == np.float64
    fd = np.empty_like(x)
    for i in np.ndindex(x.shape):
        up, down = x.copy(), x.copy()
        up[i] += eps
        down[i] -= eps
        fd[i] = (task_loss(task, Tensor(up), labels)[0]
                 - task_loss(task, Tensor(down), labels)[0]) / (2 * eps)
    assert np.allclose(grad, fd, rtol=1e-6, atol=1e-8)


def test_task_loss_gradient_has_the_outputs_shape_and_dtype():
    out = Tensor(np.array([[0.5], [-1.0]]))
    for task, labels in ((TaskKind.SIGN, [1.0, 0.0]), (TaskKind.SIGNED_WEIGHT, [0.5, 2.0])):
        value, grad = task_loss(task, out, np.array(labels))
        assert isinstance(value, float) and grad.shape == (2, 1) and grad.dtype == T.DTYPE


def test_zero_error_regression_batch_takes_a_finite_adam_step():
    # RMSE has no derivative at zero error; its gradient there is zero,
    # not the NaN of d / (n * 0), so the batch trains instead of aborting
    ps, dec = _decoder(3, TaskKind.SIGNED_WEIGHT, seed=12)
    z = Tensor(np.random.default_rng(13).normal(size=(3, 3)))
    out = dec.score_rows(z, {i: i for i in range(3)}, [(0, 1), (1, 2)])
    value, grad = task_loss(TaskKind.SIGNED_WEIGHT, out, out.data[:, 0].astype(np.float64))
    assert value == 0.0 and not grad.any()
    before = ps.copy_values()
    adam_step(ps, backward(out, grad, leaves=ps.tensors()), 1e-2)
    after = ps.copy_values()
    assert all(np.array_equal(before[name], after[name]) for name in before)


def test_task_labels_list_events_then_negatives():
    w = np.array([2.0, -1.0, 0.5])
    assert task_labels(TaskKind.EXISTENCE, w, 2).tolist() == [1.0, 1.0, 1.0, 0.0, 0.0]
    assert task_labels(TaskKind.SIGN, w, 0).tolist() == [1.0, 0.0, 1.0]
    assert task_labels(TaskKind.SIGNED_EXISTENCE, w, 2).tolist() == [0.0, 1.0, 0.0, 2.0, 2.0]
    assert task_labels(TaskKind.SIGNED_WEIGHT, w, 0).tolist() == w.tolist()


def test_task_outputs_are_probabilities_or_raw_weights():
    x = np.array([[0.0, 2.0, -1.0], [30.0, -30.0, 0.0]], dtype=np.float32)
    probs = task_outputs(TaskKind.SIGNED_EXISTENCE, x)
    assert probs.dtype == np.float64 and np.allclose(probs.sum(axis=1), 1.0)
    assert np.array_equal(probs.argmax(axis=1), [1, 0])
    col = x[:, :1]
    assert np.array_equal(task_outputs(TaskKind.SIGN, col), [[0.5], [1.0 / (1.0 + np.exp(-30.0))]])
    assert np.array_equal(task_outputs(TaskKind.SIGNED_WEIGHT, col), col.astype(np.float64))


@pytest.mark.parametrize("task,labels", [
    (TaskKind.EXISTENCE, np.array([1.0, 0.0, 1.0])),
    (TaskKind.SIGN, np.array([1.0, 1.0, 0.0])),
    (TaskKind.SIGNED_WEIGHT, np.array([2.0, -1.0, 0.5])),
])
@pytest.mark.usefixtures("float64")
def test_loss_gradients_through_decoder(task, labels):
    ps, dec = _decoder(3, task, seed=8)
    rng = np.random.default_rng(9)
    z = Tensor(rng.normal(size=(4, 3)))
    pairs = [(0, 1), (2, 3), (1, 2)]

    def build():
        out = dec.score_rows(z, {i: i for i in range(4)}, pairs)
        return (out, *task_loss(task, out, labels))

    assert max_grad_error(build, ps) < 1e-5


@pytest.mark.usefixtures("float64")
def test_ce3_gradients_through_decoder():
    ps, dec = _decoder(3, TaskKind.SIGNED_EXISTENCE, seed=10)
    rng = np.random.default_rng(11)
    z = Tensor(rng.normal(size=(4, 3)))
    pairs = [(0, 1), (2, 3), (1, 2)]
    labels = np.array([0, 2, 1])

    def build():
        out = dec.score_rows(z, {i: i for i in range(4)}, pairs)
        return (out, *task_loss(TaskKind.SIGNED_EXISTENCE, out, labels))

    assert max_grad_error(build, ps) < 1e-5
