import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dysignet.metrics import (
    accuracy,
    auroc,
    f1_binary,
    f1_multiclass,
    kl_divergence_hist,
    regression_metrics,
    weight_histograms,
)
from dysignet.params import NumericError

import oracles


def test_f1_perfect():
    scores = np.array([0.9, 0.8, 0.1, 0.2])
    labels = np.array([1, 1, 0, 0])
    assert f1_binary(scores, labels) == 1.0


def test_f1_all_predicted_positive_half_true():
    scores = np.full(10, 0.9)
    labels = np.array([1] * 5 + [0] * 5)
    assert f1_binary(scores, labels) == pytest.approx(2 / 3)


def test_f1_matches_confusion_matrix_bruteforce():
    rng = np.random.default_rng(0)
    scores = rng.random(50)
    labels = rng.integers(0, 2, size=50)
    pred = scores >= 0.5
    tp = np.sum(pred & (labels == 1))
    fp = np.sum(pred & (labels == 0))
    fn = np.sum(~pred & (labels == 1))
    precision = tp / (tp + fp)
    recall = tp / (tp + fn)
    expected = 2 * precision * recall / (precision + recall)
    assert f1_binary(scores, labels) == pytest.approx(expected, abs=1e-12)


def test_auroc_perfect_separation():
    assert auroc(np.array([0.8, 0.9, 0.1, 0.2]), np.array([1, 1, 0, 0])) == 1.0


def test_auroc_random_scores_near_half():
    rng = np.random.default_rng(1)
    scores = rng.random(4000)
    labels = rng.integers(0, 2, size=4000)
    assert abs(auroc(scores, labels) - 0.5) < 0.05


def test_auroc_tie_case_matches_pair_counting():
    scores = np.array([0.1, 0.4, 0.4, 0.4, 0.7, 0.9])
    labels = np.array([0, 0, 1, 0, 1, 1])
    wins = ties = 0
    for sp in scores[labels == 1]:
        for sn in scores[labels == 0]:
            if sp > sn:
                wins += 1
            elif sp == sn:
                ties += 1
    expected = (wins + 0.5 * ties) / (labels.sum() * (len(labels) - labels.sum()))
    assert auroc(scores, labels) == pytest.approx(expected, abs=1e-15)


def test_auroc_single_class_is_nan():
    assert np.isnan(auroc(np.array([0.1, 0.9]), np.array([1, 1])))


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_auroc_invariant_under_monotone_transform(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 40))
    scores = rng.random(n)
    labels = rng.integers(0, 2, size=n)
    if labels.min() == labels.max():
        labels[0] = 1 - labels[0]
    base = auroc(scores, labels)
    assert auroc(np.exp(3 * scores) + 7, labels) == pytest.approx(base, abs=1e-12)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_auroc_matches_tie_walking_oracle_on_heavy_ties(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 300))
    levels = rng.normal(size=int(rng.integers(1, 6)))
    levels[0] = 0.0
    scores = rng.choice(levels, size=n)
    scores[rng.random(n) < 0.2] = -0.0   # equal to 0.0, so tied with it
    labels = rng.integers(0, 2, size=n)
    labels[:2] = [0, 1]
    assert auroc(scores, labels) == oracles.auroc(scores, labels)


def _probs(rng, n, k=3):
    p = rng.random((n, k))
    return p / p.sum(axis=1, keepdims=True)


def test_multiclass_perfect_all_averagings():
    probs = np.eye(3)[np.array([0, 1, 2, 1, 0])]
    labels = np.array([0, 1, 2, 1, 0])
    for avg in ("macro", "weighted", "micro"):
        assert f1_multiclass(probs, labels, avg) == 1.0


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_micro_equals_accuracy(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 60))
    probs = _probs(rng, n)
    labels = rng.integers(0, 3, size=n)
    micro = f1_multiclass(probs, labels, "micro")
    assert micro == accuracy(probs, labels)
    assert micro == pytest.approx(np.mean(probs.argmax(axis=1) == labels))


def test_multiclass_matches_per_class_bruteforce():
    rng = np.random.default_rng(2)
    probs = _probs(rng, 50)
    labels = np.concatenate([np.zeros(35, int), np.ones(10, int), np.full(5, 2)])
    pred = probs.argmax(axis=1)
    f1s, supports = [], []
    for c in range(3):
        tp = np.sum((pred == c) & (labels == c))
        fp = np.sum((pred == c) & (labels != c))
        fn = np.sum((pred != c) & (labels == c))
        f1s.append(2 * tp / (2 * tp + fp + fn) if (2 * tp + fp + fn) else 0.0)
        supports.append(np.sum(labels == c))
    f1s, supports = np.array(f1s), np.array(supports)
    assert f1_multiclass(probs, labels, "macro") == pytest.approx(f1s.mean(), abs=1e-12)
    assert f1_multiclass(probs, labels, "weighted") == pytest.approx(
        (f1s * supports).sum() / supports.sum(), abs=1e-12)


def test_multiclass_validates_rows():
    with pytest.raises(ValueError):
        f1_multiclass(np.array([[0.5, 0.2, 0.2]]), np.array([0]))
    with pytest.raises(ValueError):
        f1_multiclass(np.ones((0, 3)), np.zeros(0, int))


def test_regression_perfect():
    t = np.array([1.0, -3.0, 2.0, 0.0])
    r = regression_metrics(t, t)
    assert r.rmse == 0.0 and r.r2 == 1.0 and r.kl_div == 0.0 and r.r2_defined


def test_regression_mean_predictor_r2_zero():
    targets = np.array([1.0, 2.0, 3.0, 6.0])
    preds = np.full(4, targets.mean())
    r = regression_metrics(preds, targets)
    assert r.r2 == pytest.approx(0.0, abs=1e-12)


def test_regression_zero_variance_flagged():
    r = regression_metrics(np.array([1.0, 2.0]), np.array([3.0, 3.0]))
    assert not r.r2_defined and np.isnan(r.r2)


def test_regression_matches_direct_formulas():
    rng = np.random.default_rng(3)
    targets = rng.integers(-10, 11, size=50).astype(float)
    preds = targets + rng.normal(size=50)
    r = regression_metrics(preds, targets)
    assert r.rmse == pytest.approx(np.sqrt(np.mean((preds - targets) ** 2)), abs=1e-12)
    ss_res = np.sum((targets - preds) ** 2)
    ss_tot = np.sum((targets - targets.mean()) ** 2)
    assert r.r2 == pytest.approx(1 - ss_res / ss_tot, abs=1e-12)

    lo = int(min(np.rint(preds).min(), np.rint(targets).min()))
    hi = int(max(np.rint(preds).max(), np.rint(targets).max()))
    bins = np.arange(lo, hi + 1)
    eps = 1e-6
    a = np.array([(np.rint(targets) == b).sum() for b in bins], float)
    q = np.array([(np.rint(preds) == b).sum() for b in bins], float)
    a = (a + eps) / (a.sum() + eps * a.size)
    q = (q + eps) / (q.sum() + eps * q.size)
    assert r.kl_div == pytest.approx(np.sum(a * np.log(a / q)), abs=1e-12)


def test_weight_histograms_cover_union_range():
    bins, a, p = weight_histograms(np.array([-2.0, 0.4]), np.array([3.0, 2.6]))
    assert list(bins) == [-2, -1, 0, 1, 2, 3]
    assert a.sum() == 2 and p.sum() == 2


def test_weight_histograms_refuse_a_range_past_the_bin_cap_before_allocating():
    # 1e9 bins would be 8 GB of counts; the span is checked first
    tracemalloc.start()
    try:
        with pytest.raises(NumericError, match="histogram bins"):
            weight_histograms(np.array([-2.0, 3.0]), np.array([1e9]))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    for bad in (3e38, np.nan, -np.inf):
        with pytest.raises(NumericError):
            weight_histograms(np.array([0.0]), np.array([bad]))


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_kl_nonnegative_and_zero_iff_equal(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 50))
    a = rng.integers(-10, 11, size=n).astype(float)
    b = rng.integers(-10, 11, size=n).astype(float)
    assert kl_divergence_hist(a, b) >= 0.0
    assert kl_divergence_hist(a, a) == 0.0
    _, ca, cb = weight_histograms(a, b)
    if not np.array_equal(ca, cb):
        assert kl_divergence_hist(a, b) > 0.0


def test_binary_metric_input_validation():
    with pytest.raises(ValueError):
        f1_binary(np.zeros(0), np.zeros(0))
    with pytest.raises(ValueError):
        auroc(np.zeros(3), np.zeros(2))
