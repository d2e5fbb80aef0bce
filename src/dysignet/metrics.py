"""Evaluation metrics: binary F1/AUROC, multiclass F1 averagings, and the
regression bundle (RMSE, R^2, histogram KL divergence)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .params import NumericError

KL_SMOOTHING = 1e-6
MAX_HISTOGRAM_BINS = 1 << 20   # 8 MB of int64 counts per set of weights


def _validate_binary(scores, labels):
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.size == 0 or scores.shape != labels.shape:
        raise ValueError("scores and labels must be equal-length and non-empty")
    return scores, labels


def f1_binary(scores, labels) -> float:
    """F1 of the positive class at probability 0.5."""
    scores, labels = _validate_binary(scores, labels)
    pred = scores >= 0.5
    tp = float(np.sum(pred & (labels == 1)))
    fp = float(np.sum(pred & (labels == 0)))
    fn = float(np.sum(~pred & (labels == 1)))
    denom = 2 * tp + fp + fn
    return 2 * tp / denom if denom else 0.0


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks; tied values share the mean of their ranks."""
    _, group, counts = np.unique(values, return_inverse=True, return_counts=True,
                                 equal_nan=False)   # each NaN ranks alone, last
    last = np.cumsum(counts)   # rank of each tie group's last member
    return (last - 0.5 * (counts - 1))[group]


def auroc(scores, labels) -> float:
    """Rank-statistic AUROC with average ranks on ties; NaN if one class."""
    scores, labels = _validate_binary(scores, labels)
    n_pos = int(np.sum(labels == 1))
    n_neg = labels.size - n_pos
    if n_pos == 0 or n_neg == 0:
        return float("nan")
    ranks = _average_ranks(scores)
    u = ranks[labels == 1].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


def _per_class_f1(pred: np.ndarray, labels: np.ndarray, n_classes: int):
    f1 = np.zeros(n_classes)
    support = np.zeros(n_classes)
    for c in range(n_classes):
        tp = float(np.sum((pred == c) & (labels == c)))
        fp = float(np.sum((pred == c) & (labels != c)))
        fn = float(np.sum((pred != c) & (labels == c)))
        denom = 2 * tp + fp + fn
        f1[c] = 2 * tp / denom if denom else 0.0
        support[c] = np.sum(labels == c)
    return f1, support


def f1_multiclass(probs, labels, average: str = "weighted") -> float:
    """Multiclass F1 from probability rows (argmax decisions).

    ``micro`` equals plain accuracy for single-label classification.
    """
    probs = np.asarray(probs, dtype=np.float64)
    labels = np.asarray(labels)
    if probs.ndim != 2 or probs.shape[0] != labels.size or labels.size == 0:
        raise ValueError("probs must be (n, k) rows matching n labels")
    if np.abs(probs.sum(axis=1) - 1.0).max() > 1e-6:
        raise ValueError("probability rows must sum to 1")
    pred = probs.argmax(axis=1)
    n_classes = probs.shape[1]
    if average == "micro":
        return float(np.mean(pred == labels))
    f1, support = _per_class_f1(pred, labels, n_classes)
    if average == "macro":
        return float(f1.mean())
    if average == "weighted":
        return float((f1 * support).sum() / support.sum())
    raise ValueError(f"unknown averaging {average!r}")


def accuracy(probs, labels) -> float:
    return f1_multiclass(probs, labels, average="micro")


def weight_histograms(actual, predicted):
    """Counts of nearest-integer weights over the union range of both sets.

    Returns (bin_values, actual_counts, predicted_counts); this is the
    shared binning for both the KL divergence and the histogram export.
    Raises NumericError for a range past ``MAX_HISTOGRAM_BINS`` bins.
    """
    sets = [np.rint(np.asarray(x, dtype=np.float64)) for x in (actual, predicted)]
    lo, hi = np.minimum(*(x.min() for x in sets)), np.maximum(*(x.max() for x in sets))
    if not hi - lo < MAX_HISTOGRAM_BINS:   # NaN and inf fail it too
        raise NumericError(f"weights {lo:g}..{hi:g} need over {MAX_HISTOGRAM_BINS} histogram bins")
    bins = np.arange(int(lo), int(hi) + 1)
    return bins, *(np.bincount((x - lo).astype(int), minlength=bins.size) for x in sets)


def kl_divergence_hist(actual, predicted) -> float:
    """KL(actual || predicted) over integer histograms smoothed by
    ``KL_SMOOTHING`` and renormalized."""
    _, a_counts, p_counts = weight_histograms(actual, predicted)
    p = (a_counts + KL_SMOOTHING) / (a_counts.sum() + KL_SMOOTHING * a_counts.size)
    q = (p_counts + KL_SMOOTHING) / (p_counts.sum() + KL_SMOOTHING * p_counts.size)
    return float(np.sum(p * np.log(p / q)))


@dataclass
class RegressionMetrics:
    rmse: float
    r2: float
    kl_div: float
    r2_defined: bool


def regression_metrics(predicted, actual) -> RegressionMetrics:
    predicted = np.asarray(predicted, dtype=np.float64)
    actual = np.asarray(actual, dtype=np.float64)
    if predicted.size == 0 or predicted.shape != actual.shape:
        raise ValueError("predicted and actual must be equal-length and non-empty")
    rmse = float(np.sqrt(np.mean((predicted - actual) ** 2)))
    ss_tot = float(np.sum((actual - actual.mean()) ** 2))
    if ss_tot == 0.0:
        r2, defined = float("nan"), False
    else:
        r2 = 1.0 - float(np.sum((actual - predicted) ** 2)) / ss_tot
        defined = True
    return RegressionMetrics(rmse, r2, kl_divergence_hist(actual, predicted), defined)
