"""Pair decoders, task losses, and negative sampling for the four
link-prediction tasks."""

from __future__ import annotations

import logging
from enum import Enum

import numpy as np

from .layers import Feedforward
from .params import ParameterSet
from .tensor import (
    Tensor,
    add,
    _expit,
    concat,
    gather_stack,
    logsumexp,
    mul,
    softplus,
    sqrt,
    sub,
    tmean,
    tsum,
)

log = logging.getLogger(__name__)


class TaskKind(Enum):
    EXISTENCE = "existence"
    SIGN = "sign"
    SIGNED_EXISTENCE = "signed-existence"
    SIGNED_WEIGHT = "signed-weight"

    @classmethod
    def from_name(cls, name: str) -> "TaskKind":
        return cls(name.strip().lower().replace("_", "-"))

    @property
    def arity(self) -> int:
        return 3 if self is TaskKind.SIGNED_EXISTENCE else 1

    @property
    def needs_negatives(self) -> bool:
        """Sign and weight prediction condition on the link existing."""
        return self in (TaskKind.EXISTENCE, TaskKind.SIGNED_EXISTENCE)


# class ids for the 3-way task
CLASS_POSITIVE = 0
CLASS_NEGATIVE = 1
CLASS_ABSENT = 2


class PairDecoder:
    """Scores an ordered node pair from the concatenation of its embeddings."""

    def __init__(self, params: ParameterSet, name: str, embedding_dim: int,
                 task: TaskKind, rng: np.random.Generator | None = None):
        self.task = task
        self.embedding_dim = embedding_dim
        # hidden sized to the embedding, not the (tiny) output arity
        self.net = Feedforward(params, name, 2 * embedding_dim, task.arity,
                               hidden_dim=embedding_dim, rng=rng)

    def score_rows(self, z: Tensor, index: dict[int, int], pairs) -> Tensor:
        """Batched scoring: gather embedding rows per ordered pair."""
        left = gather_stack([(z, index[u]) for u, _ in pairs])
        right = gather_stack([(z, index[v]) for _, v in pairs])
        return self.net.apply(concat([left, right], axis=1))


def negative_sample(events, universe: np.ndarray, rng: np.random.Generator):
    """One corrupted pair per event: the source is kept and the destination
    redrawn uniformly from seen nodes until it differs from the true one."""
    universe = np.asarray(universe)
    if universe.size <= 1:
        log.warning("negative sampling skipped: universe has %d node(s)", universe.size)
        return []
    out = []
    for ev in events:
        v = int(universe[rng.integers(universe.size)])
        while v == ev.dst:
            v = int(universe[rng.integers(universe.size)])
        out.append((ev.src, v))
    return out


def loss_bce(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean binary cross-entropy on raw logits, log-sum-exp stabilized:
    softplus(x) - y*x."""
    labels = np.asarray(labels, dtype=np.float64)
    flat = logits if logits.data.ndim == 1 else logits.reshape((-1,))
    return tmean(sub(softplus(flat), mul(flat, Tensor(labels))))


def loss_ce3(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean 3-way softmax cross-entropy."""
    labels = np.asarray(labels).astype(int)
    if labels.min() < 0 or labels.max() > 2:
        raise ValueError("labels for the 3-class task must lie in {0, 1, 2}")
    onehot = np.zeros(logits.data.shape)
    onehot[np.arange(labels.size), labels] = 1.0
    logp = sub(logits, logsumexp(logits, axis=1, keepdims=True))
    picked = tsum(mul(logp, Tensor(onehot)), axis=1)
    return tmean(mul(picked, -1.0))


def loss_rmse(preds: Tensor, targets: np.ndarray) -> Tensor:
    """Root mean squared error against raw signed weights."""
    targets = np.asarray(targets, dtype=np.float64)
    if targets.size == 0:
        raise ValueError("RMSE of an empty batch is undefined")
    flat = preds if preds.data.ndim == 1 else preds.reshape((-1,))
    d = sub(flat, Tensor(targets))
    return sqrt(tmean(mul(d, d)))


def task_loss(task: TaskKind, outputs: Tensor, labels: np.ndarray) -> Tensor:
    if task is TaskKind.SIGNED_EXISTENCE:
        return loss_ce3(outputs, labels)
    if task is TaskKind.SIGNED_WEIGHT:
        return loss_rmse(outputs, labels)
    return loss_bce(outputs, labels)


def sigmoid_np(x: np.ndarray) -> np.ndarray:
    return _expit(np.asarray(x, dtype=np.float64))
