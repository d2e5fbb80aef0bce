"""Pair decoders, task losses, and negative sampling for the four
link-prediction tasks.

Each task's loss and its gradient with respect to the decoder output are
computed in closed form, in float64 numpy; the gradient seeds
``tensor.backward``.  The task's label and output rules sit beside its
loss."""

from __future__ import annotations

import logging
from enum import Enum

import numpy as np

from .layers import Feedforward
from .params import ParameterSet
from .tensor import Tensor, _expit, concat, gather_stack

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
    def regression(self) -> bool:
        return self is TaskKind.SIGNED_WEIGHT

    @property
    def needs_negatives(self) -> bool:
        """Sign and weight prediction condition on the link existing."""
        return self in (TaskKind.EXISTENCE, TaskKind.SIGNED_EXISTENCE)


class PairDecoder:
    """Scores an ordered node pair from the concatenation of its embeddings."""

    def __init__(self, params: ParameterSet, name: str, embedding_dim: int,
                 task: TaskKind, rng: np.random.Generator | None = None):
        self.task = task
        self.embedding_dim = embedding_dim
        # hidden sized to the embedding, not the (tiny) output arity
        self.net = Feedforward(params, name, 2 * embedding_dim, task.arity,
                               hidden_dim=embedding_dim, rng=rng)

    def score_rows(self, z: Tensor, ids: np.ndarray, pairs: np.ndarray) -> Tensor:
        """Scores of the (k, 2) node ``pairs``, one row each, where row ``i``
        of ``z`` embeds ``ids[i]``; ``ids`` are distinct and hold every node."""
        order = np.argsort(ids)
        rows = order[np.searchsorted(ids, pairs, sorter=order)]
        left = gather_stack([(z, r) for r in rows[:, 0].tolist()])
        right = gather_stack([(z, r) for r in rows[:, 1].tolist()])
        return self.net.apply(concat([left, right], axis=1))


def negative_sample(events, universe: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One corrupted pair per event of a log or batch, as (k, 2) int64 node
    ids: the source kept, the destination drawn uniformly from ``universe``
    and redrawn while it equals the true one.  Draws come in blocks of one
    per open event; pairs and generator state equal those of one-at-a-time
    draws."""
    universe, dst = np.asarray(universe), events.dst
    if universe.size <= 1:
        log.warning("negative sampling skipped: universe has %d node(s)", universe.size)
        return np.empty((0, 2), dtype=np.int64)
    out, done, stream = np.empty(dst.size, np.int64), 0, dst[:0]
    while done < dst.size:
        if not stream.size:
            stream = universe[rng.integers(universe.size, size=dst.size - done)]
        hit = np.flatnonzero(stream == dst[done:done + stream.size])
        take = hit[0] if hit.size else stream.size
        out[done:done + take] = stream[:take]
        done, stream = done + take, stream[take + 1:]
    return np.column_stack([events.src, out])


def loss_bce(logits: np.ndarray, labels: np.ndarray):
    """Mean binary cross-entropy on raw logits, softplus(x) - y*x, and its
    gradient (sigmoid(x) - y) / n."""
    x, y = np.asarray(logits, dtype=np.float64).ravel(), np.asarray(labels, dtype=np.float64)
    value = np.mean(np.logaddexp(0.0, x) - y * x)
    return value, (_expit(x) - y) / x.size


def loss_ce3(logits: np.ndarray, labels: np.ndarray):
    """Mean 3-way softmax cross-entropy and its gradient
    (softmax - onehot) / n."""
    labels = np.asarray(labels).astype(int)
    if labels.min() < 0 or labels.max() > 2:
        raise ValueError("labels for the 3-class task must lie in {0, 1, 2}")
    x, rows = np.asarray(logits, dtype=np.float64), np.arange(labels.size)
    shift = x.max(axis=1, keepdims=True)
    e = np.exp(x - shift)
    total = e.sum(axis=1, keepdims=True)
    value = np.mean(np.log(total[:, 0]) + shift[:, 0] - x[rows, labels])
    grad = e / total
    grad[rows, labels] -= 1.0
    return value, grad / labels.size


def loss_rmse(preds: np.ndarray, targets: np.ndarray):
    """Root mean squared error against raw signed weights and its gradient
    d / (n * rmse), zero where the error is zero."""
    x, t = np.asarray(preds, dtype=np.float64).ravel(), np.asarray(targets, dtype=np.float64)
    if t.size == 0:
        raise ValueError("RMSE of an empty batch is undefined")
    d = x - t
    value = np.sqrt(np.mean(d * d))
    return value, (d / (d.size * value) if value > 0 else np.zeros_like(d))


def task_loss(task: TaskKind, outputs: Tensor, targets: np.ndarray):
    """The task's loss on the decoder ``outputs`` and its gradient with
    respect to them, in the outputs' shape and dtype: (float, array)."""
    loss = {TaskKind.SIGNED_EXISTENCE: loss_ce3,
            TaskKind.SIGNED_WEIGHT: loss_rmse}.get(task, loss_bce)
    value, grad = loss(outputs.data, targets)
    return float(value), grad.reshape(outputs.data.shape).astype(outputs.data.dtype)


def task_labels(task: TaskKind, weight: np.ndarray, negatives: int) -> np.ndarray:
    """Labels of a batch's events with signed weights ``weight``, then of
    ``negatives`` corrupted pairs: existence 1 and 0; sign 1 for positive
    and 0 otherwise; 3-way 0 positive, 1 negative, 2 no link; weights as
    they are."""
    if task is TaskKind.EXISTENCE:
        real, fake = np.ones_like(weight), 0.0
    elif task is TaskKind.SIGN:
        real, fake = np.where(weight > 0, 1.0, 0.0), 0.0
    elif task is TaskKind.SIGNED_EXISTENCE:
        real, fake = np.where(weight > 0, 0.0, 1.0), 2.0
    else:
        real, fake = weight, 0.0
    return np.concatenate([real, np.full(negatives, fake)])


def task_outputs(task: TaskKind, data: np.ndarray) -> np.ndarray:
    """Decoder outputs as (n, arity) float64 predictions: class
    probabilities, or the regressed weight as it is."""
    data = data.astype(np.float64)
    if task is TaskKind.SIGNED_EXISTENCE:
        e = np.exp(data - data.max(axis=-1, keepdims=True))
        return e / e.sum(axis=-1, keepdims=True)
    if task is TaskKind.SIGNED_WEIGHT:
        return data
    return _expit(data)
