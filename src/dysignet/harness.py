"""Training and online sequential evaluation over temporal batches.

Protocol: for every batch, pairs are scored against the state built from
all *earlier* batches only; the batch is ingested afterwards.  One
generator, :func:`_online`, runs that loop for both callers: per batch it
scores the pairs, yields them, and ingests the batch when resumed.
Between the yield and the resume ``train`` takes its loss, backward pass
and Adam step and detaches the state; ``evaluate_sequential`` only
collects the predictions.  At test time parameters are frozen but the
state keeps advancing, so predictions for late test events see earlier
test events.  Gradients are truncated at batch boundaries: the loss of
batch k+1 reaches back through the memory update of batch k and stops at
the detached state before it.

Memory: ``backward`` frees each op's vjp as it goes, and attention keeps
no D-wide array per history row, so a step's working set does not grow
with batch nodes × neighbour cap × D.  ``train`` drops each batch's tape
(its outputs and gradients) after its Adam step, so no tape lives while
the next batch is ingested and scored or while the epoch is validated,
and batch k's memory update, taped for every winner on ingest, keeps
its inputs, not its activations: batch k+1's backward recomputes them
for the rows it reads.  The epoch's state is emptied
before validation builds its own, so at most one state holds a pass's
arrays.  The emptied object lives until the next epoch replaces it, so
states are made and freed in the same order as when the full state lived
that long: a state freed before validation hands its id to a later state
more often, which mixes up any caller that keys records by
``id(state)``.  Each pass makes its state over the events it will ingest
(:meth:`ModelBundle.new_state`): the train split, or everything up to
the end of the evaluated split.  So a state's memories are allocated
once and never grow, and its history is a view of those events: one
argsort of their endpoints and a row count per node.  The
negative-sampling pool of seen node ids is built only for tasks that
sample negatives.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass, fields, replace

import numpy as np

from .encoder import AblationConfig, EncoderModel, EncoderState
from .events import DataError, DatasetSplit, EventLog, batches, chronological_split, parse_csv
from .heads import PairDecoder, TaskKind, negative_sample, task_labels, task_loss, task_outputs
from .metrics import accuracy, auroc, f1_binary, f1_multiclass, regression_metrics
from .params import NumericError, ParameterSet, adam_step
from .tensor import backward, no_grad

DIVERGENCE_LIMIT = 1e6


@dataclass(frozen=True)
class TrainConfig:
    """One run's settings: the data, the model and its training.  The
    encoder reads the model's shape from the properties below."""

    dataset: str = ""
    task: TaskKind = TaskKind.SIGN
    batch_size: int = 1000
    embedding_dim: int = 64
    memory_dim: int = 32          # per polarity; the joint memory is twice this
    heads: int = 8
    neighbor_cap: int | None = None   # keep only the most recent N history rows
    # time gaps enter as time_scale * log1p(dt); None: set from the training
    # span by resolve_time_scale, and 1.0 in an encoder built without it
    time_scale: float | None = None
    lr: float = 1e-3
    max_epochs: int = 50
    patience: int = 5
    seed: int = 0
    ablation: AblationConfig = AblationConfig.none
    split_fractions: tuple[float, float, float] = (0.70, 0.15, 0.15)
    standardize_weights: bool = False  # regression targets scaled by train stats

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValueError("batch size must be >= 1")
        if min(self.embedding_dim, self.memory_dim, self.heads) <= 0:
            raise ValueError("model dims must be positive")
        if self.ablation.use_embedding_layer and self.embedding_dim % self.heads:
            raise ValueError(f"embedding_dim {self.embedding_dim} is not divisible by "
                             f"{self.heads} heads")
        if self.max_epochs < 1 or self.patience < 0:
            raise ValueError("max_epochs must be >= 1 and patience >= 0")
        if self.neighbor_cap is not None and self.neighbor_cap < 1:
            raise ValueError("neighbor_cap must be None or >= 1")
        if self.time_scale is not None and not (np.isfinite(self.time_scale)
                                                and self.time_scale > 0):
            raise ValueError("time_scale must be None or finite and > 0")
        # lr = 0 is allowed: it freezes the parameters while the state still runs
        if not (np.isfinite(self.lr) and self.lr >= 0):
            raise ValueError("lr must be finite and >= 0")
        fractions = self.split_fractions
        if len(fractions) != 3 or min(fractions) <= 0 or abs(sum(fractions) - 1.0) > 1e-9:
            raise ValueError("split_fractions must be three fractions > 0 that sum to 1")

    @property
    def slot_count(self) -> int:
        return 2 if self.ablation.balanced_aggregation else 1

    @property
    def slot_dim(self) -> int:
        # the sign-blind variant keeps one slot sized like the joint memory
        return self.memory_dim if self.slot_count == 2 else 2 * self.memory_dim

    @property
    def node_state_dim(self) -> int:
        return 2 * self.memory_dim if self.ablation.use_memory else 0

    @property
    def embedding_source(self) -> str:
        if not self.ablation.use_embedding_layer:
            return "concatenated memories"
        if self.ablation.use_memory:
            return "attention over past interactions"
        return "attention over interaction time and magnitude"

    def to_dict(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out.update(task=self.task.value, ablation=self.ablation.name,
                   split_fractions=list(self.split_fractions),
                   embedding_source=self.embedding_source)
        return out

    @classmethod
    def from_dict(cls, values: dict) -> "TrainConfig":
        kwargs = dict(values)
        kwargs.pop("embedding_source", None)
        if "task" in kwargs:
            kwargs["task"] = TaskKind.from_name(kwargs["task"])
        if "ablation" in kwargs and not isinstance(kwargs["ablation"], AblationConfig):
            kwargs["ablation"] = AblationConfig.from_name(kwargs["ablation"])
        if "split_fractions" in kwargs:
            kwargs["split_fractions"] = tuple(kwargs["split_fractions"])
        return cls(**kwargs)


@dataclass
class ModelBundle:
    config: TrainConfig
    params: ParameterSet
    encoder: EncoderModel
    decoder: PairDecoder

    def new_state(self, log: EventLog) -> EncoderState:
        """A state for a pass over ``log``."""
        return EncoderState(self.config, log)


def build_model(config: TrainConfig) -> ModelBundle:
    rng = np.random.default_rng(config.seed)
    params = ParameterSet()
    params.meta = {"task": config.task.value, "ablation": config.ablation.name}
    encoder = EncoderModel(params, config, rng=rng)
    # without the embedding layer the embedding is the joint memory
    dim = config.embedding_dim if config.ablation.use_embedding_layer else 2 * config.memory_dim
    decoder = PairDecoder(params, "decoder", dim, config.task, rng=rng)
    return ModelBundle(config, params, encoder, decoder)


@dataclass
class Predictions:
    """Scored pairs as columns, one row per pair, in scoring order: each
    batch's events, then their negatives.  ``output`` is ``(n, arity)``:
    probabilities, or weights in raw units for the regression task."""

    src: np.ndarray
    dst: np.ndarray
    time: np.ndarray
    output: np.ndarray
    label: np.ndarray
    is_real: np.ndarray

    def __len__(self) -> int:
        return len(self.label)

    def __getitem__(self, rows) -> "Predictions":
        return Predictions(*(getattr(self, f.name)[rows] for f in fields(self)))

    @classmethod
    def concat(cls, parts: list["Predictions"]) -> "Predictions":
        return cls(*(np.concatenate([getattr(p, f.name) for p in parts]) for f in fields(cls)))


def _weight_scaler(config: TrainConfig, split: DatasetSplit):
    """(mean, std) of the train-split weights, or None when disabled."""
    if not (config.task.regression and config.standardize_weights):
        return None
    weights = split.train.weight
    std = float(weights.std())
    return float(weights.mean()), (std if std > 0 else 1.0)


def _online(bundle: ModelBundle, state: EncoderState, universe: dict, events, rng,
            scaler, counters):
    """Predict-then-ingest over ``events`` in batches.

    Per batch: for a task that samples negatives, add its endpoints to
    ``universe`` (the seen node ids in first-seen order, the pool negatives
    are drawn from); build the pairs and labels, score them against
    ``state`` as built from earlier batches only, yield ``(outputs,
    targets, predictions)``, and ingest the batch into ``state`` when
    resumed.  ``targets`` are the labels in training units (standardized
    weights under ``scaler``).  A batch whose outputs are not all finite
    raises ``NumericError``."""
    task = bundle.config.task
    for batch in batches(events, bundle.config.batch_size):
        qtime = state.watermark
        if qtime > batch.time[0]:
            counters["causality"] += 1
        time, src, dst = batch.time, batch.src.astype(np.int64), batch.dst.astype(np.int64)
        nodes = np.column_stack([src, dst]).ravel().tolist()  # src0, dst0, src1, ...
        k = 0
        if task.needs_negatives:
            universe.update(dict.fromkeys(nodes))
            pool = np.fromiter(universe, np.int64, len(universe))
            neg = negative_sample(batch, pool, rng)
            k = len(neg)
            nodes += neg.ravel().tolist()
            src, dst = np.concatenate([src, neg[:, 0]]), np.concatenate([dst, neg[:, 1]])
            time = np.concatenate([time, time[:k]])
        label = task_labels(task, batch.weight, k)
        is_real = np.arange(len(label)) < len(batch)
        z, index = bundle.encoder.compute_embeddings(nodes, qtime, state)
        outputs = bundle.decoder.score_rows(z, index, list(zip(nodes[::2], nodes[1::2])))
        if not np.isfinite(outputs.data).all():
            raise NumericError(
                f"non-finite decoder outputs in the batch at time {batch.time[0]:g}")
        output, targets = task_outputs(task, outputs.data), label
        if scaler:   # standardized regression targets; predictions in raw units
            output, targets = output * scaler[1] + scaler[0], (label - scaler[0]) / scaler[1]
        yield outputs, targets, Predictions(src, dst, time, output, label, is_real)
        del z, outputs   # the caller owns the tape now; ingesting needs none of it
        bundle.encoder.process_batch(batch, state)


def metric_bundle(task: TaskKind, preds: Predictions) -> dict:
    """Task-appropriate metrics over recorded predictions."""
    if not len(preds):
        return {"n": 0}
    labels = preds.label
    if task in (TaskKind.EXISTENCE, TaskKind.SIGN):
        scores = preds.output[:, 0]
        return {
            "n": len(preds),
            "f1": f1_binary(scores, labels.astype(int)),
            "auroc": auroc(scores, labels.astype(int)),
        }
    if task is TaskKind.SIGNED_EXISTENCE:
        y = labels.astype(int)
        return {
            "n": len(preds),
            "f1_weighted": f1_multiclass(preds.output, y, "weighted"),
            "f1_macro": f1_multiclass(preds.output, y, "macro"),
            "accuracy": accuracy(preds.output, y),
        }
    reg = regression_metrics(preds.output[:, 0], labels)
    return {
        "n": len(preds),
        "rmse": reg.rmse,
        "r2": reg.r2,
        "kl_div": reg.kl_div,
        "r2_defined": reg.r2_defined,
    }


VALIDATION_METRIC = {
    TaskKind.EXISTENCE: ("auroc", 1),
    TaskKind.SIGN: ("auroc", 1),
    TaskKind.SIGNED_EXISTENCE: ("f1_weighted", 1),
    TaskKind.SIGNED_WEIGHT: ("rmse", -1),
}


def _nan_to_none(x):
    """NaN floats as None (JSON null), inside dicts and lists too."""
    if isinstance(x, dict):
        return {k: _nan_to_none(v) for k, v in x.items()}
    if isinstance(x, list):
        return [_nan_to_none(v) for v in x]
    return None if isinstance(x, float) and np.isnan(x) else x


@dataclass
class EvalReport:
    task: str
    split: str
    metrics: dict
    transductive: dict | None
    inductive: dict | None
    n_real: int
    n_negative: int
    causality_violations: int
    params_frozen: bool
    runtime_s: float
    seed: int
    embedding_source: str
    config: dict
    raw: Predictions

    def to_dict(self) -> dict:
        """The report without its raw predictions, NaN metrics as None."""
        return _nan_to_none({f.name: getattr(self, f.name) for f in fields(self)
                             if f.name != "raw"})


@dataclass
class TrainResult:
    config: TrainConfig
    params: ParameterSet
    best_epoch: int
    epochs_run: int
    loss_trace: list[list[float]]
    val_trace: list[float]
    train_metrics: dict
    runtime_s: float

    def report(self) -> dict:
        return {
            "config": self.config.to_dict(),
            "best_epoch": self.best_epoch,
            "epochs_run": self.epochs_run,
            "epoch_mean_loss": [float(np.mean(ls)) for ls in self.loss_trace],
            "loss_trace": self.loss_trace,
            "val_trace": _nan_to_none(self.val_trace),
            "train_metrics": _nan_to_none(self.train_metrics),
            "runtime_s": self.runtime_s,
        }


def load_dataset(config: TrainConfig) -> DatasetSplit:
    logdata = parse_csv(config.dataset)
    return chronological_split(logdata, config.split_fractions)


def resolve_time_scale(config: TrainConfig, split: DatasetSplit) -> TrainConfig:
    """Normalize encoded time gaps to roughly [0, 1] over the train span."""
    if config.time_scale is not None:
        return config
    span = split.train.time[-1] - split.train.time[0]
    return replace(config, time_scale=1.0 / max(np.log1p(span), 1.0))


def train(config: TrainConfig, split: DatasetSplit | None = None) -> TrainResult:
    """Train with early stopping on the validation metric; returns the
    parameters of the best validation epoch.

    Each epoch is validated as :func:`evaluate_sequential` validates, on a
    state warmed with the epoch's final parameters, not on the state built
    while they moved, so the returned parameters reproduce their value."""
    t_start = _time.perf_counter()
    if split is None:
        split = load_dataset(config)
    config = resolve_time_scale(config, split)
    bundle = build_model(config)
    task = config.task
    metric_name, direction = VALIDATION_METRIC[task]
    scaler = _weight_scaler(config, split)

    best_value = -np.inf
    best_epoch = -1
    best_values = None
    loss_trace: list[list[float]] = []
    val_trace: list[float] = []
    epoch_preds: list[Predictions] = []
    epochs_run = 0

    for epoch in range(config.max_epochs):
        epochs_run = epoch + 1
        state = bundle.new_state(split.train)
        rng = np.random.default_rng((config.seed, 101, epoch))
        epoch_losses: list[float] = []
        epoch_preds = []
        # a plain loop: enumerate would keep the last scored batch, tape
        # and all, alive while the next one is ingested and scored
        for outputs, targets, preds in _online(bundle, state, {}, split.train, rng, scaler,
                                               {"causality": 0}):
            k = len(epoch_losses)
            loss_value, loss_grad = task_loss(task, outputs, targets)
            if not np.isfinite(loss_value):
                raise NumericError(f"non-finite loss at epoch {epoch} batch {k}")
            if loss_value > DIVERGENCE_LIMIT:
                raise NumericError(
                    f"training diverged (loss {loss_value:.3g}) at epoch {epoch} batch {k}")
            epoch_losses.append(loss_value)
            epoch_preds.append(preds)
            grads = backward(outputs, loss_grad, leaves=bundle.params.tensors())
            adam_step(bundle.params, grads, config.lr)
            state.detach_()
            del outputs, grads   # the tape, before the next batch and validation
        loss_trace.append(epoch_losses)

        # the epoch's arrays go before validation builds its own state; the
        # object stays until the next epoch (module docstring)
        state.clear()
        val = evaluate_sequential(bundle, split, "val", neg_seed=(config.seed, 202, epoch))
        value = val.metrics.get(metric_name, float("nan"))
        val_trace.append(value)
        scored = direction * value if np.isfinite(value) else -np.inf
        if scored > best_value:
            best_value = scored
            best_epoch = epoch
            best_values = bundle.params.copy_values()
        elif epoch - best_epoch >= config.patience:
            break

    if best_values is not None:
        bundle.params.load_values(best_values)
    return TrainResult(
        config=config,
        params=bundle.params,
        best_epoch=best_epoch,
        epochs_run=epochs_run,
        loss_trace=loss_trace,
        val_trace=val_trace,
        train_metrics=(metric_bundle(task, Predictions.concat(epoch_preds))
                       if epoch_preds else {"n": 0}),
        runtime_s=_time.perf_counter() - t_start,
    )


def _breakdown(preds: Predictions, train_nodes: np.ndarray, task: TaskKind):
    """Metrics over the pairs with both endpoints seen in training, and
    over those with neither; pairs mixing the two are in neither view."""
    src_seen, dst_seen = np.isin(preds.src, train_nodes), np.isin(preds.dst, train_nodes)
    return (metric_bundle(task, preds[src_seen & dst_seen]),
            metric_bundle(task, preds[~src_seen & ~dst_seen]))


def evaluate_sequential(bundle: ModelBundle, split: DatasetSplit, which: str = "test",
                        neg_seed=None, breakdown: bool = False) -> EvalReport:
    """Online evaluation: warm the state on all pre-split events with frozen
    parameters, then predict/ingest split batches sequentially.  The
    report's ``raw`` holds the scored pairs."""
    t_start = _time.perf_counter()
    start, stop = split.bounds(which)
    prior, target = split.log.slice(0, start), split.log.slice(start, stop)
    if not len(target):
        raise DataError(f"{which} split is empty")

    config = bundle.config
    checksum_before = bundle.params.checksum()
    state = bundle.new_state(split.log.slice(0, stop))
    universe = (dict.fromkeys(np.column_stack([prior.src, prior.dst]).ravel().tolist())
                if config.task.needs_negatives else {})
    if neg_seed is None:
        neg_seed = (config.seed, 303, 0 if which == "val" else 1)
    rng = np.random.default_rng(neg_seed)
    counters = {"causality": 0}
    with no_grad():
        for batch in batches(prior, config.batch_size):
            bundle.encoder.process_batch(batch, state)
        preds = Predictions.concat([
            p for _, _, p in _online(bundle, state, universe, target, rng,
                                     _weight_scaler(config, split), counters)])
    params_frozen = bundle.params.checksum() == checksum_before

    trans = ind = None
    if breakdown:
        train_nodes = np.concatenate([split.train.src, split.train.dst])
        trans, ind = _breakdown(preds, train_nodes, config.task)

    n_real = int(np.count_nonzero(preds.is_real))
    return EvalReport(
        task=config.task.value,
        split=which,
        metrics=metric_bundle(config.task, preds),
        transductive=trans,
        inductive=ind,
        n_real=n_real,
        n_negative=len(preds) - n_real,
        causality_violations=counters["causality"],
        params_frozen=params_frozen,
        runtime_s=_time.perf_counter() - t_start,
        seed=config.seed,
        embedding_source=config.embedding_source,
        config=config.to_dict(),
        raw=preds,
    )
