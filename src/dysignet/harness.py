"""Training and online sequential evaluation over temporal batches.

Protocol: for every batch, pairs are scored against the state built from
all *earlier* batches only; the batch is ingested afterwards.  At test
time parameters are frozen but the state keeps advancing, so predictions
for late test events see earlier test events.  Gradients are truncated at
batch boundaries: the loss of batch k+1 reaches back through the memory
update of batch k and stops at the detached state before it.
"""

from __future__ import annotations

import logging
import time as _time
from dataclasses import dataclass, field, fields, replace
from typing import NamedTuple, Sequence

import numpy as np

from .encoder import AblationConfig, EncoderConfig, EncoderModel, EncoderState
from .events import DataError, DatasetSplit, EventLog, batches, chronological_split, parse_csv
from .heads import PairDecoder, TaskKind, negative_sample, sigmoid_np, task_loss
from .metrics import accuracy, auroc, f1_binary, f1_multiclass, regression_metrics
from .params import NumericError, ParameterSet, adam_step
from .tensor import backward, no_grad

log = logging.getLogger(__name__)

DIVERGENCE_LIMIT = 1e6


@dataclass(frozen=True)
class TrainConfig:
    dataset: str = ""
    task: TaskKind = TaskKind.SIGN
    batch_size: int = 1000
    embedding_dim: int = 64
    memory_dim: int = 32
    heads: int = 8
    feature_dim: int = 8
    neighbor_cap: int | None = None
    time_scale: float | None = None   # None: set from the training span
    lr: float = 1e-3
    max_epochs: int = 50
    patience: int = 5
    seed: int = 0
    ablation: AblationConfig = field(default_factory=AblationConfig)
    split_fractions: tuple[float, float, float] = (0.70, 0.15, 0.15)
    standardize_weights: bool = False  # regression targets scaled by train stats

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValueError("batch size must be >= 1")
        if min(self.embedding_dim, self.memory_dim, self.heads) <= 0:
            raise ValueError("model dims must be positive")

    def encoder_config(self) -> EncoderConfig:
        return EncoderConfig(
            memory_dim=self.memory_dim,
            embedding_dim=self.embedding_dim,
            heads=self.heads,
            feature_dim=self.feature_dim,
            neighbor_cap=self.neighbor_cap,
            time_scale=1.0 if self.time_scale is None else self.time_scale,
            ablation=self.ablation,
        )

    def to_dict(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out.update(task=self.task.value, ablation=self.ablation.name,
                   split_fractions=list(self.split_fractions),
                   embedding_source=self.encoder_config().embedding_source)
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

    def new_state(self, features=None, track_provenance=False) -> EncoderState:
        return EncoderState(self.config.encoder_config(), features=features,
                            track_provenance=track_provenance)


def build_model(config: TrainConfig) -> ModelBundle:
    rng = np.random.default_rng(config.seed)
    params = ParameterSet()
    enc_cfg = config.encoder_config()
    encoder = EncoderModel(params, enc_cfg, rng=rng)
    decoder = PairDecoder(params, "decoder", enc_cfg.embedding_out_dim, config.task, rng=rng)
    return ModelBundle(config, params, encoder, decoder)


class PairRecord(NamedTuple):
    src: int
    dst: int
    time: float
    output: tuple
    label: float
    is_real: bool


class _Universe:
    """Insertion-ordered set of node ids seen so far."""

    def __init__(self):
        self._seen: dict[int, None] = {}

    def extend(self, nodes):
        for n in nodes:
            self._seen.setdefault(n, None)

    def extend_events(self, events):
        for ev in events:
            self._seen.setdefault(ev.src, None)
            self._seen.setdefault(ev.dst, None)

    def array(self) -> np.ndarray:
        return np.fromiter(self._seen.keys(), dtype=np.int64, count=len(self._seen))


def _build_pairs(task: TaskKind, events, universe: _Universe, rng):
    """Ordered pairs with labels/targets for one batch, negatives included
    for the tasks that consume them."""
    pairs = [(ev.src, ev.dst) for ev in events]
    times = [ev.time for ev in events]
    reality = [True] * len(events)
    if task is TaskKind.EXISTENCE:
        labels = [1.0] * len(events)
    elif task is TaskKind.SIGN:
        labels = [1.0 if ev.weight > 0 else 0.0 for ev in events]
    elif task is TaskKind.SIGNED_EXISTENCE:
        labels = [0.0 if ev.weight > 0 else 1.0 for ev in events]
    else:
        labels = [ev.weight for ev in events]
    if task.needs_negatives:
        fake_label = 0.0 if task is TaskKind.EXISTENCE else 2.0
        for (u, v), ev in zip(negative_sample(events, universe.array(), rng), events):
            pairs.append((u, v))
            times.append(ev.time)
            labels.append(fake_label)
            reality.append(False)
    return pairs, np.asarray(labels), times, reality


def _weight_scaler(config: TrainConfig, split: DatasetSplit):
    """(mean, std) of the train-split weights, or None when disabled."""
    if config.task is not TaskKind.SIGNED_WEIGHT or not config.standardize_weights:
        return None
    weights = np.array([ev.weight for ev in split.train.events])
    std = float(weights.std())
    return float(weights.mean()), (std if std > 0 else 1.0)


def _score_batch(bundle: ModelBundle, state: EncoderState, pairs, qtime: float):
    nodes = [n for pair in pairs for n in pair]
    z, index = bundle.encoder.compute_embeddings(nodes, qtime, state)
    return bundle.decoder.score_rows(z, index, pairs)


def _records_from(task: TaskKind, pairs, times, labels, reality, outputs,
                  scaler=None) -> list[PairRecord]:
    data = outputs.data
    if task is TaskKind.SIGNED_EXISTENCE:
        e = np.exp(data - data.max(axis=-1, keepdims=True))
        rows = e / e.sum(axis=-1, keepdims=True)
    elif task is TaskKind.SIGNED_WEIGHT:
        rows = data.reshape(-1, 1)
        if scaler is not None:  # back to raw weight units
            rows = rows * scaler[1] + scaler[0]
    else:
        rows = sigmoid_np(data.reshape(-1, 1))
    return [
        PairRecord(u, v, t, tuple(float(x) for x in rows[i]), float(labels[i]), reality[i])
        for i, ((u, v), t) in enumerate(zip(pairs, times))
    ]


def metric_bundle(task: TaskKind, records: Sequence[PairRecord]) -> dict:
    """Task-appropriate metrics over recorded predictions."""
    if not records:
        return {"n": 0}
    labels = np.array([r.label for r in records])
    if task in (TaskKind.EXISTENCE, TaskKind.SIGN):
        scores = np.array([r.output[0] for r in records])
        return {
            "n": len(records),
            "f1": f1_binary(scores, labels.astype(int)),
            "auroc": auroc(scores, labels.astype(int)),
        }
    if task is TaskKind.SIGNED_EXISTENCE:
        probs = np.array([r.output for r in records])
        y = labels.astype(int)
        return {
            "n": len(records),
            "f1_weighted": f1_multiclass(probs, y, "weighted"),
            "f1_macro": f1_multiclass(probs, y, "macro"),
            "accuracy": accuracy(probs, y),
        }
    preds = np.array([r.output[0] for r in records])
    reg = regression_metrics(preds, labels)
    return {
        "n": len(records),
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
    raw: list | None = None

    def to_dict(self) -> dict:
        def clean(x):
            if isinstance(x, dict):
                return {k: clean(v) for k, v in x.items()}
            if isinstance(x, float) and np.isnan(x):
                return None
            return x

        out = {
            "task": self.task,
            "split": self.split,
            "metrics": clean(self.metrics),
            "transductive": clean(self.transductive) if self.transductive else None,
            "inductive": clean(self.inductive) if self.inductive else None,
            "n_real": self.n_real,
            "n_negative": self.n_negative,
            "causality_violations": self.causality_violations,
            "params_frozen": self.params_frozen,
            "runtime_s": self.runtime_s,
            "seed": self.seed,
            "embedding_source": self.embedding_source,
        }
        out["config"] = self.config
        if self.raw is not None:
            out["raw"] = [list(r[:3]) + [list(r.output), r.label, r.is_real] for r in self.raw]
        return out


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
            "val_trace": [None if np.isnan(v) else v for v in self.val_trace],
            "train_metrics": {k: (None if isinstance(v, float) and np.isnan(v) else v)
                              for k, v in self.train_metrics.items()},
            "runtime_s": self.runtime_s,
        }


def load_dataset(config: TrainConfig) -> DatasetSplit:
    logdata = parse_csv(config.dataset)
    return chronological_split(logdata, config.split_fractions)


def resolve_time_scale(config: TrainConfig, split: DatasetSplit) -> TrainConfig:
    """Normalize encoded time gaps to roughly [0, 1] over the train span."""
    if config.time_scale is not None:
        return config
    span = split.train.events[-1].time - split.train.events[0].time
    return replace(config, time_scale=1.0 / max(np.log1p(span), 1.0))


def _run_split(bundle, state, universe, events, task, rng, records, counters,
               scaler=None):
    """Frozen-parameter pass over one split: predict each batch against the
    pre-batch state, record, then ingest."""
    with no_grad():
        for batch in batches(events, bundle.config.batch_size):
            qtime = state.watermark
            if qtime > batch.start_time:
                counters["causality"] += 1
            universe.extend_events(batch.events)
            pairs, labels, times, reality = _build_pairs(task, batch.events, universe, rng)
            outputs = _score_batch(bundle, state, pairs, qtime)
            records.extend(_records_from(task, pairs, times, labels, reality, outputs,
                                         scaler))
            bundle.encoder.process_batch(batch.events, state)


def train(config: TrainConfig, split: DatasetSplit | None = None,
          log_progress: bool = False) -> TrainResult:
    """Train with early stopping on the validation metric; returns the
    parameters of the best validation epoch."""
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
    last_train_records: list[PairRecord] = []
    epochs_run = 0

    for epoch in range(config.max_epochs):
        epochs_run = epoch + 1
        state = bundle.new_state()
        universe = _Universe()
        rng = np.random.default_rng((config.seed, 101, epoch))
        epoch_losses: list[float] = []
        epoch_records: list[PairRecord] = []
        for batch in batches(split.train, config.batch_size):
            qtime = state.watermark
            universe.extend_events(batch.events)
            pairs, labels, times, reality = _build_pairs(task, batch.events, universe, rng)
            outputs = _score_batch(bundle, state, pairs, qtime)
            targets = (labels - scaler[0]) / scaler[1] if scaler else labels
            loss = task_loss(task, outputs, targets)
            loss_value = loss.item()
            if not np.isfinite(loss_value):
                raise NumericError(f"non-finite loss at epoch {epoch} batch {batch.index}")
            if loss_value > DIVERGENCE_LIMIT:
                raise NumericError(
                    f"training diverged (loss {loss_value:.3g}) at epoch {epoch} "
                    f"batch {batch.index}")
            epoch_losses.append(loss_value)
            epoch_records.extend(_records_from(task, pairs, times, labels, reality,
                                               outputs, scaler))
            grads = backward(loss, leaves=bundle.params.tensors())
            adam_step(bundle.params, grads, config.lr)
            state.detach_()
            bundle.encoder.process_batch(batch.events, state)
        loss_trace.append(epoch_losses)
        last_train_records = epoch_records

        val_records: list[PairRecord] = []
        counters = {"causality": 0}
        val_rng = np.random.default_rng((config.seed, 202, epoch))
        _run_split(bundle, state, universe, split.val.events, task, val_rng,
                   val_records, counters, scaler)
        val_metrics = metric_bundle(task, val_records)
        value = val_metrics.get(metric_name, float("nan"))
        val_trace.append(value)
        scored = direction * value if np.isfinite(value) else -np.inf
        if log_progress:
            log.info("epoch %d: mean loss %.4f, val %s %.4f", epoch,
                     float(np.mean(epoch_losses)), metric_name, value)
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
        train_metrics=metric_bundle(task, last_train_records),
        runtime_s=_time.perf_counter() - t_start,
    )


def split_trans_inductive(test_events, train_nodes: set[int]):
    """Links with both endpoints seen in training vs. both unseen; links
    mixing one seen and one unseen endpoint belong to neither view."""
    trans, ind = [], []
    for ev in test_events:
        a = ev.src in train_nodes
        b = ev.dst in train_nodes
        if a and b:
            trans.append(ev)
        elif not a and not b:
            ind.append(ev)
    return trans, ind


def _breakdown(records: Sequence[PairRecord], train_nodes: set[int], task: TaskKind):
    trans = [r for r in records if r.src in train_nodes and r.dst in train_nodes]
    ind = [r for r in records if r.src not in train_nodes and r.dst not in train_nodes]
    return metric_bundle(task, trans), metric_bundle(task, ind)


def evaluate_sequential(bundle: ModelBundle, split: DatasetSplit, which: str = "test",
                        neg_seed=None, collect_raw: bool = False,
                        breakdown: bool = False) -> EvalReport:
    """Online evaluation: warm the state on all pre-split events with frozen
    parameters, then predict/ingest split batches sequentially."""
    t_start = _time.perf_counter()
    if which == "val":
        prior, target = split.train.events, split.val.events
    elif which == "test":
        prior, target = split.train.events + split.val.events, split.test.events
    elif which == "train":
        prior, target = [], split.train.events
    else:
        raise ValueError(f"unknown split {which!r}")
    if not target:
        raise DataError(f"{which} split is empty")

    config = bundle.config
    checksum_before = bundle.params.checksum()
    state = bundle.new_state()
    universe = _Universe()
    with no_grad():
        for batch in batches(prior, config.batch_size):
            universe.extend_events(batch.events)
            bundle.encoder.process_batch(batch.events, state)
    if neg_seed is None:
        neg_seed = (config.seed, 303, 0 if which == "val" else 1)
    rng = np.random.default_rng(neg_seed)
    records: list[PairRecord] = []
    counters = {"causality": 0}
    _run_split(bundle, state, universe, target, config.task, rng, records, counters,
               _weight_scaler(config, split))
    params_frozen = bundle.params.checksum() == checksum_before

    trans = ind = None
    if breakdown:
        train_nodes = EventLog(split.train.events, split.train.node_count).nodes()
        trans, ind = _breakdown(records, train_nodes, config.task)

    return EvalReport(
        task=config.task.value,
        split=which,
        metrics=metric_bundle(config.task, records),
        transductive=trans,
        inductive=ind,
        n_real=sum(1 for r in records if r.is_real),
        n_negative=sum(1 for r in records if not r.is_real),
        causality_violations=counters["causality"],
        params_frozen=params_frozen,
        runtime_s=_time.perf_counter() - t_start,
        seed=config.seed,
        embedding_source=config.encoder_config().embedding_source,
        config=config.to_dict(),
        raw=records if collect_raw else None,
    )


ABLATION_VARIANTS = AblationConfig.NAMES


def run_ablation(base: TrainConfig, split: DatasetSplit | None = None,
                 variants=ABLATION_VARIANTS, which: str = "test"):
    """Train and evaluate each variant under identical seeds and splits."""
    if split is None:
        split = load_dataset(base)
    reports: dict[str, EvalReport] = {}
    for name in variants:
        config = replace(base, ablation=AblationConfig.from_name(name))
        result = train(config, split=split)
        bundle = build_model(result.config)
        bundle.params.load_values(result.params.copy_values())
        reports[name] = evaluate_sequential(bundle, split, which=which)
    return reports


def ablation_table(reports: dict[str, EvalReport]) -> str:
    """Consolidated CSV comparison across ablation variants."""
    metric_keys: list[str] = []
    for rep in reports.values():
        for key in rep.metrics:
            if key not in metric_keys:
                metric_keys.append(key)
    lines = ["variant,embedding_source," + ",".join(metric_keys)]
    for name, rep in reports.items():
        cells = [name, f"\"{rep.embedding_source}\""]
        for key in metric_keys:
            value = rep.metrics.get(key, "")
            if isinstance(value, float):
                cells.append("" if np.isnan(value) else f"{value:.6f}")
            else:
                cells.append(str(value))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"
