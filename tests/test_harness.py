import itertools
import weakref
from dataclasses import replace

import numpy as np
import pytest

import dysignet.tensor as T
from dysignet import harness
from dysignet.encoder import AblationConfig, EncoderModel
from dysignet.events import DatasetSplit, SignedEvent, chronological_split
from dysignet.harness import (
    Predictions,
    TrainConfig,
    build_model,
    evaluate_sequential,
    metric_bundle,
    resolve_time_scale,
    train,
)
from dysignet.heads import PairDecoder, TaskKind, task_loss
from dysignet.params import NumericError, adam_step
from dysignet.synthetic import generate_balanced_stream

from helpers import log_of, tiny_config
from oracles import split_trans_inductive


@pytest.fixture(scope="module")
def small_split():
    log, _ = generate_balanced_stream(n_nodes=30, n_events=400, seed=5)
    return chronological_split(log)


def _trained(small_split, task=TaskKind.SIGN, **overrides):
    base = dict(batch_size=50, max_epochs=2, patience=2)
    base.update(overrides)
    config = tiny_config(task=task, **base)
    result = train(config, split=small_split)
    bundle = build_model(result.config)
    bundle.params.load_values(result.params.copy_values())
    return result, bundle


def test_zero_lr_leaves_parameters_unchanged(small_split):
    config = tiny_config(lr=0.0, max_epochs=1, batch_size=50)
    before = build_model(resolve_time_scale(config, small_split)).params.copy_values()
    result = train(config, split=small_split)
    after = result.params.copy_values()
    assert set(before) == set(after)
    for name in before:
        assert np.array_equal(before[name], after[name])


@pytest.mark.parametrize("task, ablation",
                         [(TaskKind.SIGN, name) for name in AblationConfig.NAMES]
                         + [(task, "none") for task in TaskKind if task is not TaskKind.SIGN])
def test_model_math_runs_in_dtype_and_times_stay_float64(small_split, monkeypatch, task,
                                                         ablation):
    # one train batch and one eval batch: every tensor an op makes has
    # tensor.DTYPE, so no float64 scalar or array widened the model math
    made = set()
    result = T._result
    monkeypatch.setattr(T, "_result",
                        lambda data, *rest: made.add(data.dtype) or result(data, *rest))
    config = tiny_config(task=task, ablation=ablation, batch_size=50)
    bundle = build_model(config)
    state = bundle.new_state(small_split.train)
    online = harness._online(bundle, state, {}, small_split.train, np.random.default_rng(0),
                             None, {"causality": 0})
    outputs, targets, _ = next(online)
    _, seed = task_loss(task, outputs, targets)
    grads = T.backward(outputs, seed, leaves=bundle.params.tensors())
    assert {g.dtype for g in grads.values()} == {np.dtype(T.DTYPE)}
    adam_step(bundle.params, grads, config.lr)
    next(online)
    with T.no_grad():
        _, _, preds = next(online)
    assert made == {np.dtype(T.DTYPE)} and T.DTYPE == np.float32
    assert all(p.data.dtype == T.DTYPE for p in bundle.params.tensors())
    assert all(m.dtype == T.DTYPE for name in bundle.params.names()
               for m in bundle.params.moments(name))
    assert state.mem.dtype == T.DTYPE
    assert state.last_update.dtype == state.history.read(np.arange(2))[1].dtype == np.float64
    assert np.result_type(state.watermark) == np.float64 and state.watermark > 0
    assert preds.output.dtype == np.float64


def test_same_seed_identical_loss_traces(small_split):
    config = tiny_config(batch_size=50, max_epochs=3, patience=3)
    a = train(config, split=small_split)
    b = train(config, split=small_split)
    assert a.loss_trace == b.loss_trace
    assert a.val_trace == b.val_trace


def test_different_seed_changes_training(small_split):
    a = train(tiny_config(batch_size=50, max_epochs=1, seed=0), split=small_split)
    b = train(tiny_config(batch_size=50, max_epochs=1, seed=1), split=small_split)
    assert a.loss_trace != b.loss_trace


def test_train_frees_each_tape_before_the_batch_is_ingested(small_split, monkeypatch):
    """No scored batch's tape is alive while a batch is ingested, so two
    tapes never live at once and none lives through validation."""
    tapes, alive = [], []
    score_rows, process_batch = PairDecoder.score_rows, EncoderModel.process_batch

    def scored(decoder, *args):
        out = score_rows(decoder, *args)
        tapes.append(weakref.ref(out.data))
        return out

    def ingest(model, batch, state):
        alive.append(sum(ref() is not None for ref in tapes))
        return process_batch(model, batch, state)

    monkeypatch.setattr(PairDecoder, "score_rows", scored)
    monkeypatch.setattr(EncoderModel, "process_batch", ingest)
    train(tiny_config(batch_size=50, max_epochs=1), split=small_split)
    assert len(tapes) > 2 and len(alive) > 2 and not any(alive)


def test_epoch_state_is_emptied_before_validation_ingests(small_split, monkeypatch):
    """The epoch's arrays are freed before the validation state ingests its
    first batch, so one state at a time holds a pass's arrays, while the
    emptied epoch state itself lives on through validation."""
    states, arrays, seen = [], [], []
    process_batch = EncoderModel.process_batch

    def ingest(model, batch, state):
        if not states or states[-1]() is not state:
            if states:   # the first validation batch
                seen.append(([ref() is None for ref in arrays], states[0]() is not None))
            states.append(weakref.ref(state))
        process_batch(model, batch, state)
        if len(states) == 1:
            h = state.history
            arrays[:] = [weakref.ref(a) for a in (state.mem, state._fresh_row, h.perm, h.deg)]

    monkeypatch.setattr(EncoderModel, "process_batch", ingest)
    train(tiny_config(batch_size=50, max_epochs=1), split=small_split)
    assert len(states) == 2 and seen == [([True] * 4, True)]


def test_history_arrays_are_sized_once_per_pass(small_split, monkeypatch):
    """A train pass and an eval pass each make their state over the events
    they ingest, so no batch replaces the history arrays."""
    passes = []
    process_batch = EncoderModel.process_batch

    def ingest(model, batch, state):
        process_batch(model, batch, state)
        if not passes or passes[-1][0]() is not state:
            passes.append((weakref.ref(state), []))
        h = state.history
        passes[-1][1].append((h.perm, h.offsets, h.deg))

    monkeypatch.setattr(EncoderModel, "process_batch", ingest)
    train(tiny_config(batch_size=50, max_epochs=1), split=small_split)
    assert len(passes) == 2 and all(len(seen) > 4 for _, seen in passes)
    for _, seen in passes:
        assert all(a is b for arrays in seen for a, b in zip(arrays, seen[0]))
    # two rows per event: the train split, then everything up to the end of val
    assert [seen[0][0].size for _, seen in passes] == [
        2 * len(small_split.train), 2 * (len(small_split.train) + len(small_split.val))]


def test_history_values_hold_two_rows_per_ingested_event(small_split, monkeypatch):
    """After a pass, the rows that ``history.values()`` lists per node add
    up to two per ingested event: the bench's ``encoder.state.history_rows``
    counter reads them from the last state that ingested a batch."""
    last = {}
    process_batch = EncoderModel.process_batch

    def ingest(model, batch, state):
        last["state"] = state
        return process_batch(model, batch, state)

    monkeypatch.setattr(EncoderModel, "process_batch", ingest)
    evaluate_sequential(build_model(tiny_config(batch_size=50)), small_split, "test")
    state = last["state"]
    assert state.events_ingested == len(small_split.log)
    assert sum(len(rows) for rows in state.history.values()) == 2 * state.events_ingested


@pytest.mark.parametrize("task", [TaskKind.SIGN, TaskKind.EXISTENCE])
def test_negative_pool_is_built_only_for_tasks_that_sample(small_split, task):
    bundle = build_model(resolve_time_scale(tiny_config(task=task), small_split))
    universe = {}
    with T.no_grad():
        for _ in harness._online(bundle, bundle.new_state(small_split.train), universe,
                                 small_split.train, np.random.default_rng(0), None,
                                 {"causality": 0}):
            pass
    train_nodes = np.concatenate([small_split.train.src, small_split.train.dst])
    assert sorted(universe) == (sorted(set(train_nodes.tolist())) if task.needs_negatives
                                else [])


def test_divergence_aborts():
    log, _ = generate_balanced_stream(n_nodes=20, n_events=200, seed=6)
    split = chronological_split(log)
    config = tiny_config(task=TaskKind.SIGNED_WEIGHT, batch_size=20,
                         lr=1e12, max_epochs=3, patience=3)
    with pytest.raises(NumericError):
        train(config, split=split)


def test_early_stopping_returns_best_epoch_params(small_split):
    config = tiny_config(batch_size=50, max_epochs=6, patience=2, lr=0.05)
    result = train(config, split=small_split)
    assert result.best_epoch <= result.epochs_run - 1
    # the returned parameters reproduce the best validation value exactly
    bundle = build_model(result.config)
    bundle.params.load_values(result.params.copy_values())
    rep = evaluate_sequential(bundle, small_split, which="val",
                              neg_seed=(config.seed, 202, result.best_epoch))
    assert rep.metrics["auroc"] == pytest.approx(result.val_trace[result.best_epoch],
                                                 abs=1e-9)


def test_evaluation_freezes_parameters_and_counts_violations(small_split):
    _, bundle = _trained(small_split)
    report = evaluate_sequential(bundle, small_split, which="test")
    assert report.params_frozen
    assert report.causality_violations == 0
    assert report.n_real == len(small_split.test.events)
    assert report.n_negative == 0  # sign task consumes no negatives


def test_evaluation_deterministic_replay(small_split):
    _, bundle = _trained(small_split, task=TaskKind.EXISTENCE)
    a = evaluate_sequential(bundle, small_split, which="test", neg_seed=123)
    b = evaluate_sequential(bundle, small_split, which="test", neg_seed=123)
    assert a.metrics == b.metrics
    for name in ("src", "dst", "time", "output", "label", "is_real"):
        x, y = getattr(a.raw, name), getattr(b.raw, name)
        assert x.dtype == y.dtype and x.shape == y.shape
        assert x.tobytes() == y.tobytes()


def test_replay_consistency_with_frozen_parameters(small_split):
    # at lr=0 the parameters never move, so training-time predictions and a
    # frozen sequential evaluation of the train split must coincide
    config = tiny_config(task=TaskKind.EXISTENCE, batch_size=50, lr=0.0,
                         max_epochs=1, patience=1)
    result = train(config, split=small_split)
    bundle = build_model(result.config)
    bundle.params.load_values(result.params.copy_values())
    rep = evaluate_sequential(bundle, small_split, which="train",
                              neg_seed=(config.seed, 101, 0))
    for key in ("f1", "auroc"):
        assert rep.metrics[key] == pytest.approx(result.train_metrics[key], abs=1e-9)


def _changed_from(split, which, k, batch_size, delete):
    """``split`` with every event of part ``which`` from its batch ``k`` on
    sign-flipped and scaled by 3, and, if ``delete``, the events of its
    batches after ``k`` removed."""
    start, stop = split.bounds(which)
    end = start + (k + 1) * batch_size
    weight = split.log.weight.copy()
    weight[start + k * batch_size:stop] *= -3.0
    log, cuts = replace(split.log, weight=weight), split.cuts
    if delete:
        keep = np.r_[0:end, stop:len(log)]
        log = replace(log, **{c: getattr(log, c)[keep] for c in ("time", "src", "dst", "weight")})
        cuts = tuple(c - (stop - end) if c >= stop else c for c in cuts)
    return DatasetSplit(log, cuts, split.fractions)


@pytest.mark.parametrize("task", [TaskKind.SIGN, TaskKind.EXISTENCE])
def test_predictions_ignore_changes_from_the_scored_batch_on(small_split, task, monkeypatch):
    """Metamorphic leakage check: changing the events of batches >= k and
    then deleting those of batches > k leaves the outputs of every pair
    scored in batches <= k bit-identical, in the first training epoch and in
    sequential evaluation.  Pairs of batch k are scored before it is
    ingested, so its changed weights must not reach its own outputs."""
    batch_size = 10
    config = tiny_config(task=task, batch_size=batch_size, max_epochs=1, patience=1)
    bundle = build_model(config)
    recorded = []
    online = harness._online

    def recording(*args):
        for item in online(*args):
            recorded.append(item[2])
            yield item

    monkeypatch.setattr(harness, "_online", recording)

    def scored(split, which):
        recorded.clear()
        if which == "train":   # the epoch's batches come before validation's
            train(config, split=split)
            return recorded[:-(-len(split.train) // batch_size)]
        evaluate_sequential(bundle, split, which)
        return list(recorded)

    for which in ("train", "test"):
        before = scored(small_split, which)
        assert len(before) >= 6
        for k in (0, 2, 4):
            for delete in (False, True):
                after = scored(_changed_from(small_split, which, k, batch_size, delete), which)
                assert len(after) == (k + 1 if delete else len(before))
                for old, new in zip(before[:k + 1], after):
                    assert np.array_equal(old.src, new.src) and np.array_equal(old.dst, new.dst)
                    assert old.output.tobytes() == new.output.tobytes()
                if task is TaskKind.SIGN:
                    assert np.array_equal(after[k].label, 1.0 - before[k].label)
                if not delete:   # the change does reach the later batches
                    assert not np.array_equal(after[k + 1].output, before[k + 1].output)


def test_within_batch_permutation_invariance():
    # tie-free times: predictions precede ingestion and aggregation keys on
    # time, so shuffling events inside one batch changes nothing downstream
    log, _ = generate_balanced_stream(n_nodes=20, n_events=120, seed=7)
    split = chronological_split(log)
    config = tiny_config(batch_size=20, max_epochs=1, patience=1)
    result = train(config, split=split)
    bundle = build_model(result.config)
    bundle.params.load_values(result.params.copy_values())

    base = evaluate_sequential(bundle, split, which="test")

    events = list(split.test.events)
    rng = np.random.default_rng(0)
    mid = events[20:40]
    rng.shuffle(mid)
    shuffled = events[:20] + mid + events[40:]
    shuffled_split = chronological_split(
        log_of(split.train.events + split.val.events + shuffled, split.train.node_count))
    other = evaluate_sequential(bundle, shuffled_split, which="test")

    def by_pair(raw):
        return {key: out for key, out in zip(
            zip(raw.src.tolist(), raw.dst.tolist(), raw.time.tolist()), raw.output)}

    base_out = by_pair(base.raw)
    for key, out in by_pair(other.raw).items():
        assert np.allclose(base_out[key], out, atol=1e-12)


def test_single_batch_split_predicts_before_ingesting(small_split):
    _, bundle = _trained(small_split)
    report = evaluate_sequential(bundle, small_split, which="test")
    assert report.causality_violations == 0


def test_split_trans_inductive_set_algebra():
    events = [SignedEvent(float(i), u, v, 1.0)
              for i, (u, v) in enumerate([(0, 1), (0, 5), (5, 6), (1, 2), (6, 0)])]
    train_nodes = {0, 1, 2, 3}
    trans, ind = split_trans_inductive(events, train_nodes)
    assert [(e.src, e.dst) for e in trans] == [(0, 1), (1, 2)]
    assert [(e.src, e.dst) for e in ind] == [(5, 6)]
    # views are disjoint and contained in the input
    assert set(trans).isdisjoint(ind)
    assert set(trans) | set(ind) <= set(events)


def test_split_trans_inductive_all_seen():
    events = [SignedEvent(1.0, 0, 1, 1.0)]
    trans, ind = split_trans_inductive(events, {0, 1})
    assert len(trans) == 1 and ind == []


def test_breakdown_views_in_report(small_split):
    _, bundle = _trained(small_split, task=TaskKind.SIGNED_EXISTENCE)
    report = evaluate_sequential(bundle, small_split, which="test", breakdown=True)
    assert report.transductive is not None and report.inductive is not None
    total = report.transductive["n"] + report.inductive["n"]
    assert total <= report.metrics["n"]
    # the views count the scored pairs, negatives included, that the
    # per-event rule puts in each
    raw = report.raw
    pairs = [SignedEvent(t, u, v, 1.0) for t, u, v in
             zip(raw.time.tolist(), raw.src.tolist(), raw.dst.tolist())]
    train_nodes = {n for ev in small_split.train.events for n in (ev.src, ev.dst)}
    trans, ind = split_trans_inductive(pairs, train_nodes)
    assert (report.transductive["n"], report.inductive["n"]) == (len(trans), len(ind))


def test_metric_bundle_keys_per_task(small_split):
    for task, keys in [
        (TaskKind.EXISTENCE, {"n", "f1", "auroc"}),
        (TaskKind.SIGN, {"n", "f1", "auroc"}),
        (TaskKind.SIGNED_EXISTENCE, {"n", "f1_weighted", "f1_macro", "accuracy"}),
        (TaskKind.SIGNED_WEIGHT, {"n", "rmse", "r2", "kl_div", "r2_defined"}),
    ]:
        _, bundle = _trained(small_split, task=task, max_epochs=1, patience=1)
        report = evaluate_sequential(bundle, small_split, which="test")
        assert set(report.metrics) == keys


def test_predictions_select_and_concat(small_split):
    _, bundle = _trained(small_split, task=TaskKind.EXISTENCE, max_epochs=1, patience=1)
    raw = evaluate_sequential(bundle, small_split, which="test").raw
    assert raw.output.shape == (len(raw), 1)
    half = len(raw) // 2
    again = Predictions.concat([raw[:half], raw[half:]])
    for name in ("src", "dst", "time", "output", "label", "is_real"):
        assert getattr(again, name).tobytes() == getattr(raw, name).tobytes()
    assert metric_bundle(TaskKind.EXISTENCE, again) == metric_bundle(TaskKind.EXISTENCE, raw)
    real = raw[raw.is_real]
    assert len(real) == len(small_split.test.events)
    assert real.label.tolist() == [1.0] * len(real)
    assert metric_bundle(TaskKind.EXISTENCE, raw[np.zeros(len(raw), dtype=bool)]) == {"n": 0}


def test_negatives_only_for_tasks_that_need_them(small_split):
    for task, has_neg in [(TaskKind.EXISTENCE, True), (TaskKind.SIGN, False),
                          (TaskKind.SIGNED_EXISTENCE, True), (TaskKind.SIGNED_WEIGHT, False)]:
        _, bundle = _trained(small_split, task=task, max_epochs=1, patience=1)
        report = evaluate_sequential(bundle, small_split, which="test")
        assert (report.n_negative > 0) == has_neg
        if has_neg:
            assert report.n_negative == report.n_real


def test_eval_report_serializable(small_split):
    _, bundle = _trained(small_split)
    report = evaluate_sequential(bundle, small_split, which="test", breakdown=True)
    import json
    doc = json.dumps(report.to_dict())
    assert "auroc" in doc


def test_report_includes_resolved_time_scale(small_split):
    config = tiny_config(batch_size=50, max_epochs=1, time_scale=None)
    result = train(config, split=small_split)
    assert result.config.time_scale is not None
    span = small_split.train.events[-1].time - small_split.train.events[0].time
    assert result.config.time_scale == pytest.approx(1.0 / np.log1p(span))


CONFIG_ERRORS = {
    "max_epochs": "max_epochs must be >= 1 and patience >= 0",
    "patience": "max_epochs must be >= 1 and patience >= 0",
    "neighbor_cap": "neighbor_cap must be None or >= 1",
    "lr": "lr must be finite and >= 0",
    "split_fractions": "split_fractions must be three fractions > 0 that sum to 1",
    "time_scale": "time_scale must be None or finite and > 0",
}


@pytest.mark.parametrize("bad", [
    dict(max_epochs=0), dict(max_epochs=-3), dict(patience=-1),
    dict(neighbor_cap=0), dict(neighbor_cap=-1),
    dict(lr=float("nan")), dict(lr=float("inf")), dict(lr=-1e-3),
    dict(split_fractions=(0.5, 0.2, 0.2)), dict(split_fractions=(0.8, -0.1, 0.3)),
    dict(split_fractions=(1.0, 0.0, 0.0)), dict(split_fractions=(0.5, 0.5)),
    dict(time_scale=float("nan")), dict(time_scale=float("inf")), dict(time_scale=0.0),
    dict(time_scale=-1.0),
])
def test_config_rejects_no_epochs_and_negative_patience(bad):
    (name,) = bad
    with pytest.raises(ValueError, match=CONFIG_ERRORS[name]):
        tiny_config(**bad)
    # the smallest valid values
    tiny_config(max_epochs=1, patience=0, neighbor_cap=1, lr=0.0,
                split_fractions=(0.98, 0.01, 0.01))


def test_config_roundtrip_through_dict():
    config = tiny_config(task=TaskKind.SIGNED_EXISTENCE, ablation="emb")
    again = TrainConfig.from_dict(config.to_dict())
    assert again == config


@pytest.mark.parametrize("flags", list(itertools.product((True, False), repeat=3)))
def test_every_ablation_combination_roundtrips_by_name(flags):
    # flags keep (balanced aggregation, embedding layer, memory); the paper's
    # variants drop at most one, and a name dropping two or three is rejected
    name = "+".join(p for p, on in zip(("ba", "emb", "mem"), flags) if not on) or "none"
    if flags.count(False) > 1:
        with pytest.raises(ValueError, match="unknown ablation"):
            AblationConfig.from_name(name)
        return
    ablation = AblationConfig.from_name(name)
    assert (ablation.balanced_aggregation, ablation.use_embedding_layer,
            ablation.use_memory) == flags
    config = replace(tiny_config(), ablation=ablation)
    assert config.to_dict()["ablation"] == name
    assert TrainConfig.from_dict(config.to_dict()) == config


def test_ablation_names_are_canonical():
    assert AblationConfig.NAMES == ("none", "ba", "emb", "mem")
    assert [AblationConfig.from_name(n).name for n in AblationConfig.NAMES] == list(
        AblationConfig.NAMES)
    assert list(AblationConfig) == [AblationConfig.from_name(n) for n in AblationConfig.NAMES]
    assert TrainConfig().ablation is AblationConfig.from_name("none")
    for bad in ("custom", "ba+ba", "none+ba", "ba+", "", "NONE", "Ba"):
        with pytest.raises(ValueError, match="unknown ablation"):
            AblationConfig.from_name(bad)


def test_weight_standardization_keeps_raw_units(small_split):
    raw = tiny_config(task=TaskKind.SIGNED_WEIGHT, batch_size=50, max_epochs=1)
    std = tiny_config(task=TaskKind.SIGNED_WEIGHT, batch_size=50, max_epochs=1,
                      standardize_weights=True)
    reports = {}
    for config in (raw, std):
        result = train(config, split=small_split)
        bundle = build_model(result.config)
        bundle.params.load_values(result.params.copy_values())
        rep = evaluate_sequential(bundle, small_split, which="test")
        reports[config.standardize_weights] = rep
        # labels are always raw weights, whatever the training scale
        assert rep.raw.label.tolist() == [ev.weight for ev in small_split.test.events]
        assert np.isfinite(rep.metrics["rmse"])
    # the flag changes the learned predictor
    assert not np.allclose(reports[False].raw.output, reports[True].raw.output)


def test_empty_split_rejected(small_split):
    _, bundle = _trained(small_split)
    from dysignet.events import DataError, DatasetSplit
    n = len(small_split.log)
    bad = DatasetSplit(small_split.log.slice(0, n - 20), (n - 40, n - 20), (0.7, 0.15, 0.15))
    assert len(bad.test) == 0
    with pytest.raises(DataError):
        evaluate_sequential(bundle, bad, which="test")
