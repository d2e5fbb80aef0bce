import itertools
from dataclasses import replace

import numpy as np
import pytest

from dysignet.encoder import AblationConfig
from dysignet.events import EventLog, SignedEvent, chronological_split
from dysignet.harness import (
    TrainConfig,
    ablation_table,
    build_model,
    evaluate_sequential,
    metric_bundle,
    resolve_time_scale,
    run_ablation,
    split_trans_inductive,
    train,
)
from dysignet.heads import TaskKind
from dysignet.params import NumericError
from dysignet.synthetic import generate_balanced_stream

from helpers import tiny_config


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
    a = evaluate_sequential(bundle, small_split, which="test", neg_seed=123, collect_raw=True)
    b = evaluate_sequential(bundle, small_split, which="test", neg_seed=123, collect_raw=True)
    assert a.metrics == b.metrics
    assert a.raw == b.raw


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


def test_within_batch_permutation_invariance():
    # tie-free times: predictions precede ingestion and aggregation keys on
    # time, so shuffling events inside one batch changes nothing downstream
    log, _ = generate_balanced_stream(n_nodes=20, n_events=120, seed=7)
    split = chronological_split(log)
    config = tiny_config(batch_size=20, max_epochs=1, patience=1)
    result = train(config, split=split)
    bundle = build_model(result.config)
    bundle.params.load_values(result.params.copy_values())

    base = evaluate_sequential(bundle, split, which="test", collect_raw=True)

    events = list(split.test.events)
    rng = np.random.default_rng(0)
    mid = events[20:40]
    rng.shuffle(mid)
    shuffled = events[:20] + mid + events[40:]
    shuffled_split = chronological_split(
        EventLog(split.train.events + split.val.events + shuffled,
                 split.train.node_count, split.train.id_map))
    other = evaluate_sequential(bundle, shuffled_split, which="test", collect_raw=True)

    by_pair = {(r.src, r.dst, r.time): r.output for r in base.raw}
    for r in other.raw:
        assert np.allclose(by_pair[(r.src, r.dst, r.time)], r.output, atol=1e-12)


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


def test_negatives_only_for_tasks_that_need_them(small_split):
    for task, has_neg in [(TaskKind.EXISTENCE, True), (TaskKind.SIGN, False),
                          (TaskKind.SIGNED_EXISTENCE, True), (TaskKind.SIGNED_WEIGHT, False)]:
        _, bundle = _trained(small_split, task=task, max_epochs=1, patience=1)
        report = evaluate_sequential(bundle, small_split, which="test")
        assert (report.n_negative > 0) == has_neg
        if has_neg:
            assert report.n_negative == report.n_real


def test_run_ablation_structure():
    log, _ = generate_balanced_stream(n_nodes=20, n_events=160, seed=8)
    split = chronological_split(log)
    base = tiny_config(task=TaskKind.SIGNED_EXISTENCE, batch_size=40,
                       max_epochs=1, patience=1)
    reports = run_ablation(base, split=split)
    assert list(reports) == ["none", "ba", "emb", "mem"]
    assert reports["emb"].embedding_source == "concatenated memories"
    assert reports["mem"].embedding_source == "attention over raw features"
    for rep in reports.values():
        assert rep.seed == base.seed
        assert rep.params_frozen

    table = ablation_table(reports)
    lines = table.strip().split("\n")
    assert lines[0].startswith("variant,embedding_source,")
    assert len(lines) == 5


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


def test_config_roundtrip_through_dict():
    config = tiny_config(task=TaskKind.SIGNED_EXISTENCE, ablation="emb")
    again = TrainConfig.from_dict(config.to_dict())
    assert again == config


@pytest.mark.parametrize("flags", list(itertools.product((True, False), repeat=3)))
def test_every_ablation_combination_roundtrips_by_name(flags):
    ablation = AblationConfig(*flags)
    assert AblationConfig.from_name(ablation.name) == ablation
    config = replace(tiny_config(), ablation=ablation)
    assert TrainConfig.from_dict(config.to_dict()) == config


def test_ablation_names_are_canonical():
    assert AblationConfig(balanced_aggregation=False, use_memory=False).name == "ba+mem"
    assert [AblationConfig.from_name(n).name for n in AblationConfig.NAMES] == list(
        AblationConfig.NAMES)
    for bad in ("custom", "ba+ba", "none+ba", "ba+", ""):
        with pytest.raises(ValueError):
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
        rep = evaluate_sequential(bundle, small_split, which="test", collect_raw=True)
        reports[config.standardize_weights] = rep
        # labels are always raw weights, whatever the training scale
        for r, ev in zip(rep.raw, small_split.test.events):
            assert r.label == ev.weight
        assert np.isfinite(rep.metrics["rmse"])
    # the flag changes the learned predictor
    a = [r.output[0] for r in reports[False].raw]
    b = [r.output[0] for r in reports[True].raw]
    assert not np.allclose(a, b)


def test_empty_split_rejected(small_split):
    _, bundle = _trained(small_split)
    from dysignet.events import DataError, DatasetSplit
    bad = DatasetSplit(small_split.train, small_split.val,
                       EventLog([], small_split.train.node_count), (0.7, 0.15, 0.15))
    with pytest.raises(DataError):
        evaluate_sequential(bundle, bad, which="test")
