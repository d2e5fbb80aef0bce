"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criteria 1 and 5 need the downloaded trust-network CSVs (see README and
scripts/fetch_datasets.py); they skip with an explicit message when the
files are absent.  Everything else runs self-contained.
"""

import os
import time
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import dysignet.tensor as T
from dysignet.encoder import AblationConfig
from dysignet.events import batches, chronological_split, compute_stats, parse_csv
from dysignet.harness import (
    TrainConfig,
    build_model,
    evaluate_sequential,
    split_trans_inductive,
    train,
)
from dysignet.heads import TaskKind, task_loss
from dysignet.layers import Feedforward, MultiHeadAttention, RecurrentCell
from dysignet.metrics import auroc, f1_binary, f1_multiclass, regression_metrics
from dysignet.params import ParameterSet
from dysignet.synthetic import generate_balanced_stream
from dysignet.tensor import Tensor

from helpers import max_grad_error, tiny_config
import test_encoder
import test_layers

DATA_DIR = Path(os.environ.get("DYSIGNET_DATA",
                               Path(__file__).resolve().parent.parent / "data"))


def _dataset_path(stem: str) -> Path:
    for suffix in (".csv.gz", ".csv"):
        path = DATA_DIR / f"{stem}{suffix}"
        if path.exists():
            return path
    pytest.skip(f"{stem} not found under {DATA_DIR}; run scripts/fetch_datasets.py "
                "on a networked machine and re-run")


@contextmanager
def criterion(number: int, name: str):
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {number} ({name}): FAIL")
        raise
    print(f"ACCEPTANCE {number} ({name}): PASS")


# ---------------------------------------------------------------------------
# 1. dataset statistics against the published table


@pytest.mark.dataset
@pytest.mark.parametrize("stem,nodes,links,f_plus,f_ub", [
    ("soc-sign-bitcoinotc", 5900, 21500, 0.89, 0.13),
    ("soc-sign-bitcoinalpha", 3800, 14100, 0.85, 0.14),
])
def test_criterion_1_dataset_statistics(stem, nodes, links, f_plus, f_ub):
    path = _dataset_path(stem)
    with criterion(1, f"dataset statistics: {stem}"):
        start = time.perf_counter()
        stats = compute_stats(parse_csv(path))
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"stats took {elapsed:.1f}s"
        assert abs(stats.node_count - nodes) <= 0.01 * nodes, stats.node_count
        assert abs(stats.link_count - links) <= 0.01 * links, stats.link_count
        assert abs(stats.f_plus - f_plus) <= 0.01, stats.f_plus
        assert abs(stats.f_ub - f_ub) <= 0.03, stats.f_ub


# ---------------------------------------------------------------------------
# 2. finite-difference gradient suite


def test_criterion_2_gradient_suite():
    with criterion(2, "finite-difference gradient suite"):
        start = time.perf_counter()
        rng = np.random.default_rng(0)
        tol = 1e-4

        ps = ParameterSet()
        ffn = Feedforward(ps, "ffn", 4, 3, rng=rng)
        x = Tensor(rng.normal(size=4))
        w = Tensor(rng.normal(size=3))
        assert max_grad_error(lambda: T.tsum(T.mul(ffn.apply(x), w)), ps) < tol

        ps = ParameterSet()
        cell = RecurrentCell(ps, "cell", 3, 4, rng=rng)
        xi, si = Tensor(rng.normal(size=3)), Tensor(rng.normal(size=4))
        wc = Tensor(rng.normal(size=4))
        assert max_grad_error(lambda: T.tsum(T.mul(cell.apply(xi, si), wc)), ps) < tol

        ps = ParameterSet()
        att = MultiHeadAttention(ps, "att", 4, 4, 2, key_dim=5, value_dim=5, rng=rng)
        q, kv = Tensor(rng.normal(size=(1, 4))), Tensor(rng.normal(size=(3, 5)))
        wa = Tensor(rng.normal(size=4))

        def att_loss():
            out, _ = att.apply(q, kv, kv, np.zeros(3, dtype=np.intp))
            return T.tsum(T.mul(out, wa))

        assert max_grad_error(att_loss, ps) < tol

        # full pipeline on a two-event stream: two chained memory steps,
        # attention over history, decoder, binary loss
        config = tiny_config(task=TaskKind.EXISTENCE, seed=1)
        bundle = build_model(config)
        from dysignet.events import SignedEvent
        e1 = SignedEvent(1.0, 0, 1, 2.0)
        e2 = SignedEvent(2.0, 1, 2, -1.0)
        labels = np.array([1.0, 0.0])

        def full_loss():
            state = bundle.new_state()
            bundle.encoder.process_batch([e1], state)
            bundle.encoder.process_batch([e2], state)
            z, index = bundle.encoder.compute_embeddings([0, 1, 2], 3.0, state)
            out = bundle.decoder.score_rows(z, index, [(0, 1), (2, 0)])
            return task_loss(TaskKind.EXISTENCE, out, labels)

        assert max_grad_error(full_loss, bundle.params) < tol
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"gradient suite took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# 3. randomized property suite (>= 1000 cases over six properties)


def test_criterion_3_property_suite():
    with criterion(3, "balance-routing property suite, >=1200 randomized cases"):
        test_encoder.test_routing_law_property()                  # 200 cases
        test_encoder.test_polarity_isolation_property()           # 200 cases
        test_encoder.test_most_recent_aggregation_property()      # 200 cases
        test_encoder.test_embedding_empty_history_property()      # 200 cases
        test_layers.test_attention_weights_normalized()           # 200 cases
        test_encoder.test_ba_ablation_single_memory_per_node()    # 200 cases


# ---------------------------------------------------------------------------
# 4. constructive synthetic oracle


def test_criterion_4_constructive_synthetic_oracle():
    with criterion(4, "balance-governed stream: full model >0.95 and beats -BA"):
        start = time.perf_counter()
        log, _ = generate_balanced_stream(n_nodes=500, n_events=6000, seed=11)
        split = chronological_split(log)
        base = TrainConfig(
            task=TaskKind.SIGN, batch_size=200, embedding_dim=32, memory_dim=16,
            heads=4, feature_dim=8, neighbor_cap=32, lr=3e-3, max_epochs=20,
            patience=5, seed=0)

        results = {}
        for name in ("none", "ba"):
            config = TrainConfig(**{**base.__dict__,
                                    "ablation": AblationConfig.from_name(name)})
            trained = train(config, split=split)
            bundle = build_model(trained.config)
            bundle.params.load_values(trained.params.copy_values())
            report = evaluate_sequential(bundle, split, which="test")
            results[name] = report.metrics["auroc"]
            assert trained.epochs_run <= 20

        elapsed = time.perf_counter() - start
        print(f"  full AUROC {results['none']:.4f}, -BA AUROC {results['ba']:.4f}, "
              f"{elapsed:.0f}s")
        assert results["none"] > 0.95, results
        assert results["none"] > results["ba"], results
        assert elapsed < 600.0, f"synthetic oracle took {elapsed:.0f}s"


# ---------------------------------------------------------------------------
# 5. desk-scale reproduction floors on BTC-Alpha


@pytest.mark.dataset
@pytest.mark.slow
@pytest.mark.parametrize("task,metric,floor,direction", [
    (TaskKind.EXISTENCE, "auroc", 0.90, 1),
    (TaskKind.SIGN, "auroc", 0.65, 1),
    (TaskKind.SIGNED_EXISTENCE, "f1_weighted", 0.75, 1),
    (TaskKind.SIGNED_WEIGHT, "rmse", 2.2, -1),
])
def test_criterion_5_btc_alpha_floors(task, metric, floor, direction):
    path = _dataset_path("soc-sign-bitcoinalpha")
    with criterion(5, f"btc-alpha {task.value}: {metric} floor {floor}"):
        start = time.perf_counter()
        config = TrainConfig(
            dataset=str(path), task=task, batch_size=1000, embedding_dim=64,
            memory_dim=32, heads=8, feature_dim=8, neighbor_cap=128,
            lr=1e-3, max_epochs=50, patience=5, seed=0)
        split = chronological_split(parse_csv(path))
        trained = train(config, split=split)
        bundle = build_model(trained.config)
        bundle.params.load_values(trained.params.copy_values())
        report = evaluate_sequential(bundle, split, which="test")
        elapsed = time.perf_counter() - start
        value = report.metrics[metric]
        print(f"  {task.value}: {metric}={value:.4f} ({elapsed:.0f}s)")
        if direction > 0:
            assert value >= floor, report.metrics
        else:
            assert value <= floor, report.metrics
        assert elapsed < 7200.0


# ---------------------------------------------------------------------------
# 6. protocol checks


def test_criterion_6_protocol_checks():
    with criterion(6, "causality, parameter freeze, trans/inductive views"):
        log, _ = generate_balanced_stream(n_nodes=40, n_events=600, seed=13)
        split = chronological_split(log)
        config = tiny_config(task=TaskKind.SIGNED_EXISTENCE, batch_size=64,
                             max_epochs=2, patience=2)
        trained = train(config, split=split)
        bundle = build_model(trained.config)
        bundle.params.load_values(trained.params.copy_values())

        checksum_before = bundle.params.checksum()
        report = evaluate_sequential(bundle, split, which="test",
                                     breakdown=True, collect_raw=True)
        assert report.causality_violations == 0
        assert report.params_frozen
        assert bundle.params.checksum() == checksum_before

        train_nodes = {n for ev in split.train.events for n in (ev.src, ev.dst)}
        trans, ind = split_trans_inductive(split.test.events, train_nodes)
        # views are disjoint, contained in the test split, correctly classified
        assert set(trans).isdisjoint(ind)
        assert set(trans) | set(ind) <= set(split.test.events)
        for ev in trans:
            assert ev.src in train_nodes and ev.dst in train_nodes
        for ev in ind:
            assert ev.src not in train_nodes and ev.dst not in train_nodes
        for ev in set(split.test.events) - set(trans) - set(ind):
            assert (ev.src in train_nodes) != (ev.dst in train_nodes)


# ---------------------------------------------------------------------------
# 7. metric brute-force oracles


def test_criterion_7_metric_oracles():
    with criterion(7, "metric implementations match brute-force references"):
        rng = np.random.default_rng(17)
        n = 50

        scores = np.round(rng.random(n), 2)  # coarse grid forces ties
        labels = rng.integers(0, 2, size=n)

        pred = scores >= 0.5
        tp = np.sum(pred & (labels == 1))
        fp = np.sum(pred & (labels == 0))
        fn = np.sum(~pred & (labels == 1))
        f1_ref = 2 * tp / (2 * tp + fp + fn)
        assert abs(f1_binary(scores, labels) - f1_ref) < 1e-9

        wins = Fraction(0)
        for sp in scores[labels == 1]:
            for sn in scores[labels == 0]:
                if sp > sn:
                    wins += 1
                elif sp == sn:
                    wins += Fraction(1, 2)
        auroc_ref = wins / (int((labels == 1).sum()) * int((labels == 0).sum()))
        assert abs(auroc(scores, labels) - float(auroc_ref)) < 1e-12

        probs = rng.random((n, 3))
        probs /= probs.sum(axis=1, keepdims=True)
        labels3 = rng.integers(0, 3, size=n)
        pred3 = probs.argmax(axis=1)
        f1s, sup = [], []
        for c in range(3):
            tp = np.sum((pred3 == c) & (labels3 == c))
            fp = np.sum((pred3 == c) & (labels3 != c))
            fn = np.sum((pred3 != c) & (labels3 == c))
            f1s.append(2 * tp / (2 * tp + fp + fn) if (2 * tp + fp + fn) else 0.0)
            sup.append(np.sum(labels3 == c))
        f1s, sup = np.array(f1s), np.array(sup)
        assert abs(f1_multiclass(probs, labels3, "macro") - f1s.mean()) < 1e-9
        assert abs(f1_multiclass(probs, labels3, "weighted")
                   - (f1s * sup).sum() / sup.sum()) < 1e-9
        assert abs(f1_multiclass(probs, labels3, "micro")
                   - np.mean(pred3 == labels3)) < 1e-9

        targets = rng.integers(-10, 11, size=n).astype(float)
        preds = targets + rng.normal(size=n) * 2
        reg = regression_metrics(preds, targets)
        assert abs(reg.rmse - np.sqrt(np.mean((preds - targets) ** 2))) < 1e-9
        ss_res = np.sum((targets - preds) ** 2)
        ss_tot = np.sum((targets - targets.mean()) ** 2)
        assert abs(reg.r2 - (1 - ss_res / ss_tot)) < 1e-9

        lo = int(min(np.rint(preds).min(), np.rint(targets).min()))
        hi = int(max(np.rint(preds).max(), np.rint(targets).max()))
        eps = 1e-6
        bins = np.arange(lo, hi + 1)
        a = np.array([(np.rint(targets) == b).sum() for b in bins], float)
        q = np.array([(np.rint(preds) == b).sum() for b in bins], float)
        a = (a + eps) / (a.sum() + eps * a.size)
        q = (q + eps) / (q.sum() + eps * q.size)
        assert abs(reg.kl_div - np.sum(a * np.log(a / q))) < 1e-9
