import csv
import json
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from dysignet.cli import main, read_config_file
from dysignet.encoder import AblationConfig
from dysignet.events import compute_stats, parse_csv
from dysignet.harness import TrainConfig
from dysignet.heads import TaskKind
from dysignet.metrics import auroc, f1_binary, kl_divergence_hist
from dysignet.synthetic import generate_balanced_stream


@pytest.fixture(autouse=True)
def out_root(tmp_path, monkeypatch):
    monkeypatch.setenv("DYSIGNET_OUT", str(tmp_path / "runs"))
    return tmp_path


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "stream.csv"
    log, _ = generate_balanced_stream(n_nodes=24, n_events=300, seed=9)
    log.write_csv(path)
    return str(path)


def _config_file(tmp_path, dataset, **extra):
    lines = ["[run]", f"dataset = {dataset}", "task = sign",
             "[model]", "embedding_dim = 8", "memory_dim = 4", "heads = 2",
             "feature_dim = 2", "neighbor_cap = 16",
             "[train]", "batch_size = 50", "lr = 0.01", "max_epochs = 1",
             "patience = 1", "seed = 0"]
    for k, v in extra.items():
        lines.append(f"{k} = {v}")
    path = tmp_path / "run.ini"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def test_stats_command_matches_library(dataset, tmp_path, capsys):
    out = tmp_path / "statsout"
    assert main(["stats", "--dataset", dataset, "--out", str(out)]) == 0
    doc = json.loads((out / "stats.json").read_text())
    expected = compute_stats(parse_csv(dataset)).to_dict()
    assert doc == json.loads(json.dumps(expected))
    assert (out / "manifest.json").exists()
    printed = json.loads(capsys.readouterr().out)
    assert printed == doc


def test_stats_single_edge_file(tmp_path, capsys):
    path = tmp_path / "one.csv"
    path.write_text("a,b,-3,5\n")
    assert main(["stats", "--dataset", str(path), "--out", str(tmp_path / "o")]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["f_plus"] in (0.0, 1.0)
    assert doc["has_triangles"] is False


def test_stats_missing_dataset_exits_2(tmp_path, capsys):
    assert main(["stats", "--dataset", str(tmp_path / "nope.csv"),
                 "--out", str(tmp_path / "o")]) == 2


def test_stats_nonfinite_only_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,1,inf\nb,c,nan,5\n")
    assert main(["stats", "--dataset", str(path), "--out", str(tmp_path / "o")]) == 2
    assert "Traceback" not in capsys.readouterr().err


def test_config_file_sets_every_field(tmp_path):
    config = TrainConfig(
        dataset="x.csv", task=TaskKind.SIGNED_WEIGHT, batch_size=7, embedding_dim=12,
        memory_dim=3, heads=3, feature_dim=5, neighbor_cap=9, time_scale=0.5, lr=0.02,
        max_epochs=4, patience=3, seed=11, ablation=AblationConfig.from_name("ba"),
        split_fractions=(0.6, 0.25, 0.15), standardize_weights=True)
    defaults = TrainConfig()
    assert all(getattr(config, f.name) != getattr(defaults, f.name)
               for f in fields(TrainConfig))
    assert TrainConfig.from_dict(config.to_dict()) == config
    lines = ["[all]"]
    for key, value in config.to_dict().items():
        if key != "embedding_source":
            text = ",".join(map(repr, value)) if isinstance(value, list) else value
            lines.append(f"{key} = {text}")
    path = tmp_path / "all.ini"
    path.write_text("\n".join(lines) + "\n")
    assert TrainConfig.from_dict(read_config_file(path)) == config


def test_unknown_config_key_exits_1(dataset, tmp_path, capsys):
    cfg = _config_file(tmp_path, dataset, message_dim=4)
    assert main(["train", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert "unknown config key" in capsys.readouterr().err


@pytest.mark.parametrize("text,value", [("yes", True), (" On ", True), ("1", True),
                                        ("off", False), ("FALSE", False), ("0", False)])
def test_config_boolean_spellings(tmp_path, text, value):
    path = tmp_path / "b.ini"
    path.write_text(f"[train]\nstandardize_weights = {text}\n")
    assert read_config_file(path) == {"standardize_weights": value}


def test_bad_config_boolean_exits_1(dataset, tmp_path, capsys):
    cfg = _config_file(tmp_path, dataset, standardize_weights="ture")
    assert main(["train", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert "standardize_weights" in capsys.readouterr().err


def test_usage_error_exits_1(capsys):
    assert main(["train"]) == 1  # no dataset anywhere
    assert main(["bogus-command"]) == 1


def test_train_writes_manifest_checkpoint_report(dataset, tmp_path, capsys):
    cfg = _config_file(tmp_path, dataset)
    out = tmp_path / "train-out"
    assert main(["train", "--config", cfg, "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "train"
    assert manifest["resolved_config"]["task"] == "sign"
    assert (out / "checkpoint.json").exists()
    report = json.loads((out / "train_report.json").read_text())
    assert len(report["epoch_mean_loss"]) == report["epochs_run"]


def test_train_seed_rerun_identical(dataset, tmp_path, capsys):
    cfg = _config_file(tmp_path, dataset)
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / f"run-{tag}"
        assert main(["train", "--config", cfg, "--seed", "7", "--out", str(out)]) == 0
        report = json.loads((out / "train_report.json").read_text())
        report.pop("runtime_s")
        outs.append(report)
    assert outs[0] == outs[1]


def test_cli_flags_override_config(dataset, tmp_path, capsys):
    cfg = _config_file(tmp_path, dataset)
    out = tmp_path / "override"
    assert main(["train", "--config", cfg, "--task", "existence",
                 "--batch-size", "25", "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["resolved_config"]["task"] == "existence"
    assert manifest["resolved_config"]["batch_size"] == 25


@pytest.fixture(scope="module")
def trained_run(tmp_path_factory, dataset):
    tmp = tmp_path_factory.mktemp("trained")
    cfg_path = tmp / "run.ini"
    cfg_path.write_text("\n".join([
        "[run]", f"dataset = {dataset}", "task = sign",
        "[model]", "embedding_dim = 8", "memory_dim = 4", "heads = 2",
        "feature_dim = 2", "neighbor_cap = 16",
        "[train]", "batch_size = 50", "lr = 0.01", "max_epochs = 2",
        "patience = 2", "seed = 0",
    ]) + "\n")
    out = tmp / "out"
    code = main(["train", "--config", str(cfg_path), "--out", str(out)])
    assert code == 0
    return str(cfg_path), str(out / "checkpoint.json")


def test_eval_report_and_breakdown(trained_run, tmp_path, capsys):
    cfg, ckpt = trained_run
    out = tmp_path / "eval-out"
    assert main(["eval", "--config", cfg, "--checkpoint", ckpt, "--split", "test",
                 "--breakdown", "both", "--dump-raw", "--out", str(out)]) == 0
    doc = json.loads((out / "eval_report.json").read_text())
    assert doc["causality_violations"] == 0
    assert doc["params_frozen"] is True
    assert doc["transductive"] is not None and doc["inductive"] is not None
    assert doc["transductive"]["n"] + doc["inductive"]["n"] <= doc["metrics"]["n"]

    # recompute the binary metrics from the dumped raw predictions
    with open(out / "predictions.csv") as fh:
        rows = list(csv.DictReader(fh))
    scores = np.array([float(r["output_0"]) for r in rows])
    labels = np.array([float(r["label"]) for r in rows]).astype(int)
    assert doc["metrics"]["auroc"] == pytest.approx(auroc(scores, labels), abs=1e-12)
    assert doc["metrics"]["f1"] == pytest.approx(f1_binary(scores, labels), abs=1e-12)


def test_eval_checkpoint_config_mismatch_exits_2(trained_run, dataset, tmp_path, capsys):
    cfg, ckpt = trained_run
    bad_cfg = _config_file(tmp_path, dataset, embedding_dim=16)
    assert main(["eval", "--config", bad_cfg, "--checkpoint", ckpt,
                 "--out", str(tmp_path / "x")]) == 2


def test_predict_dumps_csv(trained_run, tmp_path, capsys):
    cfg, ckpt = trained_run
    out = tmp_path / "pred-out"
    assert main(["predict", "--config", cfg, "--checkpoint", ckpt,
                 "--split", "val", "--out", str(out)]) == 0
    with open(out / "predictions.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert rows and {"src", "dst", "time", "output_0", "label", "is_real"} <= set(rows[0])


@pytest.fixture(scope="module")
def weight_run(tmp_path_factory, dataset):
    tmp = tmp_path_factory.mktemp("wtrain")
    cfg_path = tmp / "run.ini"
    cfg_path.write_text("\n".join([
        "[run]", f"dataset = {dataset}", "task = signed-weight",
        "[model]", "embedding_dim = 8", "memory_dim = 4", "heads = 2",
        "feature_dim = 2", "neighbor_cap = 16",
        "[train]", "batch_size = 50", "lr = 0.01", "max_epochs = 1",
        "patience = 1", "seed = 0",
    ]) + "\n")
    out = tmp / "out"
    assert main(["train", "--config", str(cfg_path), "--out", str(out)]) == 0
    return str(cfg_path), str(out / "checkpoint.json")


def test_plot_weights_histogram(weight_run, tmp_path, capsys):
    cfg, ckpt = weight_run
    out = tmp_path / "plot-out"
    assert main(["plot-weights", "--config", cfg, "--checkpoint", ckpt,
                 "--out", str(out)]) == 0
    printed = json.loads(capsys.readouterr().out)
    with open(out / "weights_hist.csv") as fh:
        rows = list(csv.DictReader(fh))
    true_counts = np.array([int(r["true_count"]) for r in rows])
    pred_counts = np.array([int(r["predicted_count"]) for r in rows])
    values = np.array([int(r["weight"]) for r in rows])
    assert true_counts.sum() == printed["n"] == pred_counts.sum()

    # KL recomputed from the CSV equals the reported KL
    actual = np.repeat(values, true_counts)
    predicted = np.repeat(values, pred_counts)
    assert printed["kl_div"] == pytest.approx(kl_divergence_hist(actual, predicted),
                                              abs=1e-12)


def test_default_out_root_env(dataset, tmp_path, capsys):
    assert main(["stats", "--dataset", dataset]) == 0
    runs = list((tmp_path / "runs").iterdir())
    assert len(runs) == 1 and runs[0].name.startswith("stats-")
