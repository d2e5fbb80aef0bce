import contextlib
import csv
import gzip
import io
import json
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dysignet.cli import _load_bundle, build_parser, main, read_config_file
from dysignet.encoder import AblationConfig
from dysignet.events import DataError, compute_stats, parse_csv
from dysignet.harness import TrainConfig, evaluate_sequential
from dysignet.heads import TaskKind
from dysignet.metrics import auroc, f1_binary, kl_divergence_hist
from dysignet.params import ParameterSet, _encode
from dysignet.synthetic import generate_balanced_stream
from helpers import edge_list_texts


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
             "neighbor_cap = 16",
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


def _not_utf8(tmp_path):
    path = tmp_path / "latin1.csv"
    path.write_bytes("a,b,1,5\nJosé,b,2,6\n".encode("latin-1"))
    return path


def _truncated_gz(tmp_path):
    path = tmp_path / "cut.csv.gz"
    whole = gzip.compress(b"a,b,1,5\n" * 1000)
    path.write_bytes(whole[:len(whole) // 2])
    return path


def _directory(tmp_path):
    path = tmp_path / "dir.csv"
    path.mkdir()
    return path


@pytest.mark.parametrize("make", [_not_utf8, _truncated_gz, _directory])
def test_stats_unreadable_dataset_exits_2(tmp_path, capsys, make):
    path = make(tmp_path)
    assert main(["stats", "--dataset", str(path), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith(f"data error: {path}: ")


@pytest.mark.parametrize("out", ["afile", "afile/sub"])
def test_out_that_cannot_be_a_directory_exits_1(dataset, tmp_path, capsys, out):
    (tmp_path / "afile").write_text("")
    assert main(["stats", "--dataset", dataset, "--out", str(tmp_path / out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot make output directory {tmp_path / out}: "), err


def _stats_run(path, out):
    """``(exit code, stdout, stderr)`` of ``dysignet stats`` on ``path``."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(["stats", "--dataset", str(path), "--out", str(out)])
    return code, stdout.getvalue(), stderr.getvalue()


# the only function-scoped fixture is the autouse DYSIGNET_OUT setting,
# which every example may share
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(content=st.one_of(edge_list_texts().map(str.encode), st.binary()),
       gz=st.booleans())
def test_stats_on_any_file_exits_0_or_2(tmp_path_factory, content, gz):
    """Messy edge lists and random bytes, plain or gzip-named: the library
    gives stats or a ``DataError``, and the CLI agrees with exit 0 and the
    stats as JSON, or exit 2 with ``data error:``."""
    root = tmp_path_factory.mktemp("fuzz")
    path = root / ("d.csv.gz" if gz else "d.csv")
    path.write_bytes(content)
    try:
        expected = compute_stats(parse_csv(path)).to_dict()
    except DataError:
        expected = None
    code, out, err = _stats_run(path, root / "o")
    if expected is None:
        assert code == 2 and err.startswith("data error: "), (code, err)
    else:
        assert code == 0 and json.loads(out) == json.loads(json.dumps(expected))


def test_config_file_sets_every_field(tmp_path):
    config = TrainConfig(
        dataset="x.csv", task=TaskKind.SIGNED_WEIGHT, batch_size=7, embedding_dim=12,
        memory_dim=3, heads=3, neighbor_cap=9, time_scale=0.5, lr=0.02,
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
    for key in ("message_dim", "feature_dim"):   # both were keys once
        cfg = _config_file(tmp_path, dataset, **{key: 4})
        assert main(["train", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert f"unknown config key {key!r}" in capsys.readouterr().err


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


def test_train_without_epochs_exits_1(dataset, tmp_path, capsys):
    out = tmp_path / "o"
    assert main(["train", "--dataset", dataset, "--epochs", "0", "--out", str(out)]) == 1
    assert "max_epochs must be >= 1" in capsys.readouterr().err
    assert not (out / "checkpoint.json").exists()
    cfg = tmp_path / "p.ini"
    cfg.write_text("[train]\npatience = -1\n")
    assert main(["train", "--config", str(cfg), "--dataset", dataset, "--out", str(out)]) == 1
    assert "patience >= 0" in capsys.readouterr().err


def test_heads_not_dividing_the_embedding_exits_1(dataset, tmp_path, capsys):
    # 3 heads cannot split the default embedding_dim of 64
    cfg = tmp_path / "h.ini"
    cfg.write_text("[model]\nheads = 3\n")
    out = tmp_path / "o"
    for argv in (["train"], ["eval", "--checkpoint", str(tmp_path / "none.json")]):
        assert main(argv + ["--config", str(cfg), "--dataset", dataset, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "bad configuration" in err and "3 heads" in err and "Traceback" not in err
    assert not out.exists()   # rejected before any manifest is written
    # without the embedding layer no head splits anything
    assert TrainConfig(heads=3, ablation=AblationConfig.emb).heads == 3


@pytest.mark.parametrize("key, value", [
    ("neighbor_cap", "-1"), ("split_fractions", "0.5,0.2,0.2"), ("lr", "nan"),
    ("time_scale", "nan"), ("time_scale", "inf"), ("time_scale", "0"), ("time_scale", "-1"),
    # the paper's ablation variants drop one part each; combinations are no variant
    ("ablation", "ba+emb"), ("ablation", "ba+mem"), ("ablation", "emb+mem"),
    ("ablation", "ba+emb+mem")])
def test_bad_config_value_exits_1(dataset, tmp_path, capsys, key, value):
    cfg = _config_file(tmp_path, dataset)
    with open(cfg, "a") as fh:
        fh.write(f"[bad]\n{key} = {value}\n")
    assert main(["train", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert "bad configuration" in err and key in err


def test_duplicate_config_key_exits_1(dataset, tmp_path, capsys):
    cfg = _config_file(tmp_path, dataset, lr=0.5)   # [train] already sets lr
    assert main(["train", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert "'lr'" in capsys.readouterr().err


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


def test_manifest_records_numpy_blas_and_thread_variables(dataset, tmp_path, monkeypatch,
                                                          capsys):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    out = tmp_path / "stats-out"
    assert main(["stats", "--dataset", str(dataset), "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["numpy_version"] == np.__version__
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    assert manifest["blas"] == {"name": blas["name"], "version": blas["version"]}
    assert manifest["thread_env"] == {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": None}


def test_manifest_records_the_argv_main_parsed(dataset, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["x.py", "extra-arg-of-the-caller"])
    argv = ["stats", "--dataset", str(dataset), "--out", str(tmp_path / "o")]
    assert main(argv) == 0
    assert json.loads((tmp_path / "o" / "manifest.json").read_text())["argv"] == argv


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
        "neighbor_cap = 16",
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
                 "--breakdown", "--dump-raw", "--out", str(out)]) == 0
    doc = json.loads((out / "eval_report.json").read_text())
    assert not (out / "weights_hist.csv").exists()   # only a signed-weight eval writes it
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


def test_dump_raw_parses_back_to_report_columns(trained_run, tmp_path):
    cfg, ckpt = trained_run
    argv = ["eval", "--config", cfg, "--checkpoint", ckpt, "--split", "test",
            "--dump-raw", "--out", str(tmp_path / "raw-out")]
    assert main(argv) == 0
    _, bundle, split = _load_bundle(build_parser().parse_args(argv))
    raw = evaluate_sequential(bundle, split, which="test").raw
    with open(tmp_path / "raw-out" / "predictions.csv", newline="") as fh:
        header, *rows = csv.reader(fh)
    arity = raw.output.shape[1]
    assert header == (["src", "dst", "time"] + [f"output_{i}" for i in range(arity)]
                      + ["label", "is_real"])
    assert len(rows) == len(raw)
    # every float is written with repr, so it parses back exactly
    assert [int(r[0]) for r in rows] == raw.src.tolist()
    assert [int(r[1]) for r in rows] == raw.dst.tolist()
    assert [float(r[2]) for r in rows] == raw.time.tolist()
    assert [[float(x) for x in r[3:3 + arity]] for r in rows] == raw.output.tolist()
    assert [float(r[-2]) for r in rows] == raw.label.tolist()
    assert [bool(int(r[-1])) for r in rows] == raw.is_real.tolist()


def test_eval_checkpoint_config_mismatch_exits_2(trained_run, dataset, tmp_path, capsys):
    cfg, ckpt = trained_run
    bad_cfg = _config_file(tmp_path, dataset, embedding_dim=16)
    assert main(["eval", "--config", bad_cfg, "--checkpoint", ckpt,
                 "--out", str(tmp_path / "x")]) == 2
    # a checkpoint from when each node state carried two feature columns
    doc = json.loads(Path(ckpt).read_text())
    wide = np.zeros((8, 10))
    doc["params"]["encoder.emb.self_proj"] = {
        "shape": [8, 10], "data": _encode(wide), "m": _encode(wide), "v": _encode(wide)}
    old = tmp_path / "old.json"
    old.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["eval", "--config", cfg, "--checkpoint", str(old),
                 "--out", str(tmp_path / "y")]) == 2
    err = capsys.readouterr().err
    assert "'encoder.emb.self_proj'" in err and "(8, 10)" in err and "(8, 8)" in err


def test_checkpoint_of_another_task_or_ablation_exits_2(trained_run, dataset, tmp_path,
                                                       capsys):
    cfg, ckpt = trained_run
    assert main(["eval", "--config", cfg, "--checkpoint", ckpt, "--task", "signed-weight",
                 "--out", str(tmp_path / "w")]) == 2
    assert "trained with task 'sign', not 'signed-weight'" in capsys.readouterr().err
    assert main(["eval", "--config", cfg, "--checkpoint", ckpt, "--ablation", "emb",
                 "--out", str(tmp_path / "e")]) == 2
    assert "trained with ablation 'none', not 'emb'" in capsys.readouterr().err
    # a checkpoint that records no run loads as before
    doc = json.loads(Path(ckpt).read_text())
    assert doc.pop("meta") == {"task": "sign", "ablation": "none"}
    bare = tmp_path / "bare.json"
    bare.write_text(json.dumps(doc))
    assert main(["eval", "--config", cfg, "--checkpoint", str(bare), "--task", "signed-weight",
                 "--out", str(tmp_path / "b")]) == 0


def _missing(doc):
    return None


def _not_json(doc):
    return "not json"


def _empty(doc):
    return "{}"


def _truncated_payload(doc):
    entry = next(iter(doc["params"].values()))
    entry["data"] = entry["data"][:8]   # 6 bytes: not a whole float64
    return json.dumps(doc)


def _nan_values(doc):
    entry = next(iter(doc["params"].values()))
    entry["m"] = _encode(np.full(entry["shape"], np.nan))
    return json.dumps(doc)


# "plot-weights": the signed-weight eval, which also writes weights_hist.csv
@pytest.mark.parametrize("extra", [[], ["--task", "signed-weight"]], ids=["eval", "plot-weights"])
@pytest.mark.parametrize("content", [_missing, _not_json, _empty, _truncated_payload,
                                     _nan_values])
def test_bad_checkpoint_exits_2(trained_run, tmp_path, capsys, extra, content):
    cfg, ckpt = trained_run
    bad = tmp_path / "bad.json"
    text = content(json.loads(Path(ckpt).read_text()))
    if text is not None:
        bad.write_text(text)
    assert main(["eval", "--config", cfg, "--checkpoint", str(bad), *extra,
                 "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"data error: {bad}: bad checkpoint: ")


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("run", ["trained_run", "weight_run"])
def test_non_finite_decoder_outputs_exit_3(request, tmp_path, capsys, run):
    cfg, ckpt = request.getfixturevalue(run)
    doc = json.loads(Path(ckpt).read_text())
    # finite at float32, so the checkpoint loads, but the decoder overflows
    for name in ("decoder.b1", "decoder.w2"):
        entry = doc["params"][name]
        entry["data"] = _encode(np.full(entry["shape"], 3e38))
    huge = tmp_path / "huge.json"
    huge.write_text(json.dumps(doc))
    assert main(["eval", "--config", cfg, "--checkpoint", str(huge),
                 "--out", str(tmp_path / "o")]) == 3
    assert capsys.readouterr().err.startswith("numeric failure: non-finite decoder outputs")


def test_eval_dump_raw_writes_predictions_csv(trained_run, tmp_path, capsys):
    cfg, ckpt = trained_run
    out = tmp_path / "pred-out"
    assert main(["eval", "--config", cfg, "--checkpoint", ckpt,
                 "--split", "val", "--dump-raw", "--out", str(out)]) == 0
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
        "neighbor_cap = 16",
        "[train]", "batch_size = 50", "lr = 0.01", "max_epochs = 1",
        "patience = 1", "seed = 0",
    ]) + "\n")
    out = tmp / "out"
    assert main(["train", "--config", str(cfg_path), "--out", str(out)]) == 0
    return str(cfg_path), str(out / "checkpoint.json")


def test_plot_weights_histogram(weight_run, tmp_path, capsys):
    cfg, ckpt = weight_run
    out = tmp_path / "plot-out"
    assert main(["eval", "--config", cfg, "--checkpoint", ckpt, "--task", "signed-weight",
                 "--out", str(out)]) == 0
    printed = json.loads(capsys.readouterr().out)["metrics"]
    assert printed == json.loads((out / "eval_report.json").read_text())["metrics"]
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


def test_eval_of_a_huge_predicted_weight_exits_3(weight_run, tmp_path, capsys):
    # outputs stay finite at float32, but their histogram would span ~3e38
    # integer bins
    cfg, ckpt = weight_run
    params = ParameterSet.load(ckpt)
    params["decoder.w2"].data[...] = 3e38
    huge = tmp_path / "huge.json"
    params.save(huge)
    assert main(["eval", "--config", cfg, "--checkpoint", str(huge), "--task", "signed-weight",
                 "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert "numeric failure" in err and "histogram bins" in err


def test_default_out_root_env(dataset, tmp_path, capsys):
    assert main(["stats", "--dataset", dataset]) == 0
    runs = list((tmp_path / "runs").iterdir())
    assert len(runs) == 1 and runs[0].name.startswith("stats-")
