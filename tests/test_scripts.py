import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from dysignet.encoder import AblationConfig
from dysignet.harness import TrainConfig, build_model, evaluate_sequential, load_dataset, train
from dysignet.heads import TaskKind
from dysignet.synthetic import generate_balanced_stream

ROOT = Path(__file__).resolve().parent.parent


def _run(script, *args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args], cwd=cwd,
                          env=env, capture_output=True, text=True, timeout=300)


def test_synthetic_stream_through_the_ablation_study(tmp_path):
    stream = tmp_path / "stream.csv"
    made = _run("make_synthetic.py", "--nodes", "20", "--events", "200", "--seed", "3",
                "--out", str(stream), cwd=tmp_path)
    assert made.returncode == 0, made.stderr
    assert stream.exists() and stream.with_suffix(".factions.csv").exists()

    out = tmp_path / "ablation"
    study = _run("run_ablation_study.py", "--dataset", str(stream), "--batch-size", "50",
                 "--epochs", "1", "--out", str(out), cwd=tmp_path)
    assert study.returncode == 0, study.stderr
    header, *rows = (out / "ablation_table.csv").read_text().splitlines()
    assert header.startswith("variant,embedding_source,")
    assert [row.split(",")[0] for row in rows] == list(AblationConfig.NAMES)
    for name in AblationConfig.NAMES:
        assert {p.name for p in (out / name).iterdir()} == {
            "manifest.json", "checkpoint.json", "train_report.json", "eval"}
        assert {p.name for p in (out / name / "eval").iterdir()} == {
            "manifest.json", "eval_report.json"}

    missing = _run("run_ablation_study.py", "--dataset", str(tmp_path / "nope.csv"),
                   "--out", str(tmp_path / "missing"), cwd=tmp_path)
    assert missing.returncode == 2
    assert missing.stderr.startswith("data error: ") and "Traceback" not in missing.stderr


def _reference_table(reports) -> str:
    """The ablation table from in-process eval reports."""
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


def test_run_ablation_structure(tmp_path):
    log, _ = generate_balanced_stream(n_nodes=20, n_events=160, seed=8)
    log.write_csv(tmp_path / "d.csv")
    out = tmp_path / "ablation"
    study = _run("run_ablation_study.py", "--dataset", str(tmp_path / "d.csv"),
                 "--task", "signed-existence", "--batch-size", "40", "--epochs", "1",
                 "--out", str(out), cwd=tmp_path)
    assert study.returncode == 0, study.stderr
    docs = {name: json.loads((out / name / "eval" / "eval_report.json").read_text())
            for name in AblationConfig.NAMES}
    assert {name: doc["embedding_source"] for name, doc in docs.items()} == {
        "none": "attention over past interactions",
        "ba": "attention over past interactions",
        "emb": "concatenated memories",
        "mem": "attention over interaction time and magnitude"}
    for name, doc in docs.items():
        assert doc["config"]["ablation"] == name and doc["seed"] == 0
        assert doc["split"] == "test" and doc["params_frozen"]

    # each row is the variant's train -> best parameters -> test evaluation
    base = TrainConfig(dataset=str(tmp_path / "d.csv"), task=TaskKind.SIGNED_EXISTENCE,
                       batch_size=40, max_epochs=1)
    split = load_dataset(base)
    reports = {}
    for name in AblationConfig.NAMES:
        result = train(replace(base, ablation=AblationConfig.from_name(name)), split=split)
        bundle = build_model(result.config)
        bundle.params.load_values(result.params.copy_values())
        reports[name] = evaluate_sequential(bundle, split)
    assert (out / "ablation_table.csv").read_text() == _reference_table(reports)


def test_fingerprint_prints_eight_digests_per_run(tmp_path):
    printed = _run("fingerprint.py", "--events", "300", "--epochs", "1", "--batch-size", "100",
                   cwd=tmp_path)
    assert printed.returncode == 0, printed.stderr
    lines = [line.split() for line in printed.stdout.splitlines()]
    runs = {tuple(line[:3]) for line in lines}
    # each bench stream with its task, and btc-sign with every task, per variant
    assert len(runs) == (3 + 3) * len(AblationConfig.NAMES) and len(lines) == 8 * len(runs)
    assert {line[3] for line in lines} == {"init-preds", "init-snapshot", "params", "loss", "val",
                                           "preds", "snapshot", "history"}
    assert all(len(line[4]) == 64 and int(line[4], 16) >= 0 for line in lines)
    assert not list(tmp_path.iterdir())


def test_memory_peak_prints_three_peaks_per_stream(tmp_path):
    printed = _run("memory_peak.py", "--events", "300", "--batch-size", "100", cwd=tmp_path)
    assert printed.returncode == 0, printed.stderr
    lines = [line.split() for line in printed.stdout.splitlines()]
    assert [line[:2] for line in lines] == [["btc-sign", "sign"], ["dense-history", "existence"],
                                            ["wide-cold", "sign"]]
    assert all(len(line) == 5 and all(int(peak) > 0 for peak in line[2:]) for line in lines)
    assert not list(tmp_path.iterdir())
