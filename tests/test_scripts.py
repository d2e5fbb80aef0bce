import os
import subprocess
import sys
from pathlib import Path

from dysignet.encoder import AblationConfig

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
    assert all((out / f"report_{name}.json").exists() for name in AblationConfig.NAMES)


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
