#!/usr/bin/env python3
"""Train and evaluate the full model and its three ablation variants on one
dataset under identical seeds/splits, writing a consolidated CSV table.

Each variant is two ``dysignet`` runs: ``train`` into ``<out>/<variant>``,
then ``eval`` of its checkpoint on the test split into
``<out>/<variant>/eval``.  The table ``<out>/ablation_table.csv`` is read
from the ``eval_report.json`` files.  A failed run stops the study with
the CLI's exit code (1 usage, 2 data, 3 numeric)."""

import argparse
import contextlib
import json
import sys
from pathlib import Path

from dysignet import cli
from dysignet.encoder import AblationConfig
from dysignet.heads import TaskKind


def ablation_table(reports: dict[str, dict]) -> str:
    """One row per variant of its embedding source and test metrics: floats
    as ``%.6f``, a null metric as an empty cell."""
    keys = list(dict.fromkeys(key for rep in reports.values() for key in rep["metrics"]))
    lines = ["variant,embedding_source," + ",".join(keys)]
    for name, rep in reports.items():
        cells = [name, f"\"{rep['embedding_source']}\""]
        for key in keys:
            value = rep["metrics"].get(key)
            cells.append(f"{value:.6f}" if isinstance(value, float)
                         else "" if value is None else str(value))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dataset", required=True)
    parser.add_argument("--task", default="signed-existence",
                        choices=[t.value for t in TaskKind])
    parser.add_argument("--batch-size", type=int, default=1000)
    parser.add_argument("--lr", type=float, default=1e-3)
    parser.add_argument("--epochs", type=int, default=50)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default="runs/ablation")
    args = parser.parse_args()

    out_dir = Path(args.out)
    common = ["--dataset", args.dataset, "--task", args.task,
              "--batch-size", str(args.batch_size), "--lr", str(args.lr),
              "--epochs", str(args.epochs), "--seed", str(args.seed)]
    reports = {}
    for name in AblationConfig.NAMES:
        run = out_dir / name
        # the runs' JSON goes to stderr as progress; stdout is the table
        with contextlib.redirect_stdout(sys.stderr):
            code = (cli.main(["train", *common, "--ablation", name, "--out", str(run)])
                    or cli.main(["eval", *common, "--ablation", name, "--checkpoint",
                                 str(run / "checkpoint.json"), "--out", str(run / "eval")]))
        if code:
            return code
        reports[name] = json.loads((run / "eval" / "eval_report.json").read_text())

    table = ablation_table(reports)
    (out_dir / "ablation_table.csv").write_text(table)
    print(table)
    print(f"runs under {out_dir}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
