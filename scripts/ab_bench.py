#!/usr/bin/env python3
"""Compare the benchmark of two source trees, run in ABBA order.

Usage::

    python3 scripts/ab_bench.py PARENT CHANGE --workload W --pairs N --seconds S --seed S0

Pair ``i`` runs each tree's own ``bench/run.py --workload W --seed S0+i
--seconds S`` once, one process per run: the parent first in even pairs
and the change first in odd ones, so a drift in host speed falls on both
sides alike.  Both runs of a pair read the same stream.  Progress goes to
standard error; standard output gets one JSON line per end-to-end metric
of the parent's ``BENCHMARK.json``, with both sides' median and quartiles,
the ratio of the medians (change / parent), the pairs the change won and
tied, and a verdict against the metric's bound:

- ``failed``: a larger share of the change's scored batches failed, or a
  change run gave no result;
- ``worse``: the change's median is worse than the parent's by more than
  the bound;
- ``spread``: either side's quartile spread exceeds the bound times its
  median, too wide to tell;
- ``ok`` otherwise.

Passing the same tree twice gives an A/A control.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import numpy as np


def bench_result(stdout: str) -> dict | None:
    """The result object that ``bench/run.py`` prints last, or None."""
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None
    return result if isinstance(result, dict) and "metrics" in result else None


def run_bench(tree: Path, workload: str, seed: int, seconds: float) -> dict | None:
    """One benchmark run of ``tree`` in its own process."""
    proc = subprocess.run([sys.executable, str(tree / "bench" / "run.py"), "--workload",
                           workload, "--seed", str(seed), "--seconds", str(seconds)],
                          cwd=tree, capture_output=True, text=True)
    return bench_result(proc.stdout)


def _side(values: list[float]) -> dict:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(median), "q1": float(q1), "q3": float(q3)}


def _failed_share(runs: list[dict | None]) -> float:
    failed = sum(r["failed"] if r else 1 for r in runs)
    return failed / max(sum(r["attempted"] if r else 1 for r in runs), 1)


def summarize(spec: dict, parent: list[dict | None], change: list[dict | None]) -> dict:
    """The comparison of one end-to-end metric (a ``BENCHMARK.json``
    entry) over paired results: ``parent[i]`` and ``change[i]`` are pair
    ``i``'s result objects, None for a run that gave none."""
    name, bound, higher = spec["name"], spec["bound"], spec["better"] == "higher"
    pairs = [(p["metrics"][name]["value"], c["metrics"][name]["value"])
             for p, c in zip(parent, change) if p and c]
    out = {"metric": name, "better": spec["better"], "bound": bound, "pairs": len(parent),
           "failed_share": [_failed_share(parent), _failed_share(change)]}
    if not pairs:
        return {**out, "verdict": "failed"}
    sides = [_side([pair[k] for pair in pairs]) for k in (0, 1)]
    a, b = sides[0]["median"], sides[1]["median"]
    ratio = b / a if a else float("nan")
    worse = b < a * (1 - bound) if higher else b > a * (1 + bound)
    spread = any(s["q3"] - s["q1"] > bound * abs(s["median"]) for s in sides)
    if None in change or out["failed_share"][1] > out["failed_share"][0]:
        verdict = "failed"
    else:
        verdict = "worse" if worse else "spread" if spread else "ok"
    return {**out, "parent": sides[0], "change": sides[1], "ratio": ratio,
            "wins": sum((c > p) if higher else (c < p) for p, c in pairs),
            "ties": sum(c == p for p, c in pairs), "verdict": verdict}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--seed", type=int, required=True, help="stream seed of pair 0")
    args = parser.parse_args(argv)
    trees = [args.parent.resolve(), args.change.resolve()]
    specs = json.loads((trees[0] / "BENCHMARK.json").read_text())["end_to_end"]
    results: list[list[dict | None]] = [[], []]
    for i in range(args.pairs):
        for side in ((0, 1) if i % 2 == 0 else (1, 0)):
            result = run_bench(trees[side], args.workload, args.seed + i, args.seconds)
            results[side].append(result)
            values = result and {k: m["value"] for k, m in result["metrics"].items()}
            print(f"pair {i} {('parent', 'change')[side]}: {values}", file=sys.stderr, flush=True)
    for spec in specs:
        print(json.dumps({"workload": args.workload, **summarize(spec, *results)}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
