"""Offline benchmark of dysignet's train and online eval.

Usage, from the root of a source checkout::

    python3 bench/run.py --workload btc-sign --seed 1 --seconds 40 --trace 0

One run generates the workload's seeded stream (``stream.py``), writes it
as a CSV and then drives the program through its public entry points as a
user does: ``events.parse_csv`` -> ``events.chronological_split`` ->
``harness.train`` (one epoch: train pass and val pass) ->
``harness.evaluate_sequential`` on the test split.  The program is
imported from ``src/`` of the checkout; the benchmark exits with code 2
and prints no result when it is not there.

``--trace 0`` reports the end-to-end metrics: medians over the iterations
that fit in ``--seconds`` (each iteration times one train epoch and two
test evals; eval is the shorter and noisier section).  ``--trace 1``
alternates untraced and traced iterations and reports the per-layer
metrics of ``spans.py`` plus the tracing overhead.  Either way every
scored batch is checked (finite loss and outputs; causality, frozen
parameters and pair counts of the eval report) and the last line of
standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The exit code is 1 when any check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

# One BLAS thread: the workloads are one thread of load, and a shared
# machine gives steadier timings without BLAS worker threads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

import spans  # noqa: E402
from stream import describe, generate, write_csv  # noqa: E402
from workloads import BATCH_SIZE, MODEL_SEED, NEIGHBOR_CAP, WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPS = 20
EVALS_PER_ITERATION = 2
END_TO_END_UNITS = {
    "train_events_per_s": "1/s",
    "eval_events_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "train_loss": "nats",
    "test_auroc": "ratio",
}


class MissingProgram(RuntimeError):
    """The checkout has no importable ``src/dysignet``."""


def load_program(root: Path = ROOT) -> SimpleNamespace:
    """Import dysignet from ``root/src`` and nowhere else."""
    src = root / "src"
    if not (src / "dysignet" / "__init__.py").is_file():
        raise MissingProgram(f"no program source at {src / 'dysignet'}")
    sys.path.insert(0, str(src))
    import dysignet
    from dysignet import encoder, events, harness, heads, layers, params

    if src.resolve() not in Path(dysignet.__file__).resolve().parents:
        raise MissingProgram(f"dysignet imported from {dysignet.__file__}, not {src}")
    return SimpleNamespace(encoder=encoder, events=events, harness=harness, heads=heads,
                           layers=layers, params=params)


class Checks:
    """Scored batches attempted and the ones that broke a check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.last_batch_failed = False

    def fail(self, count: int, why: str) -> None:
        self.failed += count
        self.problems.append(why)

    def watch_outputs(self, program):
        """Count every scored batch and fail those with non-finite outputs."""
        score_rows = vars(program.heads.PairDecoder)["score_rows"]

        def checked(decoder, z, index, pairs):
            out = score_rows(decoder, z, index, pairs)
            self.attempted += 1
            self.last_batch_failed = not np.isfinite(out.data).all()
            if self.last_batch_failed:
                self.fail(1, f"non-finite outputs in a batch of {len(pairs)} pairs")
            return out

        return spans.patched(program.heads.PairDecoder, "score_rows", checked)

    def check_train(self, result) -> None:
        losses = np.asarray(result.loss_trace[0])
        bad = int(np.count_nonzero(~np.isfinite(losses)))
        if bad:
            self.fail(bad, f"{bad} non-finite batch losses")

    def check_eval(self, report, task_kind, n_test: int) -> None:
        if report.causality_violations:
            self.fail(report.causality_violations,
                      f"{report.causality_violations} causality violations")
        if not report.params_frozen:
            self.fail(1, "parameters changed during evaluation")
        if report.n_real != n_test:
            self.fail(1, f"n_real {report.n_real} != {n_test} test events")
        if task_kind.needs_negatives and report.n_negative != report.n_real:
            self.fail(1, f"n_negative {report.n_negative} != n_real {report.n_real}")
        auroc = report.metrics.get("auroc", float("nan"))
        if not 0.0 <= auroc <= 1.0:
            self.fail(1, f"test AUROC {auroc} outside [0, 1]")


def train_config(program, workload):
    return program.harness.TrainConfig(
        task=program.heads.TaskKind.from_name(workload.task),
        batch_size=BATCH_SIZE,
        embedding_dim=64,
        memory_dim=32,
        heads=8,
        neighbor_cap=NEIGHBOR_CAP,
        max_epochs=1,
        seed=MODEL_SEED,
    )


def set_up(program, csv_path, config):
    """The program's set-up: parse, split, build the model. Returns
    (seconds, split)."""
    start = perf_counter()
    split = program.events.chronological_split(program.events.parse_csv(csv_path))
    program.harness.build_model(program.harness.resolve_time_scale(config, split))
    return perf_counter() - start, split


def iterate(program, config, split, checks: Checks, evals: int = 1) -> dict:
    """One train epoch, then ``evals`` online test evals, each timed.  A
    run that raises (``NumericError``, or ``ValueError`` for an
    out-of-order batch) fails the batch it was on and returns no timings."""
    harness = program.harness
    n_train_val = len(split.train) + len(split.val)
    eval_rates = []
    try:
        start = perf_counter()
        result = harness.train(config, split=split)
        train_s = perf_counter() - start
        checks.check_train(result)
        bundle = harness.build_model(result.config)
        bundle.params.load_values(result.params.copy_values())
        for _ in range(evals):
            start = perf_counter()
            report = harness.evaluate_sequential(bundle, split, "test")
            eval_rates.append((n_train_val + len(split.test)) / (perf_counter() - start))
            checks.check_eval(report, config.task, len(split.test))
    except (program.params.NumericError, ValueError) as exc:
        if not checks.last_batch_failed:  # count the batch once
            checks.fail(1, f"{type(exc).__name__}: {exc}")
        return {}
    return {
        "train_events_per_s": n_train_val / train_s,
        "eval_events_per_s": eval_rates,
        "train_loss": float(np.mean(result.loss_trace[0])),
        "test_auroc": float(report.metrics["auroc"]),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure_end_to_end(program, workload, csv_path, seconds: float, checks: Checks) -> dict:
    """Median throughputs and set-up time, peak RSS and the two quality
    guards."""
    config = train_config(program, workload)
    setups = [set_up(program, csv_path, config) for _ in range(SETUP_REPS)]
    split = setups[-1][1]
    runs = []
    start = perf_counter()
    while True:
        began = perf_counter()
        run = iterate(program, config, split, checks, EVALS_PER_ITERATION)
        if not run:
            return {}
        runs.append(run)
        print(f"iteration {len(runs)}: train {run['train_events_per_s']:.1f} events/s, "
              f"eval {' '.join(f'{r:.1f}' for r in run['eval_events_per_s'])} events/s",
              flush=True)
        if perf_counter() - start + (perf_counter() - began) > seconds:
            break
    for key in ("train_loss", "test_auroc"):
        if len({r[key] for r in runs}) > 1:
            checks.fail(1, f"{key} differs between iterations on the same input")
    return {
        "train_events_per_s": statistics.median(r["train_events_per_s"] for r in runs),
        "eval_events_per_s": statistics.median(
            rate for r in runs for rate in r["eval_events_per_s"]),
        "peak_rss_mb": peak_rss_mb(),
        "setup_s": statistics.median(s for s, _ in setups),
        "train_loss": runs[0]["train_loss"],
        "test_auroc": runs[0]["test_auroc"],
    }


def traced_iteration(program, workload, csv_path, checks: Checks, traced: bool) -> dict:
    """Set-up, train and eval; with ``traced`` the layers record spans."""
    config = train_config(program, workload)
    tracer = spans.Tracer()
    start = perf_counter()
    if traced:
        with spans.probed(program, tracer) as last:
            _, split = set_up(program, csv_path, config)
            run = iterate(program, config, split, checks)
        wall = perf_counter() - start
        report = spans.layer_report(tracer, wall, last.get("state"))
    else:
        _, split = set_up(program, csv_path, config)
        run = iterate(program, config, split, checks)
        wall = perf_counter() - start
        report = {"trace.wall_s": wall}
    return report if run else {}


def measure_layers(program, workload, csv_path, seconds: float, checks: Checks) -> dict:
    plain, traced = [], []
    start = perf_counter()
    while True:
        began = perf_counter()
        for runs, on in ((plain, False), (traced, True)):
            report = traced_iteration(program, workload, csv_path, checks, on)
            if not report:
                return {}
            runs.append(report)
        print(f"pair {len(traced)}: untraced {plain[-1]['trace.wall_s']:.3f} s, "
              f"traced {traced[-1]['trace.wall_s']:.3f} s", flush=True)
        if perf_counter() - start + (perf_counter() - began) > seconds:
            break
    out = {name: statistics.median(r[name] for r in traced) for name in traced[0]}
    out["trace.overhead_ratio"] = out["trace.wall_s"] / statistics.median(
        r["trace.wall_s"] for r in plain)
    out["harness.batches.attempted"] = float(checks.attempted)
    out["harness.batches.failed"] = float(checks.failed)
    return out


def per_layer_unit(name: str) -> str:
    if name.endswith((".s", "_s")):
        return "s"
    if name.endswith(("ratio", ".share")):
        return "ratio"
    return "count"


def run(workload_name: str, seed: int, seconds: float, traced: bool,
        root: Path = ROOT) -> dict:
    """One benchmark run; returns the result object that is printed."""
    program = load_program(root)
    workload = WORKLOADS[workload_name]
    rows = generate(workload.stream, seed)
    print("stream:", json.dumps(describe(rows)), flush=True)
    (root / ".bench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=root / ".bench_work"))
    checks = Checks()
    try:
        csv_path = work / f"{workload_name}-{seed}.csv"
        write_csv(rows, csv_path)
        del rows
        with checks.watch_outputs(program):
            if traced:
                values = measure_layers(program, workload, csv_path, seconds, checks)
                unit = per_layer_unit
            else:
                values = measure_end_to_end(program, workload, csv_path, seconds, checks)
                unit = END_TO_END_UNITS.__getitem__
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for why in checks.problems:
        print("check failed:", why, file=sys.stderr)
    return {
        "correct": checks.failed == 0 and bool(values),
        "attempted": max(checks.attempted, 1),
        "failed": checks.failed,
        "metrics": {name: {"value": value, "unit": unit(name)}
                    for name, value in values.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except MissingProgram as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
