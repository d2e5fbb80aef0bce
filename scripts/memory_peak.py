#!/usr/bin/env python3
"""Print the peak of live traced bytes (``tracemalloc``) during one train
epoch's pass over the train split, during that epoch's validation and
during one online test eval, per bench stream, so that a memory change can
be checked without the noise of peak RSS, and the phase that sets the
peak can be read off.

Streams come from the benchmark's generator (``bench/stream.py``, read
only) with the pool, popularity and task of each bench workload, as in
``scripts/fingerprint.py``, and run at the bench config: batch 1000, dims
64/32/8 heads, neighbour cap 128, one epoch, model seed 0.  A stream is
parsed and split before tracing starts, so a peak counts what training or
evaluation holds on top of the split.  The validation peak is split off
the train peak by wrapping ``harness.evaluate_sequential``, which
``harness.train`` calls to validate: the wrapper records the peak so far
and resets it.  Peaks repeat to within a few kilobytes, where peak RSS
moves by about half a megabyte.  One line per stream::

    <stream> <task> <train peak bytes> <validation peak bytes> <eval peak bytes>

Run it in each tree and compare::

    python3 scripts/memory_peak.py
"""

import argparse
import sys
import tempfile
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench"), str(ROOT / "scripts")]

from dysignet import harness  # noqa: E402
from dysignet.events import chronological_split, parse_csv  # noqa: E402
from dysignet.heads import TaskKind  # noqa: E402
from fingerprint import STREAMS  # noqa: E402
from stream import StreamShape, generate, write_csv  # noqa: E402


def peaks(split, task, batch_size) -> tuple[int, int, int]:
    """Traced peaks of the train pass, of its validation and of the eval.
    Of two passes the first runs untraced: the first pass in a process also
    allocates lazy imports and caches, about 1 MB, that no later pass
    holds."""
    config = harness.TrainConfig(
        task=TaskKind.from_name(task), batch_size=batch_size, embedding_dim=64, memory_dim=32,
        heads=8, neighbor_cap=128, max_epochs=1, seed=0)
    evaluate = harness.evaluate_sequential
    train_peaks = []

    def validate(*args, **kwargs):
        train_peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.reset_peak()
        return evaluate(*args, **kwargs)

    harness.evaluate_sequential = validate
    try:
        for traced in (False, True):
            if traced:
                tracemalloc.start()
            result = harness.train(config, split=split)
            val_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            bundle = harness.build_model(result.config)
            bundle.params.load_values(result.params.copy_values())
            evaluate(bundle, split, "test")
        return train_peaks[-1], val_peak, tracemalloc.get_traced_memory()[1]
    finally:
        harness.evaluate_sequential = evaluate
        tracemalloc.stop()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--events", type=int, default=24186)
    parser.add_argument("--batch-size", type=int, default=1000)
    parser.add_argument("--seed", type=int, default=3, help="stream seed")
    args = parser.parse_args()

    with tempfile.TemporaryDirectory() as tmp:
        for name, (pool, zipf, task) in STREAMS.items():
            path = Path(tmp) / f"{name}.csv"
            write_csv(generate(StreamShape(pool=pool, events=args.events, zipf=zipf), args.seed),
                      path)
            split = chronological_split(parse_csv(path))
            print(name, task, *peaks(split, task, args.batch_size), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
