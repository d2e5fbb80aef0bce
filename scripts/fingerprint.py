#!/usr/bin/env python3
"""Print sha256 digests of what training and evaluation produce, so two
trees can be checked for bit-identical behaviour with ``diff``.

Streams come from the benchmark's generator (``bench/stream.py``, read
only) with the pool and popularity of each bench workload, at a smaller
event count.  Each bench stream is run with its own task, and btc-sign
with every task, each under the four ablation variants.  Per run it
evaluates on the test split and warms a fresh state over train+val
without gradient under the untrained parameters, then trains (dims
64/32/8 heads, neighbour cap 128, model seed 0) and evaluates and warms
again under the trained ones.  One line per digest::

    <stream> <task> <variant> <what> <sha256>

where ``what`` is ``init-preds`` and ``init-snapshot`` (the untrained
parameters' test ``Predictions``, dtypes included, and the warmed state's
snapshot bytes), ``params`` (parameters with both Adam moments), ``loss``
and ``val`` (the loss and validation traces), ``preds`` and ``snapshot``
(as the first two, under the trained parameters), or ``history`` (the
``(neighbour, time, |w|)`` rows of ``state.history.values()`` after the
trained warm; they depend on the events alone).  The ``init-`` digests
come from no-grad code alone, so they show whether two trees agree there
even where training moves bits.  The package is
imported from ``src/`` of the tree this script is in.  Run it in each tree
and compare::

    python3 scripts/fingerprint.py > digests.txt
"""

import argparse
import hashlib
import sys
import tempfile
from dataclasses import fields
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

from dysignet import harness  # noqa: E402
from dysignet.encoder import AblationConfig  # noqa: E402
from dysignet.events import batches, chronological_split, parse_csv  # noqa: E402
from dysignet.heads import TaskKind  # noqa: E402
from dysignet.tensor import no_grad  # noqa: E402
from stream import StreamShape, generate, write_csv  # noqa: E402

# (pool, zipf, task) of the bench workloads
STREAMS = {"btc-sign": (3783, 0.8, "sign"), "dense-history": (400, 0.3, "existence"),
           "wide-cold": (60000, 0.6, "sign")}


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.asarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _runs():
    for name, (_, _, task) in STREAMS.items():
        tasks = [t.value for t in TaskKind] if name == "btc-sign" else [task]
        for task in tasks:
            for variant in AblationConfig.NAMES:
                yield name, task, variant


def _eval_and_warm(bundle, split, tmp: Path) -> dict[str, str]:
    preds = harness.evaluate_sequential(bundle, split, "test").raw
    warm = split.log.slice(0, split.bounds("val")[1])
    state = bundle.new_state(warm)
    with no_grad():
        for batch in batches(warm, bundle.config.batch_size):
            bundle.encoder.process_batch(batch, state)
    state.save(tmp / "state.snap")
    return {"preds": _digest(*(getattr(preds, f.name) for f in fields(preds))),
            "snapshot": hashlib.sha256((tmp / "state.snap").read_bytes()).hexdigest(),
            "history": hashlib.sha256(repr(state.history.values()).encode()).hexdigest()}


def fingerprint(split, task, variant, args, tmp: Path) -> dict[str, str]:
    config = harness.TrainConfig(
        task=TaskKind.from_name(task), ablation=AblationConfig.from_name(variant),
        batch_size=args.batch_size, embedding_dim=64, memory_dim=32, heads=8,
        neighbor_cap=128, max_epochs=args.epochs, patience=args.epochs, seed=0)
    untrained = harness.build_model(harness.resolve_time_scale(config, split))
    digests = {f"init-{what}": d for what, d in _eval_and_warm(untrained, split, tmp).items()
               if what != "history"}
    result = harness.train(config, split=split)
    bundle = harness.build_model(result.config)
    bundle.params.load_values(result.params.copy_values())
    return {
        **digests,
        "params": result.params.checksum(),
        "loss": _digest(*map(np.asarray, result.loss_trace)),
        "val": _digest(result.val_trace),
        **_eval_and_warm(bundle, split, tmp),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--events", type=int, default=6000)
    parser.add_argument("--epochs", type=int, default=2)
    parser.add_argument("--batch-size", type=int, default=500)
    parser.add_argument("--seed", type=int, default=3, help="stream seed")
    args = parser.parse_args()

    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        splits = {}
        for name, (pool, zipf, _) in STREAMS.items():
            write_csv(generate(StreamShape(pool=pool, events=args.events, zipf=zipf), args.seed),
                      tmp / f"{name}.csv")
            splits[name] = chronological_split(parse_csv(tmp / f"{name}.csv"))
        for name, task, variant in _runs():
            for what, digest in fingerprint(splits[name], task, variant, args, tmp).items():
                print(name, task, variant, what, digest, flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
