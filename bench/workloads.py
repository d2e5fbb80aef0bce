"""Benchmark workloads: one seeded stream shape and one task each.

Every workload runs the same model config (batch 1000, dims 64/32/8
heads, ``neighbor_cap=128``, model seed 0) in one process with one thread
of load, so the workloads differ only in the stream, and each stresses a
different layer.  The expected layer split is each workload's cProfile
cumulative share, measured on a prototype of its stream; the traced run
reports the measured split.
"""

from __future__ import annotations

from dataclasses import dataclass

from stream import StreamShape

EVENTS = 24186           # BTC-Alpha's event count, used by every workload
BATCH_SIZE = 1000
NEIGHBOR_CAP = 128
MODEL_SEED = 0


@dataclass(frozen=True)
class Workload:
    name: str
    task: str
    stream: StreamShape
    why: str
    expected_split: str


WORKLOADS = {w.name: w for w in (
    Workload(
        name="btc-sign",
        task="sign",
        stream=StreamShape(pool=3783, events=EVENTS, zipf=0.8),
        why="BTC-Alpha-shaped stream, sign task: the paper's setting, where "
            "every layer does a real share of the work",
        expected_split="embedding 37%, memory ingest 34%, gather_stack 28% "
                       "(nested), backward 13%, detach_ 7%",
    ),
    Workload(
        name="dense-history",
        task="existence",
        stream=StreamShape(pool=400, events=EVENTS, zipf=0.3),
        why="400-node pool, existence task: histories fill the 128 cap and "
            "uniform negatives double the pairs; no O(N) state rebuild",
        expected_split="compute_embeddings ~55% (gather + attention), negative "
                       "sampling and 2x decoding; detach_ ~1%",
    ),
    Workload(
        name="wide-cold",
        task="sign",
        stream=StreamShape(pool=60000, events=EVENTS, zipf=0.6),
        why="60k-node pool (~20k seen), sign task: mostly cold queries, so "
            "per-node state bookkeeping dominates, not attention",
        expected_split="process_batch ~40%, detach_ ~20%, embedding ~22%; "
                       "no long-history attention, no negative sampling",
    ),
)}
