"""Seeded synthetic signed streams shaped like SNAP BTC-Alpha.

A stream is a list of ``(src, dst, weight, time)`` rows written as a CSV
that ``dysignet.events.parse_csv`` reads, so the program under test only
ever receives generated input files.

Shape, per stream:

* endpoints are drawn from a node pool with Zipf-like popularity
  ``p(rank) ~ rank ** -zipf`` (heavy-tailed degrees);
* every node has a hidden faction, one faction holding ``majority`` of
  the pool; an edge is positive iff its endpoints share a faction, so all
  triangles are balanced and, at a 95% majority, ~90% of edges are
  positive;
* weights are integers with ``|w|`` in 1..10, small magnitudes common;
* events come in bursts: one rater rates several nodes within minutes,
  timestamps are whole minutes (so bursts produce ties) and bursts spread
  unevenly over a multi-year span.

Run as a script to write a stream and print its shape::

    python3 bench/stream.py --workload btc-sign --seed 1 --out stream.csv
"""

from __future__ import annotations

import argparse
import csv
import json
from dataclasses import dataclass

import numpy as np

SPAN_S = 5.2 * 365 * 86400.0   # BTC-Alpha covers Nov 2010 .. Jan 2016
T0 = 1289000000.0              # unix time of the first burst window
MINUTE = 60.0


@dataclass(frozen=True)
class StreamShape:
    """Generator parameters of one workload's stream."""

    pool: int                  # node ids the endpoints are drawn from
    events: int                # rows written (no self-loops, no zero weights)
    zipf: float                # popularity exponent; 0 is uniform
    majority: float = 0.95     # share of the pool in the larger faction
    mean_burst: float = 4.0    # mean events per rater session


def _popularity(rng: np.random.Generator, pool: int, zipf: float) -> np.ndarray:
    """Node-id -> draw probability, heavy-tailed and shuffled over ids."""
    weights = np.arange(1, pool + 1, dtype=np.float64) ** -zipf
    weights = weights[rng.permutation(pool)]
    return weights / weights.sum()


def _magnitudes(rng: np.random.Generator, n: int) -> np.ndarray:
    """Integer magnitudes in 1..10 with small values most common."""
    return np.minimum(rng.geometric(0.45, size=n), 10)


def generate(shape: StreamShape, seed: int) -> np.ndarray:
    """Rows ``(src, dst, weight, time)`` sorted by time (stable), float64.

    The same ``(shape, seed)`` always gives the same rows.
    """
    rng = np.random.default_rng(seed)
    pool, n = shape.pool, shape.events
    factions = np.where(rng.random(pool) < shape.majority, 1, -1)
    pop = _popularity(rng, pool, shape.zipf)

    # Rater sessions: burst sizes >= 1 until they cover n events.
    sizes = rng.geometric(1.0 / shape.mean_burst, size=n)
    sizes = sizes[: int(np.searchsorted(np.cumsum(sizes), n)) + 1]
    sizes[-1] -= sizes.sum() - n
    n_bursts = sizes.size
    raters = rng.choice(pool, size=n_bursts, p=pop)
    # Session start times: a random walk whose step lengths are lognormal,
    # so quiet months alternate with busy weeks, scaled onto the span.
    gaps = rng.lognormal(mean=0.0, sigma=1.5, size=n_bursts)
    starts = np.cumsum(gaps)
    starts = T0 + np.floor((starts - starts[0]) / starts[-1] * SPAN_S / MINUTE) * MINUTE

    src = np.repeat(raters, sizes)
    dst = rng.choice(pool, size=n, p=pop)
    clash = dst == src
    while clash.any():
        dst[clash] = rng.choice(pool, size=int(clash.sum()), p=pop)
        clash = dst == src
    # Within a session, ratings land a few whole minutes apart; many share
    # a minute with their neighbour.
    offsets = np.floor(rng.exponential(6.0, size=n)) * MINUTE
    time = np.repeat(starts, sizes) + offsets
    sign = factions[src] * factions[dst]
    weight = sign * _magnitudes(rng, n)

    order = np.argsort(time, kind="stable")
    rows = np.column_stack([src + 1, dst + 1, weight, time]).astype(np.float64)
    return rows[order]


def write_csv(rows: np.ndarray, path) -> None:
    """Header plus integer ``src,dst,weight,time`` rows."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["src", "dst", "weight", "time"])
        writer.writerows(rows.astype(np.int64).tolist())


def describe(rows: np.ndarray) -> dict:
    """The stream's measured shape, from the rows alone."""
    src = rows[:, 0].astype(np.int64)
    dst = rows[:, 1].astype(np.int64)
    time = rows[:, 3]
    nodes, degree = np.unique(np.concatenate([src, dst]), return_counts=True)
    top = max(1, int(np.ceil(0.01 * nodes.size)))
    _, time_counts = np.unique(time, return_counts=True)
    return {
        "nodes_seen": int(nodes.size),
        "events": int(rows.shape[0]),
        "positive_share": float(np.mean(rows[:, 2] > 0)),
        "tied_time_share": float(time_counts[time_counts > 1].sum() / rows.shape[0]),
        "top1pct_degree_share": float(np.sort(degree)[::-1][:top].sum() / degree.sum()),
        "span_days": float((time[-1] - time[0]) / 86400.0),
    }


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description="Write one workload's stream as CSV.")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    rows = generate(WORKLOADS[args.workload].stream, args.seed)
    write_csv(rows, args.out)
    print(json.dumps(describe(rows)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
