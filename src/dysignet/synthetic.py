"""Synthetic stream generators for controlled experiments.

The two-faction stream assigns every node a hidden faction and signs each
uniformly-drawn edge by the product of the endpoint factions, so all
triangles are balanced and signs are deterministically closed under the
balance rules.  Pair selection carries no faction information, which makes
the sign task unsolvable for a sign-blind encoder.
"""

from __future__ import annotations

import numpy as np

from .events import EventLog


def generate_balanced_stream(n_nodes: int = 500, n_events: int = 6000, seed: int = 0,
                             major_fraction: float = 0.9):
    """Returns (EventLog, factions) with factions in {-1, +1} per node and
    weights ±1.

    ``major_fraction`` controls the faction imbalance; real trust networks
    are strongly majority-positive, which corresponds to one dominant
    faction.
    """
    if n_nodes < 2:
        raise ValueError("need at least two nodes")
    rng = np.random.default_rng(seed)
    factions = np.where(rng.random(n_nodes) < major_fraction, 1, -1)
    if np.all(factions == factions[0]):  # degenerate draw on tiny graphs
        factions[0] = -factions[0]
    ends = np.empty((n_events, 2), dtype=np.int32)
    for i in range(n_events):
        u = int(rng.integers(n_nodes))
        v = int(rng.integers(n_nodes - 1))
        ends[i] = u, v + (v >= u)
    src, dst = ends.T.copy()
    weight = (factions[src] * factions[dst]).astype(np.float64)
    log = EventLog(np.arange(1.0, n_events + 1), src, dst, weight, n_nodes, np.arange(n_nodes))
    return log, factions
