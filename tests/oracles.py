"""Per-event reference implementations of the encoder and the decoder.

Each function here is the reference that a batched library path is
compared against: one event, one (node, polarity) slot, one node or one
pair at a time, written as plainly as the maths allows.  The library keeps
only the batched paths.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from dysignet.encoder import NEG, POS
from dysignet.tensor import Tensor, concat, reshape


class Route(NamedTuple):
    target: int
    slot: int
    self_src: tuple[int, int]
    other_src: tuple[int, int]
    dt: float
    time: float
    magnitude: float


@dataclass
class SignedMessage:
    node: int
    polarity: int
    time: float
    payload: Tensor
    sources: tuple[tuple[int, int], tuple[int, int]]  # (own slot read, routed slot read)


def memory_tensor(state, node: int, slot: int) -> Tensor:
    """One (node, slot) memory as a constant 1-D tensor."""
    return Tensor(state.memory_value(node, slot))


def _encode_dt(config, dt: float) -> float:
    return config.time_scale * math.log1p(max(dt, 0.0))


def route_event(encoder, event, state) -> list[Route]:
    """Balanced routing per endpoint: own slot first, the partner slot
    chosen by the edge sign (same polarity for +, opposite for -)."""
    w = event.weight
    if w == 0.0:
        raise ValueError("signed events must have non-zero weight")
    mag = abs(w)
    routes = []
    for a, b in ((event.src, event.dst), (event.dst, event.src)):
        dt = event.time - state.node_memory(a).last_update
        if encoder.config.ablation.balanced_aggregation:
            routes.append(Route(a, POS, (a, POS), (b, POS if w > 0 else NEG),
                                dt, event.time, mag))
            routes.append(Route(a, NEG, (a, NEG), (b, NEG if w > 0 else POS),
                                dt, event.time, mag))
        else:
            routes.append(Route(a, 0, (a, 0), (b, 0), dt, event.time, mag))
    return routes


def generate_messages(encoder, event, state) -> list[SignedMessage]:
    """One message per routed (endpoint, polarity) of a single event."""
    out = []
    for r in route_event(encoder, event, state):
        vec = concat([
            memory_tensor(state, *r.self_src),
            memory_tensor(state, *r.other_src),
            Tensor([_encode_dt(encoder.config, r.dt), r.magnitude]),
        ])
        out.append(SignedMessage(r.target, r.slot, r.time,
                                 encoder._msg_nets[r.slot].apply(vec),
                                 (r.self_src, r.other_src)))
    return out


def aggregate_messages(messages) -> dict:
    """Most recent message per (node, polarity); ties keep the later one."""
    out: dict[tuple[int, int], SignedMessage] = {}
    for m in messages:
        key = (m.node, m.polarity)
        if key not in out or m.time >= out[key].time:
            out[key] = m
    return out


def update_memories(encoder, aggregated: dict, state) -> None:
    """Advance each addressed (node, polarity) slot one cell step; slots
    without a message are left untouched."""
    for (node, slot), m in aggregated.items():
        old = memory_tensor(state, node, slot)
        new = encoder._mem_cells[slot].apply(m.payload, old)
        state.write_memory(np.array([node]), slot, reshape(new, (1, -1)), np.array([m.time]))


def log_history(state, events) -> None:
    """Append each event to both endpoints' histories, source first."""
    for ev in events:
        for a, b in ((ev.src, ev.dst), (ev.dst, ev.src)):
            state.history.append(np.array([a]), [b], [ev.time], [abs(ev.weight)])


def node_state(encoder, node: int, state) -> np.ndarray:
    """[s+, s-, features] of one node; memories only when the model has them."""
    cfg = encoder.config
    parts = []
    if cfg.ablation.use_memory:
        parts.extend(state.memory_value(node, slot) for slot in range(cfg.slot_count))
    if cfg.feature_dim:
        parts.append(state.feature_row(node))
    return np.concatenate(parts)


def attention(attn, query: np.ndarray, rows: np.ndarray):
    """Single-query multi-head attention in plain numpy; returns
    (output (out_dim,), weights (heads, n))."""
    heads = attn.spec.heads
    dh = attn.spec.out_dim // heads
    q = attn.wq.data @ query
    k = rows @ attn.wk.data.T
    v = rows @ attn.wv.data.T
    out, weights = [], []
    for hd in range(heads):
        sl = slice(hd * dh, (hd + 1) * dh)
        logits = k[:, sl] @ q[sl] / np.sqrt(dh)
        alpha = np.exp(logits - logits.max())
        alpha /= alpha.sum()
        weights.append(alpha)
        out.append(alpha @ v[:, sl])
    return np.concatenate(out), np.array(weights)


def compute_embedding(encoder, node: int, t: float, state) -> np.ndarray:
    """Long-term embedding of one node at query time ``t``."""
    cfg = encoder.config
    ab = cfg.ablation
    if not ab.use_embedding_layer:
        if ab.use_memory:
            return np.concatenate([state.memory_value(node, slot)
                                   for slot in range(cfg.slot_count)])
        return state.feature_row(node)
    h = node_state(encoder, node, state)
    base = encoder.self_proj.data @ h
    hist = state.node_history(node)
    if not hist:
        return base
    rows = np.array([
        np.concatenate([node_state(encoder, i, state), [_encode_dt(cfg, t - tau), mag]])
        for i, tau, mag in hist
    ])
    return base + attention(encoder.attn, h, rows)[0]


def score_pair(decoder, z_u: Tensor, z_v: Tensor) -> Tensor:
    """Decoder output for one ordered pair of embedding vectors."""
    return decoder.net.apply(concat([z_u, z_v]))
