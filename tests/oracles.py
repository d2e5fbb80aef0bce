"""Per-event reference implementations of the encoder and the decoder.

Each function here is the reference that a batched library path is
compared against: one event, one (node, polarity) slot, one node or one
pair at a time, written as plainly as the maths allows.  The library keeps
only the batched paths.

The negative sampler and the CSV parser have per-event references too:
one draw, one row at a time.  So do the dataset statistics:
``collapse_directed`` and ``collapse_undirected`` keep the latest weight
per directed and per unordered pair in a dict, one event at a time;
``triangle_census`` counts triangles by intersecting each link's
endpoints' neighbour sets; and ``compute_stats`` composes the three into
the library's ``DatasetStats``.

The feed-forward net and the recurrent cell also have composed references
here: one autograd node per primitive, built from the general ops below
(``add``, ``matmul``, ``transpose`` and the elementwise ops), which the
library no longer needs since both layers and the embedding became fused
ops.  So do ``neg``, ``mul`` and ``detach``, which only tests use.  Unlike
the library's ops, these also take plain arrays.
"""

import csv
import gzip
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from dysignet.encoder import NEG, POS
from dysignet.events import SECONDS_PER_DAY, DataError, DatasetStats, SignedEvent
from dysignet.tensor import DimensionError, Tensor, _result, concat


def expit(x):
    """Two-branch logistic sigmoid: each branch exponentiates only
    non-positive values, so neither overflows."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    e = np.exp(x[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _unbroadcast(g, shape):
    """Sum a gradient down to ``shape`` (reverses numpy broadcasting)."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (gs, ss) in enumerate(zip(g.shape, shape)) if ss == 1 and gs != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def add(a, b):
    a, b = as_tensor(a), as_tensor(b)
    data = a.data + b.data

    def vjp(g):
        return _unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)

    return _result(data, (a, b), vjp)


def matmul(a, b):
    """Product of two 2-D tensors."""
    a, b = as_tensor(a), as_tensor(b)
    A, B = a.data, b.data
    if A.ndim != 2 or B.ndim != 2 or A.shape[1] != B.shape[0]:
        raise DimensionError(f"matmul needs (n, k) and (k, m) operands, got {A.shape} and {B.shape}")
    data = A @ B

    def vjp(g):
        return g @ B.T, A.T @ g

    return _result(data, (a, b), vjp)


def transpose(a):
    a = as_tensor(a)

    def vjp(g):
        return (g.T,)

    return _result(a.data.T, (a,), vjp)


def neg(a):
    a = as_tensor(a)

    def vjp(g):
        return (-g,)

    return _result(-a.data, (a,), vjp)


def mul(a, b):
    """Elementwise product of two tensors of one shape."""
    a, b = as_tensor(a), as_tensor(b)

    def vjp(g):
        return g * b.data, g * a.data

    return _result(a.data * b.data, (a, b), vjp)


def detach(a):
    """A constant leaf with ``a``'s values: gradient stops here."""
    return Tensor(a.data)


def relu(a):
    a = as_tensor(a)

    def vjp(g):
        return (g * (a.data > 0),)

    return _result(np.maximum(a.data, 0.0), (a,), vjp)


def sigmoid(a):
    a = as_tensor(a)
    s = expit(a.data)

    def vjp(g):
        return (g * s * (1.0 - s),)

    return _result(s, (a,), vjp)


def tanh(a):
    a = as_tensor(a)
    t = np.tanh(a.data)

    def vjp(g):
        return (g * (1.0 - t * t),)

    return _result(t, (a,), vjp)


def slice_last(a, start, stop):
    a = as_tensor(a)

    def vjp(g):
        full = np.zeros_like(a.data)
        full[..., start:stop] = g
        return (full,)

    return _result(a.data[..., start:stop], (a,), vjp)


def feedforward(net, x) -> Tensor:
    """``net``'s output as seven composed ops."""
    h = relu(add(matmul(x, transpose(net.w1)), net.b1))
    return add(matmul(h, transpose(net.w2)), net.b2)


def cell_step(cell, x, state):
    """``cell``'s step as about twenty composed ops; returns (new state,
    gate name -> gate tensor)."""
    z = add(add(matmul(x, transpose(cell.w)), matmul(state, transpose(cell.u))), cell.b)
    d = cell.out_dim
    gate_in = sigmoid(slice_last(z, 0, d))
    gate_forget = sigmoid(slice_last(z, d, 2 * d))
    cand = tanh(slice_last(z, 2 * d, 3 * d))
    gate_out = sigmoid(slice_last(z, 3 * d, 4 * d))
    new = mul(gate_out, tanh(add(mul(gate_forget, state), mul(gate_in, cand))))
    return new, dict(zip(cell.GATES, (gate_in, gate_forget, cand, gate_out)))


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


def memory_value(state, node: int, slot: int) -> np.ndarray:
    """A copy of one (node, slot) memory; zeros for a node never written."""
    if node < state.size:
        return state.mem[node, slot].copy()
    return np.zeros(state.config.slot_dim)


def node_history(state, node: int) -> list[tuple[int, float, float]]:
    """The node's most recent ``neighbor_cap`` history rows as the state's
    view reads them, oldest first."""
    _, _, rows = state.history.recent(np.array([node]), state.config.neighbor_cap)
    return list(zip(*(a.tolist() for a in state.history.read(rows[::-1]))))


def histories(events) -> dict[int, list[tuple[int, float, float]]]:
    """Each node's history rows as ``(neighbour, time, |w|)``, oldest
    first, built event by event: the source's row, then the
    destination's."""
    rows: dict[int, list[tuple[int, float, float]]] = {}
    for ev in events:
        for a, b in ((ev.src, ev.dst), (ev.dst, ev.src)):
            rows.setdefault(a, []).append((b, ev.time, abs(ev.weight)))
    return rows


def memory_tensor(state, node: int, slot: int) -> Tensor:
    """One (node, slot) memory as a constant (1, d) row."""
    return Tensor([memory_value(state, node, slot)])


def _encode_dt(config, dt: float) -> float:
    return (config.time_scale or 1.0) * float(np.log1p(max(dt, 0.0)))


def route_event(encoder, event, state) -> list[Route]:
    """Balanced routing per endpoint: own slot first, the partner slot
    chosen by the edge sign (same polarity for +, opposite for -)."""
    w = event.weight
    if w == 0.0:
        raise ValueError("signed events must have non-zero weight")
    mag = abs(w)
    routes = []
    for a, b in ((event.src, event.dst), (event.dst, event.src)):
        dt = event.time - state.last_update_at(np.array([a]))[0]
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
            Tensor([[_encode_dt(encoder.config, r.dt), r.magnitude]]),
        ], axis=1)
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
        state.write_memory(np.array([node]), slot, new, np.array([m.time]))


@dataclass
class Provenance:
    """Where one (node, slot) memory's last update read from: the routed
    partner slot, that slot's own record at the time, and this slot's
    record before the update."""
    node: int
    slot: int
    source: tuple[int, int]
    source_record: "Provenance | None"
    prev_self: "Provenance | None"


def trace_provenance(encoder, events, state) -> dict:
    """Ingest ``events``, the next ones of the state's log, one at a time
    along the reference path and return (node, slot) -> :class:`Provenance`
    of its last update, built from the ``sources`` each message records.
    Every record of an event links to the records from before that event,
    as its messages read pre-event memories."""
    provenance: dict[tuple[int, int], Provenance] = {}
    for ev in events:
        aggregated = aggregate_messages(generate_messages(encoder, ev, state))
        provenance.update({
            key: Provenance(*key, m.sources[1], provenance.get(m.sources[1]),
                            provenance.get(key))
            for key, m in aggregated.items()})
        update_memories(encoder, aggregated, state)
        state.history.advance(1)
        state.watermark = ev.time
    return provenance


def ingest_taped(encoder, events, state) -> None:
    """Ingest one batch, the next events of the state's log, along the
    reference path with every winner's memory update recorded for gradient
    at once: every message reads pre-batch memories, the latest per (node,
    polarity) wins, and its cell step is written with its tape."""
    messages = [m for ev in events for m in generate_messages(encoder, ev, state)]
    update_memories(encoder, aggregate_messages(messages), state)
    state.history.advance(len(events))
    state.watermark = max(ev.time for ev in events)


def node_state(encoder, node: int, state) -> np.ndarray:
    """A node's memory slots side by side; no columns without memory."""
    cfg = encoder.config
    if not cfg.ablation.use_memory:
        return np.zeros(0)
    return np.concatenate([memory_value(state, node, slot) for slot in range(cfg.slot_count)])


def attention(attn, query: np.ndarray, rows: np.ndarray):
    """Single-query self projection plus multi-head attention in plain
    numpy; returns (output (out_dim,), weights (heads, n)).  With no rows
    the output is the self projection alone."""
    heads = attn.heads
    dh = attn.out_dim // heads
    base = attn.self_proj.data @ query
    if not len(rows):
        return base, np.zeros((heads, 0))
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
    return base + np.concatenate(out), np.array(weights)


def compute_embedding(encoder, node: int, t: float, state) -> np.ndarray:
    """Long-term embedding of one node at query time ``t``."""
    cfg = encoder.config
    h = node_state(encoder, node, state)
    if not cfg.ablation.use_embedding_layer:
        return h
    hist = node_history(state, node)
    rows = np.array([
        np.concatenate([node_state(encoder, i, state), [_encode_dt(cfg, t - tau), mag]])
        for i, tau, mag in hist
    ]).reshape(len(hist), encoder.attn.key_dim)
    return attention(encoder.attn, h, rows)[0]


def score_pair(decoder, z_u: np.ndarray, z_v: np.ndarray) -> np.ndarray:
    """Decoder output for one ordered pair of embedding vectors."""
    return decoder.net.apply(Tensor([np.concatenate([z_u, z_v])])).data[0]


def auroc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Rank-statistic AUROC with ties averaged by walking each run of equal
    sorted scores."""
    order = np.argsort(scores, kind="mergesort")
    ranks = np.empty(scores.size)
    sorted_vals = scores[order]
    i = 0
    while i < scores.size:
        j = i
        while j + 1 < scores.size and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        ranks[order[i:j + 1]] = 0.5 * (i + j) + 1.0  # 1-based, ties averaged
        i = j + 1
    n_pos = int(np.sum(labels == 1))
    n_neg = labels.size - n_pos
    u = ranks[labels == 1].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


def gather_stack(items, g):
    """Per-item gather: the stacked rows, and each tensor's gradient (keyed
    by ``id``) for an output gradient ``g``, summed from zeros item by item
    in item order."""
    values = np.array([t.data[r] for t, r in items])
    grads = {}
    for (t, r), gi in zip(items, g):
        grads.setdefault(id(t), np.zeros_like(t.data))[r] += gi
    return values, grads


def split_trans_inductive(events, train_nodes: set[int]):
    """Per-event views of a stream against the nodes seen in training:
    links with both endpoints seen (transductive) and with both unseen
    (inductive); links mixing one seen and one unseen endpoint belong to
    neither view."""
    trans, ind = [], []
    for ev in events:
        a = ev.src in train_nodes
        b = ev.dst in train_nodes
        if a and b:
            trans.append(ev)
        elif not a and not b:
            ind.append(ev)
    return trans, ind


def negative_sample(events, universe, rng):
    """Per-event negative sampler: one corrupted pair per event, its
    destination drawn one value at a time until it differs from the true
    one."""
    universe = np.asarray(universe)
    if universe.size <= 1:
        return []
    out = []
    for ev in events:
        v = int(universe[rng.integers(universe.size)])
        while v == ev.dst:
            v = int(universe[rng.integers(universe.size)])
        out.append((ev.src, v))
    return out


def parse_rows(path):
    """Row-by-row parse of a ``src,dst,weight,time`` edge list: returns
    (events, raw ids in dense-id order as :func:`raw_id_array` types them,
    skip counts), applying the filters one row at a time.  Raises
    ``DataError`` when no row survives."""
    rows = []
    skipped = {"short": 0, "unparsable": 0, "nonfinite": 0, "zero_weight": 0,
               "self_loop": 0}
    with (gzip.open(path, "rt") if str(path).endswith(".gz") else open(path, "rt")) as fh:
        for lineno, cells in enumerate(csv.reader(fh), start=1):
            if not cells or (len(cells) == 1 and not cells[0].strip()):
                continue
            if len(cells) < 4 or not cells[2].strip() or not cells[3].strip():
                skipped["short"] += 1
                continue
            try:
                w, t = float(cells[2]), float(cells[3])
            except ValueError:
                if lineno == 1:
                    continue  # header row
                skipped["unparsable"] += 1
                continue
            if not (math.isfinite(t) and math.isfinite(w)):
                skipped["nonfinite"] += 1
                continue
            src_raw, dst_raw = cells[0].strip(), cells[1].strip()
            if w == 0.0:
                skipped["zero_weight"] += 1
                continue
            if src_raw == dst_raw:
                skipped["self_loop"] += 1
                continue
            rows.append((t, src_raw, dst_raw, w))
    if not rows:
        raise DataError(f"{path}: no usable events after filtering")
    rows.sort(key=lambda r: r[0])  # stable: ties keep file order
    id_map: dict = {}
    events = []
    for t, s_raw, d_raw, w in rows:
        s = id_map.setdefault(s_raw, len(id_map))
        d = id_map.setdefault(d_raw, len(id_map))
        events.append(SignedEvent(t, s, d, w))
    return events, raw_id_array(list(id_map)), skipped


def raw_id_array(ids: list[str]) -> np.ndarray:
    """Raw ids as int64 when each one is the canonical spelling of an
    integer that int64 holds, else as fixed-width strings."""
    try:
        values = [int(s) for s in ids]
    except ValueError:
        return np.array(ids)
    if all(str(v) == s and -2 ** 63 <= v < 2 ** 63 for v, s in zip(values, ids)):
        return np.array(values, dtype=np.int64)
    return np.array(ids)


def collapse_directed(events) -> dict[tuple[int, int], float]:
    """Latest weight per directed pair (input must be time-ordered)."""
    return {(ev.src, ev.dst): ev.weight for ev in events}


def collapse_undirected(events) -> dict[tuple[int, int], float]:
    """Latest weight per unordered pair; a later event overrides either
    direction, so conflicting reciprocal signs resolve to the newest one."""
    return {(min(ev.src, ev.dst), max(ev.src, ev.dst)): ev.weight for ev in events}


def triangle_census(edge_signs: dict[tuple[int, int], float]) -> tuple[int, int]:
    """(total, unbalanced) triangle counts on an undirected signed graph.

    A triangle is unbalanced iff the product of its three edge signs is
    negative.
    """
    adj: dict[int, set[int]] = {}
    for u, v in edge_signs:
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)

    def sign(a, b):
        return edge_signs[(a, b) if a < b else (b, a)]

    total = 0
    unbalanced = 0
    for (u, v), w_uv in edge_signs.items():
        for w in adj[u] & adj[v]:
            total += 1
            if w_uv * sign(u, w) * sign(v, w) < 0:
                unbalanced += 1
    # each triangle was seen once per edge
    return total // 3, unbalanced // 3


def compute_stats(logdata) -> DatasetStats:
    """The dataset statistics from the three references above, over the
    log's ``SignedEvent`` rows."""
    if not len(logdata):
        raise DataError("cannot compute statistics of an empty log")
    directed = collapse_directed(logdata)
    undirected = collapse_undirected(logdata)
    n_pos = sum(1 for w in directed.values() if w > 0)
    triangles, unbalanced = triangle_census(undirected)
    t0, t1 = logdata.time_span()
    span = t1 - t0
    return DatasetStats(
        node_count=logdata.node_count,
        link_count=len(undirected),
        f_plus=n_pos / len(directed),
        f_ub=(unbalanced / triangles) if triangles else 0.0,
        days=round(span / SECONDS_PER_DAY),
        event_count=len(logdata),
        directed_pair_count=len(directed),
        span_seconds=span,
        triangle_count=triangles,
        unbalanced_triangle_count=unbalanced,
        has_triangles=triangles > 0,
    )
