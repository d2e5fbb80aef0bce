"""Stream encoder for dynamic signed networks.

Each node carries a positive and a negative memory vector.  Every edge
addition emits messages routed by the edge sign: a positive edge mixes
memories of the same polarity, a negative edge mixes memories of opposite
polarity.  Each polarity has its own message net and recurrent cell.
Long-term embeddings attend over the node's full interaction history so
representations keep moving even for nodes with no recent events.

State layout (:class:`EncoderState`):

- memory arrays: ``mem[node, slot]`` holds one polarity memory and
  ``last_update[node]`` the time of the node's last memory write, for node
  ids below ``size``; capacity grows by doubling when a batch brings a
  larger id, and an id never ingested reads as zeros;
- fresh-row overlay: rows written with gradient since the last
  ``detach_`` are also kept, in write order, in one ``fresh`` tensor, and
  ``fresh_row[node, slot]`` points at them.  A read under gradient is
  ``take_rows(fresh, fresh_row[...], mem[...])``, so gradients reach the
  batch that wrote a memory, and ``detach_`` only forgets the overlay;
- linked history log (:class:`HistoryLog`): one append-only row per
  (event, endpoint) with a pointer to the owner's previous row, so a
  node's most recent rows are a walk back from its head.

A temporal batch is ingested in one batched pass per polarity slot, which
keeps two invariants:

- every message reads pre-batch memories: all slots build their inputs
  before any slot's memory is written;
- per (node, polarity) the most recent message wins, and a time tie goes
  to the message generated later in the batch.

Memory-update path: per slot, the message net and the recurrent cell are
each one autograd op (:func:`tensor.feedforward`,
:func:`tensor.recurrent_cell`) with a hand-written vjp, not a chain of
primitives.  The saving is in memory traffic, not arithmetic: the composed
cell built about twenty graph nodes, each allocating a fresh (n, d) or
(n, 4d) temporary whose first touch costs page faults.  The fused cell
reads each gate's column block once into one contiguous gate buffer, runs
the rest in place and keeps only the gates and tanh of the cell value for
the backward pass.  Both ops add and multiply in the composed order
(``x·wᵀ``, then ``+ state·uᵀ``, then ``+ b``; each gradient term as its
primitive formed it), so values and gradients keep their bits; a stacked
``[w; u]`` matmul would reorder the sums and is not used.

Embedding path: a query's history rows often point at the same few
neighbours, so ``compute_embeddings`` reads the state of each distinct
neighbour once into a table, keeps the time gap and magnitude of each row
as per-row extras, and runs the whole segmented attention as one fused op
(:func:`tensor.segment_attention`) over ``[table[index], extras]``: every
distinct neighbour is read and projected once per call, and its gradient
is summed back onto its table row.  The rows come packed position-major
straight from :meth:`HistoryLog.recent`: queries ordered by row count,
longest first, and block p holding every query's p-th newest row, so each
per-query sum in the op is at most ``neighbor_cap`` in-place adds over a
shrinking prefix, with no sort and no ``reduceat``.  Those sums run newest
row first and sequentially, which is not the order of the segment-major
reduction before, so embeddings and gradients moved in the last bits.
The two constant extras (time gap, magnitude) enter through per-query
projections of ``wk`` and ``wv`` rather than as (n, 2D) projected rows;
the op builds no (n, 2D) row temporary and reuses one (n, D) row buffer
across its forward and backward passes.

Ablations: a node's state is exactly its memories, ``[s+, s−]``.  ``ba``
collapses them into one sign-blind slot, and ``emb`` uses the state
directly as the embedding.  ``mem`` drops memories, so the node state is
empty: the query has no columns, every history row of a query weighs the
same, and the embedding is the history mean of the value projection of
``[time gap, |w|]``.  Dropping both memories and the embedding layer
would leave no node representation, so that combination is rejected.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .events import EventLog
from .layers import Feedforward, MultiHeadAttention, RecurrentCell, uniform_init
from .params import ParameterSet, _decode, _encode
# gather_stack is not called here, but bench/spans.py patches this module's name
from .tensor import gather_stack  # noqa: F401
from .tensor import Tensor, add, concat, grad_enabled, matmul, take_rows, transpose

POS = 0
NEG = 1

STATE_FORMAT = "dysignet-encoder-state"
STATE_VERSION = 1


@dataclass(frozen=True)
class AblationConfig:
    """Which parts of the model a variant keeps.  ``ba`` acts only on
    memories, so ``ba+mem`` is the same model as ``mem``; and under ``mem``
    the query is empty, every attention logit is 0 whatever ``wk`` is, and
    ``wk`` gets zero gradient."""

    balanced_aggregation: bool = True
    use_embedding_layer: bool = True
    use_memory: bool = True

    NAMES = ("none", "ba", "emb", "mem")
    # name part -> the flag that part switches off; combined names join
    # their parts with "+" in this order, e.g. "ba+mem"
    _PARTS = {"ba": "balanced_aggregation", "emb": "use_embedding_layer",
              "mem": "use_memory"}

    def __post_init__(self):
        if not (self.use_embedding_layer or self.use_memory):
            raise ValueError(f"ablation {self.name!r} leaves no node representation "
                             f"(a node's state is its memories)")

    @classmethod
    def from_name(cls, name: str) -> "AblationConfig":
        if name == "none":
            return cls()
        parts = name.split("+")
        if len(set(parts)) != len(parts) or not set(parts) <= cls._PARTS.keys():
            raise ValueError(f"unknown ablation {name!r} (choose from {cls.NAMES} "
                             f"or a '+'-joined combination)")
        return cls(**{cls._PARTS[p]: False for p in parts})

    @property
    def name(self) -> str:
        return "+".join(p for p, flag in self._PARTS.items()
                        if not getattr(self, flag)) or "none"


@dataclass(frozen=True)
class EncoderConfig:
    memory_dim: int = 32          # per polarity; the joint memory is twice this
    embedding_dim: int = 64
    heads: int = 8
    neighbor_cap: int | None = None   # keep only the most recent N history rows
    time_scale: float = 1.0           # time gaps enter as time_scale * log1p(dt)
    ablation: AblationConfig = field(default_factory=AblationConfig)

    @property
    def slot_count(self) -> int:
        return 2 if self.ablation.balanced_aggregation else 1

    @property
    def slot_dim(self) -> int:
        # the sign-blind variant keeps one slot sized like the joint memory
        return self.memory_dim if self.slot_count == 2 else 2 * self.memory_dim

    @property
    def joint_dim(self) -> int:
        return 2 * self.memory_dim

    @property
    def node_state_dim(self) -> int:
        return self.joint_dim if self.ablation.use_memory else 0

    @property
    def key_dim(self) -> int:
        # node state plus scalar time-gap and interaction-magnitude channels
        return self.node_state_dim + 2

    @property
    def message_in_dim(self) -> int:
        return 2 * self.slot_dim + 2

    @property
    def embedding_out_dim(self) -> int:
        return self.embedding_dim if self.ablation.use_embedding_layer else self.joint_dim

    @property
    def embedding_source(self) -> str:
        if not self.ablation.use_embedding_layer:
            return "concatenated memories"
        if self.ablation.use_memory:
            return "attention over past interactions"
        return "attention over interaction time and magnitude"


def _grown(arr: np.ndarray, length: int, fill) -> np.ndarray:
    """``arr`` extended along axis 0 to ``length`` rows of ``fill``."""
    out = np.full((length,) + arr.shape[1:], fill, dtype=arr.dtype)
    out[:arr.shape[0]] = arr
    return out


class HistoryLog:
    """Every node's interaction history as one append-only log.

    Row ``i`` is an interaction with ``nbr[i]`` at time ``t[i]`` of
    magnitude ``mag[i]``; ``prev[i]`` is the same owner's previous row (-1
    before its first).  ``head[n]`` is node ``n``'s newest row and
    ``deg[n]`` its row count.  The arrays grow by doubling.
    """

    def __init__(self):
        self.length = 0
        self.nbr = np.zeros(0, dtype=np.intp)
        self.t = np.zeros(0)
        self.mag = np.zeros(0)
        self.prev = np.zeros(0, dtype=np.intp)
        self.head = np.zeros(0, dtype=np.intp)
        self.deg = np.zeros(0, dtype=np.intp)

    def append(self, owners: np.ndarray, nbrs, times, mags) -> None:
        """Log one row per owner, in the given order."""
        start, end = self.length, self.length + owners.size
        if end > self.nbr.size:
            cap = max(end, 2 * self.nbr.size)
            self.nbr, self.t, self.mag, self.prev = (
                _grown(a, cap, 0) for a in (self.nbr, self.t, self.mag, self.prev))
        need = int(owners.max()) + 1
        if need > self.head.size:
            cap = max(need, 2 * self.head.size)
            self.head, self.deg = _grown(self.head, cap, -1), _grown(self.deg, cap, 0)
        self.nbr[start:end], self.t[start:end], self.mag[start:end] = nbrs, times, mags
        # link each row to its owner's previous row: the row before it in a
        # stable sort by owner, or the owner's head for its first row here
        order = np.argsort(owners, kind="stable")
        owner = owners[order]
        rows = start + order
        first = np.r_[True, owner[1:] != owner[:-1]]
        prev = np.r_[-1, rows[:-1]]
        prev[first] = self.head[owner[first]]
        self.prev[rows] = prev
        last = np.r_[first[1:], True]
        self.head[owner[last]] = rows[last]
        np.add.at(self.deg, owners, 1)
        self.length = end

    def recent(self, nodes: np.ndarray, cap: int | None):
        """Each node's ``cap`` most recent rows (all of them for None),
        packed position-major for :func:`tensor.segment_attention`.

        ``order`` lists the positions in ``nodes`` of the nodes with rows,
        by row count descending (ties keep their order in ``nodes``), and
        block p of ``rows``, ``sizes[p]`` long, holds the p-th newest row of
        each of the first ``sizes[p]`` nodes in ``order``.  The walk back
        from the heads visits the rows in exactly this order: a step's
        survivors are a prefix of the last step's.  Returns (order, sizes,
        rows)."""
        counts = np.zeros(nodes.size, dtype=np.intp)
        known = nodes < self.deg.size
        counts[known] = self.deg[nodes[known]]
        if cap is not None:
            np.minimum(counts, cap, out=counts)
        live = np.flatnonzero(counts)
        order = live[np.argsort(-counts[live], kind="stable")]
        # sizes[p] = how many nodes have more than p rows
        sizes = order.size - np.cumsum(np.bincount(counts[order]))[:-1]
        cur = self.head[nodes[order]]
        blocks = [cur]
        for m in sizes[1:].tolist():
            cur = self.prev[cur[:m]]
            blocks.append(cur)
        return order, sizes, np.concatenate(blocks)

    def tuples(self, rows: np.ndarray) -> list[tuple[int, float, float]]:
        return list(zip(self.nbr[rows].tolist(), self.t[rows].tolist(),
                        self.mag[rows].tolist()))

    def items(self) -> list[tuple[int, list[tuple[int, float, float]]]]:
        """(node, time-ordered rows) for every node with history."""
        nodes = np.flatnonzero(self.deg)
        order, sizes, rows = self.recent(nodes, None)
        ends = np.cumsum(sizes)
        owner = order[np.arange(rows.size) - np.repeat(ends - sizes, sizes)]
        # reversed, the packed rows run oldest first per node; a stable
        # sort by owner then groups them node by node
        flat = self.tuples(rows[::-1][np.argsort(owner[::-1], kind="stable")])
        counts = self.deg[nodes].tolist()
        return [(n, flat[e - c:e])
                for n, c, e in zip(nodes.tolist(), counts, itertools.accumulate(counts))]

    def values(self) -> list[list[tuple[int, float, float]]]:
        return [rows for _, rows in self.items()]


class EncoderState:
    """Mutable per-stream state: memories, histories, last-update times."""

    def __init__(self, config: EncoderConfig):
        self.config = config
        slots = config.slot_count if config.ablation.use_memory else 0
        self.size = 0
        self.mem = np.zeros((0, slots, config.slot_dim))
        self._last_update = np.zeros(0)
        self._written = np.zeros(0, dtype=bool)
        self._fresh: Tensor | None = None
        self._fresh_row = np.zeros((0, slots), dtype=np.intp)
        self._fresh_nodes: list[np.ndarray] = []
        self.history = HistoryLog()
        self.watermark = 0.0
        self.events_ingested = 0

    @property
    def last_update(self) -> np.ndarray:
        """Last memory-write time per node id below ``size``."""
        return self._last_update[:self.size]

    def _reserve(self, need: int) -> None:
        if need > self._last_update.size:
            cap = max(need, 2 * self._last_update.size)
            self.mem = _grown(self.mem, cap, 0.0)
            self._last_update = _grown(self._last_update, cap, 0.0)
            self._written = _grown(self._written, cap, False)
            self._fresh_row = _grown(self._fresh_row, cap, -1)
        self.size = max(self.size, need)

    def last_update_at(self, nodes: np.ndarray) -> np.ndarray:
        """Last memory-write times; 0.0 for nodes never written."""
        out = np.zeros(nodes.size)
        known = nodes < self.size
        out[known] = self._last_update[nodes[known]]
        return out

    def read_memory(self, nodes: np.ndarray, slots) -> Tensor:
        """Memories of (nodes[i], slots[i]) as rows; ``slots`` may be one
        slot for all.  Rows written with gradient since the last
        ``detach_`` carry it; the rest are constants."""
        slots = np.broadcast_to(slots, nodes.shape)
        known = nodes < self.size
        fill = np.zeros((nodes.size, self.config.slot_dim))
        fill[known] = self.mem[nodes[known], slots[known]]
        if self._fresh is None or not grad_enabled():
            return Tensor(fill)
        rows = np.full(nodes.size, -1, dtype=np.intp)
        rows[known] = self._fresh_row[nodes[known], slots[known]]
        return take_rows(self._fresh, rows, fill)

    def write_memory(self, nodes: np.ndarray, slot: int, new: Tensor, times) -> None:
        """Set the memories of (nodes[i], slot) to ``new[i]`` and advance
        each node's last update to ``times[i]``; ``nodes`` are distinct."""
        self._reserve(int(nodes.max()) + 1)
        self.mem[nodes, slot] = new.data
        self._last_update[nodes] = np.maximum(self._last_update[nodes], times)
        self._written[nodes] = True
        if new.requires_grad:
            base = 0 if self._fresh is None else self._fresh.data.shape[0]
            self._fresh = new if self._fresh is None else concat([self._fresh, new])
            self._fresh_row[nodes, slot] = base + np.arange(nodes.size)
            self._fresh_nodes.append(nodes)
        else:
            self._fresh_row[nodes, slot] = -1

    def written_nodes(self) -> np.ndarray:
        """Ids of the nodes whose memory has been written, ascending."""
        return np.flatnonzero(self._written)

    def memory_value(self, node: int, slot: int) -> np.ndarray:
        if node < self.size:
            return self.mem[node, slot].copy()
        return np.zeros(self.config.slot_dim)

    def node_history(self, node: int) -> list[tuple[int, float, float]]:
        """The node's most recent ``neighbor_cap`` rows, oldest first."""
        _, _, rows = self.history.recent(np.array([node]), self.config.neighbor_cap)
        return self.history.tuples(rows[::-1])

    def detach_(self) -> None:
        """Freeze all memory values as constants, truncating gradient flow.
        Costs the rows written since the last detach, not the node count."""
        for nodes in self._fresh_nodes:
            self._fresh_row[nodes] = -1
        self._fresh_nodes.clear()
        self._fresh = None

    def save(self, path) -> None:
        written = self.written_nodes().tolist()
        doc = {
            "format": STATE_FORMAT,
            "version": STATE_VERSION,
            "slot_dim": self.config.slot_dim,
            "watermark": self.watermark,
            "events_ingested": self.events_ingested,
            "memory": {
                f"{node}:{slot}": _encode(self.mem[node, slot])
                for node in written for slot in range(self.mem.shape[1])
            },
            "last_update": {str(node): float(self._last_update[node]) for node in written},
            "history": {str(node): rows for node, rows in self.history.items()},
        }
        Path(path).write_text(json.dumps(doc))

    @classmethod
    def load(cls, path, config: EncoderConfig) -> "EncoderState":
        doc = json.loads(Path(path).read_text())
        if doc.get("format") != STATE_FORMAT:
            raise ValueError(f"{path}: not an encoder state snapshot")
        if doc.get("version") != STATE_VERSION:
            raise ValueError(f"{path}: unsupported snapshot version")
        if doc["slot_dim"] != config.slot_dim:
            raise ValueError(f"{path}: snapshot slot dim {doc['slot_dim']} != {config.slot_dim}")
        state = cls(config)
        state.watermark = float(doc["watermark"])
        state.events_ingested = int(doc["events_ingested"])
        memory = {tuple(int(x) for x in key.split(":")): _decode(text, (-1,))
                  for key, text in doc["memory"].items()}
        last = {int(k): float(v) for k, v in doc["last_update"].items()}
        written = sorted(last.keys() | {node for node, _ in memory})
        if written:
            state._reserve(written[-1] + 1)
        state._written[written] = True
        for (node, slot), value in memory.items():
            state.mem[node, slot] = value
        for node, value in last.items():
            state._last_update[node] = value
        for node, rows in doc["history"].items():
            nbrs, times, mags = zip(*rows)
            state.history.append(np.full(len(rows), int(node)), nbrs, times, mags)
        return state


def _encode_dt(config: EncoderConfig, dt: np.ndarray) -> np.ndarray:
    # math.log1p, not np.log1p: the two can differ in the last bit
    gaps = np.fromiter(map(math.log1p, np.maximum(dt, 0.0).tolist()), np.float64, dt.size)
    return config.time_scale * gaps


class EncoderModel:
    """Owns the learned encoder layers; operates on an :class:`EncoderState`."""

    def __init__(self, params: ParameterSet, config: EncoderConfig,
                 rng: np.random.Generator | None = None, name: str = "encoder"):
        rng = rng if rng is not None else np.random.default_rng(0)
        self.config = config
        ab = config.ablation
        if ab.use_memory:
            # One full memory module (message net + cell) per polarity slot.
            # Sharing them across polarities would pin s+ == s- forever under
            # zero initialization: both slots of a node always update together,
            # and at equal slot values the routed inputs coincide.
            slot_tag = {POS: "plus", NEG: "minus"} if ab.balanced_aggregation else {0: "all"}
            self._msg_nets = [
                Feedforward(params, f"{name}.msg_{slot_tag[slot]}", config.message_in_dim,
                            config.slot_dim, rng=rng)
                for slot in range(config.slot_count)
            ]
            self._mem_cells = [
                RecurrentCell(params, f"{name}.mem_{slot_tag[slot]}",
                              config.slot_dim, config.slot_dim, rng=rng)
                for slot in range(config.slot_count)
            ]
        if ab.use_embedding_layer:
            h = config.node_state_dim
            self.self_proj = params.add(
                f"{name}.emb.self_proj",
                uniform_init(rng, (config.embedding_dim, h), h))
            self.attn = MultiHeadAttention(
                params, f"{name}.emb.attn", query_dim=h, out_dim=config.embedding_dim,
                heads=config.heads, key_dim=config.key_dim, rng=rng)

    # ------------------------------------------------------------------
    # message generation and memory update

    def process_batch(self, batch: EventLog, state: EncoderState) -> None:
        """Ingest one temporal batch: generate, aggregate, update, then log
        the events into the history.  Predictions for a batch must be made
        by the caller before ingesting it."""
        if not len(batch):
            return
        start, end = batch.time_span()
        if start < state.watermark:
            raise ValueError(
                f"out-of-order batch: starts at {start} before "
                f"already-ingested time {state.watermark}")
        # one row per endpoint, (src -> dst, dst -> src) for each event
        owner = np.column_stack([batch.src, batch.dst]).ravel()
        partner = np.column_stack([batch.dst, batch.src]).ravel()
        time, weight = np.repeat(batch.time, 2), np.repeat(batch.weight, 2)
        if self.config.ablation.use_memory:
            self._ingest_memory(owner, partner, time, weight, state)
        state.history.append(owner, partner, time, np.abs(weight))
        state.watermark = max(state.watermark, end)
        state.events_ingested += len(batch)

    def _ingest_memory(self, owner, partner, time, weight, state: EncoderState) -> None:
        if (weight == 0.0).any():
            raise ValueError("signed events must have non-zero weight")
        # Keep only the winning (most recent) endpoint row per node before
        # running the message net: selection does not depend on the payload,
        # so this equals generating everything and then aggregating.  A
        # stable sort makes the later row win a time tie; winners are
        # ordered by each node's first appearance in the batch.
        order = np.lexsort((time, owner))
        last = order[np.flatnonzero(np.diff(owner[order], append=-1))]
        _, first = np.unique(owner, return_index=True)
        win = last[np.argsort(first)]
        nodes, others, sign, t = owner[win], partner[win], weight[win], time[win]
        extras = Tensor(np.column_stack([
            _encode_dt(self.config, t - state.last_update_at(nodes)), np.abs(sign)]))
        balanced = self.config.ablation.balanced_aggregation
        news = []
        for slot in range(self.config.slot_count):
            own = state.read_memory(nodes, slot)
            other_slot = np.where(sign > 0, slot, 1 - slot) if balanced else slot
            x = concat([own, state.read_memory(others, other_slot), extras], axis=1)
            news.append(self._mem_cells[slot].apply(self._msg_nets[slot].apply(x), own))
        # written only now, so that no slot read another slot's fresh memory
        for slot, new in enumerate(news):
            state.write_memory(nodes, slot, new, t)

    # ------------------------------------------------------------------
    # embeddings

    def _node_state_matrix(self, nodes: np.ndarray, state: EncoderState) -> Tensor:
        """Each node's memory slots side by side: ``[s+, s−]``, the one
        sign-blind slot, or no columns at all without memory."""
        if not self.config.ablation.use_memory:
            return Tensor(np.zeros((nodes.size, 0)))
        parts = [state.read_memory(nodes, slot) for slot in range(self.config.slot_count)]
        return parts[0] if len(parts) == 1 else concat(parts, axis=1)

    def compute_embeddings(self, nodes: Sequence[int], t: float,
                           state: EncoderState) -> tuple[Tensor, dict[int, int]]:
        """Batched embeddings for distinct nodes; returns (matrix, node->row)."""
        nodes = list(dict.fromkeys(nodes))
        index = {n: i for i, n in enumerate(nodes)}
        ids = np.asarray(nodes, dtype=np.intp)
        if not self.config.ablation.use_embedding_layer:
            return self._node_state_matrix(ids, state), index

        hq = self._node_state_matrix(ids, state)
        base = matmul(hq, transpose(self.self_proj))
        hist = state.history
        order, sizes, rows = hist.recent(ids, self.config.neighbor_cap)
        if not rows.size:
            return base, index
        uniq, inv = np.unique(hist.nbr[rows], return_inverse=True)
        extras = np.column_stack([_encode_dt(self.config, t - hist.t[rows]), hist.mag[rows]])
        att, _ = self.attn.apply(hq, self._node_state_matrix(uniq, state), inv, extras,
                                 order, sizes)
        return add(base, att), index
