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

Ablations: ``ba`` collapses the two memories into one sign-blind slot,
``emb`` uses concatenated memories directly as embeddings, and ``mem``
drops memories entirely and attends over raw node features.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

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
    balanced_aggregation: bool = True
    use_embedding_layer: bool = True
    use_memory: bool = True

    NAMES = ("none", "ba", "emb", "mem")
    # name part -> the flag that part switches off; combined names join
    # their parts with "+" in this order, e.g. "ba+mem"
    _PARTS = {"ba": "balanced_aggregation", "emb": "use_embedding_layer",
              "mem": "use_memory"}

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
    feature_dim: int = 8
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
        if self.ablation.use_memory:
            return self.joint_dim + self.feature_dim
        return self.feature_dim

    @property
    def key_dim(self) -> int:
        # node state plus scalar time-gap and interaction-magnitude channels
        return self.node_state_dim + 2

    @property
    def message_in_dim(self) -> int:
        return 2 * self.slot_dim + 2

    @property
    def embedding_out_dim(self) -> int:
        ab = self.ablation
        if ab.use_embedding_layer:
            return self.embedding_dim
        if ab.use_memory:
            return self.joint_dim
        return self.feature_dim

    @property
    def embedding_source(self) -> str:
        ab = self.ablation
        if ab.use_embedding_layer:
            return "attention over past interactions" if ab.use_memory else "attention over raw features"
        if ab.use_memory:
            return "concatenated memories"
        return "raw features"


@dataclass
class ProvenanceRecord:
    node: int
    slot: int
    source: tuple[int, int] | None
    source_record: "ProvenanceRecord | None"
    prev_self: "ProvenanceRecord | None"


@dataclass
class NodeMemoryState:
    s_plus: np.ndarray
    s_minus: np.ndarray | None
    last_update: float


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
        oldest first, nodes one after another; returns (counts, rows)."""
        counts = np.zeros(nodes.size, dtype=np.intp)
        known = nodes < self.deg.size
        counts[known] = self.deg[nodes[known]]
        if cap is not None:
            np.minimum(counts, cap, out=counts)
        rows = np.empty(int(counts.sum()), dtype=np.intp)
        live = np.flatnonzero(counts)
        cur = self.head[nodes[live]]
        at = np.cumsum(counts)[live] - 1   # where each node's newest row goes
        left = counts[live]
        while cur.size:
            rows[at] = cur
            more = left > 1
            cur, at, left = self.prev[cur[more]], at[more] - 1, left[more] - 1
        return counts, rows

    def tuples(self, rows: np.ndarray) -> list[tuple[int, float, float]]:
        return list(zip(self.nbr[rows].tolist(), self.t[rows].tolist(),
                        self.mag[rows].tolist()))

    def items(self) -> list[tuple[int, list[tuple[int, float, float]]]]:
        """(node, time-ordered rows) for every node with history."""
        nodes = np.flatnonzero(self.deg)
        counts, rows = self.recent(nodes, None)
        flat = self.tuples(rows)
        ends = np.cumsum(counts).tolist()
        return [(n, flat[e - c:e]) for n, c, e in zip(nodes.tolist(), counts.tolist(), ends)]

    def values(self) -> list[list[tuple[int, float, float]]]:
        return [rows for _, rows in self.items()]


class EncoderState:
    """Mutable per-stream state: memories, histories, last-update times."""

    def __init__(self, config: EncoderConfig, features: np.ndarray | None = None,
                 track_provenance: bool = False):
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
        self.features = features
        self.provenance: dict[tuple[int, int], ProvenanceRecord] | None = (
            {} if track_provenance else None)

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

    def node_memory(self, node: int) -> NodeMemoryState:
        last = float(self.last_update_at(np.array([node]))[0])
        if self.config.slot_count == 2:
            return NodeMemoryState(self.memory_value(node, POS), self.memory_value(node, NEG),
                                   last)
        return NodeMemoryState(self.memory_value(node, 0), None, last)

    def feature_row(self, node: int) -> np.ndarray:
        if self.features is None:
            return np.zeros(self.config.feature_dim)
        return self.features[node]

    def feature_rows(self, nodes: np.ndarray) -> np.ndarray:
        if self.features is None:
            return np.zeros((nodes.size, self.config.feature_dim))
        return self.features[nodes]

    def node_history(self, node: int) -> list[tuple[int, float, float]]:
        """The node's most recent ``neighbor_cap`` rows, oldest first."""
        _, rows = self.history.recent(np.array([node]), self.config.neighbor_cap)
        return self.history.tuples(rows)

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
    def load(cls, path, config: EncoderConfig, features: np.ndarray | None = None,
             track_provenance: bool = False) -> "EncoderState":
        doc = json.loads(Path(path).read_text())
        if doc.get("format") != STATE_FORMAT:
            raise ValueError(f"{path}: not an encoder state snapshot")
        if doc.get("version") != STATE_VERSION:
            raise ValueError(f"{path}: unsupported snapshot version")
        if doc["slot_dim"] != config.slot_dim:
            raise ValueError(f"{path}: snapshot slot dim {doc['slot_dim']} != {config.slot_dim}")
        state = cls(config, features=features, track_provenance=track_provenance)
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
                heads=config.heads, key_dim=config.key_dim, value_dim=config.key_dim,
                rng=rng)

    # ------------------------------------------------------------------
    # message generation and memory update

    def process_batch(self, batch_events, state: EncoderState) -> None:
        """Ingest one temporal batch: generate, aggregate, update, then log
        the events into the history.  Predictions for a batch must be made
        by the caller before ingesting it."""
        if not batch_events:
            return
        if batch_events[0].time < state.watermark:
            raise ValueError(
                f"out-of-order batch: starts at {batch_events[0].time} before "
                f"already-ingested time {state.watermark}")
        time, src, dst, weight = np.array(batch_events, dtype=np.float64).T
        src, dst = src.astype(np.intp), dst.astype(np.intp)
        # one row per endpoint, (src -> dst, dst -> src) for each event
        owner = np.column_stack([src, dst]).ravel()
        partner = np.column_stack([dst, src]).ravel()
        time, weight = np.repeat(time, 2), np.repeat(weight, 2)
        if self.config.ablation.use_memory:
            self._ingest_memory(owner, partner, time, weight, state)
        state.history.append(owner, partner, time, np.abs(weight))
        state.watermark = max(state.watermark, batch_events[-1].time)
        state.events_ingested += len(batch_events)

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
        news, routed = [], []
        for slot in range(self.config.slot_count):
            own = state.read_memory(nodes, slot)
            other_slot = np.where(sign > 0, slot, 1 - slot) if balanced else slot
            x = concat([own, state.read_memory(others, other_slot), extras], axis=1)
            news.append(self._mem_cells[slot].apply(self._msg_nets[slot].apply(x), own))
            routed.append(np.broadcast_to(other_slot, nodes.shape))
        if state.provenance is not None:
            self._record_provenance(nodes, others, routed, state.provenance)
        # written only now, so that no slot read another slot's fresh memory
        for slot, new in enumerate(news):
            state.write_memory(nodes, slot, new, t)

    @staticmethod
    def _record_provenance(nodes, others, routed, provenance) -> None:
        records = {}
        for i, (node, other) in enumerate(zip(nodes.tolist(), others.tolist())):
            for slot, other_slots in enumerate(routed):
                source = (other, int(other_slots[i]))
                records[(node, slot)] = ProvenanceRecord(
                    node, slot, source, provenance.get(source), provenance.get((node, slot)))
        provenance.update(records)

    # ------------------------------------------------------------------
    # embeddings

    def _node_state_matrix(self, nodes: np.ndarray, state: EncoderState,
                           features: bool = True) -> Tensor:
        cfg = self.config
        parts = []
        if cfg.ablation.use_memory:
            parts = [state.read_memory(nodes, slot) for slot in range(cfg.slot_count)]
        if features and (cfg.feature_dim or not parts):
            parts.append(Tensor(state.feature_rows(nodes)))
        return parts[0] if len(parts) == 1 else concat(parts, axis=1)

    def compute_embeddings(self, nodes: Sequence[int], t: float,
                           state: EncoderState) -> tuple[Tensor, dict[int, int]]:
        """Batched embeddings for distinct nodes; returns (matrix, node->row)."""
        nodes = list(dict.fromkeys(nodes))
        index = {n: i for i, n in enumerate(nodes)}
        ids = np.asarray(nodes, dtype=np.intp)
        ab = self.config.ablation
        if not ab.use_embedding_layer:
            return self._node_state_matrix(ids, state, features=not ab.use_memory), index

        hq = self._node_state_matrix(ids, state)
        base = matmul(hq, transpose(self.self_proj))
        hist = state.history
        counts, rows = hist.recent(ids, self.config.neighbor_cap)
        if not rows.size:
            return base, index
        extras = np.column_stack([_encode_dt(self.config, t - hist.t[rows]), hist.mag[rows]])
        r = concat([self._node_state_matrix(hist.nbr[rows], state), Tensor(extras)], axis=1)
        att, _ = self.attn.apply(hq, r, r, np.repeat(np.arange(ids.size), counts))
        return add(base, att), index
