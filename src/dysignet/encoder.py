"""Stream encoder for dynamic signed networks.

Each node carries a positive and a negative memory vector.  Every edge
addition emits messages routed by the edge sign: a positive edge mixes
memories of the same polarity, a negative edge mixes memories of opposite
polarity.  Each polarity has its own message net and recurrent cell.
Long-term embeddings attend over the node's full interaction history so
representations keep moving even for nodes with no recent events.

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
from typing import NamedTuple, Sequence

import numpy as np

from .layers import Feedforward, MultiHeadAttention, RecurrentCell, uniform_init
from .params import ParameterSet, _decode, _encode
from .tensor import Tensor, add, concat, gather_stack, matmul, transpose

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

    @classmethod
    def from_name(cls, name: str) -> "AblationConfig":
        if name == "none":
            return cls()
        if name == "ba":
            return cls(balanced_aggregation=False)
        if name == "emb":
            return cls(use_embedding_layer=False)
        if name == "mem":
            return cls(use_memory=False)
        raise ValueError(f"unknown ablation {name!r} (choose from {cls.NAMES})")

    @property
    def name(self) -> str:
        if not self.use_memory:
            return "mem" if self.balanced_aggregation and self.use_embedding_layer else "custom"
        if not self.use_embedding_layer:
            return "emb" if self.balanced_aggregation else "custom"
        if not self.balanced_aggregation:
            return "ba"
        return "none"


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


class _Route(NamedTuple):
    target: int
    slot: int
    self_src: tuple[int, int]
    other_src: tuple[int, int]
    dt: float
    time: float
    magnitude: float


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


class EncoderState:
    """Mutable per-stream state: memories, histories, last-update times."""

    def __init__(self, config: EncoderConfig, features: np.ndarray | None = None,
                 track_provenance: bool = False):
        self.config = config
        self._memory: dict[tuple[int, int], tuple[Tensor, int | None]] = {}
        self.last_update: dict[int, float] = {}
        self.history: dict[int, list[tuple[int, float, float]]] = {}
        self.watermark = 0.0
        self.events_ingested = 0
        self.features = features
        self._zero = Tensor(np.zeros(config.slot_dim)) if config.ablation.use_memory else None
        self._zero_feat = np.zeros(config.feature_dim)
        self.provenance: dict[tuple[int, int], ProvenanceRecord] | None = (
            {} if track_provenance else None)

    def memory_ref(self, node: int, slot: int):
        return self._memory.get((node, slot), (self._zero, None))

    def memory_value(self, node: int, slot: int) -> np.ndarray:
        t, r = self.memory_ref(node, slot)
        return np.array(t.data if r is None else t.data[r])

    def set_memory(self, node: int, slot: int, tensor: Tensor, row_index: int | None = None):
        self._memory[(node, slot)] = (tensor, row_index)

    def node_memory(self, node: int) -> NodeMemoryState:
        if self.config.slot_count == 2:
            return NodeMemoryState(self.memory_value(node, POS), self.memory_value(node, NEG),
                                   self.last_update.get(node, 0.0))
        return NodeMemoryState(self.memory_value(node, 0), None,
                               self.last_update.get(node, 0.0))

    def feature_row(self, node: int) -> np.ndarray:
        if self.features is None:
            return self._zero_feat
        return self.features[node]

    def node_history(self, node: int) -> list[tuple[int, float, float]]:
        hist = self.history.get(node, ())
        cap = self.config.neighbor_cap
        if cap is not None and len(hist) > cap:
            return hist[-cap:]
        return list(hist)

    def detach_(self) -> None:
        """Freeze all memory values as constants, truncating gradient flow."""
        for key, (t, r) in list(self._memory.items()):
            value = t.data if r is None else t.data[r]
            self._memory[key] = (Tensor(np.array(value)), None)

    def save(self, path) -> None:
        doc = {
            "format": STATE_FORMAT,
            "version": STATE_VERSION,
            "slot_dim": self.config.slot_dim,
            "watermark": self.watermark,
            "events_ingested": self.events_ingested,
            "memory": {
                f"{node}:{slot}": _encode(self.memory_value(node, slot))
                for (node, slot) in self._memory
            },
            "last_update": {str(k): v for k, v in self.last_update.items()},
            "history": {str(k): v for k, v in self.history.items()},
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
        for key, text in doc["memory"].items():
            node_s, slot_s = key.split(":")
            state.set_memory(int(node_s), int(slot_s), Tensor(_decode(text, (-1,))))
        state.last_update = {int(k): float(v) for k, v in doc["last_update"].items()}
        state.history = {
            int(k): [(int(n), float(t), float(m)) for n, t, m in rows]
            for k, rows in doc["history"].items()
        }
        return state


def _log1p_nonneg(x: float) -> float:
    return math.log1p(max(x, 0.0))


def _encode_dt(config: EncoderConfig, dt: float) -> float:
    return config.time_scale * _log1p_nonneg(dt)


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

    def route_event(self, event, state: EncoderState) -> list[_Route]:
        """Balanced routing per endpoint: own slot first, the partner slot
        chosen by the edge sign (same polarity for +, opposite for -)."""
        w = event.weight
        if w == 0.0:
            raise ValueError("signed events must have non-zero weight")
        mag = abs(w)
        routes = []
        for a, b in ((event.src, event.dst), (event.dst, event.src)):
            dt = event.time - state.last_update.get(a, 0.0)
            if self.config.ablation.balanced_aggregation:
                routes.append(_Route(a, POS, (a, POS), (b, POS if w > 0 else NEG),
                                     dt, event.time, mag))
                routes.append(_Route(a, NEG, (a, NEG), (b, NEG if w > 0 else POS),
                                     dt, event.time, mag))
            else:
                routes.append(_Route(a, 0, (a, 0), (b, 0), dt, event.time, mag))
        return routes

    def _provenance_records(self, updates, state: EncoderState):
        if state.provenance is None:
            return None
        records = {}
        for (node, slot), other in updates:
            records[(node, slot)] = ProvenanceRecord(
                node, slot, other,
                state.provenance.get(other),
                state.provenance.get((node, slot)))
        return records

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
        if self.config.ablation.use_memory:
            self._ingest_memory(batch_events, state)
        for ev in batch_events:
            mag = abs(ev.weight)
            state.history.setdefault(ev.src, []).append((ev.dst, ev.time, mag))
            state.history.setdefault(ev.dst, []).append((ev.src, ev.time, mag))
        state.watermark = max(state.watermark, batch_events[-1].time)
        state.events_ingested += len(batch_events)

    def _ingest_memory(self, batch_events, state: EncoderState) -> None:
        # Keep only the winning (most recent) route per slot before running
        # the message net: selection does not depend on the payload, so this
        # is equivalent to generating everything and then aggregating.
        selected: dict[tuple[int, int], _Route] = {}
        for ev in batch_events:
            for r in self.route_event(ev, state):
                key = (r.target, r.slot)
                cur = selected.get(key)
                if cur is None or r.time >= cur.time:
                    selected[key] = r
        records = self._provenance_records(
            [(key, r.other_src) for key, r in selected.items()], state)
        updates = []
        for slot in range(self.config.slot_count):
            routes = [r for r in selected.values() if r.slot == slot]
            own = gather_stack([state.memory_ref(*r.self_src) for r in routes])
            x = concat([
                own,
                gather_stack([state.memory_ref(*r.other_src) for r in routes]),
                Tensor(np.array([[_encode_dt(self.config, r.dt), r.magnitude]
                                 for r in routes])),
            ], axis=1)
            new = self._mem_cells[slot].apply(self._msg_nets[slot].apply(x), own)
            updates.append((routes, new))
        # written only now, so that no slot read another slot's fresh memory
        for routes, new in updates:
            for j, r in enumerate(routes):
                state.set_memory(r.target, r.slot, new, j)
                state.last_update[r.target] = max(state.last_update.get(r.target, 0.0),
                                                  r.time)
        if records:
            state.provenance.update(records)

    # ------------------------------------------------------------------
    # embeddings

    def _node_state_matrix(self, nodes: Sequence[int], state: EncoderState) -> Tensor:
        cfg = self.config
        parts = []
        if cfg.ablation.use_memory:
            for slot in range(cfg.slot_count):
                parts.append(gather_stack([state.memory_ref(n, slot) for n in nodes]))
        if cfg.feature_dim:
            parts.append(Tensor(np.array([state.feature_row(n) for n in nodes])))
        return parts[0] if len(parts) == 1 else concat(parts, axis=1)

    def compute_embeddings(self, nodes: Sequence[int], t: float,
                           state: EncoderState) -> tuple[Tensor, dict[int, int]]:
        """Batched embeddings for distinct nodes; returns (matrix, node->row)."""
        nodes = list(dict.fromkeys(nodes))
        index = {n: i for i, n in enumerate(nodes)}
        cfg = self.config
        ab = cfg.ablation
        if not ab.use_embedding_layer:
            if ab.use_memory:
                parts = [gather_stack([state.memory_ref(n, slot) for n in nodes])
                         for slot in range(cfg.slot_count)]
                z = parts[0] if len(parts) == 1 else concat(parts, axis=1)
            else:
                z = Tensor(np.array([state.feature_row(n) for n in nodes]))
            return z, index

        hq = self._node_state_matrix(nodes, state)
        base = matmul(hq, transpose(self.self_proj))
        seg: list[int] = []
        nbrs: list[int] = []
        extras: list[tuple[float, float]] = []
        for qi, node in enumerate(nodes):
            for i, tau, mag in state.node_history(node):
                seg.append(qi)
                nbrs.append(i)
                extras.append((_encode_dt(self.config, t - tau), mag))
        if not seg:
            return base, index
        r = concat([self._node_state_matrix(nbrs, state), Tensor(np.array(extras))], axis=1)
        att, _ = self.attn.apply(hq, r, r, np.asarray(seg, dtype=np.intp))
        return add(base, att), index
