from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dysignet.encoder import NEG, POS, EncoderState
from dysignet.events import SignedEvent
from dysignet.harness import build_model
from dysignet.tensor import no_grad

from helpers import tiny_config
from oracles import (
    aggregate_messages,
    attention,
    compute_embedding,
    generate_messages,
    log_history,
    route_event,
    update_memories,
)


def make_encoder(ablation="none", seed=0, **overrides):
    config = tiny_config(ablation=ablation, seed=seed, **overrides)
    bundle = build_model(config)
    return bundle.encoder, bundle.params, config


def seeded_state(encoder, events, seed=0, track_provenance=False):
    """State with distinguishable (non-zero) memories: ingest a warmup batch."""
    state = EncoderState(encoder.config, track_provenance=track_provenance)
    if events:
        encoder.process_batch(events, state)
    return state


def _ev(t, u, v, w):
    return SignedEvent(float(t), u, v, float(w))


def embed(enc, node, t, state):
    """One node's row of the batched embedding path."""
    z, index = enc.compute_embeddings([node], t, state)
    return z.data[index[node]]


# ---------------------------------------------------------------- routing

def test_routing_law_positive_edge():
    enc, _, _ = make_encoder()
    state = seeded_state(enc, [])
    msgs = generate_messages(enc, _ev(1.0, 0, 1, 2.5), state)
    by_key = {(m.node, m.polarity): m for m in msgs}
    assert by_key[(0, POS)].sources == ((0, POS), (1, POS))
    assert by_key[(0, NEG)].sources == ((0, NEG), (1, NEG))
    assert by_key[(1, POS)].sources == ((1, POS), (0, POS))
    assert by_key[(1, NEG)].sources == ((1, NEG), (0, NEG))


def test_routing_law_negative_edge():
    enc, _, _ = make_encoder()
    state = seeded_state(enc, [])
    msgs = generate_messages(enc, _ev(1.0, 0, 1, -2.5), state)
    by_key = {(m.node, m.polarity): m for m in msgs}
    assert by_key[(0, POS)].sources == ((0, POS), (1, NEG))
    assert by_key[(0, NEG)].sources == ((0, NEG), (1, POS))
    assert by_key[(1, POS)].sources == ((1, POS), (0, NEG))
    assert by_key[(1, NEG)].sources == ((1, NEG), (0, POS))


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_routing_law_property(seed):
    # the plus-slot of each endpoint reads the partner slot of equal polarity
    # iff the edge is positive; the minus-slot reads the complement
    rng = np.random.default_rng(seed)
    enc, _, _ = make_encoder(seed=int(rng.integers(1000)))
    warm = [_ev(t + 1, int(rng.integers(5)), 5 + int(rng.integers(5)),
                float(rng.choice([-2, -1, 1, 3]))) for t in range(6)]
    state = seeded_state(enc, warm)
    w = float(rng.choice([-4, -1, 1, 4]))
    u, v = int(rng.integers(5)), 5 + int(rng.integers(5))
    msgs = generate_messages(enc, _ev(50.0, u, v, w), state)
    for m in msgs:
        own, other = m.sources
        assert own == (m.node, m.polarity)
        partner = v if m.node == u else u
        expected_slot = m.polarity if w > 0 else 1 - m.polarity
        assert other == (partner, expected_slot)


def test_zero_state_sign_symmetry():
    # with all-zero memories, only routing and |weight| differ between a
    # positive and a negative event, so same-polarity payloads coincide
    enc, _, _ = make_encoder()
    state = seeded_state(enc, [])
    plus = generate_messages(enc, _ev(1.0, 0, 1, 2.0), state)
    minus = generate_messages(enc, _ev(1.0, 0, 1, -2.0), state)
    for a, b in zip(plus, minus):
        assert (a.node, a.polarity) == (b.node, b.polarity)
        assert np.array_equal(a.payload.data, b.payload.data)


def test_message_payload_matches_concat_oracle():
    enc, params, config = make_encoder(seed=5)
    warm = [_ev(1, 0, 1, 2), _ev(2, 1, 2, -1), _ev(3, 0, 2, 1)]
    state = seeded_state(enc, warm)
    event = _ev(7.0, 0, 2, -3.0)
    msgs = generate_messages(enc, event, state)
    m = {(g.node, g.polarity): g for g in msgs}[(0, POS)]
    vec = np.concatenate([
        state.memory_value(0, POS),
        state.memory_value(2, NEG),
        [config.time_scale * np.log1p(7.0 - state.last_update[0]), 3.0],
    ])
    w1, b1 = params["encoder.msg_plus.w1"].data, params["encoder.msg_plus.b1"].data
    w2, b2 = params["encoder.msg_plus.w2"].data, params["encoder.msg_plus.b2"].data
    expected = w2 @ np.maximum(w1 @ vec + b1, 0.0) + b2
    assert np.abs(m.payload.data - expected).max() < 1e-12


def test_zero_weight_event_rejected():
    enc, _, _ = make_encoder()
    state = seeded_state(enc, [])
    with pytest.raises(ValueError):
        generate_messages(enc, _ev(1.0, 0, 1, 0.0), state)


# ---------------------------------------------------------- aggregation

def test_aggregate_keeps_most_recent():
    enc, _, _ = make_encoder()
    state = seeded_state(enc, [])
    m1 = generate_messages(enc, _ev(1.0, 0, 1, 1.0), state)
    m5 = generate_messages(enc, _ev(5.0, 0, 2, 1.0), state)
    agg = aggregate_messages(m1 + m5)
    assert agg[(0, POS)].time == 5.0
    assert agg[(0, POS)].sources[1][0] == 2


def test_aggregate_tie_keeps_later_position():
    enc, _, _ = make_encoder()
    state = seeded_state(enc, [])
    a = generate_messages(enc, _ev(5.0, 0, 1, 1.0), state)
    b = generate_messages(enc, _ev(5.0, 0, 2, 1.0), state)
    agg = aggregate_messages(a + b)
    assert agg[(0, POS)].sources[1][0] == 2


def test_aggregate_single_message_is_itself():
    enc, _, _ = make_encoder()
    state = seeded_state(enc, [])
    msgs = generate_messages(enc, _ev(2.0, 0, 1, -1.0), state)
    agg = aggregate_messages(msgs)
    assert set(agg) == {(0, POS), (0, NEG), (1, POS), (1, NEG)}
    for key, m in agg.items():
        assert (m.node, m.polarity) == key


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_most_recent_aggregation_property(seed):
    # per (node, polarity) the aggregate is the newest message; exact time
    # ties resolve to the later generation position
    rng = np.random.default_rng(seed)
    enc, _, _ = make_encoder(seed=int(rng.integers(1000)))
    state = seeded_state(enc, [_ev(1, 0, 1, 1)])
    times = rng.integers(2, 6, size=int(rng.integers(1, 8)))
    msgs = []
    for t in np.sort(times):
        u, v = int(rng.integers(3)), 3 + int(rng.integers(3))
        msgs.extend(generate_messages(enc, _ev(float(t), u, v,
                                               float(rng.choice([-1, 1]))), state))
    agg = aggregate_messages(msgs)
    for key, winner in agg.items():
        candidates = [m for m in msgs if (m.node, m.polarity) == key]
        newest = max(c.time for c in candidates)
        expected = [c for c in candidates if c.time == newest][-1]
        assert winner is expected


def test_untouched_node_absent_and_memory_unchanged():
    enc, _, _ = make_encoder()
    warm = [_ev(1, 0, 1, 1), _ev(2, 2, 3, -1)]
    state = seeded_state(enc, warm)
    before = state.memory_value(2, POS)
    enc.process_batch([_ev(5.0, 0, 1, 1.0)], state)
    assert np.array_equal(state.memory_value(2, POS), before)


# ------------------------------------------------------- memory updates

def test_update_polarity_isolation():
    enc, _, _ = make_encoder(seed=2)
    state = seeded_state(enc, [_ev(1, 0, 1, 1), _ev(2, 0, 2, -2)])
    minus_before = state.memory_value(0, NEG)
    msgs = generate_messages(enc, _ev(9.0, 0, 1, 1.0), state)
    plus_only = {k: v for k, v in aggregate_messages(msgs).items() if k[1] == POS}
    update_memories(enc, plus_only, state)
    assert np.array_equal(state.memory_value(0, NEG), minus_before)
    assert not np.array_equal(state.memory_value(0, POS), minus_before)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_polarity_isolation_property(seed):
    # an event never changes the memories of nodes that are not endpoints
    rng = np.random.default_rng(seed)
    enc, _, _ = make_encoder(seed=int(rng.integers(1000)))
    warm = [_ev(t + 1, int(rng.integers(4)), 4 + int(rng.integers(4)),
                float(rng.choice([-1, 1]))) for t in range(5)]
    state = seeded_state(enc, warm)
    u, v = 0, 4 + int(rng.integers(4))
    others = [n for n in range(8) if n not in (u, v)]
    before = {(n, s): state.memory_value(n, s) for n in others for s in (POS, NEG)}
    enc.process_batch([_ev(9.0, u, v, float(rng.choice([-3, 2])))], state)
    for key, val in before.items():
        assert np.array_equal(state.memory_value(*key), val)


def test_zero_cell_parameters_keep_memory_zero():
    enc, params, _ = make_encoder(seed=3)
    for name in params.names():
        if ".mem_" in name:
            params[name].data[...] = 0.0
    state = seeded_state(enc, [])
    enc.process_batch([_ev(1, 0, 1, 5), _ev(2, 0, 2, -7)], state)
    for slot in (POS, NEG):
        assert np.array_equal(state.memory_value(0, slot), np.zeros(4))


def test_single_event_batch_equals_reference_ops():
    enc, _, _ = make_encoder(seed=4)
    warm = [_ev(1, 0, 1, 1), _ev(2, 1, 2, -1)]
    fast = seeded_state(enc, warm)
    ref = seeded_state(enc, warm)
    event = _ev(6.0, 0, 2, -2.0)

    enc.process_batch([event], fast)

    msgs = generate_messages(enc, event, ref)
    update_memories(enc, aggregate_messages(msgs), ref)
    log_history(ref, [event])
    ref.watermark = 6.0

    for n in (0, 1, 2):
        for slot in (POS, NEG):
            assert np.allclose(fast.memory_value(n, slot), ref.memory_value(n, slot),
                               atol=1e-15)
        assert fast.node_memory(n).last_update == ref.node_memory(n).last_update
    assert fast.history.items() == ref.history.items()


def test_batch_path_equals_reference_path_on_random_batch():
    enc, _, _ = make_encoder(seed=6)
    rng = np.random.default_rng(7)
    warm = [_ev(t + 1, int(rng.integers(4)), 4 + int(rng.integers(4)),
                float(rng.choice([-2, 1]))) for t in range(8)]
    fast = seeded_state(enc, warm)
    ref = seeded_state(enc, warm)
    batch = [_ev(20 + t, int(rng.integers(4)), 4 + int(rng.integers(4)),
                 float(rng.choice([-1, 3]))) for t in range(6)]

    enc.process_batch(batch, fast)

    msgs = []
    for ev in batch:
        msgs.extend(generate_messages(enc, ev, ref))
    update_memories(enc, aggregate_messages(msgs), ref)
    log_history(ref, batch)
    ref.watermark = batch[-1].time

    for n in range(8):
        for slot in (POS, NEG):
            assert np.allclose(fast.memory_value(n, slot), ref.memory_value(n, slot),
                               atol=1e-12)


def test_two_batches_differ_from_one_batch():
    # a node active in both halves gets two cell steps instead of one
    enc, _, _ = make_encoder(seed=8)
    one = seeded_state(enc, [])
    two = seeded_state(enc, [])
    e1, e2 = _ev(1.0, 0, 1, 1.0), _ev(2.0, 0, 2, 1.0)
    enc.process_batch([e1, e2], one)
    enc.process_batch([e1], two)
    enc.process_batch([e2], two)
    assert not np.allclose(one.memory_value(0, POS), two.memory_value(0, POS))

    # the two-step result equals explicit sequential reference processing
    ref = seeded_state(enc, [])
    for ev in (e1, e2):
        update_memories(enc, aggregate_messages(generate_messages(enc, ev, ref)), ref)
        log_history(ref, [ev])
        ref.watermark = ev.time
    assert np.allclose(two.memory_value(0, POS), ref.memory_value(0, POS), atol=1e-15)


@st.composite
def _streams(draw):
    """Batches over nodes 0..5 with repeated endpoints, self-loops, equal
    times, and batches whose events are not sorted by time."""
    batches, start = [], 0
    for _ in range(draw(st.integers(1, 4))):
        times = draw(st.lists(st.integers(start, start + 3), min_size=1, max_size=6))
        batch = [_ev(t, draw(st.integers(0, 5)), draw(st.integers(0, 5)),
                     draw(st.sampled_from([-3.0, -1.0, 1.0, 2.0]))) for t in times]
        batches.append(batch)
        start = max(times)
    return batches


@settings(max_examples=60, deadline=None)
@given(_streams(), st.sampled_from(["none", "ba"]), st.sampled_from([None, 2]),
       st.integers(0, 1000))
def test_array_state_equals_per_event_oracle_state(batches, ablation, cap, seed):
    enc, _, _ = make_encoder(ablation=ablation, seed=seed, neighbor_cap=cap)
    fast = EncoderState(enc.config)
    ref = EncoderState(enc.config)
    rows = {n: [] for n in range(7)}   # plain per-node history lists
    for batch in batches:
        enc.process_batch(batch, fast)
        msgs = [m for ev in batch for m in generate_messages(enc, ev, ref)]
        update_memories(enc, aggregate_messages(msgs), ref)
        log_history(ref, batch)
        for ev in batch:
            rows[ev.src].append((ev.dst, ev.time, abs(ev.weight)))
            rows[ev.dst].append((ev.src, ev.time, abs(ev.weight)))
    for n in range(7):
        for slot in range(enc.config.slot_count):
            assert np.abs(fast.memory_value(n, slot) - ref.memory_value(n, slot)).max() <= 1e-12
        assert fast.node_memory(n).last_update == ref.node_memory(n).last_update
        expected = rows[n] if cap is None else rows[n][-cap:]
        assert fast.node_history(n) == ref.node_history(n) == expected


def test_out_of_order_batch_rejected():
    enc, _, _ = make_encoder()
    state = seeded_state(enc, [_ev(5, 0, 1, 1)])
    with pytest.raises(ValueError):
        enc.process_batch([_ev(3.0, 1, 2, 1.0)], state)


def test_last_update_tracks_most_recent_contribution():
    enc, _, _ = make_encoder()
    state = seeded_state(enc, [])
    enc.process_batch([_ev(1, 0, 1, 1), _ev(4, 0, 2, -1), _ev(9, 1, 2, 1)], state)
    assert state.last_update[0] == 4.0
    assert state.last_update[1] == 9.0
    assert state.last_update[2] == 9.0


# ------------------------------------------------------------ provenance

def test_higher_order_balance_provenance_chain():
    # events (1,2,+) then (1,3,-): node 3's minus memory consumed node 1's
    # plus memory, which had consumed node 2's plus memory
    enc, _, _ = make_encoder()
    state = EncoderState(enc.config, track_provenance=True)
    enc.process_batch([_ev(1.0, 1, 2, 1.0)], state)
    enc.process_batch([_ev(2.0, 1, 3, -1.0)], state)
    rec = state.provenance[(3, NEG)]
    assert rec.source == (1, POS)
    assert rec.source_record is not None
    assert rec.source_record.source == (2, POS)


# ------------------------------------------------------------ embeddings

def test_embedding_empty_history_is_projection():
    enc, params, _ = make_encoder(seed=9)
    state = seeded_state(enc, [_ev(1, 1, 2, 1)])  # node 0 never seen
    z = embed(enc, 0, 5.0, state)
    h = np.concatenate([state.memory_value(0, POS), state.memory_value(0, NEG),
                        state.feature_row(0)])
    assert np.array_equal(z, params["encoder.emb.self_proj"].data @ h)


def test_embedding_single_neighbor_formula():
    enc, params, config = make_encoder(seed=10)
    state = seeded_state(enc, [_ev(1.0, 0, 1, -2.0)])
    t = 4.0
    z = embed(enc, 0, t, state)
    h_u = np.concatenate([state.memory_value(0, POS), state.memory_value(0, NEG),
                          state.feature_row(0)])
    h_i = np.concatenate([state.memory_value(1, POS), state.memory_value(1, NEG),
                          state.feature_row(1)])
    row = np.concatenate([h_i, [config.time_scale * np.log1p(t - 1.0), 2.0]])
    wv = params["encoder.emb.attn.wv"].data
    expected = params["encoder.emb.self_proj"].data @ h_u + wv @ row
    assert np.abs(z - expected).max() < 1e-12


def test_embedding_matches_straight_line_oracle_three_neighbors():
    enc, params, config = make_encoder(seed=11)
    warm = [_ev(1, 0, 1, 1), _ev(2, 0, 2, -3), _ev(3, 0, 3, 2), _ev(4, 1, 2, 1)]
    state = seeded_state(enc, warm)
    t = 9.0
    z = embed(enc, 0, t, state)

    def h(n):
        return np.concatenate([state.memory_value(n, POS), state.memory_value(n, NEG),
                               state.feature_row(n)])

    rows = np.array([
        np.concatenate([h(i), [config.time_scale * np.log1p(t - tau), mag]])
        for i, tau, mag in state.node_history(0)
    ])
    expected = (params["encoder.emb.self_proj"].data @ h(0)
                + attention(enc.attn, h(0), rows)[0])
    assert np.abs(z - expected).max() < 1e-10


def test_embedding_batch_path_equals_reference_path():
    enc, _, _ = make_encoder(seed=12)
    rng = np.random.default_rng(13)
    warm = [_ev(t + 1, int(rng.integers(4)), 4 + int(rng.integers(4)),
                float(rng.choice([-2, 1]))) for t in range(10)]
    state = seeded_state(enc, warm)
    nodes = list(range(8))  # includes untouched nodes with empty histories
    z, index = enc.compute_embeddings(nodes, 20.0, state)
    for n in nodes:
        single = compute_embedding(enc, n, 20.0, state)
        assert np.allclose(z.data[index[n]], single, atol=1e-12)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_embedding_empty_history_property(seed):
    # nodes with no past interactions embed as the bare projection of
    # their state, for any ablation that keeps the attention layer
    rng = np.random.default_rng(seed)
    ablation = ["none", "ba", "mem"][int(rng.integers(3))]
    enc, params, _ = make_encoder(ablation=ablation, seed=int(rng.integers(1000)))
    warm = [_ev(t + 1, int(rng.integers(3)), 3 + int(rng.integers(3)),
                float(rng.choice([-1, 1]))) for t in range(int(rng.integers(0, 6)))]
    state = seeded_state(enc, warm)
    node = 7  # never an endpoint
    z = embed(enc, node, 30.0, state)
    if enc.config.ablation.use_memory:
        h = np.concatenate([state.memory_value(node, s)
                            for s in range(enc.config.slot_count)]
                           + [state.feature_row(node)])
    else:
        h = state.feature_row(node)
    assert np.allclose(z, params["encoder.emb.self_proj"].data @ h, atol=1e-14)


def test_staleness_mitigation_neighbor_activity_moves_embedding():
    enc, _, _ = make_encoder(seed=14)
    state = seeded_state(enc, [_ev(1.0, 0, 1, 1.0)])
    z_before = embed(enc, 1, 10.0, state)
    s_before = state.memory_value(1, POS)
    enc.process_batch([_ev(10.0, 0, 2, -1.0)], state)  # node 1 not involved
    z_after = embed(enc, 1, 10.0, state)
    assert np.array_equal(state.memory_value(1, POS), s_before)
    assert not np.allclose(z_before, z_after)


def test_neighbor_cap_limits_history_rows():
    enc, _, _ = make_encoder(seed=15, neighbor_cap=2)
    events = [_ev(t + 1, 0, t + 1, 1.0) for t in range(5)]
    state = seeded_state(enc, events)
    assert len(state.node_history(0)) == 2
    assert state.node_history(0)[-1][0] == 5


# -------------------------------------------------------------- ablations

def test_emb_ablation_embedding_is_concatenated_memories():
    enc, _, _ = make_encoder(ablation="emb", seed=16)
    state = seeded_state(enc, [_ev(1, 0, 1, 1), _ev(2, 0, 2, -1)])
    z = compute_embedding(enc, 0, 5.0, state)
    expected = np.concatenate([state.memory_value(0, POS), state.memory_value(0, NEG)])
    assert np.array_equal(z, expected)
    zb, index = enc.compute_embeddings([0, 1], 5.0, state)
    assert np.array_equal(zb.data[index[0]], expected)


def test_mem_ablation_has_no_memory_state():
    enc, params, _ = make_encoder(ablation="mem", seed=17)
    state = seeded_state(enc, [_ev(1, 0, 1, 1)])
    assert state.written_nodes().size == 0 and state.mem.shape[1] == 0
    assert not any(".msg" in n or ".mem" in n for n in params.names())
    assert state.node_history(0) == [(1, 1.0, 1.0)]
    z = embed(enc, 0, 3.0, state)
    assert z.shape == (enc.config.embedding_dim,)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_ba_ablation_single_memory_per_node(seed):
    # disabling balanced aggregation collapses the two polarity paths into
    # one unsigned memory slot per node
    rng = np.random.default_rng(seed)
    enc, _, _ = make_encoder(ablation="ba", seed=int(rng.integers(1000)))
    assert enc.config.slot_count == 1
    events = [_ev(t + 1, int(rng.integers(3)), 3 + int(rng.integers(3)),
                  float(rng.choice([-2, 1]))) for t in range(int(rng.integers(1, 7)))]
    state = seeded_state(enc, events)
    touched = {n for ev in events for n in (ev.src, ev.dst)}
    slots = {(n, s) for n in state.written_nodes().tolist() for s in range(state.mem.shape[1])}
    assert slots == {(n, 0) for n in touched}
    for ev in events:
        routes = route_event(enc, ev, state)
        assert all(r.slot == 0 and r.other_src[1] == 0 for r in routes)


def test_ba_message_ignores_sign_routing():
    enc, _, _ = make_encoder(ablation="ba", seed=18)
    state = seeded_state(enc, [_ev(1, 0, 1, 1), _ev(2, 1, 2, -2)])
    plus = generate_messages(enc, _ev(5.0, 0, 2, 2.0), state)
    minus = generate_messages(enc, _ev(5.0, 0, 2, -2.0), state)
    assert len(plus) == 2
    for a, b in zip(plus, minus):
        assert np.array_equal(a.payload.data, b.payload.data)


# ------------------------------------------------------- misc encoder state

def test_stream_determinism_bitwise():
    def run():
        enc, _, _ = make_encoder(seed=19)
        rng = np.random.default_rng(20)
        state = seeded_state(enc, [])
        for k in range(3):
            batch = [_ev(10 * k + t + 1, int(rng.integers(4)), 4 + int(rng.integers(4)),
                         float(rng.choice([-1, 2]))) for t in range(5)]
            enc.process_batch(batch, state)
        return np.concatenate([state.memory_value(n, s)
                               for n in range(8) for s in (POS, NEG)])

    assert np.array_equal(run(), run())


def test_detach_freezes_values():
    enc, params, _ = make_encoder(seed=21)
    state = seeded_state(enc, [_ev(1, 0, 1, 1)])
    val = state.memory_value(0, POS)
    assert state.read_memory(np.array([0]), POS).requires_grad
    state.detach_()
    tensor = state.read_memory(np.array([0]), POS)
    assert not tensor.requires_grad
    assert np.array_equal(tensor.data[0], val)


def test_state_snapshot_roundtrip(tmp_path):
    enc, _, _ = make_encoder(seed=22)
    state = seeded_state(enc, [_ev(1, 0, 1, 1), _ev(2, 1, 2, -2), _ev(3, 0, 2, 1)])
    path = tmp_path / "state.json"
    state.save(path)
    loaded = EncoderState.load(path, enc.config)
    assert loaded.watermark == state.watermark
    assert loaded.events_ingested == state.events_ingested
    assert np.array_equal(loaded.last_update, state.last_update)
    assert loaded.history.items() == state.history.items()
    assert np.array_equal(loaded.written_nodes(), state.written_nodes())
    for n in state.written_nodes().tolist():
        for slot in (POS, NEG):
            assert np.array_equal(loaded.memory_value(n, slot), state.memory_value(n, slot))
    # embeddings computed from the restored state agree exactly
    with no_grad():
        a = embed(enc, 0, 9.0, state)
        b = embed(enc, 0, 9.0, loaded)
    assert np.array_equal(a, b)


# Written by the dict-backed state of the previous release from
# FIXTURE_BATCHES with make_encoder(seed=22); the v1 document is unchanged.
FIXTURE = Path(__file__).parent / "data" / "state_v1.json"
FIXTURE_BATCHES = [
    [_ev(1, 0, 1, 2), _ev(1, 1, 2, -1), _ev(2, 0, 9, 3), _ev(2, 2, 2, 1)],
    [_ev(4, 3, 0, -2), _ev(4, 9, 1, 1), _ev(5, 0, 1, -4), _ev(7, 3, 9, 1)],
]


def test_snapshot_save_load_save_is_byte_identical(tmp_path):
    enc, _, _ = make_encoder(seed=22)
    state = EncoderState(enc.config)
    for batch in FIXTURE_BATCHES:
        enc.process_batch(batch, state)
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    state.save(first)
    EncoderState.load(first, enc.config).save(second)
    assert first.read_bytes() == second.read_bytes()


def test_v1_fixture_loads_to_identical_memories_and_embeddings():
    enc, _, _ = make_encoder(seed=22)
    state = EncoderState(enc.config)
    for batch in FIXTURE_BATCHES:
        enc.process_batch(batch, state)
    loaded = EncoderState.load(FIXTURE, enc.config)
    assert loaded.watermark == state.watermark
    assert loaded.events_ingested == state.events_ingested
    assert np.array_equal(loaded.written_nodes(), [0, 1, 2, 3, 9])
    assert np.array_equal(loaded.last_update, state.last_update)
    assert loaded.history.items() == state.history.items()
    for n in range(11):
        for slot in (POS, NEG):
            assert np.array_equal(loaded.memory_value(n, slot), state.memory_value(n, slot))
    with no_grad():
        a, _ = enc.compute_embeddings(list(range(11)), 9.0, state)
        b, _ = enc.compute_embeddings(list(range(11)), 9.0, loaded)
    assert np.array_equal(a.data, b.data)


def test_snapshot_rejects_mismatched_config(tmp_path):
    enc, _, _ = make_encoder(seed=23)
    state = seeded_state(enc, [_ev(1, 0, 1, 1)])
    path = tmp_path / "state.json"
    state.save(path)
    other, _, _ = make_encoder(seed=23, memory_dim=6)
    with pytest.raises(ValueError):
        EncoderState.load(path, other.config)


def test_node_memory_view():
    enc, _, _ = make_encoder(seed=24)
    state = seeded_state(enc, [_ev(4, 0, 1, -1)])
    view = state.node_memory(0)
    assert view.last_update == 4.0
    assert view.s_plus.shape == (4,) and view.s_minus.shape == (4,)
    enc_ba, _, _ = make_encoder(ablation="ba", seed=24)
    state_ba = EncoderState(enc_ba.config)
    enc_ba.process_batch([_ev(4, 0, 1, -1)], state_ba)
    view_ba = state_ba.node_memory(0)
    assert view_ba.s_minus is None and view_ba.s_plus.shape == (8,)
