import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dysignet.tensor as T
from dysignet.encoder import NEG, POS, AblationConfig, EncoderState, HistoryLog, _encode_dt
from dysignet.events import SignedEvent, batches
from dysignet.harness import build_model
from dysignet.layers import Feedforward, RecurrentCell
from dysignet.tensor import Tensor, backward, no_grad

from helpers import log_of, model_dtype, tiny_config
from oracles import (
    aggregate_messages,
    attention,
    cell_step,
    compute_embedding,
    feedforward,
    generate_messages,
    histories,
    ingest_taped,
    memory_value,
    node_history,
    route_event,
    trace_provenance,
    update_memories,
)
from oracles import _encode_dt as oracle_encode_dt


def make_encoder(ablation="none", seed=0, **overrides):
    config = tiny_config(ablation=ablation, seed=seed, **overrides)
    bundle = build_model(config)
    return bundle.encoder, bundle.params, config


# the node count of every log these tests make, so that a query may name
# a node that no event has
NODES = 64


def state_over(encoder, *batches):
    """A new state for one pass over ``batches``, lists of events, in order."""
    return EncoderState(encoder.config, log_of([ev for b in batches for ev in b], NODES))


def seeded_state(encoder, events, *later):
    """State with distinguishable (non-zero) memories over ``events`` and
    then the batches ``later``: ingest ``events`` as a warmup batch."""
    state = state_over(encoder, events, *later)
    if events:
        encoder.process_batch(log_of(events), state)
    return state


def logged(events) -> list[list[tuple[int, float, float]]]:
    """The history rows of ``events`` per node, by node id, as
    ``HistoryLog.values`` lists them."""
    return [rows for _, rows in sorted(histories(events).items())]


def _ev(t, u, v, w):
    return SignedEvent(float(t), u, v, float(w))


def embed(enc, node, t, state):
    """One node's row of the batched embedding path."""
    z, _ = enc.compute_embeddings(np.array([node]), t, state)
    return z.data[0]


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


@pytest.mark.usefixtures("float64")
def test_message_payload_matches_concat_oracle():
    enc, params, config = make_encoder(seed=5)
    warm = [_ev(1, 0, 1, 2), _ev(2, 1, 2, -1), _ev(3, 0, 2, 1)]
    state = seeded_state(enc, warm)
    event = _ev(7.0, 0, 2, -3.0)
    msgs = generate_messages(enc, event, state)
    m = {(g.node, g.polarity): g for g in msgs}[(0, POS)]
    vec = np.concatenate([
        memory_value(state, 0, POS),
        memory_value(state, 2, NEG),
        [config.time_scale * np.log1p(7.0 - state.last_update[0]), 3.0],
    ])
    w1, b1 = params["encoder.msg_plus.w1"].data, params["encoder.msg_plus.b1"].data
    w2, b2 = params["encoder.msg_plus.w2"].data, params["encoder.msg_plus.b2"].data
    expected = w2 @ np.maximum(w1 @ vec + b1, 0.0) + b2
    assert np.abs(m.payload.data - expected).max() < 1e-12


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_encoded_gaps_equal_per_event_oracle_bitwise(seed):
    # negative gaps clamp to 0; np.log1p gives an array's elements the bits
    # it gives each one alone, so the oracle encodes one gap at a time
    rng = np.random.default_rng(seed)
    config = tiny_config(time_scale=float(rng.uniform(0.01, 2.0)))
    dt = rng.choice([-1.0, 1.0], size=500) * 10.0 ** rng.uniform(-4.0, 9.0, size=500)
    got = _encode_dt(config, dt)
    assert got.dtype == np.float64
    assert got.tolist() == [oracle_encode_dt(config, x) for x in dt.tolist()]


def test_zero_weight_event_rejected():
    enc, _, _ = make_encoder()
    state = seeded_state(enc, [])
    with pytest.raises(ValueError):
        generate_messages(enc, _ev(1.0, 0, 1, 0.0), state)


@pytest.mark.parametrize("ablation", AblationConfig.NAMES)
def test_zero_weight_batch_is_refused_and_changes_nothing(tmp_path, ablation):
    # the check runs before memory ingest, so the variant without
    # memories refuses a weight-0 event as the other three do
    enc, _, _ = make_encoder(ablation)
    batch = log_of([_ev(1.0, 0, 1, 0.0)], NODES)
    state = EncoderState(enc.config, batch)
    state.save(tmp_path / "before.snap")
    with pytest.raises(ValueError, match="non-zero weight"):
        enc.process_batch(batch, state)
    state.save(tmp_path / "after.snap")
    assert (tmp_path / "before.snap").read_bytes() == (tmp_path / "after.snap").read_bytes()


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
    warm, later = [_ev(1, 0, 1, 1), _ev(2, 2, 3, -1)], [_ev(5.0, 0, 1, 1.0)]
    state = seeded_state(enc, warm, later)
    before = memory_value(state, 2, POS)
    enc.process_batch(log_of(later), state)
    assert np.array_equal(memory_value(state, 2, POS), before)


# ------------------------------------------------------- memory updates

def test_update_polarity_isolation():
    enc, _, _ = make_encoder(seed=2)
    state = seeded_state(enc, [_ev(1, 0, 1, 1), _ev(2, 0, 2, -2)])
    minus_before = memory_value(state, 0, NEG)
    msgs = generate_messages(enc, _ev(9.0, 0, 1, 1.0), state)
    plus_only = {k: v for k, v in aggregate_messages(msgs).items() if k[1] == POS}
    update_memories(enc, plus_only, state)
    assert np.array_equal(memory_value(state, 0, NEG), minus_before)
    assert not np.array_equal(memory_value(state, 0, POS), minus_before)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_polarity_isolation_property(seed):
    # an event never changes the memories of nodes that are not endpoints
    rng = np.random.default_rng(seed)
    enc, _, _ = make_encoder(seed=int(rng.integers(1000)))
    warm = [_ev(t + 1, int(rng.integers(4)), 4 + int(rng.integers(4)),
                float(rng.choice([-1, 1]))) for t in range(5)]
    u, v = 0, 4 + int(rng.integers(4))
    event = [_ev(9.0, u, v, float(rng.choice([-3, 2])))]
    state = seeded_state(enc, warm, event)
    others = [n for n in range(8) if n not in (u, v)]
    before = {(n, s): memory_value(state, n, s) for n in others for s in (POS, NEG)}
    enc.process_batch(log_of(event), state)
    for key, val in before.items():
        assert np.array_equal(memory_value(state, *key), val)


def test_zero_cell_parameters_keep_memory_zero():
    enc, params, _ = make_encoder(seed=3)
    for name in params.names():
        if ".mem_" in name:
            params[name].data[...] = 0.0
    batch = [_ev(1, 0, 1, 5), _ev(2, 0, 2, -7)]
    state = seeded_state(enc, [], batch)
    enc.process_batch(log_of(batch), state)
    for slot in (POS, NEG):
        assert np.array_equal(memory_value(state, 0, slot), np.zeros(4))


def test_single_event_batch_equals_reference_ops():
    enc, _, _ = make_encoder(seed=4)
    warm = [_ev(1, 0, 1, 1), _ev(2, 1, 2, -1)]
    event = _ev(6.0, 0, 2, -2.0)
    fast = seeded_state(enc, warm, [event])
    ref = seeded_state(enc, warm, [event])

    enc.process_batch(log_of([event]), fast)

    msgs = generate_messages(enc, event, ref)
    update_memories(enc, aggregate_messages(msgs), ref)
    ref.watermark = 6.0

    for n in (0, 1, 2):
        for slot in (POS, NEG):
            assert np.allclose(memory_value(fast, n, slot), memory_value(ref, n, slot),
                               atol=1e-15)
    assert np.array_equal(fast.last_update, ref.last_update)
    assert fast.history.values() == logged(warm + [event])


def test_batch_path_equals_reference_path_on_random_batch():
    enc, _, _ = make_encoder(seed=6)
    rng = np.random.default_rng(7)
    warm = [_ev(t + 1, int(rng.integers(4)), 4 + int(rng.integers(4)),
                float(rng.choice([-2, 1]))) for t in range(8)]
    batch = [_ev(20 + t, int(rng.integers(4)), 4 + int(rng.integers(4)),
                 float(rng.choice([-1, 3]))) for t in range(6)]
    fast = seeded_state(enc, warm, batch)
    ref = seeded_state(enc, warm, batch)

    enc.process_batch(log_of(batch), fast)

    msgs = []
    for ev in batch:
        msgs.extend(generate_messages(enc, ev, ref))
    update_memories(enc, aggregate_messages(msgs), ref)
    ref.watermark = batch[-1].time

    for n in range(8):
        for slot in (POS, NEG):
            assert np.allclose(memory_value(fast, n, slot), memory_value(ref, n, slot),
                               atol=1e-12)


def test_two_batches_differ_from_one_batch():
    # a node active in both halves gets two cell steps instead of one
    enc, _, _ = make_encoder(seed=8)
    e1, e2 = _ev(1.0, 0, 1, 1.0), _ev(2.0, 0, 2, 1.0)
    one = state_over(enc, [e1, e2])
    two = state_over(enc, [e1], [e2])
    enc.process_batch(log_of([e1, e2]), one)
    enc.process_batch(log_of([e1]), two)
    enc.process_batch(log_of([e2]), two)
    assert not np.allclose(memory_value(one, 0, POS), memory_value(two, 0, POS))

    # the two-step result equals explicit sequential reference processing
    ref = state_over(enc, [e1], [e2])
    for ev in (e1, e2):
        update_memories(enc, aggregate_messages(generate_messages(enc, ev, ref)), ref)
        ref.watermark = ev.time
    assert np.allclose(memory_value(two, 0, POS), memory_value(ref, 0, POS), atol=1e-15)


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


@pytest.mark.usefixtures("float64")
@settings(max_examples=60, deadline=None)
@given(_streams(), st.sampled_from(["none", "ba"]), st.sampled_from([None, 2]),
       st.integers(0, 1000))
def test_array_state_equals_per_event_oracle_state(batches, ablation, cap, seed):
    enc, _, _ = make_encoder(ablation=ablation, seed=seed, neighbor_cap=cap)
    fast, ref = state_over(enc, *batches), state_over(enc, *batches)
    done = []
    for batch in batches:
        enc.process_batch(log_of(batch), fast)
        msgs = [m for ev in batch for m in generate_messages(enc, ev, ref)]
        update_memories(enc, aggregate_messages(msgs), ref)
        done += batch
        rows = histories(done)
        for n in range(7):
            for slot in range(enc.config.slot_count):
                gap = memory_value(fast, n, slot) - memory_value(ref, n, slot)
                assert np.abs(gap).max() <= 1e-12
            expected = rows.get(n, [])
            assert node_history(fast, n) == (expected if cap is None else expected[-cap:])
    assert np.array_equal(fast.last_update_at(np.arange(7)), ref.last_update_at(np.arange(7)))


def test_out_of_order_batch_rejected():
    enc, _, _ = make_encoder()
    state = seeded_state(enc, [_ev(5, 0, 1, 1)], [_ev(3.0, 1, 2, 1.0)])
    with pytest.raises(ValueError, match="out-of-order"):
        enc.process_batch(log_of([_ev(3.0, 1, 2, 1.0)]), state)


def test_last_update_tracks_most_recent_contribution():
    enc, _, _ = make_encoder()
    batch = [_ev(1, 0, 1, 1), _ev(4, 0, 2, -1), _ev(9, 1, 2, 1)]
    state = seeded_state(enc, [], batch)
    enc.process_batch(log_of(batch), state)
    assert state.last_update[0] == 4.0
    assert state.last_update[1] == 9.0
    assert state.last_update[2] == 9.0


# ------------------------------------------------------------ provenance

def test_higher_order_balance_provenance_chain():
    # events (1,2,+) then (1,3,-): node 3's minus memory consumed node 1's
    # plus memory, which had consumed node 2's plus memory
    enc, _, _ = make_encoder()
    events = [_ev(1.0, 1, 2, 1.0), _ev(2.0, 1, 3, -1.0)]
    ref = state_over(enc, events)
    provenance = trace_provenance(enc, events, ref)
    rec = provenance[(3, NEG)]
    assert rec.source == (1, POS)
    assert rec.source_record is not None
    assert rec.source_record.source == (2, POS)
    assert rec.prev_self is None and rec.source_record.prev_self is None
    # the traced reference reaches the memories the batched path computes
    state = state_over(enc, events)
    for ev in events:
        enc.process_batch(log_of([ev]), state)
    for slot in (POS, NEG):
        assert np.allclose(memory_value(state, 3, slot), memory_value(ref, 3, slot), atol=1e-15)


# ------------------------------------------------------------ embeddings

def test_embedding_empty_history_is_projection():
    enc, params, _ = make_encoder(seed=9)
    state = seeded_state(enc, [_ev(1, 1, 2, 1)])  # node 0 never seen
    z = embed(enc, 0, 5.0, state)
    h = np.concatenate([memory_value(state, 0, POS), memory_value(state, 0, NEG)])
    assert np.array_equal(z, params["encoder.emb.self_proj"].data @ h)


@pytest.mark.usefixtures("float64")
def test_embedding_single_neighbor_formula():
    enc, params, config = make_encoder(seed=10)
    state = seeded_state(enc, [_ev(1.0, 0, 1, -2.0)])
    t = 4.0
    z = embed(enc, 0, t, state)
    h_u = np.concatenate([memory_value(state, 0, POS), memory_value(state, 0, NEG)])
    h_i = np.concatenate([memory_value(state, 1, POS), memory_value(state, 1, NEG)])
    row = np.concatenate([h_i, [config.time_scale * np.log1p(t - 1.0), 2.0]])
    wv = params["encoder.emb.attn.wv"].data
    expected = params["encoder.emb.self_proj"].data @ h_u + wv @ row
    assert np.abs(z - expected).max() < 1e-12


@pytest.mark.usefixtures("float64")
def test_embedding_matches_straight_line_oracle_three_neighbors():
    enc, params, config = make_encoder(seed=11)
    warm = [_ev(1, 0, 1, 1), _ev(2, 0, 2, -3), _ev(3, 0, 3, 2), _ev(4, 1, 2, 1)]
    state = seeded_state(enc, warm)
    t = 9.0
    z = embed(enc, 0, t, state)

    def h(n):
        return np.concatenate([memory_value(state, n, POS), memory_value(state, n, NEG)])

    rows = np.array([
        np.concatenate([h(i), [config.time_scale * np.log1p(t - tau), mag]])
        for i, tau, mag in node_history(state, 0)
    ])
    expected = attention(enc.attn, h(0), rows)[0]   # the self term included
    assert np.abs(z - expected).max() < 1e-10


def test_embedding_batch_path_equals_reference_path():
    # one test id over the three ablations that keep the attention layer
    for ablation in ("none", "ba", "mem"):
        enc, _, _ = make_encoder(ablation=ablation, seed=12)
        rng = np.random.default_rng(13)
        warm = [_ev(t + 1, int(rng.integers(4)), 4 + int(rng.integers(4)),
                    float(rng.choice([-2, 1]))) for t in range(10)]
        state = seeded_state(enc, warm)
        nodes = list(range(8))  # includes untouched nodes with empty histories
        z, ids = enc.compute_embeddings(np.array(nodes), 20.0, state)
        for i, n in enumerate(ids):
            single = compute_embedding(enc, n, 20.0, state)
            assert np.allclose(z.data[i], single, atol=1e-12), ablation


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, 11), min_size=1, max_size=24))
def test_embedding_rows_follow_first_seen_order(nodes):
    # a node array with repeats embeds its distinct ids in first-seen
    # order, the row order the history's ties and the scatter sums rest on
    enc, _, _ = make_encoder(seed=12)
    state = seeded_state(enc, [_ev(t + 1, t % 4, 4 + t % 5, (-1.0) ** t) for t in range(10)])
    z, ids = enc.compute_embeddings(np.array(nodes), 20.0, state)
    assert ids.tolist() == list(dict.fromkeys(nodes))
    distinct, _ = enc.compute_embeddings(ids, 20.0, state)
    assert np.array_equal(z.data, distinct.data)


def test_embedding_reads_each_distinct_neighbour_once(monkeypatch):
    enc, _, _ = make_encoder(seed=12)
    rng = np.random.default_rng(13)
    warm = [_ev(t + 1, int(rng.integers(4)), 4 + int(rng.integers(4)),
                float(rng.choice([-2, 1]))) for t in range(30)]
    state = seeded_state(enc, warm)
    nodes = list(range(8))
    _, _, rows = state.history.recent(np.array(nodes), enc.config.neighbor_cap)
    distinct = len(np.unique(state.history.read(rows)[0]))
    assert distinct < rows.size   # neighbours repeat across history rows
    reads = []
    read = state.read_memory
    monkeypatch.setattr(state, "read_memory",
                        lambda n, slot: reads.append(n.size) or read(n, slot))
    enc.compute_embeddings(np.array(nodes), 40.0, state)
    # per slot: one read of the queries, then one of the distinct neighbours
    slots = enc.config.slot_count
    assert reads == [len(nodes)] * slots + [distinct] * slots


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
    # the node's memory slots side by side; no columns without memory
    h = np.concatenate([np.zeros(0)] + [memory_value(state, node, s)
                                        for s in range(state.mem.shape[1])])
    assert np.allclose(z, params["encoder.emb.self_proj"].data @ h, atol=1e-14)


def test_staleness_mitigation_neighbor_activity_moves_embedding():
    enc, _, _ = make_encoder(seed=14)
    later = [_ev(10.0, 0, 2, -1.0)]   # node 1 not involved
    state = seeded_state(enc, [_ev(1.0, 0, 1, 1.0)], later)
    z_before = embed(enc, 1, 10.0, state)
    s_before = memory_value(state, 1, POS)
    enc.process_batch(log_of(later), state)
    z_after = embed(enc, 1, 10.0, state)
    assert np.array_equal(memory_value(state, 1, POS), s_before)
    assert not np.allclose(z_before, z_after)


def test_neighbor_cap_limits_history_rows():
    enc, _, _ = make_encoder(seed=15, neighbor_cap=2)
    events = [_ev(t + 1, 0, t + 1, 1.0) for t in range(5)]
    state = seeded_state(enc, events)
    assert len(node_history(state, 0)) == 2
    assert node_history(state, 0)[-1][0] == 5


# -------------------------------------------------------------- ablations

def test_emb_ablation_embedding_is_concatenated_memories():
    enc, _, _ = make_encoder(ablation="emb", seed=16)
    state = seeded_state(enc, [_ev(1, 0, 1, 1), _ev(2, 0, 2, -1)])
    z = compute_embedding(enc, 0, 5.0, state)
    expected = np.concatenate([memory_value(state, 0, POS), memory_value(state, 0, NEG)])
    assert np.array_equal(z, expected)
    zb, ids = enc.compute_embeddings(np.array([0, 1]), 5.0, state)
    assert np.array_equal(zb.data[ids.tolist().index(0)], expected)


def test_mem_ablation_has_no_memory_state():
    enc, params, _ = make_encoder(ablation="mem", seed=17)
    state = seeded_state(enc, [_ev(1, 0, 1, 1)])
    assert state.size == 0 and state.mem.shape[1] == 0
    assert not any(".msg" in n or ".mem" in n for n in params.names())
    assert node_history(state, 0) == [(1, 1.0, 1.0)]
    z = embed(enc, 0, 3.0, state)
    assert z.shape == (enc.config.embedding_dim,)


@pytest.mark.usefixtures("float64")
def test_mem_embedding_is_history_mean_of_time_and_magnitude(monkeypatch):
    # without memory the query has no columns, so every row of a query
    # weighs the same and the embedding is wv · mean([dt, |w|]) over the
    # capped history; a node without history embeds as zeros
    enc, params, config = make_encoder(ablation="mem", seed=25, neighbor_cap=3)
    events = [_ev(1, 0, 1, 2), _ev(2, 0, 2, -1), _ev(3, 2, 0, 4), _ev(5, 0, 3, -3),
              _ev(6, 1, 2, 1)]
    state = seeded_state(enc, events)
    calls = []
    apply = enc.attn.apply
    monkeypatch.setattr(enc.attn, "apply", lambda *a: calls.append(apply(*a)) or calls[-1])
    t = 9.0
    nodes = [0, 1, 2, 7]
    z, ids = enc.compute_embeddings(np.array(nodes), t, state)
    _, sizes, _ = state.history.recent(np.array(nodes), 3)
    position = np.concatenate([np.arange(m) for m in sizes])   # row -> its query
    count = (sizes[None, :] > position[:, None]).sum(axis=1)
    weights = calls[0][1].data
    assert np.array_equal(weights, np.broadcast_to(1.0 / count[:, None], weights.shape))
    wv = params["encoder.emb.attn.wv"].data
    assert wv.shape == (config.embedding_dim, 2)
    for n in nodes:
        rows = node_history(state, n)
        assert len(rows) == min(3, sum(n in (ev.src, ev.dst) for ev in events))
        mean = (np.mean([[config.time_scale * np.log1p(t - tau), mag] for _, tau, mag in rows],
                        axis=0) if rows else np.zeros(2))
        assert np.allclose(z.data[ids.tolist().index(n)], wv @ mean, atol=1e-12)


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
    # event times are >= 1, so a written node has a non-zero last update
    written = np.flatnonzero(state.last_update).tolist()
    slots = {(n, s) for n in written for s in range(state.mem.shape[1])}
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


def test_chained_memory_gradients_equal_composed_layers():
    for dtype in (np.float32, np.float64):
        with model_dtype(dtype):
            _check_chained_memory_gradients()


def _check_chained_memory_gradients():
    # two batches without detach_: the second batch's cell reads the first
    # batch's fresh memories as its state (``own``), which also feed its
    # message net, so gradient reaches the parameters along both paths
    enc, params, _ = make_encoder(seed=23)
    rng = np.random.default_rng(24)
    batches = [[_ev(k * 10 + t + 1, int(rng.integers(5)), int(rng.integers(5)),
                    float(rng.choice([-2, 1]))) for t in range(6)] for k in range(2)]
    w = rng.normal(size=(5, enc.config.embedding_dim))

    def grads():
        state = state_over(enc, *batches)
        for batch in batches:
            enc.process_batch(log_of(batch), state)
        z, _ = enc.compute_embeddings(np.arange(5), 30.0, state)
        g = backward(z, w, leaves=params.tensors())
        return [g[p] for p in params.tensors()]

    fused = grads()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Feedforward, "apply", feedforward)
        patch.setattr(RecurrentCell, "apply", lambda cell, x, s: cell_step(cell, x, s)[0])
        composed = grads()
    assert any(np.any(g != 0.0) for name, g in zip(params.names(), fused) if ".mem_" in name)
    assert {g.dtype for g in fused} == {np.dtype(T.DTYPE)}
    for got, expected in zip(fused, composed):
        assert np.array_equal(got, expected)


# ------------------------------------------------------- misc encoder state

def test_stream_determinism_bitwise():
    def run():
        enc, _, _ = make_encoder(seed=19)
        rng = np.random.default_rng(20)
        stream = [[_ev(10 * k + t + 1, int(rng.integers(4)), 4 + int(rng.integers(4)),
                       float(rng.choice([-1, 2]))) for t in range(5)] for k in range(3)]
        state = state_over(enc, *stream)
        for batch in stream:
            enc.process_batch(log_of(batch), state)
        return np.concatenate([memory_value(state, n, s)
                               for n in range(8) for s in (POS, NEG)])

    assert np.array_equal(run(), run())


def test_detach_freezes_values():
    enc, params, _ = make_encoder(seed=21)
    state = seeded_state(enc, [_ev(1, 0, 1, 1)])
    val = memory_value(state, 0, POS)
    assert state.read_memory(np.array([0]), POS).requires_grad
    state.detach_()
    tensor = state.read_memory(np.array([0]), POS)
    assert not tensor.requires_grad
    assert np.array_equal(tensor.data[0], val)


def test_state_snapshot_roundtrip(tmp_path):
    enc, _, _ = make_encoder(seed=22)
    events = [_ev(1, 0, 1, 1), _ev(2, 1, 2, -2), _ev(3, 0, 2, 1)]
    state = seeded_state(enc, events)
    path = tmp_path / "state.snap"
    state.save(path)
    loaded = EncoderState.load(path, enc.config, state.history.log)
    assert loaded.watermark == state.watermark
    assert loaded.events_ingested == state.events_ingested == 3
    assert loaded.history.values() == state.history.values() == logged(events)
    assert np.array_equal(loaded.history.deg, state.history.deg)
    # every saved array comes back with its dtype and bytes
    pairs = {"mem": (state.mem[:state.size], loaded.mem[:loaded.size]),
             "last_update": (state.last_update, loaded.last_update)}
    for name, (want, got) in pairs.items():
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name
    # embeddings computed from the restored state agree exactly
    with no_grad():
        a = embed(enc, 0, 9.0, state)
        b = embed(enc, 0, 9.0, loaded)
    assert np.array_equal(a, b)


# two batches over nodes 0-3 and 9, with a self-loop and repeated pairs
FIXTURE_BATCHES = [
    [_ev(1, 0, 1, 2), _ev(1, 1, 2, -1), _ev(2, 0, 9, 3), _ev(2, 2, 2, 1)],
    [_ev(4, 3, 0, -2), _ev(4, 9, 1, 1), _ev(5, 0, 1, -4), _ev(7, 3, 9, 1)],
]


def test_snapshot_save_load_save_is_byte_identical(tmp_path):
    enc, _, _ = make_encoder(seed=22)
    state = state_over(enc, *FIXTURE_BATCHES)
    for batch in FIXTURE_BATCHES:
        enc.process_batch(log_of(batch), state)
    first, second = tmp_path / "a.snap", tmp_path / "b.snap"
    state.save(first)
    EncoderState.load(first, enc.config, state.history.log).save(second)
    assert first.read_bytes() == second.read_bytes()


def test_one_pass_allocates_memory_once_and_snapshots_ignore_capacity(tmp_path):
    """A state's arrays are allocated when it is made, for the node ids of
    its pass's log, and no batch replaces them.  A snapshot saves memories
    up to the largest id written and a digest of the events ingested, so
    its bytes do not depend on the log's node count."""
    enc, _, _ = make_encoder(seed=22)
    rng = np.random.default_rng(5)
    events = [_ev(t, u, (u + 1 + v) % 30, w) for t, u, v, w in zip(
        range(1, 41), rng.integers(0, 30, 40).tolist(), rng.integers(0, 29, 40).tolist(),
        rng.choice([-2, 1, 3], 40).tolist())]
    log = log_of(events, node_count=50)   # ids 30-49 never come
    state, roomy = EncoderState(enc.config, log), state_over(enc, events)
    arrays = []
    for batch in batches(log, 8):
        enc.process_batch(batch, state)
        h = state.history
        arrays.append((state.mem, state._last_update, state._fresh_row,
                       h.perm, h.offsets, h.deg))
        enc.process_batch(batch, roomy)
        state.detach_()
        roomy.detach_()
    assert all(a is b for seen in arrays for a, b in zip(seen, arrays[0]))
    assert state.mem.shape[0] == 50 and state.size == 30 and not state.mem[30:].any()
    assert state.events_ingested == len(log) == 40 and state.history.deg.sum() == 80
    assert not (state._fresh_row.any() or roomy._fresh_row.any())
    state.save(tmp_path / "a.snap")
    roomy.save(tmp_path / "b.snap")
    assert (tmp_path / "a.snap").read_bytes() == (tmp_path / "b.snap").read_bytes()


def test_snapshot_loaded_with_room_keeps_ingesting_as_the_original(tmp_path):
    """A snapshot loaded mid-stream over the pass's log takes the next
    batch as the state it was saved from does, to the byte; one loaded
    over a log that ends where the snapshot does has no room for the batch
    and refuses it."""
    enc, _, config = make_encoder(seed=22)
    state = state_over(enc, *FIXTURE_BATCHES)
    enc.process_batch(log_of(FIXTURE_BATCHES[0]), state)
    state.save(tmp_path / "first.snap")
    loaded = EncoderState.load(tmp_path / "first.snap", config, state.history.log)
    exact = EncoderState.load(tmp_path / "first.snap", config, log_of(FIXTURE_BATCHES[0]))
    assert exact.events_ingested == loaded.events_ingested == len(FIXTURE_BATCHES[0])
    assert len(exact.mem) == exact.size == 10
    for s in (state, loaded):
        enc.process_batch(log_of(FIXTURE_BATCHES[1]), s)
    with pytest.raises(ValueError, match="not the next 4 events"):
        enc.process_batch(log_of(FIXTURE_BATCHES[1]), exact)
    state.save(tmp_path / "a.snap")
    loaded.save(tmp_path / "b.snap")
    assert (tmp_path / "a.snap").read_bytes() == (tmp_path / "b.snap").read_bytes()


THIRD_BATCH = [_ev(8, 1, 3, -1), _ev(9, 2, 9, 2)]


@pytest.mark.parametrize("batch", [
    [_ev(4, 3, 0, -2), _ev(4, 9, 1, 1), _ev(5, 0, 1, 4), _ev(7, 3, 9, 1)],   # one weight differs
    THIRD_BATCH,                                          # the second batch is skipped
    FIXTURE_BATCHES[1] + THIRD_BATCH + [_ev(9, 0, 1, 1)],   # one event past the log's end
], ids=["another-log", "skipped", "past-the-end"])
def test_batch_that_is_not_the_next_events_is_refused_and_changes_nothing(tmp_path, batch):
    enc, _, config = make_encoder(seed=22)
    state = state_over(enc, *FIXTURE_BATCHES, THIRD_BATCH)
    enc.process_batch(log_of(FIXTURE_BATCHES[0]), state)
    deg = state.history.deg.copy()
    state.save(tmp_path / "before.snap")
    with pytest.raises(ValueError, match="not the next .* events of the state's log: 4 of its "
                                         "10 are ingested"):
        enc.process_batch(log_of(batch), state)
    state.save(tmp_path / "after.snap")
    assert (tmp_path / "before.snap").read_bytes() == (tmp_path / "after.snap").read_bytes()
    assert np.array_equal(state.history.deg, deg)


def test_cleared_state_is_over_no_events_and_no_nodes():
    enc, _, _ = make_encoder(seed=22)
    state = state_over(enc, *FIXTURE_BATCHES)
    enc.process_batch(log_of(FIXTURE_BATCHES[0]), state)
    state.clear()
    assert state.events_ingested == state.size == len(state.history.log) == 0
    assert state.mem.shape[0] == state.history.deg.size == 0 and state.watermark == 0.0
    assert state.history.values() == []


def test_state_ingested_under_gradient_equals_a_no_grad_one(tmp_path):
    """A batch ingested under gradient recording tapes every winner's
    memory update on ingest and writes the values a ``no_grad`` ingest
    writes: memories, last updates and snapshot bytes agree bit for bit."""
    enc, _, _ = make_encoder(seed=22)
    taped, plain = state_over(enc, *FIXTURE_BATCHES), state_over(enc, *FIXTURE_BATCHES)
    for batch in FIXTURE_BATCHES:
        enc.process_batch(log_of(batch), taped)
        with no_grad():
            enc.process_batch(log_of(batch), plain)
    assert taped._fresh is not None and plain._fresh is None
    assert np.array_equal(taped.mem, plain.mem)
    assert np.array_equal(taped.last_update, plain.last_update)
    taped.save(tmp_path / "a.snap")
    plain.save(tmp_path / "b.snap")
    assert (tmp_path / "a.snap").read_bytes() == (tmp_path / "b.snap").read_bytes()


@pytest.mark.usefixtures("float64")
def test_taped_ingest_gradients_equal_the_per_event_oracle():
    """After one train step's read, which reaches some of the batch's
    winners and not others, the parameter gradients equal those of taping
    every winner along the per-event reference path."""
    enc, params, config = make_encoder(seed=31, neighbor_cap=2)
    rng = np.random.default_rng(32)

    def events(t0, n):
        return [_ev(t0 + t, int(rng.integers(16)), int(rng.integers(16)),
                    float(rng.choice([-2, 1]))) for t in range(n)]

    warm, batch, queries = events(1, 30), events(40, 12), [0, 1, 2]
    w = rng.normal(size=(len(queries), config.embedding_dim))

    def step(ingest):
        state = EncoderState(config, log_of(warm + batch, node_count=16))
        with no_grad():
            enc.process_batch(log_of(warm), state)
        ingest(state)
        z, _ = enc.compute_embeddings(np.array(queries), 60.0, state)
        grads = backward(z, w, leaves=params.tensors())
        return state, [grads[p] for p in params.tensors()]

    state, got = step(lambda s: enc.process_batch(log_of(batch), s))
    _, expected = step(lambda s: ingest_taped(enc, batch, s))
    winners = {n for ev in batch for n in (ev.src, ev.dst)}
    _, _, rows = state.history.recent(np.array(queries), config.neighbor_cap)
    read = set(queries) | set(state.history.read(rows)[0].tolist())
    assert winners - read and winners & read
    assert any(np.any(g != 0.0) for name, g in zip(params.names(), got) if ".mem_" in name)
    for name, a, b in zip(params.names(), got, expected):
        assert np.allclose(a, b, rtol=1e-9, atol=1e-12), name


def test_float64_snapshot_loads_cast_to_the_model_dtype(tmp_path):
    path = tmp_path / "state.snap"
    with model_dtype(np.float64):
        enc, _, config = make_encoder(seed=22)
        wide = state_over(enc, *FIXTURE_BATCHES)
        for batch in FIXTURE_BATCHES:
            enc.process_batch(log_of(batch), wide)
        wide.save(path)
    loaded = EncoderState.load(path, config, wide.history.log)
    assert wide.mem.dtype == np.float64 and loaded.mem.dtype == T.DTYPE == np.float32
    assert loaded.mem[:loaded.size].tobytes() == wide.mem[:wide.size].astype(T.DTYPE).tobytes()
    assert loaded.history.values() == wide.history.values()
    assert np.array_equal(loaded.last_update, wide.last_update)


def test_snapshot_rejects_mismatched_config(tmp_path):
    enc, _, _ = make_encoder(seed=23)
    state = seeded_state(enc, [_ev(1, 0, 1, 1)])
    path = tmp_path / "state.snap"
    state.save(path)
    other, _, _ = make_encoder(seed=23, memory_dim=6)
    with pytest.raises(ValueError):
        EncoderState.load(path, other.config, state.history.log)


SAVED_EVENTS = [_ev(1, 0, 1, 1), _ev(2, 1, 2, -2), _ev(3, 0, 2, 1)]


def _saved_state(tmp_path):
    """A snapshot of a state that ingested ``SAVED_EVENTS`` of a log that
    has one more event; returns (encoder, path, log)."""
    enc, _, _ = make_encoder(seed=23)
    state = seeded_state(enc, SAVED_EVENTS, [_ev(4, 2, 3, -1)])
    path = tmp_path / "state.snap"
    state.save(path)
    return enc, path, state.history.log


@pytest.mark.parametrize("content, message", [
    (lambda data: data[:-20], "bad snapshot: "),
    (lambda data: b"dysignet-encoder-state 2\n", "unsupported snapshot version"),
    (lambda data: b"not a snapshot\n", "not an encoder state snapshot"),
    pytest.param(lambda data: b'{"format": "dysignet-encoder-state", "version": 1}\n',
                 "not an encoder state snapshot", id="v1-json-document"),
])
def test_snapshot_load_rejects_damaged_files(tmp_path, content, message):
    enc, path, log = _saved_state(tmp_path)
    path.write_bytes(content(path.read_bytes()))
    with pytest.raises(ValueError, match=message) as info:
        EncoderState.load(path, enc.config, log)
    assert str(path) in str(info.value)


def _nan_memory(a):
    a[0][0, 0, 0] = np.nan


def _inf_watermark(a):
    a[2] = np.array(np.inf)


def _short_last_update(a):
    a[1] = a[1][:-1]


def _float_event_count(a):
    a[3] = a[3].astype(np.float64)


def _memory_beyond_float32(a):
    a[0] = a[0].astype(np.float64)
    a[0][0, 0, 0] = 1e39   # finite at float64, inf once cast to float32


def _half_memory(a):
    a[0] = a[0].astype(np.float16)


def _memory_past_the_log_nodes(a):
    a[0] = np.zeros((NODES + 1,) + a[0].shape[1:], dtype=a[0].dtype)
    a[1] = np.ones(NODES + 1)


def _ingested_past_the_log(a):
    a[3] = np.array(5, dtype=np.intp)


def _negative_ingested(a):
    a[3] = np.array(-1, dtype=np.intp)


def _one_event_more(a):
    a[3] = np.array(4, dtype=np.intp)   # the digest covers three


@pytest.mark.parametrize("edit, message", [
    (_nan_memory, "non-finite"), (_inf_watermark, "non-finite"),
    (_short_last_update, "do not fit"), (_float_event_count, "do not fit"),
    (_memory_beyond_float32, "non-finite"), (_half_memory, "do not fit"),
    (_memory_past_the_log_nodes, "do not fit"),
    (_ingested_past_the_log, "5 events ingested, but the log has 4"),
    (_negative_ingested, "-1 events ingested"), (_one_event_more, "another log"),
])
def test_snapshot_load_rejects_inconsistent_arrays(tmp_path, edit, message):
    enc, path, log = _saved_state(tmp_path)
    _edit_snapshot(path, edit)
    with pytest.raises(ValueError, match=message) as info:
        EncoderState.load(path, enc.config, log)
    assert str(path) in str(info.value)


def _edit_snapshot(path, edit):
    with open(path, "rb") as fh:
        tag = fh.readline()
        arrays = [np.load(fh) for _ in range(5)]
    edit(arrays)
    with open(path, "wb") as fh:
        fh.write(tag)
        for a in arrays:
            np.save(fh, a)


@pytest.mark.parametrize("log", [
    log_of([*SAVED_EVENTS[:2], SAVED_EVENTS[2]._replace(weight=2.0), _ev(4, 2, 3, -1)], NODES),
    log_of(SAVED_EVENTS[:2], NODES),
], ids=["one-weight-differs", "shorter-than-ingested"])
def test_snapshot_load_refuses_a_log_the_state_was_not_saved_over(tmp_path, log):
    """A snapshot holds a digest of the events it ingested, not the events,
    so a state loads only over a log that begins with them."""
    enc, path, _ = _saved_state(tmp_path)
    with pytest.raises(ValueError, match="another log|events ingested, but the log has 2"):
        EncoderState.load(path, enc.config, log)


def test_node_memory_view():
    # slots per node and their width by ablation, and the last update time
    for ablation, slots, width in (("none", 2, 4), ("ba", 1, 8), ("mem", 0, 4)):
        enc, _, _ = make_encoder(ablation=ablation, seed=24)
        state = seeded_state(enc, [_ev(4, 0, 1, -1)])
        assert state.mem.shape[1:] == (slots, width), ablation
        written = [0, 1] if slots else []
        assert state.last_update.tolist() == [4.0] * len(written)
        assert state.size == len(written)


@st.composite
def _history_streams(draw):
    """Batches of events over nodes 0-5 with time ties, repeated pairs and
    reciprocal pairs of opposite sign."""
    events = []
    for _ in range(draw(st.integers(0, 16))):
        t = (events[-1].time if events else 1.0) + draw(st.sampled_from([0.0, 0.0, 1.0]))
        kind = draw(st.sampled_from(["new", "repeat", "reciprocal"])) if events else "new"
        if kind == "new":
            ev = _ev(t, draw(st.integers(0, 5)), draw(st.integers(0, 5)),
                     draw(st.sampled_from([-2.0, 1.0, 3.0])))
        else:
            old = events[draw(st.integers(0, len(events) - 1))]
            ev = (_ev(t, old.src, old.dst, old.weight) if kind == "repeat"
                  else _ev(t, old.dst, old.src, -old.weight))
        events.append(ev)
    cuts = sorted(draw(st.sets(st.integers(1, max(len(events) - 1, 1)), max_size=4)))
    cuts = [0, *(c for c in cuts if c < len(events)), len(events)]
    return [events[a:b] for a, b in zip(cuts, cuts[1:])]


@settings(max_examples=100, deadline=None)
@given(_history_streams(), st.sampled_from([None, 1, 3]), st.data())
def test_history_recent_packs_newest_rows_position_major(batches, cap, data):
    """At every batch cursor, ``recent`` gives each queried node's newest
    rows of the per-event oracle's, packed position-major: the nodes with
    rows by row count descending (ties in query order), and block p the
    p-th newest row of each node that has one."""
    events = [ev for batch in batches for ev in batch]
    log = log_of(events, 8)   # ids 6 and 7 never come
    history, done = HistoryLog(log), []
    for batch in [[], *batches]:
        history.advance(len(batch))
        done += batch
        rows_of = histories(done)
        assert history.values() == logged(done)
        nodes = data.draw(st.lists(st.integers(0, 7), min_size=1, max_size=8, unique=True))
        order, sizes, rows = history.recent(np.array(nodes), cap)
        wanted = [rows_of.get(n, [])[::-1][:cap] for n in nodes]
        assert order.tolist() == sorted((j for j, w in enumerate(wanted) if w),
                                        key=lambda j: -len(wanted[j]))
        assert sizes.tolist() == [sum(len(w) > p for w in wanted)
                                  for p in range(max(map(len, wanted)))]
        blocks = [(p, j) for p, m in enumerate(sizes.tolist()) for j in order[:m].tolist()]
        assert list(zip(*(a.tolist() for a in history.read(rows)))) == [
            wanted[j][p] for p, j in blocks]
        # each row is its node's own, and no row comes twice
        owner = np.where(rows % 2, log.dst[rows // 2], log.src[rows // 2])
        assert owner.tolist() == [nodes[j] for _, j in blocks]
        assert np.unique(rows).size == rows.size
