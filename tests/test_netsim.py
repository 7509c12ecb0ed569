"""Topology generation, message delivery, and byte accounting."""

from collections import defaultdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from svote import netsim
from svote.errors import ConfigError, ProtocolError
from svote.netsim import MessageBus, MessageKind, RoundMessage, Topology, TrafficLedger


class TestFullTopology:
    def test_k10_edge_count(self):
        assert len(netsim.full_topology(10).edges) == 45

    def test_k2(self):
        assert len(netsim.full_topology(2).edges) == 1

    def test_degrees(self):
        topo = netsim.full_topology(7)
        assert all(topo.degree(i) == 6 for i in range(7))

    def test_n1_rejected(self):
        with pytest.raises(ConfigError):
            netsim.full_topology(1)


class TestErdosRenyi:
    def test_p1_is_complete(self):
        for seed in (0, 1, 2):
            topo = netsim.erdos_renyi(8, 1.0, seed)
            assert len(topo.edges) == 28

    def test_mean_edge_count(self):
        counts = [len(netsim.erdos_renyi(10, 0.5, s).edges) for s in range(200)]
        assert abs(np.mean(counts) - 22.5) / 22.5 < 0.10

    def test_always_connected(self):
        for seed in range(50):
            topo = netsim.erdos_renyi(10, 0.2, seed)
            seen = {0}
            stack = [0]
            while stack:
                for peer in topo.neighbors(stack.pop()):
                    if peer not in seen:
                        seen.add(peer)
                        stack.append(peer)
            assert len(seen) == 10

    def test_deterministic(self):
        assert netsim.erdos_renyi(12, 0.4, 7).edges == netsim.erdos_renyi(12, 0.4, 7).edges

    def test_bad_p_rejected(self):
        with pytest.raises(ConfigError):
            netsim.erdos_renyi(5, 0.0, 1)


class TestMessages:
    def test_model_update_byte_size(self):
        # header 32 + 4 bytes/param
        assert netsim.message_byte_size(100) == 432

    def test_vote_byte_size(self):
        assert netsim.message_byte_size(0) == 32

    def test_scaffold_payload_counts_both_vectors(self):
        bus, ledger = _bus(3)
        netsim.broadcast(bus, 0, MessageKind.MODEL_UPDATE, (np.zeros(100), np.zeros(100)), 1)
        assert ledger.round_bytes(1, 0) == (2 * (32 + 800), 0)

    def test_no_update_notice_is_header_only(self):
        bus, ledger = _bus(3)
        netsim.broadcast(bus, 0, MessageKind.NO_UPDATE, None, 1)
        assert ledger.round_bytes(1, 0) == (2 * 32, 0)

    def test_self_loop_rejected(self):
        with pytest.raises(ConfigError):
            Topology(3, frozenset({(1, 1)}))


def _bus(n=4):
    topo = netsim.full_topology(n)
    ledger = TrafficLedger()
    return MessageBus(topo, ledger), ledger


class TestBusAndLedger:
    def test_non_neighbor_send_rejected(self):
        topo = Topology(3, frozenset({(0, 1)}))
        bus = MessageBus(topo, TrafficLedger())
        msg = RoundMessage(0, (2,), MessageKind.VOTE, 1, 32)
        with pytest.raises(ProtocolError):
            bus.send(msg)

    def test_message_invisible_until_flush(self):
        bus, _ = _bus()
        bus.send(RoundMessage(0, (1,), MessageKind.VOTE, 1, 32))
        assert bus.take_inbox(1) == []
        bus.send(RoundMessage(0, (1,), MessageKind.VOTE, 1, 32))
        bus.flush()
        assert len(bus.take_inbox(1)) == 2

    def test_delivery_sorted_by_sender_receiver(self):
        bus, _ = _bus()
        bus.send(RoundMessage(2, (0,), MessageKind.VOTE, 1, 32))
        bus.send(RoundMessage(1, (0,), MessageKind.VOTE, 1, 32))
        bus.send(RoundMessage(3, (0,), MessageKind.VOTE, 1, 32))
        bus.flush()
        assert [m.sender for m in bus.take_inbox(0)] == [1, 2, 3]

    def test_conservation(self):
        bus, ledger = _bus(5)
        rng = np.random.default_rng(3)
        for rnd in range(1, 4):
            for sender in range(5):
                netsim.broadcast(bus, sender, MessageKind.MODEL_UPDATE, (rng.normal(size=20),), rnd)
            bus.flush()
        assert ledger.total_sent() == ledger.total_received()

    def test_broadcast_count_and_ledger_delta(self):
        bus, ledger = _bus(10)
        count = netsim.broadcast(bus, 0, MessageKind.MODEL_UPDATE, (np.zeros(100),), 1)
        assert count == 9
        assert ledger.round_bytes(1, 0)[0] == 9 * 432

    def test_degree_limited_broadcast(self):
        topo = Topology(5, frozenset({(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)}))
        bus = MessageBus(topo, TrafficLedger())
        assert netsim.broadcast(bus, 0, MessageKind.VOTE, None, 1) == 3

    def test_ledger_replay_identical(self):
        def run():
            bus, ledger = _bus(6)
            rng = np.random.default_rng(42)
            for rnd in range(1, 5):
                for sender in range(6):
                    if rng.random() < 0.7:
                        netsim.broadcast(bus, sender, MessageKind.MODEL_UPDATE, (rng.normal(size=11),), rnd)
                    else:
                        netsim.broadcast(bus, sender, MessageKind.NO_UPDATE, None, rnd)
                bus.flush()
            return ledger

        a, b = run(), run()
        assert dict(a.round_received) == dict(b.round_received)
        assert dict(a.round_sent) == dict(b.round_sent)
        assert dict(a.kind_bytes) == dict(b.kind_bytes)


LEDGER_FIELDS = ("round_sent", "round_received", "kind_bytes", "kind_count")


def _ledger_fields(ledger):
    return {name: dict(getattr(ledger, name)) for name in LEDGER_FIELDS}


class TestMulticast:
    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_ledger_and_delivery_match_per_receiver_oracle(self, data):
        n = data.draw(st.integers(2, 7), label="n")
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        topo = Topology(n, frozenset(data.draw(st.sets(st.sampled_from(pairs), min_size=1), label="edges")))
        ledger = TrafficLedger()
        bus = MessageBus(topo, ledger)
        oracle = {name: defaultdict(int) for name in LEDGER_FIELDS}
        delivered = defaultdict(list)  # receiver -> (sender, send index) per copy
        senders = [c for c in range(n) if topo.degree(c)]
        sends = st.tuples(
            st.sampled_from(senders), st.sampled_from(list(MessageKind)), st.integers(1, 3), st.integers(0, 5000)
        )
        for index, (sender, kind, rnd, size) in enumerate(data.draw(st.lists(sends, max_size=12), label="sends")):
            receivers = data.draw(st.lists(st.sampled_from(topo.neighbors(sender)), min_size=1, unique=True))
            bus.send(RoundMessage(sender, tuple(receivers), kind, rnd, size))
            for receiver in receivers:
                oracle["round_sent"][(rnd, sender)] += size
                oracle["round_received"][(rnd, receiver)] += size
                oracle["kind_bytes"][kind] += size
                oracle["kind_count"][kind] += 1
                delivered[receiver].append((sender, index))
        assert _ledger_fields(ledger) == {name: dict(field) for name, field in oracle.items()}
        assert ledger.total_sent() == ledger.total_received()
        bus.flush()
        for receiver in range(n):
            expected = [sender for sender, _ in sorted(delivered[receiver])]
            assert [m.sender for m in bus.take_inbox(receiver)] == expected

    def test_one_non_neighbor_rejects_whole_message(self):
        topo = Topology(4, frozenset({(0, 1), (0, 2), (2, 3)}))
        ledger = TrafficLedger()
        bus = MessageBus(topo, ledger)
        bus.send(RoundMessage(0, (1, 2), MessageKind.MODEL_UPDATE, 1, 432))
        before = _ledger_fields(ledger)
        for receivers in ((1, 3, 2), (0,)):
            with pytest.raises(ProtocolError):
                bus.send(RoundMessage(0, receivers, MessageKind.MODEL_UPDATE, 1, 432))
        assert _ledger_fields(ledger) == before
        bus.flush()
        assert [len(bus.take_inbox(c)) for c in range(4)] == [0, 1, 1, 0]

    def test_broadcast_is_one_message_to_every_neighbor(self):
        bus, ledger = _bus(5)
        netsim.broadcast(bus, 2, MessageKind.MODEL_UPDATE, (np.zeros(10),), 1)
        bus.flush()
        inboxes = [bus.take_inbox(c) for c in range(5)]
        assert inboxes[2] == []
        msgs = {id(box[0]) for box in inboxes if box}
        assert len(msgs) == 1
        assert ledger.kind_count[MessageKind.MODEL_UPDATE] == 4
        assert ledger.round_bytes(1, 2)[0] == 4 * 72
