"""Topology generation, message delivery, and byte accounting."""

from collections import defaultdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import adjacency_of
from svote import netsim
from svote.errors import ConfigError, ProtocolError
from svote.netsim import MessageBus, MessageKind, Topology, TrafficLedger
from svote.seeding import derive_seed


def _edge_count(topo):
    return int(topo.adjacency.sum()) // 2


def _neighbor_lists(topo):
    """Every client's neighbors, ascending: the set cells of its adjacency row."""
    return [tuple(np.flatnonzero(row).tolist()) for row in topo.adjacency]


class TestFullTopology:
    def test_k10_edge_count(self):
        assert _edge_count(netsim.full_topology(10)) == 45

    def test_k2(self):
        assert _edge_count(netsim.full_topology(2)) == 1

    def test_degrees(self):
        topo = netsim.full_topology(7)
        assert topo.degrees.tolist() == [6] * 7

    def test_n1_rejected(self):
        with pytest.raises(ConfigError):
            netsim.full_topology(1)


class TestErdosRenyi:
    def test_p1_is_complete(self):
        for seed in (0, 1, 2):
            topo = netsim.erdos_renyi(8, 1.0, seed)
            assert _edge_count(topo) == 28

    def test_mean_edge_count(self):
        counts = [_edge_count(netsim.erdos_renyi(10, 0.5, s)) for s in range(200)]
        assert abs(np.mean(counts) - 22.5) / 22.5 < 0.10

    def test_always_connected(self):
        for seed in range(50):
            topo = netsim.erdos_renyi(10, 0.2, seed)
            seen = {0}
            stack = [0]
            while stack:
                for peer in np.flatnonzero(topo.adjacency[stack.pop()]).tolist():
                    if peer not in seen:
                        seen.add(peer)
                        stack.append(peer)
            assert len(seen) == 10

    def test_deterministic(self):
        assert netsim.erdos_renyi(12, 0.4, 7) == netsim.erdos_renyi(12, 0.4, 7)

    def test_bad_p_rejected(self):
        with pytest.raises(ConfigError):
            netsim.erdos_renyi(5, 0.0, 1)

    def test_rejected_draws_build_no_topology(self, monkeypatch):
        # (6, 0.3, 1) discards three disconnected draws (TestPinnedGraphs):
        # each draw is checked once, and only the accepted one builds a Topology
        built, checked = [], []
        check, is_connected = Topology.__post_init__, netsim._is_connected
        monkeypatch.setattr(Topology, "__post_init__", lambda self: built.append(check(self)))

        def counted(adjacency):
            checked.append(is_connected(adjacency))
            return checked[-1]

        monkeypatch.setattr(netsim, "_is_connected", counted)
        netsim.erdos_renyi(6, 0.3, 1)
        assert len(built) == 1 and checked == [False, False, False, True]

    def test_connectivity_matches_the_transitive_closure(self):
        # sparse draws around the connectivity threshold ln(n) / n, so both outcomes occur
        rng = np.random.default_rng(2020)
        outcomes = []
        for n in range(2, 41):
            for scale in (0.5, 1.0, 1.5, 2.5) * 3:
                upper = np.triu(rng.random((n, n)) < scale * max(np.log(n), 1.0) / n, 1)
                adjacency = upper | upper.T
                reach = adjacency | np.eye(n, dtype=bool)
                for _ in range(n.bit_length()):  # paths of up to 2**k edges after k squarings
                    reach = (reach.astype(int) @ reach.astype(int)) > 0
                outcomes.append(bool(reach[0].all()))
                assert netsim._is_connected(adjacency) == outcomes[-1]
        assert 0 < sum(outcomes) < len(outcomes)

    def test_thousand_sparse_clients(self):
        topo = netsim.erdos_renyi(1000, 0.01, 1)
        rows = topo.adjacency
        seen, stack = {0}, [0]
        while stack:  # a search over the matrix's rows, independent of the topology's own reads
            for peer in np.flatnonzero(rows[stack.pop()]).tolist():
                if peer not in seen:
                    seen.add(peer)
                    stack.append(peer)
        assert len(seen) == 1000
        assert topo.degrees.tolist() == rows.sum(axis=1).tolist()


class TestPinnedGraphs:
    """Neighbor lists recorded from the edge-set implementation: the draw order must not change."""

    @pytest.mark.parametrize(
        "n, p, seed, draws, neighbors",
        [
            # the first three draws are disconnected, so this pins the redraw too
            (6, 0.3, 1, 4, [(2, 3, 5), (3, 4, 5), (0,), (0, 1, 4), (1, 3), (0, 1)]),
            (8, 0.4, 5, 1, [(4, 6), (3, 4), (4, 5, 6, 7), (1, 4, 7), (0, 1, 2, 3), (2, 7), (0, 2, 7), (2, 3, 5, 6)]),
            (10, 0.5, 3, 1, [(2, 3, 4, 5, 6, 8, 9), (2, 4, 7, 8, 9), (0, 1, 4, 6, 9), (0, 4, 6, 8, 9),
                          (0, 1, 2, 3, 5, 7), (0, 4, 6, 7, 8), (0, 2, 3, 5, 7, 9), (1, 4, 5, 6),
                          (0, 1, 3, 5), (0, 1, 2, 3, 6)]),
        ],
    )
    def test_erdos_renyi_neighbor_lists(self, monkeypatch, n, p, seed, draws, neighbors):
        attempts = []

        def spy(*parts):
            attempts.append(parts[-1])
            return derive_seed(*parts)

        monkeypatch.setattr(netsim, "derive_seed", spy)
        topo = netsim.erdos_renyi(n, p, seed)
        assert _neighbor_lists(topo) == neighbors
        assert topo.degrees.tolist() == [len(peers) for peers in neighbors]
        assert attempts == list(range(draws))

    def test_full_topology_neighbor_lists(self):
        topo = netsim.full_topology(5)
        assert _neighbor_lists(topo) == [
            (1, 2, 3, 4), (0, 2, 3, 4), (0, 1, 3, 4), (0, 1, 2, 4), (0, 1, 2, 3),
        ]

    def test_degrees_are_plain_ints(self):
        # an int array, one entry per client, that no caller can change under the topology
        topo = netsim.erdos_renyi(10, 0.5, 3)
        assert topo.degrees.dtype.kind == "i" and topo.degrees.shape == (10,)
        np.testing.assert_array_equal(topo.degrees, topo.adjacency.sum(axis=1))
        with pytest.raises(ValueError):
            topo.degrees[0] = 0
        assert type(topo.num_clients) is int


class TestTopologyValue:
    def test_adjacency_is_read_only(self):
        topo = netsim.full_topology(4)
        with pytest.raises(ValueError):
            topo.adjacency[0, 1] = False

    def test_adjacency_is_copied_from_the_caller(self):
        adjacency = ~np.eye(3, dtype=bool)
        topo = Topology(adjacency)
        adjacency[0, 1] = adjacency[1, 0] = False
        assert topo.adjacency[0].tolist() == [False, True, True] and topo.degrees[1] == 2

    def test_equality_compares_adjacency(self):
        assert Topology(adjacency_of(3, {(0, 1), (1, 2), (0, 2)})) == netsim.full_topology(3)
        assert Topology(adjacency_of(3, {(0, 1), (1, 2)})) != netsim.full_topology(3)
        assert netsim.full_topology(3) != netsim.full_topology(4)
        assert netsim.full_topology(3) != object()

    @pytest.mark.parametrize(
        "adjacency, match",
        [
            (np.zeros((2, 3), dtype=bool), "square"),
            (np.zeros(4, dtype=bool), "square"),
            (np.ones((3, 3), dtype=np.int64) - np.eye(3, dtype=np.int64), "boolean"),
            (np.triu(~np.eye(3, dtype=bool)), "symmetric"),
            (np.ones((3, 3), dtype=bool), "self-loop at client 0"),
        ],
        ids=["non-square", "one-dimensional", "integer", "asymmetric", "set-diagonal"],
    )
    def test_malformed_matrix_rejected(self, adjacency, match):
        with pytest.raises(ConfigError, match=match):
            Topology(adjacency)

    @given(st.integers(0, 12).flatmap(lambda n: st.lists(st.booleans(), min_size=n * n, max_size=n * n)))
    @settings(max_examples=60, deadline=None)
    def test_neighbors_match_a_loop_over_the_matrix(self, cells):
        n = int(len(cells) ** 0.5)
        upper = np.triu(np.array(cells, dtype=bool).reshape(n, n), 1)
        topo = Topology(upper | upper.T)
        for c in range(n):
            neighbors = np.flatnonzero(topo.adjacency[c]).tolist()
            assert neighbors == [j for j in range(n) if upper[c, j] or upper[j, c]]
            assert topo.degrees[c] == len(neighbors)
        assert topo.num_clients == n

    def test_connectivity_is_not_checked(self):
        # only erdos_renyi guarantees a connected graph
        topo = Topology(adjacency_of(3, {(0, 1)}))
        assert not topo.adjacency[2].any() and topo.degrees[2] == 0


class TestMessages:
    def test_model_update_byte_size(self):
        # header 32 + 4 bytes/param
        assert netsim.message_byte_size(100) == 432

    def test_vote_byte_size(self):
        assert netsim.message_byte_size(0) == 32

    def test_scaffold_payload_counts_both_vectors(self):
        bus, ledger = _bus(3)
        netsim.broadcast(bus, _clients(3, 0), MessageKind.MODEL_UPDATE, 2 * 100)
        assert _taken(ledger) == ([2 * (32 + 800), 0, 0], [0, 32 + 800, 32 + 800])

    def test_no_update_notice_is_header_only(self):
        bus, ledger = _bus(3)
        netsim.broadcast(bus, _clients(3, 0), MessageKind.NO_UPDATE, 0)
        assert _taken(ledger) == ([2 * 32, 0, 0], [0, 32, 32])

    def test_self_loop_rejected(self):
        with pytest.raises(ConfigError, match="self-loop at client 1"):
            Topology(adjacency_of(3, {(1, 1), (0, 2)}))


def _bus(n=4):
    bus = MessageBus(netsim.full_topology(n))
    return bus, bus.ledger


def _clients(n, *clients):
    """A boolean vector by client id that marks the given clients."""
    mask = np.zeros(n, dtype=bool)
    mask[list(clients)] = True
    return mask


def _routes(n, *pairs):
    """An n x n routes matrix, sender by receiver, with a copy on each given (sender, receiver) pair."""
    routes = np.zeros((n, n), dtype=bool)
    for sender, receiver in pairs:
        routes[sender, receiver] = True
    return routes


def _taken(ledger):
    """The ledger's booked round as two lists of plain ints."""
    sent, received = ledger.take_round()
    assert sent.dtype == received.dtype == np.int64
    return sent.tolist(), received.tolist()


class TestBusAndLedger:
    def test_non_neighbor_send_rejected(self):
        bus = MessageBus(Topology(adjacency_of(3, {(0, 1)})))
        with pytest.raises(ProtocolError, match="send from 0 to non-neighbor 2"):
            bus.send(_routes(3, (0, 2)), MessageKind.VOTE, 32)

    def test_message_invisible_until_flush(self):
        bus, _ = _bus()
        bus.send(_routes(4, (0, 1)), MessageKind.VOTE, 32)
        assert not bus.take_inbox()[MessageKind.VOTE].any()
        bus.send(_routes(4, (0, 1)), MessageKind.VOTE, 32)
        bus.flush()
        delivered = bus.take_inbox()[MessageKind.VOTE]
        assert delivered[0, 1] == 2 and delivered.sum() == 2
        assert not bus.take_inbox()[MessageKind.VOTE].any()  # taking the inbox clears it

    def test_delivery_sorted_by_sender_receiver(self):
        bus, _ = _bus()
        bus.send(_routes(4, (2, 0)), MessageKind.VOTE, 32)
        bus.send(_routes(4, (1, 0)), MessageKind.VOTE, 32)
        bus.send(_routes(4, (3, 0)), MessageKind.VOTE, 32)
        bus.flush()
        assert np.flatnonzero(bus.take_inbox()[MessageKind.VOTE][:, 0]).tolist() == [1, 2, 3]  # row order

    def test_conservation(self):
        bus, ledger = _bus(5)
        for _ in range(3):
            netsim.broadcast(bus, _clients(5, *range(5)), MessageKind.MODEL_UPDATE, 20)
            bus.flush()
            sent, received = _taken(ledger)
            assert sum(sent) == sum(received) == 5 * 4 * 112

    def test_broadcast_count_and_ledger_delta(self):
        bus, ledger = _bus(10)
        netsim.broadcast(bus, _clients(10, 0), MessageKind.MODEL_UPDATE, 100)
        bus.flush()
        assert bus.take_inbox()[MessageKind.MODEL_UPDATE].sum() == 9
        assert _taken(ledger)[0][0] == 9 * 432

    def test_degree_limited_broadcast(self):
        bus = MessageBus(Topology(adjacency_of(5, {(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)})))
        netsim.broadcast(bus, _clients(5, 0), MessageKind.VOTE, 0)
        bus.flush()
        delivered = bus.take_inbox()[MessageKind.VOTE]
        assert np.flatnonzero(delivered[0]).tolist() == [1, 2, 3] and delivered.sum() == 3

    def test_ledger_replay_identical(self):
        def run():
            bus, ledger = _bus(6)
            rng = np.random.default_rng(42)
            rounds = []
            for _ in range(4):
                updating = rng.random(6) < 0.7
                netsim.broadcast(bus, updating, MessageKind.MODEL_UPDATE, 11)
                netsim.broadcast(bus, ~updating, MessageKind.NO_UPDATE, 0)
                bus.flush()
                rounds.append(_taken(ledger))
            return rounds, ledger

        (a_rounds, a), (b_rounds, b) = run(), run()
        assert a_rounds == b_rounds
        assert dict(a.kind_bytes) == dict(b.kind_bytes)


def _ledger_fields(ledger):
    return ledger.sent.tolist(), ledger.received.tolist(), dict(ledger.kind_bytes), dict(ledger.kind_count)


class TestMulticast:
    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_ledger_and_delivery_match_per_receiver_oracle(self, data):
        n = data.draw(st.integers(2, 7), label="n")
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        topo = Topology(adjacency_of(n, data.draw(st.sets(st.sampled_from(pairs), min_size=1), label="edges")))
        bus = MessageBus(topo)
        ledger = bus.ledger
        kind_bytes, kind_count = defaultdict(int), defaultdict(int)  # the run's, across rounds
        edges = [tuple(edge) for edge in np.argwhere(topo.adjacency).tolist()]  # both directions of every edge
        sends = st.tuples(st.sampled_from(list(MessageKind)), st.integers(0, 5000), st.sets(st.sampled_from(edges)))
        for _ in range(data.draw(st.integers(1, 3), label="rounds")):
            sent, received = [0] * n, [0] * n
            delivered = {kind: [[0] * n for _ in range(n)] for kind in MessageKind}  # copies per (sender, receiver)
            for kind, size, routes in data.draw(st.lists(sends, max_size=8), label="sends"):
                bus.send(_routes(n, *routes), kind, size)
                for sender, receiver in routes:  # one copy per route, booked and delivered one by one
                    sent[sender] += size
                    received[receiver] += size
                    kind_bytes[kind] += size
                    kind_count[kind] += 1
                    delivered[kind][sender][receiver] += 1
            for booked, expected in ((ledger.kind_bytes, kind_bytes), (ledger.kind_count, kind_count)):
                # a message with no routes may leave a zero total where the oracle has none
                assert {kind: booked.get(kind, 0) for kind in MessageKind} == {k: expected[k] for k in MessageKind}
                assert all(type(v) is int for v in booked.values())
            taken = _taken(ledger)
            assert taken == (sent, received)
            assert sum(taken[0]) == sum(taken[1])
            bus.flush()
            inbox = bus.take_inbox()
            for kind in MessageKind:
                assert inbox[kind].tolist() == delivered[kind]
        # a round with no sends books and delivers nothing
        assert _taken(ledger) == ([0] * n, [0] * n)
        bus.flush()
        assert not any(bus.take_inbox()[kind].any() for kind in MessageKind)

    def test_one_non_neighbor_rejects_whole_message(self):
        bus = MessageBus(Topology(adjacency_of(4, {(0, 1), (0, 2), (2, 3)})))
        ledger = bus.ledger
        bus.send(_routes(4, (0, 1), (0, 2)), MessageKind.MODEL_UPDATE, 432)
        before = _ledger_fields(ledger)
        for routes, stray in (([(0, 1), (1, 3), (0, 2)], "1 to non-neighbor 3"), ([(0, 0)], "0 to non-neighbor 0"),
                              ([(2, 3), (3, 2), (3, 1), (3, 0)], "3 to non-neighbor 0")):
            with pytest.raises(ProtocolError, match=f"send from {stray}"):
                bus.send(_routes(4, *routes), MessageKind.MODEL_UPDATE, 432)
        assert _ledger_fields(ledger) == before
        bus.flush()
        assert bus.take_inbox()[MessageKind.MODEL_UPDATE].sum(axis=0).tolist() == [0, 1, 1, 0]

    def test_broadcast_is_one_message_to_every_neighbor(self, monkeypatch):
        bus, ledger = _bus(5)
        recorded = []
        record = TrafficLedger.record
        monkeypatch.setattr(TrafficLedger, "record", lambda self, *msg: (recorded.append(msg), record(self, *msg)))
        netsim.broadcast(bus, _clients(5, 1, 2), MessageKind.MODEL_UPDATE, 10)
        bus.flush()
        delivered = bus.take_inbox()[MessageKind.MODEL_UPDATE]
        assert len(recorded) == 1  # both senders' copies are one message
        routes, kind, byte_size = recorded[0]
        np.testing.assert_array_equal(routes, bus.topo.adjacency & _clients(5, 1, 2)[:, None])
        assert (kind, byte_size) == (MessageKind.MODEL_UPDATE, 72)
        assert delivered.tolist() == [[0] * 5, [1, 0, 1, 1, 1], [1, 1, 0, 1, 1], [0] * 5, [0] * 5]
        assert ledger.kind_count[MessageKind.MODEL_UPDATE] == 8
        assert _taken(ledger)[0] == [0, 4 * 72, 4 * 72, 0, 0]
