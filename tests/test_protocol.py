"""Protocol operations and round-engine behavior."""

from collections import defaultdict
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import evaluated_models, peak_traced_bytes, small_problem
from svote import metrics, netsim, protocol
from svote.errors import ProtocolError
from svote.learner import HyperParams
from svote.netsim import MessageBus, MessageKind, TrafficLedger
from svote.protocol import (
    Action,
    ClientState,
    SVoteConfig,
    aggregate,
    cast_votes,
    cosine_similarity,
    run_baseline,
    run_svote,
    select_peers,
    vote_gate,
)


class _ForcedRng:
    """Stub rng whose draws always land on the given value."""

    def __init__(self, value):
        self.value = value

    def random(self):
        return self.value


class TestAggregate:
    def test_mean(self):
        out = aggregate([np.array([0.0, 3.0]), np.array([3.0, 0.0]), np.array([3.0, 3.0])])
        np.testing.assert_allclose(out, [2.0, 2.0])

    def test_single_model_identity(self):
        w = np.array([1.0, -2.0, 0.5])
        np.testing.assert_array_equal(aggregate([w]), w)

    def test_idempotent_on_copies(self):
        w = np.array([0.25, 0.75])
        np.testing.assert_allclose(aggregate([w, w.copy(), w.copy()]), w)

    def test_empty_rejected(self):
        with pytest.raises(ProtocolError):
            aggregate([])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ProtocolError):
            aggregate([np.zeros(3), np.zeros(4)])

    def test_bit_equal_to_the_stacked_mean(self):
        rng = np.random.default_rng(21)
        models = list(rng.normal(size=(7, 1001)))
        expected = np.mean(np.stack(models), axis=0)
        before = [m.copy() for m in models]
        out = aggregate(models)
        np.testing.assert_array_equal(out, expected)
        for m, b in zip(models, before):
            np.testing.assert_array_equal(m, b)
            assert not np.shares_memory(out, m)

    def test_rows_of_a_matrix_are_a_model_sequence(self):
        models = np.random.default_rng(22).normal(size=(4, 50))
        np.testing.assert_array_equal(aggregate(models), np.mean(models, axis=0))

    def test_peak_memory_is_one_model_not_the_stack(self):
        k, length = 8, 50_000
        models = [np.full(length, float(i)) for i in range(k)]
        out = []
        peak = peak_traced_bytes(lambda: out.append(aggregate(models)))
        assert peak < 1.25 * length * 8  # the output, not a k x P stack
        np.testing.assert_array_equal(out[0], np.full(length, (k - 1) / 2))


def _vector_cosine(a, b):
    """The vector form of the cosine, kept as the reference for the matrix form."""
    return float(np.clip(np.dot(a, b) / (np.linalg.norm(a) * np.linalg.norm(b)), -1.0, 1.0))


def _cosine(a, b):
    """The engine's cosine of two vectors: the off-diagonal of their 2 x P matrix."""
    return cosine_similarity(np.stack([a, b]))[0, 1]


class TestCosineSimilarity:
    def test_self_similarity(self):
        w = np.array([0.3, -1.2, 4.0])
        assert _cosine(w, w) == pytest.approx(1.0, abs=1e-9)

    def test_orthogonal(self):
        assert _cosine(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0

    def test_half(self):
        sim = _cosine(np.array([1.0, 0.0, 1.0]), np.array([1.0, 1.0, 0.0]))
        assert sim == pytest.approx(0.5, abs=1e-9)

    def test_scale_invariance(self):
        sim = _cosine(np.array([1.0, 2.0, 3.0]), np.array([2.0, 4.0, 6.0]))
        assert sim == pytest.approx(1.0, abs=1e-9)

    def test_result_clipped_to_unit_interval(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            sims = cosine_similarity(rng.normal(size=(3, 8)))
            assert np.all((sims >= -1.0) & (sims <= 1.0))

    @given(st.integers(1, 6), st.integers(1, 9), st.integers(0, 2**32 - 1))
    @settings(max_examples=60)
    def test_matrix_form_matches_vector_form(self, n, p, seed):
        rng = np.random.default_rng(seed)
        models = rng.normal(size=(n, p)) * rng.choice([1e-3, 1.0, 1e3], size=(n, 1))
        if n > 2:  # parallel and antiparallel rows sit on the clip bounds
            models[1] = 3.0 * models[0]
            models[2] = -models[0]
        sims = cosine_similarity(models)
        assert sims.shape == (n, n)
        assert np.all((sims >= -1.0) & (sims <= 1.0))
        for i in range(n):
            for j in range(n):
                assert abs(sims[i, j] - _vector_cosine(models[i], models[j])) <= 1e-12

    def test_matrix_form_floors_zero_norm_rows(self):
        models = np.array([[1.0, 2.0], [0.0, 0.0], [2.0, -1.0], [3.0, 1.0]])
        sims = cosine_similarity(models)
        assert np.all(sims[1, :] == -1.0) and np.all(sims[:, 1] == -1.0)
        assert sims[0, 3] == pytest.approx(_vector_cosine(models[0], models[3]), abs=1e-12)

    def test_matrix_form_needs_a_matrix(self):
        with pytest.raises(ProtocolError):
            cosine_similarity(np.ones(3))


class TestSelectPeers:
    def test_threshold_example(self):
        # mu=0.5, sigma=sqrt(0.06)~=0.245, threshold~=0.6225
        assert select_peers(0, {1: 0.2, 2: 0.5, 3: 0.8}, 0.5) == {3}

    def test_all_equal_selects_all(self):
        for tau in (0.0, 0.5, 3.0):
            assert select_peers(0, {1: 0.4, 2: 0.4, 3: 0.4}, tau) == {1, 2, 3}

    def test_very_negative_tau_selects_all(self):
        assert select_peers(0, {1: -0.9, 2: 0.1, 3: 0.9}, -1e9) == {1, 2, 3}

    def test_fallback_to_most_similar(self):
        assert select_peers(0, {1: 0.1, 2: 0.9}, 100.0) == {2}

    def test_fallback_tie_breaks_lowest_id(self):
        assert select_peers(0, {5: 0.8, 3: 0.8, 7: 0.1}, 100.0) == {3}

    def test_empty_rejected(self):
        with pytest.raises(ProtocolError):
            select_peers(0, {}, 0.0)

    @given(st.floats(0.1, 10.0))
    @settings(max_examples=30)
    def test_scale_invariance_via_cosine(self, scale):
        # cosine ignores positive rescaling, so the selected set does too
        rng = np.random.default_rng(21)
        models = rng.normal(size=(6, 6))  # row 0 is the local model, rows 1..5 its peers
        sims = dict(enumerate(cosine_similarity(models)[0, 1:].tolist(), start=1))
        scaled = dict(enumerate(cosine_similarity(models * scale)[0, 1:].tolist(), start=1))
        assert select_peers(0, sims, 0.3) == select_peers(0, scaled, 0.3)


class TestCastVotes:
    def test_selected_peers_gain_votes(self):
        topo = netsim.full_topology(10)
        bus = MessageBus(topo, TrafficLedger())
        n = cast_votes(bus, 0, {3, 7}, rnd=1)
        bus.flush()
        assert n == 2
        assert len([m for m in bus.take_inbox(3) if m.kind is MessageKind.VOTE]) == 1
        assert len([m for m in bus.take_inbox(7) if m.kind is MessageKind.VOTE]) == 1

    def test_empty_selection_sends_nothing(self):
        bus = MessageBus(netsim.full_topology(4), TrafficLedger())
        assert cast_votes(bus, 0, set(), rnd=1) == 0
        bus.flush()
        assert all(bus.take_inbox(c) == [] for c in range(4))

    def test_everyone_votes_for_peer_zero(self):
        topo = netsim.full_topology(11)
        bus = MessageBus(topo, TrafficLedger())
        for sender in range(1, 11):
            cast_votes(bus, sender, {0}, rnd=1)
        bus.flush()
        assert len(bus.take_inbox(0)) == 10


class TestVoteGate:
    def _state(self, votes=0, p=0.1):
        return ClientState(id=0, w=np.ones(3), votes_received=votes, p_escalation=p)

    def test_enough_votes_trains(self):
        st_ = self._state(votes=3)
        assert vote_gate(st_, v_min=2, neighbor_count=9, rng=_ForcedRng(1.0)) is Action.TRAIN_LOCAL

    def test_two_neighbors_always_train(self):
        st_ = self._state(votes=0)
        assert vote_gate(st_, v_min=5, neighbor_count=2, rng=_ForcedRng(1.0)) is Action.TRAIN_LOCAL

    def test_forced_failures_escalate(self):
        st_ = self._state()
        seq = []
        for _ in range(3):
            assert vote_gate(st_, 5, 5, _ForcedRng(1.0)) is Action.SKIP
            seq.append(st_.p_escalation)
        assert seq == pytest.approx([0.2, 0.3, 0.4], abs=1e-9)

    def test_p_sequence_caps_at_one(self):
        st_ = self._state()
        ps = []
        for _ in range(12):
            vote_gate(st_, 5, 5, _ForcedRng(1.0))
            ps.append(st_.p_escalation)
        assert ps[:9] == pytest.approx([0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0], abs=1e-9)
        assert ps[9:] == pytest.approx([1.0, 1.0, 1.0], abs=1e-9)

    def test_success_draw_trains_randomly_and_resets_p(self):
        st_ = self._state(p=0.7)
        assert vote_gate(st_, 5, 5, _ForcedRng(0.0)) is Action.TRAIN_RANDOM
        assert st_.p_escalation == pytest.approx(0.1)

    def test_training_via_votes_resets_p(self):
        st_ = self._state(votes=9, p=0.8)
        vote_gate(st_, 5, 5, _ForcedRng(1.0))
        assert st_.p_escalation == pytest.approx(0.1)

    def test_p_never_decreases_while_skipping(self):
        st_ = self._state()
        last = st_.p_escalation
        for _ in range(20):
            vote_gate(st_, 5, 5, _ForcedRng(1.0))
            assert st_.p_escalation >= last - 1e-12
            assert st_.p_escalation <= 1.0
            last = st_.p_escalation


class TestSVoteConfig:
    def test_phase_budget_validated(self):
        with pytest.raises(Exception):
            SVoteConfig(total_rounds=7, t_init=5, n_diverge=2)

    def test_v_min_rules(self):
        assert SVoteConfig().v_min_for(9) == 5
        assert SVoteConfig().v_min_for(4) == 2
        assert SVoteConfig(v_min_fixed=0).v_min_for(9) == 0


# ----------------------------------------------------------------- engines


def _run_pair(seed=42, rounds=8, **sv_over):
    """Every model FedAvg and permissive svote evaluate, with the client count."""
    data, shards, topo, spec = small_problem(seed=seed)
    hp = HyperParams(lr=0.1, local_epochs=2, batch_size=16)
    with evaluated_models() as fed:
        run_baseline("fedavg", spec, hp, topo, shards, seed, rounds=rounds)
    cfg = SVoteConfig(total_rounds=rounds, t_init=3, n_diverge=0, tau=-1e9, v_min_fixed=0,
                      suppress_nontrainer_updates=False, **sv_over)
    with evaluated_models() as sv:
        run_svote(cfg, spec, hp, topo, shards, seed)
    return fed, sv, topo.num_clients


@st.composite
def _connected_topologies(draw, max_clients=6):
    """A random spanning tree over 2..max_clients clients plus random extra edges."""
    n = draw(st.integers(2, max_clients))
    edges = {(draw(st.integers(0, i - 1)), i) for i in range(1, n)}
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    edges |= {pair for pair, kept in zip(pairs, keep) if kept}
    return netsim.Topology(n, frozenset(edges))


@pytest.fixture
def round_kind_bytes(monkeypatch):
    """Bytes the ledger books per (round, message kind), tallied at TrafficLedger.record."""
    tally = defaultdict(int)
    record = TrafficLedger.record

    def tallied(ledger, msg):
        tally[(msg.round, msg.kind)] += msg.byte_size * len(msg.receivers)
        record(ledger, msg)

    monkeypatch.setattr(TrafficLedger, "record", tallied)
    return tally


def _recorded_svote_run(cfg, topo, seed, epochs):
    """run_svote with the vote, gate and broadcast calls recorded.

    Returns the result, the model spec, every selection voted for by
    (round, client), every gate call as (client, votes received, v_min,
    degree, action) in call order, the MODEL_UPDATE senders of each round,
    and the samples x epochs of one local pass of each client.
    """
    _, shards, _, spec = small_problem(seed=seed, num_clients=topo.num_clients)
    selections = {}
    gates = []
    updates = defaultdict(set)
    real_cast, real_gate, real_broadcast = protocol.cast_votes, protocol.vote_gate, protocol.broadcast

    def cast(bus, local, selected, rnd):
        selections[(rnd, local)] = set(selected)
        return real_cast(bus, local, selected, rnd)

    def gate(state, v_min_, degree, rng):
        action = real_gate(state, v_min_, degree, rng)
        gates.append((state.id, state.votes_received, v_min_, degree, action))
        return action

    def broadcast(bus, sender, kind, params, rnd):
        if kind is MessageKind.MODEL_UPDATE:
            updates[rnd].add(sender)
        return real_broadcast(bus, sender, kind, params, rnd)

    with (
        mock.patch.object(protocol, "cast_votes", cast),
        mock.patch.object(protocol, "vote_gate", gate),
        mock.patch.object(protocol, "broadcast", broadcast),
    ):
        res = run_svote(cfg, spec, HyperParams(lr=0.2, local_epochs=epochs, batch_size=16), topo, shards, seed)
    return res, spec, selections, gates, updates, [train.labels.shape[0] * epochs for train, _ in shards]


def _assert_work_units(res, per_pass):
    """A skipper trains nothing, any other client one pass; work units = samples trained + models aggregated."""
    for rec in res.records:
        assert rec.samples_trained == (0 if rec.action == Action.SKIP.value else per_pass[rec.client])
        assert rec.work_units == rec.samples_trained + rec.models_aggregated
    totals = metrics.work_units(res)
    for cid in range(res.num_clients):
        rows = [r for r in res.records if r.client == cid]
        assert totals[cid] == sum(r.samples_trained + r.models_aggregated for r in rows)


class TestEngines:
    @given(_connected_topologies(), st.sampled_from(protocol.BASELINES), st.integers(1, 3),
           st.integers(1, 2), st.integers(0, 2**16))
    @settings(max_examples=50, deadline=None)
    def test_baseline_rounds_never_reach_the_vote_branches(self, topo, kind, rounds, epochs, seed):
        _, shards, _, spec = small_problem(seed=seed, num_clients=topo.num_clients)
        hp = HyperParams(lr=0.1, local_epochs=epochs, batch_size=16)
        res = run_baseline(kind, spec, hp, topo, shards, seed, rounds=rounds)
        payload_vectors = 2 if kind == protocol.SCAFFOLD else 1
        size = netsim.HEADER_BYTES + netsim.BYTES_PER_PARAM * payload_vectors * spec.param_count
        assert len(res.records) == rounds * topo.num_clients
        for rec in res.records:
            degree = topo.degree(rec.client)
            assert rec.action == Action.TRAIN_LOCAL.value
            assert rec.models_aggregated == degree + 1
            assert rec.samples_trained == shards[rec.client][0].labels.shape[0] * epochs
            assert rec.bytes_sent == degree * size
        assert res.ledger.kind_bytes.get(MessageKind.VOTE, 0) == 0
        assert res.ledger.kind_bytes.get(MessageKind.NO_UPDATE, 0) == 0

    @given(_connected_topologies(), st.integers(1, 2), st.integers(0, 1), st.integers(1, 4),
           st.sampled_from([-1.0, 0.0, 0.5, 2.0]), st.sampled_from([None, 0, 2, 3, 5]), st.booleans(),
           st.integers(0, 2**16), st.integers(1, 2))
    @settings(max_examples=60, deadline=None)
    def test_svote_engine_invariants(self, topo, t_init, n_diverge, gated, tau, v_min, suppress, seed, epochs):
        n = topo.num_clients
        cfg = SVoteConfig(total_rounds=t_init + n_diverge + 1 + gated, t_init=t_init, n_diverge=n_diverge,
                          tau=tau, v_min_fixed=v_min, suppress_nontrainer_updates=suppress)
        res, spec, selections, gates, _, per_pass = _recorded_svote_run(cfg, topo, seed, epochs)
        _assert_work_units(res, per_pass)

        update, notice = netsim.message_byte_size(spec.param_count), netsim.message_byte_size(0)
        # one gate call per client per gated round, in client order
        assert [g[0] for g in gates] == list(range(n)) * gated
        for k, (cid, votes, v_min_, degree, action) in enumerate(gates):
            rnd = cfg.selection_round + 1 + k // n
            assert votes == sum(cid in selections[(rnd - 1, voter)] for voter in range(n))
            assert degree == topo.degree(cid) and v_min_ == cfg.v_min_for(degree)
            assert (action is Action.TRAIN_LOCAL) == (votes >= v_min_ or degree <= 2)
        gate_actions = {(cfg.selection_round + 1 + k // n, g[0]): g[4].value for k, g in enumerate(gates)}
        for rec in res.records:
            degree = topo.degree(rec.client)
            if rec.round <= cfg.t_init:
                assert rec.action == Action.TRAIN_LOCAL.value
                assert (rec.bytes_sent, rec.models_aggregated) == (degree * update, degree + 1)
            elif rec.round < cfg.selection_round:
                assert (rec.bytes_sent, rec.bytes_received, rec.models_aggregated) == (0, 0, 0)
            else:
                assert rec.action == gate_actions.get((rec.round, rec.client), Action.TRAIN_LOCAL.value)
                selected = selections[(rec.round, rec.client)]
                assert rec.models_aggregated == 1 + len(selected)
                size = notice if suppress and rec.action == Action.SKIP.value else update
                assert rec.bytes_sent == degree * size + notice * len(selected)
        for rnd in range(1, cfg.total_rounds + 1):
            rows = [r for r in res.records if r.round == rnd]
            assert sum(r.bytes_sent for r in rows) == sum(r.bytes_received for r in rows)

    @given(_connected_topologies(), st.integers(1, 2), st.integers(0, 1), st.integers(1, 4),
           st.sampled_from([-1.0, 0.0, 0.5, 2.0]), st.sampled_from([None, 0, 2, 3, 5]), st.booleans(),
           st.integers(0, 2**16), st.integers(1, 2))
    @settings(max_examples=60, deadline=None)
    def test_svote_engine_invariants_refresh_off(self, topo, t_init, n_diverge, gated, tau, v_min, suppress,
                                                 seed, epochs):
        n = topo.num_clients
        cfg = SVoteConfig(total_rounds=t_init + n_diverge + 1 + gated, t_init=t_init, n_diverge=n_diverge,
                          tau=tau, v_min_fixed=v_min, refresh_selection=False,
                          suppress_nontrainer_updates=suppress)
        res, spec, selections, gates, updates, per_pass = _recorded_svote_run(cfg, topo, seed, epochs)
        _assert_work_units(res, per_pass)

        update, notice = netsim.message_byte_size(spec.param_count), netsim.message_byte_size(0)
        # votes are cast once, in the selection round, and the selections stay frozen
        assert {rnd for rnd, _ in selections} == {cfg.selection_round}
        frozen = {cid: selections[(cfg.selection_round, cid)] for cid in range(n)}
        assert [g[0] for g in gates] == list(range(n)) * gated
        for cid, votes, v_min_, degree, action in gates:
            assert votes == sum(cid in frozen[voter] for voter in range(n))
            assert degree == topo.degree(cid) and v_min_ == cfg.v_min_for(degree)
            assert (action is Action.TRAIN_LOCAL) == (votes >= v_min_ or degree <= 2)
        gate_actions = {(cfg.selection_round + 1 + k // n, g[0]): g[4].value for k, g in enumerate(gates)}
        for rec in res.records:
            degree = topo.degree(rec.client)
            if rec.round <= cfg.t_init:
                assert (rec.bytes_sent, rec.models_aggregated) == (degree * update, degree + 1)
            elif rec.round < cfg.selection_round:
                assert (rec.bytes_sent, rec.bytes_received, rec.models_aggregated) == (0, 0, 0)
            elif rec.round == cfg.selection_round:
                assert rec.models_aggregated == 1 + len(frozen[rec.client])
                assert rec.bytes_sent == degree * update + notice * len(frozen[rec.client])
            else:
                assert rec.action == gate_actions[(rec.round, rec.client)]
                assert rec.models_aggregated == 1 + len(frozen[rec.client] & updates[rec.round])
                size = notice if suppress and rec.action == Action.SKIP.value else update
                assert rec.bytes_sent == degree * size
        assert res.ledger.total_sent() == res.ledger.total_received()

    @given(_connected_topologies(), st.integers(1, 3), st.integers(1, 3), st.integers(1, 2),
           st.integers(0, 2**16))
    @settings(max_examples=40, deadline=None)
    def test_degeneracy_oracle_on_random_topologies(self, topo, t_init, extra, epochs, seed):
        # all-permissive svote is FedAvg bit for bit, whatever the graph and schedule
        n, rounds = topo.num_clients, t_init + extra
        _, shards, _, spec = small_problem(seed=seed, num_clients=n)
        hp = HyperParams(lr=0.2, local_epochs=epochs, batch_size=16)
        cfg = SVoteConfig(total_rounds=rounds, t_init=t_init, n_diverge=0, tau=-1e9, v_min_fixed=0,
                          suppress_nontrainer_updates=False)
        with evaluated_models() as fed:
            run_baseline("fedavg", spec, hp, topo, shards, seed, rounds=rounds)
        with evaluated_models() as sv:
            run_svote(cfg, spec, hp, topo, shards, seed)
        assert len(fed) == len(sv) == rounds * n
        for a, b in zip(fed, sv):
            np.testing.assert_array_equal(a, b)

    def test_degenerate_svote_equals_fedavg_bitwise(self):
        fed, sv, n = _run_pair(rounds=8)
        assert len(fed) == len(sv) == 8 * n
        for rnd in range(8):
            for c in range(n):
                np.testing.assert_array_equal(fed[rnd * n + c], sv[rnd * n + c])

    def test_diverge_rounds_have_zero_traffic(self):
        data, shards, topo, spec = small_problem()
        hp = HyperParams(lr=0.1, local_epochs=1, batch_size=16)
        cfg = SVoteConfig(total_rounds=10, t_init=3, n_diverge=3)
        res = run_svote(cfg, spec, hp, topo, shards, 7)
        for rec in res.records:
            if 3 < rec.round <= 6:
                assert rec.bytes_sent == 0 and rec.bytes_received == 0
            else:
                assert rec.bytes_sent > 0

    def test_same_seed_reproduces_records(self):
        data, shards, topo, spec = small_problem()
        hp = HyperParams(lr=0.1, local_epochs=1, batch_size=16)
        cfg = SVoteConfig(total_rounds=9, t_init=2, n_diverge=1)
        a = run_svote(cfg, spec, hp, topo, shards, 3)
        b = run_svote(cfg, spec, hp, topo, shards, 3)
        assert a.records == b.records
        assert dict(a.ledger.round_sent) == dict(b.ledger.round_sent)

    def test_fedprox_mu_zero_matches_fedavg(self):
        data, shards, topo, spec = small_problem()
        hp = HyperParams(lr=0.1, local_epochs=1, batch_size=16, prox_mu=0.0)
        with evaluated_models() as a:
            run_baseline("fedavg", spec, hp, topo, shards, 5, rounds=6)
        with evaluated_models() as b:
            run_baseline("fedprox", spec, hp, topo, shards, 5, rounds=6)
        n = topo.num_clients
        assert len(a) == len(b) == 6 * n
        for rnd in range(6):
            for c in range(n):
                np.testing.assert_array_equal(a[rnd * n + c], b[rnd * n + c])

    def test_fedprox_mu_positive_differs(self):
        data, shards, topo, spec = small_problem()
        hp = HyperParams(lr=0.1, local_epochs=1, batch_size=16, prox_mu=0.5)
        a = run_baseline("fedavg", spec, hp, topo, shards, 5, rounds=4)
        b = run_baseline("fedprox", spec, hp, topo, shards, 5, rounds=4)
        assert any(not np.array_equal(x, y) for x, y in zip(a.final_models, b.final_models))

    def test_scaffold_doubles_model_payload(self):
        data, shards, topo, spec = small_problem()
        hp = HyperParams(lr=0.05, local_epochs=1, batch_size=16)
        fed = run_baseline("fedavg", spec, hp, topo, shards, 9, rounds=5)
        sca = run_baseline("scaffold", spec, hp, topo, shards, 9, rounds=5)
        def payload(res):
            bytes_ = res.ledger.kind_bytes[MessageKind.MODEL_UPDATE]
            count = res.ledger.kind_count[MessageKind.MODEL_UPDATE]
            return bytes_ - netsim.HEADER_BYTES * count
        assert payload(sca) == 2 * payload(fed)

    def test_two_identical_clients_stay_in_sync_under_fedavg(self):
        data, shards, topo, spec = small_problem(num_clients=6)
        shard = shards[0]
        topo2 = netsim.full_topology(2)
        with evaluated_models() as models:
            run_baseline("fedavg", spec, HyperParams(lr=0.1), topo2, [shard, shard], 13, rounds=5)
        assert len(models) == 5 * 2
        for rnd in range(5):
            np.testing.assert_array_equal(models[2 * rnd], models[2 * rnd + 1])

    def test_conservation_in_runs(self):
        data, shards, topo, spec = small_problem()
        hp = HyperParams(lr=0.1, local_epochs=1, batch_size=16)
        for res in (
            run_baseline("fedavg", spec, hp, topo, shards, 2, rounds=4),
            run_svote(SVoteConfig(total_rounds=8, t_init=2, n_diverge=1), spec, hp, topo, shards, 2),
        ):
            assert res.ledger.total_sent() == res.ledger.total_received()

    def test_zero_norm_arrival_ranks_at_floor(self, monkeypatch):
        data, shards, topo, spec = small_problem()
        zero_client = 2
        zero_X = shards[zero_client][0].features
        real_train, real_select = protocol.local_train, protocol.select_peers

        def train(w, X, *args):
            w, steps = real_train(w, X, *args)
            return (np.zeros_like(w) if X is zero_X else w), steps

        seen = []

        def select(local, sims, tau):
            seen.append((local, dict(sims)))
            return real_select(local, sims, tau)

        monkeypatch.setattr(protocol, "local_train", train)
        monkeypatch.setattr(protocol, "select_peers", select)
        cfg = SVoteConfig(total_rounds=6, t_init=2, n_diverge=1, tau=0.0)
        run_svote(cfg, spec, HyperParams(lr=0.1, local_epochs=1, batch_size=16), topo, shards, 5)
        selection_round = seen[: topo.num_clients]  # every client trained, so every model arrived
        for local, sims in selection_round:
            if local == zero_client:
                assert set(sims.values()) == {-1.0}
            else:
                assert sims[zero_client] == -1.0
                assert all(s > -1.0 for peer, s in sims.items() if peer != zero_client)

    def test_aggregation_includes_own_model_everywhere(self):
        data, shards, topo, spec = small_problem()
        hp = HyperParams(lr=0.1, local_epochs=1, batch_size=16)
        cfg = SVoteConfig(total_rounds=10, t_init=2, n_diverge=2)
        res = run_svote(cfg, spec, hp, topo, shards, 4)
        for rec in res.records:
            if 2 < rec.round <= 4:  # divergence rounds do not aggregate
                assert rec.models_aggregated == 0
            else:
                assert rec.models_aggregated >= 1

    def test_vote_symmetry_with_identical_models(self):
        # identical models -> unit similarity -> everyone selects all peers
        # -> every client collects degree-many votes
        topo = netsim.full_topology(5)
        bus = MessageBus(topo, TrafficLedger())
        w = np.random.default_rng(3).normal(size=12)
        matrix = cosine_similarity(np.tile(w, (5, 1)))
        for local in range(5):
            sims = {p: matrix[local, p] for p in range(5) if p != local}
            assert all(s == pytest.approx(1.0, abs=1e-9) for s in sims.values())
            selected = select_peers(local, sims, 0.0)
            assert selected == set(range(5)) - {local}
            cast_votes(bus, local, selected, rnd=1)
        bus.flush()
        for c in range(5):
            assert len(bus.take_inbox(c)) == 4

    def test_suppression_keeps_update_bytes_below_fedavg(self, round_kind_bytes):
        data, shards, topo, spec = small_problem(seed=3)
        hp = HyperParams(lr=0.5, local_epochs=2, batch_size=16)
        cfg = SVoteConfig(total_rounds=14, t_init=3, n_diverge=1)
        res = run_svote(cfg, spec, hp, topo, shards, 3)
        per_round_fedavg = sum(topo.degree(c) for c in range(topo.num_clients)) * (
            netsim.HEADER_BYTES + netsim.BYTES_PER_PARAM * spec.param_count
        )
        trained = {
            rnd: all(r.action != Action.SKIP.value for r in res.records if r.round == rnd)
            for rnd in range(cfg.selection_round + 1, cfg.total_rounds + 1)
        }
        saw_skip_round = False
        for rnd, all_trained in trained.items():
            update_bytes = round_kind_bytes[(rnd, MessageKind.MODEL_UPDATE)] + round_kind_bytes[
                (rnd, MessageKind.NO_UPDATE)
            ]
            assert update_bytes <= per_round_fedavg
            if all_trained:
                assert update_bytes == per_round_fedavg
            else:
                saw_skip_round = True
                assert update_bytes < per_round_fedavg
        assert saw_skip_round  # the scenario must actually exercise suppression

    def test_skipping_client_trains_less(self):
        data, shards, topo, spec = small_problem(seed=3)
        hp = HyperParams(lr=0.5, local_epochs=2, batch_size=16)
        cfg = SVoteConfig(total_rounds=14, t_init=3, n_diverge=1)
        res = run_svote(cfg, spec, hp, topo, shards, 3)
        skips = {c: 0 for c in range(res.num_clients)}
        for rec in res.records:
            if rec.action == Action.SKIP.value:
                skips[rec.client] += 1
                assert rec.samples_trained == 0
        assert sum(skips.values()) > 0

    def test_refresh_off_freezes_selection_and_votes(self, round_kind_bytes):
        data, shards, topo, spec = small_problem(seed=3)
        hp = HyperParams(lr=0.5, local_epochs=2, batch_size=16)
        cfg = SVoteConfig(total_rounds=14, t_init=3, n_diverge=1, refresh_selection=False)
        res = run_svote(cfg, spec, hp, topo, shards, 3)
        # votes exist only in the one-time selection round
        vote_rounds = {
            rnd for (rnd, kind), b in round_kind_bytes.items()
            if kind is MessageKind.VOTE and b > 0
        }
        assert vote_rounds == {cfg.selection_round}
        assert res.ledger.total_sent() == res.ledger.total_received()

    def test_refresh_off_vote_tally_persists(self):
        data, shards, topo, spec = small_problem(seed=3)
        hp = HyperParams(lr=0.5, local_epochs=2, batch_size=16)
        # 0-vote floor: every client trains, so persistence is observable in
        # actions staying TRAIN_LOCAL even though no votes arrive after the
        # selection round
        cfg = SVoteConfig(total_rounds=12, t_init=3, n_diverge=1,
                          refresh_selection=False, v_min_fixed=0)
        res = run_svote(cfg, spec, hp, topo, shards, 3)
        gated = [r for r in res.records if r.round > cfg.selection_round]
        assert gated and all(r.action == Action.TRAIN_LOCAL.value for r in gated)

    def test_mlp_engine_run(self):
        from svote.learner import MLP, ModelSpec

        data, shards, topo, _ = small_problem(seed=8)
        spec = ModelSpec(MLP, 8, 4, hidden_dim=6)
        hp = HyperParams(lr=0.2, local_epochs=1, batch_size=16)
        cfg = SVoteConfig(total_rounds=8, t_init=2, n_diverge=1)
        res = run_svote(cfg, spec, hp, topo, shards, 8)
        assert res.param_count == spec.param_count
        assert all(0.0 <= r.f1 <= 1.0 for r in res.records)
        assert all(np.all(np.isfinite(w)) for w in res.final_models)

    def test_two_client_federation_always_trains(self):
        # degree 1 <= 2: the gate never blocks, selection has a single candidate
        data, shards, _, spec = small_problem(num_clients=6)
        topo = netsim.full_topology(2)
        hp = HyperParams(lr=0.2, local_epochs=1, batch_size=16)
        cfg = SVoteConfig(total_rounds=8, t_init=2, n_diverge=1)
        res = run_svote(cfg, spec, hp, topo, shards[:2], 5)
        assert all(r.action == Action.TRAIN_LOCAL.value for r in res.records)
        gated = [r for r in res.records if r.round > cfg.selection_round]
        assert gated and all(r.models_aggregated == 2 for r in gated)

    def test_unreachable_vote_floor_leans_on_escalation(self):
        data, shards, topo, spec = small_problem(seed=9)
        hp = HyperParams(lr=0.2, local_epochs=1, batch_size=16)
        cfg = SVoteConfig(total_rounds=20, t_init=2, n_diverge=1, v_min_fixed=100)
        res = run_svote(cfg, spec, hp, topo, shards, 9)
        gated = [r for r in res.records if r.round > cfg.selection_round]
        actions = {r.action for r in gated}
        assert Action.TRAIN_LOCAL.value not in actions  # floor unreachable
        assert Action.TRAIN_RANDOM.value in actions  # escalation rescues clients

    def test_bad_baseline_kind_rejected(self):
        data, shards, topo, spec = small_problem()
        with pytest.raises(Exception):
            run_baseline("adam", spec, HyperParams(), topo, shards, 1)

    def test_shard_count_must_match_clients(self):
        data, shards, topo, spec = small_problem()
        with pytest.raises(ProtocolError):
            run_baseline("fedavg", spec, HyperParams(), topo, shards[:-1], 1)
