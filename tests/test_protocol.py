"""Protocol operations and round-engine behavior."""

import itertools
from collections import defaultdict
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_engine
from conftest import adjacency_of, booked_rounds, evaluated_models, peak_traced_bytes, small_problem, traffic_totals
from svote import cli, datahub, learner, metrics, netsim, protocol
from svote.errors import ConfigError, ProtocolError
from svote.kernels import DTYPE
from svote.learner import MLP, HyperParams, ModelSpec
from svote.netsim import MessageBus, MessageKind, TrafficLedger
from svote.protocol import (
    _GRAM_COLUMNS,
    ACTION_NAMES,
    Action,
    Phase,
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

    def test_out_row_receives_the_mean(self):
        rng = np.random.default_rng(23)
        models = rng.normal(size=(5, 301))
        matrix = np.zeros((3, 301))
        out = aggregate([models[4], models[0], models[2]], out=matrix[1])
        assert np.shares_memory(out, matrix[1])
        np.testing.assert_array_equal(matrix[1], aggregate([models[4], models[0], models[2]]))
        np.testing.assert_array_equal(matrix[[0, 2]], 0.0)

    @given(
        st.integers(1, 64),
        st.integers(2, 600),
        st.sampled_from([np.float32, np.float64]),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_a_stack_sums_its_rows_in_order(self, k, p, dtype, seed):
        # the one-reduction form must give the bits of the loop over row
        # views: rows of scales 1e-6 to 1e6, so the order of the additions
        # shows in the low bits, and signed zeros, whole columns of -0.0
        # among them
        rng = np.random.default_rng(seed)
        stack = rng.normal(size=(k, p)) * 10.0 ** rng.integers(-6, 7, size=(k, 1))
        stack[rng.random(size=(k, p)) < 0.1] = 0.0
        stack[rng.random(size=(k, p)) < 0.1] = -0.0
        stack[:, rng.random(size=p) < 0.1] = -0.0
        stack = stack.astype(dtype)
        out = np.empty(p, dtype=dtype)
        assert aggregate(stack, out=out) is out
        assert out.tobytes() == aggregate(list(stack)).tobytes()

    def test_a_one_column_stack_takes_the_row_loop(self):
        # an axis-0 reduction down a single column is summed pairwise, which
        # rounds differently from the ordered sum on these rows
        scales = 10.0 ** np.arange(-4, 4).repeat(8)
        column = (np.random.default_rng(24).normal(size=64) * scales).astype(np.float32)[:, None]
        ordered = column[0].copy()
        for row in column[1:]:
            ordered += row
        assert np.add.reduce(column, axis=0).tobytes() != ordered.tobytes()
        assert aggregate(column).tobytes() == (ordered / 64).tobytes()

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


# widths around one column block of the Gram matrix sum, and one that ends a
# few columns into a third block
_BLOCK_EDGE_WIDTHS = (_GRAM_COLUMNS - 1, _GRAM_COLUMNS, _GRAM_COLUMNS + 1, 2 * _GRAM_COLUMNS + 3)


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

    @given(
        st.integers(1, 6),
        st.one_of(st.integers(1, 9), st.sampled_from(_BLOCK_EDGE_WIDTHS)),
        st.sampled_from([np.float32, np.float64]),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60)
    def test_matrix_form_matches_vector_form(self, n, p, dtype, seed):
        rng = np.random.default_rng(seed)
        models = (rng.normal(size=(n, p)) * rng.choice([1e-3, 1.0, 1e3], size=(n, 1))).astype(dtype)
        if n > 2:  # parallel and antiparallel rows sit on the clip bounds
            models[1] = 3.0 * models[0]
            models[2] = -models[0]
        sims = cosine_similarity(models)
        assert sims.shape == (n, n)
        assert np.all((sims >= -1.0) & (sims <= 1.0))
        rows = models.astype(np.float64)  # the vector form in float64, as the Gram matrix is built
        for i in range(n):
            for j in range(n):
                assert abs(sims[i, j] - _vector_cosine(rows[i], rows[j])) <= 1e-12

    @pytest.mark.parametrize("p", [1, 102, _GRAM_COLUMNS])
    def test_one_block_is_one_product_of_the_whole_cast(self, p):
        # a matrix no wider than one block, such as the P = 102 softmax, gets
        # the arithmetic of casting the whole matrix and taking one product
        models = np.random.default_rng(p).normal(size=(20, p)).astype(DTYPE)
        models[3] = 0.0
        whole = models.astype(np.float64)
        gram = whole @ whole.T
        norms = np.sqrt(np.diag(gram))
        with np.errstate(divide="ignore", invalid="ignore"):
            expected = np.clip(gram / np.outer(norms, norms), -1.0, 1.0)
        expected[3, :] = expected[:, 3] = -1.0
        np.testing.assert_array_equal(cosine_similarity(models), expected)

    def test_peak_memory_is_one_float64_block_not_the_cast_matrix(self):
        n, params = 8, ModelSpec(MLP, 784, 10, hidden_dim=64).param_count  # P = 50,890
        models = np.random.default_rng(8).uniform(-0.05, 0.05, size=(n, params)).astype(DTYPE)
        out = []
        peak = peak_traced_bytes(lambda: out.append(cosine_similarity(models)))
        # one n x _GRAM_COLUMNS float64 block, plus the n x n results and
        # temporaries with their array headers; a float64 copy of the whole
        # matrix is n x P floats, 25 times the block
        assert peak < (n * _GRAM_COLUMNS + 32 * n * n) * 8
        assert out[0].shape == (n, n)

    def test_gram_matrix_is_divided_and_clipped_in_place(self):
        n = 1000
        models = np.random.default_rng(9).uniform(-0.05, 0.05, size=(n, 102)).astype(DTYPE)
        out = []
        peak = peak_traced_bytes(lambda: out.append(cosine_similarity(models)))
        # the Gram matrix, the norms' outer product and the n x 102 float64
        # cast: 2.1 n x n float64 matrices, where a quotient and a clipped
        # copy beside them would be 3.1
        assert peak < 2.5 * n * n * 8
        assert out[0].shape == (n, n)

    def test_matrix_form_floors_zero_norm_rows(self):
        models = np.array([[1.0, 2.0], [0.0, 0.0], [2.0, -1.0], [3.0, 1.0]])
        sims = cosine_similarity(models)
        assert np.all(sims[1, :] == -1.0) and np.all(sims[:, 1] == -1.0)
        assert sims[0, 3] == pytest.approx(_vector_cosine(models[0], models[3]), abs=1e-12)

    def test_matrix_form_needs_a_matrix(self):
        with pytest.raises(ProtocolError):
            cosine_similarity(np.ones(3))


def _selected_by_client_zero(scores, tau):
    """Client 0's selection from these peer similarities, in a phase where no other client has candidates."""
    n = max(scores) + 1
    sims, candidates = np.zeros((n, n)), np.zeros((n, n), dtype=bool)
    for peer, s in scores.items():
        sims[0, peer], candidates[0, peer] = s, True
    selection = select_peers(sims, candidates, tau)
    assert not selection[1:].any()
    return set(np.flatnonzero(selection[0]).tolist())


class TestSelectPeers:
    def test_threshold_example(self):
        # mu=0.5, sigma=sqrt(0.06)~=0.245, threshold~=0.6225
        assert _selected_by_client_zero({1: 0.2, 2: 0.5, 3: 0.8}, 0.5) == {3}

    def test_all_equal_selects_all(self):
        for tau in (0.0, 0.5, 3.0):
            assert _selected_by_client_zero({1: 0.4, 2: 0.4, 3: 0.4}, tau) == {1, 2, 3}

    def test_very_negative_tau_selects_all(self):
        assert _selected_by_client_zero({1: -0.9, 2: 0.1, 3: 0.9}, -1e9) == {1, 2, 3}

    def test_fallback_to_most_similar(self):
        assert _selected_by_client_zero({1: 0.1, 2: 0.9}, 100.0) == {2}

    def test_fallback_tie_breaks_lowest_id(self):
        assert _selected_by_client_zero({5: 0.8, 3: 0.8, 7: 0.1}, 100.0) == {3}

    def test_client_without_candidates_selects_nothing(self):
        sims = np.random.default_rng(4).uniform(-1, 1, size=(4, 4))
        candidates = np.zeros((4, 4), dtype=bool)
        assert not select_peers(sims, candidates, 0.0).any()
        candidates[2, [0, 3]] = True  # only client 2 has candidates
        selection = select_peers(sims, candidates, 100.0)
        assert np.flatnonzero(selection).tolist() == [2 * 4 + (0 if sims[2, 0] >= sims[2, 3] else 3)]

    @given(st.floats(0.1, 10.0))
    @settings(max_examples=30)
    def test_scale_invariance_via_cosine(self, scale):
        # cosine ignores positive rescaling, so the selected sets do too
        models = np.random.default_rng(21).normal(size=(6, 6))
        candidates = ~np.eye(6, dtype=bool)
        selection = select_peers(cosine_similarity(models), candidates, 0.3)
        np.testing.assert_array_equal(selection, select_peers(cosine_similarity(models * scale), candidates, 0.3))
        assert selection.any(axis=1).all()


# candidate counts on both sides of 8 and of 128, where numpy's pairwise sum
# starts its 8-way unroll and splits into blocks
_ROW_COUNTS = (1, 2, 3, 7, 8, 9, 16, 127, 128, 129, 139)


def _per_client_rule(sims, candidates, tau):
    """The selection the frozen per-client rule makes, client by client, as a mask."""
    selection = np.zeros(candidates.shape, dtype=bool)
    for cid, row in enumerate(candidates):
        peers = np.flatnonzero(row).tolist()
        if peers:
            selection[cid, list(reference_engine.select_peers(cid, {p: sims[cid, p] for p in peers}, tau))] = True
    return selection


class TestGroupedSelection:
    """The whole-phase select_peers against the per-client rule of tests/reference_engine.py."""

    @given(st.integers(0, 2**32 - 1), st.sampled_from([-1.0, -0.3, 0.0, 0.4, 1.5, 100.0]),
           st.lists(st.tuples(st.sampled_from(_ROW_COUNTS), st.sampled_from(["spread", "identical", "tied", "floor"])),
                    min_size=1, max_size=16))
    @settings(max_examples=60, deadline=None)
    def test_matches_the_per_client_rule(self, seed, tau, rows):
        # rows: (candidate count, kind of values) of clients 0, 1, ...; later clients have no candidates.
        # "identical" rows must all clear their own mean; "tied" rows hold two equal maxima (tau 100
        # falls back to the lower id); "floor" rows are a zero-norm client's, all -1; "spread" rows
        # may rank zero-norm peers at -1
        n = 140
        rng = np.random.default_rng(seed)
        sims = rng.uniform(-1.0, 1.0, size=(n, n))
        candidates = np.zeros((n, n), dtype=bool)
        identical = []
        for cid, (count, kind) in enumerate(rows):
            peers = np.sort(rng.choice(np.delete(np.arange(n), cid), size=count, replace=False))
            candidates[cid, peers] = True
            if kind == "identical":
                sims[cid, peers] = rng.uniform(-1.0, 1.0)
                identical.append(cid)
            elif kind == "tied" and count > 1:
                a, b = rng.choice(peers, size=2, replace=False)
                sims[cid, a] = sims[cid, b] = sims[cid, peers].max()
            elif kind == "floor":
                sims[cid, peers] = -1.0
            else:
                sims[cid, peers[rng.random(count) < 0.2]] = -1.0
        selection = select_peers(sims, candidates, tau)
        np.testing.assert_array_equal(selection, _per_client_rule(sims, candidates, tau))
        assert not (selection & ~candidates).any()
        assert selection[: len(rows)].any(axis=1).all() and not selection[len(rows) :].any()
        np.testing.assert_array_equal(selection[identical], candidates[identical])

    @given(st.integers(0, 2**32 - 1), st.sampled_from(_ROW_COUNTS[1:] + (200,)), st.integers(1, 6))
    @settings(max_examples=80, deadline=None)
    def test_thresholds_have_the_per_client_bits(self, seed, count, clients):
        # Every client ranks the same values, each in its own order, and tau puts one value on the
        # threshold. With no slack, whether it is selected turns on the last bit of each client's
        # mean and std, which depend on the order a row is summed in.
        rng = np.random.default_rng(seed)
        values = rng.uniform(-1.0, 1.0, size=count)
        tau = float((values[rng.integers(count)] - values.mean()) / values.std())
        n = count + clients
        sims, candidates = np.zeros((n, n)), np.zeros((n, n), dtype=bool)
        for cid in range(clients):
            peers = np.sort(rng.choice(np.delete(np.arange(n), cid), size=count, replace=False))
            candidates[cid, peers] = True
            sims[cid, peers] = rng.permutation(values)
        with mock.patch.object(protocol, "_SELECT_EPS", 0.0), mock.patch.object(reference_engine, "_SELECT_EPS", 0.0):
            np.testing.assert_array_equal(select_peers(sims, candidates, tau), _per_client_rule(sims, candidates, tau))


class TestSelectionSlack:
    """Models with equal similarities must all select each other, at the length of the wide MLP.

    Identical rows give bit-equal dot products, so they pass whatever the
    Gram matrix's dtype. Rows that are scaled copies of one row have cosine 1
    up to round-off: a float32 Gram scatters it by about 1e-7, far beyond the
    selection slack, and fails them.
    """

    @pytest.mark.parametrize("tau", [0.0, 0.5])
    @pytest.mark.parametrize("scaled", [False, True])
    def test_parallel_rows_select_every_peer(self, scaled, tau):
        n, params = 8, ModelSpec(MLP, 784, 10, hidden_dim=64).param_count  # P = 50,890
        row = np.random.default_rng(7).uniform(-0.05, 0.05, size=params).astype(DTYPE)
        scales = 0.37 * np.arange(1, n + 1, dtype=DTYPE) if scaled else np.ones(n, dtype=DTYPE)
        models = scales[:, None] * row
        assert models.dtype == DTYPE
        candidates = ~np.eye(n, dtype=bool)
        np.testing.assert_array_equal(select_peers(cosine_similarity(models), candidates, tau), candidates)


def _vote_bus(n):
    return MessageBus(netsim.full_topology(n))


def _votes_received(bus):
    bus.flush()
    return bus.take_inbox()[MessageKind.VOTE].sum(axis=0).tolist()


class TestCastVotes:
    def test_selected_peers_gain_votes(self):
        bus = _vote_bus(10)
        selection = np.zeros((10, 10), dtype=bool)
        selection[0, [3, 7]] = True
        cast_votes(bus, selection)
        assert _votes_received(bus) == [0, 0, 0, 1, 0, 0, 0, 1, 0, 0]
        assert bus.ledger.sent[0] == 2 * netsim.message_byte_size(0)

    def test_empty_selection_sends_nothing(self):
        bus = _vote_bus(4)
        cast_votes(bus, np.zeros((4, 4), dtype=bool))
        assert _votes_received(bus) == [0] * 4
        assert not bus.ledger.sent.any() and bus.ledger.kind_count[MessageKind.VOTE] == 0

    def test_everyone_votes_for_peer_zero(self):
        bus = _vote_bus(11)
        selection = np.zeros((11, 11), dtype=bool)
        selection[1:, 0] = True
        cast_votes(bus, selection)
        assert _votes_received(bus) == [10] + [0] * 10


def _gate(votes, floor, degree, levels, rng):
    """One client's action from one vote_gate call: votes, floor and degree are its entries, levels its 1-array."""
    codes = vote_gate(np.array([votes]), np.array([floor]), np.array([degree]), levels, [rng])
    assert codes.dtype == np.int8 and codes.shape == (1,)
    return Action(codes[0])


def _gate_cases(n):
    """n clients' rounds of votes, vote floors, degrees (0-6, so some have at most 2), levels and rng seeds."""

    def per_client(values):
        return st.lists(values, min_size=n, max_size=n)

    rounds = st.lists(per_client(st.integers(0, 6)), min_size=1, max_size=4)
    return st.tuples(rounds, per_client(st.integers(0, 6)), per_client(st.integers(0, 6)),
                     per_client(st.integers(1, 10)), per_client(st.integers(0, 2**32 - 1)))


class TestVoteGate:
    """One client's gate decisions; its escalation p is levels[0] / 10."""

    def _levels(self, p=0.1):
        return np.array([round(10 * p)], dtype=np.int8)

    def test_enough_votes_trains(self):
        assert _gate(3, floor=2, degree=9, levels=self._levels(), rng=_ForcedRng(1.0)) is Action.TRAIN_LOCAL

    def test_two_neighbors_always_train(self):
        assert _gate(0, floor=5, degree=2, levels=self._levels(), rng=_ForcedRng(1.0)) is Action.TRAIN_LOCAL

    def test_forced_failures_escalate(self):
        levels = self._levels()
        seq = []
        for _ in range(3):
            assert _gate(0, 5, 5, levels, _ForcedRng(1.0)) is Action.SKIP
            seq.append(levels[0] / 10)
        assert seq == pytest.approx([0.2, 0.3, 0.4], abs=1e-9)
        assert levels.dtype == np.int8

    def test_p_sequence_caps_at_one(self):
        levels = self._levels()
        seq = []
        for _ in range(12):
            _gate(0, 5, 5, levels, _ForcedRng(1.0))
            seq.append(levels[0] / 10)
        assert seq[:9] == pytest.approx([0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0], abs=1e-9)
        assert seq[9:] == pytest.approx([1.0, 1.0, 1.0], abs=1e-9)

    def test_success_draw_trains_randomly_and_resets_p(self):
        levels = self._levels(p=0.7)
        assert _gate(0, 5, 5, levels, _ForcedRng(0.0)) is Action.TRAIN_RANDOM
        assert levels[0] / 10 == pytest.approx(0.1)

    def test_training_via_votes_resets_p(self):
        levels = self._levels(p=0.8)
        votes = np.array([9])
        vote_gate(votes, np.array([5]), np.array([5]), levels, [_ForcedRng(1.0)])
        assert levels[0] / 10 == pytest.approx(0.1)
        assert votes.tolist() == [9]

    def test_p_never_decreases_while_skipping(self):
        levels = self._levels()
        last = levels[0] / 10
        for _ in range(20):
            _gate(0, 5, 5, levels, _ForcedRng(1.0))
            assert levels[0] / 10 >= last - 1e-12
            assert levels[0] / 10 <= 1.0
            last = levels[0] / 10

    @given(st.integers(1, 8).flatmap(_gate_cases))
    @settings(max_examples=200, deadline=None)
    def test_matches_the_frozen_per_client_gate(self, drawn):
        # rounds of votes against fixed floors and degrees, from any starting levels, each client on its own stream;
        # the frozen gate's p starts at the level's rung of its own float ladder, climbed by forced failures
        rounds, floors, degrees, levels, seeds = drawn
        n = len(levels)
        p_escalation = [reference_engine.P_ESCALATION_START] * n
        for cid, level in enumerate(levels):
            for _ in range(level - 1):
                reference_engine.vote_gate(cid, [0] * n, p_escalation, 1, 3, _ForcedRng(1.0))
        levels = np.array(levels, dtype=np.int8)
        assert (levels / 10).tobytes() == np.array(p_escalation).tobytes()
        rngs, frozen_rngs = ([np.random.default_rng(seed) for seed in seeds] for _ in range(2))
        for votes in rounds:
            codes = vote_gate(np.array(votes), np.array(floors), np.array(degrees), levels, rngs)
            frozen = [reference_engine.vote_gate(cid, votes, p_escalation, floors[cid], degrees[cid], rng)
                      for cid, rng in enumerate(frozen_rngs)]
            assert codes.dtype == np.int8 and levels.dtype == np.int8
            assert [ACTION_NAMES[code] for code in codes] == [action.value for action in frozen]
            assert (levels / 10).tobytes() == np.array(p_escalation).tobytes()
        assert [rng.bit_generator.state for rng in rngs] == [rng.bit_generator.state for rng in frozen_rngs]


class TestEngineMemory:
    """Above the shards, a run holds its model buffers and one client's training buffers."""

    @pytest.mark.parametrize("method, matrices", [("fedavg", 2), ("scaffold", 4), ("svote", 2)])
    def test_peak_is_the_buffers_plus_one_client_in_training(self, method, matrices):
        # two n x P model buffers, plus SCAFFOLD's local and global variate
        # matrices; above them, one training pass's copy of w and gradient
        # (see TestBuffers) and the run's batch-sized temporaries measure just
        # over 3 P floats, and the bound allows 4. One more n x P matrix at
        # any point, such as a model matrix stacked from a list, is n = 8 P
        # floats more; a float64 cast of the whole model matrix for the
        # similarity is 2n.
        n = 8
        _, shards, topo, _ = small_problem(num_clients=n, input_dim=196, per_class=60)
        spec = ModelSpec(MLP, 196, 4, hidden_dim=64)
        hp = HyperParams(lr=0.1, local_epochs=1, batch_size=16)
        if method == "svote":
            # a selection round, then two gated rounds that select again
            cfg = SVoteConfig(total_rounds=4, t_init=1, n_diverge=0, refresh_selection=True)
            peak = peak_traced_bytes(lambda: run_svote(cfg, spec, hp, topo, shards, 3))
        else:
            peak = peak_traced_bytes(lambda: run_baseline(method, spec, hp, topo, shards, 3, rounds=3))
        assert peak < (matrices * n + 4) * spec.param_count * DTYPE.itemsize


class TestDtypeContract:
    """Data, models, gradients and variates are kernels.DTYPE, the precision the wire format prices."""

    def test_shards_models_and_variates(self):
        _, shards, topo, spec = small_problem()
        assert all(part.features.dtype == DTYPE for pair in shards for part in pair)
        variates = []
        refresh = protocol.scaffold_update_cv

        def recorded(local_c, global_c, *args):
            variates.append((local_c.dtype, global_c.dtype))
            return refresh(local_c, global_c, *args)

        hp = HyperParams(lr=0.1, local_epochs=1, batch_size=16)
        with evaluated_models() as models, mock.patch.object(protocol, "scaffold_update_cv", recorded):
            run_baseline("scaffold", spec, hp, topo, shards, 1, rounds=2)
        assert len(models) == 2 * topo.num_clients and {w.dtype for w in models} == {DTYPE}
        assert len(variates) == 2 * topo.num_clients and set(variates) == {(DTYPE, DTYPE)}

    @pytest.mark.parametrize("method", ["fedprox", "scaffold"])
    def test_training_transforms_do_not_upcast(self, method):
        # every step's direction is computed by the transform local_train
        # looks up in learner, from the gradient and the current weights
        # (FedProx) or the local variates (SCAFFOLD)
        steps_seen, trained_dtypes = [], []
        train = protocol.local_train
        name = "prox_grad" if method == "fedprox" else "scaffold_grad"
        transform = getattr(learner, name)

        def checked(g, other, *args, **kwargs):
            out = transform(g, other, *args, **kwargs)
            steps_seen.append((g.dtype, other.dtype, out.dtype))
            return out

        def recorded(*args, **kwargs):
            trained, steps = train(*args, **kwargs)
            trained_dtypes.extend([trained.dtype] * len(steps))
            return trained, steps

        _, shards, topo, spec = small_problem()
        hp = HyperParams(lr=0.1, local_epochs=1, batch_size=16)
        with mock.patch.object(protocol, "local_train", recorded), mock.patch.object(learner, name, checked):
            run_baseline(method, spec, hp, topo, shards, 1, rounds=1)
        assert steps_seen and set(steps_seen) == {(DTYPE, DTYPE, DTYPE)}
        assert trained_dtypes == [DTYPE] * topo.num_clients

    def test_gradient_buffer_of_another_dtype_rejected(self):
        spec = ModelSpec(learner.SOFTMAX, 5, 3)
        X = np.random.default_rng(2).normal(size=(4, 5))
        y = np.array([0, 1, 2, 0])
        w = learner.init_params(spec, 1)
        assert w.dtype == DTYPE
        with pytest.raises(ConfigError):
            learner.loss_and_grad(w, X, y, spec, np.empty(spec.param_count, dtype=np.float64))
        with pytest.raises(ConfigError):
            learner.loss_and_grad(w.astype(np.float64), X, y, spec, np.empty(spec.param_count, dtype=DTYPE))
        _, grad = learner.loss_and_grad(w, X, y, spec, np.empty(spec.param_count, dtype=DTYPE))
        assert grad.dtype == DTYPE


class TestSVoteConfig:
    def test_phase_budget_validated(self):
        with pytest.raises(Exception):
            SVoteConfig(total_rounds=7, t_init=5, n_diverge=2)

    def test_v_min_rules(self):
        assert SVoteConfig().v_min_for(9) == 5
        assert SVoteConfig().v_min_for(4) == 2
        assert SVoteConfig(v_min=0).v_min_for(9) == 0
        assert SVoteConfig(v_min=3).v_min_for(1) == 3
        for value in ("1", "0", -1, True, None, 1.0, "Half"):
            with pytest.raises(ConfigError, match="v_min"):
                SVoteConfig(v_min=value)


# ----------------------------------------------------------------- engines


def _run_pair(seed=42, rounds=8, **sv_over):
    """Every model FedAvg and permissive svote evaluate, with the client count."""
    data, shards, topo, spec = small_problem(seed=seed)
    hp = HyperParams(lr=0.1, local_epochs=2, batch_size=16)
    with evaluated_models() as fed:
        run_baseline("fedavg", spec, hp, topo, shards, seed, rounds=rounds)
    cfg = SVoteConfig(total_rounds=rounds, t_init=3, n_diverge=0, tau=-1e9, v_min=0,
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
    return netsim.Topology(adjacency_of(n, edges))


@pytest.fixture
def round_kind_bytes():
    """Bytes the ledger books per (round, message kind), tallied at TrafficLedger.record."""
    tally = defaultdict(int)
    record = TrafficLedger.record

    def tallied(ledger, routes, kind, byte_size):
        tally[(round_of(ledger), kind)] += byte_size * int(routes.sum())
        record(ledger, routes, kind, byte_size)

    with booked_rounds() as round_of, mock.patch.object(TrafficLedger, "record", tallied):
        yield tally


def _recorded_svote_run(cfg, topo, seed, epochs):
    """run_svote with the vote and broadcast calls recorded.

    Returns the result, the model spec, every selection voted for by
    (round, client), the MODEL_UPDATE senders of each round, and the
    samples x epochs of one local pass of each client.
    """
    _, shards, _, spec = small_problem(seed=seed, num_clients=topo.num_clients)
    selections = {}
    updates = defaultdict(set)
    real_cast, real_broadcast = protocol.cast_votes, protocol.broadcast

    def cast(bus, selection):
        for cid, row in enumerate(selection):
            selections[(round_of(bus.ledger), cid)] = set(np.flatnonzero(row).tolist())
        return real_cast(bus, selection)

    def broadcast(bus, senders, kind, params):
        if kind is MessageKind.MODEL_UPDATE:
            updates[round_of(bus.ledger)].update(np.flatnonzero(senders).tolist())
        return real_broadcast(bus, senders, kind, params)

    with (
        booked_rounds() as round_of,
        mock.patch.object(protocol, "cast_votes", cast),
        mock.patch.object(protocol, "broadcast", broadcast),
    ):
        res = run_svote(cfg, spec, HyperParams(lr=0.2, local_epochs=epochs, batch_size=16), topo, shards, seed)
    return res, spec, selections, updates, [train.labels.shape[0] * epochs for train, _ in shards]


def _columns(res):
    """The six rounds x n columns of a run's result."""
    return (res.f1, res.bytes_sent, res.bytes_received, res.actions, res.samples_trained, res.models_aggregated)


def _assert_gated_actions(res, cfg, votes_of):
    """Every round up to the selection round trains locally; a gated round's client trains locally exactly when
    its votes in the selections votes_of(round) reach its floor, or it has at most 2 neighbors."""
    topo = res.topology
    n = topo.num_clients
    assert (res.actions[: cfg.selection_round] == Action.TRAIN_LOCAL).all()
    for rnd in range(cfg.selection_round + 1, cfg.total_rounds + 1):
        selections = votes_of(rnd)
        votes = np.array([sum(cid in selections[voter] for voter in range(n)) for cid in range(n)])
        trains_local = res.actions[rnd - 1] == Action.TRAIN_LOCAL
        np.testing.assert_array_equal(trains_local, (votes >= cfg.v_min_for(topo.degrees)) | (topo.degrees <= 2))


def _assert_work_units(res, per_pass):
    """A skipper trains nothing, any other client one pass; work units = samples trained + models aggregated."""
    assert all(column.shape == (res.rounds, res.topology.num_clients) for column in _columns(res))
    skipped = res.actions == Action.SKIP.value
    np.testing.assert_array_equal(res.samples_trained, np.where(skipped, 0, per_pass))
    # metrics.csv lists the records round-major and prints each one's work units last
    units = [int(line.rsplit(",", 1)[1]) for line in cli._csv_lines(res, metrics.EnergyCoeffs())[1:]]
    assert units == (res.samples_trained + res.models_aggregated).ravel().tolist()


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
        degrees = topo.degrees
        assert all(column.shape == (rounds, topo.num_clients) for column in _columns(res))
        assert (res.actions == Action.TRAIN_LOCAL.value).all()
        assert (res.models_aggregated == degrees + 1).all()
        assert (res.samples_trained == [train.labels.shape[0] * epochs for train, _ in shards]).all()
        assert (res.bytes_sent == degrees * size).all()
        assert res.bytes_by_kind[MessageKind.VOTE] == 0
        assert res.bytes_by_kind[MessageKind.NO_UPDATE] == 0

    @given(_connected_topologies(), st.integers(1, 2), st.integers(0, 1), st.integers(1, 4),
           st.sampled_from([-1.0, 0.0, 0.5, 2.0]), st.sampled_from(["half", 0, 2, 3, 5]), st.booleans(),
           st.integers(0, 2**16), st.integers(1, 2))
    @settings(max_examples=60, deadline=None)
    def test_svote_engine_invariants(self, topo, t_init, n_diverge, gated, tau, v_min, suppress, seed, epochs):
        n = topo.num_clients
        cfg = SVoteConfig(total_rounds=t_init + n_diverge + 1 + gated, t_init=t_init, n_diverge=n_diverge,
                          tau=tau, v_min=v_min, suppress_nontrainer_updates=suppress)
        res, spec, selections, _, per_pass = _recorded_svote_run(cfg, topo, seed, epochs)
        _assert_work_units(res, per_pass)

        update, notice = netsim.message_byte_size(spec.param_count), netsim.message_byte_size(0)
        # a gated round reads the votes cast in the round before it
        _assert_gated_actions(res, cfg, lambda rnd: [selections[(rnd - 1, voter)] for voter in range(n)])
        degrees = topo.degrees
        for rnd, sent, received, actions, aggregated in zip(
            range(1, cfg.total_rounds + 1), res.bytes_sent, res.bytes_received, res.actions, res.models_aggregated
        ):
            if rnd <= cfg.t_init:
                assert (sent == degrees * update).all() and (aggregated == degrees + 1).all()
            elif rnd < cfg.selection_round:
                assert not sent.any() and not received.any() and not aggregated.any()
            else:
                for cid in range(n):
                    selected = selections[(rnd, cid)]
                    assert aggregated[cid] == 1 + len(selected)
                    size = notice if suppress and actions[cid] == Action.SKIP.value else update
                    assert sent[cid] == degrees[cid] * size + notice * len(selected)
            assert sent.sum() == received.sum()

    @given(_connected_topologies(), st.integers(1, 2), st.integers(0, 1), st.integers(1, 4),
           st.sampled_from([-1.0, 0.0, 0.5, 2.0]), st.sampled_from(["half", 0, 2, 3, 5]), st.booleans(),
           st.integers(0, 2**16), st.integers(1, 2))
    @settings(max_examples=60, deadline=None)
    def test_svote_engine_invariants_refresh_off(self, topo, t_init, n_diverge, gated, tau, v_min, suppress,
                                                 seed, epochs):
        n = topo.num_clients
        cfg = SVoteConfig(total_rounds=t_init + n_diverge + 1 + gated, t_init=t_init, n_diverge=n_diverge,
                          tau=tau, v_min=v_min, refresh_selection=False,
                          suppress_nontrainer_updates=suppress)
        res, spec, selections, updates, per_pass = _recorded_svote_run(cfg, topo, seed, epochs)
        _assert_work_units(res, per_pass)

        update, notice = netsim.message_byte_size(spec.param_count), netsim.message_byte_size(0)
        # votes are cast once, in the selection round, and the selections stay frozen
        assert {rnd for rnd, _ in selections} == {cfg.selection_round}
        frozen = {cid: selections[(cfg.selection_round, cid)] for cid in range(n)}
        _assert_gated_actions(res, cfg, lambda rnd: frozen)
        degrees = topo.degrees
        for rnd, sent, received, actions, aggregated in zip(
            range(1, cfg.total_rounds + 1), res.bytes_sent, res.bytes_received, res.actions, res.models_aggregated
        ):
            if rnd <= cfg.t_init:
                assert (sent == degrees * update).all() and (aggregated == degrees + 1).all()
            elif rnd < cfg.selection_round:
                assert not sent.any() and not received.any() and not aggregated.any()
            elif rnd == cfg.selection_round:
                assert aggregated.tolist() == [1 + len(frozen[cid]) for cid in range(n)]
                assert sent.tolist() == [degrees[cid] * update + notice * len(frozen[cid]) for cid in range(n)]
            else:
                for cid in range(n):
                    assert aggregated[cid] == 1 + len(frozen[cid] & updates[rnd])
                    size = notice if suppress and actions[cid] == Action.SKIP.value else update
                    assert sent[cid] == degrees[cid] * size
        sent, received = traffic_totals(res)
        assert sent == received

    @given(_connected_topologies(), st.integers(1, 3), st.integers(1, 3), st.integers(1, 2),
           st.integers(0, 2**16))
    @settings(max_examples=40, deadline=None)
    def test_degeneracy_oracle_on_random_topologies(self, topo, t_init, extra, epochs, seed):
        # all-permissive svote is FedAvg bit for bit, whatever the graph and schedule
        n, rounds = topo.num_clients, t_init + extra
        _, shards, _, spec = small_problem(seed=seed, num_clients=n)
        hp = HyperParams(lr=0.2, local_epochs=epochs, batch_size=16)
        cfg = SVoteConfig(total_rounds=rounds, t_init=t_init, n_diverge=0, tau=-1e9, v_min=0,
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

    @pytest.mark.parametrize("method, refresh", [("svote", True), ("svote", False), ("scaffold", None)])
    def test_stacked_aggregation_equals_the_row_loop_bitwise(self, method, refresh):
        # at the default cap every group of this problem is gathered into one
        # stack; a cap of one float sends every aggregation through the loop
        # over row views (and trains every model alone)
        _, shards, topo, spec = small_problem(num_clients=8)
        hp = HyperParams(lr=0.1, local_epochs=1, batch_size=16)
        aggregate = protocol.aggregate

        def run():
            stacked = []

            def recorded(models, out=None):
                stacked.append(isinstance(models, np.ndarray))
                return aggregate(models, out=out)

            with evaluated_models() as models, mock.patch.object(protocol, "aggregate", recorded):
                if method == "svote":
                    cfg = SVoteConfig(total_rounds=10, t_init=2, n_diverge=1, tau=0.5, refresh_selection=refresh)
                    result = run_svote(cfg, spec, hp, topo, shards, 4)
                else:
                    result = run_baseline(method, spec, hp, topo, shards, 4, rounds=5)
            return models, result, stacked

        models, result, stacked = run()
        with mock.patch.object(protocol, "_STACK_FLOATS", 1):
            looped_models, looped_result, looped = run()
        assert all(stacked) and not any(looped) and len(stacked) == len(looped)
        assert len(models) == len(looped_models) == result.rounds * topo.num_clients
        for a, b in zip(models, looped_models):
            assert a.tobytes() == b.tobytes()
        assert result.final_models_sha256 == looped_result.final_models_sha256
        for column, looped_column in zip(_columns(result), _columns(looped_result)):
            np.testing.assert_array_equal(column, looped_column)

    def test_diverge_rounds_have_zero_traffic(self):
        data, shards, topo, spec = small_problem()
        hp = HyperParams(lr=0.1, local_epochs=1, batch_size=16)
        cfg = SVoteConfig(total_rounds=10, t_init=3, n_diverge=3)
        res = run_svote(cfg, spec, hp, topo, shards, 7)
        diverging = slice(3, 6)  # rounds 4 to 6
        assert not res.bytes_sent[diverging].any() and not res.bytes_received[diverging].any()
        assert (np.delete(res.bytes_sent, diverging, axis=0) > 0).all()

    def test_same_seed_reproduces_records(self):
        data, shards, topo, spec = small_problem()
        hp = HyperParams(lr=0.1, local_epochs=1, batch_size=16)
        cfg = SVoteConfig(total_rounds=9, t_init=2, n_diverge=1)
        a = run_svote(cfg, spec, hp, topo, shards, 3)
        b = run_svote(cfg, spec, hp, topo, shards, 3)
        for column_a, column_b in zip(_columns(a), _columns(b)):
            np.testing.assert_array_equal(column_a, column_b)
        assert (a.bytes_by_kind, a.message_counts) == (b.bytes_by_kind, b.message_counts)

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
        with evaluated_models() as a:
            run_baseline("fedavg", spec, hp, topo, shards, 5, rounds=4)
        with evaluated_models() as b:
            run_baseline("fedprox", spec, hp, topo, shards, 5, rounds=4)
        n = topo.num_clients
        assert any(not np.array_equal(x, y) for x, y in zip(a[-n:], b[-n:]))

    def test_scaffold_doubles_model_payload(self):
        data, shards, topo, spec = small_problem()
        hp = HyperParams(lr=0.05, local_epochs=1, batch_size=16)
        fed = run_baseline("fedavg", spec, hp, topo, shards, 9, rounds=5)
        sca = run_baseline("scaffold", spec, hp, topo, shards, 9, rounds=5)
        def payload(res):
            bytes_ = res.bytes_by_kind[MessageKind.MODEL_UPDATE]
            count = res.message_counts[MessageKind.MODEL_UPDATE]
            return bytes_ - netsim.HEADER_BYTES * count
        assert payload(sca) == 2 * payload(fed)

    def test_two_identical_clients_stay_in_sync_under_fedavg(self):
        data, _, topo, spec = small_problem(num_clients=6)
        same = datahub.split_train_test(data, [np.arange(80)] * 2, 0.2, [7] * 2)
        topo2 = netsim.full_topology(2)
        with evaluated_models() as models:
            run_baseline("fedavg", spec, HyperParams(lr=0.1), topo2, same, 13, rounds=5)
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
            sent, received = traffic_totals(res)
            assert sent == received

    def test_zero_norm_arrival_ranks_at_floor(self, monkeypatch):
        data, shards, topo, spec = small_problem()
        zero_client = 2
        zero_start = shards.train_bounds[zero_client]  # the first of its rows in the client-major train set
        real_train, real_select = protocol.local_train, protocol.select_peers

        def train(w, X, y, spec, hp, rngs, ranges, **rule):
            trained, steps = real_train(w, X, y, spec, hp, rngs, ranges, **rule)
            for row, (start, _) in zip(trained, ranges):
                if start == zero_start:
                    row[...] = 0.0
            return trained, steps

        seen = []

        def select(sims, candidates, tau):
            seen.append((sims.copy(), candidates.copy()))
            return real_select(sims, candidates, tau)

        monkeypatch.setattr(protocol, "local_train", train)
        monkeypatch.setattr(protocol, "select_peers", select)
        cfg = SVoteConfig(total_rounds=6, t_init=2, n_diverge=1, tau=0.0)
        run_svote(cfg, spec, HyperParams(lr=0.1, local_epochs=1, batch_size=16), topo, shards, 5)
        matrix, candidates = seen[0]  # the selection round: every client trained, so every model arrived
        np.testing.assert_array_equal(candidates, topo.adjacency)
        for local in range(topo.num_clients):
            sims = {p: matrix[local, p] for p in np.flatnonzero(topo.adjacency[local]).tolist()}
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
        diverging = slice(2, 4)  # rounds 3 and 4 do not aggregate
        assert not res.models_aggregated[diverging].any()
        assert (np.delete(res.models_aggregated, diverging, axis=0) >= 1).all()

    def test_vote_symmetry_with_identical_models(self):
        # identical models -> unit similarity -> everyone selects all peers
        # -> every client collects degree-many votes
        bus = _vote_bus(5)
        w = np.random.default_rng(3).normal(size=12)
        matrix = cosine_similarity(np.tile(w, (5, 1)))
        candidates = ~np.eye(5, dtype=bool)
        np.testing.assert_allclose(matrix[candidates], 1.0, rtol=0, atol=1e-9)
        selection = select_peers(matrix, candidates, 0.0)
        np.testing.assert_array_equal(selection, candidates)
        cast_votes(bus, selection)
        assert _votes_received(bus) == [4] * 5

    def test_suppression_keeps_update_bytes_below_fedavg(self, round_kind_bytes):
        data, shards, topo, spec = small_problem(seed=3)
        hp = HyperParams(lr=0.5, local_epochs=2, batch_size=16)
        cfg = SVoteConfig(total_rounds=14, t_init=3, n_diverge=1)
        res = run_svote(cfg, spec, hp, topo, shards, 3)
        per_round_fedavg = int(topo.degrees.sum()) * (
            netsim.HEADER_BYTES + netsim.BYTES_PER_PARAM * spec.param_count
        )
        trained = {
            rnd: (res.actions[rnd - 1] != Action.SKIP.value).all()
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
        skipped = res.actions == Action.SKIP.value
        assert skipped.any()
        assert not res.samples_trained[skipped].any()

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
        sent, received = traffic_totals(res)
        assert sent == received

    def test_refresh_off_vote_tally_persists(self):
        data, shards, topo, spec = small_problem(seed=3)
        hp = HyperParams(lr=0.5, local_epochs=2, batch_size=16)
        # 0-vote floor: every client trains, so persistence is observable in
        # actions staying TRAIN_LOCAL even though no votes arrive after the
        # selection round
        cfg = SVoteConfig(total_rounds=12, t_init=3, n_diverge=1,
                          refresh_selection=False, v_min=0)
        res = run_svote(cfg, spec, hp, topo, shards, 3)
        gated = res.actions[cfg.selection_round :]
        assert gated.size and (gated == Action.TRAIN_LOCAL.value).all()

    def test_mlp_engine_run(self):
        data, shards, topo, _ = small_problem(seed=8)
        spec = ModelSpec(MLP, 8, 4, hidden_dim=6)
        hp = HyperParams(lr=0.2, local_epochs=1, batch_size=16)
        cfg = SVoteConfig(total_rounds=8, t_init=2, n_diverge=1)
        with evaluated_models() as models:
            res = run_svote(cfg, spec, hp, topo, shards, 8)
        assert res.param_count == spec.param_count
        assert ((0.0 <= res.f1) & (res.f1 <= 1.0)).all()
        assert all(np.all(np.isfinite(w)) for w in models)

    def test_two_client_federation_always_trains(self):
        # degree 1 <= 2: the gate never blocks, selection has a single candidate
        data, _, _, spec = small_problem(num_clients=6)
        shards = datahub.split_train_test(data, np.array_split(np.arange(len(data)), 2), 0.2, [1, 2])
        topo = netsim.full_topology(2)
        hp = HyperParams(lr=0.2, local_epochs=1, batch_size=16)
        cfg = SVoteConfig(total_rounds=8, t_init=2, n_diverge=1)
        res = run_svote(cfg, spec, hp, topo, shards, 5)
        assert (res.actions == Action.TRAIN_LOCAL.value).all()
        gated = res.models_aggregated[cfg.selection_round :]
        assert gated.size and (gated == 2).all()

    def test_unreachable_vote_floor_leans_on_escalation(self):
        data, shards, topo, spec = small_problem(seed=9)
        hp = HyperParams(lr=0.2, local_epochs=1, batch_size=16)
        cfg = SVoteConfig(total_rounds=20, t_init=2, n_diverge=1, v_min=100)
        res = run_svote(cfg, spec, hp, topo, shards, 9)
        actions = set(res.actions[cfg.selection_round :].ravel().tolist())
        assert Action.TRAIN_LOCAL.value not in actions  # floor unreachable
        assert Action.TRAIN_RANDOM.value in actions  # escalation rescues clients

    def test_bad_baseline_kind_rejected(self):
        data, shards, topo, spec = small_problem()
        with pytest.raises(Exception):
            run_baseline("adam", spec, HyperParams(), topo, shards, 1)

    def test_shard_count_must_match_clients(self):
        data, _, topo, spec = small_problem()
        shards = datahub.split_train_test(data, np.array_split(np.arange(len(data)), 5), 0.2, [1, 2, 3, 4, 5])
        with pytest.raises(ProtocolError):
            run_baseline("fedavg", spec, HyperParams(), topo, shards, 1)


class _ListedTopology(netsim.Topology):
    """A topology that lists each client's neighbors and degree, as the frozen per-message engine reads them."""

    def neighbors(self, client):
        return tuple(np.flatnonzero(self.adjacency[client]).tolist())

    def degree(self, client):
        return len(self.neighbors(client))


class TestReferenceEngine:
    """The round engine against the frozen per-message engine of tests/reference_engine.py (McKeeman 1998).

    The oracle lays out rounds by its own round-number conditions, so every
    run here checks the phase table too.
    """

    # full graphs of 4 or more clients, half of svote's draws and vote floors above 2 make the gate skip
    # often enough that suppressed notices and one-way arrivals are common
    @given(st.one_of(_connected_topologies(max_clients=8), st.integers(4, 8).map(netsim.full_topology)),
           st.sampled_from((protocol.SVOTE,) * 3 + protocol.BASELINES), st.booleans(), st.integers(1, 2),
           st.integers(0, 1), st.integers(0, 4), st.sampled_from([-1.0, -0.25, 0.0, 0.5, 2.0]),
           st.sampled_from(["half", 0, 1, 3, 5]), st.booleans(), st.booleans(), st.integers(0, 2**16))
    @settings(max_examples=120, deadline=None)
    def test_runs_match_the_reference_engine_bitwise(self, topo, method, mlp, t_init, n_diverge, gated, tau, v_min,
                                                     refresh, suppress, seed):
        # v_min "half" is ceil(degree / 2); gated rounds follow the selection round, and a run of none ends on it
        n = topo.num_clients
        _, shards, _, spec = small_problem(seed=seed, num_clients=n)
        if mlp:
            spec = ModelSpec(MLP, spec.input_dim, spec.num_classes, hidden_dim=6)
        hp = HyperParams(lr=0.3, local_epochs=1, batch_size=16)
        cfg = SVoteConfig(total_rounds=t_init + n_diverge + 1 + gated, t_init=t_init, n_diverge=n_diverge, tau=tau,
                          v_min=v_min, refresh_selection=refresh, suppress_nontrainer_updates=suppress)
        rounds = cfg.total_rounds
        with evaluated_models() as got:
            if method == protocol.SVOTE:
                result = run_svote(cfg, spec, hp, topo, shards, seed)
            else:
                result = run_baseline(method, spec, hp, topo, shards, seed, rounds=rounds)
                # the oracle's baseline schedule: every round before its selection round, which lies past the last
                cfg = SVoteConfig(total_rounds=rounds + 1, t_init=rounds, n_diverge=0)
        with evaluated_models() as want:
            expected = reference_engine._run(method, cfg, rounds, spec, hp, _ListedTopology(topo.adjacency), shards,
                                             seed)
        assert len(got) == len(want) == rounds * n
        for a, b in zip(got, want):
            assert a.dtype == b.dtype == DTYPE and a.tobytes() == b.tobytes()
        # the engine's int8 codes, named as metrics.csv names them, against the oracle's string actions
        assert result.actions.dtype == np.int8
        columns = list(_columns(result))
        columns[3] = np.asarray(ACTION_NAMES, dtype=object)[result.actions]
        for column, expected_column in zip(columns, _columns(expected)):
            assert column.dtype == expected_column.dtype
            np.testing.assert_array_equal(column, expected_column)
        assert result.bytes_by_kind == expected.bytes_by_kind
        assert result.message_counts == expected.message_counts
        assert all(type(v) is int for v in (*result.bytes_by_kind.values(), *result.message_counts.values()))
        assert result.final_models_sha256 == expected.final_models_sha256


class TestPhases:
    """The phase table against the round-number conditions the engine read before it had one."""

    def test_table_matches_the_round_conditions(self):
        for total in range(2, 13):
            for t_init, n_diverge, refresh in itertools.product(range(1, total), range(total), (True, False)):
                if t_init + n_diverge >= total:
                    continue
                cfg = SVoteConfig(total_rounds=total, t_init=t_init, n_diverge=n_diverge, refresh_selection=refresh)
                phases = cfg.phases()
                assert len(phases) == total
                selection = cfg.selection_round
                for rnd, phase in enumerate(phases, start=1):
                    shares = rnd <= t_init or rnd >= selection
                    assert (phase is Phase.GATED) == (rnd > selection)
                    assert (phase is not Phase.LOCAL) == shares
                    if shares:
                        assert (phase is not Phase.FEDERATED) == (rnd > t_init)  # aggregate the selected arrivals
                    assert cfg.votes_in(phase) == (shares and rnd > t_init and (refresh or rnd == selection))
                    if phase is Phase.GATED:  # reads the votes of the round before
                        assert cfg.votes_in(phases[rnd - 2]) == (refresh or rnd == selection + 1)

    @pytest.mark.parametrize("refresh", [True, False])
    @pytest.mark.parametrize("t_init, n_diverge, gated", [(1, 0, 0), (2, 1, 3), (1, 2, 4)])
    def test_votes_are_read_when_the_previous_round_cast_them(self, refresh, t_init, n_diverge, gated):
        _, shards, topo, spec = small_problem(seed=5)
        cfg = SVoteConfig(total_rounds=t_init + n_diverge + 1 + gated, t_init=t_init, n_diverge=n_diverge, tau=0.5,
                          refresh_selection=refresh)
        cast, read = [], []  # (round, votes each client got)
        real_cast, real_take = protocol.cast_votes, MessageBus.take_inbox

        def casting(bus, selection):
            cast.append((round_of(bus.ledger), selection.sum(axis=0).tolist()))
            return real_cast(bus, selection)

        def taking(bus):
            inbox = real_take(bus)
            if MessageKind.MODEL_UPDATE not in inbox:  # the gate's read; a share phase's holds its updates
                read.append((round_of(bus.ledger), inbox[MessageKind.VOTE].sum(axis=0).tolist()))
            return inbox

        with (
            booked_rounds() as round_of,
            mock.patch.object(protocol, "cast_votes", casting),
            mock.patch.object(MessageBus, "take_inbox", taking),
        ):
            run_svote(cfg, spec, HyperParams(lr=0.2, local_epochs=1, batch_size=16), topo, shards, 5)
        phases = cfg.phases()
        assert [rnd for rnd, _ in cast] == [rnd for rnd, phase in enumerate(phases, start=1) if cfg.votes_in(phase)]
        assert read == [(rnd + 1, votes) for rnd, votes in cast if rnd < cfg.total_rounds]

    def test_engine_runs_each_method_s_table(self):
        _, shards, topo, spec = small_problem()
        hp = HyperParams(lr=0.2, local_epochs=1, batch_size=16)
        cfg = SVoteConfig(total_rounds=6, t_init=2, n_diverge=1)
        tables = []
        real_run = protocol._run

        def recorded(method, schedule, phases, *rest):
            tables.append((method, phases))
            return real_run(method, schedule, phases, *rest)

        with mock.patch.object(protocol, "_run", recorded):
            run_svote(cfg, spec, hp, topo, shards, 1)
            for kind in protocol.BASELINES:
                run_baseline(kind, spec, hp, topo, shards, 1, rounds=3)
        baselines = [(kind, (Phase.FEDERATED,) * 3) for kind in protocol.BASELINES]
        assert tables == [(protocol.SVOTE, cfg.phases()), *baselines]
