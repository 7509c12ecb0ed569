"""Macro-F1, summaries, energy model, and work-unit accounting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import small_problem
from svote import cli, datahub, metrics, netsim, protocol
from svote.errors import ConfigError, MetricError
from svote.learner import HyperParams
from svote.metrics import EnergyCoeffs, macro_f1
from svote.protocol import Action


def _macro_f1_per_class_loop(predictions, truth, num_classes):
    """Reference macro-F1: one pass over the arrays per class."""
    predictions = np.asarray(predictions)
    truth = np.asarray(truth)
    scores = []
    for c in range(num_classes):
        in_truth = bool(np.any(truth == c))
        in_pred = bool(np.any(predictions == c))
        if not in_truth and not in_pred:
            continue
        tp = int(np.sum((predictions == c) & (truth == c)))
        fp = int(np.sum((predictions == c) & (truth != c)))
        fn = int(np.sum((predictions != c) & (truth == c)))
        denom = 2 * tp + fp + fn
        scores.append(2 * tp / denom if denom else 0.0)
    if not scores:
        raise MetricError("no class present in truth or predictions")
    return float(np.mean(scores))


class TestMacroF1:
    def test_perfect(self):
        assert macro_f1([0, 1, 2, 1], [0, 1, 2, 1], 3) == 1.0

    def test_half(self):
        # per class: precision = recall = 0.5
        assert macro_f1([0, 1, 0, 1], [0, 0, 1, 1], 2) == pytest.approx(0.5, abs=1e-9)

    def test_majority_collapse(self):
        # all predictions class 0 on balanced 2-class truth: (2/3 + 0) / 2
        assert macro_f1([0, 0, 0, 0], [0, 0, 1, 1], 2) == pytest.approx(1 / 3, abs=1e-9)

    def test_class_absent_everywhere_skipped(self):
        # class 2 appears in neither truth nor predictions
        assert macro_f1([0, 1], [0, 1], 3) == 1.0

    def test_spurious_prediction_scores_zero(self):
        # class 1 predicted but never true: contributes a zero to the mean
        assert macro_f1([0, 1], [0, 0], 2) == pytest.approx((2 / 3) / 2, abs=1e-9)

    def test_empty_rejected(self):
        with pytest.raises(MetricError):
            macro_f1([], [], 2)

    def test_length_mismatch_rejected(self):
        with pytest.raises(MetricError):
            macro_f1([0, 1], [0], 2)

    @given(st.lists(st.integers(0, 3), min_size=1, max_size=40))
    @settings(max_examples=50)
    def test_permutation_invariance(self, truth):
        rng = np.random.default_rng(len(truth))
        preds = rng.integers(0, 4, size=len(truth))
        perm = rng.permutation(len(truth))
        before = macro_f1(preds, truth, 4)
        after = macro_f1(preds[perm], np.asarray(truth)[perm], 4)
        assert before == pytest.approx(after, abs=1e-12)

    @given(
        st.integers(1, 6).flatmap(lambda k: st.tuples(
            st.just(k),
            st.lists(st.tuples(st.integers(-2, k + 1), st.integers(-2, k + 1)), min_size=1, max_size=60),
        )),
        st.sampled_from([np.int64, np.int32, np.uint8, np.uint64, np.float64]),
    )
    @settings(max_examples=300)
    def test_matches_per_class_loop(self, case, dtype):
        # labels outside [0, k) name no class and count only as misses: the
        # cast to an unsigned dtype wraps -1 and -2 to its two largest values,
        # a float dtype also gets non-integral labels
        k, pairs = case
        preds, truth = (np.array(side) for side in zip(*pairs))
        if np.dtype(dtype).kind == "f":
            # a label of k + 1 becomes k - 0.5
            preds, truth = (np.where(side == k + 1, k - 0.5, side) for side in (preds, truth))
        preds, truth = preds.astype(dtype), truth.astype(dtype)
        try:
            expected = _macro_f1_per_class_loop(preds, truth, k)
        except MetricError:
            with pytest.raises(MetricError):
                macro_f1(preds, truth, k)
            return
        assert macro_f1(preds, truth, k) == expected

    @given(
        st.integers(2, 20),
        st.lists(st.integers(1, 60), min_size=1, max_size=8),
        st.sampled_from([np.int64, np.int32, np.uint8, np.float64]),
        st.floats(0.0, 1.0),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=300, deadline=None)
    def test_segments_match_one_call_each(self, k, lengths, dtype, hit_rate, seed):
        # ragged segments of up to 20 classes, so that a segment can hold 9
        # or more present classes and its mean pass the pairwise sum's block
        # of 8; labels -1 and k name no class, and a float label k - 0.5 is
        # not integral
        rng = np.random.default_rng(seed)
        bounds = np.concatenate(([0], np.cumsum(lengths)))
        truth = rng.integers(-1, k + 1, size=bounds[-1])
        preds = np.where(rng.random(bounds[-1]) < hit_rate, truth, rng.integers(-1, k + 1, size=bounds[-1]))
        if np.dtype(dtype).kind == "f":
            preds, truth = (np.where(side == k, k - 0.5, side) for side in (preds, truth))
        preds, truth = preds.astype(dtype), truth.astype(dtype)
        expected = []
        for start, stop in zip(bounds[:-1], bounds[1:]):
            try:
                expected.append(_macro_f1_per_class_loop(preds[start:stop], truth[start:stop], k))
            except MetricError:
                with pytest.raises(MetricError):
                    macro_f1(preds, truth, k, bounds)
                return
            assert macro_f1(preds[start:stop], truth[start:stop], k) == expected[-1]
        assert macro_f1(preds, truth, k, bounds) == expected

    def test_segments_past_the_pairwise_block(self):
        # 20 classes, every one present in each segment but the first; the
        # segments' means are sums of 3, 20 and 20 scores
        rng = np.random.default_rng(25)
        truth = np.concatenate([rng.integers(0, 3, size=30), rng.integers(0, 20, size=400)])
        preds = np.where(rng.random(truth.size) < 0.7, truth, rng.integers(0, 20, size=truth.size))
        preds[:30] = truth[:30]
        preds[30 + np.arange(20)], preds[230 + np.arange(20)] = np.arange(20), np.arange(20)
        bounds = [0, 30, 230, 430]
        expected = [_macro_f1_per_class_loop(preds[a:b], truth[a:b], 20) for a, b in zip(bounds[:-1], bounds[1:])]
        assert macro_f1(preds, truth, 20, bounds) == expected

    @pytest.mark.parametrize("bounds", [[0, 2, 2, 4], [0, 0, 4], [0, 4, 4], [0, 3, 1, 4]])
    def test_an_empty_or_backward_segment_is_rejected(self, bounds):
        with pytest.raises(MetricError):
            macro_f1([0, 1, 0, 1], [0, 1, 1, 1], 2, bounds)

    @pytest.mark.parametrize("bounds", [[0, 3], [1, 4], [0, 2, 5], [0], []])
    def test_segments_must_cover_the_sequences(self, bounds):
        with pytest.raises(MetricError):
            macro_f1([0, 1, 0, 1], [0, 1, 1, 1], 2, bounds)

    def test_non_integral_float_labels_count_as_misses(self):
        preds, truth = np.array([0.0, 1.5, 1.0, 2.0]), np.array([0.0, 1.0, 1.5, 1.0])
        assert macro_f1(preds, truth, 3) == _macro_f1_per_class_loop(preds, truth, 3)

    def test_relabeling_invariance(self):
        rng = np.random.default_rng(12)
        truth = rng.integers(0, 4, size=60)
        preds = rng.integers(0, 4, size=60)
        mapping = np.array([2, 0, 3, 1])
        before = macro_f1(preds, truth, 4)
        after = macro_f1(mapping[preds], mapping[truth], 4)
        assert before == pytest.approx(after, abs=1e-12)


def _result(per_client_f1, rounds=3, samples_trained=50, models_aggregated=4, actions=Action.TRAIN_LOCAL,
            param_count=10):
    """A hand-built run: every round's F1 is 0.1 but the last one's; column arguments are scalars or rounds x n."""
    n = len(per_client_f1)
    shape = (rounds, n)
    f1 = np.full(shape, 0.1)
    f1[-1] = per_client_f1
    traffic = np.repeat(100 * np.arange(1, rounds + 1), n).reshape(shape)
    return metrics.RunResult(
        method="fedavg",
        rounds=rounds,
        param_count=param_count,
        f1=f1,
        bytes_sent=traffic,
        bytes_received=traffic.copy(),
        actions=np.broadcast_to(np.asarray(actions, dtype=np.int8), shape).copy(),
        samples_trained=np.broadcast_to(samples_trained, shape).copy(),
        models_aggregated=np.broadcast_to(models_aggregated, shape).copy(),
        bytes_by_kind={k: 0 for k in netsim.MessageKind},
        message_counts={k: 0 for k in netsim.MessageKind},
        topology=netsim.full_topology(n),
        final_models_sha256="",
    )


def _summary(result, **coeffs):
    """build_summary of result under a fedavg config with the given energy keys (c_train, ...)."""
    n = result.topology.num_clients
    cfg = cli.ExperimentConfig(method="fedavg", dataset="synthetic", num_clients=n, seed=0, **coeffs)
    return cli.build_summary(cfg, result)


class TestFederationSummary:
    def test_identical_clients_zero_std(self):
        mean, std, per = metrics.federation_summary(_result([0.7, 0.7, 0.7]))
        assert mean == pytest.approx(0.7, abs=1e-9)
        assert std == pytest.approx(0.0, abs=1e-9)

    def test_two_client_arithmetic(self):
        mean, std, per = metrics.federation_summary(_result([0.8, 1.0]))
        assert mean == pytest.approx(0.9, abs=1e-12)
        assert std == pytest.approx(0.1, abs=1e-12)  # population std
        assert per == [0.8, 1.0]

    def test_order_invariance(self):
        a = metrics.federation_summary(_result([0.2, 0.5, 0.9]))
        b = metrics.federation_summary(_result([0.9, 0.2, 0.5]))
        assert a[0] == pytest.approx(b[0]) and a[1] == pytest.approx(b[1])


class TestEnergy:
    def test_zero_coefficients(self):
        phases = metrics.energy(_result([0.5, 0.5]), EnergyCoeffs(0.0, 0.0, 0.0))
        assert not any(e.any() for e in phases)

    def test_linearity_per_phase(self):
        res = _result([0.5, 0.5])
        base = metrics.energy(res, EnergyCoeffs(1e-7, 1e-10, 1e-10))
        double_comm = metrics.energy(res, EnergyCoeffs(1e-7, 1e-10, 2e-10))
        np.testing.assert_array_equal(double_comm[2], 2 * base[2])
        np.testing.assert_array_equal(double_comm[0], base[0])
        np.testing.assert_array_equal(double_comm[1], base[1])

    def test_each_record_is_priced_with_its_operands_in_order(self):
        # (0.1 * 3) * 3 and 0.1 * (3 * 3) are different floats, so the
        # aggregation price pins its operand order: (c_agg * P) * models
        res = _result([0.5, 0.5], samples_trained=[[7, 0], [3, 5]], models_aggregated=[[3, 1], [0, 2]],
                      rounds=2, param_count=3)
        coeffs = EnergyCoeffs(0.1, 0.1, 0.3)
        assert (0.1 * 3) * 3 != 0.1 * (3 * 3)
        e_train, e_agg, e_comm = metrics.energy(res, coeffs)
        for r in range(2):
            for c in range(2):
                assert e_train[r, c] == 0.1 * int(res.samples_trained[r, c])
                assert e_agg[r, c] == 0.1 * 3 * int(res.models_aggregated[r, c])
                assert e_comm[r, c] == 0.3 * int(res.bytes_sent[r, c])

    def test_energy_totals_are_running_sums_in_record_order(self):
        # a running sum of these, a pairwise sum (numpy's reductions) and a
        # compensated one (math.fsum, builtin sum() from Python 3.12) are
        # 2**53, 2**53 + 14 and 2**53 + 16: 2**53 + 1 rounds back to 2**53
        samples = np.array([2**53] + [1] * 15).reshape(4, 4)
        res = _result([0.5] * 4, rounds=4, samples_trained=samples, models_aggregated=0)
        summary = _summary(res, c_train=1.0)
        column = [line.split(",")[6] for line in cli._csv_lines(res, EnergyCoeffs(1.0, 1e-10, 1e-10))[1:]]
        running = 0.0
        for value in column:
            running += float(value)
        assert running == 2.0**53
        assert summary["energy_kwh"]["train"] == running
        assert summary["energy_kwh"]["total"] == running + summary["energy_kwh"]["agg"] + summary["energy_kwh"]["comm"]

    def test_skip_round_contributes_no_training_energy(self):
        data, shards, topo, spec = small_problem(seed=3)
        hp = HyperParams(lr=0.5, local_epochs=2, batch_size=16)
        cfg = protocol.SVoteConfig(total_rounds=14, t_init=3, n_diverge=1)
        res = protocol.run_svote(cfg, spec, hp, topo, shards, 3)
        skipped = res.actions == Action.SKIP
        assert skipped.any()
        e_train = metrics.energy(res, EnergyCoeffs())[0]
        assert not e_train[skipped].any()
        assert e_train[~skipped].all()

    def test_invalid_coeffs_rejected(self):
        with pytest.raises(Exception):
            EnergyCoeffs(-1e-9, 0, 0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("position", range(3))
    def test_non_finite_coeffs_rejected(self, value, position):
        coeffs = [1e-7, 1e-10, 1e-10]
        coeffs[position] = value
        with pytest.raises(ConfigError, match="finite"):
            EnergyCoeffs(*coeffs)


class TestWorkUnits:
    def test_symmetric_baseline_counts_equal(self):
        # equal shards: every client splits the same 80 samples with the same seed
        data, _, topo, spec = small_problem(num_clients=4)
        same = datahub.split_train_test(data, [np.arange(80)] * 4, 0.2, [7] * 4)
        from svote.netsim import full_topology

        res = protocol.run_baseline("fedavg", spec, HyperParams(lr=0.1), full_topology(4), same, 5, rounds=4)
        units = _summary(res)["work_units_per_client"]
        assert len(set(units)) == 1

    def test_skipper_has_fewer_units(self):
        # same shard size, same aggregation counts; client 1 skips rounds 2 and 4
        skipped = np.array([[False, rnd in (2, 4)] for rnd in range(1, 6)])
        res = _result([0.5, 0.5], rounds=5, samples_trained=np.where(skipped, 0, 100), models_aggregated=3,
                      actions=np.where(skipped, Action.SKIP, Action.TRAIN_LOCAL))
        units = _summary(res)["work_units_per_client"]
        assert units == [5 * 103, 3 * 103 + 2 * 3]

    def test_units_reproducible(self):
        data, shards, topo, spec = small_problem(seed=6)
        hp = HyperParams(lr=0.2, local_epochs=1, batch_size=16)
        cfg = protocol.SVoteConfig(total_rounds=10, t_init=2, n_diverge=1)
        a = _summary(protocol.run_svote(cfg, spec, hp, topo, shards, 8))
        b = _summary(protocol.run_svote(cfg, spec, hp, topo, shards, 8))
        assert a["work_units_per_client"] == b["work_units_per_client"]
