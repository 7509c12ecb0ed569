"""Macro-F1, summaries, energy model, and work-unit accounting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import small_problem
from svote import metrics, netsim, protocol
from svote.errors import ConfigError, MetricError
from svote.learner import HyperParams
from svote.metrics import EnergyCoeffs, MetricsRecord, macro_f1


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


def _result(per_client_f1, rounds=3):
    n = len(per_client_f1)
    records = []
    for rnd in range(1, rounds + 1):
        for c in range(n):
            records.append(
                MetricsRecord(
                    round=rnd,
                    client=c,
                    f1=per_client_f1[c] if rnd == rounds else 0.1,
                    bytes_sent=100 * rnd,
                    bytes_received=100 * rnd,
                    action="train_local",
                    samples_trained=50,
                    models_aggregated=4,
                )
            )
    return metrics.RunResult(
        method="fedavg",
        rounds=rounds,
        param_count=10,
        records=records,
        bytes_by_kind={k: 0 for k in netsim.MessageKind},
        message_counts={k: 0 for k in netsim.MessageKind},
        topology=netsim.full_topology(n),
        final_models_sha256="",
    )


class TestFederationSummary:
    def test_identical_clients_zero_std(self):
        mean, std, per = metrics.federation_summary(_result([0.7, 0.7, 0.7]))
        assert mean == pytest.approx(0.7, abs=1e-9)
        assert std == pytest.approx(0.0, abs=1e-9)

    def test_two_client_arithmetic(self):
        mean, std, per = metrics.federation_summary(_result([0.8, 1.0]))
        assert mean == pytest.approx(0.9, abs=1e-12)
        assert std == pytest.approx(0.1, abs=1e-12)  # population std

    def test_missing_final_round_record_rejected(self):
        res = _result([0.5, 0.6, 0.7])
        res.records = [r for r in res.records if (r.round, r.client) != (res.rounds, 1)]
        with pytest.raises(MetricError):
            metrics.federation_summary(res)

    def test_order_invariance(self):
        a = metrics.federation_summary(_result([0.2, 0.5, 0.9]))
        b = metrics.federation_summary(_result([0.9, 0.2, 0.5]))
        assert a[0] == pytest.approx(b[0]) and a[1] == pytest.approx(b[1])


class TestEnergy:
    def test_zero_coefficients(self):
        report = metrics.energy(_result([0.5, 0.5]), EnergyCoeffs(0.0, 0.0, 0.0))
        assert report.total == 0.0

    def test_linearity_per_phase(self):
        res = _result([0.5, 0.5])
        base = metrics.energy(res, EnergyCoeffs(1e-7, 1e-10, 1e-10))
        double_comm = metrics.energy(res, EnergyCoeffs(1e-7, 1e-10, 2e-10))
        assert double_comm.comm == pytest.approx(2 * base.comm)
        assert double_comm.train == base.train
        assert double_comm.agg == base.agg

    def test_skip_round_contributes_no_training_energy(self):
        data, shards, topo, spec = small_problem(seed=3)
        hp = HyperParams(lr=0.5, local_epochs=2, batch_size=16)
        cfg = protocol.SVoteConfig(total_rounds=14, t_init=3, n_diverge=1)
        res = protocol.run_svote(cfg, spec, hp, topo, shards, 3)
        coeffs = EnergyCoeffs()
        skip_records = [r for r in res.records if r.action == "skip"]
        assert skip_records
        assert all(coeffs.c_train * r.samples_trained == 0.0 for r in skip_records)

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
        # equal shards: hand the same shard to every client
        data, shards, topo, spec = small_problem(num_clients=4)
        same = [shards[0]] * 4
        from svote.netsim import full_topology

        res = protocol.run_baseline("fedavg", spec, HyperParams(lr=0.1), full_topology(4), same, 5, rounds=4)
        units = metrics.work_units(res)
        assert len(set(units.values())) == 1

    def test_skipper_has_fewer_units(self):
        # same shard size, same aggregation counts; client 1 skips two rounds
        records = []
        for rnd in range(1, 6):
            records.append(MetricsRecord(rnd, 0, 0.5, 10, 10, "train_local", 100, 3))
            skipped = rnd in (2, 4)
            records.append(
                MetricsRecord(rnd, 1, 0.5, 10, 10, "skip" if skipped else "train_local",
                              0 if skipped else 100, 3)
            )
        no_traffic = {k: 0 for k in netsim.MessageKind}
        res = metrics.RunResult("svote", 5, 10, records, no_traffic, no_traffic, netsim.full_topology(2), "")
        units = metrics.work_units(res)
        assert units[1] < units[0]

    def test_units_reproducible(self):
        data, shards, topo, spec = small_problem(seed=6)
        hp = HyperParams(lr=0.2, local_epochs=1, batch_size=16)
        cfg = protocol.SVoteConfig(total_rounds=10, t_init=2, n_diverge=1)
        a = metrics.work_units(protocol.run_svote(cfg, spec, hp, topo, shards, 8))
        b = metrics.work_units(protocol.run_svote(cfg, spec, hp, topo, shards, 8))
        assert a == b
