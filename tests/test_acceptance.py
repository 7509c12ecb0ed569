"""Acceptance suite: one test per criterion, each printing a PASS line.

Desk-scale configurations are pinned here. The comparison experiments use
lr=0.5 on the synthetic mixture so that 30 rounds reach the converged regime
the trend claims are about (the 1e-3 config default mirrors the GPU-scale
setup and is far from convergence on toy linear models).
"""

import json
import os
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import evaluated_models, traffic_totals
from svote import cli, metrics, netsim, protocol
from svote.learner import HyperParams
from svote.netsim import MessageKind
from svote.protocol import Action, SVoteConfig, vote_gate

TESTS_DIR = os.path.dirname(os.path.abspath(__file__))

# desk-scale comparison setup shared by the trend criteria
TREND = dict(
    dataset="synthetic",
    num_clients=10,
    rounds=30,
    alpha=0.1,
    syn_num_classes=6,
    syn_input_dim=16,
    syn_per_class=400,
    syn_spread=0.5,
    lr=0.5,
)

SEEDS = (1, 2, 3, 4, 5)

_RUNS: list[metrics.RunResult] = []  # every engine run made here, for criterion 8


def _execute(cfg: cli.ExperimentConfig) -> metrics.RunResult:
    result = cli.execute(cfg)
    _RUNS.append(result)
    return result


def test_criterion_1_degeneracy_oracle():
    start = time.perf_counter()
    base = dict(
        dataset="synthetic",
        num_clients=10,
        seed=7,
        rounds=15,
        syn_per_class=200,
        lr=0.1,
    )
    with evaluated_models() as fed:
        _execute(cli.ExperimentConfig(method="fedavg", **base))
    with evaluated_models() as sv:
        _execute(
            cli.ExperimentConfig(
                method="svote",
                tau=-1e9,
                v_min=0,
                suppress_nontrainer_updates=False,
                t_init=5,
                n_diverge=0,
                **base,
            )
        )
    assert len(fed) == len(sv) == 15 * 10
    for rnd in range(15):
        for c in range(10):
            np.testing.assert_array_equal(fed[rnd * 10 + c], sv[rnd * 10 + c])
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(f"\nACCEPTANCE 1 (degeneracy oracle, bit-identical to FedAvg): PASS [{elapsed:.1f}s]")


def test_criterion_2_equation_micro_tests(unit_suite_record):
    # the unit suite holds every [DERIVED]/[TRIVIAL] example at its stated
    # tolerance, and every one of them must pass. This session's own reports
    # decide for the unit modules it ran whole (this test runs last); the
    # other unit modules run in a nested pytest.
    unit = sorted(p for p in Path(TESTS_DIR).glob("test_*.py") if p.name != "test_acceptance.py")
    failed = unit_suite_record.failures_in(unit)
    assert not failed, "unit tests failed in this session:\n" + "\n".join(failed)
    rest = [p for p in unit if not unit_suite_record.ran_whole(p)]
    tail = f"{len(unit) - len(rest)} modules passed in this session"
    if rest:
        cmd = [sys.executable, "-m", "pytest", "-q", *map(str, rest)]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=os.path.dirname(TESTS_DIR))
        assert proc.returncode == 0, f"unit suite failed:\n{proc.stdout[-2000:]}\n{proc.stderr[-2000:]}"
        nested = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
        tail += f", {len(rest)} in a nested run: {nested}"
    print(f"\nACCEPTANCE 2 (equation micro-tests): PASS [{tail}]")


def test_criterion_3_byte_reduction_every_seed():
    reductions = []
    for seed in SEEDS:
        fed = _execute(cli.ExperimentConfig(method="fedavg", seed=seed, **TREND))
        sv = _execute(cli.ExperimentConfig(method="svote", seed=seed, **TREND))
        fb, sb = traffic_totals(fed)[0], traffic_totals(sv)[0]
        assert sb < fb, f"seed {seed}: svote bytes {sb} not below fedavg {fb}"
        reductions.append(100.0 * (fb - sb) / fb)
    pretty = ", ".join(f"{r:.1f}%" for r in reductions)
    print(f"\nACCEPTANCE 3 (byte reduction on all seeds {SEEDS}): PASS [{pretty}]")


def test_criterion_4_scaffold_payload_exactly_double():
    base = dict(dataset="synthetic", num_clients=8, seed=3, rounds=10, lr=0.1)
    fed = _execute(cli.ExperimentConfig(method="fedavg", **base))
    sca = _execute(cli.ExperimentConfig(method="scaffold", **base))

    def model_payload(res):
        total = res.bytes_by_kind[MessageKind.MODEL_UPDATE]
        count = res.message_counts[MessageKind.MODEL_UPDATE]
        return total - netsim.HEADER_BYTES * count

    fp, sp = model_payload(fed), model_payload(sca)
    assert sp == 2 * fp
    print(f"\nACCEPTANCE 4 (SCAFFOLD payload = 2x FedAvg): PASS [{sp} = 2*{fp}]")


def test_criterion_5_noniid_f1_trend():
    start = time.perf_counter()
    over = dict(TREND, topology="erdos", erdos_p=0.5, tau=0.5, v_min=1)
    fed_over = dict(TREND, topology="erdos", erdos_p=0.5)
    wins = 0
    pairs = []
    for seed in SEEDS:
        fed = _execute(cli.ExperimentConfig(method="fedavg", seed=seed, **fed_over))
        sv = _execute(cli.ExperimentConfig(method="svote", seed=seed, **over))
        fm, _, _ = metrics.federation_summary(fed)
        sm, _, _ = metrics.federation_summary(sv)
        wins += sm >= fm
        pairs.append(f"{fm:.3f}->{sm:.3f}")
    elapsed = time.perf_counter() - start
    assert wins >= 4, f"svote >= fedavg on only {wins}/5 seeds ({pairs})"
    assert elapsed < 300.0
    print(f"\nACCEPTANCE 5 (non-IID F1 trend, {wins}/5 seeds): PASS [{', '.join(pairs)}; {elapsed:.1f}s]")


def test_criterion_6_p_escalation_sequence():
    class ForcedFailure:
        def random(self):
            return 1.0

    levels = np.ones(1, dtype=np.int8)  # one client's escalation p, times 10
    observed = [levels[0] / 10]
    for _ in range(12):
        codes = vote_gate(np.array([0]), np.array([5]), np.array([9]), levels, [ForcedFailure()])
        assert codes.tolist() == [Action.SKIP]
        observed.append(levels[0] / 10)
    expected = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0, 1.0, 1.0, 1.0]
    assert observed == pytest.approx(expected, abs=1e-9)
    print("\nACCEPTANCE 6 (p-escalation 0.1..1.0 then capped): PASS")


def test_criterion_7_bit_identical_artifacts(tmp_path):
    cfg = cli.parse_config_text(
        "method = svote\ndataset = synthetic\nnum_clients = 6\nseed = 21\n"
        "rounds = 12\nlr = 0.2\nbatch_size = 16\nsvote.t_init = 3\nsvote.n_diverge = 1\n"
        "synthetic.per_class = 150\nsynthetic.num_classes = 4\nsynthetic.input_dim = 8\n"
    )
    blobs = []
    for name in ("a", "b"):
        out = os.path.join(str(tmp_path), name)
        cli.run_experiment(cfg, out)
        with open(os.path.join(out, "metrics.csv"), "rb") as f:
            csv_blob = f.read()
        with open(os.path.join(out, "summary.json"), "rb") as f:
            json_blob = f.read()
        blobs.append((csv_blob, json_blob))
    assert blobs[0] == blobs[1]
    print("\nACCEPTANCE 7 (byte-identical rerun artifacts): PASS")


def test_criterion_8_conservation_and_partition_invariants():
    from svote import datahub

    # at least one fresh run of each engine counted here
    base = dict(dataset="synthetic", num_clients=6, seed=2, rounds=8, lr=0.2)
    _execute(cli.ExperimentConfig(method="fedavg", **base))
    _execute(cli.ExperimentConfig(method="svote", t_init=2, n_diverge=1, **base))
    assert _RUNS
    for res in _RUNS:
        sent, received = traffic_totals(res)
        assert sent == received

    data = datahub.gen_synthetic(6, 4, 200, 0.5, seed=123)

    def mean_max_share(alpha):
        vals = []
        for seed in range(20):
            plan = datahub.dirichlet_partition(data, 10, alpha, seed=seed, min_shard=2)
            merged = np.concatenate([plan[c] for c in range(10)])
            assert len(merged) == len(data) and len(np.unique(merged)) == len(data)
            shares = []
            for c in range(10):
                hist = np.bincount(data.labels[plan[c]], minlength=6)
                shares.append(hist.max() / hist.sum())
            vals.append(np.mean(shares))
        return float(np.mean(vals))

    m_01, m_05, m_uni = mean_max_share(0.1), mean_max_share(0.5), mean_max_share(1e6)
    assert m_01 > m_05 > m_uni
    print(
        f"\nACCEPTANCE 8 (conservation on {len(_RUNS)} runs; exact partitions; "
        f"skew {m_01:.3f} > {m_05:.3f} > {m_uni:.3f}): PASS"
    )


def test_criterion_9_energy_linearity(tmp_path):
    text = (
        "method = svote\ndataset = synthetic\nnum_clients = 6\nseed = 4\n"
        "rounds = 10\nlr = 0.2\nbatch_size = 16\nsvote.t_init = 2\nsvote.n_diverge = 1\n"
        "synthetic.per_class = 150\nsynthetic.num_classes = 4\nsynthetic.input_dim = 8\n"
    )
    cfg1 = cli.parse_config_text(text)
    cfg2 = replace(cfg1, c_comm=2 * cfg1.c_comm)
    s1 = cli.run_experiment(cfg1, os.path.join(str(tmp_path), "x1"))
    s2 = cli.run_experiment(cfg2, os.path.join(str(tmp_path), "x2"))
    assert s2["energy_kwh"]["comm"] == 2 * s1["energy_kwh"]["comm"]
    assert s2["energy_kwh"]["train"] == s1["energy_kwh"]["train"]
    assert s2["energy_kwh"]["agg"] == s1["energy_kwh"]["agg"]
    assert s2["final_f1_per_client"] == s1["final_f1_per_client"]
    assert s2["total_bytes_sent"] == s1["total_bytes_sent"]
    assert s2["work_units_total"] == s1["work_units_total"]
    print("\nACCEPTANCE 9 (doubling c_comm exactly doubles E_comm): PASS")
