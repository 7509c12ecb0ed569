"""Correctness checks on the artifacts of one `cli.run_experiment` call.

Each returns a list of failure messages; an empty list means the run passed.
"""

from __future__ import annotations

import hashlib
import math
import os

from svote import cli, netsim, protocol


def artifact_digest(out_dir: str) -> str:
    """sha256 over metrics.csv then summary.json, the two exported artifacts."""
    h = hashlib.sha256()
    for name in ("metrics.csv", "summary.json"):
        with open(os.path.join(out_dir, name), "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def check_run(cfg: cli.ExperimentConfig, topo: netsim.Topology, summary: dict, out_dir: str) -> list[str]:
    failures = []
    sent, received = summary["total_bytes_sent"], summary["total_bytes_received"]
    if sent != received:
        failures.append(f"ledger not conserved: {sent} B sent, {received} B received")

    with open(os.path.join(out_dir, "metrics.csv"), encoding="utf-8") as f:
        rows = f.read().splitlines()[1:]
    expected_rows = cfg.rounds * cfg.num_clients
    if len(rows) != expected_rows:
        failures.append(f"{len(rows)} metric records, expected {expected_rows}")
    bad_f1 = [r for r in rows if not 0.0 <= float(r.split(",")[2]) <= 1.0]  # NaN fails too
    if bad_f1:
        failures.append(f"{len(bad_f1)} records with F1 outside [0, 1], first: {bad_f1[0]}")
    if not (math.isfinite(summary["final_f1_mean"]) and 0.0 <= summary["final_f1_mean"] <= 1.0):
        failures.append(f"final_f1_mean {summary['final_f1_mean']} outside [0, 1]")

    param_count = summary["param_count"]
    if cfg.method in (protocol.FEDAVG, protocol.FEDPROX):
        expected = cli.fedavg_equivalent_bytes(topo, cfg.rounds, param_count)
        if sent != expected:
            failures.append(f"{cfg.method} sent {sent} B, FedAvg arithmetic gives {expected} B")
    if cfg.method == protocol.SCAFFOLD:
        updates = summary["message_counts"]["model_update"]
        per_update = netsim.HEADER_BYTES + netsim.BYTES_PER_PARAM * 2 * param_count
        if summary["bytes_by_kind"]["model_update"] != updates * per_update:
            failures.append(f"scaffold updates do not carry 2*P = {2 * param_count} parameters each")
    return failures
