"""Per-round evaluation and accounting: macro-F1, work units, parametric energy.

Energy is a declared linear model, not a measurement: c_train per
(sample x epoch) trained, c_agg per parameter entering an aggregation,
c_comm per byte sent. Only ratios between runs are meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, MetricError
from .netsim import Topology, TrafficLedger


@dataclass(frozen=True)
class MetricsRecord:
    """One client's view of one round."""

    round: int
    client: int
    f1: float
    bytes_sent: int
    bytes_received: int
    action: str
    samples_trained: int  # samples x epochs this round (0 when the client sat out)
    models_aggregated: int  # models entering the mean, own included; 0 if no aggregation

    @property
    def work_units(self) -> int:
        return self.samples_trained + self.models_aggregated


@dataclass
class RunResult:
    method: str
    num_clients: int
    rounds: int
    param_count: int
    records: list[MetricsRecord]
    ledger: TrafficLedger
    final_models: list[np.ndarray]
    model_trace: list[list[np.ndarray]] | None = None  # [round][client] snapshots
    topology: Topology | None = None  # the graph the engine ran on


@dataclass(frozen=True)
class EnergyCoeffs:
    c_train: float = 1e-7  # kWh per (sample x epoch)
    c_agg: float = 1e-10  # kWh per parameter aggregated
    c_comm: float = 1e-10  # kWh per byte sent

    def __post_init__(self):
        if min(self.c_train, self.c_agg, self.c_comm) < 0:
            raise ConfigError("energy coefficients must be non-negative")


@dataclass
class EnergyReport:
    train: float = 0.0
    agg: float = 0.0
    comm: float = 0.0

    @property
    def total(self) -> float:
        return self.train + self.agg + self.comm


def macro_f1(predictions, truth, num_classes: int) -> float:
    """Unweighted mean of per-class F1.

    Classes absent from both truth and predictions are skipped (non-IID test
    shards routinely lack classes); a class that was predicted but never true
    scores 0.
    """
    predictions = np.asarray(predictions)
    truth = np.asarray(truth)
    if predictions.size == 0 or truth.size == 0:
        raise MetricError("empty prediction or truth sequence")
    if predictions.shape != truth.shape:
        raise MetricError("predictions/truth length mismatch")
    cells = _class_index(truth, num_classes)
    cells *= num_classes + 1
    cells += _class_index(predictions, num_classes)
    confusion = np.bincount(cells, minlength=(num_classes + 1) ** 2).reshape(num_classes + 1, num_classes + 1)
    tp = confusion.diagonal()[:num_classes]
    true_count = np.add.reduce(confusion[:num_classes, :], axis=1)
    pred_count = np.add.reduce(confusion[:, :num_classes], axis=0)
    present = (true_count > 0) | (pred_count > 0)
    if not present.any():
        raise MetricError("no class present in truth or predictions")
    # 2tp + fp + fn, with fp = pred_count - tp and fn = true_count - tp: positive
    # for every present class
    scores = 2 * tp[present] / (true_count + pred_count)[present]
    # the mean is the pairwise sum over the count, as np.mean computes it
    return float(np.add.reduce(scores) / scores.size)


def _class_index(labels: np.ndarray, num_classes: int) -> np.ndarray:
    """Class id of each label, in a new array; `num_classes` for a label that names no class.

    Such labels (out of range, or not integral) only ever count as misses.
    """
    labels = labels.ravel()
    if labels.dtype.kind in "biu":
        # a negative label wraps to a huge unsigned value, so one clamp
        # catches both ends of the range
        index = labels.astype(np.uintp)
        return np.minimum(index, num_classes, out=index).view(np.intp)
    names_class = (labels >= 0) & (labels < num_classes)
    if labels.dtype.kind == "f":
        names_class &= labels == np.floor(labels)
    return np.where(names_class, labels, num_classes).astype(np.intp)


def federation_summary(result: RunResult) -> tuple[float, float, list[float]]:
    """Mean and population std over clients' final-round F1, and the F1 of each client."""
    by_client = {r.client: r.f1 for r in result.records if r.round == result.rounds}
    if not by_client or by_client.keys() != set(range(result.num_clients)):
        raise MetricError("run lacks a final-round record for some client")
    per_client = [by_client[c] for c in range(result.num_clients)]
    arr = np.asarray(per_client)
    return float(arr.mean()), float(arr.std()), per_client


def record_energy(rec: MetricsRecord, param_count: int, coeffs: EnergyCoeffs) -> tuple[float, float, float]:
    """(train, agg, comm) kWh of one record under the three-phase linear model."""
    return (
        coeffs.c_train * rec.samples_trained,
        coeffs.c_agg * param_count * rec.models_aggregated,
        coeffs.c_comm * rec.bytes_sent,
    )


def energy(result: RunResult, coeffs: EnergyCoeffs) -> EnergyReport:
    """Three-phase linear energy model over a run's records."""
    report = EnergyReport()
    for rec in result.records:
        e_train, e_agg, e_comm = record_energy(rec, result.param_count, coeffs)
        report.train += e_train
        report.agg += e_agg
        report.comm += e_comm
    return report


def work_units(result: RunResult) -> dict[int, int]:
    """Counted-work proxy for elapsed time: samples x epochs trained plus models aggregated."""
    per_client = {c: 0 for c in range(result.num_clients)}
    for rec in result.records:
        per_client[rec.client] += rec.work_units
    return per_client
