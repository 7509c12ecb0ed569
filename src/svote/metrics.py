"""Per-round evaluation and accounting: macro-F1 and parametric energy.

A run's per-round quantities are rounds x n columns of its RunResult: row
r - 1 holds round r and column c client c, so reading a column in C order
visits the records round-major, clients in id order, as metrics.csv lists
them. Work units, a counted-work proxy for elapsed time, are
samples_trained + models_aggregated; actions are int8 Action codes. A
round's F1 row is one macro_f1 call over every client's segment of one
client-major prediction array.

Energy is a declared linear model, not a measurement: c_train per
(sample x epoch) trained, c_agg per parameter entering an aggregation,
c_comm per byte sent. Only ratios between runs are meaningful.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, MetricError
from .netsim import MessageKind, Topology


@dataclass
class RunResult:
    method: str
    rounds: int
    param_count: int
    # rounds x n columns, row rnd - 1 for round rnd
    f1: np.ndarray  # float64 macro-F1 of each client's model on its own test split
    bytes_sent: np.ndarray  # int64; with bytes_received the only per-round byte counts
    bytes_received: np.ndarray  # int64
    actions: np.ndarray  # int8 Action codes; protocol.ACTION_NAMES[code] is the name metrics.csv prints
    samples_trained: np.ndarray  # int64 samples x epochs trained (0 when the client sat out)
    models_aggregated: np.ndarray  # int64 models entering the mean, own included; 0 if no aggregation
    bytes_by_kind: dict[MessageKind, int]  # run total per message kind, every kind present
    message_counts: dict[MessageKind, int]  # copies sent per message kind, every kind present
    topology: Topology  # the graph the engine ran on
    final_models_sha256: str  # sha256 of the final n x P model matrix: its dtype, shape, then bytes

    @property
    def work_units(self) -> np.ndarray:
        """Each record's work units (see the module docstring), a rounds x n column."""
        return self.samples_trained + self.models_aggregated


@dataclass(frozen=True)
class EnergyCoeffs:
    c_train: float = 1e-7  # kWh per (sample x epoch)
    c_agg: float = 1e-10  # kWh per parameter aggregated
    c_comm: float = 1e-10  # kWh per byte sent

    def __post_init__(self):
        if not all(math.isfinite(c) and c >= 0 for c in (self.c_train, self.c_agg, self.c_comm)):
            raise ConfigError("energy coefficients must be finite and non-negative")


def macro_f1(predictions, truth, num_classes: int, bounds) -> list[float]:
    """Unweighted mean of per-class F1 of every segment, as a list.

    bounds are S + 1 ascending offsets from 0 to the sequences' length:
    segment i is predictions[bounds[i]:bounds[i + 1]] against the same slice
    of truth, so [0, len(truth)] scores the sequences whole. Within a
    segment, classes absent from both truth and predictions are skipped
    (non-IID test shards routinely lack classes); a class that was predicted
    but never true scores 0. Each of the S values is the same whatever the
    other segments hold, and all are counted in one bincount. An empty
    segment raises MetricError.
    """
    predictions = np.asarray(predictions)
    truth = np.asarray(truth)
    if predictions.shape != truth.shape:
        raise MetricError("predictions/truth length mismatch")
    side = num_classes + 1  # one more row and column for labels that name no class
    cells = _class_index(truth, num_classes)
    cells *= side
    cells += _class_index(predictions, num_classes)
    bounds = np.asarray(bounds)
    lengths = np.diff(bounds)
    segments = lengths.size
    if not segments or bounds[0] != 0 or bounds[-1] != cells.size:
        raise MetricError(f"segment bounds must run from 0 to {cells.size}")
    if (lengths <= 0).any():
        raise MetricError("empty prediction or truth segment")
    cells += np.repeat(np.arange(0, segments * side * side, side * side), lengths)
    confusion = np.bincount(cells, minlength=segments * side * side).reshape(segments, side, side)
    tp = confusion.diagonal(axis1=1, axis2=2)[:, :num_classes]
    # 2tp + fp + fn, with fp = pred_count - tp and fn = true_count - tp: positive
    # for every present class
    denominators = np.add.reduce(confusion[:, :num_classes, :], axis=2)
    denominators += np.add.reduce(confusion[:, :, :num_classes], axis=1)
    present = denominators > 0
    classes = np.add.reduce(present, axis=1)
    if not classes.all():
        raise MetricError("no class present in truth or predictions")
    # each segment's present classes in class order, segment after segment
    scores = 2 * tp[present] / denominators[present]
    # a mean is the pairwise sum over the count, as np.mean computes it; the
    # pairwise sum blocks by 8, so segments with one count of present classes
    # are summed together, as the rows of one matrix
    starts = np.cumsum(classes) - classes
    f1 = np.empty(segments)
    for count in np.flatnonzero(np.bincount(classes)).tolist():
        rows = np.flatnonzero(classes == count)
        f1[rows] = np.add.reduce(scores[starts[rows, None] + np.arange(count)], axis=1) / count
    return f1.tolist()


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
    final = result.f1[-1]
    return float(final.mean()), float(final.std()), final.tolist()


def energy(result: RunResult, coeffs: EnergyCoeffs) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(train, agg, comm) kWh of every (round, client) under the three-phase linear model, as rounds x n arrays."""
    return (
        coeffs.c_train * result.samples_trained,
        coeffs.c_agg * result.param_count * result.models_aggregated,
        coeffs.c_comm * result.bytes_sent,
    )
