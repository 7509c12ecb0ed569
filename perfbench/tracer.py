"""Outside-in layer trace of the svote package.

`instrument(tracer)` replaces the public functions of each svote module with
timing wrappers for the duration of a `with` block and restores them after.
A wrapper is installed where its caller looks the name up: `protocol`
imports `local_train`, `aggregate`, `broadcast`, `predict_batch` and
`macro_f1` by name, so those are patched on `svote.protocol`; `cli` and
`learner` reach datahub, netsim and kernels through the module attribute, so
those are patched on their own modules; bus and ledger methods are patched on
their classes.

Spans nest: a layer's self time is its span's duration minus the time of the
spans it caused. `cli.run_experiment` itself is not a span, so the time it
spends outside every named span (making the output directory, writing
metrics.csv and summary.json, and anything a missing wrapper leaves out) is
the residual between a traced pass's wall time and the sum of self times.
Spans are folded into per-name totals as they close rather than stored.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

import svote.cli
import svote.datahub
import svote.kernels
import svote.learner
import svote.netsim
import svote.protocol
from svote.protocol import Action

F64 = 8  # bytes per float64 / int64 element


class Tracer:
    """Per-name call counts, self times and work counters."""

    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counters: dict[str, float] = defaultdict(float)
        self._open: list[list[float]] = []  # child time of each open span

    def wrap(self, name: str | None, fn, count=None):
        """Time `fn` as a span `name`; `count(counters, args, result)` tallies work.

        With no name, only `count` runs: for helpers too small to time, whose
        time stays in the caller's span.
        """
        open_spans = self._open
        calls, self_s, counters = self.calls, self.self_s, self.counters

        if name is None:

            def counted(*args, **kwargs):
                result = fn(*args, **kwargs)
                count(counters, args, result)
                return result

            return counted

        def traced(*args, **kwargs):
            children = [0.0]
            open_spans.append(children)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                open_spans.pop()
                self_s[name] += duration - children[0]
                calls[name] += 1
                if open_spans:
                    open_spans[-1][0] += duration
            if count is not None:
                count(counters, args, result)
            return result

        return traced

    def total_self_s(self) -> float:
        return sum(self.self_s.values())


# ------------------------------------------------------- computed kernel work
# Arithmetic counts the multiply-adds of the GEMMs (2 flops each) plus one flop
# per elementwise operation of the numpy kernels; bytes count each operand
# read once and each gradient written once. Both are computed from shapes,
# not measured.


def _softmax_work(counters, args, _result):
    X, _y, W = args[:3]
    n, d = X.shape
    c = W.shape[1]
    # z = XW, gW = X^T dz; bias, max-shift, exp, sum, divide, label, scale, gb
    counters["kernels.loss_grad.flops"] += 4 * n * d * c + 8 * n * c
    counters["kernels.loss_grad.bytes"] += F64 * (n * d + n + 2 * (d * c + c))


def _mlp_work(counters, args, _result):
    X, _y, W1, _b1, W2 = args[:5]
    n, d = X.shape
    h = W1.shape[1]
    c = W2.shape[1]
    # XW1, HW2, H^T dz, dz W2^T, X^T dH; bias, tanh, 1-H^2 and product, gb1;
    # softmax as above
    counters["kernels.loss_grad.flops"] += 4 * n * d * h + 6 * n * h * c + 6 * n * h + 8 * n * c
    counters["kernels.loss_grad.bytes"] += F64 * (n * d + n + 2 * (d * h + h + h * c + c))


def _selected(counters, args, result):
    counters["protocol.select.kept"] += len(result)
    counters["protocol.select.candidates"] += len(args[1])


def _gated(counters, _args, result):
    if result is not Action.SKIP:
        counters["protocol.gate.trained"] += 1


def _aggregated(counters, args, _result):
    counters["protocol.aggregate.models"] += len(args[0])


def _partitioned(counters, args, _result):
    counters["datahub.partition.nonempty_classes"] += int(np.count_nonzero(np.bincount(args[0].labels)))


def _class_split(counters, _args, _result):
    counters["datahub.partition.class_splits"] += 1


# (owner, attribute, span name, work counter); None as span name counts only
_PATCHES = (
    (svote.cli, "execute", "cli.execute", None),
    (svote.cli, "_csv_lines", "cli.export", None),
    (svote.cli, "build_summary", "cli.export", None),
    (svote.datahub, "gen_synthetic", "datahub.generate", None),
    (svote.datahub, "dirichlet_partition", "datahub.partition", _partitioned),
    (svote.datahub, "_largest_remainder", None, _class_split),
    (svote.datahub, "split_train_test", "datahub.split", None),
    (svote.netsim, "full_topology", "netsim.topology", None),
    (svote.netsim, "erdos_renyi", "netsim.topology", None),
    (svote.protocol, "run_svote", "protocol.engine", None),
    (svote.protocol, "run_baseline", "protocol.engine", None),
    (svote.protocol, "local_train", "learner.train", None),
    (svote.learner, "loss_and_grad", "learner.loss_and_grad", None),
    (svote.kernels, "softmax_loss_grad", "kernels.loss_grad", _softmax_work),
    (svote.kernels, "mlp_loss_grad", "kernels.loss_grad", _mlp_work),
    (svote.protocol, "predict_batch", "learner.predict", None),
    (svote.protocol, "macro_f1", "metrics.macro_f1", None),
    (svote.protocol, "broadcast", "netsim.broadcast", None),
    (svote.netsim.MessageBus, "send", "netsim.send", None),
    (svote.netsim.TrafficLedger, "record", "netsim.ledger", None),
    (svote.netsim.MessageBus, "flush", "netsim.flush", None),
    (svote.netsim.MessageBus, "take_inbox", "netsim.inbox", None),
    (svote.protocol, "cosine_similarity", "protocol.similarity", None),
    (svote.protocol, "select_peers", "protocol.select", _selected),
    (svote.protocol, "cast_votes", "protocol.vote", None),
    (svote.protocol, "vote_gate", "protocol.gate", _gated),
    (svote.protocol, "aggregate", "protocol.aggregate", _aggregated),
)


@contextmanager
def instrument(tracer: Tracer):
    """Install the wrappers of `_PATCHES` for the block, then restore the originals."""
    originals = []
    try:
        for owner, attr, name, count in _PATCHES:
            fn = vars(owner)[attr]
            originals.append((owner, attr, fn))
            setattr(owner, attr, tracer.wrap(name, fn, count))
        yield tracer
    finally:
        for owner, attr, fn in reversed(originals):
            setattr(owner, attr, fn)
