"""Shared builders for the test suite, and the session record that acceptance criterion 2 reads."""

import tracemalloc
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from svote import datahub, learner, netsim, protocol
from svote.seeding import derive_seed


def small_problem(seed=42, num_clients=6, num_classes=4, input_dim=8, per_class=80, spread=0.5):
    """Dataset, shards, topology, and model spec for quick engine runs."""
    data = datahub.gen_synthetic(num_classes, input_dim, per_class, spread, derive_seed(seed, "data"))
    plan = datahub.dirichlet_partition(data, num_clients, 0.5, derive_seed(seed, "partition"), min_shard=20)
    shards = datahub.split_train_test(data, plan, 0.2, [derive_seed(seed, "split", c) for c in range(num_clients)])
    topo = netsim.full_topology(num_clients)
    spec = learner.ModelSpec(learner.SOFTMAX, input_dim, num_classes)
    return data, shards, topo, spec


def adjacency_of(num_clients, edges):
    """The boolean adjacency matrix of these undirected edges, each a pair of client ids in either orientation."""
    adjacency = np.zeros((num_clients, num_clients), dtype=bool)
    for a, b in edges:
        adjacency[a, b] = adjacency[b, a] = True
    return adjacency


def fd_gradient(w, X, y, spec, coords, eps=1e-5):
    """Central finite differences of the batch loss at the given coordinates."""
    out = {}
    for i in coords:
        wp = w.copy()
        wp[i] += eps
        wm = w.copy()
        wm[i] -= eps
        lp, _ = learner.loss_and_grad(wp, X, y, spec)
        lm, _ = learner.loss_and_grad(wm, X, y, spec)
        out[i] = (lp - lm) / (2 * eps)
    return out


def peak_traced_bytes(fn):
    """Peak traced allocation while fn runs, above what was live before."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base, _ = tracemalloc.get_traced_memory()
        fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - base


def traffic_totals(result):
    """A run's (bytes sent, bytes received), summed over its rounds x n byte columns."""
    return int(result.bytes_sent.sum()), int(result.bytes_received.sum())


@contextmanager
def counted_class_splits():
    """Record the sample count of every per-class split the partitioner makes.

    Patches `datahub._largest_remainder`, the module attribute the
    partitioner looks up once per non-empty class per plan.
    """
    splits = []
    split = datahub._largest_remainder

    def counted(proportions, total):
        splits.append(total)
        return split(proportions, total)

    with mock.patch.object(datahub, "_largest_remainder", counted):
        yield splits


@contextmanager
def evaluated_models():
    """Record a copy of every model the round engine evaluates.

    Patches `protocol.predict_batch`, the name the engine looks up once per
    client per round, so the list holds rounds x clients models, round-major
    and in client order within a round.
    """
    models = []
    predict = protocol.predict_batch

    def recorded(w, X, spec):
        models.append(w.copy())
        return predict(w, X, spec)

    with mock.patch.object(protocol, "predict_batch", recorded):
        yield models


@contextmanager
def booked_rounds():
    """Yield `round_of(ledger)`: the number of the round that ledger is booking.

    Patches `TrafficLedger.take_round`, which the round engine calls once at
    the end of every round, divergence rounds included, so while the engine
    runs round r its ledger has been taken r - 1 times.
    """
    taken = defaultdict(int)  # ledger -> take_round calls so far
    take = netsim.TrafficLedger.take_round

    def counted(ledger):
        taken[ledger] += 1
        return take(ledger)

    with mock.patch.object(netsim.TrafficLedger, "take_round", counted):
        yield lambda ledger: taken[ledger] + 1


def _module_id(nodeid: str) -> str:
    return nodeid.split("::", 1)[0]


class UnitSuiteRecord:
    """What this session learned about its test modules.

    Acceptance criterion 2 is that the whole unit suite passes. It reads the
    failures recorded here for the modules this session ran whole, and runs
    only the other unit modules in a nested pytest.
    """

    def __init__(self, config):
        self.config = config
        self.failed: list[str] = []  # node ids of failed tests and failed collections
        self.deselected: set[str] = set()  # module node ids with an item left out (-k, -m, --deselect, --lf)
        self.collected: set[str] = set()  # module node ids with an item to run

    def pytest_runtest_logreport(self, report):
        if report.failed:
            self.failed.append(report.nodeid)

    def pytest_collectreport(self, report):
        if report.failed:
            self.failed.append(report.nodeid)

    def pytest_deselected(self, items):
        self.deselected.update(_module_id(item.nodeid) for item in items)

    def pytest_collection_finish(self, session):
        self.collected = {_module_id(item.nodeid) for item in session.items}

    def _node_id(self, path: Path) -> str:
        return path.resolve().relative_to(self.config.rootpath).as_posix()

    def ran_whole(self, path: Path) -> bool:
        """Whether every test of the module at path was collected to run in this session.

        A module named by a path argument (its file or a directory above it)
        is collected whole; a node id argument (``file::name``) selects part.
        """
        module = self._node_id(path)
        if module not in self.collected or module in self.deselected:
            return False
        path = path.resolve()
        for arg in self.config.args:
            if "::" not in arg:
                named = (self.config.invocation_params.dir / arg).resolve()
                if named == path or named in path.parents:
                    return True
        return False

    def failures_in(self, paths) -> list[str]:
        modules = {self._node_id(p) for p in paths}
        return [nodeid for nodeid in self.failed if _module_id(nodeid) in modules]


def pytest_configure(config):
    config.pluginmanager.register(UnitSuiteRecord(config), "unit-suite-record")


def pytest_collection_modifyitems(items):
    # criterion 2 reads the results of every other test, so it runs last
    items.sort(key=lambda item: item.name == "test_criterion_2_equation_micro_tests")


@pytest.fixture
def unit_suite_record(request):
    return request.config.pluginmanager.get_plugin("unit-suite-record")
