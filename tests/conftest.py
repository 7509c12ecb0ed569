"""Shared builders for the test suite."""

import tracemalloc
from contextlib import contextmanager
from unittest import mock

import numpy as np

from svote import datahub, learner, netsim
from svote.seeding import derive_seed


def small_problem(seed=42, num_clients=6, num_classes=4, input_dim=8, per_class=80, spread=0.5):
    """Dataset, shards, topology, and model spec for quick engine runs."""
    data = datahub.gen_synthetic(num_classes, input_dim, per_class, spread, derive_seed(seed, "data"))
    plan = datahub.dirichlet_partition(data, num_clients, 0.5, derive_seed(seed, "partition"), min_shard=20)
    shards = [
        datahub.split_train_test(data.subset(plan[c]), 0.2, derive_seed(seed, "split", c))
        for c in range(num_clients)
    ]
    topo = netsim.full_topology(num_clients)
    spec = learner.ModelSpec(learner.SOFTMAX, input_dim, num_classes)
    return data, shards, topo, spec


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


@contextmanager
def counted_class_splits():
    """Record the sample count of every per-class split the partitioner makes.

    Patches `datahub._largest_remainder`, the module attribute the
    partitioner looks up once per non-empty class per attempt.
    """
    splits = []
    split = datahub._largest_remainder

    def counted(proportions, total):
        splits.append(total)
        return split(proportions, total)

    with mock.patch.object(datahub, "_largest_remainder", counted):
        yield splits
