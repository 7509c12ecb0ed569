"""Lockstep training: bit-equal to the per-client reference trainer, every training row counted once, bounded memory."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import peak_traced_bytes, small_problem
from reference_trainer import train_round
from svote import kernels, learner, protocol
from svote.datahub import LabeledDataset
from svote.kernels import DTYPE
from svote.learner import MLP, SOFTMAX, HyperParams, ModelSpec
from svote.protocol import Action, SVoteConfig, run_baseline, run_svote


@st.composite
def _training_case(draw):
    kind = draw(st.sampled_from([SOFTMAX, MLP]))
    spec = ModelSpec(
        kind, draw(st.integers(1, 6)), draw(st.integers(2, 4)), draw(st.integers(1, 5)) if kind == MLP else 0
    )
    batch = draw(st.integers(1, 8))
    n = draw(st.integers(1, 8))
    # shards below one batch, exact multiples of it and ragged ones
    size = st.one_of(st.integers(1, 3 * batch), st.integers(1, 3).map(lambda m: m * batch))
    return {
        "spec": spec,
        "sizes": draw(st.lists(size, min_size=n, max_size=n)),
        "trains": draw(st.lists(st.booleans(), min_size=n, max_size=n)),  # False: the client skips
        "hp": HyperParams(lr=0.3, local_epochs=draw(st.integers(1, 3)), batch_size=batch, prox_mu=0.2),
        "method": draw(st.sampled_from(protocol.BASELINES)),
        "per_group": draw(st.integers(1, n + 1)),  # models per lockstep group
        "seed": draw(st.integers(0, 2**32 - 1)),
    }


@given(_training_case())
@settings(max_examples=150, deadline=None)
def test_lockstep_round_is_bit_equal_to_the_per_client_trainer(case):
    spec, sizes, hp, method = case["spec"], case["sizes"], case["hp"], case["method"]
    n, P = len(sizes), spec.param_count
    rng = np.random.default_rng(case["seed"])
    bounds = np.concatenate(([0], np.cumsum(sizes))).tolist()
    X = rng.normal(size=(bounds[-1], spec.input_dim)).astype(DTYPE)
    y = rng.integers(0, spec.num_classes, size=bounds[-1])
    models = rng.normal(scale=0.5, size=(n, P)).astype(DTYPE)
    variates = rng.normal(scale=0.1, size=(2, n, P)).astype(DTYPE) if method == protocol.SCAFFOLD else None
    trainers = [cid for cid, trains in enumerate(case["trains"]) if trains]

    def rngs():
        return [np.random.default_rng([case["seed"], cid]) for cid in range(n)]

    want = models.copy(), None if variates is None else variates.copy()
    want_steps = train_round(trainers, *want, X, y, bounds, rngs(), spec, hp, method)
    # the cap admits per_group models of P parameters to a group
    with mock.patch.object(protocol, "_STACK_FLOATS", case["per_group"] * P):
        train = LabeledDataset(X, y, spec.num_classes)
        steps = protocol._train(trainers, models, variates, train, bounds, rngs(), spec, hp, method)
    assert steps == want_steps
    assert models.tobytes() == want[0].tobytes()
    if variates is not None:
        assert variates.tobytes() == want[1].tobytes()


@st.composite
def _plan_case(draw):
    B = draw(st.integers(1, 8))
    # empty shards, shards below one batch, exact multiples of it and ragged ones
    size = st.one_of(st.integers(0, 3 * B), st.integers(0, 3).map(lambda m: m * B))
    return tuple(draw(st.lists(size, min_size=1, max_size=8))), B, draw(st.integers(1, 3))


@given(_plan_case())
@settings(max_examples=300, deadline=None)
def test_lockstep_plan_reads_each_shard_once_per_epoch_in_maximal_runs(case):
    lens, B, epochs = case
    order, counts, begins, shift, batch, steps = learner._lockstep(lens, B, epochs)
    k = len(lens)
    assert order == tuple(sorted(range(k), key=lambda i: -lens[i]))  # a stable sort, largest first
    assert counts == tuple(epochs * -(-n // B) for n in lens)
    assert begins.tolist() == [0, *np.cumsum([lens[i] for i in order]).tolist()]
    assert shift.shape == batch.shape == (len(steps), k) and len(steps) == max(counts)
    assert not (begins.flags.writeable or shift.flags.writeable or batch.flags.writeable)
    cursor = [None] * k  # each model's next row of its block, None before its first epoch
    trained = [0] * k
    prev_live = k
    for s, (live, draws, runs) in enumerate(steps):
        sizes = batch[s].tolist()
        assert live <= prev_live and all(sizes[:live]) and not any(sizes[live:])
        prev_live = live
        # the runs split [0, live) into maximal segments of one batch size
        assert [a for a, _, _ in runs] == [0, *(b for _, b, _ in runs[:-1])] and runs[-1][1] == live
        assert all(sizes[a:b] == [size] * (b - a) for a, b, size in runs)
        assert all(left[2] != right[2] for left, right in zip(runs, runs[1:]))
        rows = np.repeat(shift[s], batch[s]) + np.arange(sum(sizes))
        r0 = 0
        for i in range(k):
            end = begins[i + 1]
            # a model draws exactly when it starts an epoch: first, or with its block read out
            assert (i in draws) == (i < live and cursor[i] in (None, end))
            if i in draws:
                cursor[i] = begins[i]
            if i < live:
                assert sizes[i] == min(B, end - cursor[i])  # full batches but the last of an epoch
                assert rows[r0 : r0 + sizes[i]].tolist() == list(range(cursor[i], cursor[i] + sizes[i]))
                cursor[i] += sizes[i]
                trained[i] += 1
            r0 += sizes[i]
    for i in range(k):
        assert trained[i] == counts[order[i]] and cursor[i] in (None, begins[i + 1])
        assert (cursor[i] is None) == (lens[order[i]] == 0)


def _svote_with_skips():
    # a vote floor above every vote count: clients train only on the escalating Bernoulli draw
    return SVoteConfig(total_rounds=10, t_init=2, n_diverge=1, tau=0.5, v_min=6)


@pytest.mark.parametrize("method", [*protocol.BASELINES, protocol.SVOTE])
def test_kernel_rows_are_the_samples_trained(method):
    """The kernels see each trained sample once per epoch, in unpadded blocks of one client's batch, once per step."""
    _, shards, topo, spec = small_problem(num_clients=6)
    hp = HyperParams(lr=0.1, local_epochs=2, batch_size=16)
    clients = np.repeat(np.arange(len(shards)), np.diff(shards.train_bounds))
    owner = {row.tobytes(): cid for cid, row in zip(clients.tolist(), shards.train.features)}
    assert len(owner) == len(shards.train)  # every row tells its client
    calls, steps = [], []
    kernel, schedule = kernels.softmax_loss_grad, learner._lockstep

    def recorded(X, y, W, b, gW, gb, runs):
        calls.append((X.copy(), runs))
        return kernel(X, y, W, b, gW, gb, runs)

    def counted(*args):
        plan = schedule(*args)
        steps.append(len(plan[-1]))
        return plan

    with mock.patch.object(kernels, "softmax_loss_grad", recorded), mock.patch.object(learner, "_lockstep", counted):
        if method == protocol.SVOTE:
            res = run_svote(_svote_with_skips(), spec, hp, topo, shards, 3)
            assert (res.actions == Action.SKIP.value).any()
        else:
            res = run_baseline(method, spec, hp, topo, shards, 3, rounds=3)
    assert len(calls) == sum(steps)  # one kernel call per lockstep step
    assert sum(X.shape[0] for X, _ in calls) == res.samples_trained.sum()
    for X, runs in calls:
        r0 = 0
        for a, b, batch in runs:
            assert 1 <= batch <= hp.batch_size
            for _ in range(a, b):
                block = X[r0 : r0 + batch]
                # one client's rows, each sample once
                assert len({owner[row.tobytes()] for row in block}) == 1
                assert len({row.tobytes() for row in block}) == batch
                r0 += batch
        assert r0 == X.shape[0]  # nothing but the runs' batches, unpadded


def test_dense_100_shaped_group_holds_its_batch_and_a_few_model_buffers():
    # one lockstep pass of 100 softmax models (P = 102) on 16-dim shards of
    # 60-400 samples, as dense-100 trains in one group. Above the inputs it
    # holds each model's epoch permutation (one index per training row), one
    # step's gathered batches (k B d floats), the group's weights, copied
    # into one k x P matrix in training order, and its gradient (2 k P
    # floats), the pass's plan, whose two int64 (steps x k) matrices locate
    # each step's batches and stay cached with it (`learner._lockstep`),
    # and the step's batch-sized temporaries: logits and their
    # transposed copy (2 k B c floats) and int64 label and label-offset
    # vectors. Those measure 8.7 k P floats here, and the bound allows
    # 10 k P; one more copy of the batch would be 5 k P more.
    k, d, c, B = 100, 16, 6, 32
    spec = ModelSpec(SOFTMAX, d, c)
    rng = np.random.default_rng(4)
    sizes = rng.integers(60, 400, size=k)
    bounds = np.concatenate(([0], np.cumsum(sizes)))
    X = rng.normal(size=(bounds[-1], d)).astype(DTYPE)
    y = rng.integers(0, c, size=bounds[-1])
    models = rng.normal(scale=0.1, size=(k, spec.param_count)).astype(DTYPE)
    rngs = [np.random.default_rng(i) for i in range(k)]
    hp = HyperParams(lr=0.5, local_epochs=2, batch_size=B)
    ranges = list(zip(bounds[:-1].tolist(), bounds[1:].tolist()))
    peak = peak_traced_bytes(lambda: learner.local_train(models, X, y, spec, hp, rngs, ranges))
    floats = k * B * d + 10 * k * spec.param_count
    assert peak < floats * DTYPE.itemsize + bounds[-1] * np.dtype(np.intp).itemsize
