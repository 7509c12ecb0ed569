"""The kernel module: its reported implementation, and per-model bit-equality with a reference formulation.

Each kernel call is checked as one run of k models and as a mixed lockstep step of several runs.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from svote import kernels
from svote.errors import ProtocolError


def test_active_backend_is_known():
    assert kernels.active_backend() in ("numba", "numpy")


# ---------------------------------------------------------------- oracle
# Reference formulation through the numpy wrappers: ndarray.max, ndarray.sum,
# ndarray.mean and np.sum, with a second label gather for the write-back; a
# non-finite loss is recomputed from a float64 copy of the logits. The kernels
# must match it bit for bit, in float64 and float32: loss and every gradient
# entry.


def _ref_softmax_in_place(z):
    z -= z.max(axis=1, keepdims=True)
    np.exp(z, out=z)
    z /= z.sum(axis=1, keepdims=True)
    return z


def _ref_loss_and_delta(p, y):
    n = p.shape[0]
    rows = np.arange(n)
    loss = -np.log(p[rows, y]).mean()
    p[rows, y] -= 1.0
    p /= n
    return loss


def _ref_loss(z, y):
    d = _ref_softmax_in_place(z.copy())
    loss = _ref_loss_and_delta(d, y)
    if not np.isfinite(loss):
        loss = _ref_loss_and_delta(_ref_softmax_in_place(z.astype(np.float64)), y)
    return loss, d


def _ref_softmax_loss_grad(X, y, W, b):
    z = X @ W
    z += b
    loss, d = _ref_loss(z, y)
    return loss, X.T @ d, np.sum(d, axis=0)


def _ref_mlp_loss_grad(X, y, W1, b1, W2, b2):
    H = X @ W1
    H += b1
    np.tanh(H, out=H)
    z = H @ W2
    z += b2
    loss, d = _ref_loss(z, y)
    gW2 = H.T @ d
    gb2 = np.sum(d, axis=0)
    dH = d @ W2.T
    np.multiply(H, H, out=H)
    np.subtract(1.0, H, out=H)
    dH *= H
    return loss, X.T @ dH, np.sum(dH, axis=0), gW2, gb2


def _same_bits(a, b):
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


# batch sizes 1-40 cover the ragged last batch of every batch size the
# configs use; a scale up to 1e4 drives label probabilities to 0 (infinite
# loss). The row sum of the softmax runs in another order from 8 classes on
# (see `kernels`), so class counts cover both sides of 8 and of numpy's
# pairwise blocks of 16. k models on n rows each run as one run of a step
# (see `kernels`); k = 1 is a single model's call.
_classes = st.one_of(st.integers(2, 20), st.sampled_from([7, 8, 9, 15, 16, 17]))
_problem = st.fixed_dictionaries(
    {
        "k": st.integers(1, 4),
        "n": st.integers(1, 40),
        "d": st.integers(1, 6),
        "c": _classes,
        "h": st.integers(1, 6),
        "scale": st.sampled_from([1e-3, 0.05, 1.0, 30.0, 1e4]),
        "seed": st.integers(0, 2**32 - 1),
        "dtype": st.sampled_from([np.float64, np.float32]),
    }
)

# a lockstep step: runs of 1-4 models with one batch size each, single-model
# ragged runs among them, and models of the group that the step leaves out
_step = st.fixed_dictionaries(
    {
        "runs": st.lists(
            st.tuples(st.one_of(st.just(1), st.integers(1, 4)), st.integers(1, 40)), min_size=1, max_size=6
        ),
        "idle": st.integers(0, 2),
        "d": st.integers(1, 6),
        "c": _classes,
        "h": st.integers(1, 6),
        "scale": st.sampled_from([1e-3, 0.05, 1.0, 30.0, 1e4]),
        "seed": st.integers(0, 2**32 - 1),
        "dtype": st.sampled_from([np.float64, np.float32]),
    }
)


def _group(rng, p, k, shapes):
    """k models' parameters: (k, rows, cols) for a (rows, cols) matrix, (k, 1, cols) for a (cols,) bias."""
    sizes = [(k, *s) if len(s) == 2 else (k, 1, s[0]) for s in shapes]
    return [rng.normal(scale=p["scale"], size=size).astype(p["dtype"]) for size in sizes]


def _slice(params, shapes, i):
    """Model i's parameters, shaped as one model's: index i of each stacked parameter, a bias as a vector."""
    return [a[i] if len(s) == 2 else a[i, 0] for a, s in zip(params, shapes)]


def _shapes(kind, p):
    d, c, h = p["d"], p["c"], p["h"]
    return [(d, c), (c,)] if kind == "softmax" else [(d, h), (h,), (h, c), (c,)]


_KERNELS = {"softmax": kernels.softmax_loss_grad, "mlp": kernels.mlp_loss_grad}
_REFERENCES = {"softmax": _ref_softmax_loss_grad, "mlp": _ref_mlp_loss_grad}


def _check_step(kind, p, runs, idle=0):
    """Run one kernel call over the step's runs; every model's loss and gradients must equal its reference's bits.

    The group holds `idle` more models than the runs cover; their gradients stay untouched. If a
    reference loss is non-finite even in float64, the kernel must raise instead.
    """
    rng = np.random.default_rng(p["seed"])
    live = runs[-1][1]
    rows = sum((b - a) * size for a, b, size in runs)
    X = rng.normal(size=(rows, p["d"])).astype(p["dtype"])
    y = rng.integers(0, p["c"], size=rows)
    shapes = _shapes(kind, p)
    params = _group(rng, p, live + idle, shapes)
    grads = [np.full_like(a, np.nan) for a in params]
    with np.errstate(all="ignore"):
        expected, r0 = [], 0
        for a, b, size in runs:
            for i in range(a, b):
                at = slice(r0, r0 + size)
                expected.append(_REFERENCES[kind](X[at], y[at], *_slice(params, shapes, i)))
                r0 += size
        if not all(np.isfinite(want[0]) for want in expected):
            with pytest.raises(ProtocolError, match="non-finite loss: model diverged"):
                _KERNELS[kind](X, y, *params, *grads, runs)
            return
        losses = _KERNELS[kind](X, y, *params, *grads, runs)
    assert losses.shape == (live,)
    for i, want in enumerate(expected):
        for got, ref in zip((losses[i], *_slice(grads, shapes, i)), want):
            assert _same_bits(got, ref)
    for i in range(live, live + idle):
        assert all(np.isnan(g).all() for g in _slice(grads, shapes, i))


@given(_problem)
@settings(max_examples=150, deadline=None)
def test_softmax_kernel_is_bit_equal_to_the_reference(p):
    _check_step("softmax", p, ((0, p["k"], p["n"]),))


@given(_problem)
@settings(max_examples=150, deadline=None)
def test_mlp_kernel_is_bit_equal_to_the_reference(p):
    _check_step("mlp", p, ((0, p["k"], p["n"]),))


@given(_step, st.sampled_from(sorted(_KERNELS)))
@settings(max_examples=200, deadline=None)
def test_a_mixed_step_is_bit_equal_to_one_model_at_a_time(p, kind):
    # one call over runs of different batch sizes: each run's products and
    # reductions are cut from step-sized buffers, and each model must still
    # match the reference of that model alone, float64 re-judging included
    runs, a = [], 0
    for m, size in p["runs"]:
        runs.append((a, a + m, size))
        a += m
    _check_step(kind, p, tuple(runs), p["idle"])


def test_a_non_finite_loss_inside_a_mixed_step_is_judged_in_float64():
    # model 1's logits are far apart: its float32 label probability rounds
    # to 0, yet a float64 softmax keeps its loss finite; the models around
    # it keep their float32 losses
    p = {"d": 3, "c": 4, "h": 2, "scale": 0.05, "seed": 3, "dtype": np.float32}
    runs = ((0, 1, 5), (1, 2, 7), (2, 4, 3))
    rng = np.random.default_rng(p["seed"])
    X = rng.normal(size=(5 + 7 + 6, 3)).astype(np.float32)
    y = np.zeros(18, dtype=np.int64)
    shapes = _shapes("softmax", p)
    W, b = _group(rng, p, 4, shapes)
    b[1] = [0.0, 300.0, 0.0, 0.0]  # class 1 beats the label 0 by 300
    gW, gb = np.empty_like(W), np.empty_like(b)
    with np.errstate(divide="ignore"):
        losses = kernels.softmax_loss_grad(X, y, W, b, gW, gb, runs)
        single = np.empty(4, np.float64)
        for i, (r0, size) in enumerate([(0, 5), (5, 7), (12, 3), (15, 3)]):
            at = slice(r0, r0 + size)
            single[i] = _ref_softmax_loss_grad(X[at], y[at], *_slice([W, b], shapes, i))[0]
    assert np.isfinite(losses).all() and 295 < losses[1] < 305
    assert losses.dtype == np.float64 and losses.tobytes() == single.tobytes()


@pytest.mark.parametrize("kind", sorted(_KERNELS))
def test_a_loss_non_finite_in_float64_too_raises_from_the_kernel(kind):
    # model 1's output bias puts class 1 1,000 above the label 0: its label
    # probability rounds to 0 in a float64 softmax as well, so the kernel
    # itself stops the step
    p = {"d": 3, "c": 4, "h": 2, "scale": 0.05, "seed": 3, "dtype": np.float32}
    runs = ((0, 1, 5), (1, 3, 4))
    rng = np.random.default_rng(p["seed"])
    X = rng.normal(size=(5 + 8, 3)).astype(np.float32)
    y = np.zeros(13, dtype=np.int64)
    params = _group(rng, p, 3, _shapes(kind, p))
    params[-1][1] = [0.0, 1000.0, 0.0, 0.0]
    grads = [np.empty_like(a) for a in params]
    with np.errstate(divide="ignore"), pytest.raises(ProtocolError, match="non-finite loss: model diverged"):
        _KERNELS[kind](X, y, *params, *grads, runs)
