"""The kernel module: its reported implementation, and per-model bit-equality with a reference formulation."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from svote import kernels


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
# loss). k models run as one stacked group (see `kernels`); k = 1 is a single
# model's call.
_problem = st.fixed_dictionaries(
    {
        "k": st.integers(1, 4),
        "n": st.integers(1, 40),
        "d": st.integers(1, 6),
        "c": st.integers(2, 5),
        "h": st.integers(1, 6),
        "scale": st.sampled_from([1e-3, 0.05, 1.0, 30.0, 1e4]),
        "seed": st.integers(0, 2**32 - 1),
        "dtype": st.sampled_from([np.float64, np.float32]),
    }
)


def _group(rng, p, shapes):
    """k models' parameter blocks: (k * rows, cols) for a (rows, cols) matrix, (k, cols) for a (cols,) bias."""
    k = p["k"]
    sizes = [(k * s[0], s[1]) if len(s) == 2 else (k, s[0]) for s in shapes]
    return [rng.normal(scale=p["scale"], size=size).astype(p["dtype"]) for size in sizes]


def _slice(blocks, shapes, i):
    """Model i's parameters, shaped as one model's: its rows of each stacked block."""
    return [b[i * s[0] : (i + 1) * s[0]] if len(s) == 2 else b[i] for b, s in zip(blocks, shapes)]


@given(_problem)
@settings(max_examples=150, deadline=None)
def test_softmax_kernel_is_bit_equal_to_the_reference(p):
    rng = np.random.default_rng(p["seed"])
    k, n, d, c = p["k"], p["n"], p["d"], p["c"]
    X = rng.normal(size=(k * n, d)).astype(p["dtype"])
    y = rng.integers(0, c, size=k * n)
    shapes = [(d, c), (c,)]
    params = _group(rng, p, shapes)
    grads = [np.full_like(a, np.nan) for a in params]
    with np.errstate(all="ignore"):
        losses = kernels.softmax_loss_grad(X, y, *params, *grads)
        assert losses.shape == (k,)
        for i in range(k):
            rows = slice(i * n, (i + 1) * n)
            expected = _ref_softmax_loss_grad(X[rows], y[rows], *_slice(params, shapes, i))
            for got, want in zip((losses[i], *_slice(grads, shapes, i)), expected):
                assert _same_bits(got, want)


@given(_problem)
@settings(max_examples=150, deadline=None)
def test_mlp_kernel_is_bit_equal_to_the_reference(p):
    rng = np.random.default_rng(p["seed"])
    k, n, d, c, h = p["k"], p["n"], p["d"], p["c"], p["h"]
    X = rng.normal(size=(k * n, d)).astype(p["dtype"])
    y = rng.integers(0, c, size=k * n)
    shapes = [(d, h), (h,), (h, c), (c,)]
    params = _group(rng, p, shapes)
    grads = [np.full_like(a, np.nan) for a in params]
    with np.errstate(all="ignore"):
        losses = kernels.mlp_loss_grad(X, y, *params, *grads)
        assert losses.shape == (k,)
        for i in range(k):
            rows = slice(i * n, (i + 1) * n)
            expected = _ref_mlp_loss_grad(X[rows], y[rows], *_slice(params, shapes, i))
            gW1, gb1, gW2, gb2 = _slice(grads, shapes, i)
            for got, want in zip((losses[i], gW1, gb1, gW2, gb2), expected):
                assert _same_bits(got, want)
