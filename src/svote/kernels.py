"""Hot numeric kernels: cross-entropy forward/backward for both model kinds.

Two interchangeable implementations live here. The numba ``@njit`` kernels are
the default when numba (the optional ``jit`` extra) imports; the pure-numpy
path runs otherwise. Selection happens once at import via the
``SVOTE_BACKEND`` env var ("numba" | "numpy"). Both paths agree to float
round-off; bit-level determinism is guaranteed within a backend, not across
backends.

Every kernel writes its gradients into the caller's arrays (views into one
flat gradient vector) and allocates nothing of their size.
"""

from __future__ import annotations

import os
import warnings

import numpy as np

_ENV_VAR = "SVOTE_BACKEND"


# ---------------------------------------------------------------- numpy path

def _softmax_in_place(z):
    """Row-wise softmax of the logits z, overwriting z."""
    z -= z.max(axis=1, keepdims=True)
    np.exp(z, out=z)
    z /= z.sum(axis=1, keepdims=True)
    return z


def _loss_and_delta(p, y):
    """Mean cross-entropy of the probabilities p; turns p into dL/dz in place."""
    n = p.shape[0]
    rows = np.arange(n)
    loss = -np.log(p[rows, y]).mean()
    p[rows, y] -= 1.0
    p /= n
    return loss


def softmax_loss_grad_np(X, y, W, b, gW, gb):
    """Mean cross-entropy of softmax(X@W + b) against labels y.

    Writes dL/dW into gW and dL/db into gb, with no temporary of their size;
    returns the loss.
    """
    z = X @ W
    z += b
    d = _softmax_in_place(z)
    loss = _loss_and_delta(d, y)
    np.matmul(X.T, d, out=gW)
    np.sum(d, axis=0, out=gb)
    return loss


def mlp_loss_grad_np(X, y, W1, b1, W2, b2, gW1, gb1, gW2, gb2):
    """Same contract for the one-hidden-layer tanh MLP."""
    H = X @ W1
    H += b1
    np.tanh(H, out=H)
    z = H @ W2
    z += b2
    d = _softmax_in_place(z)
    loss = _loss_and_delta(d, y)
    np.matmul(H.T, d, out=gW2)
    np.sum(d, axis=0, out=gb2)
    dH = d @ W2.T
    # H is spent: turn it into the tanh derivative 1 - H^2
    np.multiply(H, H, out=H)
    np.subtract(1.0, H, out=H)
    dH *= H
    np.matmul(X.T, dH, out=gW1)
    np.sum(dH, axis=0, out=gb1)
    return loss


# ---------------------------------------------------------------- numba path

try:
    from numba import njit

    @njit(cache=True)
    def softmax_loss_grad_nb(X, y, W, b, gW, gb):  # pragma: no cover - jitted
        n, d = X.shape
        c = W.shape[1]
        gW[:] = 0.0
        gb[:] = 0.0
        loss = 0.0
        z = np.empty(c)
        # class index innermost everywhere: W and gW rows stay contiguous
        for i in range(n):
            for k in range(c):
                z[k] = b[k]
            for j in range(d):
                xij = X[i, j]
                for k in range(c):
                    z[k] += xij * W[j, k]
            zmax = z[0]
            for k in range(1, c):
                if z[k] > zmax:
                    zmax = z[k]
            sexp = 0.0
            for k in range(c):
                z[k] = np.exp(z[k] - zmax)
                sexp += z[k]
            loss -= np.log(z[y[i]] / sexp)
            for k in range(c):
                z[k] /= sexp
            z[y[i]] -= 1.0
            for k in range(c):
                gb[k] += z[k]
            for j in range(d):
                xij = X[i, j]
                for k in range(c):
                    gW[j, k] += xij * z[k]
        inv = 1.0 / n
        for j in range(d):
            for k in range(c):
                gW[j, k] *= inv
        for k in range(c):
            gb[k] *= inv
        return loss * inv

    @njit(cache=True)
    def mlp_loss_grad_nb(X, y, W1, b1, W2, b2, gW1, gb1, gW2, gb2):  # pragma: no cover - jitted
        n, d = X.shape
        h = W1.shape[1]
        c = W2.shape[1]
        gW1[:] = 0.0
        gb1[:] = 0.0
        gW2[:] = 0.0
        gb2[:] = 0.0
        loss = 0.0
        H = np.empty(h)
        z = np.empty(c)
        da = np.empty(h)
        # hidden/class index innermost: weight and gradient rows stay contiguous
        for i in range(n):
            for m in range(h):
                H[m] = b1[m]
            for j in range(d):
                xij = X[i, j]
                for m in range(h):
                    H[m] += xij * W1[j, m]
            for m in range(h):
                H[m] = np.tanh(H[m])
            for k in range(c):
                z[k] = b2[k]
            for m in range(h):
                hm = H[m]
                for k in range(c):
                    z[k] += hm * W2[m, k]
            zmax = z[0]
            for k in range(1, c):
                if z[k] > zmax:
                    zmax = z[k]
            sexp = 0.0
            for k in range(c):
                z[k] = np.exp(z[k] - zmax)
                sexp += z[k]
            loss -= np.log(z[y[i]] / sexp)
            for k in range(c):
                z[k] /= sexp
            z[y[i]] -= 1.0
            for m in range(h):
                hm = H[m]
                acc = 0.0
                for k in range(c):
                    acc += z[k] * W2[m, k]
                    gW2[m, k] += hm * z[k]
                da[m] = acc * (1.0 - hm * hm)
                gb1[m] += da[m]
            for k in range(c):
                gb2[k] += z[k]
            for j in range(d):
                xij = X[i, j]
                for m in range(h):
                    gW1[j, m] += xij * da[m]
        inv = 1.0 / n
        for j in range(d):
            for m in range(h):
                gW1[j, m] *= inv
        for m in range(h):
            gb1[m] *= inv
        for m in range(h):
            for k in range(c):
                gW2[m, k] *= inv
        for k in range(c):
            gb2[k] *= inv
        return loss * inv

    _HAVE_NUMBA = True
except ImportError:  # pragma: no cover - exercised only without numba
    softmax_loss_grad_nb = None
    mlp_loss_grad_nb = None
    _HAVE_NUMBA = False


def _select_backend() -> str:
    choice = os.environ.get(_ENV_VAR, "numba").strip().lower()
    if choice not in ("numba", "numpy"):
        raise ValueError(f"{_ENV_VAR} must be 'numba' or 'numpy', got {choice!r}")
    if choice == "numba" and not _HAVE_NUMBA:
        warnings.warn("numba unavailable, falling back to numpy kernels")
        return "numpy"
    return choice


_ACTIVE = _select_backend()

if _ACTIVE == "numba":
    softmax_loss_grad = softmax_loss_grad_nb
    mlp_loss_grad = mlp_loss_grad_nb
else:
    softmax_loss_grad = softmax_loss_grad_np
    mlp_loss_grad = mlp_loss_grad_np


def active_backend() -> str:
    """Backend chosen at import time ("numba" or "numpy")."""
    return _ACTIVE
