"""Hot numeric kernels: cross-entropy forward/backward for both model kinds.

Every kernel writes its gradients into the caller's arrays (views into one
flat gradient vector) and allocates nothing of their size.
"""

from __future__ import annotations

import numpy as np


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


def softmax_loss_grad(X, y, W, b, gW, gb):
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


def mlp_loss_grad(X, y, W1, b1, W2, b2, gW1, gb1, gW2, gb2):
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


def active_backend() -> str:
    """The kernel implementation in use; numpy is the only one."""
    return "numpy"
