"""Hot numeric kernels: cross-entropy forward/backward for both model kinds.

A kernel call computes the losses and gradients of a group of k models on
one batch each, all batches of one size (see the layout note below); a
single model is the group k = 1. Every kernel writes its gradients into the
caller's arrays (views into one flat gradient buffer) and allocates nothing
of their size. The kernels run in the dtype of their arrays. A float32
softmax rounds a label probability to 0 at a logit gap of about 104, where a
float64 one holds out to about 745, so a non-finite loss is judged again in
float64 from the same logits: a float32 model's loss turns infinite only
where a float64 softmax's would. On desk-scale batches (32 x 6 logits) each
numpy call costs more than its arithmetic, so reductions call the ufunc's
`reduce` directly: `np.sum`, `ndarray.sum` and `ndarray.mean` run the same
reduction behind 2-4 us of wrapper each.
"""

from __future__ import annotations

import math

import numpy as np

# The float type of the whole data plane: features, models, gradients and
# control variates. The wire format prices a parameter at its itemsize
# (netsim.BYTES_PER_PARAM); the kernels themselves run in any float dtype.
DTYPE = np.dtype(np.float32)


def _softmax_in_place(z):
    """Row-wise softmax of the logits z, overwriting z."""
    # the row max as an elementwise max down the columns of z^T: faster on
    # narrow rows, and a max is exact in any order
    z -= np.maximum.reduce(z.T.copy(), axis=0)[:, None]
    np.exp(z, out=z)
    z /= np.add.reduce(z, axis=1, keepdims=True)
    return z


def _losses_and_delta(p, y, k):
    """Mean cross-entropy of each of k equal blocks of rows of the probabilities p; turns p into dL/dz in place.

    p is C-contiguous, with k * B rows for a batch size B. Returns the k
    block losses. A label outside [0, p.shape[1]) raises ValueError.
    """
    n = p.shape[0]
    # flat offsets of the label entries; ravel_multi_index bounds-checks y
    at = np.ravel_multi_index((np.arange(n), y), p.shape)
    flat = p.reshape(-1)
    p_label = flat[at]
    # each mean is the pairwise sum over B, as ndarray.mean computes it, and
    # sum / -B equals -(sum / B) for every value but the sign of a NaN; a
    # divisor array of the losses' dtype takes numpy's fastest division
    batch = n // k
    losses = np.add.reduce(np.log(p_label).reshape(k, batch), axis=1)
    losses = losses / np.array(-batch, losses.dtype)
    p_label -= 1.0
    flat[at] = p_label
    p /= batch
    return losses


def _float64_loss(z, y):
    """Mean cross-entropy of the logits z, with the softmax run on a float64 copy."""
    return _losses_and_delta(_softmax_in_place(z.astype(np.float64)), y, 1)[0]


def all_finite(losses) -> bool:
    """Whether every loss is finite, from their sum: losses are >= 0 or NaN, and far too small to overflow."""
    return math.isfinite(sum(losses.tolist()))


def _judged(losses, logits, y3):
    """The losses, with each non-finite one judged again in float64 from its block's logits.

    logits(i) computes block i's logits; y3 holds the labels as k x B.
    """
    losses = losses.astype(np.float64)
    for i in np.flatnonzero(~np.isfinite(losses)).tolist():
        losses[i] = _float64_loss(logits(i), y3[i])
    return losses


# A group of k models is held client-major: features X are (k * B, d), B rows
# of each client in turn; a weight matrix of shape (r, s) per client is one
# (k * r, s) block and a bias vector of length s one (k, s) block. The
# kernels view each block as (k, rows, cols) and transpose the last two
# axes: numpy's stacked matmul runs the same BLAS call on each client's slice
# that a single client's 2-D product runs, and every other step is
# elementwise or reduces within one client's rows, so each client's loss and
# gradient are bit-equal to a group of one. A single model is the group
# k = 1, whose matrices are used as they are and whose biases as vectors: the
# same arithmetic without the cost of numpy's stacked loops.


def _stacked(k, *blocks):
    """Each matrix block as k slices of its rows, (k, rows, cols); as it is when k = 1."""
    return blocks if k == 1 else [block.reshape(k, -1, block.shape[-1]) for block in blocks]


def _bias_rows(k, *blocks):
    """Each (k, cols) bias block as (k, 1, cols); as one vector when k = 1.

    A group's bias gradient is then reduced with keepdims.
    """
    return [block[0] for block in blocks] if k == 1 else [block[:, None] for block in blocks]


def softmax_loss_grad(X, y, W, b, gW, gb):
    """Mean cross-entropy of softmax(X@W + b) against labels y, per client of a group.

    Writes dL/dW into gW and dL/db into gb, with no temporary of their size;
    returns the k losses.
    """
    k, c = b.shape
    Xs, Ws, gWs = _stacked(k, X, W, gW)
    bs, gbs = _bias_rows(k, b, gb)
    z = Xs @ Ws
    z += bs
    losses = _losses_and_delta(_softmax_in_place(z.reshape(-1, c)), y, k)
    if not all_finite(losses):
        B, d = X.shape[0] // k, X.shape[1]
        losses = _judged(losses, lambda i: X[i * B : (i + 1) * B] @ W[i * d : (i + 1) * d] + b[i], y.reshape(k, -1))
    # z now holds dL/dz
    np.matmul(Xs.swapaxes(-1, -2), z, out=gWs)
    np.add.reduce(z, axis=-2, keepdims=k > 1, out=gbs)
    return losses


def mlp_loss_grad(X, y, W1, b1, W2, b2, gW1, gb1, gW2, gb2):
    """Same contract for the one-hidden-layer tanh MLP."""
    k, h = b1.shape
    c = b2.shape[1]
    Xs, W1s, W2s, gW1s, gW2s = _stacked(k, X, W1, W2, gW1, gW2)
    b1s, b2s, gb1s, gb2s = _bias_rows(k, b1, b2, gb1, gb2)
    H = Xs @ W1s
    H += b1s
    np.tanh(H, out=H)
    z = H @ W2s
    z += b2s
    losses = _losses_and_delta(_softmax_in_place(z.reshape(-1, c)), y, k)
    if not all_finite(losses):
        B, H2 = X.shape[0] // k, H.reshape(-1, h)
        losses = _judged(losses, lambda i: H2[i * B : (i + 1) * B] @ W2[i * h : (i + 1) * h] + b2[i], y.reshape(k, -1))
    # z now holds dL/dz
    np.matmul(H.swapaxes(-1, -2), z, out=gW2s)
    np.add.reduce(z, axis=-2, keepdims=k > 1, out=gb2s)
    dH = z @ W2s.swapaxes(-1, -2)
    # H is spent: turn it into the tanh derivative 1 - H^2
    np.multiply(H, H, out=H)
    np.subtract(1.0, H, out=H)
    dH *= H
    np.matmul(Xs.swapaxes(-1, -2), dH, out=gW1s)
    np.add.reduce(dH, axis=-2, keepdims=k > 1, out=gb1s)
    return losses


def active_backend() -> str:
    """The kernel implementation in use; numpy is the only one."""
    return "numpy"
