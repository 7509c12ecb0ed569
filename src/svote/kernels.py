"""Hot numeric kernels: cross-entropy forward/backward for both model kinds.

Every kernel writes its gradients into the caller's arrays (views into one
flat gradient vector) and allocates nothing of their size. The kernels run in
the dtype of their arrays. A float32 softmax rounds a label probability to 0
at a logit gap of about 104, where a float64 one holds out to about 745, so a
non-finite loss is judged again in float64 from the same logits: a float32
model's loss turns infinite only where a float64 softmax's would. On desk-scale
batches (32 x 6 logits) each numpy call costs more than its arithmetic, so
reductions call the ufunc's `reduce` directly: `np.sum`, `ndarray.sum` and
`ndarray.mean` run the same reduction behind 2-4 us of wrapper each.
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


def _loss_and_delta(p, y):
    """Mean cross-entropy of the probabilities p; turns p into dL/dz in place.

    p is C-contiguous. A label outside [0, p.shape[1]) raises ValueError.
    """
    n = p.shape[0]
    # flat offsets of the label entries; ravel_multi_index bounds-checks y
    at = np.ravel_multi_index((np.arange(n), y), p.shape)
    flat = p.reshape(-1)
    p_label = flat[at]
    # the mean is the pairwise sum over n, as ndarray.mean computes it
    loss = -np.add.reduce(np.log(p_label)) / n
    p_label -= 1.0
    flat[at] = p_label
    p /= n
    return loss


def _float64_loss(z, y):
    """Mean cross-entropy of the logits z, with the softmax run on a float64 copy."""
    return _loss_and_delta(_softmax_in_place(z.astype(np.float64)), y)


def softmax_loss_grad(X, y, W, b, gW, gb):
    """Mean cross-entropy of softmax(X@W + b) against labels y.

    Writes dL/dW into gW and dL/db into gb, with no temporary of their size;
    returns the loss.
    """
    z = X @ W
    z += b
    d = _softmax_in_place(z)
    loss = _loss_and_delta(d, y)
    if not math.isfinite(loss):
        loss = _float64_loss(X @ W + b, y)
    np.matmul(X.T, d, out=gW)
    np.add.reduce(d, axis=0, out=gb)
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
    if not math.isfinite(loss):
        loss = _float64_loss(H @ W2 + b2, y)
    np.matmul(H.T, d, out=gW2)
    np.add.reduce(d, axis=0, out=gb2)
    dH = d @ W2.T
    # H is spent: turn it into the tanh derivative 1 - H^2
    np.multiply(H, H, out=H)
    np.subtract(1.0, H, out=H)
    dH *= H
    np.matmul(X.T, dH, out=gW1)
    np.add.reduce(dH, axis=0, out=gb1)
    return loss


def active_backend() -> str:
    """The kernel implementation in use; numpy is the only one."""
    return "numpy"
