"""Hot numeric kernels: cross-entropy forward/backward for both model kinds.

A kernel call computes the losses and gradients of the models of one
lockstep step: each model trains on one batch of its own, and `runs` lists
the step's runs (a, b, size), models a..b-1 whose batches all have that
size, in model order from model 0 (see the layout note below). A single
model on one batch is the step of one run, ((0, 1, n),). Every kernel writes
its gradients into the caller's arrays (views into one gradient matrix) and
allocates nothing of their size. The kernels run in the dtype of their
arrays. A float32 softmax rounds a label probability to 0 at a logit gap of
about 104, where a float64 one holds out to about 745, so a non-finite loss
is judged again in float64 from that model's own rows and weights, and a
loss still non-finite then raises ProtocolError: a float32 model diverges
only where a float64 softmax would. The re-judge takes the model's class
scores from `logits`, the one forward pass of a model, which prediction
runs too. Labels must lie in [0, c): the label gather is not bounds-checked,
so callers check their labels once per pass with `labels_outside`.
On desk-scale batches (32 x 6 logits) each numpy call costs more than its
arithmetic, so reductions call the ufunc's `reduce` directly: `np.sum`,
`ndarray.sum` and `ndarray.mean` run the same reduction behind 2-4 us of
wrapper each.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ProtocolError

# The float type of the whole data plane: features, models, gradients and
# control variates. The wire format prices a parameter at its itemsize
# (netsim.BYTES_PER_PARAM); the kernels themselves run in any float dtype.
DTYPE = np.dtype(np.float32)

# Below this many classes numpy sums a row of logits left to right, which is
# the order of an elementwise sum down the columns of its transpose; from 8
# on its pairwise sum keeps 8 accumulators, and the row sum stays row-wise.
_SEQUENTIAL_SUM = 8


def _softmax_in_place(z):
    """Row-wise softmax of the logits z, overwriting z."""
    # the row max (and the row sum of few classes) as an elementwise
    # reduction down the columns of z^T: faster on narrow rows, the same bits
    z -= np.maximum.reduce(z.T.copy(), axis=0)[:, None]
    np.exp(z, out=z)
    if z.shape[1] < _SEQUENTIAL_SUM:
        z /= np.add.reduce(z.T.copy(), axis=0)[:, None]
    else:
        z /= np.add.reduce(z, axis=1, keepdims=True)
    return z


def _losses_and_delta(p, y, runs):
    """Mean cross-entropy of each model's rows of the probabilities p; turns p into dL/dz in place.

    p holds the step's rows, run after run (see `softmax_loss_grad`), and y
    their labels, each in [0, p.shape[1]). Returns one loss per model.
    """
    n, c = p.shape
    at = np.arange(0, n * c, c)
    at += y
    flat = p.reshape(-1)
    p_label = flat[at]
    log_p = np.log(p_label)
    # each mean is the pairwise sum over one model's rows, as ndarray.mean
    # computes it, and sum / -size equals -(sum / size) for every value but
    # the sign of a NaN; divisor arrays of p's dtype take numpy's fastest
    # division
    if len(runs) == 1:
        [(a, b, size)] = runs
        losses = np.add.reduce(log_p.reshape(b - a, size), axis=1)
        losses /= np.array(-size, p.dtype)
        row_sizes = size
    else:
        losses = np.empty(runs[-1][1], p.dtype)
        r0 = 0
        for a, b, size in runs:
            r1 = r0 + (b - a) * size
            np.add.reduce(log_p[r0:r1].reshape(b - a, size), axis=1, out=losses[a:b])
            r0 = r1
        sizes = np.array([size for _, _, size in runs], p.dtype)
        losses /= -np.repeat(sizes, [b - a for a, b, _ in runs])
        row_sizes = np.repeat(sizes, [(b - a) * size for a, b, size in runs])[:, None]
    p_label -= 1.0
    flat[at] = p_label
    p /= row_sizes
    return losses


def _float64_loss(z, y):
    """Mean cross-entropy of the logits z of one model, with the softmax run on a float64 copy."""
    return _losses_and_delta(_softmax_in_place(z.astype(np.float64)), y, ((0, 1, len(y)),))[0]


def all_finite(losses) -> bool:
    """Whether every loss is finite, from their sum: losses are >= 0 or NaN, and far too small to overflow."""
    return math.isfinite(sum(losses.tolist()))


def labels_outside(y: np.ndarray, num_classes: int) -> bool:
    """Whether a label of the int64 vector y lies outside [0, num_classes), where the label gather cannot read it.

    Read as uint64, a negative label is above every class, so one max tells.
    """
    return y.size > 0 and np.maximum.reduce(y.view(np.uint64)) >= num_classes


def logits(X, W, b, *output):
    """One model's class scores of the rows of X: X W + b, or tanh(X W1 + b1) W2 + b2 given an MLP's W2, b2."""
    z = X @ W + b
    if output:
        W2, b2 = output
        z = np.tanh(z) @ W2 + b2
    return z


def _judged(losses, runs, X, y, params):
    """The losses, with each non-finite one judged again in float64 from its model's logits.

    params are the step's (k, rows, cols) parameters, in `logits`' order. A
    loss that is non-finite in float64 too raises ProtocolError.
    """
    losses = losses.astype(np.float64)
    r0 = 0
    for a, b, size in runs:
        for i in range(a, b):
            rows = slice(r0, r0 + size)
            if not math.isfinite(losses[i]):
                losses[i] = _float64_loss(logits(X[rows], *(p[i] for p in params)), y[rows])
                if not math.isfinite(losses[i]):
                    raise ProtocolError("non-finite loss: model diverged")
            r0 += size
    return losses


# A step is held run after run, and within a run model after model: the
# features X are (N, d), the `size` rows of each model of a run in turn, and
# the step's logits are laid out the same way. Each parameter of the group's
# k models is a (k, rows, cols) view of their k x P matrix, a bias one row;
# the step's runs cover its first models, and the others are left untouched.
# A run of m > 1 models views its rows as (m, size, cols), takes its models'
# (m, rows, cols) slices and transposes the last two axes: numpy's stacked
# matmul runs the same BLAS call on each model's matrices that a single
# model's 2-D product runs. A run of one model takes its 2-D matrices, the
# same arithmetic without the cost of numpy's stacked loops. Per run go the
# work that needs one batch size: the matmuls, the bias adds, each model's
# loss reduction and the bias-gradient reductions, and the MLP's tanh and its
# derivative, on the hidden activations its first matmul allocates. The
# softmax and the label work run once over all the step's rows: the label
# offsets, log, the label write-back and the divide by each row's batch size.
# Every step is elementwise or reduces within one model's rows, so each
# model's loss and gradient are bit-equal to a step of that model alone.


def _cuts(runs, rows, params):
    """Per run, each step-row array of rows cut to the run's rows and each (k, rows, cols) parameter to its models.

    A run of m > 1 models gets 3-D views, a run of one 2-D ones.
    """
    cuts, r0 = [], 0
    for a, b, size in runs:
        m = b - a
        r1 = r0 + m * size
        cut = [*rows] if len(runs) == 1 else [arr[r0:r1] for arr in rows]
        if m > 1:
            cut = [arr.reshape(m, size, arr.shape[1]) for arr in cut] + [p[a:b] for p in params]
        else:
            cut += [p[a] for p in params]
        cuts.append(cut)
        r0 = r1
    return cuts


def softmax_loss_grad(X, y, W, b, gW, gb, runs):
    """Mean cross-entropy of softmax(X@W + b) against labels y, per model of a lockstep step.

    W and gW are (k, d, c), b and gb (k, 1, c). Writes dL/dW into gW and
    dL/db into gb for the models of runs, with no temporary of their size;
    returns their losses.
    """
    z = np.empty((X.shape[0], b.shape[-1]), X.dtype)
    cuts = _cuts(runs, (X, z), (W, b, gW, gb))
    for Xr, zr, Wr, br, _, _ in cuts:
        np.matmul(Xr, Wr, out=zr)
        zr += br
    losses = _losses_and_delta(_softmax_in_place(z), y, runs)
    if not all_finite(losses):
        losses = _judged(losses, runs, X, y, (W, b))
    # z now holds dL/dz
    for Xr, zr, _, _, gWr, gbr in cuts:
        np.matmul(Xr.swapaxes(-1, -2), zr, out=gWr)
        np.add.reduce(zr, axis=-2, keepdims=True, out=gbr)
    return losses


def mlp_loss_grad(X, y, W1, b1, W2, b2, gW1, gb1, gW2, gb2, runs):
    """Same contract for the one-hidden-layer tanh MLP."""
    z = np.empty((X.shape[0], b2.shape[-1]), X.dtype)
    cuts = _cuts(runs, (X, z), (W1, b1, W2, b2, gW1, gb1, gW2, gb2))
    # each run's hidden activations, tanh(X W1 + b1)
    hidden = []
    for Xr, zr, W1r, b1r, W2r, b2r, _, _, _, _ in cuts:
        H = Xr @ W1r
        H += b1r
        np.tanh(H, out=H)
        hidden.append(H)
        np.matmul(H, W2r, out=zr)
        zr += b2r
    losses = _losses_and_delta(_softmax_in_place(z), y, runs)
    if not all_finite(losses):
        losses = _judged(losses, runs, X, y, (W1, b1, W2, b2))
    # z now holds dL/dz
    for (Xr, zr, _, _, W2r, _, gW1r, gb1r, gW2r, gb2r), H in zip(cuts, hidden):
        np.matmul(H.swapaxes(-1, -2), zr, out=gW2r)
        np.add.reduce(zr, axis=-2, keepdims=True, out=gb2r)
        dH = zr @ W2r.swapaxes(-1, -2)
        # H is spent: turn it into the tanh derivative 1 - H^2
        np.multiply(H, H, out=H)
        np.subtract(1.0, H, out=H)
        dH *= H
        np.matmul(Xr.swapaxes(-1, -2), dH, out=gW1r)
        np.add.reduce(dH, axis=-2, keepdims=True, out=gb1r)
    return losses


def active_backend() -> str:
    """The kernel implementation in use; numpy is the only one."""
    return "numpy"
