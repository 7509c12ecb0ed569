"""Desk-scale differentiable models and the three local-update variants.

Models are flat parameter vectors in the data-plane dtype (`kernels.DTYPE`,
float32, the precision the wire format prices) so that exchange, averaging,
and cosine comparison all operate on one array type. Supported
architectures: softmax regression and a one-hidden-layer tanh MLP.

`local_train` trains one model or a group of models in lockstep, as
decentralized SGD analyses treat the nodes' local steps (Lian et al. 2017,
D-PSGD): at each step, the models whose batches have one size make one
kernel call over their stacked batches and weights, and one elementwise
update covers every model still training. Each model keeps its own shuffle
stream, and its arithmetic is the same as if it trained alone. The checks
and casts of a pass run once, not once per step.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import ConfigError, ProtocolError

SOFTMAX = "softmax"
MLP = "mlp"

INIT_SCALE = 0.05  # uniform [-0.05, 0.05] per entry


@dataclass(frozen=True)
class ModelSpec:
    """Architecture descriptor; parameter count is a pure function of it."""

    kind: str
    input_dim: int
    num_classes: int
    hidden_dim: int = 0

    def __post_init__(self):
        if self.kind not in (SOFTMAX, MLP):
            raise ConfigError(f"unknown model kind {self.kind!r}")
        if self.input_dim < 1 or self.num_classes < 2:
            raise ConfigError("model needs input_dim >= 1 and num_classes >= 2")
        if self.kind == MLP and self.hidden_dim < 1:
            raise ConfigError("MLP needs hidden_dim >= 1")

    @property
    def param_count(self) -> int:
        if self.kind == SOFTMAX:
            return (self.input_dim + 1) * self.num_classes
        return (self.input_dim + 1) * self.hidden_dim + (self.hidden_dim + 1) * self.num_classes


@dataclass(frozen=True)
class HyperParams:
    lr: float = 1e-3
    local_epochs: int = 2
    batch_size: int = 32
    prox_mu: float = 0.1

    def __post_init__(self):
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ConfigError("lr must be finite and positive")
        if self.local_epochs < 1 or self.batch_size < 1:
            raise ConfigError("local_epochs and batch_size must be >= 1")
        if not (math.isfinite(self.prox_mu) and self.prox_mu >= 0):
            raise ConfigError("prox_mu must be finite and non-negative")


@functools.cache
def _layout(spec: ModelSpec):
    """(start, stop, shape, rows) of each weight matrix and bias vector of one model, in flat-vector order.

    rows is the parameter's row count in the kernels' layout: a bias vector is one row.
    """
    d, c, h = spec.input_dim, spec.num_classes, spec.hidden_dim
    shapes = ((d, c), (c,)) if spec.kind == SOFTMAX else ((d, h), (h,), (h, c), (c,))
    layout, at = [], 0
    for shape in shapes:
        size = math.prod(shape)
        layout.append((at, at + size, shape, shape[0] if len(shape) == 2 else 1))
        at += size
    return tuple(layout)


def _views(w: np.ndarray, spec: ModelSpec):
    """Split a flat parameter vector into weight/bias views (no copies)."""
    return tuple(w[start:stop].reshape(shape) for start, stop, shape, _ in _layout(spec))


def _blocks(flat: np.ndarray, spec: ModelSpec, k: int):
    """The kernel blocks of k models held block-major in one flat buffer (no copies).

    Block j holds parameter j of every model, model after model, as one
    (k * rows, cols) matrix (see `kernels`), at k times the parameter's
    offsets in one model. For k = 1 the buffer is one flat parameter vector.
    """
    return [flat[k * start : k * stop].reshape(k * rows, shape[-1]) for start, stop, shape, rows in _layout(spec)]


def init_params(spec: ModelSpec, seed: int) -> np.ndarray:
    """Seeded uniform [-INIT_SCALE, INIT_SCALE] initialization in the data-plane dtype.

    The draw is float64, rounded once, so the seed stream is the same in any dtype.
    """
    rng = np.random.default_rng(seed)
    return rng.uniform(-INIT_SCALE, INIT_SCALE, size=spec.param_count).astype(kernels.DTYPE)


def _check_data(X: np.ndarray, y: np.ndarray, spec: ModelSpec):
    if X.ndim != 2 or X.shape[1] != spec.input_dim:
        raise ConfigError(f"feature dim {X.shape} does not match input_dim {spec.input_dim}")
    if X.shape[0] != y.shape[0]:
        raise ConfigError("feature/label count mismatch")


def _kernel_losses(spec: ModelSpec, X, y, w_blocks, grad_blocks) -> np.ndarray:
    """The kernel's losses of a group of models whose batches were checked; raises on any non-finite one."""
    kernel = kernels.softmax_loss_grad if spec.kind == SOFTMAX else kernels.mlp_loss_grad
    try:
        losses = kernel(X, y, *w_blocks, *grad_blocks)
    except ValueError:
        # the kernels' label gather is bounds-checked, so the labels cost no check of their own
        raise ConfigError(f"label outside [0, {spec.num_classes})") from None
    if not kernels.all_finite(losses):
        raise ProtocolError("non-finite loss: model diverged")
    return losses


def loss_and_grad(w, X: np.ndarray, y: np.ndarray, spec: ModelSpec, grad=None):
    """Mean cross-entropy over the batch and its gradient w.r.t. w.

    The arithmetic runs in w's dtype (the engine's is `kernels.DTYPE`); X is
    cast to it. The gradient is written into `grad` when given (a vector of
    w's length and dtype that does not overlap w) and returned; otherwise
    into a new array. A non-finite loss raises ProtocolError; a float32
    label probability that rounds to 0 (numpy warns of a divide by zero in
    log) counts only if a float64 softmax of the same logits rounds it to 0
    too (see `kernels`).

    `local_train` calls it once per step group with the group's kernel
    blocks as w and grad (tuples, see `_blocks`) and a batch it has checked
    and cast once per pass; it then returns only the group's losses.
    """
    if isinstance(w, tuple):
        return _kernel_losses(spec, X, y, w, grad)
    if w.shape != (spec.param_count,):
        raise ConfigError(f"parameter vector has length {w.shape}, spec wants {spec.param_count}")
    _check_data(X, y, spec)
    if X.shape[0] == 0:
        raise ConfigError("empty batch")
    X = np.ascontiguousarray(X, dtype=w.dtype)
    y = np.ascontiguousarray(y, dtype=np.int64)
    if grad is None:
        grad = np.empty_like(w)
    elif grad.shape != w.shape or grad.dtype != w.dtype:
        raise ConfigError(f"gradient buffer {grad.shape} {grad.dtype} does not match the parameters")
    losses = _kernel_losses(spec, X, y, _blocks(w, spec, 1), _blocks(grad, spec, 1))
    return float(losses[0]), grad


def sgd_step(w: np.ndarray, grad: np.ndarray, lr: float) -> np.ndarray:
    """One SGD step in place: w becomes w - lr * grad; returns w.

    grad is the caller's scratch: it is left holding lr * grad.
    """
    grad *= lr
    w -= grad
    return w


def prox_grad(
    grad: np.ndarray, w: np.ndarray, w_anchor: np.ndarray, prox_mu: float, out: np.ndarray | None = None
) -> np.ndarray:
    """FedProx: pull the update toward the last aggregated model.

    Returns grad + prox_mu * (w - w_anchor), written into `out` when given
    (out must not overlap grad, w or w_anchor).
    """
    out = np.subtract(w, w_anchor, out=out)
    out *= prox_mu
    out += grad
    return out


def scaffold_grad(
    grad: np.ndarray, local_c: np.ndarray, global_c: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """SCAFFOLD drift-corrected direction grad - c_local + c_global.

    Written into `out` when given; out may be grad itself.
    """
    out = np.subtract(grad, local_c, out=out)
    out += global_c
    return out


def scaffold_update_cv(
    local_c: np.ndarray, global_c: np.ndarray, w_before: np.ndarray, w_after: np.ndarray, lr: float, steps: int
) -> np.ndarray:
    """Option-II local variate refresh after `steps` SGD steps at rate lr, in place; returns local_c.

    local_c becomes local_c - global_c + (w_before - w_after) / (steps * lr).
    """
    if steps < 1 or lr <= 0:
        raise ConfigError("scaffold variate update needs steps >= 1 and lr > 0")
    drift = np.subtract(w_before, w_after)
    drift /= steps * lr
    local_c -= global_c
    local_c += drift
    return local_c


def logits(w: np.ndarray, X: np.ndarray, spec: ModelSpec) -> np.ndarray:
    """Class scores of each row of X, computed in w's dtype."""
    X = np.asarray(X, dtype=w.dtype)
    if spec.kind == SOFTMAX:
        W, b = _views(w, spec)
        return X @ W + b
    W1, b1, W2, b2 = _views(w, spec)
    return np.tanh(X @ W1 + b1) @ W2 + b2


def predict_batch(w: np.ndarray, X: np.ndarray, spec: ModelSpec) -> np.ndarray:
    """Argmax class score per row; ties broken toward the lowest class index."""
    return np.argmax(logits(w, X, spec), axis=1)


def _block_major(rows: np.ndarray, order: list[int], spec: ModelSpec, out: np.ndarray) -> np.ndarray:
    """rows[order], one flat model per row, copied into out block-major (see `_blocks`); returns out."""
    k = len(order)
    if k == 1:  # one model's blocks are its flat vector: one copy, a third of the cost of the takes
        out[...] = rows[order[0]]
        return out
    for start, stop, _, _ in _layout(spec):
        np.take(rows[:, start:stop], order, axis=0, out=out[k * start : k * stop].reshape(k, -1), mode="clip")
    return out


def _row_major(flat: np.ndarray, order: list[int], spec: ModelSpec, out: np.ndarray) -> np.ndarray:
    """The inverse of `_block_major`: model i of the block-major flat buffer copied into row order[i] of out."""
    k = len(order)
    for start, stop, _, _ in _layout(spec):
        out[order, start:stop] = flat[k * start : k * stop].reshape(k, -1)
    return out


def _held(rows: np.ndarray, order: list[int], spec: ModelSpec) -> np.ndarray:
    """rows[order] block-major, read-only: a view of the row of a group of one, else a copy."""
    if len(order) == 1:
        return rows[order[0]]
    return _block_major(rows, order, spec, np.empty(rows.size, rows.dtype))


@functools.lru_cache(maxsize=256)
def _lockstep(sizes: tuple[int, ...], B: int, epochs: int):
    """The steps of a lockstep pass over models with these shard sizes, largest first, at batch size B.

    Returns one (live, draws, runs) per step: the number of models still
    training (the first ones), the models that start an epoch there and draw
    its permutation, and the runs (a, b, size) that cover the live models:
    models a..b-1, whose batches at this step all have that size. A model's
    batches are full but for the last of each epoch, so runs split only at
    those. A client trains the same shard every round, so a schedule is
    built once and reused.
    """
    per_epoch = [-(-n // B) for n in sizes]
    total = epochs * max(per_epoch, default=0)
    draws = [[] for _ in range(total)]
    ragged = [[] for _ in range(total)]  # (model, size) of each short last batch
    for i, (n, m) in enumerate(zip(sizes, per_epoch)):
        for e in range(epochs if m else 0):  # an empty shard trains no step
            draws[e * m].append(i)
            if n % B:
                ragged[e * m + m - 1].append((i, n % B))
    steps, live = [], len(sizes)
    for s in range(total):
        while epochs * per_epoch[live - 1] <= s:
            live -= 1
        runs, a = [], 0
        for i, size in ragged[s]:
            if i > a:
                runs.append((a, i, B))
            if runs and runs[-1][1] == i and runs[-1][2] == size:
                runs[-1] = (runs[-1][0], i + 1, size)
            else:
                runs.append((i, i + 1, size))
            a = i + 1
        if live > a:
            runs.append((a, live, B))
        steps.append((live, tuple(draws[s]), tuple(runs)))
    return tuple(steps)


def local_train(
    w: np.ndarray,
    X: np.ndarray,
    y: np.ndarray,
    spec: ModelSpec,
    hp: HyperParams,
    rng,
    ranges=None,
    prox: bool = False,
    variates=None,
):
    """Minibatch SGD for hp.local_epochs of one model, or of a group of models in lockstep.

    w is one flat model, trained on all rows of X and y with the Generator
    rng; or a k x P matrix of starting models, where model i trains on rows
    ranges[i] = (start, stop) of X and y with the Generator rng[i]. Each
    model reshuffles its shard each epoch from its own stream, and keeps the
    partial final batch. The caller's arrays are never modified.

    The update of each step is w - lr * direction, where the direction is
    the gradient; with prox (FedProx) it is grad + prox_mu * (w - w_start);
    with variates = (local_c, global_c), each shaped like w (SCAFFOLD), it
    is grad - local_c + global_c.

    Returns (trained, steps): the trained models, shaped like w, and the
    step count (one int, or a list of k).

    The group trains in lockstep: at each step, every run of consecutive
    models (ordered by shard size, largest first) whose batches have the
    same size makes one kernel call, on one gather of its batches and the
    block-major weights of its models, and one elementwise update covers
    every model still training. Each model's arithmetic is the same as if it
    trained alone. The batch checks and casts run once per pass. The
    model-sized buffers of a pass are a block-major copy of w and a gradient
    (FedProx adds its direction and, for k > 1, a copy of w_start; SCAFFOLD,
    for k > 1, copies of its variates), k P floats each.
    """
    single = w.ndim == 1
    models = w[None] if single else w
    rngs = [rng] if single else rng
    k, P = models.shape
    if P != spec.param_count:
        raise ConfigError(f"parameter vector has length {P}, spec wants {spec.param_count}")
    _check_data(X, y, spec)
    ranges = [(0, y.shape[0])] if ranges is None else ranges
    if len(ranges) != k or len(rngs) != k:
        raise ConfigError(f"{k} models need {k} row ranges and {k} generators")
    if not all(0 <= start <= stop <= y.shape[0] for start, stop in ranges):
        raise ConfigError("row range outside the training data")
    if prox and variates is not None:
        raise ConfigError("FedProx and SCAFFOLD directions are exclusive")
    X = np.ascontiguousarray(X, dtype=models.dtype)
    y = np.ascontiguousarray(y, dtype=np.int64)

    # largest shard first: the models still training are the first ones, and
    # models with equal batch sizes sit together
    order = sorted(range(k), key=lambda i: ranges[i][0] - ranges[i][1])
    sizes = [int(ranges[i][1] - ranges[i][0]) for i in order]
    rngs = [rngs[i] for i in order]
    schedule = _lockstep(tuple(sizes), hp.batch_size, hp.local_epochs)
    # each model's permutation of its rows of X for its current epoch, model
    # after model
    perm_at, end = [], 0
    for i, n in zip(order, sizes):
        perm_at.append((end, end + n, int(ranges[i][0])))
        end += n
    perm = np.empty(end, dtype=np.intp)
    B = hp.batch_size
    per_epoch = [max(-(-n // B), 1) for n in sizes]
    if k > 1:  # row s: each model's batch offset in perm at step s, for the runs of several models
        offsets = np.arange(len(schedule))[:, None] % per_epoch * B + [begin for begin, _, _ in perm_at]

    work = _block_major(models, order, spec, np.empty(k * P, models.dtype))
    grad = np.empty_like(work)
    buffers = [work, grad]
    if prox:
        buffers += [_held(models, order, spec), np.empty_like(work)]  # w_start, direction
    elif variates is not None:
        buffers += [_held(v[None] if single else v, order, spec) for v in variates]
    blocks = [_blocks(buf, spec, k) for buf in buffers]
    w_all, g_all = tuple(blocks[0]), tuple(blocks[1])
    block_rows = [rows for *_, rows in _layout(spec)]
    lr, mu = hp.lr, hp.prox_mu
    cols = np.arange(hp.batch_size)
    # a float32 label probability may round to 0 on the way to a finite loss
    with np.errstate(divide="ignore"):
        for step, (live, draws, runs) in enumerate(schedule):
            for i in draws:
                begin, stop, start = perm_at[i]
                np.add(rngs[i].permutation(stop - begin), start, out=perm[begin:stop])
            for a, b, size in runs:
                if b - a == 1:  # one model's batch is a slice of its permutation
                    at = perm_at[a][0] + step % per_epoch[a] * B
                    rows = perm[at : at + size]
                else:
                    rows = perm[(offsets[step, a:b, None] + cols[:size]).ravel()]
                if b - a == k:
                    w_run, g_run = w_all, g_all
                else:
                    w_run = tuple(blk[a * r : b * r] for blk, r in zip(blocks[0], block_rows))
                    g_run = tuple(blk[a * r : b * r] for blk, r in zip(blocks[1], block_rows))
                # ndarray.take gathers rows faster than fancy indexing, to the same bytes
                loss_and_grad(w_run, X.take(rows, axis=0), y[rows], spec, g_run)
            # one elementwise update of every model still training: the whole
            # buffers, or the first `live` models of each block
            if live == k:
                parts = [buffers]
            else:
                parts = zip(*([blk[: live * r] for blk, r in zip(bufs, block_rows)] for bufs in blocks))
            for w_p, g_p, *rule in parts:
                if prox:
                    g_p = prox_grad(g_p, w_p, rule[0], mu, out=rule[1])
                elif variates is not None:
                    g_p = scaffold_grad(g_p, rule[0], rule[1], out=g_p)
                sgd_step(w_p, g_p, lr)

    steps = [0] * k
    for i, n in zip(order, sizes):
        steps[i] = hp.local_epochs * -(-n // hp.batch_size)
    trained = work if k == 1 else _row_major(work, order, spec, np.empty_like(models))
    if single:
        return trained, steps[0]
    return trained.reshape(k, P), steps
