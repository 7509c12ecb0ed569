"""Desk-scale differentiable models and the three local-update variants.

Models are flat parameter vectors in the data-plane dtype (`kernels.DTYPE`,
float32, the precision the wire format prices) so that exchange, averaging,
and cosine comparison all operate on one array type. Supported
architectures: softmax regression and a one-hidden-layer tanh MLP.

`local_train` trains a group of models in lockstep, as decentralized SGD
analyses treat the nodes' local steps (Lian et al. 2017, D-PSGD): each step
makes one gather of every training model's batch, one kernel call over those
batches and the group's weights, with the step's runs of models whose
batches have one size (see `kernels`), and one elementwise update of every
model still training. Each model keeps its own shuffle stream, and its
arithmetic is the same as if it trained alone. The checks and casts of a
pass, the label check included, run once, not once per step.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import ConfigError, is_count

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
        if not (is_count(self.input_dim, 1) and is_count(self.num_classes, 2)):
            raise ConfigError("model needs integers input_dim >= 1 and num_classes >= 2")
        if not is_count(self.hidden_dim, 1 if self.kind == MLP else 0):
            raise ConfigError("hidden_dim must be an integer, >= 1 for an MLP")

    @property
    def param_count(self) -> int:
        return _layout(self)[-1][1]


@dataclass(frozen=True)
class HyperParams:
    lr: float = 1e-3
    local_epochs: int = 2
    batch_size: int = 32
    prox_mu: float = 0.1

    def __post_init__(self):
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ConfigError("lr must be finite and positive")
        if not (is_count(self.local_epochs, 1) and is_count(self.batch_size, 1)):
            raise ConfigError("local_epochs and batch_size must be integers >= 1")
        if not (math.isfinite(self.prox_mu) and self.prox_mu >= 0):
            raise ConfigError("prox_mu must be finite and non-negative")


@functools.cache
def _layout(spec: ModelSpec):
    """(start, stop, rows, cols) of each weight matrix and bias of one model, in flat-vector order; a bias is one row."""
    d, c, h = int(spec.input_dim), int(spec.num_classes), int(spec.hidden_dim)  # a numpy count would wrap or leak its type
    shapes = ((d, c), (1, c)) if spec.kind == SOFTMAX else ((d, h), (1, h), (h, c), (1, c))
    layout, at = [], 0
    for rows, cols in shapes:
        layout.append((at, at + rows * cols, rows, cols))
        at += rows * cols
    return tuple(layout)


def _views(w: np.ndarray, spec: ModelSpec):
    """Each parameter of a flat model as a (rows, cols) view, or of a k x P matrix of models as a (k, rows, cols) view.

    Each view splits w's last axis, which numpy can always do without a
    copy, so writes through it land in w.
    """
    return tuple(w[..., start:stop].reshape(*w.shape[:-1], rows, cols) for start, stop, rows, cols in _layout(spec))


def init_params(spec: ModelSpec, seed: int) -> np.ndarray:
    """Seeded uniform [-INIT_SCALE, INIT_SCALE] initialization in the data-plane dtype.

    The draw is float64, rounded once, so the seed stream is the same in any dtype.
    """
    rng = np.random.default_rng(seed)
    return rng.uniform(-INIT_SCALE, INIT_SCALE, size=spec.param_count).astype(kernels.DTYPE)


def loss_and_grad(w_views, X: np.ndarray, y: np.ndarray, spec: ModelSpec, grad_views, runs):
    """Mean cross-entropy of each model of one lockstep step and its gradient; returns the step's losses.

    `local_train` calls it once per step with the (k, rows, cols) views of
    the group's weights and gradient (see `_views`), the step's batches,
    which it has checked and cast once per pass, and the step's runs (see
    `kernels`); the gradients of the step's models are written through
    grad_views. A non-finite loss raises ProtocolError (from the kernel); a
    float32 label probability that rounds to 0 (numpy warns of a divide by
    zero in log) counts only if a float64 softmax of the same logits rounds
    it to 0 too (see `kernels`).
    """
    kernel = kernels.softmax_loss_grad if spec.kind == SOFTMAX else kernels.mlp_loss_grad
    return kernel(X, y, *w_views, *grad_views, runs)


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


def predict_batch(w: np.ndarray, X: np.ndarray, spec: ModelSpec) -> np.ndarray:
    """Argmax class score (`kernels.logits`, in w's dtype) per row; ties broken toward the lowest class index."""
    return np.argmax(kernels.logits(np.asarray(X, dtype=w.dtype), *_views(w, spec)), axis=1)


def _held(rows: np.ndarray, order: tuple[int, ...]) -> np.ndarray:
    """rows[order], read-only: a view of the row of a group of one, else a copy."""
    return rows[order[0], None] if len(order) == 1 else rows.take(order, axis=0)


@functools.lru_cache(maxsize=256)
def _lockstep(lens: tuple[int, ...], B: int, epochs: int):
    """The plan of a lockstep pass over models with these shard sizes, in the caller's order, at batch size B.

    Returns (order, counts, begins, shift, batch, steps). order lists the
    models largest shard first, ties in model order, so the models still
    training at a step are the first ones and models with equal batch sizes
    sit together. counts holds each model's step count,
    epochs * ceil(n / B), in the caller's order; the rest of the plan counts
    models in training order. begins holds the k + 1 bounds of the models'
    blocks in the permutation buffer, which holds each model's permutation
    of its rows for its current epoch. Row j of step s comes from
    perm[j + shift[s, i]] for the model i it belongs to, which has
    batch[s, i] rows there (none once it is done). steps holds one
    (live, draws, runs) per step: the number of models still training (the
    first ones), the models that start an epoch there and draw its
    permutation, and the runs (a, b, size) that cover the live models:
    models a..b-1, whose batches at this step all have that size. A model's
    batches are full but for the last of each epoch, so runs split only at
    those. A client trains the same shard every round, so a plan is built
    once and reused; its arrays are read-only.
    """
    n = np.array(lens, dtype=np.intp)
    order = np.argsort(-n, kind="stable")
    counts = epochs * -(-n // B)
    sizes = n[order]
    per_epoch = -(-sizes // B)
    begins = np.concatenate(([0], np.cumsum(sizes)))
    s = np.arange(epochs * per_epoch.max(initial=0))[:, None]
    shift = s % np.maximum(per_epoch, 1) * B  # each batch's start in its epoch's permutation
    batch = np.minimum(sizes - shift, B)
    batch[s >= epochs * per_epoch] = 0  # an empty shard trains no step
    starts_epoch = (shift == 0) & (batch > 0)
    shift += begins[:-1]
    shift += batch
    shift -= np.cumsum(batch, axis=1)
    # a run begins at each live model whose batch differs in size from the one before
    run_at = batch > 0
    run_at[:, 1:] &= batch[:, 1:] != batch[:, :-1]
    steps = []
    for live, row, starts, at in zip(np.count_nonzero(batch, axis=1).tolist(), batch.tolist(), starts_epoch, run_at):
        at = np.flatnonzero(at).tolist()
        runs = tuple(zip(at, [*at[1:], live], [row[a] for a in at]))
        steps.append((live, tuple(np.flatnonzero(starts).tolist()), runs))
    for plan in begins, shift, batch:
        plan.flags.writeable = False
    return tuple(order.tolist()), tuple(counts.tolist()), begins, shift, batch, tuple(steps)


def local_train(
    models: np.ndarray,
    X: np.ndarray,
    y: np.ndarray,
    spec: ModelSpec,
    hp: HyperParams,
    rngs,
    ranges,
    prox: bool = False,
    variates=None,
):
    """Minibatch SGD for hp.local_epochs of a group of models in lockstep.

    models is a k x P matrix of starting models; model i trains on rows
    ranges[i] = (start, stop) of X and y with the Generator rngs[i]. A
    model array that is not 2-D raises ConfigError. Each model reshuffles
    its shard each epoch from its own stream, and keeps the partial final
    batch. The caller's arrays are never modified. A label outside
    [0, num_classes) in the rows from the first range to the last raises
    ConfigError.

    The update of each step is w - lr * direction, where the direction is
    the gradient; with prox (FedProx) it is grad + prox_mu * (w - w_start);
    with variates = (local_c, global_c), each k x P (SCAFFOLD), it is
    grad - local_c + global_c.

    Returns (trained, steps): the k x P trained models and the k step counts.

    The group trains in lockstep, by the plan `_lockstep` makes of its
    shard sizes: each step makes one kernel call, on one gather of every
    training model's batch and the group's weights, with the step's runs of
    consecutive models (ordered by shard size, largest first) whose batches
    have the same size; one elementwise update then covers every model
    still training. Nothing is padded, and each model's arithmetic is the
    same as if it trained alone. The batch checks and casts run once per
    pass, and a step's gathered batch is freed before the next step's
    gather. The model-sized buffers of a pass are a copy of the models in
    training order and a gradient, both k x P (FedProx adds its direction
    and, for k > 1, a copy of w_start; SCAFFOLD, for k > 1, copies of its
    variates), k P floats each.
    """
    if models.ndim != 2:
        raise ConfigError(f"models of shape {models.shape} are not a k x P matrix")
    k, P = models.shape
    if P != spec.param_count:
        raise ConfigError(f"parameter vector has length {P}, spec wants {spec.param_count}")
    if X.ndim != 2 or X.shape != (y.shape[0], spec.input_dim):
        raise ConfigError(f"features {X.shape} do not match {y.shape[0]} labels and input_dim {spec.input_dim}")
    if len(ranges) != k or len(rngs) != k:
        raise ConfigError(f"{k} models need {k} row ranges and {k} generators")
    starts, stops = zip(*ranges)
    if not all(0 <= start <= stop <= y.shape[0] for start, stop in ranges):
        raise ConfigError("row range outside the training data")
    if prox and variates is not None:
        raise ConfigError("FedProx and SCAFFOLD directions are exclusive")
    X = np.ascontiguousarray(X, dtype=models.dtype)
    y = np.ascontiguousarray(y, dtype=np.int64)
    # one check of the labels from the first range to the last
    if kernels.labels_outside(y[min(starts) : max(stops)], spec.num_classes):
        raise ConfigError(f"label outside [0, {spec.num_classes})")

    order, counts, begins, shift, batch, schedule = _lockstep(
        tuple(stop - start for start, stop in ranges), int(hp.batch_size), int(hp.local_epochs)
    )
    # each model's permutation of its rows of X for its current epoch, model after model
    perm = np.empty(begins[-1], dtype=np.intp)
    work = models.take(order, axis=0)
    grad = np.empty_like(work)
    buffers = [work, grad]
    if prox:
        buffers += [_held(models, order), np.empty_like(work)]  # w_start, direction
    elif variates is not None:
        buffers += [_held(v, order) for v in variates]
    w_all, g_all = _views(work, spec), _views(grad, spec)
    lr, mu = hp.lr, hp.prox_mu
    # a float32 label probability may round to 0 on the way to a finite loss
    with np.errstate(divide="ignore"):
        for step, (live, draws, runs) in enumerate(schedule):
            for i in draws:
                start, stop = ranges[order[i]]
                np.add(rngs[order[i]].permutation(stop - start), start, out=perm[begins[i] : begins[i + 1]])
            if live == 1:  # one model's batch is a slice of its permutation
                at = shift[step, 0]
                rows = perm[at : at + runs[0][2]]
            else:
                rows = np.repeat(shift[step, :live], batch[step, :live])
                rows += np.arange(len(rows))
                rows = perm.take(rows)
            # one gather of the step's batches; ndarray.take gathers rows
            # faster than fancy indexing, to the same bytes. The row indices
            # are freed before the kernel's buffers are made, and the batch
            # before the next step's gather.
            batch_Xy = X.take(rows, axis=0), y.take(rows)
            del rows
            loss_and_grad(w_all, *batch_Xy, spec, g_all, runs)
            del batch_Xy
            # one elementwise update of the rows of every model still training
            w_p, g_p, *rule = buffers if live == k else [buf[:live] for buf in buffers]
            if prox:
                g_p = prox_grad(g_p, w_p, rule[0], mu, out=rule[1])
            elif variates is not None:
                g_p = scaffold_grad(g_p, rule[0], rule[1], out=g_p)
            sgd_step(w_p, g_p, lr)

    trained = work
    if k > 1:  # back to the caller's row order
        trained = np.empty_like(work)
        trained[list(order)] = work
    return trained, list(counts)
