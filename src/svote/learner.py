"""Desk-scale differentiable models and the three local-update variants.

Models are flat parameter vectors in the data-plane dtype (`kernels.DTYPE`,
float32, the precision the wire format prices) so that exchange, averaging,
and cosine comparison all operate on one array type. Supported
architectures: softmax regression and a one-hidden-layer tanh MLP.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

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


def _views(w: np.ndarray, spec: ModelSpec):
    """Split a flat parameter vector into weight/bias views (no copies)."""
    d, c = spec.input_dim, spec.num_classes
    if spec.kind == SOFTMAX:
        return w[: d * c].reshape(d, c), w[d * c :]
    h = spec.hidden_dim
    o1 = d * h
    o2 = o1 + h
    o3 = o2 + h * c
    return w[:o1].reshape(d, h), w[o1:o2], w[o2:o3].reshape(h, c), w[o3:]


def init_params(spec: ModelSpec, seed: int) -> np.ndarray:
    """Seeded uniform [-INIT_SCALE, INIT_SCALE] initialization in the data-plane dtype.

    The draw is float64, rounded once, so the seed stream is the same in any dtype.
    """
    rng = np.random.default_rng(seed)
    return rng.uniform(-INIT_SCALE, INIT_SCALE, size=spec.param_count).astype(kernels.DTYPE)


def _check_batch(w: np.ndarray, X: np.ndarray, y: np.ndarray, spec: ModelSpec):
    if w.shape != (spec.param_count,):
        raise ConfigError(f"parameter vector has length {w.shape}, spec wants {spec.param_count}")
    if X.ndim != 2 or X.shape[1] != spec.input_dim:
        raise ConfigError(f"feature dim {X.shape} does not match input_dim {spec.input_dim}")
    if X.shape[0] == 0:
        raise ConfigError("empty batch")
    if X.shape[0] != y.shape[0]:
        raise ConfigError("feature/label count mismatch")


def loss_and_grad(
    w: np.ndarray, X: np.ndarray, y: np.ndarray, spec: ModelSpec, grad: np.ndarray | None = None
):
    """Mean cross-entropy over the batch and its gradient w.r.t. w.

    The arithmetic runs in w's dtype (the engine's is `kernels.DTYPE`); X is
    cast to it. The gradient is written into `grad` when given (a vector of
    w's length and dtype that does not overlap w) and returned; otherwise
    into a new array. A non-finite loss raises ProtocolError; a float32
    label probability that rounds to 0 (numpy warns of a divide by zero in
    log) counts only if a float64 softmax of the same logits rounds it to 0
    too (see `kernels`).
    """
    _check_batch(w, X, y, spec)
    X = np.ascontiguousarray(X, dtype=w.dtype)
    y = np.ascontiguousarray(y, dtype=np.int64)
    if grad is None:
        grad = np.empty_like(w)
    elif grad.shape != w.shape or grad.dtype != w.dtype:
        raise ConfigError(f"gradient buffer {grad.shape} {grad.dtype} does not match the parameters")
    kernel = kernels.softmax_loss_grad if spec.kind == SOFTMAX else kernels.mlp_loss_grad
    try:
        loss = kernel(X, y, *_views(w, spec), *_views(grad, spec))
    except ValueError:
        # the kernels' label gather is bounds-checked, so the labels cost no check of their own
        raise ConfigError(f"label outside [0, {spec.num_classes})") from None
    loss = float(loss)
    if not math.isfinite(loss):
        raise ProtocolError("non-finite loss: model diverged")
    return loss, grad


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


GradTransform = Callable[[np.ndarray, np.ndarray], np.ndarray]


def local_train(
    w: np.ndarray,
    X: np.ndarray,
    y: np.ndarray,
    spec: ModelSpec,
    hp: HyperParams,
    rng: np.random.Generator,
    grad_transform: GradTransform | None = None,
) -> tuple[np.ndarray, int]:
    """Minibatch SGD for hp.local_epochs; returns (new weights, step count).

    Batches are reshuffled each epoch from the caller's rng stream; the
    partial final batch is kept. grad_transform, when given, maps
    (grad, current w) to the applied direction (FedProx / SCAFFOLD hooks); it
    may overwrite grad and return it, and must not modify w. The caller's w
    is never modified: training runs on one copy, returned as the new
    weights, with one gradient buffer reused by every step.
    """
    n = y.shape[0]
    w = w.copy()
    grad = np.empty_like(w)
    steps = 0
    # a float32 label probability may round to 0 on the way to a finite loss
    with np.errstate(divide="ignore"):
        for _ in range(hp.local_epochs):
            order = rng.permutation(n)
            for start in range(0, n, hp.batch_size):
                idx = order[start : start + hp.batch_size]
                _, g = loss_and_grad(w, X[idx], y[idx], spec, grad)
                if grad_transform is not None:
                    g = grad_transform(g, w)
                sgd_step(w, g, hp.lr)
                steps += 1
    return w, steps
