"""The per-client trainer that lockstep training replaces, kept as the oracle it must match bit for bit.

`local_train` trains one model on its own shard, one `model_loss_and_grad`
call per minibatch; `train_round` runs it for each trainer in client order,
with the FedProx and SCAFFOLD directions and the SCAFFOLD variate refresh
the round engine applies.
"""

import numpy as np

from svote.learner import _views, loss_and_grad, prox_grad, scaffold_grad, scaffold_update_cv, sgd_step


def model_loss_and_grad(w, X, y, spec, grad=None):
    """One flat model's mean batch loss and its gradient, as a one-model lockstep step of `loss_and_grad`.

    The arithmetic runs in w's dtype: X is cast to it and y to int64. The
    gradient is written into grad (a vector of w's length and dtype) when
    given, else into a new array; returns (loss as a float, gradient).
    """
    X = np.ascontiguousarray(X, dtype=w.dtype)
    y = np.ascontiguousarray(y, dtype=np.int64)
    if grad is None:
        grad = np.empty_like(w)
    losses = loss_and_grad(_views(w[None], spec), X, y, spec, _views(grad[None], spec), ((0, 1, len(y)),))
    return float(losses[0]), grad


def local_train(w, X, y, spec, hp, rng, grad_transform=None):
    """Minibatch SGD for hp.local_epochs; returns (new weights, step count).

    Batches are reshuffled each epoch from the caller's rng stream; the
    partial final batch is kept. grad_transform, when given, maps
    (grad, current w) to the applied direction; it may overwrite grad and
    return it, and must not modify w. The caller's w is never modified.
    """
    n = y.shape[0]
    w = w.copy()
    grad = np.empty_like(w)
    steps = 0
    with np.errstate(divide="ignore"):
        for _ in range(hp.local_epochs):
            order = rng.permutation(n)
            for start in range(0, n, hp.batch_size):
                idx = order[start : start + hp.batch_size]
                _, g = model_loss_and_grad(w, X[idx], y[idx], spec, grad)
                if grad_transform is not None:
                    g = grad_transform(g, w)
                sgd_step(w, g, hp.lr)
                steps += 1
    return w, steps


def train_round(trainers, models, variates, X, y, bounds, rngs, spec, hp, method):
    """One training pass of each trainer, client by client; returns the step counts.

    Client cid trains row cid of models on rows bounds[cid]:bounds[cid + 1]
    of X and y with rngs[cid], and its row is replaced by the trained model.
    variates[0] and variates[1] are SCAFFOLD's local and global variate
    matrices.
    """
    steps = []
    for cid in trainers:
        w_start = models[cid]
        shard = slice(bounds[cid], bounds[cid + 1])
        if method == "fedprox":
            direction = np.empty_like(w_start)
            transform = lambda g, w: prox_grad(g, w, w_start, hp.prox_mu, out=direction)  # noqa: E731
        elif method == "scaffold":
            local_c, global_c = variates[:, cid]
            transform = lambda g, w: scaffold_grad(g, local_c, global_c, out=g)  # noqa: E731
        else:
            transform = None
        w, n_steps = local_train(w_start, X[shard], y[shard], spec, hp, rngs[cid], transform)
        if method == "scaffold":
            scaffold_update_cv(local_c, global_c, w_start, w, hp.lr, n_steps)
        w_start[...] = w
        steps.append(n_steps)
    return steps
