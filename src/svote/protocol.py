"""One round engine for the voting protocol and the three baselines.

Every method runs the same synchronous rounds (train, share, aggregate) with
canonical client-id ordering everywhere, so two runs with one seed are
bit-identical. A run's schedule, one Phase per round, decides what a round
runs; the method only decides the gradient transform (FedProx anchors it to
the model each pass starts from) and what is shared (SCAFFOLD adds its
control variate).

Client cid's model is row cid of one n x P matrix, its SCAFFOLD variates are
rows of two more, its selection is row cid of an n x n mask, and its votes,
vote floor, degree, escalation level and int8 Action code are entry cid of
per-client arrays, so one vote_gate call decides a GATED round. Every client
that trains in a round trains in lockstep with the others
(`learner.local_train`), in groups of at most _STACK_FLOATS parameters, on
row ranges of the shards' one client-major train set. A share phase sends
each message kind as one sender x receiver message (`netsim`).

The voting protocol runs `SVoteConfig.phases()` and the baselines an
all-FEDERATED table; with all-permissive settings (tau -> -inf, fixed vote
floor 0, suppression off, no LOCAL rounds) the voting protocol reproduces
plain federated averaging exactly.
"""

from __future__ import annotations

import hashlib
import math
from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum, IntEnum

import numpy as np

from .datahub import Shards
from .errors import ConfigError, ProtocolError
from .kernels import DTYPE
from .learner import (
    HyperParams,
    ModelSpec,
    init_params,
    local_train,
    predict_batch,
    scaffold_update_cv,
)
from .metrics import RunResult, macro_f1
from .netsim import MessageBus, MessageKind, Topology, broadcast, message_byte_size
from .seeding import derive_rng, derive_seed

SVOTE = "svote"
FEDAVG = "fedavg"
FEDPROX = "fedprox"
SCAFFOLD = "scaffold"

BASELINES = (FEDAVG, FEDPROX, SCAFFOLD)

# slack for the inclusive >= of the selection rule: identical similarities must
# all clear a threshold equal to their own mean despite round-off. The slack is
# far below float32's resolution (about 6e-8 near 1), so it holds only because
# cosine_similarity builds its Gram matrix in float64 from the float32 models.
_SELECT_EPS = 1e-12

# model-matrix columns cast to float64 at a time while the Gram matrix is
# summed: an n x 2048 float64 block in place of a float64 copy of all P columns
_GRAM_COLUMNS = 2048

# parameters of the models that train in one lockstep group: each model-sized
# buffer of a training pass holds at most this many floats, or one model
_STACK_FLOATS = 1 << 14


class Action(IntEnum):
    """A client's choice in a round, held as an int8 code; ACTION_NAMES[code] is its name in the artifacts."""

    TRAIN_LOCAL = 0
    TRAIN_RANDOM = 1
    SKIP = 2


ACTION_NAMES = tuple(action.name.lower() for action in Action)  # "train_local", "train_random", "skip"


class Phase(Enum):
    """What one round of a schedule runs."""

    FEDERATED = "federated"  # train, share, aggregate every arrival and the own model
    LOCAL = "local"  # train only: zero traffic, nothing aggregated
    SELECT = "select"  # train, share, select peers by similarity and vote, aggregate the selected arrivals and own
    GATED = "gated"  # vote gate -> train per action, then as SELECT, re-selecting only with refresh_selection on


@dataclass(frozen=True)
class SVoteConfig:
    total_rounds: int = 30
    t_init: int = 5
    n_diverge: int = 2
    tau: float = 0.0
    v_min: int | str = "half"  # the vote floor: "half" is ceil(degree / 2) per client, an int holds for every client
    refresh_selection: bool = True
    suppress_nontrainer_updates: bool = True

    def __post_init__(self):
        if self.t_init < 1 or self.n_diverge < 0:
            raise ConfigError("need t_init >= 1 and n_diverge >= 0")
        if self.t_init + self.n_diverge >= self.total_rounds:
            raise ConfigError("need t_init + n_diverge < total_rounds")
        if not math.isfinite(self.tau):
            raise ConfigError("tau must be finite")
        count = isinstance(self.v_min, (int, np.integer)) and not isinstance(self.v_min, bool) and self.v_min >= 0
        if not (count or self.v_min == "half"):
            raise ConfigError(f"v_min must be 'half' or a non-negative integer, got {self.v_min!r}")

    @property
    def selection_round(self) -> int:
        return self.t_init + self.n_diverge + 1

    def phases(self) -> tuple[Phase, ...]:
        """The phase of every round, round 1 first."""
        head = (Phase.FEDERATED,) * self.t_init + (Phase.LOCAL,) * self.n_diverge + (Phase.SELECT,)
        return head + (Phase.GATED,) * (self.total_rounds - self.selection_round)

    def votes_in(self, phase: Phase) -> bool:
        """Whether a round of this phase selects peers and casts votes."""
        return phase is Phase.SELECT or (phase is Phase.GATED and self.refresh_selection)

    def v_min_for(self, degree):
        """The vote floor of a client of this degree, or of each client of an array of degrees."""
        return (degree + 1) // 2 if self.v_min == "half" else self.v_min


# --------------------------------------------------------------- operations


def aggregate(models: Sequence[np.ndarray] | np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Elementwise arithmetic mean, written into `out` when given, else into a new array of the models' dtype.

    models is a sequence of equal-length vectors or a k x P stack of them.
    The models are summed in order into one output, which is then divided
    once: the same float operations as a loop that adds one model at a time.
    A C-contiguous stack of at least two columns, of the output's dtype, is
    summed in one axis-0 reduction, which adds its rows in order; its start
    value is -0.0, the additive identity that keeps a sum of negative zeros
    negative, as the loop does. Any other input goes through that loop over
    its rows: a one-column stack included, because a reduction down a single
    column is summed pairwise. out must not overlap any of the models.
    """
    if not len(models):
        raise ProtocolError("cannot aggregate an empty model list")
    length = models[0].shape[0]
    if out is None:
        out = np.empty(length, dtype=models[0].dtype)
    stacked = isinstance(models, np.ndarray) and models.ndim == 2 and models.flags.c_contiguous
    if stacked and length > 1 and models.dtype == out.dtype:
        np.add.reduce(models, axis=0, out=out, initial=-0.0)
    else:
        for m in models[1:]:
            if m.shape[0] != length:
                raise ProtocolError("model length mismatch in aggregation")
        out[...] = models[0]
        for m in models[1:]:
            out += m
    out /= len(models)
    return out


def cosine_similarity(models: np.ndarray) -> np.ndarray:
    """Cosine of every pair of rows of one n x P matrix, from one float64 Gram matrix.

    The Gram matrix is summed over blocks of at most _GRAM_COLUMNS columns,
    each cast to float64 into one reused n x _GRAM_COLUMNS buffer, so the
    similarities resolve far below the selection rule's slack without a
    float64 copy of the whole matrix. A matrix no wider than one block is
    cast whole and multiplied once. The Gram matrix is divided and clipped
    in place, so no other n x n float64 matrix outlives the norms' outer
    product. A zero-norm row ranks at -1 against every row: the engine
    floors models whose similarity is undefined below everything.
    """
    if models.ndim != 2:
        raise ProtocolError("pairwise cosine similarity needs an n x P matrix")
    p = models.shape[1]
    block = models[:, :_GRAM_COLUMNS].astype(np.float64)  # reused for every later block
    gram = block @ block.T
    for start in range(_GRAM_COLUMNS, p, _GRAM_COLUMNS):
        part = block[:, : p - start]  # the last block may be narrower
        part[...] = models[:, start : start + _GRAM_COLUMNS]
        gram += part @ part.T
    norms = np.sqrt(np.diag(gram))
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(gram, np.outer(norms, norms), out=gram)
    np.clip(gram, -1.0, 1.0, out=gram)
    zero = norms == 0.0
    gram[zero, :] = -1.0
    gram[:, zero] = -1.0
    return gram


def select_peers(sims: np.ndarray, candidates: np.ndarray, tau: float) -> np.ndarray:
    """Every client's selection as an n x n mask: its candidates at or above mean + tau * population std.

    Row c of candidates marks client c's candidates and row c of sims their
    similarities. Clients with equal candidate counts are reduced as one
    matrix along its rows, which sums each row as a reduction of that row
    alone does, so every threshold has a per-client rule's bits. An empty selection
    (possible when tau > 0) falls back to the most similar candidate, ties
    broken toward the lowest id; a client without candidates selects nothing.
    """
    selection = np.zeros(candidates.shape, dtype=bool)
    counts = np.count_nonzero(candidates, axis=1)
    for count in set(counts.tolist()) - {0}:  # np.unique would import numpy.ma, a megabyte of peak RSS
        clients = np.flatnonzero(counts == count)
        among = candidates[clients]
        values = sims[clients][among].reshape(len(clients), count)  # each row's candidates, ascending by id
        threshold = values.mean(axis=1) + tau * values.std(axis=1)
        kept = values >= (threshold - _SELECT_EPS)[:, None]
        empty = ~kept.any(axis=1)
        kept[empty, values[empty].argmax(axis=1)] = True  # argmax: the first, so the lowest id, of tied maxima
        among[among] = kept.ravel()  # each candidate's entry now says whether it was kept
        selection[clients] = among
    return selection


def cast_votes(bus: MessageBus, selection: np.ndarray):
    """Every client's vote for each peer in its row of selection, as one message delivered at the next flush."""
    bus.send(selection, MessageKind.VOTE, message_byte_size(0))


def vote_gate(votes, floors, degrees, levels: np.ndarray, rngs: Sequence[np.random.Generator]) -> np.ndarray:
    """Every client's conditional-training action, as int8 Action codes; updates the int8 levels in place.

    Client c trains unconditionally (TRAIN_LOCAL) with votes[c] >= floors[c]
    or degrees[c] <= 2. Every other client, in id order, draws
    rngs[c].random(): below its escalation p = levels[c] / 10 it trains
    spontaneously (TRAIN_RANDOM), else it skips the round and its level rises
    by one, up to 10 (p = 1.0). Any training resets the level to 1.
    """
    codes = np.where((votes >= floors) | (degrees <= 2), Action.TRAIN_LOCAL, Action.SKIP).astype(np.int8)
    for cid in np.flatnonzero(codes == Action.SKIP).tolist():
        if rngs[cid].random() < levels[cid] / 10:
            codes[cid] = Action.TRAIN_RANDOM
    levels[...] = np.where(codes == Action.SKIP, np.minimum(levels + 1, 10), 1)
    return codes


# ------------------------------------------------------------ engine plumbing


def _train(
    trainers: list[int], models: np.ndarray, variates, train, bounds, rngs, spec: ModelSpec, hp: HyperParams,
    method: str,
) -> list[int]:
    """One local-training pass of every trainer, in lockstep groups; returns each trainer's step count.

    Client cid trains row cid of models on rows bounds[cid]:bounds[cid + 1]
    of the client-major train set with rngs[cid]. Groups of consecutive
    trainers hold at most _STACK_FLOATS floats of parameters (or one model);
    each trains in one `local_train` call, and its trained rows are copied
    in once the group is done, so each starting row serves as FedProx's
    anchor and as SCAFFOLD's w_before until then. SCAFFOLD's variates[0] and
    variates[1] are the local and global control-variate matrices.
    """
    per_group = max(1, _STACK_FLOATS // models.shape[1])
    steps = []
    for at in range(0, len(trainers), per_group):
        group = trainers[at : at + per_group]
        # consecutive clients are a view of the model matrix, others a gather
        rows = slice(group[0], group[-1] + 1) if group[-1] - group[0] == len(group) - 1 else group
        trained, group_steps = local_train(
            models[rows],
            train.features,
            train.labels,
            spec,
            hp,
            [rngs[cid] for cid in group],
            [(bounds[cid], bounds[cid + 1]) for cid in group],
            prox=method == FEDPROX,
            variates=(variates[0, rows], variates[1, rows]) if method == SCAFFOLD else None,
        )
        if method == SCAFFOLD:
            for i, cid in enumerate(group):
                scaffold_update_cv(variates[0, cid], variates[1, cid], models[cid], trained[i], hp.lr, group_steps[i])
        models[rows] = trained
        del trained  # freed before the next group's buffers are made
        steps += group_steps
    return steps


# -------------------------------------------------------------------- engine


def _aggregate_rows(matrix: np.ndarray, rows: list[int], stack: np.ndarray, out: np.ndarray) -> None:
    """The mean of matrix[rows] into out: one `aggregate` of the rows gathered into stack, if they fit, else of row views."""
    if len(rows) <= len(stack):
        aggregate(np.take(matrix, rows, axis=0, out=stack[: len(rows)], mode="clip"), out=out)
    else:
        aggregate([matrix[r] for r in rows], out=out)


def _share_and_aggregate(
    bus: MessageBus, models, mixed, variates, selected, cfg: SVoteConfig, phase: Phase, actions: np.ndarray
) -> np.ndarray:
    """Share phase and aggregation of one round of the given phase; returns each client's aggregated-model count.

    Clients broadcast MODEL_UPDATE, or with suppress_nontrainer_updates on a
    header-only NO_UPDATE when their entry of the round's Action codes is
    SKIP; client c's arrivals are column c of the delivered MODEL_UPDATE
    routes, and the update from p is row p of models (SCAFFOLD's also row p
    of the local variates). A
    FEDERATED round averages every arrival. A SELECT round, and a GATED round
    when refresh_selection is on, selects peers from one cosine matrix of
    models and votes for them; other GATED rounds keep the n x n mask
    selected. Client cid's mean goes into row cid of mixed, which the
    caller swaps in as the next round's models, and SCAFFOLD's mean of
    variates into row cid of the global variates. A group that fits in
    _STACK_FLOATS floats is averaged in one reduction of a reused stack, a
    larger one row by row; both add the rows in the same order.
    """
    n, p = models.shape
    updating = (actions != Action.SKIP) | (not cfg.suppress_nontrainer_updates)
    broadcast(bus, updating, MessageKind.MODEL_UPDATE, p if variates is None else 2 * p)
    if not updating.all():
        broadcast(bus, ~updating, MessageKind.NO_UPDATE, 0)
    bus.flush()
    arrivals = bus.take_inbox()[MessageKind.MODEL_UPDATE].T > 0  # row c: the senders whose update reached c
    if cfg.votes_in(phase):
        selected[...] = selection = select_peers(cosine_similarity(models), arrivals, cfg.tau)
        cast_votes(bus, selection)
    if phase is not Phase.FEDERATED:
        arrivals &= selected
    counts = 1 + np.count_nonzero(arrivals, axis=1)
    senders = np.nonzero(arrivals)[1].tolist()  # client after client, each one's senders ascending
    stack = np.empty((min(n, _STACK_FLOATS // p), p), dtype=models.dtype)
    end = 0
    for cid, count in enumerate(counts.tolist()):
        start, end = end, end + count - 1
        group = [cid, *senders[start:end]]
        _aggregate_rows(models, group, stack, mixed[cid])
        if variates is not None:
            _aggregate_rows(variates[0], group, stack, variates[1, cid])
    bus.flush()  # votes become visible to the next round's gate
    return counts


def _run(
    method: str,
    cfg: SVoteConfig,
    phases: Sequence[Phase],
    model_spec: ModelSpec,
    hp: HyperParams,
    topo: Topology,
    shards: Shards,
    seed: int,
) -> RunResult:
    """One round per entry of phases, training and sharing as method does; cfg holds the vote settings.

    Client cid trains on its row range of shards.train and is scored on its
    row range of shards.test; all clients' predictions fill one client-major
    array, scored against shards.test's labels in one macro_f1 call a round.
    """
    rounds = len(phases)
    n = topo.num_clients
    if len(shards) != n:
        raise ProtocolError(f"got {len(shards)} shards for {n} clients")
    samples_per_pass = np.diff(shards.train_bounds) * hp.local_epochs
    bounds, test_bounds = shards.train_bounds.tolist(), shards.test_bounds.tolist()
    preds = np.empty(test_bounds[-1], dtype=np.intp)
    shape = (2, n, model_spec.param_count)
    variates = np.zeros(shape, dtype=DTYPE) if method == SCAFFOLD else None  # local, global
    # this round's models and the next round's, which the share phase fills
    models, mixed = np.empty(shape, dtype=DTYPE)
    for cid in range(n):
        models[cid] = init_params(model_spec, derive_seed(seed, "init", cid))
    selected = np.zeros((n, n), dtype=bool)  # row c: the peers client c selected
    votes = np.zeros(n, dtype=np.int64)  # the votes each client received in the latest voting round
    floors = np.broadcast_to(cfg.v_min_for(topo.degrees), n)
    levels = np.ones(n, dtype=np.int8)  # each client's escalation p, times 10
    train_rngs = [derive_rng(seed, "train", cid) for cid in range(n)]
    gate_rngs = [derive_rng(seed, "gate", cid) for cid in range(n)]
    bus = MessageBus(topo)
    # the result's rounds x n columns; each round writes its row
    f1 = np.empty((rounds, n))
    sent, received, samples, aggregated = np.zeros((4, rounds, n), dtype=np.int64)
    actions = np.full((rounds, n), Action.TRAIN_LOCAL, dtype=np.int8)

    voted = False  # whether the previous round cast votes
    for row, phase in enumerate(phases):
        if phase is Phase.GATED:
            # the latest votes decide who trains: the previous round's, else the tally read before them
            if voted:
                votes = bus.take_inbox()[MessageKind.VOTE].sum(axis=0)
            actions[row] = vote_gate(votes, floors, topo.degrees, levels, gate_rngs)

        # every client has its own train and gate streams, so gating all first changes nothing
        trainers = np.flatnonzero(actions[row] != Action.SKIP).tolist()
        _train(trainers, models, variates, shards.train, bounds, train_rngs, model_spec, hp, method)
        samples[row, trainers] = samples_per_pass[trainers]

        if phase is not Phase.LOCAL:
            aggregated[row] = _share_and_aggregate(bus, models, mixed, variates, selected, cfg, phase, actions[row])
            models, mixed = mixed, models
        voted = cfg.votes_in(phase)

        sent[row], received[row] = bus.ledger.take_round()
        for cid, (start, end) in enumerate(zip(test_bounds, test_bounds[1:])):
            preds[start:end] = predict_batch(models[cid], shards.test.features[start:end], model_spec)
        f1[row] = macro_f1(preds, shards.test.labels, model_spec.num_classes, test_bounds)

    digest = hashlib.sha256(f"{models.dtype.str}{models.shape}".encode())
    digest.update(models)  # the matrix's own buffer, not a bytes copy
    return RunResult(
        method=method,
        rounds=rounds,
        param_count=model_spec.param_count,
        f1=f1,
        bytes_sent=sent,
        bytes_received=received,
        actions=actions,
        samples_trained=samples,
        models_aggregated=aggregated,
        bytes_by_kind={k: bus.ledger.kind_bytes.get(k, 0) for k in MessageKind},
        message_counts={k: bus.ledger.kind_count.get(k, 0) for k in MessageKind},
        topology=topo,
        final_models_sha256=digest.hexdigest(),
    )


def run_svote(
    cfg: SVoteConfig,
    model_spec: ModelSpec,
    hp: HyperParams,
    topo: Topology,
    shards: Shards,
    seed: int,
) -> RunResult:
    """The voting protocol over the cfg.total_rounds synchronous rounds of cfg.phases()."""
    return _run(SVOTE, cfg, cfg.phases(), model_spec, hp, topo, shards, seed)


def run_baseline(
    kind: str,
    model_spec: ModelSpec,
    hp: HyperParams,
    topo: Topology,
    shards: Shards,
    seed: int,
    rounds: int = SVoteConfig.total_rounds,
) -> RunResult:
    """FedAvg / FedProx / SCAFFOLD: the engine with every round FEDERATED, which reads no vote setting."""
    if kind not in BASELINES:
        raise ConfigError(f"unknown baseline {kind!r}")
    if rounds < 1:
        raise ConfigError("rounds must be >= 1")
    return _run(kind, SVoteConfig(), (Phase.FEDERATED,) * rounds, model_spec, hp, topo, shards, seed)
