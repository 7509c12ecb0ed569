"""Round engines: the six-phase voting protocol and the three baselines.

All engines run synchronous rounds over the same skeleton (train, share,
aggregate) with canonical client-id ordering everywhere, so two runs with
one seed are bit-identical, and the voting engine with all-permissive
settings (tau -> -inf, fixed vote floor 0, suppression off, no divergence
rounds) reproduces plain federated averaging exactly.

Round layout for the voting protocol, with r total rounds:
  1..t_init                     train + share + aggregate all received + own
  ..+n_diverge                  train only, zero traffic
  t_init+n_diverge+1            train + share + similarity/select/vote +
                                aggregate selected received + own
  remaining rounds until r      vote gate -> train per action, share per
                                suppression rule, re-select/re-vote when
                                refresh_selection, aggregate selected + own
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import ConfigError, ProtocolError, SimilarityError
from .learner import (
    ControlVariate,
    HyperParams,
    ModelSpec,
    init_params,
    local_train,
    predict_batch,
    prox_grad,
    scaffold_grad,
    scaffold_update_cv,
)
from .metrics import MetricsRecord, RunResult, macro_f1
from .netsim import MessageBus, MessageKind, RoundMessage, Topology, TrafficLedger, broadcast, message_byte_size
from .seeding import derive_rng, derive_seed

SVOTE = "svote"
FEDAVG = "fedavg"
FEDPROX = "fedprox"
SCAFFOLD = "scaffold"

BASELINES = (FEDAVG, FEDPROX, SCAFFOLD)

P_ESCALATION_START = 0.1
P_ESCALATION_STEP = 0.1

# slack for the inclusive >= of the selection rule: identical similarities must
# all clear a threshold equal to their own mean despite round-off
_SELECT_EPS = 1e-12


class Action(Enum):
    TRAIN_LOCAL = "train_local"
    TRAIN_RANDOM = "train_random"
    SKIP = "skip"


@dataclass(frozen=True)
class SVoteConfig:
    total_rounds: int = 30
    t_init: int = 5
    n_diverge: int = 2
    tau: float = 0.0
    v_min_fixed: int | None = None  # None -> ceil(degree/2) per client
    refresh_selection: bool = True
    suppress_nontrainer_updates: bool = True

    def __post_init__(self):
        if self.t_init < 1 or self.n_diverge < 0:
            raise ConfigError("need t_init >= 1 and n_diverge >= 0")
        if self.t_init + self.n_diverge >= self.total_rounds:
            raise ConfigError("need t_init + n_diverge < total_rounds")
        if not math.isfinite(self.tau):
            raise ConfigError("tau must be finite")
        if self.v_min_fixed is not None and self.v_min_fixed < 0:
            raise ConfigError("fixed v_min must be >= 0")

    @property
    def selection_round(self) -> int:
        return self.t_init + self.n_diverge + 1

    def v_min_for(self, degree: int) -> int:
        return self.v_min_fixed if self.v_min_fixed is not None else (degree + 1) // 2


@dataclass
class ClientState:
    id: int
    w: np.ndarray
    selected_peers: set[int] = field(default_factory=set)
    votes_received: int = 0
    p_escalation: float = P_ESCALATION_START
    cv: ControlVariate | None = None
    w_anchor: np.ndarray | None = None
    trained_this_round: bool = False


# --------------------------------------------------------------- operations


def aggregate(models: Sequence[np.ndarray]) -> np.ndarray:
    """Elementwise arithmetic mean, as a new array.

    The models are summed in sequence order into one output, which is then
    divided once: the same float operations as a mean over a stacked k x P
    matrix, without the matrix.
    """
    if not len(models):
        raise ProtocolError("cannot aggregate an empty model list")
    length = models[0].shape[0]
    for m in models[1:]:
        if m.shape[0] != length:
            raise ProtocolError("model length mismatch in aggregation")
    out = np.array(models[0], dtype=np.float64)
    for m in models[1:]:
        out += m
    out /= len(models)
    return out


def cosine_similarity(a: np.ndarray, b: np.ndarray | None = None) -> float | np.ndarray:
    """Cosine of two vectors, or of every pair of rows of one n x P matrix.

    The vector form raises SimilarityError for a zero-norm vector. The matrix
    form (b omitted) returns the n x n cosines of one Gram matrix, and ranks a
    zero-norm row at -1 against every row: the engine floors models whose
    similarity is undefined below everything.
    """
    if b is None:
        if a.ndim != 2:
            raise ProtocolError("pairwise cosine similarity needs an n x P matrix")
        gram = a @ a.T
        norms = np.sqrt(np.diag(gram))
        with np.errstate(divide="ignore", invalid="ignore"):
            sims = np.clip(gram / np.outer(norms, norms), -1.0, 1.0)
        zero = norms == 0.0
        sims[zero, :] = -1.0
        sims[:, zero] = -1.0
        return sims
    if a.shape != b.shape:
        raise ProtocolError("cosine similarity needs equal-length vectors")
    na = np.linalg.norm(a)
    nb = np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        raise SimilarityError("cosine similarity undefined for zero-norm vector")
    return float(np.clip(np.dot(a, b) / (na * nb), -1.0, 1.0))


def select_peers(local: int, sims: dict[int, float], tau: float) -> set[int]:
    """Peers whose similarity reaches mean + tau * population std (inclusive).

    Empty results (possible when tau > 0) fall back to the single most
    similar peer, ties broken toward the lowest id.
    """
    if not sims:
        raise ProtocolError(f"client {local}: no similarities to select from")
    values = np.fromiter(sims.values(), dtype=np.float64)
    threshold = values.mean() + tau * values.std()
    selected = {peer for peer, s in sims.items() if s >= threshold - _SELECT_EPS}
    if not selected:
        selected = {min(sims, key=lambda peer: (-sims[peer], peer))}
    return selected


def cast_votes(bus: MessageBus, local: int, selected: set[int], rnd: int) -> int:
    """One vote to every selected peer, as one message; delivered at the next phase boundary."""
    if selected:
        bus.send(RoundMessage(local, tuple(sorted(selected)), MessageKind.VOTE, rnd, message_byte_size(None)))
    return len(selected)


def vote_gate(state: ClientState, v_min: int, neighbor_count: int, rng: np.random.Generator) -> Action:
    """Conditional-training decision; mutates the escalation probability.

    Enough votes (or a <= 2-neighbor position) trains unconditionally;
    otherwise a Bernoulli(p) draw triggers spontaneous training, and failure
    skips the round and escalates p by 0.1 up to 1.0. Any training resets p.
    """
    if state.votes_received >= v_min or neighbor_count <= 2:
        state.p_escalation = P_ESCALATION_START
        return Action.TRAIN_LOCAL
    if rng.random() < state.p_escalation:
        state.p_escalation = P_ESCALATION_START
        return Action.TRAIN_RANDOM
    state.p_escalation = min(round(state.p_escalation + P_ESCALATION_STEP, 10), 1.0)
    return Action.SKIP


# ------------------------------------------------------------ engine plumbing


@dataclass
class _Client:
    state: ClientState
    train_X: np.ndarray
    train_y: np.ndarray
    test_X: np.ndarray
    test_y: np.ndarray
    train_rng: np.random.Generator
    gate_rng: np.random.Generator


def _setup_clients(
    model_spec: ModelSpec,
    topo: Topology,
    shards,
    seed: int,
    method: str,
) -> list[_Client]:
    if len(shards) != topo.num_clients:
        raise ProtocolError(f"got {len(shards)} shards for {topo.num_clients} clients")
    clients = []
    for cid in range(topo.num_clients):
        train, test = shards[cid]
        state = ClientState(id=cid, w=init_params(model_spec, derive_seed(seed, "init", cid)))
        if method == SCAFFOLD:
            state.cv = ControlVariate.zeros(model_spec.param_count)
        if method == FEDPROX:
            state.w_anchor = state.w.copy()
        clients.append(
            _Client(
                state=state,
                train_X=train.features,
                train_y=train.labels,
                test_X=test.features,
                test_y=test.labels,
                train_rng=derive_rng(seed, "train", cid),
                gate_rng=derive_rng(seed, "gate", cid),
            )
        )
    return clients


def _train_client(c: _Client, model_spec: ModelSpec, hp: HyperParams, method: str) -> int:
    """One local-training pass; returns samples x epochs trained."""
    state = c.state
    if method == FEDPROX:
        anchor = state.w_anchor
        direction = np.empty_like(anchor)  # reused by every step of the pass
        transform = lambda g, w: prox_grad(g, w, anchor, hp.prox_mu, out=direction)
    elif method == SCAFFOLD:
        cv = state.cv
        transform = lambda g, w: scaffold_grad(g, cv, out=g)
    else:
        transform = None
    w_before = state.w  # local_train leaves it untouched
    state.w, steps = local_train(
        state.w, c.train_X, c.train_y, model_spec, hp, c.train_rng, transform
    )
    if method == SCAFFOLD:
        state.cv = scaffold_update_cv(state.cv, w_before, state.w, hp.lr, steps)
    state.trained_this_round = True
    return c.train_y.shape[0] * hp.local_epochs


def _evaluate(c: _Client, model_spec: ModelSpec) -> float:
    preds = predict_batch(c.state.w, c.test_X, model_spec)
    return macro_f1(preds, c.test_y, model_spec.num_classes)


def _record_round(
    records: list[MetricsRecord],
    clients: list[_Client],
    ledger: TrafficLedger,
    model_spec: ModelSpec,
    rnd: int,
    actions: dict[int, Action],
    samples: dict[int, int],
    models_agg: dict[int, int],
):
    for c in clients:
        cid = c.state.id
        sent, received = ledger.round_bytes(rnd, cid)
        records.append(
            MetricsRecord(
                round=rnd,
                client=cid,
                f1=_evaluate(c, model_spec),
                bytes_sent=sent,
                bytes_received=received,
                action=actions[cid].value,
                samples_trained=samples[cid],
                models_aggregated=models_agg[cid],
            )
        )


def _finalize(
    method: str,
    clients: list[_Client],
    topo: Topology,
    rounds: int,
    model_spec: ModelSpec,
    records: list[MetricsRecord],
    ledger: TrafficLedger,
    trace: list[list[np.ndarray]] | None,
) -> RunResult:
    return RunResult(
        method=method,
        num_clients=topo.num_clients,
        rounds=rounds,
        param_count=model_spec.param_count,
        records=records,
        ledger=ledger,
        final_models=[c.state.w.copy() for c in clients],
        model_trace=trace,
    )


# ------------------------------------------------------------------- engines


def _baseline_share_and_aggregate(
    bus: MessageBus, clients: list[_Client], kind: str, rnd: int
) -> dict[int, int]:
    """Share phase and aggregation of one baseline round; returns models averaged per client.

    Every client sends its model (and, under SCAFFOLD, its control variate) to
    every neighbour and averages all arrivals with its own. The payloads are
    rows of one n x P matrix per vector kind, which die when this returns.
    """
    payloads = [np.stack([c.state.w for c in clients])]
    if kind == SCAFFOLD:
        payloads.append(np.stack([c.state.cv.local_c for c in clients]))
    for c, payload in zip(clients, zip(*payloads)):
        broadcast(bus, c.state.id, MessageKind.MODEL_UPDATE, payload, rnd)
    bus.flush()
    models_agg: dict[int, int] = {}
    for c in clients:
        updates = [m for m in bus.take_inbox(c.state.id) if m.kind is MessageKind.MODEL_UPDATE]
        stack = [c.state.w] + [m.payload[0] for m in updates]
        c.state.w = aggregate(stack)
        models_agg[c.state.id] = len(stack)
        if kind == SCAFFOLD:
            c.state.cv.global_c = aggregate([c.state.cv.local_c] + [m.payload[1] for m in updates])
        if kind == FEDPROX:
            # aggregate and local_train return new arrays and mutate no model,
            # so the anchor can share the aggregated array
            c.state.w_anchor = c.state.w
    bus.flush()
    return models_agg


def run_baseline(
    kind: str,
    model_spec: ModelSpec,
    hp: HyperParams,
    topo: Topology,
    shards,
    seed: int,
    rounds: int = 30,
    trace_models: bool = False,
) -> RunResult:
    """FedAvg / FedProx / SCAFFOLD: every round trains, shares, aggregates."""
    if kind not in BASELINES:
        raise ConfigError(f"unknown baseline {kind!r}")
    if rounds < 1:
        raise ConfigError("rounds must be >= 1")
    clients = _setup_clients(model_spec, topo, shards, seed, kind)
    ledger = TrafficLedger()
    bus = MessageBus(topo, ledger)
    records: list[MetricsRecord] = []
    trace: list[list[np.ndarray]] | None = [] if trace_models else None

    for rnd in range(1, rounds + 1):
        samples = {c.state.id: _train_client(c, model_spec, hp, kind) for c in clients}
        models_agg = _baseline_share_and_aggregate(bus, clients, kind, rnd)
        actions = {c.state.id: Action.TRAIN_LOCAL for c in clients}
        _record_round(records, clients, ledger, model_spec, rnd, actions, samples, models_agg)
        if trace is not None:
            trace.append([c.state.w.copy() for c in clients])

    return _finalize(kind, clients, topo, rounds, model_spec, records, ledger, trace)


def _share_and_aggregate(
    bus: MessageBus,
    clients: list[_Client],
    cfg: SVoteConfig,
    rnd: int,
    models_agg: dict[int, int],
):
    """Share phase and aggregation of one vote-protocol round.

    Initial federated rounds average every arrival. The selection round, and
    each gated round when refresh_selection is on, select peers from the
    round's arrivals and vote for them; other gated rounds keep the last
    selection. Models are stacked once into an n x P matrix whose rows are
    the MODEL_UPDATE payloads, and one cosine matrix of it holds every
    similarity of the round. Both die when this returns, before the next
    round stacks its models.
    """
    models = np.stack([c.state.w for c in clients])
    for c, row in zip(clients, models):
        if c.state.trained_this_round or not cfg.suppress_nontrainer_updates:
            broadcast(bus, c.state.id, MessageKind.MODEL_UPDATE, (row,), rnd)
        else:
            broadcast(bus, c.state.id, MessageKind.NO_UPDATE, None, rnd)
    bus.flush()
    average_all = rnd <= cfg.t_init
    reselect = not average_all and (cfg.refresh_selection or rnd == cfg.selection_round)
    sims = cosine_similarity(models) if reselect else None
    for c in clients:
        updates = [m for m in bus.take_inbox(c.state.id) if m.kind is MessageKind.MODEL_UPDATE]
        if not average_all:
            if reselect:
                row = sims[c.state.id].tolist()
                scores = {m.sender: row[m.sender] for m in updates}
                c.state.selected_peers = select_peers(c.state.id, scores, cfg.tau) if scores else set()
                cast_votes(bus, c.state.id, c.state.selected_peers, rnd)
            updates = [m for m in updates if m.sender in c.state.selected_peers]
        stack = [c.state.w] + [m.payload[0] for m in updates]
        c.state.w = aggregate(stack)
        models_agg[c.state.id] = len(stack)
    bus.flush()  # votes become visible to the next round's gate


def run_svote(
    cfg: SVoteConfig,
    model_spec: ModelSpec,
    hp: HyperParams,
    topo: Topology,
    shards,
    seed: int,
    trace_models: bool = False,
) -> RunResult:
    """The voting protocol over cfg.total_rounds synchronous rounds."""
    clients = _setup_clients(model_spec, topo, shards, seed, SVOTE)
    ledger = TrafficLedger()
    bus = MessageBus(topo, ledger)
    records: list[MetricsRecord] = []
    trace: list[list[np.ndarray]] | None = [] if trace_models else None

    for rnd in range(1, cfg.total_rounds + 1):
        actions: dict[int, Action] = {}
        samples: dict[int, int] = {c.state.id: 0 for c in clients}
        models_agg: dict[int, int] = {c.state.id: 0 for c in clients}

        if rnd <= cfg.selection_round:
            # initial federated rounds, divergence rounds and the selection round
            # all train unconditionally
            for c in clients:
                actions[c.state.id] = Action.TRAIN_LOCAL
                samples[c.state.id] = _train_client(c, model_spec, hp, SVOTE)
        else:
            # gated rounds: votes from the previous round decide who trains
            for c in clients:
                inbox = bus.take_inbox(c.state.id)
                vote_count = sum(1 for m in inbox if m.kind is MessageKind.VOTE)
                if cfg.refresh_selection or rnd == cfg.selection_round + 1:
                    c.state.votes_received = vote_count
                degree = topo.degree(c.state.id)
                action = vote_gate(c.state, cfg.v_min_for(degree), degree, c.gate_rng)
                actions[c.state.id] = action
                if action is Action.SKIP:
                    c.state.trained_this_round = False
                else:
                    samples[c.state.id] = _train_client(c, model_spec, hp, SVOTE)

        # divergence rounds are local-only, with zero traffic
        if rnd <= cfg.t_init or rnd >= cfg.selection_round:
            _share_and_aggregate(bus, clients, cfg, rnd, models_agg)

        _record_round(records, clients, ledger, model_spec, rnd, actions, samples, models_agg)
        if trace is not None:
            trace.append([c.state.w.copy() for c in clients])

    return _finalize(SVOTE, clients, topo, cfg.total_rounds, model_spec, records, ledger, trace)
