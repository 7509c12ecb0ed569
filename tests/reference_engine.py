"""The per-message round engine that the phase-matrix share phase replaces, kept as the oracle it must match.

A message names one sender and a tuple of receivers; the ledger books it
once per receiver into plain-int lists, the bus delivers it into per-client
inboxes in sender order, and every client of a share phase reads its
arrivals, selects peers from a dict of similarities and casts its own vote
message. `_run` is the round engine built on them. Similarity is a frozen
copy of the package's blocked float64 Gram form, so a change to
`svote.protocol.cosine_similarity` shows up as a mismatch. The vote gate is
a frozen copy of the package's per-client gate: it returns a string-valued
`Action` and climbs p up a float ladder in a list of per-client entries.
Training, aggregation, prediction and scoring are the package's own
(`svote.protocol`), and prediction is looked up on that module on every
call, so `conftest.evaluated_models` records the models this engine
evaluates too.
"""

from __future__ import annotations

import hashlib
from collections import defaultdict
from collections.abc import Sequence
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from svote import protocol
from svote.errors import ProtocolError
from svote.kernels import DTYPE
from svote.learner import init_params
from svote.metrics import RunResult, macro_f1
from svote.netsim import MessageKind, Topology, message_byte_size
from svote.protocol import (
    _STACK_FLOATS,
    SCAFFOLD,
    SVoteConfig,
    _aggregate_rows,
    _train,
)
from svote.seeding import derive_rng, derive_seed

_SELECT_EPS = 1e-12

# model-matrix columns cast to float64 at a time while the Gram matrix is summed
_GRAM_COLUMNS = 2048

P_ESCALATION_START = 0.1
P_ESCALATION_STEP = 0.1


class Action(Enum):
    TRAIN_LOCAL = "train_local"
    TRAIN_RANDOM = "train_random"
    SKIP = "skip"


@dataclass(frozen=True)
class RoundMessage:
    """One message from `sender` to each of `receivers`; `byte_size` is per copy."""

    sender: int
    receivers: tuple[int, ...]
    kind: MessageKind
    byte_size: int


class TrafficLedger:
    """Bytes each client sent and received in the round being booked, and run totals per message kind."""

    def __init__(self, num_clients: int):
        self.sent = [0] * num_clients
        self.received = [0] * num_clients
        self.kind_bytes: dict[MessageKind, int] = defaultdict(int)
        self.kind_count: dict[MessageKind, int] = defaultdict(int)

    def record(self, msg: RoundMessage):
        """Book one copy of the message per receiver."""
        size = msg.byte_size
        fanout = len(msg.receivers)
        self.sent[msg.sender] += size * fanout
        self.kind_bytes[msg.kind] += size * fanout
        self.kind_count[msg.kind] += fanout
        received = self.received
        for receiver in msg.receivers:
            received[receiver] += size

    def take_round(self) -> tuple[list[int], list[int]]:
        """The booked round's bytes sent and received per client; the next round starts at zero."""
        taken = self.sent, self.received
        self.sent, self.received = [0] * len(self.sent), [0] * len(self.received)
        return taken


@dataclass
class MessageBus:
    """Phase-synchronous delivery owned by the round engine."""

    topo: Topology
    ledger: TrafficLedger
    _pending: list[RoundMessage] = field(default_factory=list)
    _inboxes: dict[int, list[RoundMessage]] = field(default_factory=lambda: defaultdict(list))

    def send(self, msg: RoundMessage):
        """Queue one message; nothing is recorded unless every receiver is a neighbor."""
        strays = set(msg.receivers).difference(self.topo.neighbors(msg.sender))
        if strays:
            raise ProtocolError(f"send from {msg.sender} to non-neighbor {min(strays)}")
        self.ledger.record(msg)
        self._pending.append(msg)

    def flush(self):
        """Phase boundary: deliver pending messages in sender order to each receiver."""
        self._pending.sort(key=lambda m: m.sender)
        for msg in self._pending:
            for receiver in msg.receivers:
                self._inboxes[receiver].append(msg)
        self._pending = []

    def take_inbox(self, client: int) -> list[RoundMessage]:
        msgs = self._inboxes[client]
        self._inboxes[client] = []
        return msgs


def broadcast(bus: MessageBus, sender: int, kind: MessageKind, params: int) -> int:
    """One message carrying `params` parameters to every neighbor; returns the neighbor count."""
    neighbors = bus.topo.neighbors(sender)
    bus.send(RoundMessage(sender, neighbors, kind, message_byte_size(params)))
    return len(neighbors)


def cosine_similarity(models: np.ndarray) -> np.ndarray:
    """Cosine of every pair of rows of one n x P matrix, from one float64 Gram matrix summed over column blocks.

    A zero-norm row ranks at -1 against every row.
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
        sims = np.clip(gram / np.outer(norms, norms), -1.0, 1.0)
    zero = norms == 0.0
    sims[zero, :] = -1.0
    sims[:, zero] = -1.0
    return sims


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


def cast_votes(bus: MessageBus, local: int, selected: set[int]) -> int:
    """One vote to every selected peer, as one message; delivered at the next phase boundary."""
    if selected:
        bus.send(RoundMessage(local, tuple(sorted(selected)), MessageKind.VOTE, message_byte_size(0)))
    return len(selected)


def vote_gate(
    cid: int, votes: Sequence[int], p_escalation: list[float], v_min: int, neighbor_count: int, rng: np.random.Generator
) -> Action:
    """Conditional-training decision of client cid; updates p_escalation[cid].

    Enough votes (or a <= 2-neighbor position) trains unconditionally;
    otherwise a Bernoulli(p) draw triggers spontaneous training, and failure
    skips the round and escalates p by 0.1 up to 1.0. Any training resets p.
    """
    if votes[cid] >= v_min or neighbor_count <= 2:
        p_escalation[cid] = P_ESCALATION_START
        return Action.TRAIN_LOCAL
    if rng.random() < p_escalation[cid]:
        p_escalation[cid] = P_ESCALATION_START
        return Action.TRAIN_RANDOM
    p_escalation[cid] = min(round(p_escalation[cid] + P_ESCALATION_STEP, 10), 1.0)
    return Action.SKIP


def _share_and_aggregate(
    bus: MessageBus, models, mixed, variates, selected, cfg: SVoteConfig, rnd: int, actions: list[Action]
) -> list[int]:
    """Share phase and aggregation of one round; returns each client's aggregated-model count."""
    params = models.shape[1] if variates is None else 2 * models.shape[1]
    for cid, action in enumerate(actions):
        if action is not Action.SKIP or not cfg.suppress_nontrainer_updates:
            broadcast(bus, cid, MessageKind.MODEL_UPDATE, params)
        else:
            broadcast(bus, cid, MessageKind.NO_UPDATE, 0)
    bus.flush()
    average_all = rnd <= cfg.t_init
    reselect = not average_all and (cfg.refresh_selection or rnd == cfg.selection_round)
    sims = cosine_similarity(models) if reselect else None
    n = models.shape[0]
    stack = np.empty((min(n, _STACK_FLOATS // models.shape[1]), models.shape[1]), dtype=models.dtype)
    counts = []
    for cid in range(n):
        senders = [m.sender for m in bus.take_inbox(cid) if m.kind is MessageKind.MODEL_UPDATE]
        if not average_all:
            if reselect:
                row = sims[cid].tolist()
                scores = {p: row[p] for p in senders}
                selected[cid] = select_peers(cid, scores, cfg.tau) if scores else set()
                cast_votes(bus, cid, selected[cid])
            senders = [p for p in senders if p in selected[cid]]
        group = [cid] + senders
        _aggregate_rows(models, group, stack, mixed[cid])
        counts.append(len(group))
        if variates is not None:
            _aggregate_rows(variates[0], group, stack, variates[1, cid])
    bus.flush()  # votes become visible to the next round's gate
    return counts


def _run(method, cfg: SVoteConfig, rounds: int, model_spec, hp, topo: Topology, shards, seed: int) -> RunResult:
    """Rounds 1..rounds of the round schedule cfg, training and sharing as method does."""
    n = topo.num_clients
    if len(shards) != n:
        raise ProtocolError(f"got {len(shards)} shards for {n} clients")
    train, bounds = shards.train, shards.train_bounds
    samples_per_pass = np.diff(bounds) * hp.local_epochs
    bounds = bounds.tolist()
    test, test_bounds = shards.test, shards.test_bounds.tolist()
    preds = np.empty(test_bounds[-1], dtype=np.intp)
    shape = (2, n, model_spec.param_count)
    variates = np.zeros(shape, dtype=DTYPE) if method == SCAFFOLD else None  # local, global
    models, mixed = np.empty(shape, dtype=DTYPE)
    for cid in range(n):
        models[cid] = init_params(model_spec, derive_seed(seed, "init", cid))
    selected: list[set[int]] = [set() for _ in range(n)]
    votes = [0] * n
    p_escalation = [P_ESCALATION_START] * n
    train_rngs = [derive_rng(seed, "train", cid) for cid in range(n)]
    gate_rngs = [derive_rng(seed, "gate", cid) for cid in range(n)]
    ledger = TrafficLedger(n)
    bus = MessageBus(topo, ledger)
    f1 = np.empty((rounds, n))
    sent, received, samples, aggregated = np.zeros((4, rounds, n), dtype=np.int64)
    action_values = np.empty((rounds, n), dtype=object)

    for rnd in range(1, rounds + 1):
        actions = [Action.TRAIN_LOCAL] * n
        if rnd > cfg.selection_round:
            for cid in range(n):
                vote_count = sum(1 for m in bus.take_inbox(cid) if m.kind is MessageKind.VOTE)
                if cfg.refresh_selection or rnd == cfg.selection_round + 1:
                    votes[cid] = vote_count
                degree = topo.degree(cid)
                actions[cid] = vote_gate(cid, votes, p_escalation, cfg.v_min_for(degree), degree, gate_rngs[cid])

        trainers = [cid for cid in range(n) if actions[cid] is not Action.SKIP]
        _train(trainers, models, variates, train, bounds, train_rngs, model_spec, hp, method)
        samples[rnd - 1, trainers] = samples_per_pass[trainers]
        action_values[rnd - 1] = [action.value for action in actions]

        if rnd <= cfg.t_init or rnd >= cfg.selection_round:
            aggregated[rnd - 1] = _share_and_aggregate(bus, models, mixed, variates, selected, cfg, rnd, actions)
            models, mixed = mixed, models

        sent[rnd - 1], received[rnd - 1] = ledger.take_round()
        for cid in range(n):
            pred = protocol.predict_batch(models[cid], test.features[test_bounds[cid] : test_bounds[cid + 1]], model_spec)
            preds[test_bounds[cid] : test_bounds[cid + 1]] = pred
        f1[rnd - 1] = macro_f1(preds, test.labels, model_spec.num_classes, test_bounds)

    digest = hashlib.sha256(f"{models.dtype.str}{models.shape}".encode())
    digest.update(models)
    return RunResult(
        method=method,
        rounds=rounds,
        param_count=model_spec.param_count,
        f1=f1,
        bytes_sent=sent,
        bytes_received=received,
        actions=action_values,
        samples_trained=samples,
        models_aggregated=aggregated,
        bytes_by_kind={k: ledger.kind_bytes.get(k, 0) for k in MessageKind},
        message_counts={k: ledger.kind_count.get(k, 0) for k in MessageKind},
        topology=topo,
        final_models_sha256=digest.hexdigest(),
    )
