"""Topologies, deterministic message delivery, byte-exact traffic accounting.

Synchronous-round model: messages sent during a phase are invisible until the
next phase boundary (bus.flush). One message names all of its receivers (a
broadcast is one message to every neighbor); delivery order is canonical,
sorted by sender, so every inbox is in (sender, send) order and replaying a
seed reproduces the ledger bit-exactly.

Wire-format accounting: every copy a receiver gets costs a 32-byte header; a
model update adds 4 bytes per carried parameter (32-bit reals), votes and
no-update notices are header-only. The ledger books a message once per
receiver, so its totals equal those of one point-to-point message per
(sender, receiver) pair.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import ConfigError, GraphError, ProtocolError
from .seeding import derive_seed

HEADER_BYTES = 32
BYTES_PER_PARAM = 4

_MAX_GRAPH_ATTEMPTS = 100


class MessageKind(Enum):
    MODEL_UPDATE = "model_update"
    VOTE = "vote"
    NO_UPDATE = "no_update"


@dataclass(frozen=True)
class Topology:
    """Undirected connected graph over client ids 0..num_clients-1."""

    num_clients: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        adjacency: dict[int, list[int]] = {i: [] for i in range(self.num_clients)}
        for a, b in self.edges:
            if a == b:
                raise ConfigError(f"self-loop at client {a}")
            if not (0 <= a < self.num_clients and 0 <= b < self.num_clients):
                raise ConfigError(f"edge ({a},{b}) outside client range")
            adjacency[a].append(b)
            adjacency[b].append(a)
        object.__setattr__(
            self, "_adj", {i: tuple(sorted(peers)) for i, peers in adjacency.items()}
        )

    def neighbors(self, client: int) -> tuple[int, ...]:
        return self._adj[client]

    def degree(self, client: int) -> int:
        return len(self._adj[client])


def _is_connected(topo: Topology) -> bool:
    seen = {0}
    stack = [0]
    while stack:
        for peer in topo.neighbors(stack.pop()):
            if peer not in seen:
                seen.add(peer)
                stack.append(peer)
    return len(seen) == topo.num_clients


def full_topology(n: int) -> Topology:
    """Complete graph K_n."""
    if n < 2:
        raise ConfigError("topology needs n >= 2")
    return Topology(n, frozenset((i, j) for i in range(n) for j in range(i + 1, n)))


def erdos_renyi(n: int, p: float, seed: int) -> Topology:
    """G(n, p) conditioned on connectivity via seeded redraws."""
    if n < 2:
        raise ConfigError("topology needs n >= 2")
    if not 0 < p <= 1:
        raise ConfigError("edge probability must be in (0, 1]")
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for attempt in range(_MAX_GRAPH_ATTEMPTS):
        rng = np.random.default_rng(derive_seed(seed, "erdos-attempt", attempt))
        mask = rng.random(len(pairs)) < p
        topo = Topology(n, frozenset(pair for pair, keep in zip(pairs, mask) if keep))
        if _is_connected(topo):
            return topo
    raise GraphError(f"no connected graph in {_MAX_GRAPH_ATTEMPTS} draws (n={n}, p={p})")


def message_byte_size(params: int) -> int:
    """Wire size of one copy of a message carrying `params` parameters."""
    return HEADER_BYTES + BYTES_PER_PARAM * params


@dataclass(frozen=True)
class RoundMessage:
    """One message from `sender` to each of `receivers`; `byte_size` is per copy."""

    sender: int
    receivers: tuple[int, ...]
    kind: MessageKind
    round: int
    byte_size: int
    payload: tuple[np.ndarray, ...] | None = None


class TrafficLedger:
    """Byte counts per (round, client) and per message kind.

    Run totals, per client or overall, are sums of the per-round counts.
    """

    def __init__(self):
        self.round_sent: dict[tuple[int, int], int] = defaultdict(int)  # (round, client)
        self.round_received: dict[tuple[int, int], int] = defaultdict(int)
        self.kind_bytes: dict[MessageKind, int] = defaultdict(int)
        self.kind_count: dict[MessageKind, int] = defaultdict(int)

    def record(self, msg: RoundMessage):
        """Book one copy of the message per receiver."""
        size, rnd = msg.byte_size, msg.round
        fanout = len(msg.receivers)
        self.round_sent[(rnd, msg.sender)] += size * fanout
        self.kind_bytes[msg.kind] += size * fanout
        self.kind_count[msg.kind] += fanout
        for receiver in msg.receivers:
            self.round_received[(rnd, receiver)] += size

    def total_sent(self) -> int:
        return sum(self.round_sent.values())

    def total_received(self) -> int:
        return sum(self.round_received.values())

    def round_bytes(self, rnd: int, client: int) -> tuple[int, int]:
        return self.round_sent.get((rnd, client), 0), self.round_received.get((rnd, client), 0)


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


def broadcast(
    bus: MessageBus,
    sender: int,
    kind: MessageKind,
    payload: tuple[np.ndarray, ...] | None,
    rnd: int,
) -> int:
    """One message to every neighbor; returns the neighbor count."""
    neighbors = bus.topo.neighbors(sender)
    params = sum(a.shape[0] for a in payload) if payload else 0
    bus.send(RoundMessage(sender, neighbors, kind, rnd, message_byte_size(params), payload))
    return len(neighbors)
