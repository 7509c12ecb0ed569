"""Topologies, phase-synchronous message delivery, byte-exact traffic accounting.

A topology is its adjacency matrix. Synchronous-round model: messages sent
during a phase are invisible until the next phase boundary (bus.flush). A
message is every copy of one kind that a phase sends, given to `send` as one
n x n boolean routes matrix, sender by receiver, with its kind and its size
per copy: a broadcast from a set of senders is their rows of the adjacency
matrix, and a vote message is the selection mask. Delivery adds each
message's routes into its kind's sender x receiver count matrix, so a
receiver's arrivals are a column of it, in sender order, and replaying a seed
reproduces the ledger bit-exactly.

A message carries its kind and wire size, not the arrays it stands for: the
round engine holds the round's models in one stacked matrix, and a
MODEL_UPDATE route from sender p delivers row p of it (SCAFFOLD's also
delivers row p of the control-variate matrix).

Wire-format accounting: every copy costs a 32-byte header; a model update
adds 4 bytes per carried parameter, the itemsize of the float32 the engine
trains and averages in (`kernels.DTYPE`), so the bytes priced are the bytes
the engine holds; votes and no-update notices are header-only. The ledger
books a message's copy size times each sender's route count (a row sum) as
sent and times each receiver's (a column sum) as received, as int64 vectors,
so its totals equal those of one point-to-point message per route and sent
equals received by construction. It books one round at a time: the round
engine takes each round's vectors into that round's row of the run's
bytes_sent and bytes_received columns.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import kernels
from .errors import ConfigError, GraphError, ProtocolError
from .seeding import derive_seed

HEADER_BYTES = 32
BYTES_PER_PARAM = kernels.DTYPE.itemsize

_MAX_GRAPH_ATTEMPTS = 100


class MessageKind(Enum):
    MODEL_UPDATE = "model_update"
    VOTE = "vote"
    NO_UPDATE = "no_update"


@dataclass(frozen=True, eq=False)
class Topology:
    """Undirected simple graph over client ids 0..num_clients-1, held as its adjacency matrix.

    `adjacency` is a read-only n x n boolean matrix; building a Topology
    copies it and checks that it is square, symmetric and has a zero diagonal
    (no self-loops), raising `ConfigError` otherwise. Connectivity is not
    checked here: `erdos_renyi` redraws until its graph is connected, and
    `full_topology` is connected by construction. `degrees`, the matrix's row
    counts, is a read-only int array. Two topologies are equal when their
    matrices are.
    """

    adjacency: np.ndarray

    def __post_init__(self):
        adjacency = np.array(self.adjacency)
        if adjacency.dtype != bool or adjacency.ndim != 2 or adjacency.shape[0] != adjacency.shape[1]:
            raise ConfigError(f"adjacency must be a square boolean matrix, got {adjacency.dtype} {adjacency.shape}")
        n = len(adjacency)
        cells = adjacency.tobytes()
        if any(cells[:: n + 1]):
            raise ConfigError(f"self-loop at client {int(adjacency.diagonal().argmax())}")
        if cells != adjacency.T.tobytes():
            raise ConfigError("adjacency is not symmetric")
        degrees = np.count_nonzero(adjacency, axis=1)
        adjacency.flags.writeable = degrees.flags.writeable = False
        object.__setattr__(self, "adjacency", adjacency)
        object.__setattr__(self, "degrees", degrees)

    @property
    def num_clients(self) -> int:
        return len(self.adjacency)

    def __eq__(self, other):
        if not isinstance(other, Topology):
            return NotImplemented
        return np.array_equal(self.adjacency, other.adjacency)


def _is_connected(adjacency: np.ndarray) -> bool:
    """Whether every client is reachable from client 0: the reached set grows by one boolean product per hop."""
    reached = np.zeros(len(adjacency), dtype=bool)
    reached[0] = True
    count = 1
    while True:
        reached = reached | (reached @ adjacency)
        grown = int(np.count_nonzero(reached))
        if grown == count:
            return count == len(adjacency)
        count = grown


def full_topology(n: int) -> Topology:
    """Complete graph K_n."""
    if n < 2:
        raise ConfigError("topology needs n >= 2")
    return Topology(~np.eye(n, dtype=bool))


def erdos_renyi(n: int, p: float, seed: int) -> Topology:
    """G(n, p) conditioned on connectivity via seeded redraws.

    Each attempt draws one uniform per client pair (i < j) in row-major
    order and keeps the edge when the draw is below p.
    """
    if n < 2:
        raise ConfigError("topology needs n >= 2")
    if not 0 < p <= 1:
        raise ConfigError("edge probability must be in (0, 1]")
    # boolean-mask assignment fills in row-major order: the pairs of np.triu_indices(n, 1)
    clients = np.arange(n)
    upper = clients[:, None] < clients
    pairs = n * (n - 1) // 2
    for attempt in range(_MAX_GRAPH_ATTEMPTS):
        rng = np.random.default_rng(derive_seed(seed, "erdos-attempt", attempt))
        draw = rng.random(pairs) < p
        adjacency = np.zeros((n, n), dtype=bool)
        adjacency[upper] = draw
        adjacency.T[upper] = draw  # the mirror: pair (i, j) also at (j, i)
        if _is_connected(adjacency):
            return Topology(adjacency)
    raise GraphError(f"no connected graph in {_MAX_GRAPH_ATTEMPTS} draws (n={n}, p={p})")


def message_byte_size(params: int) -> int:
    """Wire size of one copy of a message carrying `params` parameters."""
    return HEADER_BYTES + BYTES_PER_PARAM * params


class TrafficLedger:
    """Bytes each client sent and received in the round being booked, and run totals per message kind.

    `sent` and `received` are int64 vectors by client id, and the kind totals
    plain ints, so they serialise exactly; the ledger keeps no earlier round.
    """

    def __init__(self, num_clients: int):
        self.sent = np.zeros(num_clients, dtype=np.int64)
        self.received = np.zeros(num_clients, dtype=np.int64)
        self.kind_bytes: dict[MessageKind, int] = defaultdict(int)
        self.kind_count: dict[MessageKind, int] = defaultdict(int)

    def record(self, routes: np.ndarray, kind: MessageKind, byte_size: int):
        """Book one copy of byte_size bytes per route: its sender sends it and its receiver receives it."""
        fanout = np.count_nonzero(routes, axis=1)
        self.sent += byte_size * fanout
        self.received += byte_size * np.count_nonzero(routes, axis=0)
        copies = int(fanout.sum())
        self.kind_bytes[kind] += byte_size * copies
        self.kind_count[kind] += copies

    def take_round(self) -> tuple[np.ndarray, np.ndarray]:
        """The booked round's bytes sent and received per client; the next round starts at zero."""
        taken = self.sent, self.received
        self.sent, self.received = np.zeros_like(self.sent), np.zeros_like(self.received)
        return taken


class MessageBus:
    """Phase-synchronous delivery over a topology, booking every message in its own ledger, `bus.ledger`."""

    def __init__(self, topo: Topology):
        self.topo = topo
        self.ledger = TrafficLedger(topo.num_clients)
        self._pending: list[tuple[MessageKind, np.ndarray]] = []
        self._delivered = defaultdict(lambda: np.zeros(topo.adjacency.shape, dtype=np.int64))

    def send(self, routes: np.ndarray, kind: MessageKind, byte_size: int):
        """Queue one message of sender x receiver routes; nothing is booked unless every route is a graph edge."""
        strays = routes > self.topo.adjacency  # a route where the graph has no edge
        if strays.any():
            sender, receiver = np.argwhere(strays)[0].tolist()
            raise ProtocolError(f"send from {sender} to non-neighbor {receiver}")
        self.ledger.record(routes, kind, byte_size)
        self._pending.append((kind, routes))

    def flush(self):
        """Phase boundary: add every pending message's routes into its kind's delivered counts."""
        for kind, routes in self._pending:
            self._delivered[kind] += routes
        self._pending = []

    def take_inbox(self) -> dict[MessageKind, np.ndarray]:
        """Each kind's delivered copies since the last take, sender x receiver; the counts restart at zero."""
        taken = self._delivered
        self._delivered = defaultdict(taken.default_factory)
        return taken


def broadcast(bus: MessageBus, senders: np.ndarray, kind: MessageKind, params: int):
    """One message carrying `params` parameters from each client that `senders` marks to every neighbor."""
    bus.send(bus.topo.adjacency & senders[:, None], kind, message_byte_size(params))
