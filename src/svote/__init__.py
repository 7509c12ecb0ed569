"""Deterministic simulator for similarity-voting client selection in
decentralized federated learning, with FedAvg/FedProx/SCAFFOLD baselines and
byte-exact communication plus parametric energy accounting."""

from .datahub import LabeledDataset, Shards, dirichlet_partition, gen_synthetic, load_idx, split_train_test
from .errors import (
    CompareError,
    ConfigError,
    FormatError,
    GraphError,
    MetricError,
    ProtocolError,
    SvoteError,
)
from .kernels import active_backend
from .learner import (
    MLP,
    SOFTMAX,
    HyperParams,
    ModelSpec,
    init_params,
    local_train,
    loss_and_grad,
    predict_batch,
    prox_grad,
    scaffold_grad,
    scaffold_update_cv,
    sgd_step,
)
from .metrics import EnergyCoeffs, RunResult, energy, federation_summary, macro_f1
from .netsim import (
    BYTES_PER_PARAM,
    HEADER_BYTES,
    MessageBus,
    MessageKind,
    Topology,
    TrafficLedger,
    broadcast,
    erdos_renyi,
    full_topology,
)
from .protocol import (
    ACTION_NAMES,
    BASELINES,
    FEDAVG,
    FEDPROX,
    SCAFFOLD,
    SVOTE,
    Action,
    Phase,
    SVoteConfig,
    aggregate,
    cast_votes,
    cosine_similarity,
    run_baseline,
    run_svote,
    select_peers,
    vote_gate,
)

__version__ = "0.1.0"
