"""Golden artifacts: sha256 of metrics.csv and summary.json for pinned configs.

The determinism contract is checked rerun-against-rerun elsewhere; these
digests also catch silent numeric drift across refactors. A change that
alters a digest on purpose (a new float summation order, say) records the
new digest here and explains the drift; one that alters it by accident is a
regression.

Recorded with numpy 2.4.6 on scipy-openblas 0.3.31 (Python 3.11, x86-64).
Another numpy or BLAS may round differently; the digests hold for 1 and 2
BLAS threads.
"""

import hashlib
import os

import numpy as np
import pytest

from conftest import counted_class_splits
from svote import cli, datahub
from svote.seeding import derive_seed

CONFIGS_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "configs")

# 40 clients on a full graph: every action and every message kind occurs
DENSE_SVOTE = """\
method = svote
dataset = synthetic
num_clients = 40
seed = 5
rounds = 12
alpha = 0.5
topology = full
synthetic.num_classes = 6
synthetic.input_dim = 16
synthetic.per_class = 600
synthetic.spread = 0.5
lr = 0.5
batch_size = 16
local_epochs = 1
svote.t_init = 3
svote.n_diverge = 1
svote.tau = 0.5
svote.v_min = half
"""

# the one-hidden-layer MLP (P = 8,646): pins the MLP kernel and the gated rounds
MLP_SVOTE = """\
method = svote
dataset = synthetic
num_clients = 10
seed = 3
rounds = 25
alpha = 0.3
topology = erdos
erdos.p = 0.5
synthetic.num_classes = 6
synthetic.input_dim = 128
synthetic.per_class = 500
synthetic.spread = 0.5
model = mlp
model.hidden_dim = 64
lr = 0.2
batch_size = 32
local_epochs = 2
svote.t_init = 4
svote.n_diverge = 2
svote.tau = 0.5
svote.v_min = half
"""


GOLDEN = {  # name -> sha256 of metrics.csv, of summary.json
    "svote_noniid": (
        "c45c4811fdb6e1e747597de57d1d94d1605a43abf50e563d0b46e48370965cbf",
        "65317c147877d28ceebb0a44453471a9235450e2431ccf2bcba64e46c486be58",
    ),
    "fedavg_noniid": (
        "36b3a62e7586848443045472504ee89025536f3ef7240bc0c58ff2ce958d94ff",
        "6f8a28f2c5bfce33210d566383f2f44af2c5690dfce42329cb5c3c7e4910896e",
    ),
    "scaffold_noniid": (
        "c8fbde8e4313cc890aa6eba2ff4eb9b9bbbac287c79624d1ce613e582a4e95fd",
        "9ae031ef88d701284e01080c92ebb0a11661408fa46e9f89425844ca50757942",
    ),
    "svote_full40": (
        "fc2e219d7ac12b0933c2be98e6977172cdf1dc31dc637eb92658e3e3dbaf67ba",
        "29fc15584c5b0f35f00b61a040617d56abd07ca2877dd0794c7f23e70773921d",
    ),
    "svote_mlp": (
        "7d6ebd946890983e12de870c2c5bab185dc33443245a08c6a51238f8f46c74b7",
        "525df55e298eb321982656eedcd827f334f5627bc2dbed68cff44395a70f4768",
    ),
    "fedprox_noniid": (
        "96fc399682602b04c15477a059eafd23330fdc5aa06863dcbc4c3edf3449ff7f",
        "13ca77dc24b38ffd33e24082a9cf40f9b2e555852553d7c044131e21aa3d5cc5",
    ),
}

# a baseline run on the FedAvg sample config under another method
_BASELINE_TWINS = {"scaffold_noniid": "scaffold", "fedprox_noniid": "fedprox"}


def _config_text(name):
    if name == "svote_full40":
        return DENSE_SVOTE
    if name == "svote_mlp":
        return MLP_SVOTE
    # SCAFFOLD (the two-vector payload path) and FedProx (the prox transform)
    # on the FedAvg sample config
    method = _BASELINE_TWINS.get(name)
    source = "fedavg_noniid" if method else name
    with open(os.path.join(CONFIGS_DIR, f"{source}.cfg"), encoding="utf-8") as f:
        text = f.read()
    return text.replace("method = fedavg", f"method = {method}") if method else text


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_artifacts_match_golden_digests(name, tmp_path):
    cli.run_experiment(cli.parse_config_text(_config_text(name), source=name), str(tmp_path))
    digests = []
    for artifact in ("metrics.csv", "summary.json"):
        with open(tmp_path / artifact, "rb") as f:
            digests.append(hashlib.sha256(f.read()).hexdigest())
    assert tuple(digests) == GOLDEN[name]


# the dense-100 benchmark partition: 100 clients, 6 x 4,000 samples, alpha 0.5,
# min_shard 64 (= 2 * batch_size 32), config seed 1; the plan depends on the
# labels only
DENSE100_PLAN = "a395427caec838ae5cf3fb08de9ec1249b0692ccf04409b32e4b314f8f28a41b"


def test_dense100_partition_matches_golden_digest():
    labels = np.repeat(np.arange(6), 4000)
    data = datahub.LabeledDataset(np.zeros((labels.size, 1)), labels, 6)
    with counted_class_splits() as splits:
        plan = datahub.dirichlet_partition(data, 100, 0.5, derive_seed(1, "partition"), min_shard=64)
    # 29 whole-plan draws of 6 class splits each; the 29th passes
    assert len(splits) == 29 * 6
    digest = hashlib.sha256()
    for client in range(100):
        shard = plan[client]
        assert shard.dtype == np.int64
        digest.update(np.int64(shard.size).tobytes())
        digest.update(shard.tobytes())
    assert digest.hexdigest() == DENSE100_PLAN
