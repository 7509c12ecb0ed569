"""Golden artifacts: sha256 of metrics.csv and summary.json for pinned configs,
and of the model weights the engine evaluates for three of them.

The determinism contract is checked rerun-against-rerun elsewhere; these
digests also catch silent numeric drift across refactors. metrics.csv pins
only decisions made from the weights (argmax predictions, selections,
gates), so a change that moves the weights by round-off passes it until some
decision flips; summary.json carries the sha256 of the final model matrix
(final_models_sha256), and the weight digests cover every evaluated model,
so both catch it at once. A change that alters a digest on purpose (a new float summation order, say)
records the new digest here and explains the drift; one that alters it by
accident is a regression.

Recorded with numpy 2.4.6 on scipy-openblas 0.3.31 (Python 3.11, x86-64);
summary.json records the numpy version, so another numpy moves its digest.
Another numpy or BLAS may round differently; the digests hold for 1 and 2
BLAS threads.
"""

import hashlib
import os

import numpy as np
import pytest

from conftest import counted_class_splits, evaluated_models
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
        "5f3d24374ac6952233f12a5689184c589d8532e2b04f75c6d81a3f1e859f52e7",
        "2b8aa714d27c94272e51be76bc00146c46b324cdfc94251b45f438647f2bd268",
    ),
    "fedavg_noniid": (
        "c06b6df0fa6be6515201e09ae3d58c18bf977d803844ce825e5e7d777f70ae59",
        "f01d9de914002b067349c15e181d90760f9da6d3b3baa528e39a19bf64c9c0e5",
    ),
    "scaffold_noniid": (
        "40167bd5372ebbbb2f73171a458fd1f72abd37fccf2824c9b82dc02315e9463f",
        "8789d7da4f17684adb112d8a69fd3891d9ed79bf91a5bbe3c337483d69f04288",
    ),
    "svote_full40": (
        "5b2d05beeac55ff0caafe7a37ca87a194f9b4f6f8473f270925ecbb88b7d1761",
        "fd2cad4f6ac5ffa0cae4f88bd9c104ae9ce481495b75bda2f8e2aaaae104df0e",
    ),
    "svote_mlp": (
        "a016b3f61668f209736611a15a247336794d7dc81b625668d04922ff30acda96",
        "c5851c4d083f1c6e3ef5590ce64ecdfb912e7276e983fda7b889d9f2ba7e225f",
    ),
    "fedprox_noniid": (
        "0e8d386b4172eb456e6246fad75d6829c7b8f7f559901287de0308236124adc3",
        "1a50c1b354e84525a6a7455d102e9ec0506de7b25d00ddbbf5a35a89bb727684",
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


# sha256 over every model the engine evaluates, in evaluation order (round-major,
# client order within a round), each as its dtype, shape and bytes
WEIGHT_GOLDEN = {
    "scaffold_noniid": "0b942a3822f777fbce22628e6f274a2c7b6810ebc1086a7245d2e2e0526b4133",
    "svote_full40": "3e20c3323d31e6276dba55fa97db103ac20b9035e3a27521b4de3679589b9f92",
    "svote_mlp": "5f7e68501b3c848b31c4285bab1e72d6ff13c6d4bb9a2fbab33f052b54ff689a",
}


@pytest.mark.parametrize("name", sorted(WEIGHT_GOLDEN))
def test_evaluated_models_match_golden_digests(name, tmp_path):
    with evaluated_models() as models:
        cli.run_experiment(cli.parse_config_text(_config_text(name), source=name), str(tmp_path))
    digest = hashlib.sha256()
    for w in models:
        digest.update(f"{w.dtype.str}{w.shape}".encode())
        digest.update(w.tobytes())
    assert digest.hexdigest() == WEIGHT_GOLDEN[name]


# the dense-100 benchmark partition: 100 clients, 6 x 4,000 samples, alpha 0.5,
# min_shard 64 (= 2 * batch_size 32), config seed 1; the plan depends on the
# labels only
DENSE100_PLAN = "b705ce5f0977797b522a1811b4ec93ddd16eb0eabbac7d8553a339c94c93b0d5"


def test_dense100_partition_matches_golden_digest():
    labels = np.repeat(np.arange(6), 4000)
    data = datahub.LabeledDataset(np.zeros((labels.size, 1)), labels, 6)
    with counted_class_splits() as splits:
        plan = datahub.dirichlet_partition(data, 100, 0.5, derive_seed(1, "partition"), min_shard=64)
    # one plan: one split per class, repaired up to the floor without redraws
    assert len(splits) == 6
    digest = hashlib.sha256()
    for client in range(100):
        shard = plan[client]
        assert shard.dtype == np.int64
        digest.update(np.int64(shard.size).tobytes())
        digest.update(shard.tobytes())
    assert digest.hexdigest() == DENSE100_PLAN
