"""The benchmark's three federations, as config texts generated from a seed.

Each workload runs one or more configs that share one synthetic data set and
one topology, so a pass compares methods on identical inputs. A run of the
benchmark covers `seeds_per_run` config seeds derived from the workload
seed: the quality and traffic figures of these federations vary strongly with
the drawn topology and partition (interquartile range up to a quarter of the
median over single seeds on paper-4methods), and averaging over several
config seeds per run keeps them steady from one workload seed to the next.

Set-up time varies more still: it follows the partitioner's redraw count,
which is close to geometrically distributed over seeds (29, 20 and 116
redraws at dense-100 seeds 1 to 3; per-seed set-up time has a coefficient of
variation near 0.75 on paper-4methods and dense-100). Set-up is cheap next to
a run, so it is timed over `setup_seeds_per_run` config seeds, a longer run
of the same sequence, which starts with the run's own config seeds. The
methods of one config seed share data, topology and shards, so each setup
seed builds one config, the methods taken in turn, rather than the same
set-up once per method.
"""

from __future__ import annotations

from dataclasses import dataclass

# distance between the config seeds of one run; seed s covers s, s + STRIDE, ...
SEED_STRIDE = 10_000

_PAPER_DATA = """\
dataset = synthetic
num_clients = 10
seed = {seed}
rounds = 30
alpha = 0.1

topology = erdos
erdos.p = 0.5

synthetic.num_classes = 6
synthetic.input_dim = 16
synthetic.per_class = 400
synthetic.spread = 0.5

lr = 0.5
batch_size = 32
local_epochs = 2
"""

# the vote settings of configs/svote_noniid.cfg
_PAPER_SVOTE = """\
svote.t_init = 5
svote.n_diverge = 2
svote.tau = 0.5
svote.v_min = 1
svote.refresh_selection = true
svote.suppress_nontrainer_updates = true
"""

_DENSE_DATA = """\
dataset = synthetic
num_clients = 100
seed = {seed}
rounds = 12
alpha = 0.5
topology = full

synthetic.num_classes = 6
synthetic.input_dim = 16
synthetic.per_class = 4000
synthetic.spread = 0.5

lr = 0.5
batch_size = 32
local_epochs = 2
"""

# 784 inputs are MNIST-shaped; at spread 2.0 the model stays at chance, at 0.3
# it learns partway, so the quality guard can move either way. alpha is 0.2:
# at 0.1 the partitioner exhausts its redraws on 5 of 20 seeds.
_WIDE_DATA = """\
dataset = synthetic
num_clients = 20
seed = {seed}
rounds = 30
alpha = 0.2

topology = erdos
erdos.p = 0.3

synthetic.num_classes = 10
synthetic.input_dim = 784
synthetic.per_class = 300
synthetic.spread = 0.3

model = mlp
model.hidden_dim = 64
lr = 0.5
batch_size = 32
local_epochs = 2
"""

_VOTE = """\
svote.tau = 0.5
svote.v_min = 1
"""


@dataclass(frozen=True)
class Workload:
    name: str
    data: str  # config text shared by every method, with a {seed} field
    methods: tuple[tuple[str, str], ...]  # (method, method-specific config text)
    seeds_per_run: int
    setup_seeds_per_run: int

    def config_seeds(self, seed: int, count: int) -> list[int]:
        return [seed + j * SEED_STRIDE for j in range(count)]

    def config_texts(self, config_seed: int) -> list[str]:
        data = self.data.format(seed=config_seed)
        return [f"method = {method}\n{data}{extra}" for method, extra in self.methods]

    def setup_texts(self, seed: int) -> list[str]:
        """One config text per setup seed, cycling through the methods."""
        seeds = self.config_seeds(seed, self.setup_seeds_per_run)
        return [self.config_texts(s)[j % len(self.methods)] for j, s in enumerate(seeds)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="paper-4methods",
            data=_PAPER_DATA,
            methods=(("fedavg", ""), ("fedprox", ""), ("scaffold", ""), ("svote", _PAPER_SVOTE)),
            seeds_per_run=16,
            setup_seeds_per_run=576,
        ),
        Workload(
            name="dense-100",
            data=_DENSE_DATA,
            methods=(("svote", _VOTE), ("fedavg", "")),
            seeds_per_run=3,
            setup_seeds_per_run=96,
        ),
        Workload(
            name="wide-mlp",
            data=_WIDE_DATA,
            methods=(("svote", _VOTE), ("fedavg", "")),
            seeds_per_run=5,
            setup_seeds_per_run=32,
        ),
    )
}
