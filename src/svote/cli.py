"""Experiment configuration, orchestration, and result export.

Config files are flat ``key = value`` text with dotted sections (diff-friendly
for experiment matrices). One master seed drives everything; outputs
(metrics.csv + summary.json) are byte-identical across reruns of the same
config and seed.

CLI: ``svote run --config C --out DIR [--seed N]``, ``svote validate
--config C``, ``svote compare DIR...``. Exit 0 on success, 1 on validation
errors, 2 on runtime errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import MISSING, dataclass, field, fields, replace

from . import datahub, learner, metrics, netsim, protocol
from .errors import CompareError, ConfigError, SvoteError
from .seeding import derive_seed

CSV_HEADER = "round,client,f1,bytes_sent,bytes_received,action,e_train,e_agg,e_comm,work_units"


# ---------------------------------------------------------------- key schema


def _p_int(lo: int):
    def parse(s: str) -> int:
        try:
            v = int(s)
        except ValueError:
            raise ValueError(f"expected an integer, got {s!r}")
        if v < lo:
            raise ValueError(f"must be >= {lo}, got {v}")
        return v

    return parse


def _p_float(lo: float | None = None, lo_strict: bool = False, hi: float | None = None, hi_strict: bool = False):
    def parse(s: str) -> float:
        try:
            v = float(s)
        except ValueError:
            raise ValueError(f"expected a number, got {s!r}")
        if v != v or v in (float("inf"), float("-inf")):
            raise ValueError("must be finite")
        if lo is not None and (v < lo or (lo_strict and v == lo)):
            raise ValueError(f"must be {'>' if lo_strict else '>='} {lo}, got {v}")
        if hi is not None and (v > hi or (hi_strict and v == hi)):
            raise ValueError(f"must be {'<' if hi_strict else '<='} {hi}, got {v}")
        return v

    return parse


def _p_bool(s: str) -> bool:
    if s.lower() in ("true", "false"):
        return s.lower() == "true"
    raise ValueError(f"expected true or false, got {s!r}")


def _p_choice(*options: str):
    def parse(s: str) -> str:
        if s not in options:
            raise ValueError(f"expected one of {'/'.join(options)}, got {s!r}")
        return s

    return parse


def _p_vmin(s: str) -> str:
    if s == "half":
        return s
    try:
        v = int(s)
    except ValueError:
        raise ValueError(f"expected 'half' or a non-negative integer, got {s!r}")
    if v < 0:
        raise ValueError(f"v_min must be >= 0, got {v}")
    return str(v)


def _p_path(s: str) -> str:
    if not s:
        raise ValueError("expected a file path")
    # config text cuts a line at '#' and strips its blanks: a path it could
    # not carry would make the config echo re-parse to another config
    if "#" in s or s.strip() != s or s.splitlines() != [s]:
        raise ValueError(f"a path must hold no '#' or line break and no leading or trailing blank, got {s!r}")
    return s


def _key(key: str, parse, default=MISSING):
    """A config field: its key in config text, the key's parser, and its default (none: required)."""
    return field(default=default, metadata={"key": key, "parse": parse})


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment; every value obeys its key's parser however the config was built.

    Defaults the engine shares are read from its dataclasses. Tau may be any
    finite float, including the huge negative values of the degeneracy checks.
    """

    method: str = _key("method", _p_choice(protocol.SVOTE, *protocol.BASELINES))
    dataset: str = _key("dataset", _p_choice("synthetic", "idx"))
    num_clients: int = _key("num_clients", _p_int(2))
    seed: int = _key("seed", _p_int(0))
    rounds: int = _key("rounds", _p_int(1), protocol.SVoteConfig.total_rounds)
    alpha: float = _key("alpha", _p_float(lo=0.0, lo_strict=True), 0.5)
    test_fraction: float = _key("test_fraction", _p_float(lo=0.0, lo_strict=True, hi=1.0, hi_strict=True), 0.2)
    topology: str = _key("topology", _p_choice("full", "erdos"), "full")
    erdos_p: float = _key("erdos.p", _p_float(lo=0.0, lo_strict=True, hi=1.0), 0.5)
    model: str = _key("model", _p_choice(learner.SOFTMAX, learner.MLP), learner.SOFTMAX)
    hidden_dim: int = _key("model.hidden_dim", _p_int(1), 32)
    syn_num_classes: int = _key("synthetic.num_classes", _p_int(2), 6)
    syn_input_dim: int = _key("synthetic.input_dim", _p_int(1), 16)
    syn_per_class: int = _key("synthetic.per_class", _p_int(1), 200)
    syn_spread: float = _key("synthetic.spread", _p_float(lo=0.0, lo_strict=True), 0.5)
    idx_images: str | None = _key("idx.images", _p_path, None)
    idx_labels: str | None = _key("idx.labels", _p_path, None)
    idx_limit: int = _key("idx.limit", _p_int(1), 2000)
    lr: float = _key("lr", _p_float(lo=0.0, lo_strict=True), learner.HyperParams.lr)
    batch_size: int = _key("batch_size", _p_int(1), learner.HyperParams.batch_size)
    local_epochs: int = _key("local_epochs", _p_int(1), learner.HyperParams.local_epochs)
    prox_mu: float = _key("prox_mu", _p_float(lo=0.0), learner.HyperParams.prox_mu)
    tau: float = _key("svote.tau", _p_float(), protocol.SVoteConfig.tau)
    t_init: int = _key("svote.t_init", _p_int(1), protocol.SVoteConfig.t_init)
    n_diverge: int = _key("svote.n_diverge", _p_int(0), protocol.SVoteConfig.n_diverge)
    v_min: str = _key("svote.v_min", _p_vmin, "half")  # "half" or a non-negative integer literal
    refresh_selection: bool = _key("svote.refresh_selection", _p_bool, protocol.SVoteConfig.refresh_selection)
    suppress_nontrainer_updates: bool = _key(
        "svote.suppress_nontrainer_updates", _p_bool, protocol.SVoteConfig.suppress_nontrainer_updates
    )
    c_train: float = _key("energy.c_train", _p_float(lo=0.0), metrics.EnergyCoeffs.c_train)
    c_agg: float = _key("energy.c_agg", _p_float(lo=0.0), metrics.EnergyCoeffs.c_agg)
    c_comm: float = _key("energy.c_comm", _p_float(lo=0.0), metrics.EnergyCoeffs.c_comm)

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if value is None and f.default is None:
                continue  # an unset idx path
            # the value must be what its own text form parses to, so the
            # config echo re-parses to this config
            try:
                parsed = f.metadata["parse"](_value_str(value))
            except ValueError as exc:
                raise ConfigError(f"key {f.metadata['key']!r}: {exc}") from None
            if parsed != value:
                raise ConfigError(f"key {f.metadata['key']!r}: expected {parsed!r}, got {value!r}")
        if self.method == protocol.SVOTE and self.t_init + self.n_diverge >= self.rounds:
            raise ConfigError(
                "svote needs svote.t_init + svote.n_diverge < rounds "
                f"({self.t_init} + {self.n_diverge} >= {self.rounds})"
            )
        if self.dataset == "idx":
            for key, path in (("idx.images", self.idx_images), ("idx.labels", self.idx_labels)):
                if path is None:
                    raise ConfigError(f"dataset=idx requires key {key!r}")
                if not os.path.isfile(path):
                    raise ConfigError(f"{key} file not found: {path}")


_KEYS = {f.metadata["key"]: f for f in fields(ExperimentConfig)}


def parse_config_text(text: str, source: str = "<config>") -> ExperimentConfig:
    """Parse the key=value format; diagnostics name the key and line."""
    values: dict[str, object] = {}
    seen: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {raw.strip()!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _KEYS:
            raise ConfigError(f"{source}:{lineno}: unknown key {key!r}")
        if key in seen:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r} (first set on line {seen[key]})")
        seen[key] = lineno
        f = _KEYS[key]
        try:
            values[f.name] = f.metadata["parse"](value)
        except ValueError as exc:
            raise ConfigError(f"{source}:{lineno}: key {key!r}: {exc}") from None
    for key, f in _KEYS.items():
        if f.default is MISSING and f.name not in values:
            raise ConfigError(f"{source}: missing required key {key!r}")
    try:
        return ExperimentConfig(**values)
    except ConfigError as exc:
        raise ConfigError(f"{source}: {exc}") from None


def parse_config(path: str) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as f:
            text = f.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    return parse_config_text(text, source=path)


def _value_str(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(float(value))  # a numpy float's repr names its type
    return str(value)


def config_items(cfg: ExperimentConfig) -> list[tuple[str, str]]:
    """Canonical (key, value) pairs; omits unset idx paths."""
    items = []
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if value is None:
            continue
        items.append((f.metadata["key"], _value_str(value)))
    return items


def render_config(cfg: ExperimentConfig) -> str:
    return "".join(f"{k} = {v}\n" for k, v in config_items(cfg))


# ------------------------------------------------------------- orchestration


def build_dataset(cfg: ExperimentConfig) -> datahub.LabeledDataset:
    if cfg.dataset == "synthetic":
        return datahub.gen_synthetic(
            cfg.syn_num_classes,
            cfg.syn_input_dim,
            cfg.syn_per_class,
            cfg.syn_spread,
            derive_seed(cfg.seed, "data"),
        )
    return datahub.load_idx(cfg.idx_images, cfg.idx_labels, cfg.idx_limit)


def build_topology(cfg: ExperimentConfig) -> netsim.Topology:
    if cfg.topology == "full":
        return netsim.full_topology(cfg.num_clients)
    return netsim.erdos_renyi(cfg.num_clients, cfg.erdos_p, derive_seed(cfg.seed, "topology"))


def build_shards(cfg: ExperimentConfig, data: datahub.LabeledDataset):
    min_shard = max(2 * cfg.batch_size, 2 * data.num_classes)
    indices = datahub.dirichlet_partition(
        data, cfg.num_clients, cfg.alpha, derive_seed(cfg.seed, "partition"), min_shard
    )
    return [
        datahub.split_train_test(data.subset(idx), cfg.test_fraction, derive_seed(cfg.seed, "split", cid))
        for cid, idx in enumerate(indices)
    ]


def model_spec_for(cfg: ExperimentConfig, data: datahub.LabeledDataset) -> learner.ModelSpec:
    return learner.ModelSpec(
        kind=cfg.model,
        input_dim=data.input_dim,
        num_classes=data.num_classes,
        hidden_dim=cfg.hidden_dim if cfg.model == learner.MLP else 0,
    )


def execute(cfg: ExperimentConfig) -> metrics.RunResult:
    """Run the configured experiment in memory, writing nothing."""
    data = build_dataset(cfg)
    topo = build_topology(cfg)
    shards = build_shards(cfg, data)
    spec = model_spec_for(cfg, data)
    hp = learner.HyperParams(
        lr=cfg.lr,
        local_epochs=cfg.local_epochs,
        batch_size=cfg.batch_size,
        prox_mu=cfg.prox_mu,
    )
    if cfg.method == protocol.SVOTE:
        svcfg = protocol.SVoteConfig(
            total_rounds=cfg.rounds,
            t_init=cfg.t_init,
            n_diverge=cfg.n_diverge,
            tau=cfg.tau,
            v_min_fixed=None if cfg.v_min == "half" else int(cfg.v_min),
            refresh_selection=cfg.refresh_selection,
            suppress_nontrainer_updates=cfg.suppress_nontrainer_updates,
        )
        return protocol.run_svote(svcfg, spec, hp, topo, shards, cfg.seed)
    return protocol.run_baseline(cfg.method, spec, hp, topo, shards, cfg.seed, rounds=cfg.rounds)


def fedavg_equivalent_bytes(topo: netsim.Topology, rounds: int, param_count: int) -> int:
    """Bytes plain FedAvg would send on this topology: exact arithmetic."""
    per_round = sum(topo.degree(c) for c in range(topo.num_clients))
    return rounds * per_round * netsim.message_byte_size(param_count)


def _csv_lines(result: metrics.RunResult, coeffs: metrics.EnergyCoeffs) -> list[str]:
    lines = [CSV_HEADER]
    for rec in result.records:
        e_train, e_agg, e_comm = metrics.record_energy(rec, result.param_count, coeffs)
        lines.append(
            f"{rec.round},{rec.client},{rec.f1!r},{rec.bytes_sent},{rec.bytes_received},"
            f"{rec.action},{e_train!r},{e_agg!r},{e_comm!r},{rec.work_units}"
        )
    return lines


def build_summary(cfg: ExperimentConfig, result: metrics.RunResult) -> dict:
    coeffs = metrics.EnergyCoeffs(cfg.c_train, cfg.c_agg, cfg.c_comm)
    f1_mean, f1_std, per_client = metrics.federation_summary(result)
    report = metrics.energy(result, coeffs)
    units = metrics.work_units(result)
    equiv = fedavg_equivalent_bytes(result.topology, result.rounds, result.param_count)
    total_sent = result.ledger.total_sent()
    action_counts = {a.value: 0 for a in protocol.Action}
    for rec in result.records:
        action_counts[rec.action] += 1
    return {
        "config": dict(config_items(cfg)),
        "method": result.method,
        "seed": cfg.seed,
        "rounds": result.rounds,
        "num_clients": result.num_clients,
        "param_count": result.param_count,
        "final_f1_mean": f1_mean,
        "final_f1_std": f1_std,
        "final_f1_per_client": per_client,
        "total_bytes_sent": total_sent,
        "total_bytes_received": result.ledger.total_received(),
        "bytes_by_kind": {k.value: result.ledger.kind_bytes.get(k, 0) for k in netsim.MessageKind},
        "message_counts": {k.value: result.ledger.kind_count.get(k, 0) for k in netsim.MessageKind},
        "energy_kwh": {
            "train": report.train,
            "agg": report.agg,
            "comm": report.comm,
            "total": report.total,
        },
        "work_units_per_client": [units[c] for c in range(result.num_clients)],
        "work_units_total": sum(units.values()),
        "actions": action_counts,
        "fedavg_equivalent_bytes": equiv,
        "byte_reduction_pct": 100.0 * (equiv - total_sent) / equiv if equiv else 0.0,
    }


def run_experiment(cfg: ExperimentConfig, out_dir: str) -> dict:
    """Run and export metrics.csv + summary.json; nothing is written on failure."""
    result = execute(cfg)
    lines = _csv_lines(result, metrics.EnergyCoeffs(cfg.c_train, cfg.c_agg, cfg.c_comm))
    summary = build_summary(cfg, result)
    try:
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, "metrics.csv"), "w", encoding="utf-8", newline="\n") as f:
            f.write("\n".join(lines) + "\n")
        with open(os.path.join(out_dir, "summary.json"), "w", encoding="utf-8", newline="\n") as f:
            f.write(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    except OSError as exc:
        raise SvoteError(f"cannot write {out_dir}: {exc}") from None
    return summary


# ------------------------------------------------------------------- compare

_DATASET_KEYS = (
    "dataset",
    "alpha",
    "num_clients",
    "test_fraction",
    "synthetic.num_classes",
    "synthetic.input_dim",
    "synthetic.per_class",
    "synthetic.spread",
    "idx.images",
    "idx.labels",
    "idx.limit",
)


# label, key path of the compared number, its format spec, and the key of the
# spread shown after it; every number compare reads from a summary is here
_COMPARE_ROWS = (
    ("final F1 (mean±std over clients)", ("final_f1_mean",), ".4f", "final_f1_std"),
    ("total bytes sent", ("total_bytes_sent",), "", None),
    ("total bytes received", ("total_bytes_received",), "", None),
    ("total energy (kWh)", ("energy_kwh", "total"), ".6g", None),
    ("work units", ("work_units_total",), "", None),
)


def _number(summary: dict, keys: tuple[str, ...]):
    """The number at a key path of a summary, or None."""
    value = summary
    for key in keys:
        value = value.get(key) if isinstance(value, dict) else None
    return value if isinstance(value, (int, float)) and not isinstance(value, bool) else None


def _load_summary(run_dir: str) -> dict:
    path = os.path.join(run_dir, "summary.json")
    try:
        with open(path, "r", encoding="utf-8") as f:
            summary = json.load(f)
    except OSError as exc:
        raise CompareError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise CompareError(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(summary, dict):
        raise CompareError(f"{path}: not a JSON object")
    if not isinstance(summary.get("config"), dict) or not isinstance(summary.get("method"), str):
        raise CompareError(f"{path}: needs a 'config' object and a 'method' string")
    for _, keys, _, spread in _COMPARE_ROWS:
        for needed in (keys, (spread,)) if spread else (keys,):
            if _number(summary, needed) is None:
                raise CompareError(f"{path}: no number at {'.'.join(needed)!r}")
    return summary


def _delta(value: float, base: float) -> str:
    if base == 0:
        return "n/a"
    return f"{100.0 * (value - base) / base:+.2f}%"


def compare_runs(run_dirs: list[str]) -> str:
    """Aligned comparison of run summaries with percentage deltas vs the first."""
    if len(run_dirs) < 2:
        raise ConfigError("compare needs at least two run directories")
    summaries = [_load_summary(d) for d in run_dirs]
    base_cfg = summaries[0]["config"]
    for d, s in zip(run_dirs[1:], summaries[1:]):
        cfg = s["config"]
        for key in _DATASET_KEYS:
            if base_cfg.get(key) != cfg.get(key):
                raise CompareError(
                    f"incompatible runs: {run_dirs[0]} and {d} differ on {key!r} "
                    f"({base_cfg.get(key)} vs {cfg.get(key)})"
                )
    names = [s["method"] + " @ " + os.path.basename(os.path.normpath(d)) for d, s in zip(run_dirs, summaries)]
    rows: list[tuple[str, list[str]]] = []
    for label, keys, spec, spread in _COMPARE_ROWS:
        values = [_number(s, keys) for s in summaries]
        cells = []
        for s, value in zip(summaries, values):
            cell = format(value, spec) + (f"±{s[spread]:{spec}}" if spread else "")
            cells.append(f"{cell} ({_delta(value, values[0])})" if cells else cell)
        rows.append((label, cells))

    label_w = max(len(r[0]) for r in rows)
    col_ws = [max(len(names[i]), max(len(r[1][i]) for r in rows)) for i in range(len(names))]
    out = [
        " | ".join(["metric".ljust(label_w)] + [n.ljust(w) for n, w in zip(names, col_ws)]),
        "-+-".join(["-" * label_w] + ["-" * w for w in col_ws]),
    ]
    for label, cells in rows:
        out.append(" | ".join([label.ljust(label_w)] + [c.ljust(w) for c, w in zip(cells, col_ws)]))
    return "\n".join(out)


# ----------------------------------------------------------------------- CLI


def _cmd_run(args) -> int:
    cfg = parse_config(args.config)
    if args.seed is not None:
        parse = _KEYS["seed"].metadata["parse"]
        try:
            cfg = replace(cfg, seed=parse(args.seed))
        except ValueError as exc:
            raise ConfigError(f"--seed: {exc}") from None
    summary = run_experiment(cfg, args.out)
    print(
        f"{cfg.method}: {summary['rounds']} rounds, {summary['num_clients']} clients -> "
        f"F1 {summary['final_f1_mean']:.4f}±{summary['final_f1_std']:.4f}, "
        f"{summary['total_bytes_sent']} bytes sent, "
        f"{summary['energy_kwh']['total']:.6g} kWh"
    )
    print(f"wrote {os.path.join(args.out, 'metrics.csv')} and summary.json")
    return 0


def _cmd_validate(args) -> int:
    parse_config(args.config)
    print(f"{args.config}: OK")
    return 0


def _cmd_compare(args) -> int:
    print(compare_runs(args.run_dirs))
    return 0


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="svote", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment and write metrics/summary")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", required=True)
    p_run.add_argument("--seed", default=None, help="override the config seed (same rules as the seed key)")
    p_run.set_defaults(func=_cmd_run)

    p_val = sub.add_parser("validate", help="check a config file")
    p_val.add_argument("--config", required=True)
    p_val.set_defaults(func=_cmd_validate)

    p_cmp = sub.add_parser("compare", help="tabulate completed runs against the first")
    p_cmp.add_argument("run_dirs", nargs="+", metavar="DIR")
    p_cmp.set_defaults(func=_cmd_compare)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_arg_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SvoteError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
