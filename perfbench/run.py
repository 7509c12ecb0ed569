#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the svote simulator.

    python3 perfbench/run.py --workload paper-4methods --seed 1 --seconds 12 --trace 0

Run from the root of a source checkout; svote is imported from ./src. Each
federation goes through the public library path, `cli.parse_config_text`
then `cli.run_experiment` into a scratch directory under ./.bench_build, so
a pass covers set-up, engine, evaluation and export.

--trace 0 times whole passes with no instrumentation and reports the
end-to-end metrics. --trace 1 alternates untraced and traced passes of the
run's first config seed and reports the per-layer metrics (see tracer.py)
together with the tracing overhead. Either way every run's artifacts are
checked (checks.py) and a run that fails a check counts as a failed
operation. The last line of standard output is the result object; the lines
before it are a JSON report with quartiles, sample counts, the environment
and any failures.
"""

import os

# One BLAS thread: svote is otherwise single-threaded, and a second BLAS thread
# would compete with other tenants of a shared host for the second core and
# make results depend on the core count. Must be set before numpy is imported.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".bench_build"
SETUP_GROUPS = 4
# Largest share of a traced pass's wall time that may fall outside every named
# layer (the file writes of cli.run_experiment take about 0.1%)
RESIDUAL_LIMIT = 0.02

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "final_f1_mean": "1",
    "bytes_sent_total": "B",
}

# spans that report a call count next to their self time
COUNTED_SPANS = (
    "kernels.loss_grad",
    "learner.train",
    "learner.loss_and_grad",
    "learner.predict",
    "metrics.macro_f1",
    "netsim.send",
    "protocol.similarity",
    "protocol.select",
    "protocol.vote",
    "protocol.gate",
    "protocol.aggregate",
)
TIMED_SPANS = COUNTED_SPANS + (
    "netsim.ledger",
    "netsim.broadcast",
    "netsim.flush",
    "netsim.inbox",
    "netsim.topology",
    "protocol.engine",
    "datahub.generate",
    "datahub.partition",
    "datahub.split",
    "cli.execute",
    "cli.export",
)


def import_svote():
    """Import svote from this checkout's src, never from an installed copy."""
    sys.path.insert(0, str(SRC))
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the numba fallback notice; the backend is recorded
            import svote.cli
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import svote from {SRC}: {exc}")
    if Path(svote.__file__).resolve().parent.parent != SRC.resolve():
        sys.exit(f"perfbench: svote resolved to {svote.__file__}, not to {SRC}")
    return svote


def environment(svote, workload: str, seed: int, config_seeds: list[int]) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.26 only prints its build config
        blas = {}
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "svote_backend": svote.active_backend(),
        "workload": workload,
        "seed": seed,
        "config_seeds": config_seeds,
    }


def spread(values: list[float]) -> dict:
    """Median, quartiles and sample count."""
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = median = q3 = values[0]
    return {"median": median, "q1": q1, "q3": q3, "n": len(values), "samples": values}


# `svote run` in a fresh interpreter, then its peak resident set in MB. VmHWM,
# not ru_maxrss: the latter keeps the parent's peak across fork and exec.
_PEAK_RSS_CHILD = """\
import sys, warnings
sys.path.insert(0, sys.argv[1])
warnings.simplefilter("ignore")
from svote import cli
code = cli.main(["run", "--config", sys.argv[2], "--out", sys.argv[3]])
with open("/proc/self/status") as status:
    print(next(int(line.split()[1]) for line in status if line.startswith("VmHWM:")) / 1024)
sys.exit(code)
"""


class Runner:
    """Runs configs through `cli.run_experiment` and checks what they export.

    Times are taken with a ReferenceClock: raw wall seconds, and wall and CPU
    seconds rescaled to the reference machine speed.
    """

    def __init__(self, svote, scratch: str):
        from checks import artifact_digest, check_run
        from reference import ReferenceClock

        self.cli = svote.cli
        self._check_run = check_run
        self._digest = artifact_digest
        self.clock = ReferenceClock()
        self.scratch = scratch
        self.topologies = {}
        self.digests = {}
        self.attempted = 0
        self.failures: list[dict] = []

    def _build(self, configs: list):
        for cfg in configs:
            data = self.cli.build_dataset(cfg)
            self.cli.build_topology(cfg)
            self.cli.build_shards(cfg, data)

    def setup(self, configs: list) -> tuple[float, float]:
        """Build data, topology and shards of every config; returns (raw, rescaled) wall s."""
        _, raw, wall, _ = self.clock.measure(self._build, configs)
        return raw, wall

    def run_pass(self, configs: dict) -> tuple[float, float, float, list[dict]]:
        """Run every config once.

        Returns raw wall s, rescaled wall s, rescaled cpu s and the summaries
        of the runs that passed every check.
        """
        raw = wall = cpu = 0.0
        summaries = []
        for key, cfg in configs.items():
            self.attempted += 1
            with tempfile.TemporaryDirectory(dir=self.scratch) as out:
                try:
                    summary, *times = self.clock.measure(self.cli.run_experiment, cfg, out)
                except Exception:  # a crashed run is a failed operation; the others still run
                    self.failures.append({"config": key, "errors": [traceback.format_exc(limit=4)]})
                    continue
                raw, wall, cpu = raw + times[0], wall + times[1], cpu + times[2]
                if self._check(key, cfg, summary, out):
                    summaries.append(summary)
        return raw, wall, cpu, summaries

    def _check(self, key, cfg, summary: dict, out: str) -> bool:
        """Check one run's artifacts, and that they match every earlier run of the config."""
        # built once per config, so that with --trace 1 (which runs an untraced
        # pass first) no topology span falls outside a timed run
        if key not in self.topologies:
            self.topologies[key] = self.cli.build_topology(cfg)
        errors = self._check_run(cfg, self.topologies[key], summary, out)
        digest = self._digest(out)
        if self.digests.setdefault(key, digest) != digest:
            errors.append("metrics.csv/summary.json differ from an earlier run of this config")
        if errors:
            self.failures.append({"config": key, "errors": errors})
        return not errors

    def peak_rss_mb(self, configs: dict) -> float:
        """Largest peak resident set of `svote run` over the configs, each in a fresh process.

        The benchmark's own process is no measure: after many runs its peak
        follows heap fragmentation (95 to 124 MB for the same wide-mlp work),
        while a fresh process repeats within 1.5%. Each child's artifacts are
        checked like those of an in-process run, which also holds them to the
        determinism contract across processes.
        """
        peaks = []
        for key, cfg in configs.items():
            self.attempted += 1
            with tempfile.TemporaryDirectory(dir=self.scratch) as out:
                config_path = os.path.join(out, "run.cfg")
                with open(config_path, "w", encoding="utf-8") as f:
                    f.write(self.cli.render_config(cfg))
                command = [sys.executable, "-c", _PEAK_RSS_CHILD, str(SRC), config_path, os.path.join(out, "run")]
                try:
                    child = subprocess.run(command, capture_output=True, text=True, timeout=150)
                except subprocess.TimeoutExpired:  # run() has killed and reaped the child
                    self.failures.append({"config": key, "errors": ["svote run timed out after 150 s"]})
                    continue
                if child.returncode != 0:
                    error = f"svote run exited {child.returncode}: {child.stderr[-2000:]}"
                    self.failures.append({"config": key, "errors": [error]})
                    continue
                with open(os.path.join(out, "run", "summary.json"), encoding="utf-8") as f:
                    summary = json.load(f)
                if self._check(key, cfg, summary, os.path.join(out, "run")):
                    peaks.append(float(child.stdout.split()[-1]))
        return max(peaks, default=float("nan"))


def parse_configs(svote, workload, config_seed: int) -> dict:
    return {
        (config_seed, i): svote.cli.parse_config_text(text, source=f"{workload.name}[{i}]")
        for i, text in enumerate(workload.config_texts(config_seed))
    }


def measure_setup(svote, runner: Runner, workload, seed: int) -> tuple[list[float], list[float]]:
    """Set-up time of one config, raw and rescaled, per group of setup configs.

    The workload's setup configs are split into SETUP_GROUPS consecutive
    groups; each group is timed as one piece of work and contributes its mean
    per config.
    """
    texts = workload.setup_texts(seed)
    size = len(texts) // SETUP_GROUPS
    raw, rescaled = [], []
    for g in range(SETUP_GROUPS):
        group = [
            svote.cli.parse_config_text(text, source=f"{workload.name}[setup {g * size + j}]")
            for j, text in enumerate(texts[g * size : (g + 1) * size])
        ]
        group_raw, group_rescaled = runner.setup(group)
        raw.append(group_raw / size)
        rescaled.append(group_rescaled / size)
    return raw, rescaled


def measure_end_to_end(svote, runner: Runner, workload, seeds: list[int], seconds: int):
    per_seed = {s: parse_configs(svote, workload, s) for s in seeds}
    raw_setup, setup = measure_setup(svote, runner, workload, seeds[0])

    raw_walls, walls, cpus, f1s, bytes_per_pass = [], [], [], [], []
    start = time.perf_counter()
    # every config seed once for the quality figures, then repeat seeds until
    # the time is up; peak_rss_mb reruns the first seed in fresh processes, so
    # every run holds at least two runs of those configs to byte-identical artifacts
    done = 0
    while done < len(seeds) or time.perf_counter() - start < seconds:
        raw, wall, cpu, summaries = runner.run_pass(per_seed[seeds[done % len(seeds)]])
        raw_walls.append(raw)
        walls.append(wall)
        cpus.append(cpu)
        if done < len(seeds):
            f1s.extend(s["final_f1_mean"] for s in summaries)
            bytes_per_pass.append(sum(s["total_bytes_sent"] for s in summaries))
        done += 1

    stats = {"setup_s": spread(setup), "wall_s": spread(walls), "cpu_s": spread(cpus)}
    values = {name: stats[name]["median"] for name in stats}
    values["peak_rss_mb"] = runner.peak_rss_mb(per_seed[seeds[0]])
    values["final_f1_mean"] = statistics.fmean(f1s) if f1s else float("nan")
    values["bytes_sent_total"] = statistics.fmean(bytes_per_pass) if bytes_per_pass else float("nan")
    stats["raw_setup_s"] = spread(raw_setup)
    stats["raw_wall_s"] = spread(raw_walls)
    report = {"passes": done, "stats": stats}
    return {name: (values[name], unit) for name, unit in END_TO_END_UNITS.items()}, report


def measure_layers(svote, runner: Runner, workload, seeds: list[int], seconds: int):
    from tracer import Tracer, instrument

    configs = parse_configs(svote, workload, seeds[0])
    tracer = Tracer()
    untraced, traced, traced_raw = [], [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        untraced.append(runner.run_pass(configs)[1])
        with instrument(tracer):
            raw, wall, _, _ = runner.run_pass(configs)
        traced_raw.append(raw)
        traced.append(wall)

    n = len(traced)
    calls, self_s, counters = tracer.calls, tracer.self_s, tracer.counters
    m = {}
    for name in COUNTED_SPANS:
        m[f"{name}.calls"] = (calls[name] / n, "count")
    for name in TIMED_SPANS:
        m[f"{name}.self_s"] = (self_s[name] / n, "s")
    m["kernels.loss_grad.flops"] = (counters["kernels.loss_grad.flops"] / n, "flop_computed")
    m["kernels.loss_grad.bytes"] = (counters["kernels.loss_grad.bytes"] / n, "B_computed")
    m["protocol.select.kept_ratio"] = (
        counters["protocol.select.kept"] / counters["protocol.select.candidates"],
        "1",
    )
    m["protocol.gate.train_ratio"] = (counters["protocol.gate.trained"] / calls["protocol.gate"], "1")
    m["protocol.aggregate.models"] = (counters["protocol.aggregate.models"] / n, "count")
    attempts = counters["datahub.partition.class_splits"] / counters["datahub.partition.nonempty_classes"]
    m["datahub.partition.attempts"] = (attempts, "count")
    m["datahub.partition.useful_ratio"] = (1.0 / attempts, "1")
    m["trace.wall_untraced_s"] = (statistics.median(untraced), "s")
    m["trace.wall_traced_s"] = (statistics.median(traced), "s")
    m["trace.overhead_ratio"] = (statistics.median(traced) / statistics.median(untraced), "1")
    # self times are raw seconds, so they are checked against raw traced wall time
    wall_traced = sum(traced_raw)
    residual = (wall_traced - tracer.total_self_s()) / wall_traced
    m["trace.residual_ratio"] = (residual, "1")
    runner.attempted += 1
    errors = []
    if not 0.0 <= residual <= RESIDUAL_LIMIT:
        errors.append(f"layer self times leave {residual:.1%} of traced wall time unaccounted for")
    # a wrapper its caller no longer reaches moves that layer's time into its
    # parent's self time, which the residual cannot see; its span then never opens
    never_entered = [name for name in TIMED_SPANS if not calls[name]]
    if never_entered:
        errors.append(f"spans never entered in a traced pass: {', '.join(never_entered)}")
    if errors:
        runner.failures.append({"config": "trace", "errors": errors})
    report = {
        "passes": {"untraced": len(untraced), "traced": n},
        "untraced_wall_s": spread(untraced),
        "traced_wall_s": spread(traced),
        "layer_share_of_traced_wall_pct": {
            name: self_s[name] * 100 / wall_traced for name in sorted(self_s, key=self_s.get, reverse=True)
        },
    }
    return m, report


def main(argv=None) -> int:
    svote = import_svote()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=12)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    workload = WORKLOADS[args.workload]
    seeds = workload.config_seeds(args.seed, workload.seeds_per_run)
    SCRATCH.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=SCRATCH, prefix="perfbench-") as scratch:
        runner = Runner(svote, scratch)
        measure = measure_layers if args.trace else measure_end_to_end
        metrics, report = measure(svote, runner, workload, seeds, args.seconds)

    report["environment"] = environment(svote, args.workload, args.seed, seeds)
    report["failures"] = runner.failures
    print(json.dumps(report, indent=1, default=str))
    failed = len(runner.failures)
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": runner.attempted,
                "failed": failed,
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
