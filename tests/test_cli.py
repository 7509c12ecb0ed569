"""Config parsing, experiment artifacts, comparison, and exit codes."""

import glob
import hashlib
import json
import os
import re
import subprocess
import sys
import weakref
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import evaluated_models
from svote import cli, protocol
from svote.errors import CompareError, ConfigError

MINIMAL = "method = fedavg\ndataset = synthetic\nnum_clients = 10\nseed = 1\n"

FAST = (
    "method = {method}\n"
    "dataset = synthetic\n"
    "num_clients = 5\n"
    "seed = {seed}\n"
    "rounds = 6\n"
    "alpha = 0.5\n"
    "lr = 0.1\n"
    "batch_size = 16\n"
    "synthetic.num_classes = 4\n"
    "synthetic.input_dim = 8\n"
    "synthetic.per_class = 100\n"
    "svote.t_init = 2\n"
    "svote.n_diverge = 1\n"
)


def write_config(tmp_path, text, name="exp.cfg"):
    path = os.path.join(str(tmp_path), name)
    with open(path, "w") as f:
        f.write(text)
    return path


class TestParseConfig:
    def test_minimal_defaults(self):
        cfg = cli.parse_config_text(MINIMAL)
        assert cfg.rounds == 30
        assert cfg.alpha == 0.5
        assert cfg.topology == "full"
        assert cfg.batch_size == 32
        assert cfg.lr == pytest.approx(1e-3)
        assert cfg.local_epochs == 2
        assert cfg.t_init == 5 and cfg.n_diverge == 2
        assert cfg.v_min == "half"

    def test_unknown_key_named_with_line(self):
        with pytest.raises(ConfigError, match=r"2: unknown key 'foo'"):
            cli.parse_config_text("method = fedavg\nfoo = 1\n")

    def test_type_error_named(self):
        with pytest.raises(ConfigError, match=r"num_clients"):
            cli.parse_config_text(MINIMAL.replace("num_clients = 10", "num_clients = ten"))

    def test_range_violation_single_client(self):
        with pytest.raises(ConfigError, match="num_clients"):
            cli.parse_config_text(MINIMAL.replace("num_clients = 10", "num_clients = 1"))

    def test_missing_required(self):
        with pytest.raises(ConfigError, match="seed"):
            cli.parse_config_text("method = fedavg\ndataset = synthetic\nnum_clients = 4\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            cli.parse_config_text(MINIMAL + "seed = 2\n")

    def test_comments_and_blank_lines(self):
        cfg = cli.parse_config_text("# experiment\n\n" + MINIMAL + "rounds = 7  # short\n")
        assert cfg.rounds == 7

    def test_phase_budget_cross_check(self):
        text = MINIMAL.replace("fedavg", "svote") + "rounds = 7\n"
        with pytest.raises(ConfigError, match="t_init"):
            cli.parse_config_text(text)

    def test_v_min_values(self):
        assert cli.parse_config_text(MINIMAL + "svote.v_min = 3\n").v_min == 3
        with pytest.raises(ConfigError, match="v_min"):
            cli.parse_config_text(MINIMAL + "svote.v_min = -1\n")

    def test_idx_requires_existing_files(self, tmp_path):
        text = MINIMAL.replace("synthetic", "idx") + "idx.images = /nope/img\nidx.labels = /nope/lab\n"
        with pytest.raises(ConfigError, match="not found"):
            cli.parse_config_text(text)

    def test_round_trip(self):
        cfg = cli.parse_config_text(FAST.format(method="svote", seed=9) + "svote.tau = 0.25\n")
        again = cli.parse_config_text(cli.render_config(cfg))
        assert again == cfg


_FINITE = dict(allow_nan=False, allow_infinity=False)
_POSITIVE = st.floats(min_value=0.0, exclude_min=True, **_FINITE)
_NON_NEGATIVE = st.floats(min_value=0.0, **_FINITE)
_PATH = st.text(st.characters(exclude_characters="#", exclude_categories=("Cs",)), min_size=1).filter(
    lambda s: s.strip() == s and s.splitlines() == [s]
)

# a valid value for every config field
VALID = {
    "method": st.sampled_from(["svote", "fedavg", "fedprox", "scaffold"]),
    "dataset": st.sampled_from(["synthetic", "idx"]),
    "alpha": _POSITIVE,
    "num_clients": st.integers(min_value=2),
    "seed": st.integers(min_value=0),
    "rounds": st.integers(min_value=1),
    "test_fraction": st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    "topology": st.sampled_from(["full", "erdos"]),
    "erdos_p": st.floats(0.0, 1.0, exclude_min=True),
    "model": st.sampled_from(["softmax", "mlp"]),
    "hidden_dim": st.integers(min_value=1),
    "syn_num_classes": st.integers(min_value=2),
    "syn_input_dim": st.integers(min_value=1),
    "syn_per_class": st.integers(min_value=1),
    "syn_spread": _POSITIVE,
    "idx_images": st.none() | _PATH,
    "idx_labels": st.none() | _PATH,
    "idx_limit": st.integers(min_value=1),
    "lr": _POSITIVE,
    "batch_size": st.integers(min_value=1),
    "local_epochs": st.integers(min_value=1),
    "prox_mu": _NON_NEGATIVE,
    "tau": st.floats(**_FINITE),
    "t_init": st.integers(min_value=1),
    "n_diverge": st.integers(min_value=0),
    "v_min": st.just("half") | st.integers(min_value=0),
    "refresh_selection": st.booleans(),
    "suppress_nontrainer_updates": st.booleans(),
    "c_train": _NON_NEGATIVE,
    "c_agg": _NON_NEGATIVE,
    "c_comm": _NON_NEGATIVE,
}

REQUIRED = dict(method="fedavg", dataset="synthetic", num_clients=10, seed=1)


@st.composite
def valid_configs(draw):
    values = {name: draw(strategy) for name, strategy in VALID.items()}
    if values["method"] == "svote":
        values["rounds"] = values["t_init"] + values["n_diverge"] + draw(st.integers(min_value=1))
    if values["dataset"] == "idx":
        values["idx_images"] = values["idx_labels"] = __file__  # the files must exist
    return cli.ExperimentConfig(**values)


def _key_of(name):
    return next(f.metadata["key"] for f in fields(cli.ExperimentConfig) if f.name == name)


class TestConfigKeys:
    def test_every_field_has_a_valid_strategy(self):
        assert list(VALID) == [f.name for f in fields(cli.ExperimentConfig)]

    @given(valid_configs())
    @settings(max_examples=200, deadline=None)
    def test_rendered_config_parses_back(self, cfg):
        assert cli.parse_config_text(cli.render_config(cfg)) == cfg

    @given(
        st.one_of(
            st.text(max_size=6),
            st.integers(),
            st.floats(),
            st.booleans(),
            st.none(),
            st.sampled_from(["ring", "yes", "x", "foo", "a#b", " a", "a\n", "-1", "3.5"]),
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_a_value_its_key_rejects_fails_the_config(self, value):
        base = cli.ExperimentConfig(**REQUIRED)
        for f in fields(cli.ExperimentConfig):
            try:
                f.metadata["parse"](cli._value_str(value))
                continue
            except ValueError:
                pass
            named = re.escape(f"key {f.metadata['key']!r}")
            with pytest.raises(ConfigError, match=named):
                cli.ExperimentConfig(**{**REQUIRED, f.name: value})
            with pytest.raises(ConfigError, match=named):
                replace(base, **{f.name: value})

    @pytest.mark.parametrize(
        "name, value",
        [
            ("topology", "ring"),
            ("seed", -1),
            ("refresh_selection", "yes"),
            ("v_min", "x"),
            ("dataset", "foo"),
            ("num_clients", 3.5),
            ("v_min", "03"),
            ("v_min", "3"),
            ("num_clients", "5"),
        ],
    )
    def test_direct_and_replaced_configs_obey_the_key_rules(self, name, value):
        named = re.escape(f"key {_key_of(name)!r}")
        with pytest.raises(ConfigError, match=named):
            cli.ExperimentConfig(**{**REQUIRED, name: value})
        with pytest.raises(ConfigError, match=named):
            replace(cli.parse_config_text(MINIMAL), **{name: value})

    @pytest.mark.parametrize("path", ["/data/set#1/img", " /data/img", "/data/img ", "/data/a\nb", "/data/a\u2028b"])
    def test_idx_path_the_config_text_cannot_carry_is_rejected(self, path):
        # text parsing cuts a line at '#' and strips it, so such a path's echo
        # would re-parse to another path
        with pytest.raises(ConfigError, match="idx.images"):
            replace(cli.parse_config_text(MINIMAL), idx_images=path)

    def test_numpy_scalars_echo_as_plain_numbers(self):
        import numpy as np

        cfg = replace(cli.parse_config_text(MINIMAL), lr=np.float64(0.25), num_clients=np.int64(5))
        assert cli.parse_config_text(cli.render_config(cfg)) == cfg
        assert "lr = 0.25\n" in cli.render_config(cfg)

    def test_cross_rules_hold_for_direct_configs(self):
        with pytest.raises(ConfigError, match="t_init"):
            cli.ExperimentConfig(**{**REQUIRED, "method": "svote", "rounds": 7})
        with pytest.raises(ConfigError, match="idx.images"):
            replace(cli.parse_config_text(MINIMAL), dataset="idx")


class TestRunExperiment:
    def test_artifacts_and_row_count(self, tmp_path):
        cfg = cli.parse_config_text(FAST.format(method="fedavg", seed=3))
        out = os.path.join(str(tmp_path), "run")
        summary = cli.run_experiment(cfg, out)
        with open(os.path.join(out, "metrics.csv")) as f:
            lines = f.read().splitlines()
        assert lines[0] == cli.CSV_HEADER
        assert len(lines) == 1 + cfg.rounds * cfg.num_clients
        assert summary["rounds"] == cfg.rounds
        assert 0.0 <= summary["final_f1_mean"] <= 1.0
        assert summary["total_bytes_sent"] == summary["total_bytes_received"]
        # fedavg traffic must match the analytic equivalent exactly
        assert summary["total_bytes_sent"] == summary["fedavg_equivalent_bytes"]
        assert summary["byte_reduction_pct"] == 0.0
        assert summary["numpy_version"] == np.__version__
        assert sorted(os.listdir(out)) == ["metrics.csv", "summary.json"]

    @pytest.mark.parametrize("method", ["fedavg", "fedprox", "scaffold", "svote"])
    def test_summary_totals_are_sums_of_the_csv_columns(self, tmp_path, method):
        # the per-round records are the only store of per-client traffic,
        # energy and work: each summary total is its column summed in row order
        out = os.path.join(str(tmp_path), "run")
        cli.run_experiment(cli.parse_config_text(FAST.format(method=method, seed=3)), out)
        with open(os.path.join(out, "metrics.csv")) as f:
            header, *rows = [line.split(",") for line in f.read().splitlines()]
        with open(os.path.join(out, "summary.json")) as f:
            summary = json.load(f)
        column = {name: [row[i] for row in rows] for i, name in enumerate(header)}

        def total(name, parse):
            acc = parse(0)
            for value in column[name]:
                acc += parse(value)
            return acc

        assert summary["total_bytes_sent"] == total("bytes_sent", int)
        assert summary["total_bytes_received"] == total("bytes_received", int)
        for phase in ("train", "agg", "comm"):
            assert summary["energy_kwh"][phase] == total(f"e_{phase}", float)
        assert summary["work_units_total"] == total("work_units", int)
        per_client = [0] * summary["num_clients"]
        for client, units in zip(column["client"], column["work_units"]):
            per_client[int(client)] += int(units)
        assert summary["work_units_per_client"] == per_client

    @pytest.mark.parametrize("method", ["scaffold", "svote"])
    def test_summary_digest_is_the_final_model_matrix(self, tmp_path, method):
        # the last round evaluates every row of the final n x P model matrix,
        # in client order; the digest hashes its dtype, shape, then bytes
        cfg = cli.parse_config_text(FAST.format(method=method, seed=3))
        with evaluated_models() as models:
            summary = cli.run_experiment(cfg, str(tmp_path))
        final = np.stack(models[-cfg.num_clients :])
        digest = hashlib.sha256(f"{final.dtype.str}{final.shape}".encode())
        digest.update(final.tobytes())
        assert summary["final_models_sha256"] == digest.hexdigest()

    @pytest.mark.parametrize("blocked",["metrics.csv", "summary.json"])
    def test_failed_export_leaves_no_file_it_wrote(self, tmp_path, capsys, blocked):
        # a directory where an artifact goes: both are written, neither moves in
        path = write_config(tmp_path, FAST.format(method="fedavg", seed=3))
        out = os.path.join(str(tmp_path), "out")
        os.makedirs(os.path.join(out, blocked))
        assert cli.main(["run", "--config", path, "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {out}: ") and len(err.splitlines()) == 1
        assert os.listdir(out) == [blocked]
        assert os.listdir(os.path.join(out, blocked)) == []

    def test_summary_uses_the_topology_the_run_used(self, monkeypatch):
        cfg = cli.parse_config_text(FAST.format(method="fedavg", seed=4) + "topology = erdos\nerdos.p = 0.6\n")
        result = cli.execute(cfg)
        assert result.topology == cli.build_topology(cfg)
        monkeypatch.setattr(cli, "build_topology", lambda cfg: pytest.fail("topology rebuilt"))
        summary = cli.build_summary(cfg, result)
        assert summary["fedavg_equivalent_bytes"] == summary["total_bytes_sent"]

    @pytest.mark.parametrize("method", ["svote", "fedavg"])
    def test_dataset_is_freed_before_the_engine_starts(self, monkeypatch, method):
        # the shards hold a copy of every row: a dataset still alive in the
        # rounds would hold the data twice at a run's peak
        datasets, started = [], []
        build_dataset = cli.build_dataset

        def tracked_build_dataset(cfg):
            data = build_dataset(cfg)
            datasets.append(weakref.ref(data))
            return data

        def checked(engine):
            def run(*args, **kwargs):
                started.append(engine.__name__)
                assert len(datasets) == 1 and datasets[0]() is None, "the dataset outlives its shards"
                return engine(*args, **kwargs)

            return run

        monkeypatch.setattr(cli, "build_dataset", tracked_build_dataset)
        monkeypatch.setattr(protocol, "run_svote", checked(protocol.run_svote))
        monkeypatch.setattr(protocol, "run_baseline", checked(protocol.run_baseline))
        cli.execute(cli.parse_config_text(FAST.format(method=method, seed=3)))
        assert started == ["run_svote" if method == "svote" else "run_baseline"]

    @pytest.mark.parametrize("field", ["c_train", "c_agg", "c_comm", "lr", "prox_mu"])
    def test_non_finite_direct_config_writes_nothing(self, tmp_path, field):
        # built directly, so no config-text parser sees the value: the config
        # itself rejects it, before anything runs
        cfg = cli.parse_config_text(FAST.format(method="fedprox", seed=3))
        out = os.path.join(str(tmp_path), "run")
        with pytest.raises(ConfigError, match="finite"):
            cli.run_experiment(replace(cfg, **{field: float("nan")}), out)
        assert not os.path.exists(out)

    def test_byte_identical_reruns(self, tmp_path):
        cfg = cli.parse_config_text(FAST.format(method="svote", seed=5))
        out1 = os.path.join(str(tmp_path), "a")
        out2 = os.path.join(str(tmp_path), "b")
        cli.run_experiment(cfg, out1)
        cli.run_experiment(cfg, out2)
        for name in ("metrics.csv", "summary.json"):
            with open(os.path.join(out1, name), "rb") as f:
                blob1 = f.read()
            with open(os.path.join(out2, name), "rb") as f:
                blob2 = f.read()
            assert blob1 == blob2

    def test_numpy_scalar_fields_run_as_their_plain_values(self, tmp_path):
        # a numpy scalar equal to a key's value is accepted and kept as the
        # plain value it parses to: json.dumps of the summary's seed failed
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        cfg = cli.parse_config(os.path.join(root, "configs", "svote_noniid.cfg"))
        numeric = {f.name: getattr(cfg, f.name) for f in fields(cfg) if type(getattr(cfg, f.name)) in (int, float)}
        assert {"seed", "num_clients", "lr", "tau", "v_min"} <= numeric.keys()
        scalars = replace(cfg, **{name: np.asarray(value)[()] for name, value in numeric.items()})
        assert {name: type(getattr(scalars, name)) for name in numeric} == {
            name: type(value) for name, value in numeric.items()
        }
        outs = [os.path.join(str(tmp_path), name) for name in ("plain", "numpy")]
        cli.run_experiment(cfg, outs[0])
        cli.run_experiment(scalars, outs[1])
        for name in ("metrics.csv", "summary.json"):
            blobs = []
            for out in outs:
                with open(os.path.join(out, name), "rb") as f:
                    blobs.append(f.read())
            assert blobs[0] == blobs[1]

    def test_summary_config_echo_round_trips(self, tmp_path):
        cfg = cli.parse_config_text(FAST.format(method="svote", seed=5))
        out = os.path.join(str(tmp_path), "run")
        summary = cli.run_experiment(cfg, out)
        echo = "".join(f"{k} = {v}\n" for k, v in summary["config"].items())
        assert cli.parse_config_text(echo) == cfg

    def test_svote_summary_reports_byte_reduction(self, tmp_path):
        cfg = cli.parse_config_text(FAST.format(method="svote", seed=5))
        summary = cli.run_experiment(cfg, os.path.join(str(tmp_path), "sv"))
        assert summary["fedavg_equivalent_bytes"] > 0
        assert "byte_reduction_pct" in summary

    def test_seed_override_changes_output(self, tmp_path):
        cfg = cli.parse_config_text(FAST.format(method="fedavg", seed=3))
        s1 = cli.run_experiment(cfg, os.path.join(str(tmp_path), "s1"))
        from dataclasses import replace

        s2 = cli.run_experiment(replace(cfg, seed=4), os.path.join(str(tmp_path), "s2"))
        assert s1["final_f1_per_client"] != s2["final_f1_per_client"]

    def test_idx_dataset_end_to_end(self, tmp_path):
        import struct

        import numpy as np

        rng = np.random.default_rng(0)
        # 4 distinguishable 6x6 digit classes, enough samples for min_shard
        n, side, classes = 800, 6, 4
        labels = (np.arange(n) % classes).astype(np.uint8)
        images = rng.integers(0, 60, size=(n, side, side)).astype(np.uint8)
        for i in range(n):
            images[i, labels[i], :] = 255  # class-coded bright row
        img = os.path.join(str(tmp_path), "img.idx")
        lab = os.path.join(str(tmp_path), "lab.idx")
        with open(img, "wb") as f:
            f.write(struct.pack(">IIII", 0x803, n, side, side) + images.tobytes())
        with open(lab, "wb") as f:
            f.write(struct.pack(">II", 0x801, n) + labels.tobytes())
        text = (
            "method = svote\ndataset = idx\nnum_clients = 4\nseed = 2\nrounds = 6\n"
            f"idx.images = {img}\nidx.labels = {lab}\nidx.limit = 800\n"
            "lr = 0.5\nbatch_size = 16\nsvote.t_init = 2\nsvote.n_diverge = 1\n"
        )
        cfg = cli.parse_config_text(text)
        out = os.path.join(str(tmp_path), "run")
        summary = cli.run_experiment(cfg, out)
        assert summary["param_count"] == (side * side + 1) * classes
        assert summary["final_f1_mean"] > 0.5  # bright-row classes are separable
        assert os.path.exists(os.path.join(out, "metrics.csv"))

    def test_mlp_model_end_to_end(self, tmp_path):
        text = FAST.format(method="fedavg", seed=3) + "model = mlp\nmodel.hidden_dim = 8\n"
        cfg = cli.parse_config_text(text)
        summary = cli.run_experiment(cfg, os.path.join(str(tmp_path), "mlp"))
        assert summary["param_count"] == (8 + 1) * 8 + (8 + 1) * 4
        assert 0.0 <= summary["final_f1_mean"] <= 1.0


class TestMainAndExitCodes:
    def test_validate_ok(self, tmp_path, capsys):
        path = write_config(tmp_path, MINIMAL)
        assert cli.main(["validate", "--config", path]) == 0
        assert "OK" in capsys.readouterr().out

    def test_validate_bad_config_exit_1(self, tmp_path, capsys):
        path = write_config(tmp_path, MINIMAL + "foo = 1\n")
        assert cli.main(["validate", "--config", path]) == 1
        assert "unknown key" in capsys.readouterr().err

    def test_missing_dataset_file_exit_1_no_artifacts(self, tmp_path, capsys):
        text = MINIMAL.replace("synthetic", "idx") + "idx.images = /nope\nidx.labels = /nope\n"
        path = write_config(tmp_path, text)
        out = os.path.join(str(tmp_path), "out")
        assert cli.main(["run", "--config", path, "--out", out]) == 1
        assert not os.path.exists(os.path.join(out, "metrics.csv"))

    def test_run_and_seed_override(self, tmp_path, capsys):
        path = write_config(tmp_path, FAST.format(method="fedavg", seed=3))
        out = os.path.join(str(tmp_path), "out")
        assert cli.main(["run", "--config", path, "--out", out, "--seed", "11"]) == 0
        with open(os.path.join(out, "summary.json")) as f:
            assert json.load(f)["seed"] == 11

    @pytest.mark.parametrize("seed, message", [("-1", "must be >= 0"), ("1.5", "expected an integer")])
    def test_invalid_seed_override_exit_1_no_artifacts(self, tmp_path, capsys, seed, message):
        # the override obeys the seed key's rules, so the config echo re-parses
        path = write_config(tmp_path, FAST.format(method="fedavg", seed=3))
        out = os.path.join(str(tmp_path), "out")
        assert cli.main(["run", "--config", path, "--out", out, "--seed", seed]) == 1
        err = capsys.readouterr().err
        assert "--seed" in err and message in err
        assert not os.path.exists(out)

    def test_unwritable_out_exit_2_after_the_run(self, tmp_path, capsys):
        path = write_config(tmp_path, FAST.format(method="fedavg", seed=3))
        blocker = os.path.join(str(tmp_path), "a-file")
        with open(blocker, "w"):
            pass
        assert cli.main(["run", "--config", path, "--out", os.path.join(blocker, "run")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write ") and len(err.splitlines()) == 1

    def test_malformed_idx_content_exit_2(self, tmp_path, capsys):
        # files exist (validation passes) but carry a bad magic: runtime error
        img = os.path.join(str(tmp_path), "img.idx")
        lab = os.path.join(str(tmp_path), "lab.idx")
        for p in (img, lab):
            with open(p, "wb") as f:
                f.write(b"\x00\x00\x00\x00garbage")
        text = MINIMAL.replace("synthetic", "idx") + f"idx.images = {img}\nidx.labels = {lab}\n"
        path = write_config(tmp_path, text)
        out = os.path.join(str(tmp_path), "out")
        assert cli.main(["run", "--config", path, "--out", out]) == 2
        assert "bad magic" in capsys.readouterr().err
        assert not os.path.exists(os.path.join(out, "metrics.csv"))

    def test_idx_header_claiming_more_than_the_file_exit_2(self, tmp_path, capsys):
        # 0xFFFFFFFF images of 0xFFFFFFFF x 0xFFFFFFFF pixels in a 16-byte file
        img = os.path.join(str(tmp_path), "img.idx")
        lab = os.path.join(str(tmp_path), "lab.idx")
        with open(img, "wb") as f:
            f.write(b"\x00\x00\x08\x03" + b"\xff" * 12)
        with open(lab, "wb") as f:
            f.write(b"\x00\x00\x08\x01\x00\x00\x00\x01\x00")
        text = MINIMAL.replace("synthetic", "idx") + f"idx.images = {img}\nidx.labels = {lab}\n"
        path = write_config(tmp_path, text)
        out = os.path.join(str(tmp_path), "out")
        assert cli.main(["run", "--config", path, "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {img}: truncated file") and len(err.splitlines()) == 1
        assert not os.path.exists(os.path.join(out, "metrics.csv"))

    def test_compare_incompatible_exit_2(self, tmp_path, capsys):
        p1 = write_config(tmp_path, FAST.format(method="fedavg", seed=3), "a.cfg")
        p2 = write_config(
            tmp_path, FAST.format(method="fedavg", seed=3).replace("num_classes = 4", "num_classes = 6"), "b.cfg"
        )
        out1 = os.path.join(str(tmp_path), "r1")
        out2 = os.path.join(str(tmp_path), "r2")
        assert cli.main(["run", "--config", p1, "--out", out1]) == 0
        assert cli.main(["run", "--config", p2, "--out", out2]) == 0
        assert cli.main(["compare", out1, out2]) == 2


class TestCompare:
    def _two_runs(self, tmp_path, m1="fedavg", m2="svote", seed=5):
        c1 = cli.parse_config_text(FAST.format(method=m1, seed=seed))
        c2 = cli.parse_config_text(FAST.format(method=m2, seed=seed))
        d1 = os.path.join(str(tmp_path), "r1")
        d2 = os.path.join(str(tmp_path), "r2")
        cli.run_experiment(c1, d1)
        cli.run_experiment(c2, d2)
        return d1, d2

    def test_self_compare_all_zero_deltas(self, tmp_path):
        import re

        d1, _ = self._two_runs(tmp_path)
        table = cli.compare_runs([d1, d1])
        deltas = re.findall(r"\(([+-][\d.]+%)\)", table)
        assert deltas and all(d == "+0.00%" for d in deltas)

    def test_three_runs_three_columns(self, tmp_path):
        d1, d2 = self._two_runs(tmp_path)
        table = cli.compare_runs([d1, d2, d1])
        header = table.splitlines()[0]
        assert header.count("|") == 3

    def test_svote_vs_fedavg_byte_delta_negative(self, tmp_path):
        d1, d2 = self._two_runs(tmp_path)
        with open(os.path.join(d1, "summary.json")) as f:
            fed = json.load(f)
        with open(os.path.join(d2, "summary.json")) as f:
            sv = json.load(f)
        assert sv["actions"]["skip"] > 0  # seed 5 exercises suppression
        assert sv["total_bytes_sent"] < fed["total_bytes_sent"]

    @pytest.mark.parametrize(
        "malform, message",
        [
            (lambda s: [s], "not a JSON object"),
            (lambda s: {k: v for k, v in s.items() if k != "work_units_total"}, "work_units_total"),
            (lambda s: {**s, "final_f1_std": "0.1"}, "final_f1_std"),
            (lambda s: {**s, "energy_kwh": {}}, "energy_kwh.total"),
            (lambda s: {k: v for k, v in s.items() if k != "config"}, "config"),
        ],
        ids=["list", "missing-key", "string-number", "missing-nested-key", "missing-config"],
    )
    def test_malformed_summary_rejected_exit_2(self, tmp_path, capsys, malform, message):
        d1 = os.path.join(str(tmp_path), "r1")
        cli.run_experiment(cli.parse_config_text(FAST.format(method="fedavg", seed=3)), d1)
        with open(os.path.join(d1, "summary.json")) as f:
            summary = json.load(f)
        bad = os.path.join(str(tmp_path), "bad")
        os.makedirs(bad)
        with open(os.path.join(bad, "summary.json"), "w") as f:
            json.dump(malform(summary), f)
        with pytest.raises(CompareError, match=message):
            cli.compare_runs([d1, bad])
        assert cli.main(["compare", bad, d1]) == 2
        assert message in capsys.readouterr().err

    def test_data_keys_are_the_data_defining_fields_in_order(self):
        # the first key that differs is the one an incompatible compare names
        assert cli._DATASET_KEYS == (
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

    def test_fewer_than_two_dirs_rejected(self):
        with pytest.raises(ConfigError):
            cli.compare_runs(["just-one"])

    def test_incompatible_datasets_rejected(self, tmp_path):
        c1 = cli.parse_config_text(FAST.format(method="fedavg", seed=3))
        c2 = cli.parse_config_text(FAST.format(method="fedavg", seed=3).replace("per_class = 100", "per_class = 120"))
        d1 = os.path.join(str(tmp_path), "r1")
        d2 = os.path.join(str(tmp_path), "r2")
        cli.run_experiment(c1, d1)
        cli.run_experiment(c2, d2)
        with pytest.raises(CompareError, match="per_class"):
            cli.compare_runs([d1, d2])


_IMPORTED_BY_A_RUN = """
import glob, json, os, sys
import svote
from svote import cli

def numpy_modules():
    return {name for name in sys.modules if name == "numpy" or name.startswith("numpy.")}

before = numpy_modules()
for i, path in enumerate(sorted(glob.glob(os.path.join("configs", "*.cfg")))):
    cli.run_experiment(cli.parse_config(path), os.path.join(sys.argv[1], str(i)))
print(json.dumps(sorted(numpy_modules() - before)))
"""


def test_sample_runs_import_no_numpy_module_but_numpy_random(tmp_path):
    # a run's numpy modules are those `import svote` loads, plus the seeded
    # generators' numpy.random; numpy.ma, which np.unique imports, added a
    # megabyte to a fresh process's peak RSS
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = {**os.environ, "PYTHONPATH": os.path.join(root, "src")}
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORTED_BY_A_RUN, str(tmp_path)], capture_output=True, text=True, cwd=root, env=env
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    loaded = json.loads(proc.stdout)
    assert len(glob.glob(os.path.join(root, "configs", "*.cfg"))) == 2 and len(os.listdir(tmp_path)) == 2
    assert [m for m in loaded if m != "numpy.random" and not m.startswith("numpy.random.")] == []
