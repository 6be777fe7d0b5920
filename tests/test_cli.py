import copy
import dataclasses
import itertools
import json
import os
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fracphase.analysis
import fracphase.cli
import fracphase.config
import fracphase.spectral
import fracphase.timestepper
from conftest import bench_workload, read_manifest, read_timeseries
from fracphase.cli import (EXIT_CHECK, EXIT_CONFIG, EXIT_INTERNAL, EXIT_IO, EXIT_OK,
                           EXIT_SOLVER, OUTPUT_ROOT_ENV, TIMESERIES_HEADER, _BLOCK_ROWS,
                           _coordinate_text, _fmt, _table, _write_atomic, config_hash,
                           emit_run_outputs, main)
from fracphase.config import (ConfigError, apply_overrides, build_system, load_raw_config,
                              read_study, validate_config)
from fracphase.potentials import double_obstacle_potential
from fracphase.spectral import SpectralBasis, build_basis
from fracphase.timestepper import BlowupError, integrate

CONFIGS = os.path.join(os.path.dirname(__file__), os.pardir, "configs")
SMOKE = {
    "geometry": {
        "a": {"kind": "interval_neumann", "extent": 1.0, "n_modes": 6, "m_grid": 48},
        "b": {"kind": "interval_neumann", "extent": 1.0, "n_modes": 6, "m_grid": 48},
    },
    "exponents": {"r": 0.5, "sigma": 0.5},
    "potential": {"kind": "regular", "gamma": 1.0, "eps": 0.01},
    "coupling": {"kind": "constant", "value": 0.7},
    "data": {
        "theta0": [{"kind": "constant", "value": 0.1},
                   {"kind": "cos", "k": 1, "amplitude": 0.5}],
        "phi0": [{"kind": "constant", "value": 0.1},
                 {"kind": "cos", "k": 1, "amplitude": 0.3}],
        "source": {"space": {"kind": "cos", "k": 1, "amplitude": 0.5},
                   "time": {"kind": "exp", "rate": -1.0}},
    },
    "scheme": {"scheme": "imex_euler", "dt": 0.002, "t_final": 0.1,
               "snapshot_stride": 5},
    "output": {"directory": "run", "grid_times": [0.0, 0.1]},
    "seed": 7,
}


# a proximal double-obstacle run at eps = 0 whose coupling drives phi onto
# both contact sets phi = 1 and phi = -1
OBSTACLE_CONTACT = dict(
    SMOKE, potential={"kind": "double_obstacle", "c2": 0.5, "eps": 0.0},
    coupling={"kind": "constant", "value": 2.0},
    data={"theta0": [{"kind": "cos", "k": 1, "amplitude": 10.0}],
          "phi0": [{"kind": "cos", "k": 1, "amplitude": 0.9}]},
    scheme={"scheme": "implicit_prox", "dt": 0.002, "t_final": 0.1, "snapshot_stride": 5})
OBSTACLE_CHECKS = ("obstacle_bound", "multiplier_sign")

# the obstacle-ladder benchmark's shape on a smaller basis and horizon: a
# sigma ladder of obstacle rows at eps = 0 that reaches both contact sets
OBSTACLE_LADDER = dict(
    OBSTACLE_CONTACT,
    geometry={side: {"kind": "interval_neumann", "extent": 1.0, "n_modes": 16,
                     "m_grid": 64} for side in ("a", "b")},
    data={"theta0": [{"kind": "cos", "k": 1, "amplitude": 2.5}],
          "phi0": [{"kind": "cos", "k": 1, "amplitude": 0.8}]},
    scheme={"scheme": "implicit_prox", "dt": 0.001, "t_final": 0.2, "snapshot_stride": 10},
    study={"relaxlimit": {"sigmas": [0.5, 0.25, 0.1, 0.05]}})


# a tiny Dirichlet/Neumann rectangle: exercises the mixed-basis paths
MIXED_RECT = {
    "geometry": {
        "a": {"kind": "rect_dirichlet", "extent": [1.0, 1.5], "n_modes": 6, "m_grid": 24},
        "b": {"kind": "rect_neumann", "extent": [1.0, 1.5], "n_modes": 6, "m_grid": 24},
    },
    "exponents": {"r": 0.5, "sigma": 0.5},
    "potential": {"kind": "regular", "gamma": 1.0, "eps": 0.01},
    "coupling": {"kind": "constant", "value": 0.5},
    "data": {
        "theta0": [{"kind": "mode", "index": 1, "amplitude": 0.4}],
        "phi0": [{"kind": "constant", "value": 0.1},
                 {"kind": "cos", "k": [1, 1], "amplitude": 0.3}],
        "source": {"space": {"kind": "sin", "k": [1, 1], "amplitude": 0.5},
                   "time": {"kind": "exp", "rate": -1.0}},
    },
    "scheme": {"scheme": "imex_euler", "dt": 0.002, "t_final": 0.1,
               "snapshot_stride": 10},
    "study": {"contdep": {"deltas": [1e-1, 1e-2, 1e-3]},
              "converge": {"axis": "n_modes", "values": [3, 6, 12]}},
    "seed": 3,
}


# the command x basis matrix: every command, every converge axis
COMMAND_CASES = [("simulate", None), ("contdep", None), ("longtime", None),
                 ("relaxlimit", None), ("selftest", None),
                 ("converge", "n_modes"), ("converge", "eps"), ("converge", "dt"),
                 ("converge", "sigma")]
CONVERGE_VALUES = {"n_modes": [3, 6, 12], "eps": [0.04, 0.02, 0.01],
                   "dt": [0.004, 0.002, 0.001], "sigma": [0.5, 0.4, 0.3]}

# config sections the shipped configs never use: a function coupling, the
# logarithmic and zero potentials, and IMEX on the regular potential at eps = 0
VARIANTS = {
    "tanh_coupling": ("coupling", {"kind": "function", "name": "tanh",
                                   "offset": 0.5, "scale": 0.2}),
    "logarithmic": ("potential", {"kind": "logarithmic", "c1": 1.5}),
    "no_potential": ("potential", {"kind": "none"}),
    "regular_eps0": ("potential", {"kind": "regular", "gamma": 1.0, "eps": 0.0}),
}


# the mixed rectangle on 36 x 36 = 1296 nodes with 51 snapshots of 12 + 12
# modes (1224 snapshot rows): both tables cross a block boundary
ORACLE_RECT = copy.deepcopy(MIXED_RECT)
ORACLE_RECT["geometry"] = {side: dict(MIXED_RECT["geometry"][side], n_modes=12, m_grid=36)
                           for side in ("a", "b")}
ORACLE_RECT["scheme"]["snapshot_stride"] = 1
ORACLE_RECT["output"] = {"directory": "run", "grid_times": [0.0, 0.05, 0.1]}

# values whose text is easy to get wrong, and random ones over the exponent range
_RNG = np.random.default_rng(5)
EDGE_VALUES = np.concatenate([
    [5e-324, -5e-324, 1e308, -1.7976931348623157e308, 0.0, -0.0, np.nan, np.inf,
     -np.inf, 1.0, -3.0, 2.0**53, 1e16, 0.1, 1.0 / 3.0],
    _RNG.standard_normal(40) * 10.0 ** _RNG.integers(-300, 300, 40)])


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def count_basis_builds(monkeypatch) -> list[tuple[int, int]]:
    """The (n_modes, m_grid) of every basis the config module builds from now on."""
    built = []
    build_basis = fracphase.config.build_basis

    def counting(kind, extent, n_modes, m_grid):
        built.append((n_modes, m_grid))
        return build_basis(kind, extent, n_modes, m_grid)

    monkeypatch.setattr(fracphase.config, "build_basis", counting)
    return built


class TestConfigValidation:
    def test_minimal_smoke_parses(self, tmp_path):
        cfg = validate_config(load_raw_config(write_config(tmp_path, SMOKE)))
        assert cfg.scheme.dt == 0.002
        assert cfg.operator_a.kind == "interval_neumann"

    def test_nonpositive_eps_rejected(self):
        bad = json.loads(json.dumps(SMOKE))
        bad["potential"]["eps"] = -1.0
        with pytest.raises(ConfigError) as info:
            validate_config(bad)
        assert any(key == "potential.eps" for key, _ in info.value.problems)

    def test_every_problem_reported(self):
        bad = json.loads(json.dumps(SMOKE))
        bad["potential"]["eps"] = -1.0
        bad["scheme"]["dt"] = 0.0
        with pytest.raises(ConfigError) as info:
            validate_config(bad)
        keys = {key for key, _ in info.value.problems}
        assert {"potential.eps", "scheme.dt"} <= keys

    def test_obstacle_eps0_needs_prox(self):
        bad = json.loads(json.dumps(SMOKE))
        bad["potential"] = {"kind": "double_obstacle", "c2": 0.5, "eps": 0.0}
        with pytest.raises(ConfigError) as info:
            validate_config(bad)
        assert any("implicit_prox" in msg for _, msg in info.value.problems)

    def test_overrides_with_json_values(self):
        raw = apply_overrides(json.loads(json.dumps(SMOKE)),
                              ["scheme.dt=0.001", "coupling.value=1.5"])
        assert raw["scheme"]["dt"] == 0.001
        assert raw["coupling"]["value"] == 1.5

    @pytest.mark.parametrize("text", [b'{"geometry": ', b"\xff{}"],
                             ids=["malformed", "not-utf8"])
    def test_unparseable_config_is_a_config_error(self, tmp_path, text):
        (tmp_path / "config.json").write_bytes(text)
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_raw_config(str(tmp_path / "config.json"))

    def test_hash_ignores_output_location_only(self):
        base = config_hash(SMOKE)
        moved = json.loads(json.dumps(SMOKE))
        moved["output"]["directory"] = "elsewhere"
        assert config_hash(moved) == base
        changed = json.loads(json.dumps(SMOKE))
        changed["scheme"]["dt"] = 0.004
        assert config_hash(changed) != base


# valid configs that set every study key and the keys of the less common
# potential, coupling and scheme kinds
STUDIES = {
    "converge": {"axis": "dt", "values": [0.004, 0.002], "n_shared_snapshots": 10},
    "contdep": {"deltas": [1e-1, 1e-2], "max_ratio_spread": 0.2, "mode_index": 1},
    "longtime": {"tail_fraction": 0.1, "tail_threshold": 1e-6,
                 "stationary_threshold": 1e-5},
    "relaxlimit": {"sigmas": [0.5, 0.25]},
}
PROPERTY_BASES = [
    dict(SMOKE, study=STUDIES),
    dict(SMOKE, study=STUDIES,
         potential={"kind": "logarithmic", "c1": 1.5, "gamma": 1.0, "eps": 0.01},
         coupling={"kind": "function", "name": "tanh", "offset": 0.5, "scale": 0.2}),
    dict(SMOKE, study=STUDIES, potential={"kind": "double_obstacle", "c2": 0.5, "eps": 0.0},
         scheme={"scheme": "implicit_prox", "dt": 0.002, "t_final": 0.1,
                 "snapshot_stride": 5, "fixed_point_tol": 1e-12}),
]
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6)


def key_paths(node, prefix=()):
    for key, value in node.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from key_paths(value, prefix + (key,))


@pytest.mark.parametrize("base", range(len(PROPERTY_BASES)))
def test_property_bases_are_valid(base):
    cfg = validate_config(PROPERTY_BASES[base])
    for command in STUDIES:
        if command == "relaxlimit" and cfg.coupling.kind == "function":
            # the relaxation limit needs a constant coupling
            with pytest.raises(ConfigError, match="study.relaxlimit"):
                read_study(cfg, command)
        else:
            read_study(cfg, command)


@settings(max_examples=1000, deadline=None)
@given(base=st.sampled_from(PROPERTY_BASES), data=st.data(), value=JSON_VALUES)
def test_any_json_value_is_read_or_a_config_error(base, data, value):
    """Any one key or section of a valid config set to any JSON value: the
    config reader and every study reader return or raise ConfigError."""
    raw = copy.deepcopy(base)
    *sections, name = data.draw(st.sampled_from(sorted(key_paths(raw))))
    node = raw
    for section in sections:
        node = node[section]
    node[name] = value
    try:
        cfg = validate_config(raw)
    except ConfigError as exc:
        assert exc.problems
        return
    for command in STUDIES:
        try:
            read_study(cfg, command)
        except ConfigError as exc:
            assert exc.problems


class TestExitCodes:
    def test_ok(self, tmp_path):
        cfg = write_config(tmp_path, SMOKE)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o"),
                     "--quiet"]) == EXIT_OK

    def test_config_error(self, tmp_path):
        cfg = write_config(tmp_path, SMOKE)
        code = main(["simulate", "--config", cfg, "--override",
                     "potential.eps=-1", "--out", str(tmp_path / "o"), "--quiet"])
        assert code == EXIT_CONFIG

    def test_solver_failure_keeps_partial_output(self, tmp_path):
        blow = json.loads(json.dumps(SMOKE))
        blow["data"]["phi0"] = [{"kind": "constant", "value": 3.0}]
        blow["potential"]["eps"] = 1e-6
        blow["scheme"] = {"scheme": "imex_euler", "dt": 10.0, "t_final": 100.0}
        cfg = write_config(tmp_path, blow)
        for command in ("simulate", "longtime"):
            out = tmp_path / command
            assert main([command, "--config", cfg, "--out", str(out),
                         "--quiet"]) == EXIT_SOLVER
            manifest = read_manifest(out)
            assert manifest["status"] == "failed"
            assert manifest["failure"]["stage"] == "solver"
            assert manifest["failure"]["exception"] == "BlowupError"
            # the third step, the one from t = 20 to 30, trips the guard
            assert (manifest["failure"]["step"], manifest["failure"]["t"],
                    manifest["failure"]["row"]) == (3, 30.0, None)
            # the message names the same step and end time
            step, t = re.search(r"in step (\d+), t=(\S+)$",
                                manifest["failure"]["message"]).groups()
            assert (int(step), float(t)) == (3, manifest["failure"]["t"])
            assert (out / "timeseries.csv").exists()

    def test_resolvent_failure_is_a_step_failure(self, tmp_path):
        # one IMEX step carries phi far outside the logarithmic domain, where
        # the resolvent behind the Moreau envelope of the snapshot fails
        cfgd = json.loads(json.dumps(SMOKE))
        cfgd["potential"] = {"kind": "logarithmic", "c1": 2.0, "eps": 0.01}
        cfgd["coupling"]["value"] = 10.0
        cfgd["data"] = {"theta0": [{"kind": "constant", "value": 20.0}],
                        "phi0": [{"kind": "constant", "value": 0.99}]}
        cfgd["scheme"] = {"scheme": "imex_euler", "dt": 0.01, "t_final": 0.1}
        out = tmp_path / "o"
        assert main(["simulate", "--config", write_config(tmp_path, cfgd), "--out",
                     str(out), "--quiet"]) == EXIT_SOLVER
        failure = read_manifest(out)["failure"]
        assert (failure["stage"], failure["exception"]) == ("solver", "BlowupError")
        assert failure["message"].startswith("resolvent failed")
        assert (failure["step"], failure["t"], failure["row"]) == (1, 0.01, None)
        assert read_timeseries(str(out / "timeseries.csv"))["t"].tolist() == [0.0]

    def test_relaxlimit_solver_failure(self, tmp_path, monkeypatch):
        # the proximal scheme does not blow up on the data above
        def blowup(*args, **kwargs):
            raise BlowupError("overflow under test")

        monkeypatch.setattr(fracphase.analysis, "integrate", blowup)
        out = tmp_path / "o"
        assert main(["relaxlimit", "--config", write_config(tmp_path, SMOKE),
                     "--out", str(out), "--quiet"]) == EXIT_SOLVER
        failure = read_manifest(out)["failure"]
        assert failure["stage"] == "solver"
        assert failure["exception"] == "BlowupError"

    def test_check_failure(self, tmp_path):
        # an impossible stability demand forces the contdep gate to fail
        strict = json.loads(json.dumps(SMOKE))
        strict["study"] = {"contdep": {"deltas": [1e-1, 1e-3],
                                       "max_ratio_spread": 1e-12}}
        cfg = write_config(tmp_path, strict)
        assert main(["contdep", "--config", cfg, "--out", str(tmp_path / "o"),
                     "--quiet"]) == EXIT_CHECK


class TestManifestStatus:
    """The exit code and the manifest status always agree, also on a crash."""

    def run(self, tmp_path, command, payload, config=None):
        out = tmp_path / "o"
        code = main([command, "--config", config or write_config(tmp_path, payload),
                     "--out", str(out), "--quiet"])
        manifest = read_manifest(out)
        assert (code == EXIT_OK) == (manifest["status"] == "ok")
        return code, manifest

    @pytest.mark.parametrize("expected,status,stage,case", [
        (EXIT_OK, "ok", None, "ok"), (EXIT_INTERNAL, "failed", "internal", "defect"),
        (EXIT_INTERNAL, "failed", "internal", "validation_defect"),
        (EXIT_CONFIG, "failed", "validation", "config"),
        (EXIT_CONFIG, "failed", "validation", "malformed_json"),
        (EXIT_CHECK, "check_failed", None, "contdep"),
        (EXIT_CHECK, "check_failed", None, "ledger"),
        (EXIT_IO, "failed", "io", "missing_config")],
        ids=["0-ok", "1-failed", "1-failed-validation", "2-failed", "2-failed-json",
             "4-check_failed", "4-check_failed-ledger", "5-failed-missing"])
    def test_status_agrees_with_exit_code(self, tmp_path, monkeypatch, expected, status,
                                          stage, case):
        cfgd, command, config = json.loads(json.dumps(SMOKE)), "simulate", None
        if case == "defect":
            monkeypatch.setattr(fracphase.cli, "integrate", None)  # a TypeError: a defect
        elif case == "validation_defect":
            def broken(raw):
                raise RuntimeError("defect under test")

            monkeypatch.setattr(fracphase.cli, "validate_config", broken)
        elif case == "malformed_json":
            config = str(tmp_path / "malformed.json")
            (tmp_path / "malformed.json").write_text('{"geometry": ')
        elif case == "missing_config":
            config = str(tmp_path / "absent.json")
        elif case == "config":
            cfgd["geometry"]["a"]["m_grid"] = 8  # rejected before any command runs
        elif case == "contdep":
            # an impossible stability demand fails the contdep gate
            cfgd["study"] = {"contdep": {"deltas": [1e-1, 1e-3],
                                         "max_ratio_spread": 1e-12}}
            command = "contdep"
        elif case == "ledger":
            # one IMEX step from phi0 = 0.99 leaves the logarithmic domain, so
            # the ledger records a non-finite potential integral
            cfgd["potential"] = {"kind": "logarithmic", "c1": 2.0, "eps": 0.0}
            cfgd["coupling"]["value"] = 10.0
            cfgd["data"] = {"theta0": [{"kind": "constant", "value": 1.0}],
                            "phi0": [{"kind": "constant", "value": 0.99}]}
            cfgd["scheme"] = {"scheme": "imex_euler", "dt": 0.01, "t_final": 0.01}
            cfgd["output"]["grid_times"] = [0.0, 0.01]
        code, manifest = self.run(tmp_path, command, cfgd, config)
        assert code == expected and manifest["status"] == status
        assert manifest.get("failure", {}).get("stage") == stage
        if case in ("malformed_json", "missing_config"):
            assert manifest["config"] is None and manifest["config_hash"] is None
        if case == "malformed_json":
            assert "not valid JSON" in manifest["failure"]["message"]

    @pytest.mark.parametrize("case", ["invalid", "malformed_json"])
    def test_rejected_config_without_out_writes_nothing(self, tmp_path, monkeypatch,
                                                        case):
        # the run directory comes from a config that never validated
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv(OUTPUT_ROOT_ENV, str(tmp_path / "root"))
        config = write_config(tmp_path, apply_overrides(SMOKE, ["geometry.a.m_grid=8"]))
        if case == "malformed_json":
            (tmp_path / "config.json").write_text("{")
        assert main(["simulate", "--config", config, "--quiet"]) == EXIT_CONFIG
        assert os.listdir(tmp_path) == ["config.json"]

    def test_module_entry_point_returns_the_exit_code(self, tmp_path):
        # python -m fracphase.cli exits with what main returns
        (tmp_path / "config.json").write_text("[1, 2")
        src = os.path.dirname(os.path.dirname(fracphase.cli.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        out = tmp_path / "o"
        proc = subprocess.run([sys.executable, "-m", "fracphase.cli", "simulate", "--config",
                               str(tmp_path / "config.json"), "--out", str(out), "--quiet"],
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == EXIT_CONFIG, proc.stderr
        manifest = read_manifest(out)
        assert (manifest["status"], manifest["failure"]["stage"]) == ("failed", "validation")

    @pytest.mark.parametrize("command,override,named", [
        ("contdep", "study.contdep.deltas=[1e308]",
         "theta0 + study.contdep.deltas[0]*mode exceeded the overflow guard"),
        ("contdep", "study.contdep.deltas=[0.1,1.7e308]",  # the shift itself overflows
         "theta0 + study.contdep.deltas[1]*mode exceeded the overflow guard"),
        ("simulate", 'data.theta0={"kind":"constant","value":1e308}',
         "theta0 exceeded the overflow guard"),
        ("simulate", 'data.phi0={"kind":"constant","value":1e100}',
         "phi0 exceeded the overflow guard"),
        ("simulate", 'data.source=[{"space":{"kind":"constant","value":1e308},"time":null},'
                     '{"space":{"kind":"constant","value":1e308},"time":null}]',
         "source product 0 exceeded the overflow guard"),  # their sum overflows
        ("simulate", 'data.source={"space":{"kind":"constant","value":1e300},"time":null}',
         "source product 0 exceeded the overflow guard"),
        ("simulate", "exponents.r=60", "exponent r = 60 overflows"),
        ("simulate", "exponents.sigma=60", "exponent sigma = 60 overflows"),
        # sqrt(3*eps) or 2*eps of the resolvents overflows in the first step
        ("simulate", "potential.eps=1e308", "Yosida level eps = 1e+308 overflows"),
        ("simulate", 'potential={"kind":"logarithmic","c1":1.5,"eps":1e308}',
         "Yosida level eps = 1e+308 overflows"),
        ("converge", 'study.converge={"axis":"eps","values":[0.04,1e308,0.0]}',
         "Yosida level eps = 1e+308 overflows")])
    def test_input_no_run_can_carry_is_a_config_error(self, tmp_path, command, override,
                                                      named):
        # each used to overflow (a RuntimeWarning, an error under this suite)
        # and fail later, as a solver or check failure or with the wrong reason
        out = tmp_path / "o"
        code = main([command, "--config", os.path.join(CONFIGS, "smoke.json"),
                     "--override", "scheme.t_final=0.01",
                     "--override", "output.grid_times=[0.0]", "--override", override,
                     "--out", str(out), "--quiet"])
        failure = read_manifest(out)["failure"]
        assert code == EXIT_CONFIG
        assert failure["stage"] == "validation"
        assert named in failure["message"]

    def test_largest_yosida_level_still_runs(self, tmp_path):
        # just below the bound eps * OVERFLOW_LIMIT < float max
        code = main(["simulate", "--config", os.path.join(CONFIGS, "smoke.json"),
                     "--override", "scheme.t_final=0.01", "--override", "output.grid_times=[0.0]",
                     "--override", "potential.eps=1e296", "--out", str(tmp_path / "o"),
                     "--quiet"])
        assert code == EXIT_OK

    @pytest.mark.parametrize("exponent", ["r", "sigma"])
    def test_exponent_times_dt_overflow_is_a_config_error(self, tmp_path, exponent):
        # the multipliers themselves are finite, but dt times them, the step
        # denominators, used to overflow (a RuntimeWarning) with status "ok"
        out = tmp_path / "o"
        code = main(["simulate", "--config", os.path.join(CONFIGS, "smoke.json"),
                     "--override", "scheme.dt=10", "--override", "scheme.t_final=10",
                     "--override", "output.grid_times=[0.0]",
                     "--override", f"exponents.{exponent}=57.41",
                     "--out", str(out), "--quiet"])
        failure = read_manifest(out)["failure"]
        assert code == EXIT_CONFIG
        assert failure["stage"] == "validation"
        assert f"exponent {exponent} = 57.41 with dt = 10 overflows" in failure["message"]

    def test_rect_grid_rule_counts_retained_axis_modes(self, tmp_path):
        # 64 modes on the unit square use 1-D modes 0..8 per axis: 36 nodes
        # per axis suffice, far below 4*n_modes = 256
        cfgd = json.loads(json.dumps(MIXED_RECT))
        for side in ("a", "b"):
            cfgd["geometry"][side].update(n_modes=64, m_grid=36)
        cfgd["geometry"]["a"]["extent"] = cfgd["geometry"]["b"]["extent"] = [1.0, 1.0]
        cfgd["scheme"].update(t_final=0.01, snapshot_stride=5)
        code, manifest = self.run(tmp_path, "simulate", cfgd)
        assert code == EXIT_OK and manifest["checks"]["energy_ledger_finite"]["passed"]
        cfgd["geometry"]["b"]["m_grid"] = 35
        code, manifest = self.run(tmp_path, "simulate", cfgd)
        assert code == EXIT_CONFIG
        assert manifest["failure"]["stage"] == "validation"
        assert "geometry.b.m_grid" in manifest["failure"]["message"]

    @pytest.mark.parametrize("label", ["a", "b"])
    def test_rect_grid_below_the_rule_names_its_key(self, tmp_path, label):
        # the rule reads the modes the basis selects, so the basis build
        # checks it, under the config key and with the text validation gives
        cfgd = json.loads(json.dumps(MIXED_RECT))
        for side in ("a", "b"):
            cfgd["geometry"][side].update(n_modes=64, m_grid=36, extent=[1.0, 1.0])
        cfgd["geometry"][label]["m_grid"] = 35
        code, manifest = self.run(tmp_path, "simulate", cfgd)
        assert code == EXIT_CONFIG and manifest["failure"]["stage"] == "validation"
        assert manifest["failure"]["message"] == (
            f"invalid configuration: geometry.{label}.m_grid: must be an integer >= 36, "
            "four times the 1-D modes per axis, got 35")

    @pytest.mark.parametrize("case, selections", [
        ("rect-mixed", 2), ("shared_rect", 1), ("interval", 1)])
    def test_one_mode_selection_per_basis(self, monkeypatch, case, selections):
        # validation reads no mode of a rectangle: each basis selects its
        # modes once, in `build_basis`
        if case == "interval":
            payload = SMOKE
        else:
            payload = copy.deepcopy(bench_workload(monkeypatch, "rect-mixed").config)
            if case == "shared_rect":
                payload["geometry"]["b"] = payload["geometry"]["a"]
        selected = []
        select = fracphase.spectral._select_modes
        monkeypatch.setattr(fracphase.spectral, "_select_modes",
                            lambda *args: selected.append(args) or select(*args))
        system = build_system(validate_config(copy.deepcopy(payload)))
        assert len(selected) == selections
        assert (system.basis_a is system.basis_b) == (selections == 1)

    def test_converge_n_modes_axis(self, tmp_path):
        cfgd = json.loads(json.dumps(SMOKE))
        cfgd["study"] = {"converge": {"axis": "n_modes", "values": [4, 6, 8]}}
        code, manifest = self.run(tmp_path, "converge", cfgd)
        assert code == EXIT_OK
        assert manifest["checks"]["errors_decrease"]["passed"]
        rows = (tmp_path / "o" / "study_converge.csv").read_text().splitlines()
        assert rows[0].startswith("n_modes,") and len(rows) == 4

    @pytest.mark.parametrize("command", ["simulate", "converge"])
    def test_bases_on_different_domains_are_rejected(self, tmp_path, command):
        """converge builds each n_modes level through the rule every command
        uses: basis b shares basis a only when both specs agree."""
        cfgd = json.loads(json.dumps(SMOKE))
        cfgd["geometry"]["b"]["extent"] = 2.0
        cfgd["study"] = {"converge": {"axis": "n_modes", "values": [4, 6, 8]}}
        code, manifest = self.run(tmp_path, command, cfgd)
        assert code == EXIT_CONFIG
        assert manifest["failure"]["stage"] == "validation"
        assert "different domains" in manifest["failure"]["message"]

    def test_grid_times_write_one_file_per_snapshot(self, tmp_path):
        cfgd = json.loads(json.dumps(SMOKE))
        cfgd["output"]["grid_times"] = [0.0, 0.001, 0.1, 0.0999]
        code, manifest = self.run(tmp_path, "simulate", cfgd)
        assert code == EXIT_OK
        grids = [f for f in manifest["files"] if f.startswith("grid_")]
        assert grids == ["grid_0.0.csv", "grid_0.1.csv"]
        assert sorted(p.name for p in (tmp_path / "o").glob("grid_*")) == grids

    def test_study_commands_ignore_grid_times(self, tmp_path):
        # only simulate and longtime write grid files
        cfgd = json.loads(json.dumps(SMOKE))
        cfgd["output"]["grid_times"] = [7.0]
        cfgd["study"] = {"contdep": {"deltas": [1e-1, 1e-2]}}
        code, _ = self.run(tmp_path, "contdep", cfgd)
        assert code == EXIT_OK

    @pytest.mark.parametrize("command", ["simulate", "contdep", "converge"])
    def test_mixed_rect_commands(self, tmp_path, command):
        """Dirichlet temperature, Neumann phase on a rectangle: the exact cross
        mass, the contdep mode perturbation and the n_modes re-expression."""
        code, manifest = self.run(tmp_path, command, MIXED_RECT)
        assert code == EXIT_OK
        assert all(check["passed"] for check in manifest["checks"].values())

    @pytest.mark.parametrize("command,axis", [
        case for case in COMMAND_CASES if case[0] != "selftest"])
    @pytest.mark.parametrize("geometry", ["interval", "rect"])
    def test_obstacle_command_matrix(self, tmp_path, geometry, command, axis):
        """The obstacle at eps = 0 under implicit_prox: every marching command
        gates both obstacle contracts (the eps axis on its eps = 0 level), and
        the longtime stationarity probe takes the convex part from the
        recorded multiplier, as no explicit beta exists.  On these short
        horizons `errors_decrease` may read false, so it is not asserted."""
        cfgd = self.matrix_config(geometry, command, axis)
        cfgd["potential"] = {"kind": "double_obstacle", "c2": 0.5, "eps": 0.0}
        cfgd["scheme"]["scheme"] = "implicit_prox"
        if axis == "eps":
            cfgd["study"]["converge"]["values"] = [0.02, 0.01, 0.0]
        code, manifest = self.run(tmp_path, command, cfgd)
        checks = manifest["checks"]
        assert code in (EXIT_OK, EXIT_CHECK) and set(OBSTACLE_CHECKS) <= set(checks)
        assert all(check["passed"] for name, check in checks.items()
                   if name != "errors_decrease")

    @staticmethod
    def matrix_config(geometry, command, axis):
        cfgd = json.loads(json.dumps(SMOKE if geometry == "interval" else MIXED_RECT))
        cfgd["study"] = {"contdep": {"deltas": [1e-1, 1e-2, 1e-3]},
                         "relaxlimit": {"sigmas": [0.5, 0.25, 0.1]},
                         "converge": {"axis": axis, "values": CONVERGE_VALUES.get(axis)}}
        if command == "longtime":
            cfgd["scheme"] = {"scheme": "imex_euler", "dt": 0.01, "t_final": 20.0,
                              "snapshot_stride": 100}
        if command == "relaxlimit" and geometry == "rect":
            cfgd["potential"]["eps"] = 0.0
        return cfgd

    @pytest.mark.parametrize("command,axis", COMMAND_CASES)
    @pytest.mark.parametrize("geometry", ["interval", "rect"])
    def test_command_matrix(self, tmp_path, geometry, command, axis):
        """Every command and converge axis on a tiny interval and a tiny
        Dirichlet/Neumann rectangle; relaxlimit marches its limit row alone
        on the interval (eps > 0) and inside the batch on the rectangle."""
        code, manifest = self.run(tmp_path, command,
                                  self.matrix_config(geometry, command, axis))
        assert code == EXIT_OK
        assert all(check["passed"] for check in manifest["checks"].values())

    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    @pytest.mark.parametrize("command,axis", [("simulate", None), ("contdep", None),
                                              ("converge", "sigma"), ("relaxlimit", None)])
    @pytest.mark.parametrize("geometry", ["interval", "rect"])
    def test_variant_matrix(self, tmp_path, geometry, command, axis, variant):
        """The command matrix on the config sections no shipped config uses;
        the relaxation limit rejects a function coupling as a study error."""
        cfgd = self.matrix_config(geometry, command, axis)
        section, entries = VARIANTS[variant]
        if section == "potential":
            entries = {"eps": cfgd["potential"]["eps"], **entries}
        cfgd[section] = entries
        if command == "relaxlimit" and variant == "tanh_coupling":
            # the study reader rejects it before any basis is built
            code, manifest = self.run(tmp_path, command, cfgd)
            assert code == EXIT_CONFIG
            assert manifest["failure"]["stage"] == "validation"
            assert "study.relaxlimit" in manifest["failure"]["message"]
        else:
            code, manifest = self.run(tmp_path, command, cfgd)
            assert code == EXIT_OK
            assert all(check["passed"] for check in manifest["checks"].values())

    @pytest.mark.parametrize("mode_index", [99, 6, -1, 1.5, "1"])
    def test_contdep_mode_index_out_of_range(self, tmp_path, mode_index):
        cfgd = json.loads(json.dumps(SMOKE))
        cfgd["study"] = {"contdep": {"deltas": [1e-1, 1e-2], "mode_index": mode_index}}
        code, manifest = self.run(tmp_path, "contdep", cfgd)
        assert code == EXIT_CONFIG
        assert manifest["failure"]["stage"] == "validation"
        assert "study.contdep.mode_index" in manifest["failure"]["message"]

    @pytest.mark.parametrize("command,config,override", [
        ("longtime", "longtime.json", "study.longtime.tail_fraction=abc"),
        ("longtime", "longtime.json", "study.longtime.tail_fraction=-1"),
        ("contdep", "smoke.json", "study.contdep.max_ratio_spread=abc"),
        ("converge", "smoke.json", "study.converge.n_shared_snapshots=0"),
        ("contdep", "smoke.json", "study.contdep.deltas=abc"),
        ("relaxlimit", "relaxlimit.json", 'study.relaxlimit.sigmas="51"'),
        ("longtime", "longtime.json", "study=[]"),
        ("converge", "smoke.json", 'study.converge={"axis":"sigma","values":[0.5,"x"]}'),
        ("converge", "smoke.json", 'study.converge={"axis":"dt","values":[0.002]}'),
        ("converge", "smoke.json", 'study.converge={"axis":"eps","values":[0.01,-0.01]}'),
        ("converge", "smoke.json", 'study.converge={"axis":"n_modes","values":[4,true]}'),
        ("contdep", "smoke.json", "study.contdep.deltas=[0.0,0.1]"),
        ("longtime", "longtime.json", "output.grid_times=[0.0,300]")])
    def test_bad_study_key_is_a_config_error(self, tmp_path, command, config, override):
        out = tmp_path / "o"
        code = main([command, "--config", os.path.join(CONFIGS, config),
                     "--override", override, "--out", str(out), "--quiet"])
        failure = read_manifest(out)["failure"]
        assert code == EXIT_CONFIG
        assert failure["stage"] == "validation"
        assert override.partition("=")[0] in failure["message"]

    @pytest.mark.parametrize("override,key", [
        ("geometry.a.n_modes=true", "geometry.a.n_modes"),
        ('geometry.a.extent="abc"', "geometry.a.extent"),
        ('output.grid_times=["x"]', "output.grid_times"),
        ("output.grid_times=[0.0,0.5]", "output.grid_times"),
        ("output.grid_times=[-0.001]", "output.grid_times"),
        ("geometry=[]", "geometry"),
        ("potential=null", "potential"),
        ("scheme.t_final=Infinity", "scheme.t_final"),
        ("scheme.t_final=1e308", "scheme.t_final"),
        ('coupling={"kind":"function","name":"tanh","offset":"x"}', "coupling.offset"),
        ("potential.eps=Infinity", "potential.eps"),
        ("coupling.value=NaN", "coupling.value"),
        ("potential.gamma=Infinity", "potential.gamma"),
        ("exponents.sigma=Infinity", "exponents.sigma"),
        ("potential.eps=true", "potential.eps"),
        ("seed=true", "seed"),
        ("scheme.snapshot_stride=true", "scheme.snapshot_stride"),
        ('data.theta0=[{"kind":"cos"}]', "data.theta0[0].k"),
        ('data.theta0=[{"kind":"cos","k":1,"amplitude":"x"}]', "data.theta0[0].amplitude"),
        ('data.source={"space":{"kind":"constant","value":1},"time":{"kind":"exp"}}',
         "data.source.time.rate"),
        ("data.theta0=5", "data.theta0")])
    def test_bad_shared_key_is_a_config_error(self, tmp_path, override, key):
        out = tmp_path / "o"
        code = main(["simulate", "--config", os.path.join(CONFIGS, "smoke.json"),
                     "--override", "scheme.t_final=0.01",
                     "--override", "output.grid_times=[0.0]", "--override", override,
                     "--out", str(out), "--quiet"])
        failure = read_manifest(out)["failure"]
        assert code == EXIT_CONFIG
        assert failure["stage"] == "validation"
        assert key in failure["message"]

    def test_manifest_without_config_object_is_a_config_error(self, tmp_path):
        out = tmp_path / "o"
        code = main(["simulate", "--config", write_config(tmp_path, {"config": 5}),
                     "--out", str(out), "--quiet"])
        manifest = read_manifest(out)
        assert code == EXIT_CONFIG
        assert manifest["failure"]["stage"] == "validation"
        assert "config: must be an object" in manifest["failure"]["message"]
        assert manifest["config"] is None

    @pytest.mark.parametrize("command,override,key", [
        ("simulate", "scheme.t_final=0.1005", "scheme.t_final"),
        ("converge", "study.converge.values=[0.003,0.0015]", "study.converge.values")])
    def test_partial_last_step_is_a_config_error(self, tmp_path, command, override, key):
        # 0.1005 is no whole number of dt = 0.002 steps, nor 0.1 of dt = 0.003
        code, manifest = self.run(tmp_path, command, apply_overrides(SMOKE, [override]))
        assert code == EXIT_CONFIG
        assert manifest["failure"]["stage"] == "validation"
        assert key in manifest["failure"]["message"]
        assert "integer number of steps" in manifest["failure"]["message"]

    def test_retired_scheme_keys_are_ignored_with_advisory(self, tmp_path):
        cfgd = json.loads(json.dumps(SMOKE))
        cfgd["scheme"].update(fixed_point_tol=1e-12, max_inner_iters=7)
        code, manifest = self.run(tmp_path, "simulate", cfgd)
        assert code == EXIT_OK
        for key in ("fixed_point_tol", "max_inner_iters"):
            assert any(f"scheme.{key} is ignored" in a for a in manifest["advisories"])

    @pytest.mark.parametrize("kind,extra", [("logarithmic", {"c1": 1.5}),
                                            ("double_obstacle", {"c2": 0.5}),
                                            ("none", {})])
    def test_gamma_of_a_fixed_slope_potential_is_ignored_with_advisory(
            self, tmp_path, kind, extra):
        cfgd = json.loads(json.dumps(SMOKE))
        cfgd["potential"] = {"kind": kind, "gamma": 1.0, "eps": 0.01, **extra}
        code, manifest = self.run(tmp_path, "simulate", cfgd)
        assert code == EXIT_OK
        assert any(a.startswith("potential.gamma is ignored: ")
                   for a in manifest["advisories"])

    @pytest.mark.parametrize("command,overrides,expected", [
        ("simulate", [], []),
        ("simulate", ["potential.eps=1.0"], ["1"]),
        ("simulate", ['potential={"kind":"double_obstacle","c2":0.5,"eps":1.0}'], ["1"]),
        ("simulate", ['potential={"kind":"logarithmic","c1":2.0,"eps":0.25}'], ["1"]),
        ("converge", ['study.converge={"axis":"eps","values":[2.0,1.0,0.5]}'], ["2", "1"])],
        ids=["smoke", "regular", "double_obstacle", "logarithmic", "converge-eps"])
    def test_noncoercive_eps_is_an_advisory(self, tmp_path, command, overrides, expected):
        # every split pairs pi_hat = -gamma*s^2/2 with beta_hat_eps ~ s^2/(2*eps)
        out = tmp_path / "o"
        argv = [command, "--config", os.path.join(CONFIGS, "smoke.json"),
                "--out", str(out), "--quiet"]
        for override in overrides:
            argv += ["--override", override]
        assert main(argv) == EXIT_OK
        manifest = read_manifest(out)
        listed = [a for a in manifest["advisories"] if "pi_hat is then unbounded below" in a]
        assert listed == [f"eps*gamma = {value} >= 1: beta_hat_eps + pi_hat is then "
                          "unbounded below, and the coercivity assumed of the potential "
                          "fails" for value in expected]

    @pytest.mark.parametrize("command,axis", [("simulate", None), ("contdep", None),
                                              ("converge", "sigma")])
    def test_every_command_records_the_advisories_of_its_systems(
            self, tmp_path, command, axis):
        cfgd = json.loads(json.dumps(SMOKE))
        cfgd["coupling"] = {"kind": "function", "name": "tanh", "offset": 1.0, "scale": 0.5}
        cfgd["exponents"] = {"r": 0.25, "sigma": 0.2}
        cfgd["scheme"]["t_final"] = 0.05
        cfgd["output"]["grid_times"] = []
        cfgd["study"] = {"contdep": {"deltas": [1e-1, 1e-2]},
                         "converge": {"axis": axis, "values": [0.2, 0.1]}}
        with pytest.warns(UserWarning, match="embedding condition"):
            code, manifest = self.run(tmp_path, command, cfgd)
        assert code == EXIT_OK
        assert any("r + 2*sigma = 0.65 <= 0.75" in a for a in manifest["advisories"])

    def test_relaxlimit_rejects_an_increasing_ladder_before_building(
            self, tmp_path, monkeypatch):
        built = count_basis_builds(monkeypatch)
        cfgd = json.loads(json.dumps(SMOKE))
        cfgd["study"] = {"relaxlimit": {"sigmas": [0.25, 0.5]}}
        code, manifest = self.run(tmp_path, "relaxlimit", cfgd)
        assert code == EXIT_CONFIG
        assert manifest["failure"]["stage"] == "validation"
        assert "study.relaxlimit.sigmas: must be decreasing" in manifest["failure"]["message"]
        assert built == []

    def test_converge_eps_level_the_scheme_cannot_march_is_a_study_error(
            self, tmp_path, monkeypatch):
        # an obstacle eps ladder that reaches 0 under imex_euler fails on the
        # study key before any level is built or marched
        built = count_basis_builds(monkeypatch)
        out = tmp_path / "out"
        code = main(["converge", "--config", os.path.join(CONFIGS, "smoke.json"),
                     "--override",
                     'potential={"kind":"double_obstacle","c2":0.5,"eps":0.1}',
                     "--override", 'data.phi0={"kind":"cos","k":1,"amplitude":0.3}',
                     "--override", "study.converge.axis=eps",
                     "--override", "study.converge.values=[0.1,0.05,0]",
                     "--override", "scheme.t_final=0.05", "--out", str(out), "--quiet"])
        assert code == EXIT_CONFIG
        failure = read_manifest(out)["failure"]
        assert failure["stage"] == "validation"
        assert ("study.converge.values: double_obstacle at eps = 0 requires "
                "implicit_prox, got 0") in failure["message"]
        assert not (out / "study_converge.csv").exists()
        assert built == []

    def test_converge_n_modes_builds_only_the_level_bases(self, tmp_path, monkeypatch):
        built = count_basis_builds(monkeypatch)
        cfgd = json.loads(json.dumps(SMOKE))
        cfgd["scheme"]["t_final"] = 0.05
        cfgd["study"] = {"converge": {"axis": "n_modes", "values": [4, 8, 16]}}
        code, _ = self.run(tmp_path, "converge", cfgd)
        assert code == EXIT_OK
        assert built == [(4, 32), (8, 64), (16, 128)]

    def test_absent_m_grid_equal_to_the_default_shares_one_basis(self, monkeypatch):
        # b's m_grid of 48 is 8*n_modes, the grid an absent m_grid stands for
        built = count_basis_builds(monkeypatch)
        cfg = validate_config(apply_overrides(SMOKE, ["geometry.a.m_grid=null"]))
        system = fracphase.config.build_system(cfg)
        assert built == [(6, 48)]
        assert system.basis_a is system.basis_b
        assert system.coupling_matrix is None

    def test_n_modes_axis_rejects_non_integers(self, tmp_path):
        cfgd = json.loads(json.dumps(SMOKE))
        cfgd["study"] = {"converge": {"axis": "n_modes", "values": [0.004, 0.002]}}
        code, manifest = self.run(tmp_path, "converge", cfgd)
        assert code == EXIT_CONFIG
        assert manifest["failure"]["stage"] == "validation"

    def test_bad_expression_is_a_config_error(self, tmp_path):
        cfgd = json.loads(json.dumps(SMOKE))
        cfgd["data"]["theta0"][1]["k"] = [1, 1]  # two wavenumbers on an interval
        code, manifest = self.run(tmp_path, "simulate", cfgd)
        assert code == EXIT_CONFIG
        assert manifest["failure"]["exception"] == "ExpressionError"

    def test_internal_error_fails_manifest(self, tmp_path, monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("defect under test")

        monkeypatch.setattr(fracphase.cli, "integrate", broken)
        code, manifest = self.run(tmp_path, "simulate", SMOKE)
        assert code == EXIT_INTERNAL
        failure = manifest["failure"]
        assert failure["stage"] == "internal"
        assert failure["exception"] == "RuntimeError"
        assert "defect under test" in failure["traceback"]
        assert "broken" in failure["traceback"]


def per_row_emit(run, system, out_dir, grid_times):
    """The run outputs as the one-format-per-row writer wrote them before the
    block formatter; the reference for every table emit_run_outputs writes."""
    from fracphase.cli import SNAPSHOT_HEADER, _fmt, _write_atomic
    from fracphase.spectral import synthesize

    def write_columns(path: str, header: str, columns) -> str:
        fmt = ",".join(["%.17g"] * len(columns))
        rows = zip(*(np.asarray(c, dtype=float).tolist() for c in columns))
        text = "\n".join([header, *(fmt % row for row in rows)]) + "\n"
        _write_atomic(path, [text])
        return text

    os.makedirs(out_dir, exist_ok=True)
    files = []

    led = run.ledger
    columns = [run.times, run.norm_theta, run.graph_theta, run.norm_phi, run.graph_phi,
               run.dtphi_norm, led.lhs, led.rhs, led.residual]
    path = os.path.join(out_dir, "timeseries.csv")
    timeseries = write_columns(path, TIMESERIES_HEADER, columns)
    files.append(path)

    snap_rows = []
    for t, theta, phi in zip(run.times.tolist(), run.theta_series.tolist(),
                             run.phi_series.tolist()):
        t = _fmt(t)
        snap_rows.extend("%s,theta,%d,%.17g" % (t, j, c) for j, c in enumerate(theta))
        snap_rows.extend("%s,phi,%d,%.17g" % (t, j, c) for j, c in enumerate(phi))
    path = os.path.join(out_dir, "snapshots.csv")
    _write_atomic(path, ["\n".join([SNAPSHOT_HEADER, *snap_rows]) + "\n"])
    files.append(path)

    for k in dict.fromkeys(int(np.argmin(np.abs(run.times - t))) for t in grid_times):
        theta_grid = synthesize(system.basis_a, run.theta_series[k])
        phi_grid = synthesize(system.basis_b, run.phi_series[k])
        pts = system.basis_b.grid_points
        if pts.ndim == 1:
            header, coords = "x,theta,phi", [pts]
        else:
            header, coords = "x,y,theta,phi", [pts[:, 0], pts[:, 1]]
        path = os.path.join(out_dir, f"grid_{float(run.times[k])!r}.csv")
        write_columns(path, header, coords + [theta_grid, phi_grid])
        files.append(path)

    path = os.path.join(out_dir, "timeseries.dat")
    _write_atomic(path, ["# " + timeseries.replace(",", " ")])
    files.append(path)
    return files


def unique_coordinate_text(points) -> list[str]:
    """A verbatim copy of the coordinate text `cli` formed from the full grid
    before it formatted each axis's nodes once: each distinct value of a
    coordinate column is formatted once; values are told apart by their bit
    pattern, so 0.0 and -0.0 stay distinct."""
    text = None
    for column in points.reshape(len(points), -1).T:
        bits, inverse = np.unique(np.ascontiguousarray(column).view(np.int64),
                                  return_inverse=True)
        distinct = np.array([_fmt(v) + "," for v in bits.view(float).tolist()], dtype=object)
        text = distinct[inverse] if text is None else text + distinct[inverse]
    return text.tolist()


class TestOutputs:
    @pytest.mark.parametrize("payload", [SMOKE, ORACLE_RECT], ids=["interval", "rect"])
    def test_tables_match_per_row_writer(self, tmp_path, monkeypatch, payload):
        calls = []
        emit = fracphase.cli.emit_run_outputs

        def recording(run, system, out_dir, grid_times=()):
            calls.append((run, system, tuple(grid_times)))
            return emit(run, system, out_dir, grid_times)

        monkeypatch.setattr(fracphase.cli, "emit_run_outputs", recording)
        out = tmp_path / "out"
        assert main(["simulate", "--config", write_config(tmp_path, payload),
                     "--out", str(out), "--quiet"]) == EXIT_OK
        [(run, system, grid_times)] = calls
        names = sorted(os.path.basename(f)
                       for f in per_row_emit(run, system, str(tmp_path / "ref"), grid_times))
        assert names == sorted(p.name for p in out.iterdir() if p.name != "manifest.json")
        assert len([n for n in names if n.startswith("grid_")]) == len(grid_times)
        for name in names:
            assert (out / name).read_bytes() == (tmp_path / "ref" / name).read_bytes(), name

    @pytest.mark.parametrize("n_rows", [0, 1, 1023, 1024, 1025, 2049])
    def test_table_matches_per_value_format(self, n_rows):
        rng = np.random.default_rng(n_rows)
        values = rng.choice(EDGE_VALUES, size=(n_rows, 3))
        prefixes = [f"{k},p," if k % 3 else "" for k in range(n_rows)]
        expected = "h,a,b\n" + "".join(
            p + ",".join("%.17g" % v for v in row) + "\n"
            for p, row in zip(prefixes, values.tolist()))
        assert "".join(_table("h,a,b", prefixes, values)) == expected
        assert "".join(_table("h,a,b", iter(prefixes), values)) == expected

    def test_coordinate_text_keeps_signed_zero_and_repeats(self):
        # axes holding repeats, both zeros and edge values; node (i, j) of
        # the row-major product reads x[i] then y[j]
        rng = np.random.default_rng(11)
        x = rng.permutation(np.repeat(EDGE_VALUES, 3))
        y = rng.permutation(np.repeat(EDGE_VALUES, 3))
        points = np.column_stack([np.repeat(x, y.size), np.tile(y, x.size)])
        for axes, nodes in (((x,), x), ((x, y), points)):
            expected = ["".join("%.17g," % v for v in np.atleast_1d(p).tolist())
                        for p in nodes]
            assert list(_coordinate_text(axes)) == expected
        assert list(_coordinate_text((np.array([0.0, -0.0, 0.0]),))) == ["0,", "-0,", "0,"]
        assert list(_coordinate_text((np.array([0.0, -0.0]), np.array([-0.0, 0.0])))) == [
            "0,-0,", "0,0,", "-0,-0,", "-0,0,"]

    @pytest.mark.parametrize("kind,extent,m", [
        ("interval_neumann", 1.7, 64), ("interval_dirichlet", 0.3, 96),
        ("rect_dirichlet", [1.3, 0.7], 48), ("rect_neumann", [1.0, 1.0], 256)])
    def test_coordinate_text_matches_full_grid_text(self, kind, extent, m):
        basis = build_basis(kind, extent, 6, m)
        assert list(_coordinate_text(basis.axis_nodes)) == unique_coordinate_text(
            basis.grid_points)

    def test_rect_mixed_builds_no_tensor_grid(self, tmp_path, monkeypatch):
        # setup, march and emission of the benchmark's rectangle read each
        # axis's nodes; the 65 536-node grid_points is never formed
        payload = copy.deepcopy(bench_workload(monkeypatch, "rect-mixed").config)
        formed = []
        grid_points = SpectralBasis.grid_points
        monkeypatch.setattr(SpectralBasis, "grid_points", property(
            lambda basis: formed.append(basis.n_grid) or grid_points.fget(basis)))
        system = build_system(validate_config(copy.deepcopy(payload)))
        assert system.basis_b.n_grid == 256 * 256 and formed == []
        out = tmp_path / "out"
        assert main(["simulate", "--config", write_config(tmp_path, payload),
                     "--out", str(out), "--quiet"]) == EXIT_OK
        assert (out / "grid_0.05.csv").exists() and formed == []

    def test_emission_memory_does_not_grow_with_file_size(self, tmp_path, monkeypatch):
        # two 5.3 MB grid files of a 256 x 256 rectangle: every file streams
        # to disk one block at a time, so the traced peak stays near the grid
        # pair each file formats (holding each file's text whole took 19 MB)
        cfg = validate_config(copy.deepcopy(bench_workload(monkeypatch, "rect-mixed").config))
        system = build_system(cfg)
        run = integrate(system, cfg.scheme, cfg.t_final, cfg.snapshot_stride)
        tracemalloc.start()
        try:
            files = emit_run_outputs(run, system, str(tmp_path), cfg.grid_times)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        grids = [f for f in files if os.path.basename(f).startswith("grid_")]
        assert system.basis_b.n_grid == 256 * 256 and len(grids) == 2
        assert all(os.path.getsize(f) > 5e6 for f in grids)
        assert peak < 4e6

    def run_smoke(self, tmp_path):
        out = tmp_path / "out"
        code = main(["simulate", "--config", write_config(tmp_path, SMOKE),
                     "--out", str(out), "--quiet"])
        assert code == EXIT_OK
        return out

    def test_timeseries_header_exact(self, tmp_path):
        out = self.run_smoke(tmp_path)
        first = (out / "timeseries.csv").read_text().splitlines()[0]
        assert first == TIMESERIES_HEADER

    def test_zero_data_all_zero_columns(self, tmp_path):
        cfgd = json.loads(json.dumps(SMOKE))
        cfgd["data"] = {}
        cfgd["coupling"] = {"kind": "constant", "value": 0.0}
        out = tmp_path / "out"
        main(["simulate", "--config", write_config(tmp_path, cfgd),
              "--out", str(out), "--quiet"])
        cols = read_timeseries(str(out / "timeseries.csv"))
        for name in ("norm_theta", "norm_phi", "energy_residual"):
            assert np.all(cols[name] == 0.0)

    def test_snapshot_stride_boundary_policy(self, tmp_path):
        cfgd = json.loads(json.dumps(SMOKE))
        cfgd["scheme"]["snapshot_stride"] = 10_000
        out = tmp_path / "out"
        main(["simulate", "--config", write_config(tmp_path, cfgd),
              "--out", str(out), "--quiet"])
        cols = read_timeseries(str(out / "timeseries.csv"))
        assert cols["t"].tolist() == [0.0, pytest.approx(0.1)]

    def test_reingestion_reproduces_norms(self, tmp_path):
        out = self.run_smoke(tmp_path)
        cols = read_timeseries(str(out / "timeseries.csv"))
        snaps = {}
        with open(out / "snapshots.csv") as fh:
            fh.readline()
            for line in fh:
                t, field, idx, coeff = line.strip().split(",")
                snaps.setdefault((float(t), field), []).append(float(coeff))
        for k, t in enumerate(cols["t"]):
            theta = np.array(snaps[(t, "theta")])
            assert abs(np.linalg.norm(theta) - cols["norm_theta"][k]) <= 1e-12

    def test_determinism_bit_identical(self, tmp_path):
        cfg = write_config(tmp_path, SMOKE)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["simulate", "--config", cfg, "--out", str(out1), "--quiet"])
        main(["simulate", "--config", cfg, "--out", str(out2), "--quiet"])
        assert (out1 / "timeseries.csv").read_bytes() == (out2 / "timeseries.csv").read_bytes()
        assert (out1 / "snapshots.csv").read_bytes() == (out2 / "snapshots.csv").read_bytes()

    def test_rerun_from_manifest_reproduces(self, tmp_path):
        out1 = self.run_smoke(tmp_path)
        out2 = tmp_path / "rerun"
        code = main(["simulate", "--config", str(out1 / "manifest.json"),
                     "--out", str(out2), "--quiet"])
        assert code == EXIT_OK
        assert (out1 / "timeseries.csv").read_bytes() == (out2 / "timeseries.csv").read_bytes()

    def test_grid_slices_emitted(self, tmp_path):
        out = self.run_smoke(tmp_path)
        grids = sorted(p.name for p in out.glob("grid_*.csv"))
        assert grids == ["grid_0.0.csv", "grid_0.1.csv"]
        header = (out / "grid_0.0.csv").read_text().splitlines()[0]
        assert header == "x,theta,phi"

    def test_env_output_root(self, tmp_path, monkeypatch):
        monkeypatch.setenv(OUTPUT_ROOT_ENV, str(tmp_path / "root"))
        cfg = write_config(tmp_path, SMOKE)
        assert main(["simulate", "--config", cfg, "--quiet"]) == EXIT_OK
        assert (tmp_path / "root" / "run" / "timeseries.csv").exists()


class TestAtomicWrite:
    """A file appears whole or not at all, and a failed write leaves what the
    path held."""

    @staticmethod
    def failing_table(path, error, opened):
        # the table's header and first block, then an error while the .tmp
        # is open and holds them
        table = _table("a,b", itertools.repeat(""), np.ones((3 * _BLOCK_ROWS, 2)))
        yield next(table)
        yield next(table)
        opened.append(os.path.exists(str(path) + ".tmp"))
        raise error

    @pytest.mark.parametrize("error", [RuntimeError("format failed"), KeyboardInterrupt()],
                             ids=["error", "interrupt"])
    def test_failed_write_leaves_no_file(self, tmp_path, error):
        path, opened = tmp_path / "table.csv", []
        with pytest.raises(type(error)):
            _write_atomic(str(path), self.failing_table(path, error, opened))
        assert opened == [True] and os.listdir(tmp_path) == []

    def test_failed_write_keeps_the_existing_file(self, tmp_path):
        path, opened = tmp_path / "table.csv", []
        path.write_bytes(b"old,bytes\n")
        with pytest.raises(RuntimeError, match="format failed"):
            _write_atomic(str(path),
                          self.failing_table(path, RuntimeError("format failed"), opened))
        assert opened == [True] and os.listdir(tmp_path) == ["table.csv"]
        assert path.read_bytes() == b"old,bytes\n"

    def test_bare_string_is_refused(self, tmp_path):
        # writelines would write a str one character at a time
        with pytest.raises(TypeError, match="not a str"):
            _write_atomic(str(tmp_path / "table.csv"), "a,b\n1,2\n")
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("command, payload", [("simulate", ORACLE_RECT),
                                                  ("contdep", SMOKE), ("selftest", SMOKE)])
    def test_successful_run_leaves_no_tmp(self, tmp_path, command, payload):
        out = tmp_path / "out"
        assert main([command, "--config", write_config(tmp_path, payload),
                     "--out", str(out), "--quiet"]) == EXIT_OK
        names = sorted(os.listdir(out))
        assert not any(name.endswith(".tmp") for name in names)
        assert names == sorted(read_manifest(out)["files"] + ["manifest.json"])


class TestRectangleScenario:
    def test_2d_simulate_emits_xy_grid(self, tmp_path):
        cfgd = {
            "geometry": {
                "a": {"kind": "rect_neumann", "extent": [1.0, 1.0],
                      "n_modes": 6, "m_grid": 24},
                "b": {"kind": "rect_neumann", "extent": [1.0, 1.0],
                      "n_modes": 6, "m_grid": 24},
            },
            "exponents": {"r": 0.5, "sigma": 0.5},
            "potential": {"kind": "regular", "gamma": 1.0, "eps": 0.01},
            "coupling": {"kind": "constant", "value": 0.5},
            "data": {
                "theta0": [{"kind": "cos", "k": [1, 0], "amplitude": 0.4}],
                "phi0": [{"kind": "gaussian", "center": [0.5, 0.5],
                          "width": 0.2, "amplitude": 0.5}],
            },
            "scheme": {"scheme": "imex_euler", "dt": 0.002, "t_final": 0.1,
                       "snapshot_stride": 10},
            "output": {"directory": "run", "grid_times": [0.1]},
            "seed": 3,
        }
        out = tmp_path / "out"
        code = main(["simulate", "--config", write_config(tmp_path, cfgd),
                     "--out", str(out), "--quiet"])
        assert code == EXIT_OK
        header = (out / "grid_0.1.csv").read_text().splitlines()[0]
        assert header == "x,y,theta,phi"
        cols = read_timeseries(str(out / "timeseries.csv"))
        assert np.all(np.isfinite(cols["energy_residual"]))


class TestStudyCommands:
    def test_selftest_writes_csv(self, tmp_path):
        out = tmp_path / "out"
        code = main(["selftest", "--config", write_config(tmp_path, SMOKE),
                     "--out", str(out), "--quiet"])
        assert code == EXIT_OK
        lines = (out / "selftest.csv").read_text().splitlines()
        assert lines[0] == "check,kind,samples,worst,tolerance,passed"
        assert all(line.endswith("true") for line in lines[1:])

    def test_selftest_nan_sample_fails_its_row(self, tmp_path, monkeypatch):
        # an obstacle projection that returns NaN: each obstacle row's worst is
        # NaN, which fails the row instead of being skipped
        def nan_obstacle(c2):
            return dataclasses.replace(double_obstacle_potential(c2), resolvent_solver=(
                lambda eps, s, out=None, scratch=None: np.full_like(s, np.nan)))

        monkeypatch.setattr(fracphase.cli, "double_obstacle_potential", nan_obstacle)
        out = tmp_path / "out"
        code = main(["selftest", "--config", os.path.join(CONFIGS, "selftest.json"),
                     "--out", str(out), "--quiet"])
        assert code == EXIT_CHECK
        assert read_manifest(out)["status"] == "check_failed"
        rows = [line.split(",") for line in (out / "selftest.csv").read_text().splitlines()]
        obstacle = [row for row in rows if row[1] == "double_obstacle"]
        assert len(obstacle) == 6
        assert all(row[3] == "nan" and row[5] == "false" for row in obstacle)
        assert all(row[5] == "true" for row in rows[1:] if row[1] != "double_obstacle")

    def test_selftest_sigma_zero_rows_fail_on_a_fixed_multiplier(self, tmp_path,
                                                                 monkeypatch):
        # multipliers that ignore the exponent leave |mu**sigma - 1| the same
        # on every rung: each ratio is exactly 1, which fails the strict rows
        monkeypatch.setattr(fracphase.cli, "fractional_multipliers",
                            lambda basis, exponent: basis.eigenvalues ** 0.5)
        out = tmp_path / "out"
        code = main(["selftest", "--config", os.path.join(CONFIGS, "selftest.json"),
                     "--out", str(out), "--quiet"])
        assert code == EXIT_CHECK
        rows = [line.split(",") for line in (out / "selftest.csv").read_text().splitlines()]
        sigma_zero = [row for row in rows if row[0] == "sigma_zero_multiplier"]
        assert [row[1] for row in sigma_zero] == ["interval_neumann", "interval_dirichlet"]
        assert all(row[3] == "1" and row[5] == "false" for row in sigma_zero)

    def test_selftest_sigma_zero_rows_pass_on_the_fractional_multiplier(self, tmp_path):
        # the true multipliers: |mu**sigma - 1| shrinks on every rung, so the
        # worst ratio of two rungs is below 1 on both bases
        out = tmp_path / "out"
        assert main(["selftest", "--config", os.path.join(CONFIGS, "selftest.json"),
                     "--out", str(out), "--quiet"]) == EXIT_OK
        rows = [line.split(",") for line in (out / "selftest.csv").read_text().splitlines()]
        sigma_zero = [row for row in rows if row[0] == "sigma_zero_multiplier"]
        assert [row[1] for row in sigma_zero] == ["interval_neumann", "interval_dirichlet"]
        assert all(float(row[3]) < 1.0 and row[5] == "true" for row in sigma_zero)
        # last, the gate of a 512 x 2048 FFT basis of each interval kind
        assert [row[:3] for row in rows[-2:]] == [
            ["fft_gram_identity", "interval_neumann", "512"],
            ["fft_gram_identity", "interval_dirichlet", "512"]]
        assert all(float(row[3]) <= 1e-12 and row[5] == "true" for row in rows[-2:])
        # one manifest check per row: no row overwrites another's entry
        assert len(read_manifest(out)["checks"]) == len(rows) - 1

    def test_selftest_dense_gram_row_fails_beside_the_fft_rows(self, tmp_path, monkeypatch):
        # a defect on the dense 64 x 512 bases alone: their gram_identity rows
        # fail, and so does the run, although the FFT bases' rows pass
        defect = fracphase.cli.gram_defect
        monkeypatch.setattr(fracphase.cli, "gram_defect",
                            lambda basis: 1.0 if basis.fft is None else defect(basis))
        out = tmp_path / "out"
        assert main(["selftest", "--config", os.path.join(CONFIGS, "selftest.json"),
                     "--out", str(out), "--quiet"]) == EXIT_CHECK
        checks = read_manifest(out)["checks"]
        for kind in ("interval_neumann", "interval_dirichlet"):
            assert checks[f"gram_identity.{kind}"]["passed"] is False
            assert checks[f"fft_gram_identity.{kind}"]["passed"] is True

    def test_obstacle_checks_pass_on_the_contact_sets(self, tmp_path):
        cfg = validate_config(copy.deepcopy(OBSTACLE_CONTACT))
        run = integrate(build_system(cfg), cfg.scheme, cfg.t_final, cfg.snapshot_stride)
        assert (run.grid_max == 1.0).any() and (run.grid_min == -1.0).any()
        out = tmp_path / "out"
        assert main(["simulate", "--config", write_config(tmp_path, OBSTACLE_CONTACT),
                     "--out", str(out), "--quiet"]) == EXIT_OK
        checks = read_manifest(out)["checks"]
        for name in OBSTACLE_CHECKS:
            assert checks[name] == {"passed": True, "detail": {"worst_violation": 0.0}}

    @pytest.mark.parametrize("value", [1.0, -1.0, 1.0 + 5e-13, -1.0 - 2e-12])
    def test_obstacle_datum_validates_as_the_bound_check_reads_it(self, tmp_path, value):
        # a datum on [-1, 1] runs and passes both checks; one past it, even by
        # less than the obstacle's rounding slack, is a validation failure
        payload = dict(OBSTACLE_CONTACT, data=dict(
            OBSTACLE_CONTACT["data"], phi0=[{"kind": "constant", "value": value}]))
        out = tmp_path / "out"
        code = main(["simulate", "--config", write_config(tmp_path, payload),
                     "--out", str(out), "--quiet"])
        manifest = read_manifest(out)
        if abs(value) <= 1.0:
            assert code == EXIT_OK
            assert all(manifest["checks"][name]["passed"] for name in OBSTACLE_CHECKS)
        else:
            assert code == EXIT_CONFIG
            assert manifest["failure"]["stage"] == "validation"
            assert f"phi0={value!r}" in manifest["failure"]["message"]

    @pytest.mark.parametrize("payload", [
        SMOKE, dict(OBSTACLE_CONTACT, potential={"kind": "double_obstacle", "c2": 0.5,
                                                 "eps": 0.01})], ids=["regular", "eps>0"])
    def test_obstacle_checks_only_where_they_hold(self, tmp_path, payload):
        # at eps > 0 the Yosida-regularized step may leave [-1, 1]
        out = tmp_path / "out"
        assert main(["simulate", "--config", write_config(tmp_path, payload),
                     "--out", str(out), "--quiet"]) == EXIT_OK
        assert not set(OBSTACLE_CHECKS) & set(read_manifest(out)["checks"])

    @pytest.mark.parametrize("command", ["simulate", "relaxlimit", "contdep"])
    def test_obstacle_checks_gate_every_row(self, tmp_path, command):
        # the obstacle-ladder shape: four sigma rows and the limit (or the base
        # and two shifted data) march at eps = 0, and every row is gated
        out = tmp_path / "out"
        payload = dict(OBSTACLE_LADDER, study={"contdep": {"deltas": [1e-1, 1e-2]}})
        assert main([command, "--config", write_config(tmp_path, payload),
                     "--out", str(out), "--quiet"]) == EXIT_OK
        checks = read_manifest(out)["checks"]
        for name in OBSTACLE_CHECKS:
            assert checks[name] == {"passed": True, "detail": {"worst_violation": 0.0}}

    def test_relaxlimit_at_positive_eps_gates_the_limit_row(self, tmp_path):
        # the ladder at eps > 0 may leave [-1, 1]; the limit runs at eps = 0
        payload = dict(OBSTACLE_LADDER,
                       potential={"kind": "double_obstacle", "c2": 0.5, "eps": 0.01})
        out = tmp_path / "out"
        assert main(["relaxlimit", "--config", write_config(tmp_path, payload),
                     "--out", str(out), "--quiet"]) == EXIT_OK
        checks = read_manifest(out)["checks"]
        assert all(checks[name]["passed"] for name in OBSTACLE_CHECKS)

    @pytest.mark.parametrize("command, config", [("simulate", OBSTACLE_CONTACT),
                                                 ("relaxlimit", OBSTACLE_LADDER)])
    @pytest.mark.parametrize("defect, failing", [("unclipped", "obstacle_bound"),
                                                 ("flipped_xi", "multiplier_sign")])
    def test_obstacle_checks_fail_on_a_defect(self, tmp_path, monkeypatch, defect, failing,
                                              command, config):
        if defect == "unclipped":
            # an obstacle whose resolvent solver skips the projection onto [-1, 1]
            def unclipped(c2):
                return dataclasses.replace(
                    double_obstacle_potential(c2),
                    resolvent_solver=lambda eps, s, out=None, scratch=None: np.array(s)
                    if out is None else np.copyto(out, s) or out)

            monkeypatch.setitem(fracphase.config._POTENTIALS, "double_obstacle", unclipped)
        else:
            # the march hands the snapshots the negated multiplier
            record = fracphase.timestepper._LedgerAccumulator.record

            def flipped(self, t, theta, phi, row, xi, phi_grid):
                record(self, t, theta, phi, row, None if xi is None else -xi, phi_grid)

            monkeypatch.setattr(fracphase.timestepper._LedgerAccumulator, "record", flipped)
        out = tmp_path / "out"
        assert main([command, "--config", write_config(tmp_path, config),
                     "--out", str(out), "--quiet"]) == EXIT_CHECK
        checks = read_manifest(out)["checks"]
        assert [name for name in OBSTACLE_CHECKS if not checks[name]["passed"]] == [failing]
        detail = checks[failing]["detail"]
        assert detail["worst_violation"] > 0.0
        # a lone run names no row; the ladder names one of its five
        assert detail.get("row") in ((None,) if command == "simulate" else range(5))

    def test_contdep_degenerate_ratio_fails_its_checks(self, tmp_path):
        # a shift of 1e-300 vanishes in theta0 + delta*mode: no data differ,
        # so the ratio is NaN and both ratio checks fail; the strict manifest
        # writes the NaN ratio and the infinite spread as null
        out = tmp_path / "out"
        code = main(["contdep", "--config", os.path.join(CONFIGS, "smoke.json"),
                     "--override", "study.contdep.deltas=[1e-300,0.1]",
                     "--override", "scheme.t_final=0.05", "--out", str(out), "--quiet"])
        assert code == EXIT_CHECK
        manifest = read_manifest(out)
        assert manifest["status"] == "check_failed"
        assert not manifest["checks"]["ratio_finite"]["passed"]
        assert not manifest["checks"]["ratio_stable"]["passed"]
        detail = manifest["checks"]["ratio_stable"]["detail"]
        assert detail["spread"] is None
        assert detail["ratios"][0] is None and np.isfinite(detail["ratios"][1])
        lines = (out / "study_contdep.csv").read_text().splitlines()
        assert lines[1].split(",")[1:] == ["0", "0", "nan"]
        assert np.isfinite(float(lines[2].split(",")[3]))

    def test_jobs_flag_is_rejected(self, tmp_path):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as info:
            main(["converge", "--config", write_config(tmp_path, SMOKE),
                  "--out", str(out), "--jobs", "3", "--quiet"])
        assert info.value.code == EXIT_CONFIG
        assert not out.exists()

    def test_longtime_reports_where_the_march_settled(self, tmp_path):
        # the shipped system reaches its fixed point bit for bit before
        # t_final; a sourced one (whose short run fails the tail checks)
        # never stops computing steps
        outs = [tmp_path / "shipped", tmp_path / "sourced"]
        for out, config, code in zip(outs, [os.path.join(CONFIGS, "longtime.json"),
                                            write_config(tmp_path, SMOKE)],
                                     [EXIT_OK, EXIT_CHECK]):
            assert main(["longtime", "--config", config, "--out", str(out),
                         "--quiet"]) == code
        shipped, sourced = (read_manifest(out) for out in outs)
        settled_t = shipped["checks"]["stationary_residual"]["detail"]["settled_t"]
        assert 0.0 < settled_t < shipped["config"]["scheme"]["t_final"]
        assert sourced["checks"]["stationary_residual"]["detail"]["settled_t"] is None

    def test_retired_opcheck_command_is_rejected(self, tmp_path):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as info:
            main(["opcheck", "--config", os.path.join(CONFIGS, "relaxlimit.json"),
                  "--out", str(out), "--quiet"])
        assert info.value.code == EXIT_CONFIG
        assert not out.exists()

    def test_relaxlimit_replays_a_config_with_an_opcheck_section(self, tmp_path):
        # configs/relaxlimit.json once carried a study.opcheck section, so
        # manifests written then embed it; the relaxlimit run ignores it
        with open(os.path.join(CONFIGS, "relaxlimit.json"), encoding="utf-8") as fh:
            cfgd = json.load(fh)
        cfgd["study"]["opcheck"] = {"sigmas": [0.2, 0.1, 0.05, 0.01],
                                    "vector": {"index": 1, "amplitude": 1.0},
                                    "hpqo": {"enable": True, "n_vectors": 5}}
        outs = [tmp_path / "shipped", tmp_path / "old"]
        for out, config in zip(outs, [os.path.join(CONFIGS, "relaxlimit.json"),
                                      write_config(tmp_path, cfgd)]):
            assert main(["relaxlimit", "--config", config, "--out", str(out),
                         "--quiet"]) == EXIT_OK
        shipped, old = (read_manifest(out) for out in outs)
        assert old["config"]["study"]["opcheck"] == cfgd["study"]["opcheck"]
        assert old["checks"] == shipped["checks"]
        assert ((outs[1] / "study_relaxlimit.csv").read_bytes()
                == (outs[0] / "study_relaxlimit.csv").read_bytes())

    @pytest.mark.parametrize("command,study,check", [
        ("converge", {"axis": "dt", "values": [0.004, 0.002]}, "errors_decrease"),
        ("relaxlimit", {"sigmas": [0.5]}, "errors_decreasing"),
        ("contdep", {"deltas": [1e-1]}, "ratio_stable")],
        ids=["converge-2-levels", "relaxlimit-1-sigma", "contdep-1-delta"])
    def test_no_check_compares_nothing(self, tmp_path, command, study, check):
        # 2 converge levels (the last is the reference), 1 relaxlimit sigma
        # and 1 contdep ratio leave no pair to compare, so no such check
        cfgd = json.loads(json.dumps(SMOKE))
        cfgd["study"] = {command: study}
        out = tmp_path / "out"
        assert main([command, "--config", write_config(tmp_path, cfgd),
                     "--out", str(out), "--quiet"]) == EXIT_OK
        checks = read_manifest(out)["checks"]
        assert check not in checks
        assert all(entry["passed"] for entry in checks.values())

    @pytest.mark.parametrize("command,study,check", [
        ("converge", {"axis": "dt", "values": [0.004, 0.002, 0.001]}, "errors_decrease"),
        ("relaxlimit", {"sigmas": [0.5, 0.25]}, "errors_decreasing"),
        ("contdep", {"deltas": [1e-1, 1e-2]}, "ratio_stable")],
        ids=["converge-3-levels", "relaxlimit-2-sigmas", "contdep-2-deltas"])
    def test_first_pair_writes_its_check(self, tmp_path, command, study, check):
        # one level, sigma or delta more than the cases above gives the first
        # pair to compare, so the check is written
        cfgd = json.loads(json.dumps(SMOKE))
        cfgd["study"] = {command: study}
        out = tmp_path / "out"
        assert main([command, "--config", write_config(tmp_path, cfgd),
                     "--out", str(out), "--quiet"]) == EXIT_OK
        checks = read_manifest(out)["checks"]
        assert checks[check]["passed"]
