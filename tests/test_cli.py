import copy
import json
import os
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fracphase.analysis
import fracphase.cli
from fracphase.cli import (EXIT_CHECK, EXIT_CONFIG, EXIT_INTERNAL, EXIT_OK,
                           EXIT_SOLVER, OUTPUT_ROOT_ENV, TIMESERIES_HEADER,
                           config_hash, main, read_timeseries)
from fracphase.config import (ConfigError, apply_overrides, load_raw_config,
                              read_study, validate_config)
from fracphase.timestepper import BlowupError

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
                 ("relaxlimit", None), ("opcheck", None), ("selftest", None),
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


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


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
    "opcheck": {"sigmas": [0.2, 0.1], "vector": {"index": 1, "amplitude": 1.0},
                "hpqo": {"enable": True, "n_vectors": 3}},
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
            manifest = json.loads((out / "manifest.json").read_text())
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
        failure = json.loads((out / "manifest.json").read_text())["failure"]
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
        failure = json.loads((out / "manifest.json").read_text())["failure"]
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

    def run(self, tmp_path, command, payload):
        out = tmp_path / "o"
        code = main([command, "--config", write_config(tmp_path, payload),
                     "--out", str(out), "--quiet"])
        manifest = json.loads((out / "manifest.json").read_text())
        assert (code == EXIT_OK) == (manifest["status"] == "ok")
        return code, manifest

    @pytest.mark.parametrize("expected,status,case", [
        (EXIT_OK, "ok", "ok"), (EXIT_INTERNAL, "failed", "defect"),
        (EXIT_CONFIG, "failed", "config"), (EXIT_CHECK, "check_failed", "contdep"),
        (EXIT_CHECK, "check_failed", "ledger")],
        ids=["0-ok", "1-failed", "2-failed", "4-check_failed", "4-check_failed-ledger"])
    def test_status_agrees_with_exit_code(self, tmp_path, monkeypatch, expected, status,
                                          case):
        cfgd, command = json.loads(json.dumps(SMOKE)), "simulate"
        if case == "defect":
            monkeypatch.setattr(fracphase.cli, "integrate", None)  # a TypeError: a defect
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
        code, manifest = self.run(tmp_path, command, cfgd)
        assert code == expected and manifest["status"] == status

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

    @pytest.mark.parametrize("geometry", ["interval", "rect"])
    def test_longtime_obstacle_at_eps0(self, tmp_path, geometry):
        """The stationarity probe of a proximal run at eps = 0 takes the convex
        part from the recorded multiplier; an explicit beta does not exist."""
        cfgd = self.matrix_config(geometry, "longtime", None)
        cfgd["potential"] = {"kind": "double_obstacle", "c2": 0.5, "eps": 0.0}
        cfgd["scheme"]["scheme"] = "implicit_prox"
        code, manifest = self.run(tmp_path, "longtime", cfgd)
        assert code == EXIT_OK
        assert all(check["passed"] for check in manifest["checks"].values())

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
            # assembling the small-sigma ladder warns before the limit rejects it
            with pytest.warns(UserWarning, match="embedding condition"):
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
        ("opcheck", "relaxlimit.json", "study.opcheck.vector.index=999"),
        ("opcheck", "relaxlimit.json", "study.opcheck.vector.amplitude=abc"),
        ("contdep", "smoke.json", "study.contdep.deltas=abc"),
        ("relaxlimit", "relaxlimit.json", 'study.relaxlimit.sigmas="51"'),
        ("longtime", "longtime.json", "study=[]"),
        ("converge", "smoke.json", 'study.converge={"axis":"sigma","values":[0.5,"x"]}'),
        ("converge", "smoke.json", 'study.converge={"axis":"dt","values":[0.002]}'),
        ("converge", "smoke.json", 'study.converge={"axis":"eps","values":[0.01,-0.01]}'),
        ("converge", "smoke.json", 'study.converge={"axis":"n_modes","values":[4,true]}'),
        ("opcheck", "relaxlimit.json", "study.opcheck.hpqo.enable=1"),
        ("contdep", "smoke.json", "study.contdep.deltas=[0.0,0.1]"),
        ("longtime", "longtime.json", "output.grid_times=[0.0,300]")])
    def test_bad_study_key_is_a_config_error(self, tmp_path, command, config, override):
        out = tmp_path / "o"
        code = main([command, "--config", os.path.join(CONFIGS, config),
                     "--override", override, "--out", str(out), "--quiet"])
        failure = json.loads((out / "manifest.json").read_text())["failure"]
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
        failure = json.loads((out / "manifest.json").read_text())["failure"]
        assert code == EXIT_CONFIG
        assert failure["stage"] == "validation"
        assert key in failure["message"]

    def test_manifest_without_config_object_is_a_config_error(self, tmp_path):
        out = tmp_path / "o"
        code = main(["simulate", "--config", write_config(tmp_path, {"config": 5}),
                     "--out", str(out), "--quiet"])
        manifest = json.loads((out / "manifest.json").read_text())
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


class TestOutputs:
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

    def test_opcheck_agreement(self, tmp_path):
        cfgd = json.loads(json.dumps(SMOKE))
        cfgd["study"] = {"opcheck": {"sigmas": [0.2, 0.1, 0.05, 0.01],
                                     "vector": {"index": 1, "amplitude": 1.0}}}
        out = tmp_path / "out"
        code = main(["opcheck", "--config", write_config(tmp_path, cfgd),
                     "--out", str(out), "--quiet"])
        assert code == EXIT_OK
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["checks"]["closed_form_agreement"]["passed"]

    def test_jobs_flag_is_rejected(self, tmp_path):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as info:
            main(["converge", "--config", write_config(tmp_path, SMOKE),
                  "--out", str(out), "--jobs", "3", "--quiet"])
        assert info.value.code == EXIT_CONFIG
        assert not out.exists()
