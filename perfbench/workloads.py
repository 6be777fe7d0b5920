"""The four benchmark workloads: generated configs, expected outputs, counts.

Each workload is one `fracphase` CLI command on one config. The seed only
moves the initial-data amplitudes inside a narrow band around their nominal
values (a seed of DEFAULT_SEED gives the nominal values exactly), so every
seed keeps the workload's manifest checks passing while the program still
receives inputs it has not seen. Why each workload exists is recorded in
WORKLOADS.md next to this file.
"""
from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

DEFAULT_SEED = 0

# half-width of the relative band the seed draws data amplitudes from
AMPLITUDE_BAND = 0.05


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    config: dict
    # output file compared against the pinned reference on the default seed
    result_file: str
    # manifest checks that must be present and passing
    checks: tuple[str, ...]
    # files every successful run writes
    files: tuple[str, ...]
    # number of data rows result_file must hold
    result_rows: int
    # per-step transform/source counts at the commit that defined the
    # benchmark, plus syntheses per recorded snapshot; the traced run compares
    # against these and reports mismatches, it does not fail on them
    counts: dict


_INTERVAL8 = {"kind": "interval_neumann", "extent": 1.0, "n_modes": 8, "m_grid": 64}
_INTERVAL32 = {"kind": "interval_neumann", "extent": 1.0, "n_modes": 32, "m_grid": 128}
_INTERVAL512 = {"kind": "interval_neumann", "extent": 1.0, "n_modes": 512, "m_grid": 2048}
_SMOKE_SOURCE = {"space": {"kind": "cos", "k": 1, "amplitude": 0.5},
                 "time": {"kind": "exp", "rate": -1.0}}

_SIM_FILES = ("timeseries.csv", "snapshots.csv", "timeseries.dat", "manifest.json")
_SOURCED_COUNTS = {"synthesize": 3, "analyze": 4, "source_at": 2, "synthesize_per_snapshot": 1}

WORKLOADS = {
    # configs/longtime.json as shipped
    "interval-longtime": Workload(
        name="interval-longtime",
        command="longtime",
        config={
            "geometry": {"a": _INTERVAL8, "b": _INTERVAL8},
            "exponents": {"r": 0.5, "sigma": 0.5},
            "potential": {"kind": "regular", "gamma": 1.0, "eps": 0.01},
            "coupling": {"kind": "constant", "value": 0.5},
            "data": {
                "theta0": [{"kind": "constant", "value": 0.2},
                           {"kind": "cos", "k": 1, "amplitude": 0.3}],
                "phi0": [{"kind": "constant", "value": 0.4},
                         {"kind": "cos", "k": 1, "amplitude": 0.2}],
            },
            "scheme": {"scheme": "imex_euler", "dt": 0.01, "t_final": 200.0,
                       "snapshot_stride": 100},
            "study": {"longtime": {"tail_fraction": 0.1, "tail_threshold": 1e-6,
                                   "stationary_threshold": 1e-5}},
            "seed": 20240,
        },
        result_file="timeseries.csv",
        checks=("tail_ar_theta", "tail_dtphi", "stationary_residual", "theta_on_kernel"),
        files=_SIM_FILES,
        result_rows=201,
        counts={"synthesize": 3, "analyze": 2, "source_at": 2, "synthesize_per_snapshot": 1},
    ),
    "rect-mixed": Workload(
        name="rect-mixed",
        command="simulate",
        config={
            "geometry": {
                "a": {"kind": "rect_dirichlet", "extent": [1.0, 1.0], "n_modes": 64,
                      "m_grid": 256},
                "b": {"kind": "rect_neumann", "extent": [1.0, 1.0], "n_modes": 64,
                      "m_grid": 256},
            },
            "exponents": {"r": 0.5, "sigma": 0.5},
            "potential": {"kind": "regular", "gamma": 1.0, "eps": 0.01},
            "coupling": {"kind": "constant", "value": 0.7},
            "data": {
                "theta0": [{"kind": "constant", "value": 0.1},
                           {"kind": "cos", "k": [1, 0], "amplitude": 0.5}],
                "phi0": [{"kind": "constant", "value": 0.1},
                         {"kind": "cos", "k": [1, 1], "amplitude": 0.3}],
                "source": {"space": {"kind": "cos", "k": [1, 0], "amplitude": 0.5},
                           "time": {"kind": "exp", "rate": -1.0}},
            },
            "scheme": {"scheme": "imex_euler", "dt": 0.001, "t_final": 0.05,
                       "snapshot_stride": 10},
            "output": {"grid_times": [0.0, 0.05]},
            "seed": 20240,
        },
        result_file="timeseries.csv",
        checks=("energy_ledger_finite",),
        files=_SIM_FILES + ("grid_0.0.csv", "grid_0.05.csv"),
        result_rows=6,
        counts=_SOURCED_COUNTS,
    ),
    # the obstacle data of acceptance test c09 on a wider basis and horizon
    "obstacle-ladder": Workload(
        name="obstacle-ladder",
        command="relaxlimit",
        config={
            "geometry": {"a": _INTERVAL32, "b": _INTERVAL32},
            "exponents": {"r": 0.5, "sigma": 0.5},
            "potential": {"kind": "double_obstacle", "c2": 0.5, "eps": 0.0},
            "coupling": {"kind": "constant", "value": 2.0},
            "data": {
                "theta0": [{"kind": "cos", "k": 1, "amplitude": 2.5}],
                "phi0": [{"kind": "cos", "k": 1, "amplitude": 0.8}],
            },
            "scheme": {"scheme": "implicit_prox", "dt": 0.001, "t_final": 4.0,
                       "snapshot_stride": 10},
            "study": {"relaxlimit": {"sigmas": [0.5, 0.25, 0.1, 0.05]}},
            "seed": 20240,
        },
        result_file="study_relaxlimit.csv",
        checks=("errors_decreasing",),
        files=("study_relaxlimit.csv", "manifest.json"),
        result_rows=4,
        counts={"synthesize": 4, "analyze": 3, "source_at": 2, "synthesize_per_snapshot": 0},
    ),
    # configs/smoke.json widened to n_modes=512 on a 2048-node grid
    "interval-wide": Workload(
        name="interval-wide",
        command="simulate",
        config={
            "geometry": {"a": _INTERVAL512, "b": _INTERVAL512},
            "exponents": {"r": 0.5, "sigma": 0.5},
            "potential": {"kind": "regular", "gamma": 1.0, "eps": 0.01},
            "coupling": {"kind": "constant", "value": 0.7},
            "data": {
                "theta0": [{"kind": "constant", "value": 0.1},
                           {"kind": "cos", "k": 1, "amplitude": 0.5}],
                "phi0": [{"kind": "constant", "value": 0.1},
                         {"kind": "cos", "k": 1, "amplitude": 0.3}],
                "source": _SMOKE_SOURCE,
            },
            "scheme": {"scheme": "imex_euler", "dt": 0.001, "t_final": 1.5,
                       "snapshot_stride": 10},
            "output": {"grid_times": [0.0, 1.5]},
            "seed": 20240,
        },
        result_file="timeseries.csv",
        checks=("energy_ledger_finite",),
        files=_SIM_FILES + ("grid_0.0.csv", "grid_1.5.csv"),
        result_rows=151,
        counts=_SOURCED_COUNTS,
    ),
}


def make_config(workload: Workload, seed: int) -> dict:
    """The workload config with its initial-data amplitudes drawn from `seed`.

    Only `theta0`/`phi0` terms move; each value is scaled by a factor drawn
    uniformly from [1 - AMPLITUDE_BAND, 1 + AMPLITUDE_BAND].
    """
    config = copy.deepcopy(workload.config)
    if seed == DEFAULT_SEED:
        return config
    rng = np.random.default_rng(seed)
    for field in ("theta0", "phi0"):
        for term in config["data"][field]:
            key = "value" if term["kind"] == "constant" else "amplitude"
            factor = 1.0 + AMPLITUDE_BAND * (2.0 * rng.random() - 1.0)
            term[key] = float(term[key]) * factor
    return config
