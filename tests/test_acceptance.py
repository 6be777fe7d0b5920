"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with -s to see them live).  The
scenarios are pinned here, including the sampling windows documented in the
module tests.
"""
import json
import time

import numpy as np
import pytest

from fracphase.analysis import (contdep_report, limit_system, omega_limit_probe,
                                relaxation_limit_study,
                                sigma_zero_operator_check)
from fracphase.cli import main as cli_main
from fracphase.cli import read_timeseries
from fracphase.galerkin import Coupling, ProblemData, assemble
from fracphase.potentials import (double_obstacle_potential,
                                  logarithmic_potential, moreau,
                                  regular_potential, resolvent, yosida,
                                  zero_potential)
from fracphase.spectral import (build_basis, fractional_multipliers,
                                gram_defect, synthesize)
from fracphase.timestepper import SchemeConfig, integrate


def report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num:2d} [{name}]: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} ({name}): {detail}"


def smoke_system(basis, eps=1e-2):
    data = ProblemData(
        theta0=lambda x: 0.1 + 0.5 * np.cos(np.pi * x),
        phi0=lambda x: 0.1 + 0.3 * np.cos(np.pi * x),
        source=lambda x, t: 0.5 * np.cos(np.pi * x) * np.exp(-t),
        coupling=Coupling.constant(0.7),
    )
    return assemble(data, basis, basis, 0.5, 0.5, eps, regular_potential(1.0))


def test_c01_spectral_foundation():
    start = time.perf_counter()
    worst_gram = 0.0
    worst_semigroup = 0.0
    rng = np.random.default_rng(101)
    for kind in ("neumann", "dirichlet"):
        basis = build_basis(f"interval_{kind}", 1.0, 64, 512)
        worst_gram = max(worst_gram, gram_defect(basis))
        for _ in range(100):
            v = rng.standard_normal(64)
            two = fractional_multipliers(basis, 0.6) * (
                fractional_multipliers(basis, 0.9) * v)
            one = fractional_multipliers(basis, 1.5) * v
            scale = np.max(np.abs(one)) or 1.0
            worst_semigroup = max(worst_semigroup,
                                  float(np.max(np.abs(two - one)) / scale))
    elapsed = time.perf_counter() - start
    ok = worst_gram <= 1e-10 and worst_semigroup <= 1e-13 and elapsed < 1.0
    report(1, "spectral foundation", ok,
           f"gram {worst_gram:.2e}, semigroup {worst_semigroup:.2e}, {elapsed:.2f}s")


def test_c02_convex_analysis_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(202)
    cases = {
        "regular": (regular_potential(), (-5.0, 5.0), (1e-4, 1.0), (-5.0, 5.0)),
        "logarithmic": (logarithmic_potential(2.0), (-1.6, 1.6), (0.05, 1.0),
                        (-0.999, 0.999)),
        "double_obstacle": (double_obstacle_potential(0.5), (-5.0, 5.0),
                            (1e-4, 1.0), (-1.0, 1.0)),
    }
    worst = {k: 0.0 for k in ("envelope", "monotone", "minimal", "lipschitz",
                              "nonexpansive", "residual")}
    for name, (pot, s_range, eps_range, dom_range) in cases.items():
        for eps in np.geomspace(*eps_range, 25):
            eps = float(eps)
            s = rng.uniform(*s_range, size=40)
            t = rng.uniform(*s_range, size=40)
            j_s = np.asarray(resolvent(pot, eps, s))
            j_t = np.asarray(resolvent(pot, eps, t))
            if name == "double_obstacle":
                res = np.abs(j_s - np.clip(s, -1.0, 1.0))
            else:
                res = np.abs(j_s + eps * np.asarray(pot.beta(j_s)) - s)
            worst["residual"] = max(worst["residual"], float(np.max(res)))

            env = np.asarray(moreau(pot, eps, s))
            bh = np.asarray(pot.beta_hat(s))
            finite = np.isfinite(bh)
            worst["envelope"] = max(worst["envelope"], float(np.max(
                np.maximum(-env, np.where(finite, env - bh, 0.0)))))
            worst["monotone"] = max(worst["monotone"], float(np.max(
                env - np.asarray(moreau(pot, eps / 2.0, s)))))

            sd = rng.uniform(*dom_range, size=40)
            worst["minimal"] = max(worst["minimal"], float(np.max(
                np.abs(np.asarray(yosida(pot, eps, sd)))
                - np.abs(np.asarray(pot.beta(sd))))))

            gap = np.abs(s - t) + 1e-300
            by_s, by_t = (s - j_s) / eps, (t - j_t) / eps
            worst["lipschitz"] = max(worst["lipschitz"], float(np.max(
                eps * np.abs(by_s - by_t) / gap - 1.0)))
            worst["nonexpansive"] = max(worst["nonexpansive"], float(np.max(
                np.abs(j_s - j_t) / gap - 1.0)))
    elapsed = time.perf_counter() - start
    ok = (worst["residual"] <= 1e-10 and worst["envelope"] <= 1e-12
          and worst["monotone"] <= 1e-11 and worst["minimal"] <= 1e-9
          and worst["lipschitz"] <= 1e-9 and worst["nonexpansive"] <= 1e-9
          and elapsed < 5.0)
    report(2, "convex-analysis suite", ok,
           ", ".join(f"{k} {v:.1e}" for k, v in worst.items()) + f", {elapsed:.2f}s")


def test_c03_exact_linear_oracle():
    basis = build_basis("interval_neumann", 1.0, 6)
    theta0 = np.ones(6)
    data = ProblemData(theta0=synthesize(basis, theta0), phi0=None,
                       coupling=Coupling.constant(0.0))
    system = assemble(data, basis, basis, 0.25, 0.5, 1e-2, zero_potential())
    t_final = 0.1
    exact = theta0 * np.exp(-system.theta_stiff * t_final)

    def final_error(dt):
        run = integrate(system, SchemeConfig("imex_euler", dt=dt), t_final,
                        snapshot_stride=10**9)
        return np.abs(run.theta_series[-1] - exact)

    err = final_error(1e-4)
    rel = err[:4] / np.abs(exact[:4])
    ladder = [float(np.max(final_error(dt))) for dt in (1e-4, 5e-5, 2.5e-5)]
    orders = [np.log2(ladder[i] / ladder[i + 1]) for i in range(2)]
    ok = np.max(rel) <= 1e-3 and min(orders) >= 0.9
    report(3, "exact-solution oracle", ok,
           f"max rel {np.max(rel):.2e}, orders {orders[0]:.3f}/{orders[1]:.3f}")


def test_c04_energy_ledger_richardson():
    basis = build_basis("interval_neumann", 1.0, 8)
    maxima = []
    for dt in (1e-3, 5e-4):
        system = smoke_system(basis)
        run = integrate(system, SchemeConfig("imex_euler", dt=dt), 0.5,
                        snapshot_stride=max(1, int(round(0.5 / dt)) // 50))
        led = run.ledger
        peak = float(np.max(led.residual))
        for col in (led.half_theta_sq, led.diss_theta, led.diss_phi,
                    led.half_phi_graph_sq, led.potential_integral):
            assert np.all(col >= 0.0)
        maxima.append(peak)
    ratio = maxima[0] / maxima[1]
    ok = abs(ratio - 2.0) <= 0.3
    report(4, "energy ledger Richardson", ok,
           f"residuals {maxima[0]:.3e}/{maxima[1]:.3e}, ratio {ratio:.3f}")


def test_c05_uniform_in_eps():
    basis = build_basis("interval_neumann", 1.0, 8)
    sups, cauchy, prev = [], [], None
    for eps in (1e-1, 1e-2, 1e-3, 1e-4):
        run = integrate(smoke_system(basis, eps=eps),
                        SchemeConfig("imex_euler", dt=1e-3), 0.5, 10)
        led = run.ledger
        sups.append([led.half_theta_sq.max(), led.diss_theta.max(),
                     led.diss_phi.max(), led.half_phi_graph_sq.max(),
                     led.potential_integral.max()])
        if prev is not None:
            cauchy.append(float(np.max(np.linalg.norm(prev - run.phi_series, axis=1))))
        prev = run.phi_series
    sups = np.array(sups)
    spread = (sups.max(axis=0) - sups.min(axis=0)) / sups.mean(axis=0)
    ok = bool(np.all(spread < 0.10) and np.all(np.diff(cauchy) < 0.0))
    report(5, "uniform-in-eps bounds", ok,
           f"max spread {np.max(spread):.3%}, cauchy {['%.2e' % c for c in cauchy]}")


def test_c06_continuous_dependence():
    start = time.perf_counter()
    basis = build_basis("interval_neumann", 1.0, 8)

    def make_run(data):
        system = assemble(data, basis, basis, 0.5, 0.5, 1e-2, regular_potential(1.0))
        return system, integrate(system, SchemeConfig("imex_euler", dt=1e-3), 0.5, 1)

    base = ProblemData(
        theta0=lambda x: 0.1 + 0.5 * np.cos(np.pi * x),
        phi0=lambda x: 0.1 + 0.3 * np.cos(np.pi * x),
        source=lambda x, t: 0.5 * np.cos(np.pi * x) * np.exp(-t),
        coupling=Coupling.constant(0.7))
    mode1 = np.sqrt(2.0) * np.cos(np.pi * basis.grid_points)
    ratios = []
    for delta in (1e-1, 1e-2, 1e-3, 1e-4):
        pert = ProblemData(
            theta0=lambda x, d=delta: base.theta0(x) + d * mode1,
            phi0=base.phi0, source=base.source, coupling=base.coupling)
        rep = contdep_report(*make_run(base), *make_run(pert))
        assert not rep.degenerate
        ratios.append(rep.ratio)
    ratios = np.array(ratios)
    spread = float(ratios.max() / ratios.min() - 1.0)
    elapsed = time.perf_counter() - start
    ok = bool(np.all(np.isfinite(ratios)) and spread < 0.20 and elapsed < 30.0)
    report(6, "continuous dependence", ok,
           f"ratios {np.round(ratios, 5).tolist()}, spread {spread:.3%}, {elapsed:.1f}s")


def test_c07_omega_limit():
    neumann = build_basis("interval_neumann", 1.0, 8)
    data = ProblemData(theta0=lambda x: 0.2 + 0.3 * np.cos(np.pi * x),
                       phi0=lambda x: 0.4 + 0.2 * np.cos(np.pi * x),
                       coupling=Coupling.constant(0.5))
    system = assemble(data, neumann, neumann, 0.5, 0.5, 1e-2, regular_potential(1.0))
    run = integrate(system, SchemeConfig("imex_euler", dt=1e-2), 200.0, 100)
    rep = omega_limit_probe(system, run, tail_fraction=0.1)

    dirichlet = build_basis("interval_dirichlet", 1.0, 8)
    data_d = ProblemData(theta0=lambda x: 0.3 * np.sin(np.pi * x),
                         phi0=data.phi0, coupling=Coupling.constant(0.5))
    system_d = assemble(data_d, dirichlet, neumann, 0.5, 0.5, 1e-2,
                        regular_potential(1.0))
    run_d = integrate(system_d, SchemeConfig("imex_euler", dt=1e-2), 200.0, 100)
    rep_d = omega_limit_probe(system_d, run_d)

    ok = (all(r.tail_sup_ar_theta <= 1e-6 and r.tail_sup_dtphi <= 1e-6
              and r.stationary_residual <= 1e-5 for r in (rep, rep_d))
          and rep_d.final_theta_norm <= 1e-6)
    report(7, "omega limit", ok,
           f"tails {rep.tail_sup_ar_theta:.1e}/{rep.tail_sup_dtphi:.1e}, "
           f"stationary {rep.stationary_residual:.1e}, "
           f"dirichlet |theta| {rep_d.final_theta_norm:.1e}")


def test_c08_sigma_zero_operator_identity():
    basis = build_basis("interval_neumann", 1.0, 8)
    v = np.zeros(8)
    v[1] = 1.0
    chk = sigma_zero_operator_check(basis, v, [0.25])
    # scalar formula recomputed directly: |(pi^2)^0.25 - 1| = sqrt(pi) - 1
    scalar = abs(np.pi**0.5 - 1.0)
    agree = float(np.max(np.abs(chk["direct"] - chk["closed_form"])))
    value_err = abs(chk["direct"][0] - scalar)

    ladder = sigma_zero_operator_check(basis, v, [0.2, 0.1, 0.05, 0.01])
    decreasing = bool(np.all(np.diff(ladder["direct"]) < 0.0))
    ladder_agree = float(np.max(np.abs(ladder["direct"] - ladder["closed_form"])))
    ok = (agree <= 1e-12 and ladder_agree <= 1e-12 and value_err <= 1e-12
          and decreasing)
    report(8, "sigma->0 operator check", ok,
           f"value {chk['direct'][0]:.10f} vs {scalar:.10f}, agreement {agree:.1e}, "
           f"decreasing {decreasing}")


def test_c09_relaxation_limit():
    start = time.perf_counter()
    basis = build_basis("interval_neumann", 1.0, 8)

    def ladder(data, potential):
        return [assemble(data, basis, basis, 0.5, sigma, 0.0, potential)
                for sigma in (0.5, 0.25, 0.1, 0.05)]

    data = ProblemData(theta0=lambda x: 0.1 + 0.4 * np.cos(np.pi * x),
                       phi0=lambda x: 0.1 + 0.3 * np.cos(np.pi * x),
                       coupling=Coupling.constant(0.5))
    rep = relaxation_limit_study(ladder(data, regular_potential(1.0)), 1e-3, 1.0, 10)

    data_o = ProblemData(theta0=lambda x: 2.5 * np.cos(np.pi * x),
                         phi0=lambda x: 0.8 * np.cos(np.pi * x),
                         coupling=Coupling.constant(2.0))
    ladder_o = ladder(data_o, double_obstacle_potential(0.5))
    rep_o = relaxation_limit_study(ladder_o, 1e-3, 1.0, 10)
    limit = integrate(limit_system(ladder_o[0]), SchemeConfig("implicit_prox", dt=1e-3),
                      1.0, 10)
    bound_ok = float(np.max(np.abs(limit.phi_grid_series))) <= 1.0
    upper = limit.phi_grid_series >= 1.0 - 1e-9
    lower = limit.phi_grid_series <= -1.0 + 1e-9
    xi_ok = (np.any(upper) and np.min(limit.xi_series[upper]) >= 0.0
             and np.any(lower) and np.max(limit.xi_series[lower]) <= 0.0)
    elapsed = time.perf_counter() - start
    ok = (rep.monotone and rep_o.monotone and bound_ok and xi_ok
          and elapsed < 120.0)
    report(9, "relaxation limit", ok,
           f"phi errors {['%.3e' % e for e in rep.phi_errors]}, obstacle bound "
           f"{bound_ok}, multiplier signs {xi_ok}, {elapsed:.1f}s")


def test_c10_determinism_round_trip(tmp_path):
    config = {
        "geometry": {
            "a": {"kind": "interval_neumann", "extent": 1.0, "n_modes": 8,
                  "m_grid": 64},
            "b": {"kind": "interval_neumann", "extent": 1.0, "n_modes": 8,
                  "m_grid": 64},
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
        "scheme": {"scheme": "imex_euler", "dt": 0.001, "t_final": 0.2,
                   "snapshot_stride": 10},
        "output": {"directory": "run"},
        "seed": 11,
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli_main(["simulate", "--config", str(cfg_path), "--out", str(out1),
                     "--quiet"]) == 0
    # re-run from the manifest itself
    assert cli_main(["simulate", "--config", str(out1 / "manifest.json"),
                     "--out", str(out2), "--quiet"]) == 0
    identical = all(
        (out1 / name).read_bytes() == (out2 / name).read_bytes()
        for name in ("timeseries.csv", "snapshots.csv")
    )

    cols = read_timeseries(str(out1 / "timeseries.csv"))
    snaps = {}
    with open(out1 / "snapshots.csv") as fh:
        fh.readline()
        for line in fh:
            t, field, idx, coeff = line.strip().split(",")
            snaps.setdefault((float(t), field), []).append(float(coeff))
    worst = 0.0
    for k, t in enumerate(cols["t"]):
        for field, col in (("theta", "norm_theta"), ("phi", "norm_phi")):
            norm = float(np.linalg.norm(np.array(snaps[(t, field)])))
            worst = max(worst, abs(norm - cols[col][k]))
    ok = identical and worst <= 1e-12
    report(10, "determinism / round-trip", ok,
           f"bit-identical {identical}, norm re-ingestion error {worst:.2e}")
