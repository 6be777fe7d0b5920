import collections
import dataclasses
import math
import os
import tracemalloc
from dataclasses import dataclass
from typing import Optional

import numpy as np
import pytest

import fracphase.galerkin
import fracphase.potentials
import fracphase.timestepper
from conftest import bisect_resolvent, smoke_data, smoke_run
from fracphase.config import build_system, load_raw_config, validate_config
from fracphase.expressions import build_source
from fracphase.galerkin import (Coupling, DiscreteSystem, OverflowGuardError,
                                ProblemData, ValidationError, assemble, guard,
                                project_data, stack_systems)
from fracphase.potentials import (ResolventError, double_obstacle_potential,
                                  logarithmic_potential, moreau, prox_step,
                                  regular_potential, yosida, zero_potential)
from fracphase.spectral import analyze, build_basis, synthesize
from fracphase.timestepper import (BlowupError, SchemeConfig, _finalize, integrate,
                                   prepare_step, scheme_problem, step_count, step_imex)


def linear_system(basis, r=0.25, sigma=0.5, ell=0.0, theta0=None):
    data = ProblemData(theta0=theta0, phi0=None, coupling=Coupling.constant(ell))
    return assemble(data, basis, basis, r, sigma, 1e-2, zero_potential())


def rk4(f, y0, t_final, n):
    """Independent fixed-step integration oracle for scalar/vector ODEs."""
    y, h = np.asarray(y0, dtype=float), t_final / n
    for _ in range(n):
        k1 = f(y)
        k2 = f(y + 0.5 * h * k1)
        k3 = f(y + 0.5 * h * k2)
        k4 = f(y + h * k3)
        y = y + h / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
    return y


class TestStepImex:
    def test_scalar_backward_euler(self, neumann8):
        system = linear_system(neumann8, r=0.5)
        theta = np.zeros(8)
        theta[1] = 1.0
        out, *_ = step_imex(prepare_step(system, SchemeConfig("imex_euler", dt=0.1)),
                            theta, np.zeros(8), 0.0)
        a = system.theta_stiff[1]
        assert out[1] == pytest.approx(1.0 / (1.0 + 0.1 * a), rel=1e-14)

    def test_kernel_mode_conserved(self, neumann8):
        system = linear_system(neumann8)
        theta = np.zeros(8)
        theta[0] = 2.5
        out, *_ = step_imex(prepare_step(system, SchemeConfig("imex_euler", dt=1.0)),
                            theta, np.zeros(8), 0.0)
        assert out[0] == pytest.approx(2.5, rel=1e-15)

    def test_double_well_drifts_toward_one(self, neumann8):
        # kernel-mode dynamics phi' = -(beta_eps(phi) - phi); RK4 oracle
        eps = 1e-4
        data = ProblemData(theta0=None, phi0=lambda x: np.full_like(x, 0.5),
                           coupling=Coupling.constant(0.0))
        system = assemble(data, neumann8, neumann8, 0.5, 0.5, eps,
                          regular_potential(1.0))
        run = integrate(system, SchemeConfig("imex_euler", dt=1e-3), 2.0, 200)

        def rhs(y):
            return -(yosida(system.potential, eps, y) - y)

        oracle = rk4(rhs, np.array([0.5]), 2.0, 4000)[0]
        final = run.phi_series[-1, 0]
        assert final > 0.5  # moves toward the +1 well
        assert final == pytest.approx(oracle, abs=5e-3)


class TestStepImplicitProx:
    def test_obstacle_clamps_and_reports_multiplier(self, neumann8):
        data = ProblemData(theta0=lambda x: np.full_like(x, 3.0),
                           phi0=lambda x: np.full_like(x, 0.9),
                           coupling=Coupling.constant(2.0))
        system = assemble(data, neumann8, neumann8, 0.5, 0.5, 0.0,
                          double_obstacle_potential(0.5))
        theta0, phi0 = project_data(system)
        prepared = prepare_step(system, SchemeConfig("implicit_prox", dt=0.05))
        *_, intermediate, phi_grid = step_imex(prepared, theta0, phi0, 0.0)
        xi = (intermediate - phi_grid) / 0.05
        assert np.max(np.abs(phi_grid)) <= 1.0
        touching = phi_grid >= 1.0 - 1e-12
        assert np.any(touching) and np.all(xi[touching] >= 0.0)

    def test_reduces_to_imex_without_beta(self, neumann8):
        system = linear_system(neumann8, ell=0.5)
        rng = np.random.default_rng(2)
        theta, phi = rng.standard_normal(8), rng.standard_normal(8)
        a, b = (step_imex(prepare_step(system, SchemeConfig(scheme, dt=0.01)), theta, phi, 0.0)
                for scheme in ("imex_euler", "implicit_prox"))
        assert np.max(np.abs(a[0] - b[0])) <= 1e-12
        assert np.max(np.abs(a[1] - b[1])) <= 1e-12

    def test_scalar_cubic_prox_oracle(self, neumann8):
        # d_t phi + phi^3 = 0 from phi(0) = 1, one step dt = 0.1
        data = ProblemData(theta0=None, phi0=lambda x: np.ones_like(x),
                           coupling=Coupling.constant(0.0))
        system = assemble(data, neumann8, neumann8, 0.5, 0.5, 0.0,
                          regular_potential(gamma=0.0))
        system = dataclasses.replace(system, phi_stiff=np.zeros_like(system.phi_stiff))
        theta0, phi0 = project_data(system)
        *_, phi_grid = step_imex(prepare_step(system, SchemeConfig("implicit_prox", dt=0.1)),
                                 theta0, phi0, 0.0)
        assert np.allclose(phi_grid, 0.9216989942046786, atol=1e-10)


class TestSchemeProblem:
    @pytest.mark.parametrize("potential, eps, scheme, expected", [
        (double_obstacle_potential(0.5), 0.0, "imex_euler",
         "double_obstacle at eps = 0 requires implicit_prox"),
        (double_obstacle_potential(0.5), 0.0, "implicit_prox", None),
        (double_obstacle_potential(0.5), 1e-2, "imex_euler", None),
        (logarithmic_potential(2.0), 0.0, "imex_euler", None),
        (regular_potential(1.0), 0.0, "imex_euler", None),
    ], ids=["obstacle_imex_eps0", "obstacle_prox_eps0", "obstacle_imex_yosida",
            "logarithmic_imex_eps0", "regular_imex_eps0"])
    def test_only_an_explicit_multivalued_beta_at_eps0(self, potential, eps, scheme,
                                                       expected):
        # only a multivalued beta at eps = 0 lacks a value to take explicitly
        assert scheme_problem(potential, eps, scheme) == expected


class TestIntegrate:
    def test_zero_data_stays_zero(self, neumann8):
        data = ProblemData(theta0=None, phi0=None, coupling=Coupling.constant(0.0))
        system = assemble(data, neumann8, neumann8, 0.5, 0.5, 1e-2,
                          regular_potential(1.0))
        run = integrate(system, SchemeConfig("imex_euler", dt=1e-3), 0.05)
        assert np.all(run.norm_theta == 0.0)
        assert np.all(run.norm_phi == 0.0)
        assert np.all(run.ledger.residual == 0.0)

    def test_linear_decay_matches_exponentials(self, neumann8):
        system = linear_system(neumann8, r=0.25, theta0=synthesize(neumann8, np.ones(8)))
        run = integrate(system, SchemeConfig("imex_euler", dt=1e-4), 0.1,
                        snapshot_stride=1000)
        exact = np.exp(-system.theta_stiff * 0.1)
        rel = np.abs(run.theta_series[-1] - exact) / np.abs(exact)
        assert np.max(rel[:4]) <= 1e-3

    def test_snapshot_boundary_policy(self, neumann8):
        system = linear_system(neumann8)
        run = integrate(system, SchemeConfig("imex_euler", dt=1e-2), 0.1,
                        snapshot_stride=1000)
        assert run.times.tolist() == [0.0, pytest.approx(0.1)]

    def test_rejects_incommensurate_horizon(self, neumann8):
        system = linear_system(neumann8)
        with pytest.raises(ValueError, match="integer number of steps"):
            integrate(system, SchemeConfig("imex_euler", dt=3e-3), 0.01)

    def test_imex_rejects_multivalued_potential_at_eps0(self, neumann8, monkeypatch):
        # the scheme rule is checked once, when the step is prepared, so a
        # march that breaks it takes no step
        system, _ = fast_and_oracle(obstacle_data(), neumann8, neumann8,
                                    double_obstacle_potential(0.5), 0.0)
        calls = []

        def counted(*args):
            calls.append(args)
            return step_imex(*args)

        monkeypatch.setattr(fracphase.timestepper, "step_imex", counted)
        message = "double_obstacle at eps = 0 requires implicit_prox"
        with pytest.raises(ValidationError, match=message):
            prepare_step(system, SchemeConfig("imex_euler", dt=1e-3))
        with pytest.raises(ValidationError, match=message):
            integrate(system, SchemeConfig("imex_euler", dt=1e-3), 0.01)
        assert calls == []

    # 22 steps fill part of one block; 150 steps make blocks of 64, 64 and 22
    @pytest.mark.parametrize("t_final, steps, reductions, snapshots",
                             [(0.022, 22, 1, 6), (0.15, 150, 3, 31)])
    def test_one_step_per_step_and_one_ledger_reduction_per_block(
            self, neumann8, monkeypatch, t_final, steps, reductions, snapshots):
        # the per-layer profile wraps these two module-level names; a march
        # that inlined either would drop its span without failing otherwise
        system = assemble(smoke_data(), neumann8, neumann8, 0.5, 0.5, 1e-2,
                          regular_potential(1.0))
        calls = {"step": 0, "ledger": 0}
        step, accumulate = step_imex, fracphase.timestepper._LedgerAccumulator.accumulate

        def counted_step(*args):
            calls["step"] += 1
            return step(*args)

        def counted_ledger(*args):
            calls["ledger"] += 1
            return accumulate(*args)

        monkeypatch.setattr(fracphase.timestepper, "step_imex", counted_step)
        monkeypatch.setattr(fracphase.timestepper._LedgerAccumulator, "accumulate",
                            counted_ledger)
        assert fracphase.timestepper.LEDGER_BLOCK == 64
        # snapshots every 5 steps and after the last one
        run = integrate(system, SchemeConfig("imex_euler", dt=1e-3), t_final, 5)
        assert calls == {"step": steps, "ledger": reductions}
        assert run.times.size == snapshots

    @pytest.mark.parametrize("dt, t_final", [(math.nan, 1.0), (math.inf, 1.0),
                                             (1e-3, math.nan)],
                             ids=["nan_dt", "inf_dt", "nan_t_final"])
    def test_rejects_non_finite_dt_and_horizon(self, neumann8, dt, t_final):
        # a NaN once passed every comparison and marched nothing
        with pytest.raises(ValueError):
            step_count(t_final, dt)
        if math.isfinite(dt):
            with pytest.raises(ValueError, match="t_final"):
                integrate(linear_system(neumann8), SchemeConfig("imex_euler", dt), t_final)
        else:
            with pytest.raises(ValueError, match="dt must be"):
                SchemeConfig("imex_euler", dt)

    def test_zero_source_records_positive_zeros(self):
        # theta - coupled can round to -0.0; adding dt*g of a zero source
        # turns it into +0.0, which is what the snapshots must hold.  The
        # shipped long-time system reaches exact zeros only from t = 21 on.
        path = os.path.join(os.path.dirname(__file__), os.pardir, "configs",
                            "longtime.json")
        cfg = validate_config(load_raw_config(path))
        system = build_system(cfg)
        assert system.source == ()
        run = integrate(system, cfg.scheme, 22.0, cfg.snapshot_stride)
        zeros = run.theta_series == 0.0
        assert zeros.sum() == 5
        assert run.times[np.nonzero(zeros)[0][0]] == 21.0
        assert not np.signbit(run.theta_series[zeros]).any()

    def test_blowup_keeps_partial_output(self, neumann8):
        data = ProblemData(theta0=None, phi0=lambda x: np.full_like(x, 3.0),
                           coupling=Coupling.constant(0.0))
        system = assemble(data, neumann8, neumann8, 0.5, 0.5, 1e-6,
                          regular_potential(1.0))
        with pytest.raises(BlowupError) as info:
            integrate(system, SchemeConfig("imex_euler", dt=10.0), 100.0)
        assert info.value.partial.times.size >= 1


class TestFrozenSystem:
    def test_fields_cannot_be_rebound(self, neumann8):
        system = linear_system(neumann8)
        with pytest.raises(dataclasses.FrozenInstanceError):
            system.phi_stiff = np.zeros_like(system.phi_stiff)

    def test_replaced_stiffness_is_marched_after_a_run(self, neumann8):
        # a run at one dt leaves nothing behind that a replaced system
        # marched at the same dt could pick up
        system, _ = smoke_run(neumann8, dt=1e-2, t_final=0.1)
        zeros = np.zeros_like(system.phi_stiff)
        fresh = dataclasses.replace(assemble(smoke_data(), neumann8, neumann8, 0.5, 0.5,
                                             1e-2, regular_potential(1.0)), phi_stiff=zeros)
        config = SchemeConfig("imex_euler", dt=1e-2)
        reused = integrate(dataclasses.replace(system, phi_stiff=zeros), config, 0.1)
        alone = integrate(fresh, config, 0.1)
        assert np.array_equal(reused.phi_series, alone.phi_series)
        assert np.array_equal(reused.theta_series, alone.theta_series)
        assert np.array_equal(reused.ledger.residual, alone.ledger.residual)

    def test_replaced_source_is_not_marched(self, neumann8):
        # the projected source is the system's one source field, so a system
        # whose source is replaced by () marches exactly like one assembled
        # without a source
        args = (neumann8, neumann8, 0.5, 0.5, 1e-2, regular_potential(1.0))
        dropped = dataclasses.replace(assemble(smoke_data(), *args), source=())
        unsourced = assemble(dataclasses.replace(smoke_data(), source=None), *args)
        config = SchemeConfig("imex_euler", dt=1e-2)
        run, want = (integrate(system, config, 0.1) for system in (dropped, unsourced))
        assert np.array_equal(run.theta_series, want.theta_series)
        assert np.array_equal(run.phi_series, want.phi_series)
        for f in dataclasses.fields(run.ledger):
            assert np.array_equal(getattr(run.ledger, f.name),
                                  getattr(want.ledger, f.name)), f.name
        assert np.all(run.ledger.work_source == 0.0)


class TestEnergyLedger:
    def test_residual_halves_with_dt(self, neumann8):
        _, coarse = smoke_run(neumann8, dt=1e-3)
        _, fine = smoke_run(neumann8, dt=5e-4)
        m1 = np.max(coarse.ledger.residual)
        m2 = np.max(fine.ledger.residual)
        assert m1 / m2 == pytest.approx(2.0, abs=0.3)

    @pytest.mark.parametrize("kind_a,kind_b,extent,n,m,ell", [
        ("interval_dirichlet", "interval_neumann", 1.0, 8, 32, 2.0),
        ("interval_neumann", "interval_dirichlet", 1.0, 8, 32, 2.0),
        ("rect_dirichlet", "rect_neumann", [1.0, 1.0], 12, 48, 2.0),
        ("interval_dirichlet", "interval_neumann", 1.0, 8, 32, "tanh"),
        ("interval_neumann", "interval_dirichlet", 1.0, 8, 32, "tanh")])
    def test_mixed_basis_residual_first_order(self, kind_a, kind_b, extent, n, m, ell):
        # both equations apply the same exact cross mass (a constant ell) or
        # the same weighted quadrature of ell(phi) (a function coupling), so
        # the residual quarters with dt down to the finest level
        basis_a, basis_b = build_basis(kind_a, extent, n, m), build_basis(kind_b, extent, n, m)
        k = 1 if basis_a.ndim == 1 else [1, 1]
        source = build_source(dict(SMOKE_SOURCE, space={"kind": "cos", "k": k,
                                                        "amplitude": 0.5}), basis_a)

        def x(points):
            return points.reshape(len(points), -1)[:, 0]

        coupling = (Coupling.function(lambda v: 2.0 + 0.5 * np.tanh(v))
                    if ell == "tanh" else Coupling.constant(ell))
        data = ProblemData(theta0=lambda p: 0.1 + 0.5 * np.cos(np.pi * x(p)),
                           phi0=lambda p: 0.1 + 0.3 * np.cos(np.pi * x(p)),
                           source=source, coupling=coupling)
        system = assemble(data, basis_a, basis_b, 0.5, 0.5, 1e-2, regular_potential(1.0))
        peaks = []
        for dt in (1e-3, 2.5e-4, 6.25e-5, 1.5625e-5):
            run = integrate(system, SchemeConfig("imex_euler", dt=dt), 0.25,
                            int(round(0.25 / dt)) // 25)
            peaks.append(np.max(run.ledger.residual))
        ratios = [coarse / fine for coarse, fine in zip(peaks, peaks[1:])]
        assert all(3.8 <= ratio <= 4.2 for ratio in ratios[1:]), ratios

    # 50 steps: blocks of 1 and 3 steps, and of the default, one block; a
    # stride of 7 ends in a 1-step snapshot interval, 1e9 records only t = 0.05
    @pytest.mark.parametrize("block", [1, 3, fracphase.timestepper.LEDGER_BLOCK])
    @pytest.mark.parametrize("case, stride", [
        ("one_basis", 1), ("mixed_sourced", 1), ("stacked", 1), ("obstacle_prox", 1),
        ("one_basis", 5), ("one_basis", 7), ("one_basis", 10**9), ("stacked", 7),
        ("obstacle_prox", 5), ("smoke_blowup", 3)])
    def test_sums_match_sequential_oracle(self, neumann8, dirichlet8, monkeypatch, case,
                                          stride, block):
        # the block length is no output's business: every array equals the
        # per-step march's bit for bit
        monkeypatch.setattr(fracphase.timestepper, "LEDGER_BLOCK", block)
        scheme = "implicit_prox" if case == "obstacle_prox" else "imex_euler"
        config, t_final = SchemeConfig(scheme, dt=1e-3), 0.05
        if case == "one_basis":
            system = assemble(dataclasses.replace(smoke_data(), source=None), neumann8,
                              neumann8, 0.5, 0.5, 1e-2, regular_potential(1.0))
        elif case == "mixed_sourced":
            # a slope other than 1, so phi + gamma*phi is not 2*phi
            system, _ = fast_and_oracle(smoke_data(), dirichlet8, neumann8,
                                        regular_potential(0.7), 1e-2)
        elif case == "stacked":
            # a sourced pair
            system = stack_systems(stacked_rows("interval", scheme, True)[:2])
        elif case == "obstacle_prox":
            system, _ = fast_and_oracle(obstacle_data(), neumann8, neumann8,
                                        double_obstacle_potential(0.5), 0.0)
        else:
            # a fast-growing source trips the theta guard in step 472, inside
            # a block of the default length
            raw = load_raw_config(os.path.join(os.path.dirname(__file__), os.pardir,
                                               "configs", "smoke.json"))
            raw["data"]["source"]["time"]["rate"] = 70.0
            cfg = validate_config(raw)
            system, config, t_final = build_system(cfg), cfg.scheme, cfg.t_final
            errors = []
            for march in (integrate, oracle_integrate):
                with pytest.raises(BlowupError) as info:
                    march(system, config, t_final, stride)
                errors.append(info.value)
            got, want = errors
            assert (got.step, got.t, got.row, str(got)) == (want.step, want.t, want.row,
                                                            str(want))
            assert got.step == 472 and got.partial.times.size == 158
            assert_same_bits(got.partial, want.partial)
            return
        run = integrate(system, config, t_final, stride)
        assert_same_bits(run, oracle_integrate(system, config, t_final, stride))
        assert (run.xi_final is not None) == (case == "obstacle_prox")
        assert (not system.source) == (case == "one_basis")
        if stride > 1:
            return
        # at stride 1 every state is recorded, so the sums can be redone from
        # the series alone, term by term in the order of the march
        dt = config.dt
        theta, phi, gamma = run.theta_series, run.phi_series, system.potential.gamma
        rows = phi.shape[1:-1]
        sums = dict.fromkeys(("diss_theta", "diss_phi", "work_source", "work_phi"), 0.0)
        want = {name: [np.zeros(rows)] for name in sums}
        for k in range(run.times.size - 1):
            dphi = phi[k + 1] - phi[k]
            sums["diss_theta"] += dt * np.vecdot(system.theta_stiff * theta[k], theta[k])
            sums["diss_phi"] += np.vecdot(dphi, dphi) / dt
            if system.source:
                g = system.source_at(run.times[k] + dt)
                sums["work_source"] += dt * np.vecdot(g, theta[k + 1])
            # phi - P(pi(phi)) with P(pi(phi)) = -gamma*phi: the same bits as
            # the march's phi + gamma*phi, by an independent route
            sums["work_phi"] += np.vecdot(phi[k] - (-gamma * phi[k]), dphi)
            for name, total in sums.items():
                want[name].append(np.full(rows, total))  # a copy: += works in place
        for name, series in want.items():
            assert np.array_equal(getattr(run.ledger, name), np.array(series)), name

    def test_lhs_terms_nonnegative(self, neumann8):
        _, run = smoke_run(neumann8)
        led = run.ledger
        for col in (led.half_theta_sq, led.diss_theta, led.diss_phi,
                    led.half_phi_graph_sq, led.potential_integral):
            assert np.all(col >= 0.0)

    def test_unconditional_linear_contraction(self, neumann8):
        system = linear_system(neumann8, r=0.5, sigma=0.5)
        rng = np.random.default_rng(9)
        theta, phi = rng.standard_normal(8), rng.standard_normal(8)
        for dt in (1e-3, 1.0, 1e3):
            theta_new, phi_new, *_ = step_imex(
                prepare_step(system, SchemeConfig("imex_euler", dt=dt)), theta, phi, 0.0)
            assert np.linalg.norm(theta_new) <= np.linalg.norm(theta) + 1e-14
            assert np.linalg.norm(phi_new) <= np.linalg.norm(phi) + 1e-14

    def test_schemes_converge_to_each_other(self, neumann8):
        diffs = []
        for dt in (2e-3, 1e-3):
            _, a = smoke_run(neumann8, dt=dt, scheme="imex_euler")
            _, b = smoke_run(neumann8, dt=dt, scheme="implicit_prox")
            diffs.append(np.linalg.norm(a.phi_series[-1] - b.phi_series[-1])
                         + np.linalg.norm(a.theta_series[-1] - b.theta_series[-1]))
        assert diffs[1] <= 0.75 * diffs[0]

    def test_ledger_supremum_uniform_in_eps(self, neumann8):
        sups = []
        for eps in (1e-1, 1e-2, 1e-3, 1e-4):
            _, run = smoke_run(neumann8, eps=eps)
            led = run.ledger
            sups.append([led.half_theta_sq.max(), led.diss_theta.max(),
                         led.diss_phi.max(), led.half_phi_graph_sq.max(),
                         led.potential_integral.max()])
        sups = np.array(sups)
        spread = (sups.max(axis=0) - sups.min(axis=0)) / sups.mean(axis=0)
        assert np.all(spread < 0.10)


SMOKE_SOURCE = {"space": {"kind": "cos", "k": 1, "amplitude": 0.5},
                "time": {"kind": "exp", "rate": -1.0}}


def fast_and_oracle(data, basis_a, basis_b, potential, eps, sigma=0.5):
    """The shipped system and its slow twin: a bisection resolvent (for the
    regular split) and the source sampled on the grid and analyzed at every
    step."""
    slow_pot = potential
    if potential.kind == "regular":
        def bisection(eps, s, out=None, scratch=None):
            x = bisect_resolvent(potential.beta, eps, s, np.minimum(s, 0.0), np.maximum(s, 0.0))
            if out is not None:
                out[...] = x
            return x if out is None else out

        slow_pot = dataclasses.replace(potential, resolvent_solver=bisection)
    source = build_source(SMOKE_SOURCE, basis_a)
    fast = dataclasses.replace(data, source=source)
    slow = assemble(fast, basis_a, basis_b, 0.5, sigma, eps, slow_pot)

    class GridSourced(DiscreteSystem):
        def source_at(self, t):
            return analyze(basis_a, sum(space * time(t) for space, time in source))

    slow = GridSourced(**{f.name: getattr(slow, f.name) for f in dataclasses.fields(slow)})
    return assemble(fast, basis_a, basis_b, 0.5, sigma, eps, potential), slow


def obstacle_data():
    """The obstacle data of the relaxation-limit acceptance test."""
    return ProblemData(theta0=lambda x: 2.5 * np.cos(np.pi * x),
                       phi0=lambda x: 0.8 * np.cos(np.pi * x),
                       coupling=Coupling.constant(2.0))


class TestFastPathsAgainstOracle:
    @pytest.mark.parametrize("case", ["smoke", "obstacle", "logarithmic"])
    def test_trajectory_matches_oracle_path(self, neumann8, case):
        if case == "smoke":
            args = (smoke_data(), regular_potential(1.0), 1e-2, "imex_euler")
        elif case == "obstacle":
            args = (obstacle_data(), double_obstacle_potential(0.5), 0.0, "implicit_prox")
        else:
            args = (smoke_data(), logarithmic_potential(2.0), 5e-2, "imex_euler")
        data, pot, eps, scheme = args
        fast, slow = fast_and_oracle(data, neumann8, neumann8, pot, eps)
        runs = [integrate(system, SchemeConfig(scheme, dt=1e-3), 0.5, 25)
                for system in (fast, slow)]
        for name in ("theta_series", "phi_series"):
            assert np.max(np.abs(getattr(runs[0], name) - getattr(runs[1], name))) <= 1e-10
        for name in ("lhs", "rhs", "residual"):
            assert np.max(np.abs(getattr(runs[0].ledger, name)
                                 - getattr(runs[1].ledger, name))) <= 1e-10

    # the checks run once per span of steps, so a step adds no guard call
    @pytest.mark.parametrize("case,expected", [
        ("imex_same_basis", (1, 1, 1, 0)),
        ("imex_mixed_basis", (1, 1, 1, 0)),
        ("prox", (1, 1, 1, 0)),
    ])
    def test_transforms_per_step(self, neumann8, monkeypatch, case, expected):
        dirichlet8 = build_basis("interval_dirichlet", 1.0, 8, 64)
        scheme = "implicit_prox" if case == "prox" else "imex_euler"
        if case == "prox":
            system, _ = fast_and_oracle(obstacle_data(), neumann8, neumann8,
                                        double_obstacle_potential(0.5), 0.0)
        else:
            basis_a = dirichlet8 if case == "imex_mixed_basis" else neumann8
            system, _ = fast_and_oracle(smoke_data(), basis_a, neumann8,
                                        regular_potential(1.0), 1e-2)
        assert (system.coupling_matrix is not None) == (case == "imex_mixed_basis")

        counts = {"synthesize": 0, "analyze": 0, "source_at": 0, "guard": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for module in (fracphase.galerkin, fracphase.timestepper):
            for name in ("synthesize", "analyze", "guard"):
                monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
        monkeypatch.setattr(DiscreteSystem, "source_at",
                            counted("source_at", DiscreteSystem.source_at))

        # two runs with the same two snapshots: their difference is pure step work
        totals = []
        for n_steps in (10, 30):
            before = dict(counts)
            integrate(system, SchemeConfig(scheme, dt=1e-3), n_steps * 1e-3, 10**6)
            totals.append({k: counts[k] - before[k] for k in counts})
        per_step = tuple((totals[1][k] - totals[0][k]) / 20
                         for k in ("synthesize", "analyze", "source_at", "guard"))
        assert per_step == expected


def stacked_rows(geometry, scheme, sourced):
    """Three systems on mixed Dirichlet/Neumann bases that differ in sigma and
    in their initial data and share everything else."""
    if geometry == "interval":
        basis_a = build_basis("interval_dirichlet", 1.0, 8, 64)
        basis_b = build_basis("interval_neumann", 1.0, 8, 64)
        spec = SMOKE_SOURCE
    else:
        basis_a = build_basis("rect_dirichlet", [1.0, 1.5], 6, 24)
        basis_b = build_basis("rect_neumann", [1.0, 1.5], 6, 24)
        spec = dict(SMOKE_SOURCE, space={"kind": "sin", "k": [1, 1], "amplitude": 0.5})
    if scheme == "implicit_prox":
        potential, eps = double_obstacle_potential(0.5), 0.0
    else:
        potential, eps = regular_potential(1.0), 1e-2
    source = build_source(spec, basis_a) if sourced else None
    coupling = Coupling.constant(2.0)

    def row(amplitude, sigma):
        data = ProblemData(
            theta0=lambda x: np.full(len(x), 2.5 * amplitude),
            phi0=lambda x: 0.8 * amplitude * np.cos(np.pi * x.reshape(len(x), -1)[:, 0]),
            source=source, coupling=coupling)
        return assemble(data, basis_a, basis_b, 0.5, sigma, eps, potential)

    return [row(a, sigma) for a, sigma in ((1.0, 0.5), (0.8, 0.25), (1.2, 0.1))]


class TestStackedSystems:
    """A stacked system against each of its rows integrated alone."""

    @pytest.mark.parametrize("sourced", [False, True])
    @pytest.mark.parametrize("geometry", ["interval", "rect"])
    @pytest.mark.parametrize("scheme", ["imex_euler", "implicit_prox"])
    def test_rows_match_single_runs(self, scheme, geometry, sourced):
        systems = stacked_rows(geometry, scheme, sourced)
        config = SchemeConfig(scheme, dt=1e-3)
        batch = integrate(stack_systems(systems), config, 0.05, 10)
        assert batch.theta_series.shape[1] == 3 and batch.times.ndim == 1
        # every proximal row carries its obstacle contract
        prox = scheme == "implicit_prox"
        contract = ("grid_max", "grid_min", "sign_excess") if prox else ()
        assert (batch.xi_final is not None) == prox
        for system, row in zip(systems, batch.rows()):
            alone = integrate(system, config, 0.05, 10)
            assert np.array_equal(row.times, alone.times)
            if prox:  # (synth(Phi*) - phi_grid)/dt scales a rounding by 1/dt
                assert row.xi_final.shape == alone.xi_final.shape
                assert np.max(np.abs(row.xi_final - alone.xi_final)) <= 1e-12 / config.dt
            for obj, names in ((row, ("theta_series", "phi_series", "norm_theta",
                                      "graph_theta", "norm_phi", "graph_phi",
                                      "dtphi_norm") + contract),
                               (row.ledger, ("lhs", "rhs", "residual"))):
                other = alone if obj is row else alone.ledger
                for name in names:
                    a, b = getattr(obj, name), getattr(other, name)
                    assert a.shape == b.shape
                    assert np.max(np.abs(a - b)) <= 1e-12 * max(1.0, np.max(np.abs(b)))

    @pytest.mark.parametrize("field,value", [("eps", 0.1), ("source", ()),
                                             ("potential", regular_potential(1.0))])
    def test_rows_must_share_everything_but_the_trajectory(self, field, value):
        systems = stacked_rows("interval", "imex_euler", True)
        assert stack_systems(systems).source is systems[0].source
        systems[2] = dataclasses.replace(systems[2], **{field: value})
        with pytest.raises(ValueError, match="share"):
            stack_systems(systems)

    def test_rows_must_share_source_coefficients(self):
        # rows assembled one by one hold distinct source tuples; their
        # coefficients are compared by value
        systems = stacked_rows("interval", "imex_euler", True)
        (time, coeffs), = systems[2].source
        systems[2] = dataclasses.replace(systems[2], source=((time, 2.0 * coeffs),))
        with pytest.raises(ValueError, match="share"):
            stack_systems(systems)

    def test_guard_trip_names_row_and_keeps_row_partials(self, neumann8):
        # row 1 starts far outside the wells at a stiff eps and blows up
        potential = regular_potential(1.0)

        def row(value):
            data = ProblemData(theta0=None, phi0=lambda x: np.full_like(x, value),
                               coupling=Coupling.constant(0.0))
            return assemble(data, neumann8, neumann8, 0.5, 0.5, 1e-6, potential)

        system = stack_systems([row(0.0), row(3.0), row(0.0)])
        with pytest.raises(BlowupError, match="in row 1") as info:
            integrate(system, SchemeConfig("imex_euler", dt=10.0), 100.0)
        assert (info.value.step, info.value.t, info.value.row) == (3, 30.0, 1)
        partial = info.value.partial.rows()
        assert len(partial) == 3
        for out in partial:
            assert out.phi_series.shape == (out.times.size, 8)
        assert np.all(partial[0].phi_series == 0.0)


# The state, step result, F and E w of the per-step march, kept verbatim
# as the helpers of the oracle steps and of the per-step ledger below.
@dataclass
class State:
    t: float
    theta: np.ndarray
    phi: np.ndarray


@dataclass
class StepResult:
    """One step: the new state plus what the step computed on the way.

    source is the sample g(t+dt) the step applied and dphi the phase
    increment the coupling received; the energy ledger reuses both.  A
    proximal step also reports its multiplier and grid state.
    """

    state: State
    source: np.ndarray
    dphi: np.ndarray
    xi_grid: Optional[np.ndarray] = None
    phi_grid: Optional[np.ndarray] = None


def eval_nonlinearity(system: DiscreteSystem, theta: np.ndarray, phi: np.ndarray, *,
                      include_beta: bool = True) -> tuple[np.ndarray, np.ndarray | None]:
    """(F(theta, phi), phi_grid): F = P(beta_eps(phi)) + P(pi(phi)) - E^T theta
    in the B basis, and phi on the grid (None when nothing was collocated).

    The terms linear in the state stay in modal space: P(pi(phi)) =
    -gamma*phi exactly, and a constant coupling gives E^T theta = ell*theta on
    one basis or theta @ coupling_matrix on two, the exact matrix
    `apply_coupling` applies in the temperature equation, so the two coupling
    operators are transposes and the discrete energy identity holds on mixed
    bases too.  Only what has no modal form is collocated and analyzed, in
    one pass under one overflow guard: beta_eps(phi) (beta(phi) at eps = 0)
    and ell(phi)*theta for a function coupling, whose weighted quadrature is
    consistent in both equations.  include_beta = False leaves out the convex
    part, which the proximal scheme applies through its resolvent; with a
    constant coupling it synthesizes nothing.
    """
    pot, coupling = system.potential, system.coupling
    fphi = -pot.gamma * phi
    if coupling.kind == "constant":
        if system.basis_a is system.basis_b:
            fphi = fphi - coupling.value * theta
        else:
            fphi = fphi - theta @ system.coupling_matrix

    phi_grid = None
    parts = []
    if include_beta or coupling.kind == "function":
        phi_grid = synthesize(system.basis_b, phi)
    if include_beta:
        # beta(phi) off its domain is NaN, which the guard below rejects
        parts.append(yosida(pot, system.eps, phi_grid) if system.eps > 0.0
                     else pot.beta(phi_grid))
    if coupling.kind == "function":
        parts.append(-coupling.on_grid(phi_grid) * synthesize(system.basis_a, theta))
    if parts:
        pointwise = guard(sum(parts[1:], parts[0]), "nonlinearity")
        fphi = fphi + analyze(system.basis_b, pointwise)
    return fphi, phi_grid


def apply_coupling(system: DiscreteSystem, phi_grid: np.ndarray,
                   w: np.ndarray) -> np.ndarray:
    """E w (or E(Phi) w): the A-projection of ell(phi) * (B-synthesis of w)."""
    if system.coupling.kind == "constant":
        if system.basis_a is system.basis_b:
            return system.coupling.value * w
        return w @ system.coupling_matrix.T
    values = system.coupling.on_grid(phi_grid) * synthesize(system.basis_b, w)
    return analyze(system.basis_a, values)


# The two per-scheme steps that `step_imex` replaced, kept verbatim as the
# oracle of the merged step.
def oracle_step_imex(system: DiscreteSystem, state: State, dt: float) -> StepResult:
    """One semi-implicit Euler step.

    Phi+ = (I + dt M)^(-1) (Phi - dt F(Theta, Phi)), then
    Theta+ = (I + dt Lambda)^(-1) (Theta - E (Phi+ - Phi) + dt g(t+dt)).
    """
    t_new = state.t + dt
    theta_denom, phi_denom = system.step_denominators(dt)
    fphi, start_grid = eval_nonlinearity(system, state.theta, state.phi)
    phi_new = guard((state.phi - dt * fphi) / phi_denom, "phi coefficients")
    dphi = phi_new - state.phi
    coupled = apply_coupling(system, start_grid, dphi)
    g = system.source_at(t_new)
    # + dt*g stays for a zero source too: it turns a -0.0 of theta - coupled
    # into the +0.0 the recorded series hold
    theta_new = guard((state.theta - coupled + dt * g) / theta_denom, "theta coefficients")
    return StepResult(State(t_new, theta_new, phi_new), g, dphi)


def oracle_step_implicit_prox(system: DiscreteSystem, state: State, dt: float) -> StepResult:
    """One proximal step; the result carries xi_grid and phi_grid.

    The smooth explicit terms are frozen at the current state exactly as in
    the semi-implicit step; the stiff diagonal is then solved implicitly and
    the convex part applied backward on the grid through the resolvent of
    (beta_eps or, at eps = 0, beta itself) at level dt:

        intermediate = synth((Phi - dt*explicit) / (1 + dt*M)),
        phi_grid+    = J_dt(intermediate),
        xi_grid      = (intermediate - phi_grid+) / dt   in beta(phi_grid+).

    The multiplier relation holds pointwise and exactly, so an obstacle bound
    is satisfied at every node by construction, and with beta = 0 the step
    reduces to the semi-implicit one identically.
    """
    pot, eps = system.potential, system.eps
    t_new = state.t + dt
    theta_denom, phi_denom = system.step_denominators(dt)
    fphi, start_grid = eval_nonlinearity(system, state.theta, state.phi,
                                         include_beta=False)
    phi_mid = (state.phi - dt * fphi) / phi_denom
    intermediate = guard(synthesize(system.basis_b, phi_mid), "phase grid")
    phi_grid = np.asarray(prox_step(pot, eps, dt, intermediate))
    xi_grid = (intermediate - phi_grid) / dt
    phi_next = guard(analyze(system.basis_b, phi_grid), "phi coefficients")
    dphi = phi_next - state.phi
    coupled = apply_coupling(system, start_grid, dphi)
    g = system.source_at(t_new)
    theta_next = guard((state.theta - coupled + dt * g) / theta_denom, "theta coefficients")
    return StepResult(State(t_new, theta_next, phi_next), g, dphi, xi_grid, phi_grid)


def step_arrays(step: StepResult) -> dict:
    """Every array (or None) an oracle step returns, by name."""
    return {"theta": step.state.theta, "phi": step.state.phi, "source": step.source,
            "dphi": step.dphi, "xi_grid": step.xi_grid, "phi_grid": step.phi_grid}


class TestMergedStepAgainstOracle:
    """The prepared step against the per-scheme steps it replaced: every array
    bit for bit, along a few chained steps."""

    # each case under both schemes, and the regular split at the Yosida level
    # the scheme does not take by default: imex_euler at eps = 0 takes beta
    # itself, implicit_prox at eps > 0 checks its resolvent's residual
    @pytest.mark.parametrize("scheme,case", [
        (scheme, case) for case in ("same_basis", "mixed_basis", "tanh_coupling",
                                    "logarithmic", "stacked", "stacked_rect")
        for scheme in ("imex_euler", "implicit_prox")
    ] + [("imex_euler", "regular_eps_zero"), ("implicit_prox", "regular_eps")])
    def test_bit_identical_to_per_scheme_steps(self, neumann8, scheme, case):
        if case.startswith("stacked"):
            geometry = "rect" if case == "stacked_rect" else "interval"
            system = stack_systems(stacked_rows(geometry, scheme, True)[:2])
        else:
            if case == "logarithmic":
                potential, eps = logarithmic_potential(2.0), 1e-2
            elif case.startswith("regular"):
                potential, eps = regular_potential(1.0), 0.0 if case.endswith("zero") else 1e-2
            elif scheme == "implicit_prox":
                potential, eps = double_obstacle_potential(0.5), 0.0
            else:
                potential, eps = regular_potential(1.0), 1e-2
            basis_a = (build_basis("interval_dirichlet", 1.0, 8, 64)
                       if case == "mixed_basis" else neumann8)
            data = dataclasses.replace(obstacle_data(),
                                       source=build_source(SMOKE_SOURCE, basis_a))
            if case == "tanh_coupling":
                data.coupling = Coupling.function(lambda v: 2.0 + 0.5 * np.tanh(v))
            system = assemble(data, basis_a, neumann8, 0.5, 0.5, eps, potential)
        oracle = oracle_step_implicit_prox if scheme == "implicit_prox" else oracle_step_imex
        prepared = prepare_step(system, SchemeConfig(scheme, dt=1e-2))
        state = State(0.0, *project_data(system))
        for _ in range(5):
            theta, phi, g, intermediate, phi_grid = step_imex(prepared, state.theta,
                                                              state.phi, state.t)
            expected = oracle(system, state, 1e-2)
            want = step_arrays(expected)
            # the multiplier as integrate forms it where it records one
            xi_grid = None if phi_grid is None else (intermediate - phi_grid) / 1e-2
            got = {"theta": theta, "phi": phi, "source": g, "dphi": phi - state.phi,
                   "xi_grid": xi_grid, "phi_grid": phi_grid}
            for name in want:
                if want[name] is None:
                    assert got[name] is None, name
                else:
                    assert np.array_equal(got[name], want[name]), name
            assert expected.state.t == state.t + 1e-2
            state = State(expected.state.t, theta, phi)


def _potential_integral(system: DiscreteSystem, phi: np.ndarray,
                        phi_grid: np.ndarray | None) -> np.ndarray:
    grid = phi_grid if phi_grid is not None else synthesize(system.basis_b, phi)
    density = moreau(system.potential, system.eps, grid)
    return np.vecdot(system.basis_b.quad_weights, density)


# what a snapshot records besides the state; `_finalize` derives the norms
_COLUMNS = ("t", "dtphi", "diss_theta", "diss_phi", "potential_integral",
            "work_source", "work_phi")


class OracleLedger:
    """The energy identity terms, accumulated step by step, and the
    per-snapshot columns of a whole run.

    Dissipation and work integrals use the left-endpoint rule with forward
    difference quotients, which matches the Euler consistency order; the
    source work uses the implicit sample g(t+dt) that the scheme applies
    and stays exactly 0.0 without a source.  The increment and every modal or
    grid quantity come from the step, so the ledger does no transform of its
    own.  The sums are scalars, or one entry per row of a stacked system.

    The columns are preallocated for `n_rows` snapshots, `count` of them
    filled.  A record holds only what the march produced: the state,
    |d_t phi|, the sums and the potential integral.  A proximal run also
    records per row the largest and smallest grid value and the worst sign
    excess of its multiplier, and keeps the last multiplier.
    """

    def __init__(self, system: DiscreteSystem, n_rows: int, prox: bool):
        self.system = system
        self.diss_theta = 0.0
        self.diss_phi = 0.0
        self.work_source = 0.0
        self.work_phi = 0.0
        self.count = 0
        shape = (n_rows,) + system.phi_stiff.shape[:-1]
        self.cols = {name: np.empty(shape) for name in _COLUMNS}
        self.cols["t"] = np.empty(n_rows)
        self.theta = np.empty(shape + (system.n_a,))
        self.phi = np.empty(shape + (system.n_b,))
        self.xi = np.zeros(shape[1:] + (system.basis_b.n_grid,)) if prox else None
        for name in ("grid_max", "grid_min", "sign_excess") if prox else ():
            self.cols[name] = np.empty(shape)

    def accumulate(self, state: State, step: StepResult, dt: float) -> np.ndarray:
        """Add one step's terms; returns |dphi|^2, which the caller reuses.
        phi - P(pi(phi)) is phi + gamma*phi, since pi(v) = -gamma*v."""
        sysm, dphi = self.system, step.dphi
        dphi_sq = np.vecdot(dphi, dphi)
        self.diss_theta += dt * np.vecdot(sysm.theta_stiff * state.theta, state.theta)
        self.diss_phi += dphi_sq / dt
        if sysm.source:
            self.work_source += dt * np.vecdot(step.source, step.state.theta)
        self.work_phi += np.vecdot(state.phi + sysm.potential.gamma * state.phi, dphi)
        return dphi_sq

    def record(self, state: State, dtphi, xi: np.ndarray | None,
               phi_grid: np.ndarray | None) -> None:
        """Write one snapshot: `state`, |d_t phi| and the sums so far."""
        k, c = self.count, self.cols
        c["t"][k] = state.t
        c["dtphi"][k] = dtphi
        c["diss_theta"][k] = self.diss_theta
        c["diss_phi"][k] = self.diss_phi
        c["potential_integral"][k] = _potential_integral(self.system, state.phi, phi_grid)
        c["work_source"][k] = self.work_source
        c["work_phi"][k] = self.work_phi
        self.theta[k] = state.theta
        self.phi[k] = state.phi
        if self.xi is not None:
            # a proximal run hands every record its grid iterate
            self.xi = self.xi if xi is None else xi
            c["grid_max"][k] = phi_grid.max(axis=-1)
            c["grid_min"][k] = phi_grid.min(axis=-1)
            c["sign_excess"][k] = np.where(np.abs(phi_grid) == 1.0, -phi_grid * self.xi,
                                           0.0).max(axis=-1)
        self.count += 1


def oracle_integrate(system: DiscreteSystem, scheme: SchemeConfig, t_final: float,
                     snapshot_stride: int):
    """The per-step march and ledger: integrate's loop before the ledger was
    reduced per block, over the oracle steps."""
    dt = scheme.dt
    n_steps = step_count(t_final, dt)
    theta0, phi0 = project_data(system)
    state = State(0.0, theta0, phi0)
    prox = scheme.scheme == "implicit_prox"
    oracle = oracle_step_implicit_prox if prox else oracle_step_imex
    n_rows = 1 + n_steps // snapshot_stride + (n_steps % snapshot_stride != 0)
    ledger = OracleLedger(system, n_rows, prox)
    ledger.record(state, 0.0, None, system.phi0_grid if prox else None)
    try:
        for k in range(1, n_steps + 1):
            step = oracle(system, state, dt)
            new_state = step.state
            new_state.t = k * dt  # avoid accumulated drift in snapshot times
            dphi_sq = ledger.accumulate(state, step, dt)
            state = new_state
            if k % snapshot_stride == 0 or k == n_steps:
                ledger.record(state, np.sqrt(dphi_sq) / dt, step.xi_grid, step.phi_grid)
    except (OverflowGuardError, ResolventError) as exc:
        raise BlowupError(f"{exc} in step {k}, t={k * dt!r}", _finalize(ledger), step=k,
                          t=k * dt, row=getattr(exc, "row", None)) from None
    return _finalize(ledger)


def assert_same_bits(run, want):
    """Every array of two RunOutputs and their ledgers equal bit for bit."""
    for obj, other in ((run, want), (run.ledger, want.ledger)):
        for f in dataclasses.fields(obj):
            a, b = getattr(obj, f.name), getattr(other, f.name)
            if f.name == "ledger" or b is None:
                assert a is None or f.name == "ledger", f.name
                continue
            a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
            assert a.shape == b.shape, f.name
            assert np.array_equal(a.view(np.int64), b.view(np.int64)), f.name


class TestBlockedLedgerAgainstOracle:
    """The ledger reduced once per block against the per-step one."""

    # 50 steps to t = 0.05: a stride of 7 leaves a last block of 1 step, 1000
    # makes one block.  By t = 1.5 a source sampled at k*dt instead of the
    # march's (k - 1)*dt + dt changes bits.
    @pytest.mark.parametrize("case, stride, t_final", [
        ("single", 7, 0.05), ("single", 1, 0.05), ("single", 1000, 0.05),
        ("single", 10, 1.5), ("stacked_sourced", 4, 0.05), ("stacked_prox", 3, 0.05),
        ("tanh_mixed", 6, 0.05), ("obstacle", 5, 0.05)])
    def test_bit_identical_to_per_step_ledger(self, neumann8, dirichlet8, case, stride,
                                              t_final):
        scheme = "implicit_prox" if case in ("stacked_prox", "obstacle") else "imex_euler"
        if case == "single":
            system, _ = fast_and_oracle(smoke_data(), neumann8, neumann8,
                                        regular_potential(0.7), 1e-2)
        elif case.startswith("stacked"):
            system = stack_systems(stacked_rows("interval", scheme, True))
        elif case == "tanh_mixed":
            data = dataclasses.replace(
                smoke_data(), coupling=Coupling.function(lambda v: 2.0 + 0.5 * np.tanh(v)))
            system, _ = fast_and_oracle(data, dirichlet8, neumann8,
                                        regular_potential(1.0), 1e-2)
        else:
            system, _ = fast_and_oracle(obstacle_data(), neumann8, neumann8,
                                        double_obstacle_potential(0.5), 0.0)
        config = SchemeConfig(scheme, dt=1e-3)
        assert_same_bits(integrate(system, config, t_final, stride),
                         oracle_integrate(system, config, t_final, stride))

    def test_blowup_mid_block_keeps_step_row_and_partial(self, neumann8):
        # row 1 blows up in step 3, after the snapshot of step 2 in the same block
        potential = regular_potential(1.0)

        def row(value):
            data = ProblemData(theta0=None, phi0=lambda x: np.full_like(x, value),
                               coupling=Coupling.constant(0.0))
            return assemble(data, neumann8, neumann8, 0.5, 0.5, 1e-6, potential)

        system = stack_systems([row(0.0), row(3.0), row(0.0)])
        config = SchemeConfig("imex_euler", dt=10.0)
        errors = []
        for march in (integrate, oracle_integrate):
            with pytest.raises(BlowupError) as info:
                march(system, config, 100.0, 2)
            errors.append(info.value)
        got, want = errors
        assert (got.step, got.t, got.row, str(got)) == (want.step, want.t, want.row, str(want))
        assert got.step == 3 and got.partial.times.tolist() == [0.0, 20.0]
        assert_same_bits(got.partial, want.partial)


def constant_rows(potential, eps, ell, rows, source_rate=None):
    """One neumann8 system per (theta0, phi0) pair of constant data, sharing
    the potential, the coupling ell and, given a rate, the source e^(rate t)."""
    basis = build_basis("interval_neumann", 1.0, 8, 64)
    source = None if source_rate is None else (
        (lambda x: np.ones_like(x), lambda t: np.exp(source_rate * t)),)

    def row(theta0, phi0):
        data = ProblemData(theta0=lambda x: np.full_like(x, theta0),
                           phi0=lambda x: np.full_like(x, phi0), source=source,
                           coupling=Coupling.constant(ell))
        return assemble(data, basis, basis, 0.5, 0.5, eps, potential)

    return [row(*pair) for pair in rows]


# Each check kind tripped by the lone system (the middle row) and by the
# stack of all three in the middle of a span: each trip step (lone, stacked)
# is neither the first nor the last of its snapshot interval, and a snapshot
# precedes it in the same ledger block.
FAILURES = {
    # the Newton root of a phase pushed past 1.374 rounds to the last float
    # below 1, whose residual fails; no row is named
    "resolvent": ("resolvent failed", ("imex_euler", 1e-3, 1.0, 10), (28, 28),
                  (logarithmic_potential(2.0), 1e-2, 1.0,
                   [(0.0, 0.1), (50.0, 0.1), (0.0, 0.2)], None)),
    # the same under implicit_prox, whose resolvent J_(dt + eps) takes the
    # intermediate grid: the message names level 0.011; no row is named
    "prox_resolvent": ("resolvent failed", ("implicit_prox", 1e-3, 1.0, 10), (27, 27),
                       (logarithmic_potential(2.0), 1e-2, 1.0,
                        [(0.0, 0.1), (50.0, 0.1), (0.0, 0.2)], None)),
    # beta(phi) is NaN once the explicit step takes phi past 1
    "nan_beta": ("nonlinearity", ("imex_euler", 1e-3, 1.0, 5), (19, 19),
                 (logarithmic_potential(2.0), 0.0, 1.0,
                  [(0.0, 0.1), (50.0, 0.1), (0.0, 0.2)], None)),
    # phi+ = 2 phi - phi^3 leaves phi = sqrt(3) + 1e-6 slowly, then beta =
    # phi^3 trips the guard; the steps after it overflow to inf and NaN
    "cubic_overflow": ("nonlinearity", ("imex_euler", 1.0, 60.0, 8), (11, 11),
                       (regular_potential(1.0), 0.0, 0.0,
                        [(0.0, 0.5), (0.0, 1.7320518076), (0.0, -0.5)], None)),
    # dt*ell*theta outgrows the guard on the intermediate grid
    "phase_grid": ("phase grid", ("implicit_prox", 0.5, 40.0, 4), (27, 27),
                   (double_obstacle_potential(0.5), 0.0, 10.0,
                    [(0.0, 0.1), (1e11, 0.1), (0.0, 0.2)], 2.0)),
    # beta_eps(phi) ~ phi/eps and dt = 30*eps make phi+ ~ -29 phi
    "phi": ("phi coefficients", ("imex_euler", 3.0, 3000.0, 8), (21, 15),
            (regular_potential(1.0), 0.1, 0.0, [(0.0, 0.5), (0.0, 1.0), (0.0, 1.5)], None)),
    # the source grows theta past the guard
    "theta": ("theta coefficients", ("imex_euler", 0.1, 20.0, 4), (139, 139),
              (zero_potential(), 1e-2, 0.1, [(0.0, 0.1), (5e11, 0.1), (0.0, 0.2)], 2.0)),
}


class TestFailureSemantics:
    """A failing check found once per span raises what the per-step march
    raises: the same message, step, time, row and partial output.  The steps
    a span computes after the failing one run on inf or NaN and print
    nothing (warnings are errors in this suite)."""

    @pytest.mark.parametrize("stacked", [False, True], ids=["lone", "stacked"])
    @pytest.mark.parametrize("case", sorted(FAILURES))
    def test_trip_mid_span_matches_per_step_march(self, case, stacked):
        label, (scheme, dt, t_final, stride), steps, (potential, eps, ell, rows, rate) = \
            FAILURES[case]
        systems = constant_rows(potential, eps, ell, rows, rate)
        system = stack_systems(systems) if stacked else systems[1]
        config = SchemeConfig(scheme, dt=dt)
        errors = []
        for march in (integrate, oracle_integrate):
            with pytest.raises(BlowupError) as info:
                march(system, config, t_final, stride)
            errors.append(info.value)
        got, want = errors
        assert (str(got), got.step, got.t, got.row) == (str(want), want.step, want.t,
                                                        want.row)
        assert_same_bits(got.partial, want.partial)
        assert str(got).startswith(label) and got.step == steps[stacked]
        assert (got.row is None) == (not stacked or case.endswith("resolvent"))
        if case == "prox_resolvent":
            assert "eps=0.011:" in str(got)
        last_snapshot = (got.partial.times.size - 1) * stride
        assert 0 < last_snapshot and got.step % stride > 1
        block = fracphase.timestepper.LEDGER_BLOCK
        assert (last_snapshot - 1) // block == (got.step - 1) // block

    @pytest.mark.parametrize("case", ["imex_regular", "imex_log_tanh", "prox_obstacle",
                                      "prox_regular"])
    def test_step_calls_no_check(self, neumann8, monkeypatch, case):
        # the step writes what the checks read; integrate runs them per span
        if case == "prox_obstacle":
            system, _ = fast_and_oracle(obstacle_data(), neumann8, neumann8,
                                        double_obstacle_potential(0.5), 0.0)
        else:
            data = smoke_data()
            potential = regular_potential(1.0)
            if case == "imex_log_tanh":
                data.coupling = Coupling.function(lambda v: 2.0 + 0.5 * np.tanh(v))
                potential = logarithmic_potential(2.0)
            system = assemble(data, neumann8, neumann8, 0.5, 0.5, 5e-2, potential)
        scheme = "implicit_prox" if case.startswith("prox") else "imex_euler"
        counts, in_step = collections.Counter(), [False]

        def counting(name, fn):
            def counted(*args, **kwargs):
                counts[name, in_step[0]] += 1
                return fn(*args, **kwargs)
            return counted

        for module, name in ((fracphase.galerkin, "guard"), (fracphase.timestepper, "guard"),
                             (fracphase.potentials, "resolvent"),
                             (fracphase.potentials, "check_resolvent"),
                             (fracphase.timestepper, "check_resolvent")):
            monkeypatch.setattr(module, name, counting(f"{module.__name__}.{name}",
                                                       getattr(module, name)))
        step = fracphase.timestepper.step_imex

        def stepping(*args):
            in_step[0] = True
            try:
                return step(*args)
            finally:
                in_step[0] = False

        monkeypatch.setattr(fracphase.timestepper, "step_imex", stepping)
        integrate(system, SchemeConfig(scheme, dt=1e-3), 0.05, 10)
        assert not any(inside for _, inside in +counts)
        # five spans of ten steps, each checked once (three guarded grids:
        # the collocated F or the phase grid, phi and theta), and the six
        # snapshots' Moreau envelopes checked by `resolvent` (none for the
        # obstacle at eps = 0)
        prox_obstacle = case == "prox_obstacle"
        assert counts["fracphase.timestepper.guard", False] == 5 * 3
        assert counts["fracphase.timestepper.check_resolvent", False] == 5 * (not prox_obstacle)
        assert counts["fracphase.potentials.resolvent", False] == 6 * (not prox_obstacle)

    @pytest.mark.parametrize("shape, rows", [("rect256", 1), ("interval64", 1),
                                             ("interval128", 5)])
    def test_check_rows_stay_within_the_float_budget(self, monkeypatch, shape, rows):
        # a span holds as many steps as CHECK_GRID_FLOATS allows per stored
        # grid, one step at least: a 256 x 256 rectangle checks every step.
        # The rows record the resolvent call they check: its level, input
        # (under implicit_prox the intermediate grid) and output
        if shape == "rect256":
            basis_a = build_basis("rect_dirichlet", [1.0, 1.0], 64, 256)
            basis_b = build_basis("rect_neumann", [1.0, 1.0], 64, 256)
        else:
            basis_a = basis_b = build_basis("interval_neumann", 1.0, 8, int(shape[8:]))
        potential = regular_potential(1.0)
        data = ProblemData(theta0=lambda p: np.ones(len(p)), phi0=lambda p: np.ones(len(p)),
                           coupling=Coupling.constant(0.7))
        system = stack_systems([assemble(data, basis_a, basis_b, 0.5, sigma, 1e-2, potential)
                                for sigma in np.linspace(0.5, 1.0, rows)])
        prepared = []
        prepare = fracphase.timestepper.prepare_step
        monkeypatch.setattr(fracphase.timestepper, "prepare_step",
                            lambda *args: prepared.append(prepare(*args)) or prepared[-1])
        integrate(system, SchemeConfig("imex_euler", dt=1e-3), 3e-3)
        checks = prepared[0].checks
        grids = [checks.s, checks.x, checks.f]
        assert checks.level == 1e-2 and all(grid is not None for grid in grids)
        one_step = rows * basis_b.n_grid
        budget = fracphase.timestepper.CHECK_GRID_FLOATS
        want = {"rect256": 1, "interval64": 64, "interval128": 12}[shape]
        assert checks.n_rows == want == min(fracphase.timestepper.LEDGER_BLOCK,
                                            max(1, budget // one_step))
        for grid in grids:
            assert grid.shape == (want, rows, basis_b.n_grid)
            assert grid.size <= max(budget, one_step)
        # under implicit_prox F collocates nothing, and the rows of the last
        # span hold its steps' intermediate grids and their J_(dt + eps)
        stepped = []
        step = fracphase.timestepper.step_imex
        monkeypatch.setattr(fracphase.timestepper, "step_imex",
                            lambda *args: stepped.append(step(*args)) or stepped[-1])
        integrate(system, SchemeConfig("implicit_prox", dt=1e-3), 3e-3, 3)
        checks = prepared[1].checks
        assert checks.level == 1e-3 + 1e-2 and checks.f is None
        span = checks.i + 1
        assert span == (1 if shape == "rect256" else 3)
        intermediates = np.stack([out[3] for out in stepped[-span:]])
        assert np.array_equal(checks.s[:span], intermediates)
        assert np.array_equal(checks.x[:span],
                              potential.resolvent_solver(checks.level, intermediates))

    def test_imex_obstacle_keeps_no_resolvent_rows(self, neumann8, monkeypatch):
        # under imex_euler at eps > 0 no check reads the obstacle's resolvent
        # input (its projection is exact, so no residual is checked, and only
        # implicit_prox guards the phase grid): neither its input nor its
        # output is kept, while the level is recorded and F is guarded
        system = assemble(obstacle_data(), neumann8, neumann8, 0.5, 0.5, 1e-2,
                          double_obstacle_potential(0.5))
        prepared = []
        prepare = fracphase.timestepper.prepare_step
        monkeypatch.setattr(fracphase.timestepper, "prepare_step",
                            lambda *args: prepared.append(prepare(*args)) or prepared[-1])
        integrate(system, SchemeConfig("imex_euler", dt=1e-3), 0.05, 10)
        checks = prepared[0].checks
        assert checks.s is None and checks.x is None
        assert checks.level == 1e-2 and checks.f is not None


class TestStepBuffers:
    """The march allocates its grids once per run: on a 256 x 256 rectangle,
    where a grid is 512 KB, no step and no imex_euler snapshot record traces a
    quarter of one.  Still allocating, and so left out: a function coupling's
    map, the logarithmic split's Newton iterates and the proximal contact
    reductions."""

    @pytest.mark.parametrize("scheme, potential, eps", [
        ("imex_euler", regular_potential(1.0), 1e-2),
        ("imex_euler", regular_potential(1.0), 0.0),
        ("imex_euler", double_obstacle_potential(0.5), 1e-2),
        ("implicit_prox", regular_potential(1.0), 1e-2),
        ("implicit_prox", double_obstacle_potential(0.5), 0.0)],
        ids=["imex", "imex_eps0", "imex_obstacle", "prox", "prox_obstacle"])
    def test_no_step_allocates_a_grid(self, monkeypatch, scheme, potential, eps):
        basis_a = build_basis("rect_dirichlet", [1.0, 1.0], 64, 256)
        basis_b = build_basis("rect_neumann", [1.0, 1.0], 64, 256)
        data = ProblemData(theta0=lambda p: 0.1 + 0.5 * np.cos(np.pi * p[:, 0]),
                           phi0=lambda p: 0.1 + 0.3 * np.cos(np.pi * p[:, 0]),
                           coupling=Coupling.constant(0.7))
        system = assemble(data, basis_a, basis_b, 0.5, 0.5, eps, potential)
        peaks = collections.defaultdict(list)

        def traced(name, fn):
            def call(*args):
                tracemalloc.reset_peak()
                start = tracemalloc.get_traced_memory()[0]
                try:
                    return fn(*args)
                finally:
                    peaks[name].append(tracemalloc.get_traced_memory()[1] - start)
            return call

        monkeypatch.setattr(fracphase.timestepper, "step_imex",
                            traced("step", fracphase.timestepper.step_imex))
        record = fracphase.timestepper._LedgerAccumulator.record
        monkeypatch.setattr(fracphase.timestepper._LedgerAccumulator, "record",
                            traced("record", record))
        tracemalloc.start()
        try:
            integrate(system, SchemeConfig(scheme, dt=1e-3), 6e-3, 3)
        finally:
            tracemalloc.stop()
        quarter_grid = 8 * basis_b.n_grid // 4
        assert len(peaks["step"]) == 6 and max(peaks["step"]) < quarter_grid
        assert len(peaks["record"]) == 3
        if scheme == "imex_euler" and not potential.multivalued:
            assert max(peaks["record"]) < quarter_grid
