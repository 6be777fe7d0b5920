import dataclasses
import os

import numpy as np
import pytest

import fracphase.galerkin
import fracphase.timestepper
from conftest import smoke_data, smoke_run
from fracphase.config import build_system, load_raw_config, validate_config
from fracphase.expressions import build_source
from fracphase.galerkin import (Coupling, DiscreteSystem, ProblemData, apply_coupling,
                                assemble, eval_nonlinearity, guard, project_data,
                                stack_systems)
from fracphase.potentials import (double_obstacle_potential,
                                  logarithmic_potential, prox_step, regular_potential,
                                  zero_potential)
from fracphase.spectral import analyze, build_basis, synthesize
from fracphase.timestepper import (BlowupError, SchemeConfig, State, StepResult,
                                   integrate, step_imex)


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
        out = step_imex(system, State(0.0, theta, np.zeros(8)),
                        SchemeConfig("imex_euler", dt=0.1)).state
        a = system.theta_stiff[1]
        assert out.theta[1] == pytest.approx(1.0 / (1.0 + 0.1 * a), rel=1e-14)

    def test_kernel_mode_conserved(self, neumann8):
        system = linear_system(neumann8)
        theta = np.zeros(8)
        theta[0] = 2.5
        out = step_imex(system, State(0.0, theta, np.zeros(8)),
                        SchemeConfig("imex_euler", dt=1.0)).state
        assert out.theta[0] == pytest.approx(2.5, rel=1e-15)

    def test_double_well_drifts_toward_one(self, neumann8):
        # kernel-mode dynamics phi' = -(beta_eps(phi) - phi); RK4 oracle
        eps = 1e-4
        data = ProblemData(theta0=None, phi0=lambda x: np.full_like(x, 0.5),
                           coupling=Coupling.constant(0.0))
        system = assemble(data, neumann8, neumann8, 0.5, 0.5, eps,
                          regular_potential(1.0))
        run = integrate(system, SchemeConfig("imex_euler", dt=1e-3), 2.0, 200)
        from fracphase.potentials import yosida

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
        step = step_imex(system, State(0.0, theta0, phi0),
                         SchemeConfig("implicit_prox", dt=0.05))
        xi, phi_grid = step.xi_grid, step.phi_grid
        assert np.max(np.abs(phi_grid)) <= 1.0
        touching = phi_grid >= 1.0 - 1e-12
        assert np.any(touching) and np.all(xi[touching] >= 0.0)

    def test_reduces_to_imex_without_beta(self, neumann8):
        system = linear_system(neumann8, ell=0.5)
        rng = np.random.default_rng(2)
        state = State(0.0, rng.standard_normal(8), rng.standard_normal(8))
        a = step_imex(system, state, SchemeConfig("imex_euler", dt=0.01)).state
        b = step_imex(system, state, SchemeConfig("implicit_prox", dt=0.01)).state
        assert np.max(np.abs(a.theta - b.theta)) <= 1e-12
        assert np.max(np.abs(a.phi - b.phi)) <= 1e-12

    def test_scalar_cubic_prox_oracle(self, neumann8):
        # d_t phi + phi^3 = 0 from phi(0) = 1, one step dt = 0.1
        data = ProblemData(theta0=None, phi0=lambda x: np.ones_like(x),
                           coupling=Coupling.constant(0.0))
        system = assemble(data, neumann8, neumann8, 0.5, 0.5, 0.0,
                          regular_potential(gamma=0.0))
        system.phi_stiff = np.zeros_like(system.phi_stiff)
        theta0, phi0 = project_data(system)
        phi_grid = step_imex(system, State(0.0, theta0, phi0),
                             SchemeConfig("implicit_prox", dt=0.1)).phi_grid
        assert np.allclose(phi_grid, 0.9216989942046786, atol=1e-10)


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

    def test_imex_rejects_multivalued_potential_at_eps0(self, neumann8):
        system, _ = fast_and_oracle(obstacle_data(), neumann8, neumann8,
                                    double_obstacle_potential(0.5), 0.0)
        with pytest.raises(ValueError, match="requires the proximal scheme"):
            integrate(system, SchemeConfig("imex_euler", dt=1e-3), 0.01)

    def test_zero_source_records_positive_zeros(self):
        # theta - coupled can round to -0.0; adding dt*g of a zero source
        # turns it into +0.0, which is what the snapshots must hold.  The
        # shipped long-time system reaches exact zeros only from t = 21 on.
        path = os.path.join(os.path.dirname(__file__), os.pardir, "configs",
                            "longtime.json")
        cfg = validate_config(load_raw_config(path))
        system = build_system(cfg)
        assert system.source_coeffs is None
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

    def test_lhs_terms_nonnegative(self, neumann8):
        _, run = smoke_run(neumann8)
        led = run.ledger
        for col in (led.half_theta_sq, led.diss_theta, led.diss_phi,
                    led.half_phi_graph_sq, led.potential_integral):
            assert np.all(col >= 0.0)

    def test_unconditional_linear_contraction(self, neumann8):
        system = linear_system(neumann8, r=0.5, sigma=0.5)
        rng = np.random.default_rng(9)
        state = State(0.0, rng.standard_normal(8), rng.standard_normal(8))
        for dt in (1e-3, 1.0, 1e3):
            out = step_imex(system, state, SchemeConfig("imex_euler", dt=dt)).state
            assert np.linalg.norm(out.theta) <= np.linalg.norm(state.theta) + 1e-14
            assert np.linalg.norm(out.phi) <= np.linalg.norm(state.phi) + 1e-14

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
    """The shipped system and its slow twin: Newton resolvent (where the split
    is smooth), no declared pi slope, and the source as an opaque callable."""
    if potential.kind == "regular":
        slow_pot = dataclasses.replace(potential, resolvent_closed_form=None, gamma=None)
    else:
        slow_pot = dataclasses.replace(potential, gamma=None)
    source = build_source(SMOKE_SOURCE, basis_a)
    fast = dataclasses.replace(data, source=source)
    slow = dataclasses.replace(data, source=lambda x, t: source(x, t))
    return (assemble(fast, basis_a, basis_b, 0.5, sigma, eps, potential),
            assemble(slow, basis_a, basis_b, 0.5, sigma, eps, slow_pot))


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

    @pytest.mark.parametrize("case,expected", [
        ("imex_same_basis", (1, 1, 1, 3)),
        ("imex_mixed_basis", (1, 1, 1, 3)),
        ("prox", (1, 1, 1, 3)),
        ("imex_no_declared_slope", (1, 2, 1, 3)),
    ])
    def test_transforms_per_step(self, neumann8, monkeypatch, case, expected):
        dirichlet8 = build_basis("interval_dirichlet", 1.0, 8)
        scheme = "implicit_prox" if case == "prox" else "imex_euler"
        if case == "prox":
            system, _ = fast_and_oracle(obstacle_data(), neumann8, neumann8,
                                        double_obstacle_potential(0.5), 0.0)
        elif case == "imex_no_declared_slope":
            system, _ = fast_and_oracle(smoke_data(), neumann8, neumann8,
                                        regular_potential(1.0), 1e-2)
            system.potential = dataclasses.replace(system.potential, gamma=None)
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
        basis_a = build_basis("interval_dirichlet", 1.0, 8)
        basis_b = build_basis("interval_neumann", 1.0, 8)
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
        assert batch.xi_series is None and batch.phi_grid_series is None
        for system, row in zip(systems, batch.rows()):
            alone = integrate(system, config, 0.05, 10)
            assert np.array_equal(row.times, alone.times)
            for obj, names in ((row, ("theta_series", "phi_series", "norm_theta",
                                      "graph_theta", "norm_phi", "graph_phi",
                                      "dtphi_norm")),
                               (row.ledger, ("lhs", "rhs", "residual"))):
                other = alone if obj is row else alone.ledger
                for name in names:
                    a, b = getattr(obj, name), getattr(other, name)
                    assert a.shape == b.shape
                    assert np.max(np.abs(a - b)) <= 1e-12 * max(1.0, np.max(np.abs(b)))

    @pytest.mark.parametrize("field,value", [("eps", 0.1), ("source", None),
                                             ("potential", regular_potential(1.0))])
    def test_rows_must_share_everything_but_the_trajectory(self, field, value):
        systems = stacked_rows("interval", "imex_euler", True)
        assert stack_systems(systems).source_coeffs is systems[0].source_coeffs
        systems[2] = dataclasses.replace(systems[2], **{field: value})
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


# The two per-scheme steps that `step_imex` replaced, kept verbatim as the
# oracle of the merged step.
def oracle_step_imex(system: DiscreteSystem, state: State, dt: float) -> StepResult:
    """One semi-implicit Euler step.

    Phi+ = (I + dt M)^(-1) (Phi - dt F(Theta, Phi)), then
    Theta+ = (I + dt Lambda)^(-1) (Theta - E (Phi+ - Phi) + dt g(t+dt)).
    """
    t_new = state.t + dt
    theta_denom, phi_denom = system.step_denominators(dt)
    terms = eval_nonlinearity(system, state.theta, state.phi)
    phi_new = guard((state.phi - dt * terms.fphi) / phi_denom, "phi coefficients")
    dphi = phi_new - state.phi
    coupled = apply_coupling(system, terms.phi_grid, dphi)
    g = system.source_at(t_new)
    # + dt*g stays for a zero source too: it turns a -0.0 of theta - coupled
    # into the +0.0 the recorded series hold
    theta_new = guard((state.theta - coupled + dt * g) / theta_denom, "theta coefficients")
    return StepResult(State(t_new, theta_new, phi_new), terms, g, dphi)


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
    terms = eval_nonlinearity(system, state.theta, state.phi, include_beta=False)
    phi_mid = (state.phi - dt * terms.fphi) / phi_denom
    intermediate = guard(synthesize(system.basis_b, phi_mid), "phase grid")
    phi_grid = np.asarray(prox_step(pot, eps, dt, intermediate))
    xi_grid = (intermediate - phi_grid) / dt
    phi_next = guard(analyze(system.basis_b, phi_grid), "phi coefficients")
    dphi = phi_next - state.phi
    coupled = apply_coupling(system, terms.phi_grid, dphi)
    g = system.source_at(t_new)
    theta_next = guard((state.theta - coupled + dt * g) / theta_denom, "theta coefficients")
    return StepResult(State(t_new, theta_next, phi_next), terms, g, dphi, xi_grid,
                      phi_grid)


def step_arrays(step: StepResult) -> dict:
    """Every array (or None) a step returns, by name."""
    terms = step.terms
    return {"t": step.state.t, "theta": step.state.theta, "phi": step.state.phi,
            "fphi": terms.fphi, "terms.phi_grid": terms.phi_grid,
            "pi_grid": terms.pi_grid, "pi_proj": terms.pi_proj, "source": step.source,
            "dphi": step.dphi, "xi_grid": step.xi_grid, "phi_grid": step.phi_grid}


class TestMergedStepAgainstOracle:
    """The merged step against the per-scheme steps it replaced: every array
    bit for bit, along a few chained steps."""

    @pytest.mark.parametrize("case", ["same_basis", "mixed_basis", "tanh_coupling",
                                      "no_declared_slope", "stacked"])
    @pytest.mark.parametrize("scheme", ["imex_euler", "implicit_prox"])
    def test_bit_identical_to_per_scheme_steps(self, neumann8, scheme, case):
        if case == "stacked":
            system = stack_systems(stacked_rows("interval", scheme, True)[:2])
        else:
            if scheme == "implicit_prox":
                potential, eps = double_obstacle_potential(0.5), 0.0
            else:
                potential, eps = regular_potential(1.0), 1e-2
            if case == "no_declared_slope":
                potential = dataclasses.replace(potential, gamma=None)
            basis_a = (build_basis("interval_dirichlet", 1.0, 8)
                       if case == "mixed_basis" else neumann8)
            data = dataclasses.replace(obstacle_data(),
                                       source=build_source(SMOKE_SOURCE, basis_a))
            if case == "tanh_coupling":
                data.coupling = Coupling.function(lambda v: 2.0 + 0.5 * np.tanh(v))
            system = assemble(data, basis_a, neumann8, 0.5, 0.5, eps, potential)
        oracle = oracle_step_implicit_prox if scheme == "implicit_prox" else oracle_step_imex
        config = SchemeConfig(scheme, dt=1e-2)
        state = State(0.0, *project_data(system))
        for _ in range(5):
            merged, expected = step_imex(system, state, config), oracle(system, state, 1e-2)
            got, want = step_arrays(merged), step_arrays(expected)
            for name in want:
                if want[name] is None:
                    assert got[name] is None, name
                else:
                    assert np.array_equal(got[name], want[name]), name
            state = merged.state
