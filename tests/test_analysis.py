import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import sigma_zero_errors, smoke_data, smoke_run
from fracphase.analysis import (contdep_report, convergence_study,
                                difference_norms, limit_system,
                                omega_limit_probe, reexpress,
                                relaxation_limit_study, running_time_integral)
from fracphase.galerkin import Coupling, ProblemData, assemble, stack_systems
from fracphase.potentials import (double_obstacle_potential, regular_potential,
                                  zero_potential)
from fracphase.spectral import build_basis, synthesize
from fracphase.timestepper import SchemeConfig, integrate


class TestRunningTimeIntegral:
    def test_linear_in_integrand(self):
        t = np.linspace(0, 1, 101)
        v, w = np.sin(t), np.cos(3 * t)
        lhs = running_time_integral(t, 2.0 * v + w)
        rhs = 2.0 * running_time_integral(t, v) + running_time_integral(t, w)
        assert np.allclose(lhs, rhs, atol=1e-14)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_cauchy_schwarz_bound(self, seed):
        # |1*v|_{Linf(H)} <= sqrt(T) |v|_{L2(H)} holds for the shared quadrature
        rng = np.random.default_rng(seed)
        t = np.linspace(0, 2.0, 65)
        series = rng.standard_normal((65, 4))
        integral = running_time_integral(t, series)
        linf = np.max(np.linalg.norm(integral, axis=1))
        l2 = np.sqrt(np.trapezoid(np.sum(series**2, axis=1), t))
        assert linf <= np.sqrt(2.0) * l2 + 1e-12


class TestContdep:
    def make_run(self, basis):
        def run(data):
            system = assemble(data, basis, basis, 0.5, 0.5, 1e-2,
                              regular_potential(1.0))
            return system, integrate(system, SchemeConfig("imex_euler", dt=2e-3),
                                     0.2, 1)
        return run

    def test_identical_data_degenerate(self, neumann8):
        make_run = self.make_run(neumann8)
        report = contdep_report(*make_run(smoke_data()), *make_run(smoke_data()))
        assert np.isnan(report.ratio)
        assert report.lhs <= 1e-12

    def test_decoupled_phi_perturbation(self, neumann8):
        # ell = 0: a phi0 perturbation never reaches theta
        base = ProblemData(theta0=lambda x: 0.3 * np.cos(np.pi * x),
                           phi0=lambda x: 0.2 * np.cos(np.pi * x),
                           coupling=Coupling.constant(0.0))
        pert = ProblemData(theta0=base.theta0,
                           phi0=lambda x: 0.2 * np.cos(np.pi * x) + 0.05,
                           coupling=Coupling.constant(0.0))
        make_run = self.make_run(neumann8)
        (sys1, run1), (sys2, run2) = make_run(base), make_run(pert)
        report = contdep_report(sys1, run1, sys2, run2)
        assert np.max(np.abs(run1.theta_series - run2.theta_series)) <= 1e-13
        assert np.max(np.abs(run1.phi_series - run2.phi_series)) > 0.0
        assert report.lhs > 0.0

    def test_ratio_stable_over_decades(self, neumann8):
        run = self.make_run(neumann8)
        base = smoke_data()
        ratios = []
        for delta in (1e-2, 1e-3):
            pert = ProblemData(
                theta0=lambda x, d=delta: base.theta0(x) + d * np.cos(np.pi * x),
                phi0=base.phi0, source=base.source, coupling=base.coupling)
            ratios.append(contdep_report(*run(base), *run(pert)).ratio)
        assert abs(ratios[0] / ratios[1] - 1.0) < 0.2


class TestConvergenceStudy:
    def test_dt_axis_first_order_vs_exact(self, neumann8):
        theta0 = np.ones(8)
        data = ProblemData(theta0=synthesize(neumann8, theta0), phi0=None,
                           coupling=Coupling.constant(0.0))
        system = assemble(data, neumann8, neumann8, 0.25, 0.5, 1e-2,
                          zero_potential())
        errors = []
        for dt in (1e-4, 5e-5, 2.5e-5):
            run = integrate(system, SchemeConfig("imex_euler", dt=dt), 0.1,
                            snapshot_stride=int(round(0.02 / dt)))
            exact = np.exp(-np.outer(run.times, system.theta_stiff)) * theta0
            errors.append(difference_norms(
                run.times, run.theta_series - exact, run.phi_series,
                system.theta_stiff, system.phi_stiff)["theta_linf_h"])
        orders = [np.log2(coarse / fine) for coarse, fine in zip(errors, errors[1:])]
        assert all(o >= 0.9 for o in orders)

    def test_n_axis_errors_decrease(self):
        def make_run(n):
            basis = build_basis("interval_neumann", 1.0, n, 8 * n)
            data = ProblemData(
                theta0=lambda x: np.exp(-5 * (x - 0.4) ** 2),
                phi0=lambda x: 0.3 * np.exp(-4 * (x - 0.6) ** 2),
                coupling=Coupling.constant(0.5))
            system = assemble(data, basis, basis, 0.5, 0.5, 1e-2,
                              regular_potential(1.0))
            return system, integrate(system, SchemeConfig("imex_euler", dt=1e-3),
                                     0.1, 10)

        errors = convergence_study([make_run(n) for n in (4, 8, 16, 32)])
        errs = errors["phi_l2_h"][:-1]  # last entry is the reference itself
        assert all(np.diff(errs) < 0)

    def test_eps_axis_cauchy_decrease(self, neumann8):
        errors = convergence_study([smoke_run(neumann8, eps=eps, stride=10)
                                    for eps in (1e-1, 1e-2, 1e-3, 1e-4)])
        cauchy = errors["cauchy_phi_linf_h"]
        assert all(np.diff(cauchy) < 0)

    def test_reexpress_is_exact_on_nested_spaces(self, neumann8):
        fine = build_basis("interval_neumann", 1.0, 16, 128)
        rng = np.random.default_rng(0)
        coeffs = rng.standard_normal((3, 8))
        lifted = reexpress(coeffs, neumann8, fine)
        assert np.allclose(lifted[:, :8], coeffs, atol=1e-11)
        assert np.max(np.abs(lifted[:, 8:])) <= 1e-11

    @pytest.mark.parametrize("kind", ["dirichlet", "neumann"])
    def test_reexpress_is_exact_on_nested_rect_spaces(self, kind):
        coarse = build_basis(f"rect_{kind}", [1.0, 2.0], 6, 48)
        fine = build_basis(f"rect_{kind}", [1.0, 2.0], 16, 128)
        assert np.array_equal(fine.mode_indices[:6], coarse.mode_indices)
        coeffs = np.random.default_rng(1).standard_normal((3, 6))
        lifted = reexpress(coeffs, coarse, fine)
        assert np.array_equal(lifted[:, :6], coeffs)
        assert np.all(lifted[:, 6:] == 0.0)


class TestOmegaLimit:
    @staticmethod
    def assert_stationary(report):
        # the default thresholds of the longtime command
        assert report.tail_sup_ar_theta <= 1e-6
        assert report.tail_sup_dtphi <= 1e-6
        assert report.stationary_residual <= 1e-5

    def long_run(self, basis_a, basis_b, theta0, t_final=120.0):
        data = ProblemData(theta0=theta0,
                           phi0=lambda x: 0.4 + 0.2 * np.cos(np.pi * x),
                           coupling=Coupling.constant(0.5))
        system = assemble(data, basis_a, basis_b, 0.5, 0.5, 1e-2,
                          regular_potential(1.0))
        run = integrate(system, SchemeConfig("imex_euler", dt=1e-2), t_final, 100)
        return system, run

    def test_neumann_tail_and_stationarity(self, neumann8):
        system, run = self.long_run(neumann8, neumann8,
                                    lambda x: 0.2 + 0.3 * np.cos(np.pi * x))
        self.assert_stationary(omega_limit_probe(system, run))
        # the tail of the probe's default fraction decays monotonically, up to
        # roundoff jitter once the series sits at machine zero
        k0 = int(np.floor(0.9 * (run.times.size - 1)))
        tail_ar = np.sqrt(np.sum(system.theta_stiff * run.theta_series**2, axis=1))[k0:]
        tail_dtphi = run.dtphi_norm[k0:]
        slack = 1e-12 * (1.0 + tail_ar[0] + tail_dtphi[0])
        assert np.all(np.diff(tail_ar) <= slack) and np.all(np.diff(tail_dtphi) <= slack)

    def test_dirichlet_kernel_forces_zero_temperature(self, dirichlet8, neumann8):
        system, run = self.long_run(dirichlet8, neumann8,
                                    lambda x: 0.3 * np.sin(np.pi * x))
        report = omega_limit_probe(system, run)
        self.assert_stationary(report)
        assert report.final_theta_norm <= 1e-6

    def test_integrable_source_still_converges(self, neumann8):
        data = ProblemData(theta0=lambda x: 0.2 + 0.3 * np.cos(np.pi * x),
                           phi0=lambda x: 0.4 + 0.2 * np.cos(np.pi * x),
                           source=((lambda x: np.cos(np.pi * x), lambda t: np.exp(-t)),),
                           coupling=Coupling.constant(0.5))
        system = assemble(data, neumann8, neumann8, 0.5, 0.5, 1e-2,
                          regular_potential(1.0))
        run = integrate(system, SchemeConfig("imex_euler", dt=1e-2), 120.0, 100)
        self.assert_stationary(omega_limit_probe(system, run))

    def test_proximal_obstacle_row_probes_like_the_run_alone(self):
        # phi0 pressed against the obstacle at eps = 0: a stacked row records
        # its final multiplier like the run marched alone, so both probe the
        # same stationary state
        basis = build_basis("interval_neumann", 1.0, 16, 64)
        data = ProblemData(theta0=lambda x: 3.0 + 0.0 * x,
                           phi0=lambda x: 0.9 + 0.05 * np.cos(np.pi * x),
                           coupling=Coupling.constant(2.0))
        obstacle = double_obstacle_potential(0.5)
        systems = [assemble(data, basis, basis, 0.5, sigma, 0.0, obstacle)
                   for sigma in (0.5, 0.25)]
        scheme = SchemeConfig("implicit_prox", dt=1e-3)
        alone = omega_limit_probe(systems[0], integrate(systems[0], scheme, 2.0, 100))
        row = integrate(stack_systems(systems), scheme, 2.0, 100).rows()[0]
        stacked = omega_limit_probe(systems[0], row)
        assert stacked.stationary_residual <= 1e-10
        # equal up to the rounding of a two-row against a one-row product
        for name, value in dataclasses.asdict(alone).items():
            assert getattr(stacked, name) == pytest.approx(value, rel=1e-9, abs=1e-10), name


class TestRelaxationLimit:
    @staticmethod
    def solve_limit(data, basis, potential, dt, t_final, stride):
        """The direct limit solver: limit_system marched by implicit_prox."""
        system = limit_system(assemble(data, basis, basis, 0.5, 0.5, 0.0, potential))
        return system, integrate(system, SchemeConfig("implicit_prox", dt=dt),
                                 t_final, stride)

    @staticmethod
    def ladder(data, basis, potential, sigmas, eps=0.0):
        return [assemble(data, basis, basis, 0.5, sigma, eps, potential)
                for sigma in sigmas]

    def test_linear_limit_closed_form(self, neumann8):
        # gamma = 0, ell = 0, beta = 0: nonkernel modes decay like e^{-t}
        data = ProblemData(theta0=None,
                           phi0=lambda x: 0.3 + 0.5 * np.cos(np.pi * x),
                           coupling=Coupling.constant(0.0))
        _, run = self.solve_limit(data, neumann8, zero_potential(), 1e-4, 0.5, 100)
        final = run.phi_series[-1]
        assert final[0] == pytest.approx(0.3, abs=1e-10)
        assert final[1] == pytest.approx(0.5 / np.sqrt(2.0) * np.exp(-0.5), abs=1e-4)

    def test_obstacle_saturation_with_multiplier(self, neumann8):
        data = ProblemData(theta0=lambda x: np.full_like(x, 3.0),
                           phi0=lambda x: np.full_like(x, 0.9),
                           coupling=Coupling.constant(2.0))
        _, run = self.solve_limit(data, neumann8, double_obstacle_potential(0.5),
                                  1e-2, 1.0, 10)
        assert np.max(run.grid_max) <= 1.0 and np.min(run.grid_min) >= -1.0
        # the upper contact set is reached, and xi >= 0 on it
        assert np.any(run.grid_max == 1.0) and np.max(run.sign_excess) <= 0.0

    def test_dirichlet_kernel_free_projection(self, dirichlet8):
        # trivial kernel: P = 0 and the limit stiffness is the identity
        data = ProblemData(theta0=None,
                           phi0=lambda x: 0.5 * np.sin(np.pi * x),
                           coupling=Coupling.constant(0.0))
        system, run = self.solve_limit(data, dirichlet8, zero_potential(), 1e-4, 0.5, 100)
        assert np.all(system.phi_stiff == 1.0)
        # e_1 = sqrt(2) sin(pi x), so the datum has coefficient 0.5/sqrt(2)
        assert run.phi_series[-1, 0] == pytest.approx(
            0.5 / np.sqrt(2.0) * np.exp(-0.5), abs=1e-4)

    def test_sigma_ladder_strictly_decreasing(self, neumann8):
        data = ProblemData(theta0=lambda x: 0.1 + 0.4 * np.cos(np.pi * x),
                           phi0=lambda x: 0.1 + 0.3 * np.cos(np.pi * x),
                           coupling=Coupling.constant(0.5))
        ladder = self.ladder(data, neumann8, regular_potential(1.0), [0.5, 0.25, 0.1])
        report = relaxation_limit_study(ladder, 2e-3, 0.5, 10)
        assert report.monotone

    @pytest.mark.parametrize("geometry", ["interval", "dirichlet_neumann", "rect"])
    def test_linear_limit_is_first_order_in_sigma(self, geometry):
        # beta = pi = 0 and a constant coupling: on a fixed Galerkin space
        # mu^(2 sigma) = 1 + 2 sigma log(mu) + O(sigma^2) on every mode off the
        # kernel, so halving sigma halves both L2(Q) errors
        if geometry == "interval":
            basis_a = basis_b = build_basis("interval_neumann", 1.0, 8, 64)
        elif geometry == "dirichlet_neumann":
            basis_a = build_basis("interval_dirichlet", 1.0, 8, 64)
            basis_b = build_basis("interval_neumann", 1.0, 8, 64)
        else:
            basis_a = build_basis("rect_dirichlet", [1.0, 1.5], 6, 24)
            basis_b = build_basis("rect_neumann", [1.0, 1.5], 6, 24)

        def cos_x(x):
            return np.cos(np.pi * x.reshape(len(x), -1)[:, 0])

        data = ProblemData(theta0=lambda x: 0.1 + 0.4 * cos_x(x),
                           phi0=lambda x: 0.1 + 0.3 * cos_x(x),
                           coupling=Coupling.constant(0.5))
        pot = zero_potential()  # `stack_systems` requires one potential object
        ladder = [assemble(data, basis_a, basis_b, 0.5, sigma, 0.0, pot)
                  for sigma in (0.08, 0.04, 0.02, 0.01)]
        report = relaxation_limit_study(ladder, 1e-3, 1.0, 10)
        for errors in (report.phi_errors, report.theta_errors):
            orders = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
            assert np.all((0.9 <= orders) & (orders <= 1.1)), orders

    @pytest.mark.parametrize("eps", [0.0, 1e-2])
    def test_batched_study_matches_runs_alone(self, neumann8, eps):
        # eps = 0 marches the limit row inside the batch, eps > 0 alone
        data = ProblemData(theta0=lambda x: 2.5 * np.cos(np.pi * x),
                           phi0=lambda x: 0.8 * np.cos(np.pi * x),
                           coupling=Coupling.constant(2.0))
        pot = double_obstacle_potential(0.5)
        sigmas = [0.5, 0.25, 0.1]
        report = relaxation_limit_study(self.ladder(data, neumann8, pot, sigmas, eps),
                                        2e-3, 0.2, 10)
        _, limit = self.solve_limit(data, neumann8, pot, 2e-3, 0.2, 10)
        scheme = SchemeConfig("implicit_prox", dt=2e-3)
        for sigma, phi_err in zip(sigmas, report.phi_errors):
            system = assemble(data, neumann8, neumann8, 0.5, sigma, eps, pot)
            run = integrate(system, scheme, 0.2, 10)
            alone = np.sqrt(np.trapezoid(
                np.sum((run.phi_series - limit.phi_series) ** 2, axis=1), run.times))
            assert phi_err == pytest.approx(alone, rel=1e-12)

    def test_setup_validation(self, neumann8):
        data = ProblemData(theta0=None, phi0=None,
                           coupling=Coupling.function(np.tanh))
        pot = regular_potential(1.0)
        with pytest.raises(ValueError, match="constant"):
            limit_system(assemble(data, neumann8, neumann8, 0.5, 0.5, 0.0, pot))
        data = ProblemData(theta0=None, phi0=None, coupling=Coupling.constant(0.5))
        with pytest.raises(ValueError, match="decreasing"):
            relaxation_limit_study(self.ladder(data, neumann8, pot, [0.25, 0.5]),
                                   1e-2, 0.1)


class TestSigmaZeroOperator:
    def test_first_neumann_mode_value(self, neumann8):
        v = np.zeros(8)
        v[1] = 1.0
        direct, closed = sigma_zero_errors(neumann8, v, [0.25])
        # (pi^2)^0.25 - 1 = sqrt(pi) - 1
        assert direct[0] == pytest.approx(np.sqrt(np.pi) - 1.0, abs=1e-12)
        assert np.max(np.abs(direct - closed)) <= 1e-12

    def test_kernel_vector_error_free(self, neumann8):
        v = np.zeros(8)
        v[0] = 2.0
        direct, _ = sigma_zero_errors(neumann8, v, [0.3, 0.1, 0.01])
        assert np.all(direct == 0.0)

    def test_strictly_decreasing_ladder(self, neumann8):
        v = np.zeros(8)
        v[1] = 1.0
        direct, _ = sigma_zero_errors(neumann8, v, [0.2, 0.1, 0.05, 0.01])
        assert np.all(np.diff(direct) < 0.0)
