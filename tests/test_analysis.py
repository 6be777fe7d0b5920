import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import smoke_data, smoke_run
from fracphase.analysis import (contdep_report, convergence_study,
                                difference_norms, hpqo_probe, limit_system,
                                omega_limit_probe, reexpress,
                                relaxation_limit_study, running_time_integral,
                                sigma_zero_operator_check)
from fracphase.galerkin import Coupling, ProblemData, assemble
from fracphase.potentials import (custom_potential, double_obstacle_potential,
                                  regular_potential, zero_potential)
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
        assert report.degenerate and report.ratio is None
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
        report = contdep_report(*make_run(base), *make_run(pert))
        assert report.components["theta_l2"] <= 1e-13
        assert report.components["int_theta_linf_graph"] <= 1e-13
        assert report.components["phi_linf"] > 0.0

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
            basis = build_basis("interval_neumann", 1.0, n)
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
        fine = build_basis("interval_neumann", 1.0, 16)
        rng = np.random.default_rng(0)
        coeffs = rng.standard_normal((3, 8))
        lifted = reexpress(coeffs, neumann8, fine)
        assert np.allclose(lifted[:, :8], coeffs, atol=1e-11)
        assert np.max(np.abs(lifted[:, 8:])) <= 1e-11

    @pytest.mark.parametrize("kind", ["dirichlet", "neumann"])
    def test_reexpress_is_exact_on_nested_rect_spaces(self, kind):
        coarse = build_basis(f"rect_{kind}", [1.0, 2.0], 6)
        fine = build_basis(f"rect_{kind}", [1.0, 2.0], 16)
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
        report = omega_limit_probe(system, run)
        self.assert_stationary(report)
        assert report.tail_monotone

    def test_dirichlet_kernel_forces_zero_temperature(self, dirichlet8, neumann8):
        system, run = self.long_run(dirichlet8, neumann8,
                                    lambda x: 0.3 * np.sin(np.pi * x))
        report = omega_limit_probe(system, run)
        self.assert_stationary(report)
        assert report.final_theta_norm <= 1e-6

    def test_integrable_source_still_converges(self, neumann8):
        data = ProblemData(theta0=lambda x: 0.2 + 0.3 * np.cos(np.pi * x),
                           phi0=lambda x: 0.4 + 0.2 * np.cos(np.pi * x),
                           source=lambda x, t: np.exp(-t) * np.cos(np.pi * x),
                           coupling=Coupling.constant(0.5))
        system = assemble(data, neumann8, neumann8, 0.5, 0.5, 1e-2,
                          regular_potential(1.0))
        run = integrate(system, SchemeConfig("imex_euler", dt=1e-2), 120.0, 100)
        self.assert_stationary(omega_limit_probe(system, run))


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
        assert np.max(np.abs(run.phi_grid_series)) <= 1.0
        contact = run.phi_grid_series >= 1.0 - 1e-9
        assert np.any(contact) and np.min(run.xi_series[contact]) >= 0.0

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
        chk = sigma_zero_operator_check(neumann8, v, [0.25])
        # (pi^2)^0.25 - 1 = sqrt(pi) - 1
        assert chk["direct"][0] == pytest.approx(np.sqrt(np.pi) - 1.0, abs=1e-12)
        assert np.max(np.abs(chk["direct"] - chk["closed_form"])) <= 1e-12

    def test_kernel_vector_error_free(self, neumann8):
        v = np.zeros(8)
        v[0] = 2.0
        chk = sigma_zero_operator_check(neumann8, v, [0.3, 0.1, 0.01])
        assert np.all(chk["direct"] == 0.0)

    def test_strictly_decreasing_ladder(self, neumann8):
        v = np.zeros(8)
        v[1] = 1.0
        chk = sigma_zero_operator_check(neumann8, v, [0.2, 0.1, 0.05, 0.01])
        assert np.all(np.diff(chk["direct"]) < 0.0)


class TestHpqoProbe:
    def test_linear_beta_always_nonnegative(self, neumann8):
        pot = custom_potential(lambda s: np.asarray(s) ** 2 / 2.0,
                               lambda s: np.asarray(s, dtype=float),
                               beta_prime=lambda s: np.ones_like(np.asarray(s, dtype=float)),
                               validate=False)
        rng = np.random.default_rng(4)
        vectors = rng.standard_normal((8, 8)) / (1.0 + neumann8.eigenvalues)
        report = hpqo_probe(neumann8, 0.5, pot, 0.1, vectors)
        assert report.violations == 0

    def test_kernel_vector_vanishes(self, neumann8):
        v = np.zeros((1, 8))
        v[0, 0] = 1.0
        report = hpqo_probe(neumann8, 0.5, regular_potential(), 0.1, v)
        assert report.values[0] == pytest.approx(0.0, abs=1e-14)

    def test_obstacle_probe_records_sign(self, neumann8):
        rng = np.random.default_rng(6)
        vectors = 1.5 * rng.standard_normal((6, 8)) / (1.0 + neumann8.eigenvalues)
        report = hpqo_probe(neumann8, 0.5, double_obstacle_potential(0.5), 0.05,
                            vectors)
        assert report.values.shape == (6,)
        assert np.isfinite(report.min_value)
