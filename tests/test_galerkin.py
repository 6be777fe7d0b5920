import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from conftest import gauss_legendre_gram
from fracphase.expressions import build_source
from fracphase.galerkin import (OVERFLOW_LIMIT, Coupling, OverflowGuardError,
                                ProblemData, ValidationError, apply_coupling,
                                assemble, eval_nonlinearity, guard, project_data)
from fracphase.potentials import (double_obstacle_potential, regular_potential,
                                  yosida, zero_potential)
from fracphase.spectral import analyze, build_basis, synthesize


def make_system(basis_a, basis_b, coupling, potential=None, eps=1e-2,
                r=0.5, sigma=0.5, theta0=None, phi0=None, source=None):
    data = ProblemData(theta0=theta0, phi0=phi0, source=source, coupling=coupling)
    return assemble(data, basis_a, basis_b, r, sigma, eps,
                    potential or regular_potential())


class TestAssemble:
    def test_same_basis_constant_coupling_is_scaled_identity(self, neumann8):
        system = make_system(neumann8, neumann8, Coupling.constant(2.0))
        w = np.zeros(8)
        w[3] = 1.0
        out = apply_coupling(system, None, w)
        assert out[3] == pytest.approx(2.0)
        assert np.max(np.abs(np.delete(out, 3))) <= 1e-12

    def test_cross_basis_entry_matches_analytic_integral(self, neumann8, dirichlet8):
        # (eta_0, e_1) = int_0^1 sqrt(2) sin(pi x) dx = 2 sqrt(2)/pi
        system = make_system(dirichlet8, neumann8, Coupling.constant(1.0))
        assert system.coupling_matrix is not None
        assert system.coupling_matrix[0, 0] == pytest.approx(
            2.0 * np.sqrt(2.0) / np.pi, abs=1e-8)

    @pytest.mark.parametrize("kind_a,kind_b,extent,n,m", [
        ("interval_dirichlet", "interval_neumann", 1.7, 16, None),
        ("interval_neumann", "interval_dirichlet", 1.7, 16, None),
        ("rect_dirichlet", "rect_neumann", [1.0, 1.0], 64, 256),
        ("rect_dirichlet", "rect_neumann", [1.0, 2.0], 12, None),
    ])
    def test_cross_mass_matches_gauss_legendre(self, kind_a, kind_b, extent, n, m):
        basis_a, basis_b = build_basis(kind_a, extent, n, m), build_basis(kind_b, extent, n, m)
        system = make_system(basis_a, basis_b, Coupling.constant(0.7))
        exact = 0.7 * gauss_legendre_gram(basis_a, basis_b)
        assert np.max(np.abs(system.coupling_matrix - exact)) <= 1e-13

    def test_half_exponents_reproduce_laplacian(self, neumann8):
        system = make_system(neumann8, neumann8, Coupling.constant(0.0),
                             r=0.5, sigma=0.5)
        assert np.allclose(system.theta_stiff, neumann8.eigenvalues)
        assert np.allclose(system.phi_stiff, neumann8.eigenvalues)

    def test_obstacle_violation_names_nodes(self, neumann8):
        with pytest.raises(ValidationError, match="node"):
            make_system(neumann8, neumann8, Coupling.constant(0.0),
                        potential=double_obstacle_potential(0.5),
                        phi0=lambda x: 1.0 + x)

    def test_domain_mismatch_rejected(self, neumann8):
        other = build_basis("interval_neumann", 2.0, 8)
        with pytest.raises(ValidationError, match="domain"):
            make_system(neumann8, other, Coupling.constant(0.0))

    def test_sobolev_advisory_warns_but_assembles(self, neumann8):
        coupling = Coupling.function(np.tanh)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            system = make_system(neumann8, neumann8, coupling, r=0.25, sigma=0.2)
        assert any("r + 2*sigma" in str(w.message) for w in caught)
        assert system.advisories


class TestProjectData:
    def test_eigenfunction_datum_is_unit_vector(self, neumann8):
        system = make_system(
            neumann8, neumann8, Coupling.constant(0.0),
            theta0=lambda x: np.sqrt(2.0) * np.cos(np.pi * x))
        theta0, phi0 = project_data(system)
        assert theta0[1] == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(np.delete(theta0, 1))) <= 1e-12
        assert np.all(phi0 == 0.0)

    def test_cos2pix_coefficient(self, neumann8):
        system = make_system(neumann8, neumann8, Coupling.constant(0.0),
                             phi0=lambda x: np.cos(2 * np.pi * x))
        _, phi0 = project_data(system)
        assert phi0[2] == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-12)

    def test_projection_never_grows_graph_norm(self, neumann8):
        # coefficient truncation argument: |B^sigma phi_n(0)| <= |B^sigma phi_0|
        system = make_system(neumann8, neumann8, Coupling.constant(0.0),
                             phi0=lambda x: np.exp(-x))
        _, phi0 = project_data(system)
        grid_norm = np.sqrt(np.dot(system.basis_b.quad_weights,
                                   np.exp(-system.basis_b.grid_points) ** 2))
        assert np.linalg.norm(phi0) <= grid_norm + 1e-12


class TestEvalNonlinearity:
    def test_zero_state(self, neumann8):
        system = make_system(neumann8, neumann8, Coupling.constant(1.0))
        terms = eval_nonlinearity(system, np.zeros(8), np.zeros(8))
        assert np.max(np.abs(terms.fphi)) <= 1e-14

    def test_constant_state_approaches_cubic(self, neumann8):
        # pi(s) = -s, constant phi = 1: beta_eps(1) - 1 -> 0 as eps -> 0
        system = make_system(neumann8, neumann8, Coupling.constant(0.0), eps=1e-6)
        phi = np.zeros(8)
        phi[0] = 1.0  # eta_0 = 1 on (0,1)
        terms = eval_nonlinearity(system, np.zeros(8), phi)
        assert terms.fphi[0] == pytest.approx(0.0, abs=1e-5)
        assert np.max(np.abs(terms.fphi[1:])) <= 1e-12

    def test_coupling_grid_product(self, neumann8, dirichlet8):
        # the coupling enters F as -E^T theta: ell*theta on one basis, the
        # exact cross mass on two, never a grid product
        theta = np.zeros(8)
        theta[0] = 2.0
        system = make_system(neumann8, neumann8, Coupling.constant(3.0))
        terms = eval_nonlinearity(system, theta, np.zeros(8))
        assert np.array_equal(terms.fphi, -3.0 * theta)
        mixed = make_system(dirichlet8, neumann8, Coupling.constant(3.0))
        terms = eval_nonlinearity(mixed, theta, np.zeros(8))
        assert np.max(np.abs(terms.fphi + theta @ mixed.coupling_matrix)) <= 1e-15

    def test_overflow_guard(self, neumann8):
        system = make_system(neumann8, neumann8, Coupling.constant(0.0))
        huge = np.full(8, 1e13)
        with pytest.raises(OverflowGuardError):
            eval_nonlinearity(system, np.zeros(8), huge)

    def test_eps_zero_multivalued_rejected(self, neumann8):
        system = make_system(neumann8, neumann8, Coupling.constant(0.0),
                             potential=double_obstacle_potential(0.5), eps=0.0,
                             phi0=lambda x: 0.5 * np.cos(np.pi * x))
        with pytest.raises(ValidationError, match="prox"):
            eval_nonlinearity(system, np.zeros(8), np.zeros(8))


class TestQuadratureConsistency:
    def test_aliasing_control_cubic(self):
        # the cubic of a band-limited field is integrated exactly on both grids
        rng = np.random.default_rng(42)
        coeffs = rng.standard_normal(8)
        coeffs /= np.linalg.norm(coeffs)
        results = []
        for factor in (8, 16):
            basis = build_basis("interval_neumann", 1.0, 8, m_grid=factor * 8)
            grid = synthesize(basis, coeffs)
            results.append(analyze(basis, grid**3))
        assert np.max(np.abs(results[0] - results[1])) <= 1e-8

    def test_fast_path_matches_quadrature(self, neumann8):
        system = make_system(neumann8, neumann8, Coupling.constant(1.3))
        grid_coupling = Coupling.function(lambda v: np.full_like(v, 1.3))
        generic = make_system(neumann8, neumann8, grid_coupling)
        rng = np.random.default_rng(0)
        w = rng.standard_normal(8)
        phi_grid = synthesize(neumann8, rng.standard_normal(8))
        fast = apply_coupling(system, phi_grid, w)
        slow = apply_coupling(generic, phi_grid, w)
        assert np.max(np.abs(fast - slow)) <= 1e-10

    def test_lipschitz_in_phi(self, neumann8):
        eps = 0.05
        system = make_system(neumann8, neumann8, Coupling.constant(0.0), eps=eps)
        lip = 1.0 / eps + system.potential.gamma
        rng = np.random.default_rng(1)
        for _ in range(20):
            p1, p2 = rng.standard_normal(8), rng.standard_normal(8)
            f1 = eval_nonlinearity(system, np.zeros(8), p1).fphi
            f2 = eval_nonlinearity(system, np.zeros(8), p2).fphi
            assert np.linalg.norm(f1 - f2) <= lip * np.linalg.norm(p1 - p2) * (1 + 1e-10)


class TestSourceSampling:
    def test_closed_form_source(self, neumann8):
        system = make_system(neumann8, neumann8, Coupling.constant(0.0),
                             source=lambda x, t: np.cos(np.pi * x) * np.exp(-t))
        g = system.source_at(0.3)
        assert g[1] == pytest.approx(np.exp(-0.3) / np.sqrt(2.0), rel=1e-12)

    def test_separable_source_projected_once_matches_grid_analysis(self, neumann8):
        exp_cos = {"space": {"kind": "cos", "k": 1, "amplitude": 0.5},
                   "time": {"kind": "exp", "rate": -1.0}}
        gauss = {"space": {"kind": "gaussian", "center": 0.3, "width": 0.1},
                 "time": {"kind": "cos", "omega": 3.0, "phase": 0.2}}
        x = neumann8.grid_points
        for spec in (exp_cos, [exp_cos, gauss]):
            source = build_source(spec, neumann8)
            system = make_system(neumann8, neumann8, Coupling.constant(0.0),
                                 source=source)
            for t in (0.0, 0.3, 1.7, 12.0):
                per_step = analyze(neumann8, source(x, t))
                assert np.max(np.abs(system.source_at(t) - per_step)) <= 1e-14

    def test_beta_term_uses_yosida(self, neumann8):
        system = make_system(neumann8, neumann8, Coupling.constant(0.0), eps=0.1)
        phi = np.zeros(8)
        phi[0] = 1.0
        terms = eval_nonlinearity(system, np.zeros(8), phi)
        # phi = eta_0 = 1 on (0, 1): F = (beta_0.1(1) - gamma) eta_0
        expected = (yosida(system.potential, 0.1, 1.0) - system.potential.gamma) * phi
        assert np.max(np.abs(terms.fphi - expected)) <= 1e-14


def exact_guard(values, label):
    """The exact peak reduction `guard` accepts on one dot product in front of:
    (message, row) of the error it raises, None when it accepts."""
    peak = np.abs(values).max(initial=0.0)
    if peak <= OVERFLOW_LIMIT:
        return None
    at, row = "", None
    if values.ndim == 2:
        peaks = np.abs(values).max(axis=1)
        row = int(np.argmax(~(peaks <= OVERFLOW_LIMIT)))
        at, peak = f" in row {row}", peaks[row]
    return f"{label} exceeded the overflow guard{at} (peak |value| {peak:.3e})", row


# values just either side of the limit, non-finite values, and 0.6e12, which
# lies between OVERFLOW_LIMIT/2 and the limit: the dot test hands it to the
# exact peak, which accepts it
GUARD_EDGES = [0.0, np.inf, -np.inf, np.nan, 0.6e12,
               1e12 * (1 + 2**-52), -1e12 * (1 + 2**-52),
               1e12 * (1 - 2**-52), -1e12 * (1 - 2**-52)]


@settings(max_examples=300, deadline=None)
@given(values=arrays(np.float64, array_shapes(min_dims=1, max_dims=2, max_side=8),
                     elements=st.one_of(st.sampled_from(GUARD_EDGES),
                                        st.floats(-2e12, 2e12), st.floats())))
def test_guard_fast_path_matches_exact_peak(values):
    expected = exact_guard(values, "field")
    if expected is None:
        assert guard(values, "field") is values
    else:
        with pytest.raises(OverflowGuardError) as info:
            guard(values, "field")
        assert (str(info.value), info.value.row) == expected
