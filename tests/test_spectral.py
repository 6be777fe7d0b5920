import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import gauss_legendre_gram, smoke_run
from fracphase.expressions import build_space_field
import fracphase.spectral
from fracphase.spectral import (FFT_MIN_TABLE_SIZE, ORTHONORMALITY_TOL,
                                BasisBuildError, analyze, build_basis,
                                cross_gram, eigenfunctions_at,
                                fractional_multipliers, gram_defect, graph_norm,
                                kernel_projection, min_grid_nodes, synthesize)
from fracphase.spectral import _select_modes

PI2 = np.pi**2


class TestIntervalBuilder:
    def test_neumann_spectrum(self):
        b = build_basis("interval_neumann", 1.0, 3)
        assert np.allclose(b.eigenvalues, [0.0, PI2, 4 * PI2], rtol=0, atol=1e-12)

    def test_dirichlet_spectrum_and_midpoint(self):
        b = build_basis("interval_dirichlet", 1.0, 2)
        assert np.allclose(b.eigenvalues, [PI2, 4 * PI2])
        e1 = eigenfunctions_at(b, np.array([0.5]))[0, 0]
        assert e1 == pytest.approx(np.sqrt(2.0), abs=1e-14)

    def test_neumann_constant_mode(self):
        b = build_basis("interval_neumann", 2.0, 1)
        assert b.eigenvalues[0] == 0.0
        assert np.allclose(b.axis_values[0][:, 0], 1.0 / np.sqrt(2.0))

    def test_rejects_small_grid(self):
        with pytest.raises(BasisBuildError, match="m_grid"):
            build_basis("interval_neumann", 1.0, 8, m_grid=16)

    def test_rejects_bad_length(self):
        with pytest.raises(BasisBuildError, match="positive"):
            build_basis("interval_neumann", -1.0, 4)

    def test_eigenvalues_sorted(self):
        for kind in ("neumann", "dirichlet"):
            b = build_basis(f"interval_{kind}", 1.7, 12)
            assert np.all(np.diff(b.eigenvalues) >= 0)

    def test_rejects_extent_count_of_other_shape(self):
        with pytest.raises(BasisBuildError, match="extent"):
            build_basis("interval_neumann", [1.0, 2.0], 4)
        with pytest.raises(BasisBuildError, match="extent"):
            build_basis("rect_neumann", 1.0, 4)

    def test_dirichlet_strictly_positive(self):
        b = build_basis("interval_dirichlet", 1.0, 6)
        assert np.all(b.eigenvalues > 0)


class TestRectBuilder:
    def test_neumann_square(self):
        b = build_basis("rect_neumann", [1.0, 1.0], 4)
        assert np.allclose(b.eigenvalues, [0.0, PI2, PI2, 2 * PI2])
        # lexicographic tie-break puts the y-mode first
        assert tuple(b.mode_indices[1]) == (0, 1)
        assert tuple(b.mode_indices[2]) == (1, 0)

    def test_dirichlet_square_first(self):
        b = build_basis("rect_dirichlet", [1.0, 1.0], 1)
        assert b.eigenvalues[0] == pytest.approx(2 * PI2)

    def test_anisotropic_ordering(self):
        b = build_basis("rect_neumann", [1.0, 2.0], 2)
        assert np.allclose(b.eigenvalues, [0.0, (np.pi / 2.0) ** 2])

    def test_quadrature_measures_area(self):
        b = build_basis("rect_neumann", [1.0, 2.0], 4)
        assert np.sum(b.quad_weights) == pytest.approx(2.0, rel=1e-13)

    def test_orthonormal(self):
        b = build_basis("rect_dirichlet", [1.0, 1.5], 9)
        assert gram_defect(b) < 1e-10

    @pytest.mark.parametrize("kind", ["rect_dirichlet", "rect_neumann"])
    def test_grid_rule_counts_retained_axis_modes(self, kind):
        # 64 modes on the unit square use 1-D modes 0..8 of each axis
        assert min_grid_nodes(kind, [1.0, 1.0], 64) == 36
        b = build_basis(kind, [1.0, 1.0], 64, 36)
        assert [v.shape for v in b.axis_values] == [(36, 9), (36, 9)]
        assert gram_defect(b) <= ORTHONORMALITY_TOL
        with pytest.raises(BasisBuildError, match="m_grid=35 .*at least 36"):
            build_basis(kind, [1.0, 1.0], 64, 35)


def meshgrid_modes(bc, lx, ly, n):
    """The selection oracle: every (jx, jy) of the n x n lattice, sorted by
    eigenvalue with lexicographic tie-break."""
    labels = np.arange(n) + (1 if bc == "dirichlet" else 0)
    jx, jy = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    jx, jy = jx.ravel(), jy.ravel()
    sums = (labels * np.pi / lx)[jx] ** 2 + (labels * np.pi / ly)[jy] ** 2
    order = np.lexsort((jy, jx, sums))
    return jx[order], jy[order], sums[order]


class TestModeSelection:
    """The bounded rectangle selection against the full lattice sort."""

    @pytest.mark.parametrize("ratio", [1.0, 1.5, np.sqrt(2.0), 10.0])
    @pytest.mark.parametrize("bc", ["dirichlet", "neumann"])
    def test_matches_meshgrid_oracle(self, bc, ratio):
        # a mode among the n lowest has both columns below n, so the n lowest
        # of the 400 x 400 lattice are the n lowest of the n x n lattice
        want_x, want_y, want_sums = meshgrid_modes(bc, 1.0, ratio, 400)
        for n in range(1, 401):
            (jx, jy), sums = _select_modes(f"rect_{bc}", (1.0, ratio), n)
            assert np.array_equal(jx, want_x[:n])
            assert np.array_equal(jy, want_y[:n])
            assert np.array_equal(sums, want_sums[:n])

    def test_grid_rule_memory_is_bounded(self):
        # the lattice of 20 000 modes per axis would take gigabytes
        tracemalloc.start()
        try:
            need = min_grid_nodes("rect_dirichlet", [1.0, 1.5], 20_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2**20
        assert need < 4 * 20_000 // 10
        # an interval's rule is closed form: nothing is enumerated
        assert min_grid_nodes("interval_neumann", 1.0, 10**10) == 4 * 10**10


# rectangles for the tensor-product paths: both kinds, square and not
RECT_CASES = [("rect_dirichlet", [1.0, 1.0], 64, 256),
              ("rect_neumann", [1.0, 1.0], 64, 256),
              ("rect_neumann", [1.0, 2.0], 12, None),
              ("rect_dirichlet", [1.3, 0.7], 20, None)]


class TestTensorProduct:
    """Per-axis transforms and Gram gate against the dense sample matrix."""

    @pytest.mark.parametrize("kind,extent,n,m", RECT_CASES)
    def test_transforms_match_dense_oracle(self, kind, extent, n, m):
        b = build_basis(kind, extent, n, m)
        dense = eigenfunctions_at(b, b.grid_points)
        rng = np.random.default_rng(5)
        coeffs = rng.standard_normal(n)
        grid = rng.standard_normal(b.n_grid)
        assert np.max(np.abs(synthesize(b, coeffs) - dense @ coeffs)) <= 1e-12
        assert np.max(np.abs(analyze(b, grid)
                             - dense.T @ (b.quad_weights * grid))) <= 1e-12
        # the `mode` data expression evaluates one selected column
        field = build_space_field({"kind": "mode", "index": 3, "amplitude": 2.0}, b)
        assert np.array_equal(field(b.grid_points), 2.0 * dense[:, 3])

    @pytest.mark.parametrize("kind,extent,n,m", RECT_CASES + [
        ("interval_neumann", 1.7, 12, None), ("interval_dirichlet", 1.0, 64, 512)])
    def test_gram_defect_matches_dense_gram(self, kind, extent, n, m):
        b = build_basis(kind, extent, n, m)
        dense = eigenfunctions_at(b, b.grid_points)
        gram = dense.T @ (b.quad_weights[:, None] * dense)
        assert abs(gram_defect(b) - np.max(np.abs(gram - np.eye(n)))) <= 1e-14


class TestBatchedTransforms:
    """Stacked (..., n) / (..., m) inputs against row-by-row calls."""

    @pytest.mark.parametrize("kind,extent,n,m", [
        ("interval_neumann", 1.0, 8, None), ("interval_dirichlet", 1.7, 12, None),
        ("rect_neumann", [1.0, 1.0], 6, 24), ("rect_dirichlet", [1.0, 1.5], 9, 36)])
    def test_rows_match_single_calls(self, kind, extent, n, m):
        b = build_basis(kind, extent, n, m)
        rng = np.random.default_rng(11)
        coeffs = rng.standard_normal((2, 3, n))
        grid = rng.standard_normal((2, 3, b.n_grid))
        synth, anal = synthesize(b, coeffs), analyze(b, grid)
        assert synth.shape == (2, 3, b.n_grid) and anal.shape == (2, 3, n)
        for idx in np.ndindex(2, 3):
            assert np.max(np.abs(synth[idx] - synthesize(b, coeffs[idx]))) <= 1e-12
            assert np.max(np.abs(anal[idx] - analyze(b, grid[idx]))) <= 1e-12


class TestFFTTransforms:
    """FFT interval transforms against the dense table they replace."""

    # below the FFT rule at the default m = 8n and at m = 4n, above it at m = 4n
    @pytest.mark.parametrize("n,m", [(64, 512), (128, 512), (512, 2048)])
    @pytest.mark.parametrize("kind", ["interval_neumann", "interval_dirichlet"])
    def test_matches_dense_oracle(self, kind, n, m, monkeypatch):
        b = build_basis(kind, 1.7, n, m)
        assert (b.fft is not None) == (n * m >= FFT_MIN_TABLE_SIZE)
        monkeypatch.setattr(fracphase.spectral, "FFT_MIN_TABLE_SIZE", 0)
        fft = build_basis(kind, 1.7, n, m)
        assert fft.fft is not None
        dense = b.axis_values[0]
        rng = np.random.default_rng(n)
        for rows in ((), (3,)):
            coeffs = rng.standard_normal(rows + (n,))
            grid = rng.standard_normal(rows + (m,))
            for got, want in ((synthesize(fft, coeffs), coeffs @ dense.T),
                              (analyze(fft, grid), (b.quad_weights * grid) @ dense)):
                assert got.shape == want.shape
                assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_run_matches_dense_path(self, monkeypatch):
        _, dense = smoke_run(build_basis("interval_neumann", 1.0, 16))
        monkeypatch.setattr(fracphase.spectral, "FFT_MIN_TABLE_SIZE", 0)
        _, fft = smoke_run(build_basis("interval_neumann", 1.0, 16))
        for a, b in ((fft.theta_series, dense.theta_series),
                     (fft.phi_series, dense.phi_series),
                     (fft.ledger.lhs, dense.ledger.lhs)):
            assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))

    def test_fft_path_keeps_input_checks(self):
        b = build_basis("interval_neumann", 1.0, 512, 2048)
        assert b.fft is not None
        with pytest.raises(ValueError, match="shape"):
            synthesize(b, np.zeros(511))
        grid = np.zeros(2048)
        grid[7] = np.inf
        with pytest.raises(ValueError, match="finite"):
            analyze(b, grid)

    def test_dispatch_rule(self):
        """Intervals only: a dense table of at least FFT_MIN_TABLE_SIZE entries
        and an FFT length 2(m-1) without a prime factor above 100."""
        assert build_basis("interval_neumann", 1.0, 8).fft is None
        assert build_basis("interval_neumann", 1.0, 128, 1024).fft is None
        assert build_basis("interval_dirichlet", 1.0, 128, 2048).fft is not None
        assert build_basis("interval_neumann", 1.0, 512, 2048).fft is not None
        # 2*(1536 - 1) = 2*5*307: the FFT would be slower than the dense product
        assert 192 * 1536 >= FFT_MIN_TABLE_SIZE
        assert build_basis("interval_neumann", 1.0, 192).fft is None
        # a rectangle's sample matrix (65 536 x 64 here) is never formed: it
        # stays sum-factorized whatever its size
        rect = build_basis("rect_neumann", [1.0, 1.0], 64, 256)
        assert rect.n_grid * rect.n_modes >= FFT_MIN_TABLE_SIZE and rect.fft is None


class TestCrossGram:
    @pytest.mark.parametrize("kind,extent", [("interval_neumann", 1.7),
                                             ("rect_dirichlet", [1.0, 2.0])])
    def test_same_family_matches_gauss_legendre(self, kind, extent):
        # the mixed families are checked through the coupling matrix in
        # test_galerkin; nested same-family bases are what reexpress uses
        a, b = build_basis(kind, extent, 6), build_basis(kind, extent, 16)
        assert np.max(np.abs(cross_gram(a, b) - gauss_legendre_gram(a, b))) <= 1e-13

    def test_rejects_different_domains(self):
        a = build_basis("interval_neumann", 1.0, 4)
        b = build_basis("interval_dirichlet", 2.0, 4)
        with pytest.raises(ValueError, match="different domains"):
            cross_gram(a, b)


class TestTransforms:
    def test_round_trip_unit_mode(self, neumann8):
        c = np.zeros(8)
        c[1] = 1.0
        back = analyze(neumann8, synthesize(neumann8, c))
        assert back[1] == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(np.delete(back, 1))) <= 1e-12

    def test_constant_field(self, neumann8):
        c = analyze(neumann8, np.full(neumann8.n_grid, 3.5))
        assert c[0] == pytest.approx(3.5, rel=1e-13)  # eta_0 = 1 on (0,1)
        assert np.max(np.abs(c[1:])) <= 1e-12

    def test_cos3pix_coefficient(self, neumann8):
        # analytic inner product: int cos(3 pi x) * sqrt(2) cos(3 pi x) = 1/sqrt(2)
        c = analyze(neumann8, np.cos(3 * np.pi * neumann8.grid_points))
        assert c[3] == pytest.approx(0.7071067811865475, abs=1e-12)
        assert np.max(np.abs(np.delete(c, 3))) <= 1e-12

    def test_rejects_nonfinite(self, neumann8):
        vals = np.zeros(neumann8.n_grid)
        vals[3] = np.nan
        with pytest.raises(ValueError, match="finite"):
            analyze(neumann8, vals)

    def test_rejects_length_mismatch(self, neumann8):
        with pytest.raises(ValueError, match="shape"):
            synthesize(neumann8, np.zeros(5))


class TestFractionalPower:
    def test_sqrt_of_laplacian(self, neumann8):
        c = np.zeros(8)
        c[1] = 1.0
        out = fractional_multipliers(neumann8, 0.5) * c
        assert out[1] == pytest.approx(np.pi, rel=1e-14)

    def test_kernel_mode_maps_to_zero(self, neumann8):
        c = np.zeros(8)
        c[0] = 1.0
        assert np.all(fractional_multipliers(neumann8, 0.37) * c == 0.0)

    def test_rejects_nonpositive_exponent(self, neumann8):
        with pytest.raises(ValueError):
            fractional_multipliers(neumann8, 0.0)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_semigroup(self, neumann8, seed):
        v = np.random.default_rng(seed).standard_normal(8)
        twice = fractional_multipliers(neumann8, 1.0) * (
            fractional_multipliers(neumann8, 1.0) * v)
        once = fractional_multipliers(neumann8, 2.0) * v
        scale = np.max(np.abs(once)) or 1.0
        assert np.max(np.abs(twice - once)) <= 1e-13 * scale


class TestKernelProjection:
    def test_neumann_keeps_constant(self, neumann8):
        c = np.zeros(8)
        c[0], c[1] = 1.0, 1.0
        p = kernel_projection(neumann8, c)
        assert p[0] == 1.0 and np.all(p[1:] == 0.0)

    def test_dirichlet_trivial_kernel(self, dirichlet8):
        p = kernel_projection(dirichlet8, np.ones(8))
        assert np.all(p == 0.0)

    def test_mean_of_linear_function(self, neumann8):
        c = analyze(neumann8, neumann8.grid_points.copy())
        mean = synthesize(neumann8, kernel_projection(neumann8, c))
        assert np.allclose(mean, 0.5, atol=1e-10)

    def test_idempotent_and_self_adjoint(self, neumann8):
        rng = np.random.default_rng(7)
        u, v = rng.standard_normal(8), rng.standard_normal(8)
        pu = kernel_projection(neumann8, u)
        assert np.max(np.abs(kernel_projection(neumann8, pu) - pu)) <= 1e-12
        pv = kernel_projection(neumann8, v)
        assert abs(np.dot(pu, v) - np.dot(u, pv)) <= 1e-12


class TestGraphNorm:
    def test_zero(self, neumann8):
        assert graph_norm(neumann8, 0.5, np.zeros(8)) == 0.0

    def test_kernel_mode_any_exponent(self, neumann8):
        c = np.zeros(8)
        c[0] = 1.0
        assert graph_norm(neumann8, 2.3, c) == pytest.approx(1.0)

    def test_formula(self, neumann8):
        c = np.zeros(8)
        c[1] = 1.0  # eigenvalue pi^2
        assert graph_norm(neumann8, 1.0, c) == pytest.approx(
            np.sqrt(1.0 + np.pi**4), rel=1e-14)

    def test_uniform_sigma_bound(self, neumann8):
        # |B^sigma v| stays below the graph norm at any larger exponent
        rng = np.random.default_rng(3)
        v = rng.standard_normal(8) / (1.0 + neumann8.eigenvalues)
        sigma0 = 0.75
        bound = graph_norm(neumann8, sigma0, v)
        for sigma in (0.75, 0.5, 0.2, 0.05, 0.01):
            norm = np.linalg.norm(fractional_multipliers(neumann8, sigma) * v)
            assert norm <= bound + 1e-12


def test_acceptance_scale_gram():
    for kind in ("neumann", "dirichlet"):
        b = build_basis(f"interval_{kind}", 1.0, 64, 512)
        assert gram_defect(b) <= 1e-10


# finite entries of 1e200 overflow the dot product of the fast finiteness test
FINITENESS_EDGES = [1.0, 1e200, -1e200, np.inf, -np.inf, np.nan]


@settings(max_examples=100, deadline=None)
@given(entries=st.lists(st.tuples(st.integers(0, 63), st.sampled_from(FINITENESS_EDGES)),
                        max_size=6),
       rows=st.sampled_from([None, 2]))
def test_analyze_finiteness_fast_path_matches_exact(entries, rows):
    basis = build_basis("interval_neumann", 1.0, 8, 64)
    grid = np.zeros(64 if rows is None else (rows, 64))
    for k, value in entries:
        grid.flat[k] = value
    if np.isfinite(grid).all():
        assert analyze(basis, grid).shape == grid.shape[:-1] + (8,)
    else:
        with pytest.raises(ValueError, match="grid values must be finite"):
            analyze(basis, grid)
