import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import gauss_legendre_gram, same_bits, smoke_run
from fracphase.expressions import build_space_field
import fracphase.spectral
from fracphase.galerkin import Coupling, ProblemData, assemble, stack_systems
from fracphase.potentials import logarithmic_potential
from fracphase.spectral import (FFT_MIN_TABLE_SIZE, ORTHONORMALITY_TOL,
                                BasisBuildError, analyze, build_basis,
                                cross_gram, eigenfunctions_at,
                                fractional_multipliers, gram_defect, graph_norms,
                                kernel_projection, min_grid_nodes, synthesize)
from fracphase.spectral import _fft_gram_diagonal, _select_modes
from fracphase.timestepper import BlowupError, SchemeConfig, integrate

PI2 = np.pi**2


class TestIntervalBuilder:
    def test_neumann_spectrum(self):
        b = build_basis("interval_neumann", 1.0, 3, 24)
        assert np.allclose(b.eigenvalues, [0.0, PI2, 4 * PI2], rtol=0, atol=1e-12)

    def test_dirichlet_spectrum_and_midpoint(self):
        b = build_basis("interval_dirichlet", 1.0, 2, 16)
        assert np.allclose(b.eigenvalues, [PI2, 4 * PI2])
        e1 = eigenfunctions_at(b, np.array([0.5]))[0, 0]
        assert e1 == pytest.approx(np.sqrt(2.0), abs=1e-14)

    def test_neumann_constant_mode(self):
        b = build_basis("interval_neumann", 2.0, 1, 8)
        assert b.eigenvalues[0] == 0.0
        assert np.allclose(b.synthesis_table[0], 1.0 / np.sqrt(2.0))

    def test_rejects_small_grid(self):
        with pytest.raises(BasisBuildError, match="m_grid"):
            build_basis("interval_neumann", 1.0, 8, m_grid=16)

    def test_rejects_bad_length(self):
        with pytest.raises(BasisBuildError, match="positive"):
            build_basis("interval_neumann", -1.0, 4, 32)

    def test_eigenvalues_sorted(self):
        for kind in ("neumann", "dirichlet"):
            b = build_basis(f"interval_{kind}", 1.7, 12, 96)
            assert np.all(np.diff(b.eigenvalues) >= 0)

    def test_rejects_extent_count_of_other_shape(self):
        with pytest.raises(BasisBuildError, match="extent"):
            build_basis("interval_neumann", [1.0, 2.0], 4, 32)
        with pytest.raises(BasisBuildError, match="extent"):
            build_basis("rect_neumann", 1.0, 4, 32)

    def test_dirichlet_strictly_positive(self):
        b = build_basis("interval_dirichlet", 1.0, 6, 48)
        assert np.all(b.eigenvalues > 0)


class TestRectBuilder:
    def test_neumann_square(self):
        b = build_basis("rect_neumann", [1.0, 1.0], 4, 32)
        assert np.allclose(b.eigenvalues, [0.0, PI2, PI2, 2 * PI2])
        # lexicographic tie-break puts the y-mode first
        assert tuple(b.mode_indices[1]) == (0, 1)
        assert tuple(b.mode_indices[2]) == (1, 0)

    def test_dirichlet_square_first(self):
        b = build_basis("rect_dirichlet", [1.0, 1.0], 1, 8)
        assert b.eigenvalues[0] == pytest.approx(2 * PI2)

    def test_anisotropic_ordering(self):
        b = build_basis("rect_neumann", [1.0, 2.0], 2, 16)
        assert np.allclose(b.eigenvalues, [0.0, (np.pi / 2.0) ** 2])

    def test_quadrature_measures_area(self):
        b = build_basis("rect_neumann", [1.0, 2.0], 4, 32)
        assert np.sum(b.quad_weights) == pytest.approx(2.0, rel=1e-13)

    def test_orthonormal(self):
        b = build_basis("rect_dirichlet", [1.0, 1.5], 9, 72)
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


class TestAxisGrid:
    """A basis stores each axis's nodes; `grid_points` and `same_grid_as`
    derive from them what the stored (m*m, 2) tensor grid gave."""

    @pytest.mark.parametrize("extent", [[1.3, 0.7], [1.0, 2.5]])
    def test_grid_points_match_the_tensor_grid(self, extent):
        # the oracle is the grid `build_basis` stored before: x repeated, y
        # tiled; a Dirichlet and a Neumann basis (a mixed pair) share it
        m = 40
        x, y = (np.linspace(0.0, length, m) for length in extent)
        want = np.column_stack([np.repeat(x, m), np.tile(y, m)])
        for kind in ("rect_dirichlet", "rect_neumann"):
            points = build_basis(kind, extent, 9, m).grid_points
            assert points.shape == want.shape and points.dtype == want.dtype
            assert points.tobytes() == want.tobytes()
        for kind in ("interval_dirichlet", "interval_neumann"):
            points = build_basis(kind, extent[0], 6, m).grid_points
            assert points.tobytes() == np.linspace(0.0, extent[0], m).tobytes()

    def test_same_grid_as_matches_the_full_arrays(self):
        # bases that differ in m_grid, extent, kind and dimension; an interval
        # of 64 nodes and an 8 x 8 rectangle hold the same node count
        bases = [build_basis(kind, extent, n, m) for kind, extent, n, m in [
            ("interval_neumann", 1.0, 8, 64), ("interval_dirichlet", 1.0, 8, 64),
            ("interval_neumann", 1.0, 8, 96), ("interval_neumann", 1.7, 8, 64),
            ("rect_neumann", [1.0, 1.5], 6, 24), ("rect_dirichlet", [1.0, 1.5], 6, 24),
            ("rect_neumann", [1.0, 1.5], 6, 36), ("rect_neumann", [1.5, 1.0], 6, 24),
            ("rect_dirichlet", [1.0, 1.0], 6, 24), ("rect_neumann", [1.0, 1.0], 1, 8)]]
        same = 0
        for a in bases:
            for b in bases:
                full = (a.grid_points.shape == b.grid_points.shape
                        and np.array_equal(a.grid_points, b.grid_points)
                        and np.array_equal(a.quad_weights, b.quad_weights))
                assert a.same_grid_as(b) == full, (a.kind, a.domain_extent, b.kind,
                                                   b.domain_extent)
                same += full and a is not b
        assert same == 4


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
              ("rect_neumann", [1.0, 2.0], 12, 96),
              ("rect_dirichlet", [1.3, 0.7], 20, 160)]


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
        assert np.array_equal(field, 2.0 * dense[:, 3])

    @pytest.mark.parametrize("kind,extent,n,m", RECT_CASES + [
        ("interval_neumann", 1.7, 12, 96), ("interval_dirichlet", 1.0, 64, 512)])
    def test_gram_defect_matches_dense_gram(self, kind, extent, n, m):
        b = build_basis(kind, extent, n, m)
        dense = eigenfunctions_at(b, b.grid_points)
        gram = dense.T @ (b.quad_weights[:, None] * dense)
        assert abs(gram_defect(b) - np.max(np.abs(gram - np.eye(n)))) <= 1e-14


class TestBatchedTransforms:
    """Stacked (..., n) / (..., m) inputs against row-by-row calls."""

    @pytest.mark.parametrize("kind,extent,n,m", [
        ("interval_neumann", 1.0, 8, 64), ("interval_dirichlet", 1.7, 12, 96),
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


DENSE_INTERVALS = [("interval_neumann", 1.0, 8, 64), ("interval_dirichlet", 1.7, 12, 96),
                   ("interval_neumann", 1.0, 16, 128), ("interval_dirichlet", 1.0, 128, 1024)]


class TestStoredTables:
    """The tables build_basis stores for the transforms, against the forms
    they replace."""

    @pytest.mark.parametrize("kind,extent,n,m", DENSE_INTERVALS)
    def test_dense_interval_matches_quadrature_oracle(self, kind, extent, n, m):
        b = build_basis(kind, extent, n, m)
        assert b.fft is None
        dense = eigenfunctions_at(b, b.grid_points)
        rng = np.random.default_rng(n)
        for rows in ((), (5,)):
            coeffs = rng.standard_normal(rows + (n,))
            grid = rng.standard_normal(rows + (m,))
            for got, want in ((synthesize(b, coeffs), coeffs @ dense.T),
                              (analyze(b, grid), (b.quad_weights * grid) @ dense)):
                assert got.shape == want.shape
                assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("kind,extent,n,m", DENSE_INTERVALS)
    def test_stacked_rows_match_single_calls_to_rounding(self, kind, extent, n, m):
        # BLAS sums a (B, m) product (gemm) in another order than one row
        # (gemv), so rows agree to rounding, not bit for bit: within a few
        # units of the sum of the absolute products
        b = build_basis(kind, extent, n, m)
        rng = np.random.default_rng(m)
        coeffs, grid = rng.standard_normal((5, n)), rng.standard_normal((5, m))
        unit = 4.0 * np.finfo(float).eps
        for stacked, rows, size in (
                (analyze(b, grid), [analyze(b, g) for g in grid],
                 np.abs(grid) @ np.abs(b.analysis_tables[0])),
                (synthesize(b, coeffs), [synthesize(b, c) for c in coeffs],
                 np.abs(coeffs) @ np.abs(b.synthesis_table))):
            assert np.all(np.abs(stacked - np.stack(rows)) <= unit * size)

    @pytest.mark.parametrize("kind,extent,n,m", RECT_CASES)
    def test_rect_analyze_matches_per_call_weighting_bit_for_bit(self, kind, extent, n, m):
        b = build_basis(kind, extent, n, m)
        assert b.synthesis_table is None
        (vx, vy), (lx, ly) = b.axis_values, b.domain_extent
        (_, wx), (_, wy) = (fracphase.spectral._interval_grid(length, m) for length in (lx, ly))
        grid = np.random.default_rng(7).standard_normal((3, b.n_grid))
        table = grid.reshape(3, wx.shape[0], wy.shape[0])
        want = ((wx[:, None] * vx).T @ table @ (wy[:, None] * vy))[(..., *b.axis_modes)]
        assert np.array_equal(analyze(b, grid), want)

    @pytest.mark.parametrize("kind,extent,n,m,field,index", [
        ("interval_neumann", 1.0, 8, 64, "synthesis_table", (3, 17)),
        ("interval_dirichlet", 1.0, 128, 1024, "synthesis_table", (0, 100)),
        ("rect_neumann", [1.0, 2.0], 12, 96, "analysis_tables", (1, 40, 2)),
        ("rect_dirichlet", [1.3, 0.7], 20, 160, "analysis_tables", (1, 7, 0))])
    def test_gate_reads_the_tables_the_transforms_multiply(self, kind, extent, n, m,
                                                           field, index):
        # one corrupted entry of a stored transform table fails the gate: it
        # multiplies those tables, not a second copy of the samples
        b = build_basis(kind, extent, n, m)
        assert gram_defect(b) <= ORTHONORMALITY_TOL
        if field == "synthesis_table":
            table = b.synthesis_table.copy()
            table[index] += 1e-3
            value = table
        else:
            tables = [t.copy() for t in b.analysis_tables]
            tables[index[0]][index[1:]] += 1e-3
            value = tuple(tables)
        assert gram_defect(dataclasses.replace(b, **{field: value})) > ORTHONORMALITY_TOL

    @pytest.mark.parametrize("kind", ["interval_neumann", "interval_dirichlet"])
    def test_fft_basis_holds_no_dense_transform_table(self, kind):
        b = build_basis(kind, 1.0, 512, 2048)
        assert b.fft is not None
        assert b.analysis_tables == () and b.synthesis_table is None
        assert b.axis_values == ()


class TestFFTTransforms:
    """FFT interval transforms against the dense table they replace."""

    # below the FFT rule at m = 8n and at m = 4n, above it at m = 4n
    @pytest.mark.parametrize("n,m", [(64, 512), (128, 512), (512, 2048)])
    @pytest.mark.parametrize("kind", ["interval_neumann", "interval_dirichlet"])
    def test_matches_dense_oracle(self, kind, n, m, monkeypatch):
        b = build_basis(kind, 1.7, n, m)
        assert (b.fft is not None) == (n * m >= FFT_MIN_TABLE_SIZE)
        monkeypatch.setattr(fracphase.spectral, "FFT_MIN_TABLE_SIZE", 0)
        fft = build_basis(kind, 1.7, n, m)
        assert fft.fft is not None
        dense = eigenfunctions_at(b, b.grid_points)
        rng = np.random.default_rng(n)
        for rows in ((), (3,)):
            coeffs = rng.standard_normal(rows + (n,))
            grid = rng.standard_normal(rows + (m,))
            for got, want in ((synthesize(fft, coeffs), coeffs @ dense.T),
                              (analyze(fft, grid), (b.quad_weights * grid) @ dense)):
                assert got.shape == want.shape
                assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    # above the FFT rule as built, and below it with the rule lowered
    @pytest.mark.parametrize("extent,n,m,threshold", [
        (1.0, 512, 2048, FFT_MIN_TABLE_SIZE), (1.7, 128, 2048, FFT_MIN_TABLE_SIZE),
        (1.7, 12, 96, 0), (0.3, 64, 512, 0)])
    @pytest.mark.parametrize("kind", ["interval_neumann", "interval_dirichlet"])
    def test_closed_form_gate_matches_pair_and_dense_gram(self, kind, extent, n, m,
                                                          threshold, monkeypatch):
        monkeypatch.setattr(fracphase.spectral, "FFT_MIN_TABLE_SIZE", threshold)
        b = build_basis(kind, extent, n, m)
        assert b.fft is not None
        # the pair's Gram matrix is diagonal: off the diagonal both references
        # must read within 1e-13 of 0
        gram = np.diag(_fft_gram_diagonal(b.fft))
        pair = analyze(b, synthesize(b, np.eye(n)))
        dense = eigenfunctions_at(b, b.grid_points)
        quadrature = dense.T @ (b.quad_weights[:, None] * dense)
        assert np.max(np.abs(gram - pair)) <= 1e-13
        assert np.max(np.abs(gram - quadrature)) <= 1e-13
        assert gram_defect(b) == np.max(np.abs(gram - np.eye(n)))

    # bin 0 given the factor n of the other bins, not 2n: irfft counts it
    # once, so the constant mode would be synthesized at half its size; and
    # the full node step L/N folded into the sine analysis, not L/(2N)
    @pytest.mark.parametrize("kind,scales", [
        ("interval_neumann", lambda s, a: (s * np.where(np.arange(s.size) == 0, 0.5, 1.0), a)),
        ("interval_dirichlet", lambda s, a: (s, 2.0 * a))], ids=["bin_zero", "sine_step"])
    def test_gate_rejects_a_wrong_fft_pair(self, kind, scales, monkeypatch):
        build_plan = fracphase.spectral._fft_plan

        def wrong_plan(kind, length, labels, m_grid):
            plan = build_plan(kind, length, labels, m_grid)
            return fracphase.spectral.FFTPlan(
                plan.part, plan.slots, *scales(plan.synthesis_scale, plan.analysis_scale))

        monkeypatch.setattr(fracphase.spectral, "_fft_plan", wrong_plan)
        with pytest.raises(BasisBuildError, match="orthonormality defect"):
            build_basis(kind, 1.0, 512, 2048)

    # each coefficient one bin up, or the other boundary condition's plan:
    # both pass the Gram gate, but they transform other eigenfunctions
    @pytest.mark.parametrize("fault", ["labels_plus_one", "kinds_swapped"])
    @pytest.mark.parametrize("kind", ["interval_neumann", "interval_dirichlet"])
    def test_plan_check_rejects_a_plan_of_other_labels(self, kind, fault, monkeypatch):
        build_plan = fracphase.spectral._fft_plan
        other = {"interval_neumann": "interval_dirichlet",
                 "interval_dirichlet": "interval_neumann"}

        def wrong_plan(kind, length, labels, m_grid):
            if fault == "labels_plus_one":
                return build_plan(kind, length, labels + 1, m_grid)
            return build_plan(other[kind], length, labels, m_grid)

        monkeypatch.setattr(fracphase.spectral, "_fft_plan", wrong_plan)
        with pytest.raises(BasisBuildError, match="FFT plan"):
            build_basis(kind, 1.0, 512, 2048)
        monkeypatch.setattr(fracphase.spectral, "_check_fft_plan", lambda basis: None)
        b = build_basis(kind, 1.0, 512, 2048)
        assert gram_defect(b) <= ORTHONORMALITY_TOL
        mode0 = eigenfunctions_at(b, b.grid_points, [0])[:, 0]
        assert np.max(np.abs(synthesize(b, np.eye(512)[0]) - mode0)) > 0.1

    def test_run_matches_dense_path(self, monkeypatch):
        _, dense = smoke_run(build_basis("interval_neumann", 1.0, 16, 128))
        monkeypatch.setattr(fracphase.spectral, "FFT_MIN_TABLE_SIZE", 0)
        _, fft = smoke_run(build_basis("interval_neumann", 1.0, 16, 128))
        for a, b in ((fft.theta_series, dense.theta_series),
                     (fft.phi_series, dense.phi_series),
                     (fft.ledger.lhs, dense.ledger.lhs)):
            assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))

    def test_fft_path_keeps_input_checks(self):
        b = build_basis("interval_neumann", 1.0, 512, 2048)
        assert b.fft is not None
        with pytest.raises(ValueError, match="shape"):
            synthesize(b, np.zeros(511))
        with pytest.raises(ValueError, match="shape"):
            analyze(b, np.zeros(2047))

    def test_dispatch_rule(self):
        """Intervals only: a dense table of at least FFT_MIN_TABLE_SIZE entries
        and an FFT length 2(m-1) without a prime factor above 100."""
        assert build_basis("interval_neumann", 1.0, 8, 64).fft is None
        assert build_basis("interval_neumann", 1.0, 128, 1024).fft is None
        assert build_basis("interval_dirichlet", 1.0, 128, 2048).fft is not None
        assert build_basis("interval_neumann", 1.0, 512, 2048).fft is not None
        # 2*(1536 - 1) = 2*5*307: the FFT would be slower than the dense product
        assert 192 * 1536 >= FFT_MIN_TABLE_SIZE
        assert build_basis("interval_neumann", 1.0, 192, 1536).fft is None
        # a rectangle's sample matrix (65 536 x 64 here) is never formed: it
        # stays sum-factorized whatever its size
        rect = build_basis("rect_neumann", [1.0, 1.0], 64, 256)
        assert rect.n_grid * rect.n_modes >= FFT_MIN_TABLE_SIZE and rect.fft is None


class TestOutBuffers:
    """A transform given `out=` writes the allocating call's bits into it,
    and nothing else: the march synthesizes into rows of its check rows."""

    @pytest.mark.parametrize("kind, extent, n, m", [
        ("interval_neumann", 1.0, 8, 64), ("interval_dirichlet", 1.7, 12, 96),
        ("interval_neumann", 1.0, 512, 2048), ("interval_dirichlet", 1.0, 512, 2048),
        ("rect_dirichlet", [1.3, 0.7], 12, 48), ("rect_neumann", [1.0, 1.0], 64, 256)])
    @pytest.mark.parametrize("rows", [(), (3,)], ids=["lone", "stacked"])
    def test_into_out_equals_the_allocating_call(self, kind, extent, n, m, rows):
        basis = build_basis(kind, extent, n, m)
        assert (basis.fft is not None) == (n == 512)
        coeffs = np.random.default_rng(n).standard_normal(rows + (n,))
        grids = np.full((3,) + rows + (basis.n_grid,), np.nan)
        got = synthesize(basis, coeffs, grids[1])
        want = synthesize(basis, coeffs)
        assert np.shares_memory(got, grids[1]) and same_bits(grids[1], want)
        assert np.isnan(grids[[0, 2]]).all()
        modes = np.full((3,) + rows + (n,), np.nan)
        got = analyze(basis, want, modes[1])
        assert np.shares_memory(got, modes[1])
        assert same_bits(modes[1], analyze(basis, want))
        assert np.isnan(modes[[0, 2]]).all()


class TestCrossGram:
    @pytest.mark.parametrize("kind,extent", [("interval_neumann", 1.7),
                                             ("rect_dirichlet", [1.0, 2.0])])
    def test_same_family_matches_gauss_legendre(self, kind, extent):
        # the mixed families are checked through the coupling matrix in
        # test_galerkin; nested same-family bases are what reexpress uses
        a, b = build_basis(kind, extent, 6, 48), build_basis(kind, extent, 16, 128)
        assert np.max(np.abs(cross_gram(a, b) - gauss_legendre_gram(a, b))) <= 1e-13

    def test_rejects_different_domains(self):
        a = build_basis("interval_neumann", 1.0, 4, 32)
        b = build_basis("interval_dirichlet", 2.0, 4, 32)
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


def graph_norm(basis, rho, coeffs):
    """The graph norm of lambda**rho: graph_norms with stiff = lambda**(2 rho)."""
    return graph_norms(coeffs, fractional_multipliers(basis, 2.0 * rho))


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


# analyze does not scan its input: a NaN on the march's collocated grid is
# the nonlinearity guard's to reject, on either transform path.  At eps = 0
# the logarithmic beta pushes a datum near 1 past -1 in one step of dt = 1,
# so the second step's beta(phi) is NaN.
@pytest.mark.parametrize("n_modes, m_grid", [(8, 64), (128, 2048)], ids=["dense", "fft"])
@pytest.mark.parametrize("stacked", [False, True], ids=["lone", "stacked"])
def test_nan_collocated_grid_trips_the_nonlinearity_guard(n_modes, m_grid, stacked):
    basis = build_basis("interval_neumann", 1.0, n_modes, m_grid)
    assert (basis.fft is not None) == (m_grid == 2048)
    potential = logarithmic_potential(2.0)

    def system(value):
        data = ProblemData(theta0=None, phi0=lambda x: np.full_like(x, value),
                           coupling=Coupling.constant(0.0))
        return assemble(data, basis, basis, 0.5, 0.5, 0.0, potential)

    rows = [system(0.0), system(0.9999999), system(0.5)]
    march = stack_systems(rows) if stacked else rows[1]
    with pytest.raises(BlowupError) as info:
        integrate(march, SchemeConfig("imex_euler", dt=1.0), 4.0, 10)
    at = " in row 1" if stacked else ""
    assert str(info.value) == (f"nonlinearity exceeded the overflow guard{at} "
                               "(peak |value| nan) in step 2, t=2.0")
    assert (info.value.step, info.value.t) == (2, 2.0)
    assert info.value.row == (1 if stacked else None)
    assert info.value.partial.times.tolist() == [0.0]
