"""Closed-form trigonometric eigenbases and spectral fractional powers.

The simulator works with two self-adjoint monotone operators realized through
their eigenpairs: the Laplacian on an interval or a rectangle with Dirichlet or
Neumann boundary conditions, the kinds interval_dirichlet, interval_neumann,
rect_dirichlet and rect_neumann.  `build_basis` is the one builder: it keeps
the n_modes lowest modes (`_select_modes`), samples each axis's 1-D
eigenfunctions on m_grid uniform nodes, holds m_grid to `min_grid_nodes`
(the rule config validation applies too) and runs the Gram gate once.  A
basis stores the eigenvalues, trapezoid weights and one table of 1-D
eigenfunction samples per axis, so every downstream operation (transforms,
fractional powers, kernel projection, graph norms) reduces to small dense
linear algebra; rectangle eigenfunctions are products e_jx(x) e_jy(y), so
their transforms and Gram gate run one axis at a time (sum factorization).
Inner products between two bases on one domain (`cross_gram`) are exact
closed-form integrals.

The interval nodes linspace(0, L, m) are the DCT-I/DST-I nodes, so an interval
basis whose dense table is large (n_modes*m_grid >= FFT_MIN_TABLE_SIZE)
transforms through one real FFT of length 2(m-1) instead (Makhoul, 1980,
IEEE TASSP 28), unless that length has a prime factor above
FFT_MAX_PRIME_FACTOR; the path is chosen once, when the basis is built, and
the dense table stays as the Gram gate's input and the oracle the FFT is
tested against.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

# Build-time orthonormality gate; failing it is a hard error because every
# downstream identity (Parseval, coupling cancellation) relies on it.
ORTHONORMALITY_TOL = 1e-8

DEFAULT_GRID_FACTOR = 8
MIN_GRID_FACTOR = 4

# Interval bases whose dense m x n table has at least this many entries
# transform by FFT.  Synthesis per call, n x m, dense vs FFT (2-vCPU x86 VM,
# one BLAS thread): 128x512 10 vs 18 us, 128x2048 54 vs 57 us (the break-even
# at this size), 256x1024 54 vs 27 us, 512x2048 288 vs 58 us; analysis alike.
FFT_MIN_TABLE_SIZE = 1 << 18
# ... and whose FFT length 2(m-1) has no larger prime factor: numpy's FFT
# spends O(N*p) on a factor p of its length N, so at 192x1536 (2*5*307) the
# FFT synthesis takes 349 us against 120 us dense, and at 300x2400 (2*2399)
# 508 us against 331 us, while 512x2048 (2*23*89) takes 79 us against 450 us.
FFT_MAX_PRIME_FACTOR = 100

INTERVAL_KINDS = ("interval_dirichlet", "interval_neumann")
RECT_KINDS = ("rect_dirichlet", "rect_neumann")
BASIS_KINDS = INTERVAL_KINDS + RECT_KINDS


class BasisBuildError(ValueError):
    """Raised when a basis violates its construction contract."""


@dataclass(frozen=True)
class SpectralBasis:
    """Eigenpairs of a Laplacian sampled on a tensor-product quadrature grid.

    eigenvalues are nondecreasing; quad_weights are trapezoid weights summing
    to the domain measure, listed like grid_points in row-major (x, y) order.
    axis_values[d] samples the 1-D eigenfunctions of axis d on its nodes (one
    column per 1-D label, counted from the first label of the boundary
    condition), axis_weights[d] are that axis's trapezoid weights, and mode i
    is the product over the axes of column axis_modes[d][i].  On an interval
    the single table has one column per mode.  fft is the FFT plan of an
    interval basis that transforms by FFT, None on the dense and
    sum-factorized paths.
    """

    kind: str
    domain_extent: tuple[float, ...]
    n_modes: int
    eigenvalues: np.ndarray
    grid_points: np.ndarray
    quad_weights: np.ndarray
    axis_values: tuple[np.ndarray, ...]
    axis_weights: tuple[np.ndarray, ...]
    axis_modes: tuple[np.ndarray, ...]
    mode_indices: np.ndarray
    fft: "FFTPlan | None" = None

    @property
    def ndim(self) -> int:
        return len(self.domain_extent)

    @property
    def n_grid(self) -> int:
        return self.quad_weights.shape[0]

    @property
    def kernel_mask(self) -> np.ndarray:
        """Boolean mask of zero-eigenvalue (kernel) modes."""
        return self.eigenvalues == 0.0

    def same_grid_as(self, other: "SpectralBasis") -> bool:
        return (
            self.grid_points.shape == other.grid_points.shape
            and np.array_equal(self.grid_points, other.grid_points)
            and np.array_equal(self.quad_weights, other.quad_weights)
        )


@dataclass(frozen=True)
class FFTPlan:
    """Interval transforms through one real FFT of length 2(m-1).

    With N = m-1 and x_i = i L/N, a Neumann column is s_j cos(pi i j/N) and a
    Dirichlet column s_p sin(pi i p/N): synthesis is the irfft of a half
    spectrum holding the scaled coefficients in bins `slots`, in the real
    part (cosines) or the imaginary part (sines).  Analysis is its transpose:
    the rfft of the even (cosine) or odd (sine) 2N-periodic extension of the
    grid.  That extension counts each interior node twice and each endpoint
    once, the trapezoid weights up to the factor L/(2N) folded into
    analysis_scale, so no endpoint correction is needed.
    """

    part: str  # "real" or "imag"
    slots: slice
    synthesis_scale: np.ndarray
    analysis_scale: np.ndarray


def _largest_prime_factor(k: int) -> int:
    largest, p = 1, 2
    while p * p <= k:
        while k % p == 0:
            largest, k = p, k // p
        p += 1
    return max(largest, k)


def _fft_plan(basis: SpectralBasis) -> FFTPlan:
    length, labels, n = basis.domain_extent[0], basis.mode_indices, basis.n_grid - 1
    scale = np.full(labels.shape, np.sqrt(2.0 / length))
    slots = slice(int(labels[0]), int(labels[-1]) + 1)
    if basis.kind == "interval_dirichlet":
        return FFTPlan("imag", slots, -n * scale, -0.5 * (length / n) * scale)
    scale[labels == 0] = 1.0 / np.sqrt(length)
    # irfft counts bin 0 once and every other bin twice
    return FFTPlan("real", slots, np.where(labels == 0, 2 * n, n) * scale,
                   0.5 * (length / n) * scale)


def _interval_grid(length: float, m_grid: int) -> tuple[np.ndarray, np.ndarray]:
    """Uniform nodes on [0, L] with composite-trapezoid weights."""
    x = np.linspace(0.0, length, m_grid)
    w = np.full(m_grid, length / (m_grid - 1))
    w[0] *= 0.5
    w[-1] *= 0.5
    return x, w


def _interval_eigendata(bc: str, length: float, labels: np.ndarray,
                        x: np.ndarray) -> np.ndarray:
    """Eigenfunctions with 1-D mode labels sampled at x, one column per label.

    Dirichlet labels start at 1 (sin modes); Neumann labels start at 0 where
    mode 0 is the normalized constant.
    """
    k = labels * np.pi / length
    if bc == "dirichlet":
        return np.sqrt(2.0 / length) * np.sin(np.outer(x, k))
    values = np.sqrt(2.0 / length) * np.cos(np.outer(x, k))
    values[:, labels == 0] = 1.0 / np.sqrt(length)
    return values


def _bc_of(kind: str) -> str:
    if kind not in BASIS_KINDS:
        raise BasisBuildError(f"unknown basis kind {kind!r}; expected one of {BASIS_KINDS}")
    return kind.split("_", 1)[1]


def _select_modes(kind: str, lengths, n_modes: int) -> tuple[tuple, np.ndarray]:
    """Per-axis label columns and eigenvalues of the n_modes lowest modes.

    Column j of an axis is its j-th 1-D label.  A rectangle sorts its modes by
    eigenvalue with (jx, jy) lexicographic tie-break.  It does not enumerate
    the n x n lattice: it bisects a level whose lattice count (per jx, a
    searchsorted on the sorted y-eigenvalues) is at least n_modes and at most
    twice that, evaluates the eigenvalue sums of the candidates up to that
    level and sorts only those, in O(n log n) time and O(n) memory.
    """
    columns = np.arange(n_modes)
    labels = columns + (1 if _bc_of(kind) == "dirichlet" else 0)
    if len(lengths) == 1:
        return (columns,), (labels * np.pi / lengths[0]) ** 2
    ex, ey = ((labels * np.pi / length) ** 2 for length in lengths)

    def count(level):
        return int(np.searchsorted(ey, level - ex, side="right").sum())

    lo, hi = -1.0, 2.0 * (ex[-1] + ey[-1])
    n_hi = count(hi)
    while n_hi > 2 * n_modes and lo < 0.5 * (lo + hi) < hi:
        mid = 0.5 * (lo + hi)
        n_mid = count(mid)
        if n_mid >= n_modes:
            hi, n_hi = mid, n_mid
        else:
            lo = mid
    # the candidates: every (jx, jy) whose sum is at most the level, found
    # with a margin far above the rounding of the sum and the searchsorted
    level = hi * (1.0 + 1e-12)
    rows = np.searchsorted(ey, level - ex + 1e-9 * level, side="right")
    jx = np.repeat(columns, rows)
    jy = np.arange(jx.size) - np.repeat(np.cumsum(rows) - rows, rows)
    sums = ex[jx] + ey[jy]
    keep = sums <= level
    jx, jy, sums = jx[keep], jy[keep], sums[keep]
    order = np.lexsort((jy, jx, sums))[:n_modes]
    return (jx[order], jy[order]), sums[order]


def min_grid_nodes(kind: str, extent, n_modes: int) -> int:
    """Smallest m_grid (nodes per axis) a basis accepts.

    MIN_GRID_FACTOR times the 1-D modes an axis keeps: n_modes on an
    interval (closed form, nothing is enumerated); on a rectangle the largest
    retained column + 1 over both axes, which is far below n_modes when the
    retained modes spread over both axes.
    """
    if kind in RECT_KINDS:
        columns, _ = _select_modes(kind, np.atleast_1d(extent).astype(float), n_modes)
        return MIN_GRID_FACTOR * max(int(c.max()) + 1 for c in columns)
    return MIN_GRID_FACTOR * n_modes


def build_basis(kind: str, extent, n_modes: int, m_grid: int | None = None) -> SpectralBasis:
    """Eigenbasis of kind interval_/rect_ dirichlet/neumann on (0, L) or
    (0, Lx) x (0, Ly); extent is L, [L] or [Lx, Ly].

    The n_modes lowest modes are retained (`_select_modes`).  m_grid counts
    nodes per axis, defaults to DEFAULT_GRID_FACTOR*n_modes and must be at
    least `min_grid_nodes`; each axis keeps only the 1-D modes a retained mode
    uses.  The Gram gate runs once, and an interval basis picks its transform
    path (`FFTPlan` or dense) here.
    """
    bc = _bc_of(kind)
    lengths = tuple(np.atleast_1d(extent).astype(float).tolist())
    axes = 2 if kind in RECT_KINDS else 1
    if len(lengths) != axes:
        raise BasisBuildError(f"{kind} needs {axes} extent(s), got {extent!r}")
    if min(lengths) <= 0.0:
        raise BasisBuildError(f"domain extents must be positive, got {lengths}")
    if n_modes < 1:
        raise BasisBuildError(f"n_modes must be >= 1, got {n_modes}")
    need = min_grid_nodes(kind, lengths, n_modes)
    if m_grid is None:
        m_grid = DEFAULT_GRID_FACTOR * n_modes
    if m_grid < need:
        raise BasisBuildError(f"m_grid={m_grid} too small: need at least {need}, "
                              f"{MIN_GRID_FACTOR} times the 1-D modes per axis")
    columns, eigenvalues = _select_modes(kind, lengths, n_modes)
    first = 1 if bc == "dirichlet" else 0
    grids = [_interval_grid(length, m_grid) for length in lengths]
    tables = tuple(_interval_eigendata(bc, length, np.arange(first, first + c.max() + 1), x)
                   for length, c, (x, _) in zip(lengths, columns, grids))
    if len(grids) == 1:
        (points, weights), = grids
        labels = first + columns[0]
    else:
        (x, wx), (y, wy) = grids
        points = np.column_stack([np.repeat(x, m_grid), np.tile(y, m_grid)])
        weights = np.outer(wx, wy).ravel()
        labels = first + np.column_stack(columns)
    basis = SpectralBasis(
        kind=kind,
        domain_extent=lengths,
        n_modes=n_modes,
        eigenvalues=eigenvalues,
        grid_points=points,
        quad_weights=weights,
        axis_values=tables,
        axis_weights=tuple(w for _, w in grids),
        axis_modes=columns,
        mode_indices=labels,
    )
    defect = gram_defect(basis)
    if defect > ORTHONORMALITY_TOL:
        raise BasisBuildError(
            f"orthonormality defect {defect:.3e} exceeds {ORTHONORMALITY_TOL:.0e} "
            f"for kind={kind}, n_modes={n_modes}, m_grid={m_grid}; increase m_grid")
    if (len(lengths) == 1 and n_modes * m_grid >= FFT_MIN_TABLE_SIZE
            and _largest_prime_factor(2 * (m_grid - 1)) <= FFT_MAX_PRIME_FACTOR):
        basis = replace(basis, fft=_fft_plan(basis))
    return basis


def eigenfunctions_at(basis: SpectralBasis, points: np.ndarray,
                      modes=slice(None)) -> np.ndarray:
    """Evaluate retained eigenfunctions at arbitrary points (closed form).

    Returns one column per mode selected by `modes` (an index or slice over
    the retained modes, all by default).  On the basis's own grid this is the
    dense sample matrix, the reference the per-axis transforms are tested
    against.
    """
    bc = _bc_of(basis.kind)
    pts = np.asarray(points, dtype=float).reshape(-1, basis.ndim)
    labels = basis.mode_indices.reshape(basis.n_modes, basis.ndim)[modes]
    out = 1.0
    for axis, length in enumerate(basis.domain_extent):
        out = out * _interval_eigendata(bc, length, labels[:, axis], pts[:, axis])
    return out


def _axis_gram(bc_a: str, labels_a: np.ndarray, bc_b: str,
               labels_b: np.ndarray) -> np.ndarray:
    """Exact 1-D inner products (e_p, e_q) for labels p of a and q of b.

    Same family: 1 where the labels match, else 0.  sin_s against cos_c:
    (2/pi) s (1 - (-1)^(s+c)) / (s^2 - c^2), divided by sqrt(2) for the
    Neumann constant mode c = 0.
    """
    p, q = labels_a[:, None], labels_b[None, :]
    if bc_a == bc_b:
        return (p == q).astype(float)
    s, c = (p, q) if bc_a == "dirichlet" else (q, p)
    odd = (s + c) % 2 == 1
    gram = np.where(odd, (4.0 / np.pi) * s / np.where(odd, s * s - c * c, 1), 0.0)
    return np.where(c == 0, gram / np.sqrt(2.0), gram)


def cross_gram(basis_a: SpectralBasis, basis_b: SpectralBasis) -> np.ndarray:
    """Exact L2 inner products (e^a_i, e^b_j) of two bases on one domain.

    The (n_a, n_b) matrix is the product over the axes of the closed-form
    1-D tables at the retained labels; no quadrature is involved.
    """
    if basis_a.domain_extent != basis_b.domain_extent:
        raise ValueError(f"bases live on different domains: {basis_a.domain_extent} "
                         f"vs {basis_b.domain_extent}")
    bc_a, bc_b = _bc_of(basis_a.kind), _bc_of(basis_b.kind)
    labels_a = basis_a.mode_indices.reshape(basis_a.n_modes, -1)
    labels_b = basis_b.mode_indices.reshape(basis_b.n_modes, -1)
    gram = 1.0
    for p, q in zip(labels_a.T, labels_b.T):
        gram = gram * _axis_gram(bc_a, p, bc_b, q)
    return gram


def _check_coeffs(basis: SpectralBasis, coeffs) -> np.ndarray:
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.shape[-1:] != (basis.n_modes,):
        raise ValueError(
            f"coefficient array has shape {coeffs.shape}, expected (..., {basis.n_modes})"
        )
    return coeffs


def fractional_multipliers(basis: SpectralBasis, exponent: float) -> np.ndarray:
    """lambda_j**exponent with the 0**rho := 0 convention (rho > 0)."""
    if exponent <= 0.0:
        raise ValueError(f"fractional exponent must be positive, got {exponent}")
    return basis.eigenvalues**exponent


def kernel_projection(basis: SpectralBasis, coeffs: np.ndarray) -> np.ndarray:
    """H-projection onto ker(B): keep zero-eigenvalue coefficients only."""
    coeffs = _check_coeffs(basis, coeffs)
    return np.where(basis.kernel_mask, coeffs, 0.0)


def synthesize(basis: SpectralBasis, coeffs: np.ndarray) -> np.ndarray:
    """Coefficients (..., n) -> grid samples (..., m).

    On a rectangle the coefficients are scattered into a (..., kx, ky) table C
    and the grid is Vx @ C @ Vy.T on the (mx, my) nodes.  An interval basis
    with an FFT plan runs one irfft per row instead of the dense product.
    """
    coeffs = _check_coeffs(basis, coeffs)
    if basis.fft is not None:
        plan, m = basis.fft, basis.n_grid
        spectrum = np.zeros(coeffs.shape[:-1] + (m,), dtype=complex)
        getattr(spectrum, plan.part)[..., plan.slots] = coeffs * plan.synthesis_scale
        return np.fft.irfft(spectrum, 2 * (m - 1))[..., :m]
    if len(basis.axis_values) == 1:
        return coeffs @ basis.axis_values[0].T
    vx, vy = basis.axis_values
    table = np.zeros(coeffs.shape[:-1] + (vx.shape[1], vy.shape[1]))
    table[(..., *basis.axis_modes)] = coeffs
    return (vx @ table @ vy.T).reshape(coeffs.shape[:-1] + (basis.n_grid,))


def analyze(basis: SpectralBasis, grid_values: np.ndarray) -> np.ndarray:
    """Grid samples (..., m) -> coefficients (..., n) via weighted inner products.

    On a rectangle the (..., mx, my) grid G gives (Vx.T @ (W*G) @ Vy)[..., jx, jy],
    with the tensor-product weights W folded into the per-axis tables.  An
    interval basis with an FFT plan runs one rfft per row (`FFTPlan`).
    """
    grid_values = np.asarray(grid_values, dtype=float)
    if grid_values.shape[-1:] != (basis.n_grid,):
        raise ValueError(
            f"grid array has shape {grid_values.shape}, expected (..., {basis.n_grid})"
        )
    # a finite sum of squares means finite entries; the exact test decides
    # the rest (finite entries above ~1e154 overflow the sum, which np.vdot
    # returns as inf without a warning)
    if not math.isfinite(np.vdot(grid_values, grid_values)) \
            and not np.isfinite(grid_values).all():
        raise ValueError("grid values must be finite")
    if basis.fft is not None:
        plan = basis.fft
        mirrored = grid_values[..., -2:0:-1]
        extended = np.concatenate(
            [grid_values, mirrored if plan.part == "real" else -mirrored], axis=-1)
        spectrum = np.fft.rfft(extended)[..., plan.slots]
        return getattr(spectrum, plan.part) * plan.analysis_scale
    if len(basis.axis_values) == 1:
        return (basis.quad_weights * grid_values) @ basis.axis_values[0]
    (vx, vy), (wx, wy) = basis.axis_values, basis.axis_weights
    grid = grid_values.reshape(grid_values.shape[:-1] + (wx.shape[0], wy.shape[0]))
    return ((wx[:, None] * vx).T @ grid @ (wy[:, None] * vy))[(..., *basis.axis_modes)]


def graph_norm(basis: SpectralBasis, exponent: float, coeffs: np.ndarray) -> float:
    """(sum |c_j|^2 + sum |lambda_j^rho c_j|^2)^(1/2)."""
    coeffs = _check_coeffs(basis, coeffs)
    frac = fractional_multipliers(basis, exponent) * coeffs
    return float(np.sqrt(np.dot(coeffs, coeffs) + np.dot(frac, frac)))


def gram_defect(basis: SpectralBasis) -> float:
    """Max-abs deviation of the weighted Gram matrix from the identity.

    The tensor-product weights make the Gram matrix the product of the
    per-axis Gram tables at each mode pair's labels.
    """
    gram = 1.0
    for values, weights, modes in zip(basis.axis_values, basis.axis_weights,
                                      basis.axis_modes):
        axis_gram = values.T @ (weights[:, None] * values)
        gram = gram * axis_gram[modes[:, None], modes]
    return float(np.abs(gram - np.eye(basis.n_modes)).max())
