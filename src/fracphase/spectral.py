"""Closed-form trigonometric eigenbases and spectral fractional powers.

The simulator works with two self-adjoint monotone operators realized through
their eigenpairs: the Laplacian on an interval or a rectangle with Dirichlet or
Neumann boundary conditions, the kinds interval_dirichlet, interval_neumann,
rect_dirichlet and rect_neumann.  `build_basis` is the one builder: it keeps
the n_modes lowest modes (`_select_modes`), samples each axis's 1-D
eigenfunctions on m_grid uniform nodes, holds m_grid to `min_grid_nodes`
(config validation applies an interval's rule too) and runs the Gram gate
once.  A basis stores the eigenvalues, trapezoid weights and the tables its
transforms multiply by, formed once (an FFT interval basis, below, stores its
plan instead), so every downstream operation (transforms, fractional powers,
kernel projection, graph norms) reduces to small dense linear algebra: a
dense interval transform is one product with a stored table, and rectangle
eigenfunctions are products e_jx(x) e_jy(y), so their transforms run one
axis at a time (sum factorization).  The Gram gate multiplies those same
tables, so it checks what the transforms compute.
Inner products between two bases on one domain (`cross_gram`) are exact
closed-form integrals.

The interval nodes linspace(0, L, m) are the DCT-I/DST-I nodes, so an interval
basis whose dense table is large (n_modes*m_grid >= FFT_MIN_TABLE_SIZE)
transforms through one real FFT of length 2(m-1) instead (Makhoul, 1980,
IEEE TASSP 28), unless that length has a prime factor above
FFT_MAX_PRIME_FACTOR; the path is chosen once, when the basis is built.  An
FFT basis holds only its `FFTPlan`: no table is sampled, and its Gram gate
is the Gram matrix of the FFT pair itself, analyze o synthesize, which is
diagonal in closed form (`_fft_gram_diagonal`); `_check_fft_plan` ties the
plan to the basis's labels and boundary condition.  The closed-form samples
(`eigenfunctions_at`) are the oracle the FFT is tested against.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Build-time orthonormality gate; failing it is a hard error because every
# downstream identity (Parseval, coupling cancellation) relies on it.
ORTHONORMALITY_TOL = 1e-8

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


class GridTooSmallError(BasisBuildError):
    """m_grid is below `min_grid_nodes`; `need` is the smallest it accepts."""

    def __init__(self, m_grid: int, need: int):
        super().__init__(f"m_grid={m_grid} too small: need at least {need}, "
                         f"{MIN_GRID_FACTOR} times the 1-D modes per axis")
        self.need = need


@dataclass(frozen=True)
class SpectralBasis:
    """Eigenpairs of a Laplacian sampled on a tensor-product quadrature grid.

    eigenvalues are nondecreasing.  axis_nodes holds each axis's m_grid nodes;
    the grid is their row-major (x, y) product, which `grid_points` forms on
    demand, and quad_weights, the product of the axes' trapezoid weights,
    sum to the domain measure.
    Mode i is the product over the axes of column axis_modes[d][i] of axis
    d's 1-D eigenfunctions (one column per 1-D label, counted from the first
    label of the boundary condition); on an interval, column i.  The
    transforms multiply by axis_values, synthesis_table and analysis_tables,
    and so does the Gram gate.  On a rectangle axis_values[d] samples axis
    d's eigenfunctions on its nodes, which `synthesize` multiplies by; on an
    interval it is empty.  synthesis_table is a dense interval's contiguous
    V.T, else None.  analysis_tables are what `analyze` multiplies by, with
    the weights folded in: w[:, None]*V on a dense interval, (wx[:, None]*Vx).T
    and wy[:, None]*Vy on a rectangle, none on an FFT basis.  fft is the FFT
    plan of an interval basis that transforms by FFT, None on the dense and
    sum-factorized paths; an FFT basis samples no table.
    """

    kind: str
    domain_extent: tuple[float, ...]
    n_modes: int
    eigenvalues: np.ndarray
    axis_nodes: tuple[np.ndarray, ...]
    quad_weights: np.ndarray
    axis_values: tuple[np.ndarray, ...]
    axis_modes: tuple[np.ndarray, ...]
    mode_indices: np.ndarray
    analysis_tables: tuple[np.ndarray, ...]
    synthesis_table: np.ndarray | None
    fft: "FFTPlan | None"

    @property
    def ndim(self) -> int:
        return len(self.domain_extent)

    @property
    def n_grid(self) -> int:
        return self.quad_weights.shape[0]

    @property
    def grid_points(self) -> np.ndarray:
        """The grid's nodes in row-major (x, y) order, formed from axis_nodes on
        each call: the (m,) nodes of an interval, (mx*my, 2) on a rectangle."""
        if self.ndim == 1:
            return self.axis_nodes[0]
        x, y = self.axis_nodes
        return np.column_stack([np.repeat(x, y.size), np.tile(y, x.size)])

    @property
    def kernel_mask(self) -> np.ndarray:
        """Boolean mask of zero-eigenvalue (kernel) modes."""
        return self.eigenvalues == 0.0

    def same_grid_as(self, other: "SpectralBasis") -> bool:
        """Both grids hold the same nodes.  An axis's trapezoid weights follow
        from its nodes linspace(0, L, m), whose count and last node are m and L."""
        return len(self.axis_nodes) == len(other.axis_nodes) and all(
            map(np.array_equal, self.axis_nodes, other.axis_nodes))


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


def _fft_plan(kind: str, length: float, labels: np.ndarray, m_grid: int) -> FFTPlan:
    n = m_grid - 1
    scale = np.full(labels.shape, np.sqrt(2.0 / length))
    slots = slice(int(labels[0]), int(labels[-1]) + 1)
    if kind == "interval_dirichlet":
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
        return _grid_rule(_select_modes(kind, np.atleast_1d(extent).astype(float), n_modes)[0])
    return MIN_GRID_FACTOR * n_modes


def _grid_rule(columns) -> int:
    return MIN_GRID_FACTOR * max(int(c.max()) + 1 for c in columns)


def build_basis(kind: str, extent, n_modes: int, m_grid: int) -> SpectralBasis:
    """Eigenbasis of kind interval_/rect_ dirichlet/neumann on (0, L) or
    (0, Lx) x (0, Ly); extent is L, [L] or [Lx, Ly].

    The n_modes lowest modes are retained (`_select_modes`).  m_grid counts
    nodes per axis and must be at least `min_grid_nodes`; each axis keeps
    only the 1-D modes a retained mode uses.  The Gram gate runs once, an
    interval basis picks its transform path (`FFTPlan` or dense) here, and
    the transform tables are formed here, in the one construction.
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
    # a rectangle's rule reads the columns it selects; an interval's is closed
    # form and holds before its n_modes labels are formed
    need = MIN_GRID_FACTOR * n_modes
    if axes == 2 or m_grid >= need:
        columns, eigenvalues = _select_modes(kind, lengths, n_modes)
        if axes == 2:
            need = _grid_rule(columns)
    if m_grid < need:
        raise GridTooSmallError(m_grid, need)
    first = 1 if bc == "dirichlet" else 0
    nodes, axis_weights = zip(*(_interval_grid(length, m_grid) for length in lengths))
    fft = None
    if (axes == 1 and n_modes * m_grid >= FFT_MIN_TABLE_SIZE
            and _largest_prime_factor(2 * (m_grid - 1)) <= FFT_MAX_PRIME_FACTOR):
        fft = _fft_plan(kind, lengths[0], first + columns[0], m_grid)
    # an FFT basis samples no table: its gate checks the FFT pair itself
    tables = () if fft is not None else tuple(
        _interval_eigendata(bc, length, np.arange(first, first + c.max() + 1), x)
        for length, c, x in zip(lengths, columns, nodes))
    weighted = tuple(w[:, None] * v for v, w in zip(tables, axis_weights))
    if axes == 1:
        weights, labels = axis_weights[0], first + columns[0]
        # a dense interval's transforms multiply its V.T and w[:, None]*V alone
        synthesis_table = np.ascontiguousarray(tables[0].T) if tables else None
        tables, analysis_tables = (), weighted
    else:
        weights = np.outer(*axis_weights).ravel()
        labels = first + np.column_stack(columns)
        synthesis_table, analysis_tables = None, (weighted[0].T, weighted[1])
    basis = SpectralBasis(
        kind=kind,
        domain_extent=lengths,
        n_modes=n_modes,
        eigenvalues=eigenvalues,
        axis_nodes=nodes,
        quad_weights=weights,
        axis_values=tables,
        axis_modes=columns,
        mode_indices=labels,
        analysis_tables=analysis_tables,
        synthesis_table=synthesis_table,
        fft=fft,
    )
    defect = gram_defect(basis)
    if defect > ORTHONORMALITY_TOL:
        raise BasisBuildError(
            f"orthonormality defect {defect:.3e} exceeds {ORTHONORMALITY_TOL:.0e} "
            f"for kind={kind}, n_modes={n_modes}, m_grid={m_grid}; increase m_grid")
    if fft is not None:
        _check_fft_plan(basis)
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


def synthesize(basis: SpectralBasis, coeffs: np.ndarray,
               out: np.ndarray | None = None) -> np.ndarray:
    """Coefficients (..., n) -> grid samples (..., m), written into `out` when
    given (a C-contiguous array of that shape) with the same bits.

    On a rectangle the coefficients are scattered into a (..., kx, ky) table C
    and the grid is Vx @ C @ Vy.T on the (mx, my) nodes.  An interval basis
    with an FFT plan runs one irfft per row instead of the dense product.
    """
    coeffs = _check_coeffs(basis, coeffs)
    if basis.synthesis_table is not None:
        # np.dot calls BLAS directly: on a march's (B, n) rows it costs less
        # than matmul's dispatch, with the same bits
        return np.dot(coeffs, basis.synthesis_table, out)
    if basis.fft is not None:
        plan, m = basis.fft, basis.n_grid
        spectrum = np.zeros(coeffs.shape[:-1] + (m,), dtype=complex)
        getattr(spectrum, plan.part)[..., plan.slots] = coeffs * plan.synthesis_scale
        return _into(out, np.fft.irfft(spectrum, 2 * (m - 1))[..., :m])
    vx, vy = basis.axis_values
    table = np.zeros(coeffs.shape[:-1] + (vx.shape[1], vy.shape[1]))
    table[(..., *basis.axis_modes)] = coeffs
    shape = coeffs.shape[:-1] + (vx.shape[0], vy.shape[0])
    grid = np.matmul(vx @ table, vy.T, out=None if out is None else out.reshape(shape))
    return grid.reshape(coeffs.shape[:-1] + (basis.n_grid,)) if out is None else out


def analyze(basis: SpectralBasis, grid_values: np.ndarray,
            out: np.ndarray | None = None) -> np.ndarray:
    """Grid samples (..., m) -> coefficients (..., n) via weighted inner
    products, written into `out` when given (a C-contiguous array of that
    shape) with the same bits.

    A dense interval multiplies by its stored w[:, None]*V.  On a rectangle the
    (..., mx, my) grid G gives (Vx.T @ (W*G) @ Vy)[..., jx, jy], with the
    tensor-product weights W folded into the stored per-axis tables.  An
    interval basis with an FFT plan runs one rfft per row (`FFTPlan`).  The
    values are not scanned: every caller passes a grid the overflow guard
    holds, and the march guards its grids once per span of steps.
    """
    grid_values = np.asarray(grid_values, dtype=float)
    if grid_values.shape[-1:] != (basis.n_grid,):
        raise ValueError(
            f"grid array has shape {grid_values.shape}, expected (..., {basis.n_grid})"
        )
    tables = basis.analysis_tables
    if len(tables) == 1:
        return np.dot(grid_values, tables[0], out)
    if basis.fft is not None:
        plan = basis.fft
        mirrored = grid_values[..., -2:0:-1]
        extended = np.concatenate(
            [grid_values, mirrored if plan.part == "real" else -mirrored], axis=-1)
        spectrum = np.fft.rfft(extended)[..., plan.slots]
        return np.multiply(getattr(spectrum, plan.part), plan.analysis_scale, out=out)
    tx, ty = tables
    grid = grid_values.reshape(grid_values.shape[:-1] + (tx.shape[1], ty.shape[0]))
    return _into(out, (tx @ grid @ ty)[(..., *basis.axis_modes)])


def _into(out: np.ndarray | None, values: np.ndarray) -> np.ndarray:
    """`values`, copied into `out` when it is given."""
    if out is None:
        return values
    np.copyto(out, values)
    return out


def squared_graph_norms(series: np.ndarray, stiff: np.ndarray,
                        norm_sq: np.ndarray | None = None) -> np.ndarray:
    """Squared graph norms |c|^2 + sum_j stiff_j c_j^2 over the trailing axis
    of a coefficient array; stiff = lambda**(2 rho) gives the graph of the
    fractional power lambda**rho.  `norm_sq` is vecdot(c, c) when the caller
    has formed it already."""
    if norm_sq is None:
        norm_sq = np.vecdot(series, series)
    return norm_sq + np.vecdot(stiff * series, series)


def graph_norms(series: np.ndarray, stiff: np.ndarray) -> np.ndarray:
    """The graph norms, square roots of `squared_graph_norms`."""
    return np.sqrt(squared_graph_norms(series, stiff))


def _fft_gram_diagonal(plan: FFTPlan) -> np.ndarray:
    """The Gram matrix of analyze o synthesize on an FFT basis is diag(s*a).

    With N = m-1, synthesis writes s_k c_k into bin k, and the irfft turns it
    into s_k c_k trig(pi i k/N)/(2N) on bin 0 and /N elsewhere, where trig
    is cos (part "real") or sin ("imag"); analysis reads bin j of the rfft of
    the grid's 2N-periodic extension, times a_j.  Over those 2N points
    trig(pi i j/N) and trig(pi i k/N) are orthogonal for j != k below N, with
    squared norm 2N on cosine bin 0 and N elsewhere (discrete orthogonality),
    so mode k reaches bin k alone, as s_k a_k c_k; `build_basis` holds
    m_grid >= MIN_GRID_FACTOR*n_modes, so every label is below N.  The scales
    (the bin-0 factor, the node step L/N) are what a plan can get wrong, and
    this checks them in O(n), with no table and no transform.
    """
    return plan.synthesis_scale * plan.analysis_scale


def _check_fft_plan(basis: SpectralBasis) -> None:
    """BasisBuildError unless the FFT plan transforms the basis's labels, in
    O(1): bins from the lowest label to the highest, cosines (Neumann) real
    or sines (Dirichlet) imaginary, and at both ends the closed-form synthesis
    scale, the eigenfunction's amplitude times the N = m-1 the irfft divides
    by (2N on bin 0), negated on a sine."""
    plan, (length,), sine = basis.fft, basis.domain_extent, basis.kind == "interval_dirichlet"
    ends = int(basis.mode_indices[0]), int(basis.mode_indices[-1])
    n = 1 - basis.n_grid if sine else basis.n_grid - 1
    want = [n * (2.0 / length**0.5 if p == 0 else (2.0 / length) ** 0.5) for p in ends]
    if ((plan.part, plan.slots.start, plan.slots.stop)
            != ("imag" if sine else "real", ends[0], ends[1] + 1)
            or any(abs(plan.synthesis_scale[k] / w - 1.0) > ORTHONORMALITY_TOL
                   for k, w in zip((0, -1), want))):
        raise BasisBuildError(f"the FFT plan (part {plan.part}, bins {plan.slots}) does not "
                              f"transform labels {ends[0]}..{ends[1]} of {basis.kind}")


def gram_defect(basis: SpectralBasis) -> float:
    """Max-abs deviation of the weighted Gram matrix from the identity, formed
    from the tables the transforms multiply by.

    An FFT basis is gated on the pair it transforms with, whose Gram matrix
    is diagonal (`_fft_gram_diagonal`).  A dense interval's is its synthesis
    times its analysis table, V.T @ (w V).  On a rectangle the tensor-product
    weights make it the product of the per-axis Gram tables V.T @ (w V), each
    axis's samples times its analysis table, at each mode pair's labels.
    """
    if basis.fft is not None:
        return float(np.abs(_fft_gram_diagonal(basis.fft) - 1.0).max())
    if basis.ndim == 1:
        gram = basis.synthesis_table @ basis.analysis_tables[0]
    else:
        (vx, vy), (tx, ty) = basis.axis_values, basis.analysis_tables
        jx, jy = basis.axis_modes
        gram = (vx.T @ tx.T)[jx[:, None], jx] * (vy.T @ ty)[jy[:, None], jy]
    return float(np.abs(gram - np.eye(basis.n_modes)).max())
