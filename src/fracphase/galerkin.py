"""Assembly of the coupled Galerkin ODE system.

Projecting the temperature/phase system onto the spans of the first n
eigenfunctions turns it into

    Theta' + E Phi' + Lambda Theta = g,      Phi' + M Phi + F(Theta, Phi) = 0,

with Lambda = diag(lambda_j^(2r)), M = diag(mu_j^(2sigma)), the coupling
matrix E = ell*[(eta_j, e_i)] (or its state-dependent, matrix-free variant for
a nonconstant latent-heat coefficient), source samples g(t) = [(f(t), e_i)]
and F = P(beta_eps(phi)) + P(pi(phi)) - E^T Theta.  The terms of F that are
linear in the state act in modal space (the slope pi(v) = -gamma*v gives
P(pi(phi)) = -gamma*Phi, a constant coupling the same E in both equations);
the rest is evaluated pseudospectrally, by collocation on the quadrature grid.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .potentials import Potential, yosida
from .spectral import (SpectralBasis, analyze, cross_gram, fractional_multipliers,
                       synthesize)

# largest magnitude a coefficient or grid value may take before a run is
# declared blown up
OVERFLOW_LIMIT = 1e12

# `guard` accepts outright when the sum of squares is at most this: the sum
# bounds the squared peak, and the halved limit leaves room for the rounding
# of the dot product
_GUARD_SUM_SQ = (OVERFLOW_LIMIT / 2.0) ** 2

# lambda**p overflows once p*log(lambda) reaches this
_LOG_FLOAT_MAX = np.log(np.finfo(float).max)

# Sufficient embedding condition for the nonconstant-coupling analysis; an
# unmet threshold is advisory only, never a hard error.
SOBOLEV_ADVISORY_THRESHOLD = 0.75


class ValidationError(ValueError):
    """Problem data violates a hard precondition (e.g. obstacle overflow)."""


class OverflowGuardError(RuntimeError):
    """Values exceeded the overflow guard; `row` is the first offending row
    of a stack of several rows, None otherwise."""

    def __init__(self, message: str, row: int | None = None):
        super().__init__(message)
        self.row = row


@dataclass(frozen=True)
class Coupling:
    """Latent-heat coefficient: a constant or a bounded Lipschitz function."""

    kind: str  # "constant" | "function"
    value: float = 0.0
    func: Optional[Callable[[np.ndarray], np.ndarray]] = None

    @staticmethod
    def constant(value: float) -> "Coupling":
        return Coupling(kind="constant", value=float(value))

    @staticmethod
    def function(func) -> "Coupling":
        return Coupling(kind="function", func=func)

    def on_grid(self, phi_grid: np.ndarray) -> np.ndarray:
        return np.asarray(self.func(phi_grid), dtype=float)


@dataclass
class ProblemData:
    """Initial data, source and coupling before projection.

    theta0/phi0 are grid values (what `expressions.build_space_field`
    returns), callables over the grid points, or None; the source is None or
    (space, time) factor pairs whose space factors take the same forms, as
    `expressions.build_source` returns them.  Assembly holds each space datum
    to `resolve_field` and projects it once.
    """

    theta0: object
    phi0: object
    source: Optional[tuple] = None
    coupling: Coupling = field(default_factory=lambda: Coupling.constant(0.0))


def resolve_field(spec, basis: SpectralBasis, name: str) -> np.ndarray:
    """The grid values of datum `spec` (None, a callable or an array) on
    `basis`; a ValidationError unless they fill the grid and pass the overflow
    guard, since no step could carry them."""
    if spec is None:
        return np.zeros(basis.n_grid)
    if callable(spec):
        vals = np.asarray(spec(basis.grid_points), dtype=float)
    else:
        vals = np.asarray(spec, dtype=float)
    if vals.shape != (basis.n_grid,):
        raise ValidationError(
            f"{name}: expected {basis.n_grid} grid values, got shape {vals.shape}"
        )
    try:
        return guard(vals, name)
    except OverflowGuardError as exc:
        raise ValidationError(str(exc)) from None


@dataclass(frozen=True)
class DiscreteSystem:
    """Everything needed to advance the Galerkin ODE system in time.

    phi_stiff is mu^(2 sigma); `analysis.limit_system` replaces it with the
    kernel-complement mask realizing I - P (at sigma = eps = 0).  A stacked
    system (`stack_systems`) carries a leading row axis on sigma, phi_stiff
    and the initial grids and marches one trajectory per row; the march
    stacks a lone system as one row, so every step sees (B, n) arrays.

    `source` holds one (time, coeffs) pair per source product, coeffs the
    A-projection of its space factor, so the sample is g(t) = sum of
    time(t) * coeffs; () is no source and samples zeros.
    """

    basis_a: SpectralBasis
    basis_b: SpectralBasis
    r: float
    sigma: float
    eps: float
    potential: Potential
    coupling: Coupling
    theta_stiff: np.ndarray
    phi_stiff: np.ndarray
    theta0_grid: np.ndarray
    phi0_grid: np.ndarray
    coupling_matrix: Optional[np.ndarray] = None
    source: tuple[tuple[Callable[[float], float], np.ndarray], ...] = ()
    advisories: tuple[str, ...] = ()

    @property
    def n_a(self) -> int:
        return self.basis_a.n_modes

    @property
    def n_b(self) -> int:
        return self.basis_b.n_modes

    def source_at(self, t: float) -> np.ndarray:
        total = None
        for time, coeffs in self.source:
            term = time(t) * coeffs
            total = term if total is None else total + term
        return np.zeros(self.n_a) if total is None else total

    def step_denominators(self, dt: float) -> tuple[np.ndarray, np.ndarray]:
        """(1 + dt*theta_stiff, 1 + dt*phi_stiff), built once per run by
        `timestepper.prepare_step`.

        A ValidationError when max(dt, 1) * largest multiplier * n *
        OVERFLOW_LIMIT**2 overflows: below that the denominators, the ledger's
        dt*lambda**(2r)*theta*theta sums and the graph norms of every state
        the overflow guard passes stay finite.
        """
        for name, stiff in (("r", self.theta_stiff), ("sigma", self.phi_stiff)):
            # decided before any product is taken, so no overflow warning prints
            log_bound = (np.log(max(dt, 1.0)) + np.log(max(stiff.max(), 1.0))
                         + np.log(stiff.shape[-1]) + 2.0 * np.log(OVERFLOW_LIMIT))
            if log_bound >= _LOG_FLOAT_MAX:
                raise ValidationError(
                    f"exponent {name} = {np.max(getattr(self, name)):g} with dt = "
                    f"{dt:g} overflows the step: dt * multiplier * n_modes * "
                    f"OVERFLOW_LIMIT**2 exceeds the float range")
        return 1.0 + dt * self.theta_stiff, 1.0 + dt * self.phi_stiff


def assemble(data: ProblemData, basis_a: SpectralBasis, basis_b: SpectralBasis,
             r: float, sigma: float, eps: float, potential: Potential) -> DiscreteSystem:
    """Build the discrete system; validates data against the potential domain."""
    if r <= 0.0:
        raise ValidationError(f"exponent r must be positive, got {r}")
    if sigma <= 0.0:
        raise ValidationError(f"exponent sigma must be positive, got {sigma}")
    if eps < 0.0:
        raise ValidationError(f"Yosida level eps must be nonnegative, got {eps}")
    # the splits multiply values up to OVERFLOW_LIMIT by eps (compared in logs)
    if np.log(max(eps, 1.0)) + np.log(OVERFLOW_LIMIT) >= _LOG_FLOAT_MAX:
        raise ValidationError(f"Yosida level eps = {eps:g} overflows the potential: "
                              "eps * OVERFLOW_LIMIT exceeds the float range")
    for name, basis, value in (("r", basis_a, r), ("sigma", basis_b, sigma)):
        # decided before the power is taken, so no overflow warning prints
        if 2.0 * value * np.log(max(basis.eigenvalues.max(), 1.0)) >= _LOG_FLOAT_MAX:
            raise ValidationError(f"exponent {name} = {value:g} overflows the "
                                  f"multipliers lambda**(2*{name})")
    if basis_a.domain_extent != basis_b.domain_extent:
        raise ValidationError(
            f"bases live on different domains: {basis_a.domain_extent} vs {basis_b.domain_extent}"
        )

    theta0_grid = resolve_field(data.theta0, basis_a, "theta0")
    phi0_grid = resolve_field(data.phi0, basis_b, "phi0")

    lo, hi = potential.domain
    bad = np.flatnonzero(~((lo <= phi0_grid) & (phi0_grid <= hi)))
    if bad.size:
        report = ", ".join(f"node {k}: phi0={float(phi0_grid[k])!r}" for k in bad[:5])
        raise ValidationError(
            f"phi0 leaves the domain of the convex potential at {bad.size} node(s): {report}"
        )

    # one basis object takes the scalar coupling; two distinct objects, even
    # equal ones, take the cross-Gram matrix
    same = basis_a is basis_b
    if not same and not basis_a.same_grid_as(basis_b):
        raise ValidationError(
            "distinct bases must share the quadrature grid (use the same m_grid)"
        )

    coupling_matrix = None
    if data.coupling.kind == "constant" and not same:
        coupling_matrix = data.coupling.value * cross_gram(basis_a, basis_b)

    advisories: list[str] = []
    if data.coupling.kind == "function" and r + 2.0 * sigma <= SOBOLEV_ADVISORY_THRESHOLD:
        msg = (
            f"nonconstant coupling with r + 2*sigma = {r + 2.0 * sigma:.3g} <= "
            f"{SOBOLEV_ADVISORY_THRESHOLD}: the sufficient embedding condition is unmet"
        )
        advisories.append(msg)
        warnings.warn(msg, stacklevel=2)
    # every split pairs pi_hat = -gamma*s^2/2 (+ const) with a beta_hat_eps
    # growing like s^2/(2*eps), so their sum is coercive exactly when
    # eps*gamma < 1; at eps = 0 beta_hat dominates or bounds the domain
    if eps * potential.gamma >= 1.0:
        advisories.append(
            f"eps*gamma = {eps * potential.gamma:.3g} >= 1: beta_hat_eps + pi_hat is "
            "then unbounded below, and the coercivity assumed of the potential fails")

    return DiscreteSystem(
        basis_a=basis_a,
        basis_b=basis_b,
        r=r,
        sigma=sigma,
        eps=float(eps),
        potential=potential,
        coupling=data.coupling,
        theta_stiff=fractional_multipliers(basis_a, 2.0 * r),
        phi_stiff=fractional_multipliers(basis_b, 2.0 * sigma),
        theta0_grid=theta0_grid,
        phi0_grid=phi0_grid,
        coupling_matrix=coupling_matrix,
        source=tuple((time, analyze(basis_a, resolve_field(
            space, basis_a, f"source product {k}")))
            for k, (space, time) in enumerate(data.source or ())),
        advisories=tuple(advisories),
    )


def stack_systems(systems: Sequence[DiscreteSystem]) -> DiscreteSystem:
    """One system whose rows march the trajectories of `systems` at once.

    The rows must share the bases, r, eps, potential, coupling and source
    (the same time factors with equal coefficients); sigma, phi_stiff and
    the initial grids gain a leading row axis.
    """
    first = systems[0]
    for other in systems[1:]:
        same_source = len(other.source) == len(first.source) and all(
            t1 is t2 and np.array_equal(c1, c2)
            for (t1, c1), (t2, c2) in zip(other.source, first.source))
        if not (other.basis_a is first.basis_a and other.basis_b is first.basis_b
                and other.potential is first.potential and same_source
                and other.coupling == first.coupling
                and (other.r, other.eps) == (first.r, first.eps)):
            raise ValidationError("stacked systems must share bases, r, eps, "
                                  "potential, coupling and source")

    def rows(name):
        values = [np.asarray(getattr(row, name), dtype=float) for row in systems]
        # a stack of one views its system's arrays, so the march of a lone
        # system allocates no grid (copies of two large grids here put a
        # rectangle march's temporaries on fresh pages: 2.4x the page faults)
        return values[0][None] if len(values) == 1 else np.stack(values)

    return replace(
        first, **{name: rows(name) for name in ("sigma", "phi_stiff", "theta0_grid",
                                               "phi0_grid")},
        advisories=tuple(dict.fromkeys(a for row in systems for a in row.advisories)),
    )


def project_data(system: DiscreteSystem) -> tuple[np.ndarray, np.ndarray]:
    """H-projections of the initial data onto the discrete spaces."""
    return (analyze(system.basis_a, system.theta0_grid),
            analyze(system.basis_b, system.phi0_grid))


def guard(values: np.ndarray, label: str) -> np.ndarray:
    """Return `values`, or raise OverflowGuardError when any entry is
    non-finite or exceeds OVERFLOW_LIMIT in magnitude.  The march hands it
    (B, n) stacks; when there are several rows, the message and the error's
    `row` name the first offending one (a lone run is a stack of one).

    One dot product accepts the common case (NaN and inf fail the
    comparison); the exact per-row peaks decide and describe everything else.
    np.vdot flattens its arguments, and an overflow of the sum gives inf
    without a RuntimeWarning.
    """
    if np.vdot(values, values) <= _GUARD_SUM_SQ:
        return values
    peaks = np.abs(values).reshape(-1, values.shape[-1]).max(axis=1, initial=0.0)
    bad = ~(peaks <= OVERFLOW_LIMIT)  # NaN fails the comparison too
    if bad.any():
        first = int(np.argmax(bad))
        row = first if peaks.size > 1 else None
        at = "" if row is None else f" in row {row}"
        raise OverflowGuardError(f"{label} exceeded the overflow guard{at} "
                                 f"(peak |value| {peaks[first]:.3e})", row)
    return values


def prepare_force(system: DiscreteSystem, explicit_beta: bool = True,
                  solve: Optional[Callable] = None) -> tuple[Callable, Callable]:
    """(force, couple) of one system, every choice a run never changes made
    once: the coupling and the convex map.  force(theta, phi, grid, out)
    returns (F, phi_grid, collocated) for F = P(beta_eps(phi)) + P(pi(phi)) -
    E^T theta in the B basis, phi on the grid and the collocated terms of F on
    the grid, analyzed in one pass (both None when nothing is collocated,
    which `force.collocates` tells before any call); phi_grid is synthesized
    into `grid` and the collocated terms formed in `out` when these are given
    (the march's rows), else allocated.  The caller holds `collocated` to the
    overflow guard, labelled "nonlinearity": the march once per span of
    steps, other callers at once.  couple(phi_grid, w) is E w (or E(Phi) w).
    explicit_beta = False leaves the convex part out, which the proximal
    scheme applies through its resolvent, and solve(level, s) is the resolvent
    the convex map takes (`yosida`'s).

    The terms linear in the state stay in modal space: P(pi(phi)) =
    -gamma*phi exactly, and a constant coupling gives E^T theta = ell*theta on
    one basis or theta @ coupling_matrix on two, the exact matrix E w applies
    in the temperature equation, so the two coupling operators are transposes
    and the discrete energy identity holds on mixed bases too.  Only what has
    no modal form is collocated: beta_eps(phi) (beta(phi) at eps = 0) and
    ell(phi)*theta for a function coupling, whose weighted quadrature is
    consistent in both equations.
    """
    pot, eps, coupling = system.potential, system.eps, system.coupling
    basis_a, basis_b, neg_gamma = system.basis_a, system.basis_b, -pot.gamma
    # beta(phi) off its domain is NaN (eps = 0), which the guard of F rejects
    convex = (lambda grid, theta, out: yosida(pot, eps, grid, solve, out)) \
        if explicit_beta else None
    if coupling.kind == "function":
        def latent(grid, theta, out):
            return np.multiply(-coupling.on_grid(grid), synthesize(basis_a, theta), out=out)

        def couple(grid, w):
            return analyze(basis_a, coupling.on_grid(grid) * synthesize(basis_b, w))

        modal = lambda theta, phi: neg_gamma * phi
        collocate = latent if convex is None else (
            lambda grid, theta, out: np.add(convex(grid, theta, out),
                                            latent(grid, theta, None), out=out))
    elif basis_a is basis_b:
        ell, collocate = coupling.value, convex
        modal = lambda theta, phi: neg_gamma * phi - ell * theta
        couple = lambda grid, w: ell * w
    else:
        matrix, matrix_t, collocate = system.coupling_matrix, system.coupling_matrix.T, convex
        modal = lambda theta, phi: neg_gamma * phi - theta @ matrix
        couple = lambda grid, w: w @ matrix_t
    if collocate is None:
        def force(theta, phi, grid=None, out=None):
            return modal(theta, phi), None, None
    else:
        def force(theta, phi, grid=None, out=None):
            fphi, grid = modal(theta, phi), synthesize(basis_b, phi, grid)
            collocated = collocate(grid, theta, out)
            return fphi + analyze(basis_b, collocated), grid, collocated

    force.collocates = collocate is not None
    return force, couple
