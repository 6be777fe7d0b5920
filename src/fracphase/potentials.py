"""Convex/concave potential splits and their Moreau-Yosida machinery.

A potential F = beta_hat + pi_hat splits into a convex part beta_hat (possibly
nonsmooth or with bounded domain, subdifferential beta) and a smooth concave
perturbation pi_hat with Lipschitz derivative pi.  Three canonical splits ship:

  regular         beta_hat = s^4/4,             pi_hat = (1 - 2*gamma*s^2)/4
  logarithmic     beta_hat = (1+s)ln(1+s)+(1-s)ln(1-s) on [-1,1], pi_hat = -c1 s^2
  double obstacle beta_hat = indicator of [-1,1],                 pi_hat = -c2 s^2

plus the inert split "none".  Every split declares the solver of its
resolvent J_eps = (I + eps*beta)^{-1}: a real cubic root for the regular
split, a projection for the obstacle, and for the logarithmic split a Newton
iteration on artanh(x) that needs no bracket.  The Yosida map and the Moreau
envelope derive from it; level eps = 0 is the split itself (beta and beta_hat),
and this module is the only one that tells the levels apart.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

# Newton on y = artanh(x) climbs at least 1/2 per step while the root lies in
# tanh's flat tail, so this many steps reach _ATANH_MAX from 0
LOG_NEWTON_MAX_ITERS = 64
# tanh(20) rounds to 1.0: past it no root is representable, and bounding y
# there keeps 2*eps*y finite for every finite s
_ATANH_MAX = 20.0
_BELOW_ONE = float(np.nextafter(1.0, 0.0))

# `check_resolvent` accepts a solution outright when the sum of its squared
# residuals is at most this.  The sum bounds every squared residual, and half
# the smallest per-point bound (1e-6), squared, leaves room for the rounding
# of the dot product
_RESIDUAL_SUM_SQ = 0.5e-6 ** 2


class ResolventError(RuntimeError):
    """Raised when the resolvent solve fails to reach a usable residual."""


@dataclass(frozen=True)
class Potential:
    """A convex/concave split with everything the solver needs.

    beta is the minimal section of the subdifferential of beta_hat, defined on
    the open part of the domain; domain is the closed domain of beta_hat.
    resolvent_solver(eps, s) solves x + eps*beta(x) = s pointwise.  Every
    split's Lipschitz part is pi(v) = -gamma*v (pi_hat = -gamma*s^2/2 up to a
    constant), so gamma is all of it.  The callables take and return float
    arrays.  beta_hat(s, out), beta(s, out) and resolvent_solver(eps, s, out,
    scratch) write their result into `out` when given, an array of s's shape,
    and return it; the solver may overwrite `scratch`, two such arrays
    stacked.  The march hands them per-run buffers, so a step allocates no
    grid; the values are those of the allocating call, bit for bit.
    """

    kind: str
    beta_hat: Callable[..., np.ndarray]
    beta: Callable[..., np.ndarray]
    gamma: float
    domain: tuple[float, float]
    resolvent_solver: Callable[..., np.ndarray]

    @property
    def multivalued(self) -> bool:
        """True when beta has vertical segments (the obstacle indicator)."""
        return self.kind == "double_obstacle"


def _cubic_resolvent(eps: float, s: np.ndarray, out=None, scratch=None) -> np.ndarray:
    """Real root of x + eps*x^3 = s, then one Newton polish.

    Hyperbolic Cardano form: x = a*sinh(asinh(3s/a)/3) with a = 2/sqrt(3 eps).
    Unlike the radical Cardano formula it does not cancel near s = 0.  Each
    operation runs in place, in the order and with the operands of
    x = (2/k)*sinh(asinh(1.5*k*s)/3), x - (x + eps*(x*x*x) - s)/(1 + 3 eps x*x):
    the polish's x*x and step take the two scratch grids.
    """
    k = math.sqrt(3.0 * eps)
    x = np.multiply(1.5 * k, s, out=np.empty_like(s) if out is None else out)
    np.arcsinh(x, out=x)
    x /= 3.0
    np.sinh(x, out=x)
    x *= 2.0 / k
    x2, step = (np.empty_like(x), np.empty_like(x)) if scratch is None else scratch
    np.multiply(x, x, out=x2)
    np.multiply(x2, x, out=step)
    step *= eps
    step += x
    step -= s
    x2 *= 3.0 * eps
    x2 += 1.0
    step /= x2
    x -= step
    return x


def regular_potential(gamma: float = 1.0) -> Potential:
    """Quartic split: beta(s) = s^3, pi(s) = -gamma*s.

    gamma = 1 reproduces the classical double well (s^2-1)^2/4 exactly.
    """
    if gamma < 0.0:
        raise ValueError(f"gamma must be nonnegative, got {gamma}")
    return Potential(
        kind="regular",
        beta_hat=_quartic,
        # s*s*s: numpy's float power has no fast path for the exponent 3
        beta=lambda s, out=None: np.multiply(np.multiply(s, s, out=out), s, out=out),
        gamma=gamma,
        domain=(-np.inf, np.inf),
        resolvent_solver=_cubic_resolvent,
    )


def _quartic(s: np.ndarray, out=None) -> np.ndarray:
    """(s*s)**2/4, in place after the first product: numpy's float power has
    a fast path (a square) for the exponent 2, none for 4."""
    q = np.multiply(s, s, out=out)
    q **= 2
    q /= 4.0
    return q


# the logarithmic split's maps read everything of s they need before they
# write `out`, so `out` may be s itself
def _log_beta_hat(s: np.ndarray, out=None) -> np.ndarray:
    inside, edge = np.abs(s) < 1.0, np.abs(s) == 1.0
    si = s[inside]
    out = np.full(s.shape, np.inf) if out is None else _into(out, np.inf)
    # (1+s)ln(1+s) + (1-s)ln(1-s) with the 0*ln0 = 0 convention
    out[inside] = (1.0 + si) * np.log1p(si) + (1.0 - si) * np.log1p(-si)
    out[edge] = 2.0 * np.log(2.0)
    return out


def _log_beta(s: np.ndarray, out=None) -> np.ndarray:
    inside = np.abs(s) < 1.0
    si = s[inside]
    out = np.full(s.shape, np.nan) if out is None else _into(out, np.nan)
    out[inside] = np.log1p(si) - np.log1p(-si)
    return out


def _log_resolvent(eps: float, s: np.ndarray, out=None, scratch=None) -> np.ndarray:
    """Root of x + eps*ln((1+x)/(1-x)) = s by Newton on y = artanh(x).

    There the equation is tanh(y) + 2*eps*y = |s|, increasing and concave for
    y >= 0, so Newton from y = 0 climbs monotonically to the root; the sign of
    s is restored at the end, which makes J odd bit for bit.  A root closer
    to +-1 than float resolution returns an interior float (the last one
    below 1 once tanh rounds to 1), and `check_resolvent` decides whether
    it is usable.  Non-finite input passes through without raising.
    """
    a = np.abs(s)
    c = 2.0 * eps
    tol = 1e-15 * (1.0 + a)
    y = np.zeros_like(a)
    for _ in range(LOG_NEWTON_MAX_ITERS):
        g = np.tanh(y) + c * y - a
        active = (np.abs(g) > tol) & (y < _ATANH_MAX)
        if not active.any():
            break
        # a point at rest takes no step, which may overflow at the bound
        cosh = np.cosh(y)
        step = np.divide(g, 1.0 / (cosh * cosh) + c, out=np.zeros_like(y), where=active)
        y = np.minimum(y - step, _ATANH_MAX)
    return np.copysign(np.minimum(np.tanh(y), _BELOW_ONE), s, out=out)


def logarithmic_potential(c1: float) -> Potential:
    """Logarithmic double well; c1 > 1 makes the full potential nonconvex."""
    if c1 <= 1.0:
        raise ValueError(f"logarithmic potential requires c1 > 1, got {c1}")
    return Potential(
        kind="logarithmic",
        beta_hat=_log_beta_hat,
        beta=_log_beta,
        gamma=2.0 * c1,
        domain=(-1.0, 1.0),
        resolvent_solver=_log_resolvent,
    )


def double_obstacle_potential(c2: float) -> Potential:
    """Indicator of [-1, 1] plus the concave quadratic -c2 s^2."""
    if c2 <= 0.0:
        raise ValueError(f"obstacle potential requires c2 > 0, got {c2}")

    def beta_hat(s, out=None):
        return _into(out, np.where(np.abs(s) <= 1.0, 0.0, np.inf))

    def beta_min(s, out=None):
        return _into(out, np.where(np.abs(s) <= 1.0, 0.0, np.nan))

    return Potential(
        kind="double_obstacle",
        beta_hat=beta_hat,
        beta=beta_min,
        gamma=2.0 * c2,
        domain=(-1.0, 1.0),
        # np.clip's values (NaN and -0.0 included) without its Python layers
        resolvent_solver=lambda eps, s, out=None, scratch=None: np.minimum(
            np.maximum(s, -1.0, out=out), 1.0, out=out),
    )


def zero_potential() -> Potential:
    """beta_hat = 0, pi = 0: reduces the phase equation to a linear flow."""
    zero = lambda s, out=None: np.zeros_like(s) if out is None else _into(out, 0.0)
    return Potential(
        kind="none",
        beta_hat=zero,
        beta=zero,
        gamma=0.0,
        domain=(-np.inf, np.inf),
        resolvent_solver=lambda eps, s, out=None, scratch=None: (
            s.copy() if out is None else _into(out, s)),
    )


def _into(out: np.ndarray | None, values) -> np.ndarray:
    """`values`, copied (broadcast) into `out` when it is given."""
    if out is None:
        return values
    np.copyto(out, values)
    return out


def resolvent(pot: Potential, eps: float, s: np.ndarray, out: np.ndarray | None = None,
              scratch: np.ndarray | None = None) -> np.ndarray:
    """J_eps(s): the unique solution of x + eps*beta(x) = s, pointwise.

    The potential's own solver computes it, into `out` with its `scratch`
    when they are given, and the solution passes `check_resolvent`, whose
    residual then takes scratch[0].
    """
    if not (eps > 0.0 and math.isfinite(3.0 * eps)):  # the cubic takes sqrt(3*eps)
        raise ValueError(f"resolvent level eps must be positive with 3*eps finite, got {eps}")
    s_arr = np.asarray(s, dtype=float)
    # a finite sum of squares means finite entries; the exact test decides
    # the rest (finite entries above ~1e154 overflow the sum, which np.vdot
    # returns as inf without a warning)
    if not math.isfinite(np.vdot(s_arr, s_arr)) and not np.isfinite(s_arr).all():
        raise ValueError("resolvent input must be finite")
    x = pot.resolvent_solver(eps, s_arr, out, scratch)
    check_resolvent(pot, eps, s_arr, x, None if scratch is None else scratch[0])
    return x


def check_resolvent(pot: Potential, eps: float, s: np.ndarray, x: np.ndarray,
                    out: np.ndarray | None = None) -> None:
    """Raise ResolventError unless x solves x + eps*beta(x) = s to within
    1e-6*(1 + |s|) at every point, naming the worst one; the obstacle
    projection is exact and always passes.  Any array shape: the march checks
    many steps' grids in one call, forming the residual in its buffer `out`.
    """
    if pot.multivalued:
        return
    # (x + eps*beta(x)) - s, its sums in either operand order (the same bits)
    residual = np.multiply(eps, pot.beta(x, out), out=out)
    residual += x
    residual -= s
    # one dot accepts most calls (NaN fails it); the per-point bound decides
    if not np.vdot(residual, residual) <= _RESIDUAL_SUM_SQ:
        residual = np.abs(residual)
        sanity = 1e-6 * (1.0 + np.abs(s))
        if not (residual <= sanity).all():
            excess = np.where(np.isfinite(residual), residual - sanity, np.inf)
            worst = int(np.argmax(excess))
            raise ResolventError(
                f"resolvent failed for kind={pot.kind}, eps={eps}: residual "
                f"{residual.flat[worst]:.3e} at s={s.flat[worst]!r}"
            )


def yosida(pot: Potential, eps: float, s: np.ndarray,
           solve: Callable | None = None, out: np.ndarray | None = None) -> np.ndarray:
    """beta_eps(s) = (s - J_eps(s)) / eps: monotone and 1/eps-Lipschitz; at
    eps = 0 beta itself (NaN off its domain).  `solve(eps, s)` computes
    J_eps in place of `resolvent` (the march's unchecked solve); `out`, when
    given, receives the values."""
    s_arr = np.asarray(s, dtype=float)
    if eps == 0.0:
        return pot.beta(s_arr, out)
    diff = np.subtract(s_arr, solve(eps, s_arr) if solve else resolvent(pot, eps, s_arr),
                       out=out)
    diff /= eps
    return diff


def moreau(pot: Potential, eps: float, s: np.ndarray, out: np.ndarray | None = None,
           scratch: np.ndarray | None = None) -> np.ndarray:
    """Moreau envelope beta_hat_eps(s) = |s - J_eps(s)|^2/(2 eps) + beta_hat(J_eps(s));
    at eps = 0 beta_hat itself (inf off its domain).  Given `out` (which may
    be s itself) and `scratch`, three grids of s's shape stacked, it allocates
    no grid: J takes scratch[0], the solver scratch[1:] and beta_hat(J)
    scratch[1]."""
    s_arr = np.asarray(s, dtype=float)
    if eps == 0.0:
        return pot.beta_hat(s_arr, out)
    j, work = (None, None) if scratch is None else (scratch[0], scratch[1:])
    j = resolvent(pot, eps, s_arr, j, work)
    envelope = np.subtract(s_arr, j, out=out)
    envelope **= 2
    envelope /= 2.0 * eps
    envelope += pot.beta_hat(j, None if work is None else work[0])
    return envelope


def prox_step(pot: Potential, eps: float, lam: float, s: np.ndarray,
              solve: Callable | None = None, out: np.ndarray | None = None,
              scratch: np.ndarray | None = None) -> np.ndarray:
    """Resolvent at level lam of the effective graph used by the stepper.

    eps = 0 treats beta itself (the unregularized graph); eps > 0 treats the
    Yosida map beta_eps through the resolvent identity
    (I + lam*beta_eps)^{-1} = (eps*I + lam*J_{lam+eps}) / (lam + eps),
    formed in `out` with lam*J in `scratch` when they are given.  `solve`
    replaces `resolvent` as in `yosida`.
    """
    if lam <= 0.0:
        raise ValueError(f"prox step size must be positive, got {lam}")
    solve = solve or (lambda level, x: resolvent(pot, level, x))
    if eps == 0.0:
        return solve(lam, s)
    s_arr = np.asarray(s, dtype=float)
    combined = np.multiply(eps, s_arr, out=out)
    combined += np.multiply(lam, solve(lam + eps, s_arr), out=scratch)
    combined /= lam + eps
    return combined
