"""Convex/concave potential splits and their Moreau-Yosida machinery.

A potential F = beta_hat + pi_hat splits into a convex part beta_hat (possibly
nonsmooth or with bounded domain, subdifferential beta) and a smooth concave
perturbation pi_hat with Lipschitz derivative pi.  Three canonical splits ship:

  regular         beta_hat = s^4/4,             pi_hat = (1 - 2*gamma*s^2)/4
  logarithmic     beta_hat = (1+s)ln(1+s)+(1-s)ln(1-s) on [-1,1], pi_hat = -c1 s^2
  double obstacle beta_hat = indicator of [-1,1],                 pi_hat = -c2 s^2

plus a custom hook.  The resolvent J_eps = (I + eps*beta)^{-1} has a closed
form for the regular (a real cubic root) and obstacle (a projection) splits;
the logarithmic and custom splits solve it by safeguarded Newton with a
guaranteed bisection bracket.  The Yosida map and the Moreau envelope derive
from it.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

NEWTON_TOL = 1e-12          # acceptance threshold for the residual
NEWTON_TARGET = 1e-15       # polish target; iteration stops on stagnation
NEWTON_MAX_ITERS = 100
BISECTION_MAX_ITERS = 200

# Slack for "inside the obstacle" so that grid values clamped to +-1 do not
# evaluate the indicator at +inf through rounding.
OBSTACLE_SLACK = 1e-12


class ResolventError(RuntimeError):
    """Raised when the resolvent solve fails to reach a usable residual."""


@dataclass(frozen=True)
class Potential:
    """A convex/concave split with everything the solver needs.

    beta is the minimal section of the subdifferential of beta_hat, defined on
    the open part of the domain; beta_prime (when available) feeds Newton.
    gamma is set whenever pi(v) = -gamma*v, which the relaxation-limit solver
    requires.
    """

    kind: str
    beta_hat: Callable[[np.ndarray], np.ndarray]
    beta: Callable[[np.ndarray], np.ndarray]
    beta_prime: Optional[Callable[[np.ndarray], np.ndarray]]
    pi_hat: Callable[[np.ndarray], np.ndarray]
    pi: Callable[[np.ndarray], np.ndarray]
    gamma: Optional[float]
    domain: tuple[float, float]
    resolvent_closed_form: Optional[Callable[[float, np.ndarray], np.ndarray]] = None

    @property
    def multivalued(self) -> bool:
        """True when beta has vertical segments (the obstacle indicator)."""
        return self.kind == "double_obstacle"


def _cubic_resolvent(eps: float, s: np.ndarray) -> np.ndarray:
    """Real root of x + eps*x^3 = s, then one Newton polish.

    Hyperbolic Cardano form: x = a*sinh(asinh(3s/a)/3) with a = 2/sqrt(3 eps).
    Unlike the radical Cardano formula it does not cancel near s = 0.
    """
    k = np.sqrt(3.0 * eps)
    x = (2.0 / k) * np.sinh(np.arcsinh(1.5 * k * s) / 3.0)
    return x - (x + eps * (x * x * x) - s) / (1.0 + 3.0 * eps * x * x)


def regular_potential(gamma: float = 1.0) -> Potential:
    """Quartic split: beta(s) = s^3, pi(s) = -gamma*s.

    gamma = 1 reproduces the classical double well (s^2-1)^2/4 exactly.
    """
    if gamma < 0.0:
        raise ValueError(f"gamma must be nonnegative, got {gamma}")
    return Potential(
        kind="regular",
        beta_hat=lambda s: np.asarray(s, dtype=float) ** 4 / 4.0,
        # s*s*s: numpy's float power has no fast path for the exponent 3
        beta=lambda s: (v := np.asarray(s, dtype=float)) * v * v,
        beta_prime=lambda s: 3.0 * np.asarray(s, dtype=float) ** 2,
        pi_hat=lambda s: (1.0 - 2.0 * gamma * np.asarray(s, dtype=float) ** 2) / 4.0,
        pi=lambda s: -gamma * np.asarray(s, dtype=float),
        gamma=gamma,
        domain=(-np.inf, np.inf),
        resolvent_closed_form=_cubic_resolvent,
    )


def _log_beta_hat(s: np.ndarray) -> np.ndarray:
    s = np.asarray(s, dtype=float)
    out = np.full(s.shape, np.inf)
    inside = np.abs(s) < 1.0
    si = s[inside]
    # (1+s)ln(1+s) + (1-s)ln(1-s) with the 0*ln0 = 0 convention
    out[inside] = (1.0 + si) * np.log1p(si) + (1.0 - si) * np.log1p(-si)
    out[np.abs(s) == 1.0] = 2.0 * np.log(2.0)
    return out


def _log_beta(s: np.ndarray) -> np.ndarray:
    s = np.asarray(s, dtype=float)
    out = np.full(s.shape, np.nan)
    inside = np.abs(s) < 1.0
    si = s[inside]
    out[inside] = np.log1p(si) - np.log1p(-si)
    return out


def logarithmic_potential(c1: float) -> Potential:
    """Logarithmic double well; c1 > 1 makes the full potential nonconvex."""
    if c1 <= 1.0:
        raise ValueError(f"logarithmic potential requires c1 > 1, got {c1}")
    return Potential(
        kind="logarithmic",
        beta_hat=_log_beta_hat,
        beta=_log_beta,
        beta_prime=lambda s: 2.0 / (1.0 - np.asarray(s, dtype=float) ** 2),
        pi_hat=lambda s: -c1 * np.asarray(s, dtype=float) ** 2,
        pi=lambda s: -2.0 * c1 * np.asarray(s, dtype=float),
        gamma=2.0 * c1,
        domain=(-1.0, 1.0),
    )


def double_obstacle_potential(c2: float) -> Potential:
    """Indicator of [-1, 1] plus the concave quadratic -c2 s^2."""
    if c2 <= 0.0:
        raise ValueError(f"obstacle potential requires c2 > 0, got {c2}")

    def beta_hat(s):
        s = np.asarray(s, dtype=float)
        return np.where(np.abs(s) <= 1.0 + OBSTACLE_SLACK, 0.0, np.inf)

    def beta_min(s):
        s = np.asarray(s, dtype=float)
        return np.where(np.abs(s) <= 1.0 + OBSTACLE_SLACK, 0.0, np.nan)

    return Potential(
        kind="double_obstacle",
        beta_hat=beta_hat,
        beta=beta_min,
        beta_prime=None,
        pi_hat=lambda s: -c2 * np.asarray(s, dtype=float) ** 2,
        pi=lambda s: -2.0 * c2 * np.asarray(s, dtype=float),
        gamma=2.0 * c2,
        domain=(-1.0, 1.0),
        resolvent_closed_form=lambda eps, s: np.clip(s, -1.0, 1.0),
    )


def zero_potential() -> Potential:
    """beta_hat = 0, pi = 0: reduces the phase equation to a linear flow."""
    zero = lambda s: np.zeros_like(np.asarray(s, dtype=float))
    return Potential(
        kind="custom",
        beta_hat=zero,
        beta=zero,
        beta_prime=zero,
        pi_hat=zero,
        pi=zero,
        gamma=0.0,
        domain=(-np.inf, np.inf),
        resolvent_closed_form=lambda eps, s: np.asarray(s, dtype=float).copy(),
    )


def custom_potential(beta_hat, beta, *, beta_prime=None, pi_hat=None, pi=None,
                     gamma: Optional[float] = None,
                     domain=(-np.inf, np.inf), validate: bool = True) -> Potential:
    """User-supplied split; beta_hat/beta must be vectorized over arrays.

    Validation samples the interior of the domain: midpoint convexity of
    beta_hat, beta_hat(0) = 0, monotonicity of beta, and, when gamma is given,
    the declared slope pi(s) = -gamma*s that the energy ledger and the
    relaxation-limit solver rely on.
    """
    zero = lambda s: np.zeros_like(np.asarray(s, dtype=float))
    pot = Potential(
        kind="custom",
        beta_hat=beta_hat,
        beta=beta,
        beta_prime=beta_prime,
        pi_hat=pi_hat if pi_hat is not None else zero,
        pi=pi if pi is not None else zero,
        gamma=gamma,
        domain=(float(domain[0]), float(domain[1])),
    )
    if validate:
        lo = max(pot.domain[0], -10.0) + 1e-6
        hi = min(pot.domain[1], 10.0) - 1e-6
        s = np.linspace(lo, hi, 201)
        bh = np.asarray(beta_hat(s), dtype=float)
        if abs(float(np.asarray(beta_hat(np.array([0.0])))[0])) > 1e-12:
            raise ValueError("custom potential must satisfy beta_hat(0) = 0")
        if np.any(bh < -1e-12):
            raise ValueError("custom beta_hat must be nonnegative")
        mid = 0.5 * (bh[:-1] + bh[1:])
        bh_mid = np.asarray(beta_hat(0.5 * (s[:-1] + s[1:])), dtype=float)
        if np.any(bh_mid > mid + 1e-9 * (1.0 + np.abs(mid))):
            raise ValueError("custom beta_hat fails midpoint convexity sampling")
        b = np.asarray(beta(s), dtype=float)
        if np.any(np.diff(b) < -1e-9):
            raise ValueError("custom beta must be monotone nondecreasing")
        if gamma is not None:
            p = np.asarray(pot.pi(s), dtype=float)
            if not np.all(np.abs(p + gamma * s) <= 1e-12 * (1.0 + np.abs(gamma * s))):
                raise ValueError(f"custom pi does not match the declared slope "
                                 f"pi(s) = -gamma*s with gamma={gamma}")
    return pot


def by_name(kind: str, *, c1: float | None = None, c2: float | None = None,
            gamma: float | None = None) -> Potential:
    """Construct one of the shipped potentials from configuration fields."""
    if kind == "regular":
        return regular_potential(1.0 if gamma is None else gamma)
    if kind == "logarithmic":
        if c1 is None:
            raise ValueError("logarithmic potential needs c1")
        return logarithmic_potential(c1)
    if kind == "double_obstacle":
        if c2 is None:
            raise ValueError("double_obstacle potential needs c2")
        return double_obstacle_potential(c2)
    if kind == "none":
        return zero_potential()
    raise ValueError(f"unknown potential kind {kind!r}")


def _newton_bracket(pot: Potential, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Guaranteed bracket for x + eps*beta(x) = s.

    The root lies between 0 and s (beta is monotone with 0 in beta(0)), so the
    wide bracket [min(s,0)-|s|-1, max(s,0)+|s|+1] always contains it; bounded
    domains shrink it to representable interior points.
    """
    lo = np.minimum(s, 0.0) - np.abs(s) - 1.0
    hi = np.maximum(s, 0.0) + np.abs(s) + 1.0
    dlo, dhi = pot.domain
    if np.isfinite(dlo):
        lo = np.maximum(lo, np.nextafter(dlo, dhi))
    if np.isfinite(dhi):
        hi = np.minimum(hi, np.nextafter(dhi, dlo))
    return lo, hi


def resolvent(pot: Potential, eps: float, s) -> np.ndarray | float:
    """J_eps(s): the unique solution of x + eps*beta(x) = s.

    A closed form is used when the potential declares one (the cubic root for
    the regular split, the projection onto [-1, 1] for the obstacle);
    otherwise a Newton iteration with bracketed bisection fallback drives the
    residual to the representable floor.  Every single-valued solution passes
    the same residual sanity check.
    """
    if eps <= 0.0:
        raise ValueError(f"resolvent level eps must be positive, got {eps}")
    s_arr = np.atleast_1d(np.asarray(s, dtype=float))
    if not np.isfinite(s_arr).all():
        raise ValueError("resolvent input must be finite")
    if pot.resolvent_closed_form is None:
        x, residual = _newton_resolvent(pot, eps, s_arr)
    else:
        x = pot.resolvent_closed_form(eps, s_arr)
        # the obstacle projection is exact and its beta is multivalued
        residual = None if pot.multivalued else \
            np.abs(x + eps * np.asarray(pot.beta(x), dtype=float) - s_arr)
    # the bound is at least 1e-6 everywhere, so most calls stop at the max
    if residual is not None and not residual.max(initial=0.0) <= 1e-6:
        sanity = 1e-6 * (1.0 + np.abs(s_arr))
        if not (residual <= sanity).all():
            excess = np.where(np.isfinite(residual), residual - sanity, np.inf)
            worst = int(np.argmax(excess))
            raise ResolventError(
                f"resolvent failed for kind={pot.kind}, eps={eps}: residual "
                f"{residual.flat[worst]:.3e} at s={s_arr.flat[worst]!r}"
            )
    return x if np.ndim(s) else float(x[0])


def _newton_resolvent(pot: Potential, eps: float,
                      s_arr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Safeguarded Newton with bisection fallback; returns (x, |residual|)."""
    lo, hi = _newton_bracket(pot, s_arr)
    x = np.clip(s_arr, lo, hi)
    best_x = x.copy()
    best_f = np.abs(x + eps * np.asarray(pot.beta(x), dtype=float) - s_arr)

    def residual(v):
        return v + eps * np.asarray(pot.beta(v), dtype=float) - s_arr

    f = residual(x)
    for _ in range(NEWTON_MAX_ITERS):
        improved = np.abs(f) < best_f
        best_x[improved] = x[improved]
        best_f[improved] = np.abs(f[improved])
        active = best_f > NEWTON_TOL
        if not np.any(active):
            break
        # keep the sign-based bracket current (residual is increasing in x)
        hi = np.where(f > 0.0, np.minimum(hi, x), hi)
        lo = np.where(f < 0.0, np.maximum(lo, x), lo)
        if pot.beta_prime is not None:
            fp = 1.0 + eps * np.asarray(pot.beta_prime(x), dtype=float)
            step = np.where(fp > 0.0, f / np.where(fp > 0.0, fp, 1.0), 0.0)
            cand = x - step
        else:
            cand = 0.5 * (lo + hi)
        bad = ~np.isfinite(cand) | (cand <= lo) | (cand >= hi)
        cand = np.where(bad, 0.5 * (lo + hi), cand)
        x = np.where(active, cand, x)
        f = residual(x)

    active = best_f > NEWTON_TOL
    for _ in range(BISECTION_MAX_ITERS):
        if not np.any(active) or not np.any(hi[active] > lo[active]):
            break
        mid = 0.5 * (lo + hi)
        collapsed = (mid <= lo) | (mid >= hi)
        fm = residual(mid)
        improved = active & (np.abs(fm) < best_f)
        best_x[improved] = mid[improved]
        best_f[improved] = np.abs(fm[improved])
        hi = np.where(active & (fm > 0.0), mid, hi)
        lo = np.where(active & (fm <= 0.0), mid, lo)
        active = active & ~collapsed & (best_f > NEWTON_TOL)
    return best_x, best_f


def yosida(pot: Potential, eps: float, s) -> np.ndarray | float:
    """beta_eps(s) = (s - J_eps(s)) / eps: monotone and 1/eps-Lipschitz."""
    j = resolvent(pot, eps, s)
    return (np.asarray(s, dtype=float) - j) / eps if np.ndim(s) else (float(s) - j) / eps


def moreau(pot: Potential, eps: float, s) -> np.ndarray | float:
    """Moreau envelope beta_hat_eps(s) = |s - J_eps(s)|^2/(2 eps) + beta_hat(J_eps(s))."""
    s_arr = np.atleast_1d(np.asarray(s, dtype=float))
    j = np.atleast_1d(resolvent(pot, eps, s_arr))
    val = (s_arr - j) ** 2 / (2.0 * eps) + np.asarray(pot.beta_hat(j), dtype=float)
    return val if np.ndim(s) else float(val[0])


def prox_step(pot: Potential, eps: float, lam: float, s) -> np.ndarray | float:
    """Resolvent at level lam of the effective graph used by the stepper.

    eps = 0 treats beta itself (the unregularized graph); eps > 0 treats the
    Yosida map beta_eps through the resolvent identity
    (I + lam*beta_eps)^{-1} = (eps*I + lam*J_{lam+eps}) / (lam + eps).
    """
    if lam <= 0.0:
        raise ValueError(f"prox step size must be positive, got {lam}")
    if eps == 0.0:
        return resolvent(pot, lam, s)
    s_arr = np.asarray(s, dtype=float)
    return (eps * s_arr + lam * resolvent(pot, lam + eps, s_arr)) / (lam + eps)


def potential_energy_density(pot: Potential, eps: float, s) -> np.ndarray:
    """beta_hat_eps pointwise for eps > 0, beta_hat itself at eps = 0."""
    if eps > 0.0:
        return np.atleast_1d(moreau(pot, eps, s))
    return np.asarray(pot.beta_hat(np.asarray(s, dtype=float)), dtype=float)


@dataclass(frozen=True)
class CoercivityReport:
    """Outcome of the quadratic-lower-bound scan for beta_hat_eps + pi_hat."""

    alpha: float
    offset: float
    ok: bool
    worst_s: float
    sample_range: tuple[float, float]
    eps_list: tuple[float, ...]


def coercivity_probe(pot: Potential, eps_list, sample_range=(-3.0, 3.0),
                     n_samples: int = 1201, n_alpha: int = 80) -> CoercivityReport:
    """Largest alpha (grid-searched) with beta_hat_eps + pi_hat >= alpha*s^2 - C.

    The scan accepts an alpha only when the worst deficit sits strictly inside
    the sampled range; a deficit growing at the edge means the quadratic is
    outrunning the envelope and the bound would fail beyond the sample window.
    """
    eps_list = tuple(float(e) for e in eps_list)
    s = np.linspace(sample_range[0], sample_range[1], n_samples)
    envelope = np.full(s.shape, np.inf)
    for eps in eps_list:
        envelope = np.minimum(envelope, np.atleast_1d(moreau(pot, eps, s))
                              + np.asarray(pot.pi_hat(s), dtype=float))
    scale = max(1.0, float(np.max(np.abs(envelope))))
    alphas = np.geomspace(scale / max(np.max(s**2), 1.0) * 10.0, 1e-4, n_alpha)
    edge = max(2, n_samples // 50)
    for alpha in alphas:
        deficit = alpha * s**2 - envelope
        k = int(np.argmax(deficit))
        if edge <= k < n_samples - edge:
            c = float(max(0.0, deficit[k]))
            return CoercivityReport(alpha=float(alpha), offset=c, ok=True,
                                    worst_s=float(s[k]), sample_range=tuple(sample_range),
                                    eps_list=eps_list)
    return CoercivityReport(alpha=0.0, offset=0.0, ok=False, worst_s=float("nan"),
                            sample_range=tuple(sample_range), eps_list=eps_list)
