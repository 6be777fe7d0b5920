"""Numerical experiments: convergence, continuous dependence, long-time
behavior, and the sigma -> 0 relaxation limit.

These drivers turn the qualitative statements about the continuous system
into measurements at desk scale.  Each takes assembled systems and, except
the relaxation study, their finished runs, and returns numbers; the caller
sets the thresholds and decides pass or fail.  Weak-convergence statements
are probed through strong norms.  On a fixed Galerkin space the linear case
of the sigma -> 0 limit is first order in sigma, which a test pins.
`limit_system` plus `timestepper.integrate` with the proximal scheme is the
direct solver of the sigma -> 0 limit system.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .galerkin import DiscreteSystem, guard, prepare_force, project_data, stack_systems
from .spectral import SpectralBasis, analyze, cross_gram, graph_norms, \
    kernel_projection
from .timestepper import RunOutput, SchemeConfig, integrate


def running_time_integral(times: np.ndarray, series: np.ndarray) -> np.ndarray:
    """(1*v)(t_k): cumulative trapezoid of a (K,) or (K, n) series."""
    times = np.asarray(times, dtype=float)
    series = np.asarray(series, dtype=float)
    out = np.zeros_like(series)
    dt = np.diff(times).reshape((-1,) + (1,) * (series.ndim - 1))
    out[1:] = np.cumsum(0.5 * dt * (series[1:] + series[:-1]), axis=0)
    return out


def _l2_time_norm(times: np.ndarray, values: np.ndarray) -> float:
    """sqrt of the trapezoid integral of values(t)^2."""
    return float(np.sqrt(np.trapezoid(np.asarray(values) ** 2, np.asarray(times))))


def _coeff_norms(series: np.ndarray) -> np.ndarray:
    return np.linalg.norm(series, axis=1)


# ---------------------------------------------------------------------------
# continuous dependence


@dataclass
class ContdepReport:
    lhs: float
    rhs: float
    ratio: float  # NaN when RHS vanishes against LHS


def contdep_report(sys1: DiscreteSystem, run1: RunOutput,
                   sys2: DiscreteSystem, run2: RunOutput) -> ContdepReport:
    """Empirical stability quotient of the two-run difference.

    LHS collects |theta1-theta2| in L2(H), the running time integral of the
    difference in Linf of the A graph norm, and |phi1-phi2| in
    Linf(H) + L2(B graph norm); RHS collects the data differences with the
    source entering through its running time integral.  The ratio LHS/RHS is
    reported, never asserted against a theoretical constant; it is NaN when
    RHS vanishes against LHS, so no check on it passes.
    """
    if run1.times.shape != run2.times.shape or not np.allclose(run1.times, run2.times):
        raise ValueError("contdep runs must share snapshot times")
    times = run1.times

    dtheta = run1.theta_series - run2.theta_series
    norms = difference_norms(times, dtheta, run1.phi_series - run2.phi_series,
                             sys1.theta_stiff, sys1.phi_stiff)
    int_theta = float(np.max(graph_norms(running_time_integral(times, dtheta),
                                         sys1.theta_stiff)))
    lhs = norms["theta_l2_h"] + int_theta + norms["phi_linf_h"] + norms["phi_l2_v"]

    g1 = np.array([sys1.source_at(t) for t in times])
    g2 = np.array([sys2.source_at(t) for t in times])
    int_df = running_time_integral(times, g1 - g2)
    theta0_1, phi0_1 = project_data(sys1)
    theta0_2, phi0_2 = project_data(sys2)
    rhs = (_l2_time_norm(times, _coeff_norms(int_df))
           + float(np.linalg.norm(theta0_1 - theta0_2))
           + float(np.linalg.norm(phi0_1 - phi0_2)))
    return ContdepReport(lhs=lhs, rhs=rhs,
                         ratio=lhs / rhs if rhs > 1e-14 * (1.0 + lhs) else np.nan)


# ---------------------------------------------------------------------------
# convergence studies


def reexpress(coeff_series: np.ndarray, src: SpectralBasis,
              dst: SpectralBasis) -> np.ndarray:
    """Re-express a coefficient trajectory in another basis on the same domain.

    The transfer is the exact L2 projection onto the destination modes (the
    closed-form inter-basis Gram matrix), so nested spaces map exactly.
    """
    if src is dst:
        return coeff_series
    return coeff_series @ cross_gram(src, dst)


def _align_indices(coarse_times: np.ndarray, fine_times: np.ndarray) -> np.ndarray:
    idx = np.searchsorted(fine_times, coarse_times - 1e-12)
    if np.any(idx >= fine_times.size) or np.any(
        np.abs(fine_times[np.minimum(idx, fine_times.size - 1)] - coarse_times) > 1e-9
    ):
        raise ValueError("snapshot times of the runs do not align")
    return idx


def difference_norms(times: np.ndarray, dtheta: np.ndarray, dphi: np.ndarray,
                     theta_stiff: np.ndarray, phi_stiff: np.ndarray) -> dict[str, float]:
    return {
        "theta_linf_h": float(np.max(_coeff_norms(dtheta))),
        "theta_l2_h": _l2_time_norm(times, _coeff_norms(dtheta)),
        "theta_l2_v": _l2_time_norm(times, graph_norms(dtheta, theta_stiff)),
        "phi_linf_h": float(np.max(_coeff_norms(dphi))),
        "phi_l2_h": _l2_time_norm(times, _coeff_norms(dphi)),
        "phi_l2_v": _l2_time_norm(times, graph_norms(dphi, phi_stiff)),
    }


def convergence_study(pairs: Sequence[tuple[DiscreteSystem, RunOutput]]
                      ) -> dict[str, list[float]]:
    """Error columns of a refinement study over (system, run) pairs.

    Every level is compared against the last (finest) pair, re-expressed in
    its bases, so the last entry of each difference_norms column is zero;
    "cauchy_phi_linf_h" holds the differences between adjacent levels (one
    entry fewer), because the underlying theory guarantees convergence
    without rates.
    """
    ref_sys, ref_run = pairs[-1]
    levels = []
    for sysk, runk in pairs:
        idx = _align_indices(runk.times, ref_run.times)
        theta_k = reexpress(runk.theta_series, sysk.basis_a, ref_sys.basis_a)
        phi_k = reexpress(runk.phi_series, sysk.basis_b, ref_sys.basis_b)
        levels.append(difference_norms(
            runk.times, theta_k - ref_run.theta_series[idx],
            phi_k - ref_run.phi_series[idx], ref_sys.theta_stiff, ref_sys.phi_stiff))
    errors = {name: [level[name] for level in levels] for name in levels[0]}

    errors["cauchy_phi_linf_h"] = []
    for (sys_a, run_a), (sys_b, run_b) in zip(pairs, pairs[1:]):
        idx = _align_indices(run_a.times, run_b.times)
        phi_a = reexpress(run_a.phi_series, sys_a.basis_b, sys_b.basis_b)
        diff = _coeff_norms(phi_a - run_b.phi_series[idx])
        errors["cauchy_phi_linf_h"].append(float(np.max(diff)))
    return errors


# ---------------------------------------------------------------------------
# long-time behavior


@dataclass
class OmegaReport:
    tail_sup_ar_theta: float
    tail_sup_dtphi: float
    stationary_residual: float
    final_theta_norm: float
    final_nonkernel_theta: float


def omega_limit_probe(system: DiscreteSystem, run: RunOutput,
                      tail_fraction: float = 0.1) -> OmegaReport:
    """Probe the trajectory tail for convergence to a stationary state.

    Measures the sup of |A^r theta| and |d_t phi| along the last
    tail_fraction of the run, the residual of the discrete stationary phase
    equation at the final state, and the part of the final temperature off
    ker A (it vanishes when the kernel is trivial).  A proximal run, stacked
    or not, supplies the convex part of that equation with its final
    multiplier; any other takes beta_eps explicitly.
    """
    k0 = int(np.floor((1.0 - tail_fraction) * (run.times.size - 1)))
    ar_theta = np.sqrt(np.sum(system.theta_stiff * run.theta_series**2, axis=1))
    tail_ar = ar_theta[k0:]
    tail_dtphi = run.dtphi_norm[k0:]

    theta_f = run.theta_series[-1]
    phi_f = run.phi_series[-1]
    prox = run.xi_final is not None
    fphi, _, collocated = prepare_force(system, explicit_beta=not prox)[0](theta_f, phi_f)
    if collocated is not None:
        guard(collocated, "nonlinearity")
    if prox:
        fphi = fphi + analyze(system.basis_b, run.xi_final)
    stationary = float(np.linalg.norm(system.phi_stiff * phi_f + fphi))
    nonkernel = float(np.linalg.norm(theta_f - kernel_projection(system.basis_a, theta_f)))
    return OmegaReport(
        tail_sup_ar_theta=float(np.max(tail_ar)),
        tail_sup_dtphi=float(np.max(tail_dtphi)),
        stationary_residual=stationary,
        final_theta_norm=float(np.linalg.norm(theta_f)),
        final_nonkernel_theta=nonkernel,
    )


# ---------------------------------------------------------------------------
# sigma -> 0 relaxation limit


def limit_system(system: DiscreteSystem) -> DiscreteSystem:
    """The sigma -> 0 limit of `system`: B^(2 sigma) replaced by the
    kernel-complement mask I - P, at eps = 0.

    The limit requires a constant coupling.  Marched by `integrate` with the
    implicit_prox scheme it is the direct limit solver: the convex part runs
    through the exact (eps = 0) resolvent, so obstacle constraints hold
    without regularization.
    """
    if system.coupling.kind != "constant":
        raise ValueError("the relaxation limit requires a constant coupling")
    mask = (system.basis_b.eigenvalues > 0.0).astype(float)
    return replace(system, sigma=0.0, eps=0.0, phi_stiff=mask)


@dataclass
class RelaxReport:
    sigmas: list[float]
    phi_errors: list[float]
    theta_errors: list[float]
    monotone: bool | None  # None for a one-sigma ladder, which has no pair
    # (system, run) of the limit, then of each ladder row
    marched: list[tuple[DiscreteSystem, RunOutput]]


def relaxation_limit_study(ladder: Sequence[DiscreteSystem], dt: float,
                           t_final: float, snapshot_stride: int = 1
                           ) -> RelaxReport:
    """L2(Q) distances between fractional runs and the limit run, per sigma.

    `ladder` holds the assembled systems of a decreasing sigma ladder that
    `stack_systems` accepts; the limit is `limit_system` of its first row.
    Everything marches with the implicit_prox scheme at step dt: the ladder
    as one stacked system, which the limit run joins when the ladder's eps
    is 0 and which it runs beside otherwise.  The report holds the
    distances and, in `marched`, every (system, run) pair, the limit first,
    for the checks a caller runs on the runs.  On a fixed Galerkin space the
    linear case (beta = pi = 0, constant coupling) is first order in sigma,
    mu^(2 sigma) - 1 being 2 sigma log(mu) + O(sigma^2) per mode, which a test
    pins; `monotone` reports whether both error columns decrease strictly down
    the ladder (None for a ladder of one sigma).
    """
    limit = limit_system(ladder[0])
    sigmas = [float(row.sigma) for row in ladder]
    if sigmas != sorted(sigmas, reverse=True):
        raise ValueError("sigma ladder must be decreasing")
    scheme = SchemeConfig("implicit_prox", dt=dt)
    if ladder[0].eps == 0.0:
        limit_traj, *runs = integrate(stack_systems([limit, *ladder]), scheme,
                                      t_final, snapshot_stride).rows()
    else:
        limit_traj = integrate(limit, scheme, t_final, snapshot_stride)
        runs = integrate(stack_systems(ladder), scheme, t_final, snapshot_stride).rows()
    phi_errs, theta_errs = [], []
    for run in runs:
        idx = _align_indices(run.times, limit_traj.times)
        dphi = run.phi_series - limit_traj.phi_series[idx]
        dtheta = run.theta_series - limit_traj.theta_series[idx]
        phi_errs.append(_l2_time_norm(run.times, _coeff_norms(dphi)))
        theta_errs.append(_l2_time_norm(run.times, _coeff_norms(dtheta)))
    monotone = None if len(runs) < 2 else \
        bool(np.all(np.diff(phi_errs) < 0.0) and np.all(np.diff(theta_errs) < 0.0))
    return RelaxReport(sigmas=sigmas, phi_errors=phi_errs, theta_errors=theta_errs,
                       monotone=monotone,
                       marched=[(limit, limit_traj), *zip(ladder, runs)])
