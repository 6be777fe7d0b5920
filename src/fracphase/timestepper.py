"""Time integration of the Galerkin system with an energy ledger.

Two schemes ship: a semi-implicit Euler step (linear stiff parts implicit,
nonlinearity explicit) and a proximal variant that treats the convex part of
the potential through its resolvent on the grid, which is what the obstacle
potential and the sigma -> 0 limit system need.

The ledger mirrors the first a-priori energy identity of the continuous
problem: at the semi-discrete level the identity is exact, so the recorded
balance residual measures pure time-discretization error and must shrink
first order in dt.

A stacked system (`galerkin.stack_systems`) marches B trajectories as one
(B, n) state; steps, ledger and snapshots work over the trailing axis, so a
single run keeps its 1-D arrays and arithmetic.  `integrate` always starts
from the system's projected data and returns only what it recorded.
"""
from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Optional

import numpy as np

from .galerkin import DiscreteSystem, NonlinearTerms, OverflowGuardError, \
    apply_coupling, eval_nonlinearity, guard, project_data
from .potentials import potential_energy_density, prox_step
from .spectral import analyze, synthesize

SCHEMES = ("imex_euler", "implicit_prox")


class BlowupError(RuntimeError):
    """State exceeded the overflow guard; `integrate` attaches as `partial`
    the output it would have returned, up to the last completed snapshot
    (for a stacked run the batched output, which `partial.rows()` splits)."""

    def __init__(self, message: str, partial: "RunOutput | None" = None):
        super().__init__(message)
        self.partial = partial


@dataclass
class State:
    t: float
    theta: np.ndarray
    phi: np.ndarray


@dataclass(frozen=True)
class SchemeConfig:
    scheme: str = "imex_euler"
    dt: float = 1e-3

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}; expected one of {SCHEMES}")
        if self.dt <= 0.0:
            raise ValueError(f"dt must be positive, got {self.dt}")


@dataclass
class LedgerSeries:
    """Per-snapshot terms of the discrete energy identity.

    lhs = kinetic + both dissipation integrals + phase graph energy + the
    convex-potential integral; rhs = lhs(0) + the two work integrals.
    """

    half_theta_sq: np.ndarray
    diss_theta: np.ndarray
    diss_phi: np.ndarray
    half_phi_graph_sq: np.ndarray
    potential_integral: np.ndarray
    work_source: np.ndarray
    work_phi: np.ndarray
    lhs: np.ndarray
    rhs: np.ndarray
    residual: np.ndarray


@dataclass
class RunOutput:
    """Snapshot times, trajectory, norm series and energy ledger of one run.

    Of a stacked run every array but `times` carries a row axis after the
    snapshot axis; `rows()` splits it into one output per trajectory.  Only
    an unstacked proximal run records the grid series (None otherwise).
    """

    times: np.ndarray
    theta_series: np.ndarray      # (K, n_a)
    phi_series: np.ndarray        # (K, n_b)
    norm_theta: np.ndarray
    graph_theta: np.ndarray
    norm_phi: np.ndarray
    graph_phi: np.ndarray
    dtphi_norm: np.ndarray
    ledger: LedgerSeries
    xi_series: Optional[np.ndarray] = None        # (K, m) prox multiplier samples
    phi_grid_series: Optional[np.ndarray] = None  # (K, m) prox grid iterates

    def rows(self) -> list["RunOutput"]:
        """One single-trajectory output per row ([self] for a single run)."""
        if self.theta_series.ndim == 2:
            return [self]

        def pick(obj, b):
            return {f.name: getattr(obj, f.name)[:, b] for f in fields(obj)
                    if np.ndim(getattr(obj, f.name)) > 1}

        return [replace(self, **pick(self, b),
                        ledger=replace(self.ledger, **pick(self.ledger, b)))
                for b in range(self.theta_series.shape[1])]


@dataclass
class StepResult:
    """One step: the new state plus what the step computed on the way.

    terms are the explicit nonlinear terms at the start state and source is
    the sample g(t+dt) the step applied; the energy ledger reuses both.  The
    proximal step also reports its multiplier and grid state.
    """

    state: State
    terms: NonlinearTerms
    source: np.ndarray
    xi_grid: Optional[np.ndarray] = None
    phi_grid: Optional[np.ndarray] = None


def step_imex(system: DiscreteSystem, state: State, dt: float) -> StepResult:
    """One semi-implicit Euler step.

    Phi+ = (I + dt M)^(-1) (Phi - dt F(Theta, Phi)), then
    Theta+ = (I + dt Lambda)^(-1) (Theta - E (Phi+ - Phi) + dt g(t+dt)).
    """
    t_new = state.t + dt
    terms = eval_nonlinearity(system, state.theta, state.phi, t=state.t)
    phi_new = guard((state.phi - dt * terms.fphi) / (1.0 + dt * system.phi_stiff),
                    "phi coefficients", t_new)
    coupled = apply_coupling(system, terms.phi_grid, phi_new - state.phi)
    g = system.source_at(t_new)
    theta_new = guard((state.theta - coupled + dt * g) / (1.0 + dt * system.theta_stiff),
                      "theta coefficients", t_new)
    return StepResult(State(t_new, theta_new, phi_new), terms, g)


def step_implicit_prox(system: DiscreteSystem, state: State, dt: float) -> StepResult:
    """One proximal step; the result carries xi_grid and phi_grid.

    The smooth explicit terms are frozen at the current state exactly as in
    the semi-implicit step; the stiff diagonal is then solved implicitly and
    the convex part applied backward on the grid through the resolvent of
    (beta_eps or, at eps = 0, beta itself) at level dt:

        intermediate = synth((Phi - dt*explicit) / (1 + dt*M)),
        phi_grid+    = J_dt(intermediate),
        xi_grid      = (intermediate - phi_grid+) / dt   in beta(phi_grid+).

    The multiplier relation holds pointwise and exactly, so an obstacle bound
    is satisfied at every node by construction, and with beta = 0 the step
    reduces to the semi-implicit one identically.
    """
    pot, eps = system.potential, system.eps
    t_new = state.t + dt
    terms = eval_nonlinearity(system, state.theta, state.phi, include_beta=False,
                              t=state.t)
    phi_mid = (state.phi - dt * terms.fphi) / (1.0 + dt * system.phi_stiff)
    intermediate = guard(synthesize(system.basis_b, phi_mid), "phase grid", t_new)
    phi_grid = np.asarray(prox_step(pot, eps, dt, intermediate))
    xi_grid = (intermediate - phi_grid) / dt
    phi_next = guard(analyze(system.basis_b, phi_grid), "phi coefficients", t_new)
    coupled = apply_coupling(system, terms.phi_grid, phi_next - state.phi)
    g = system.source_at(t_new)
    theta_next = guard((state.theta - coupled + dt * g) / (1.0 + dt * system.theta_stiff),
                       "theta coefficients", t_new)
    return StepResult(State(t_new, theta_next, phi_next), terms, g, xi_grid, phi_grid)


class _LedgerAccumulator:
    """Step-by-step accumulation of the energy identity terms.

    Dissipation and work integrals use the left-endpoint rule with forward
    difference quotients, which matches the Euler consistency order; the
    source work uses the implicit sample g(t+dt) that the scheme applies.
    Every grid quantity comes from the step's own terms, so the ledger does
    no transform of its own (one analysis when pi has no declared slope).
    The accumulators are scalars, or one entry per row of a stacked system.
    """

    def __init__(self, system: DiscreteSystem):
        self.system = system
        self.diss_theta = 0.0
        self.diss_phi = 0.0
        self.work_source = 0.0
        self.work_phi = 0.0

    def accumulate(self, state: State, step: StepResult, dt: float) -> np.ndarray:
        """Add one step's terms; returns |dphi|^2, which the caller reuses."""
        sysm = self.system
        new_state = step.state
        dphi = new_state.phi - state.phi
        dphi_sq = np.vecdot(dphi, dphi)
        self.diss_theta += dt * np.vecdot(sysm.theta_stiff * state.theta, state.theta)
        self.diss_phi += dphi_sq / dt
        self.work_source += dt * np.vecdot(step.source, new_state.theta)
        gamma = sysm.potential.gamma
        if gamma is not None:
            # pi(v) = -gamma*v, so its projection is -gamma*phi exactly
            pi_proj = -gamma * state.phi
        else:
            pi_proj = analyze(sysm.basis_b, step.terms.pi_grid)
        self.work_phi += np.vecdot(state.phi - pi_proj, dphi)
        return dphi_sq


def _potential_integral(system: DiscreteSystem, phi: np.ndarray,
                        phi_grid: np.ndarray | None) -> np.ndarray:
    grid = phi_grid if phi_grid is not None else synthesize(system.basis_b, phi)
    density = potential_energy_density(system.potential, system.eps, grid)
    return np.vecdot(system.basis_b.quad_weights, density)


_COLUMNS = ("t", "norm_theta", "graph_theta", "norm_phi", "graph_phi", "dtphi",
            "half_theta_sq", "diss_theta", "diss_phi", "half_phi_graph_sq",
            "potential_integral", "work_source", "work_phi")


class _Snapshots:
    """Per-snapshot columns preallocated for a whole run; `count` rows are
    filled, each with one entry per row of a stacked system.  An unstacked
    proximal run also records its multiplier and grid iterates."""

    def __init__(self, system: DiscreteSystem, n_rows: int, prox: bool):
        self.system = system
        self.count = 0
        shape = (n_rows,) + system.phi_stiff.shape[:-1]
        self.cols = {name: np.empty(shape) for name in _COLUMNS}
        self.cols["t"] = np.empty(n_rows)
        self.theta = np.empty(shape + (system.n_a,))
        self.phi = np.empty(shape + (system.n_b,))
        grids = prox and system.phi_stiff.ndim == 1
        self.xi = np.empty((n_rows, system.basis_b.n_grid)) if grids else None
        self.phi_grid = np.empty((n_rows, system.basis_b.n_grid)) if grids else None

    def record(self, state: State, dtphi, ledger: _LedgerAccumulator,
               xi: np.ndarray | None, phi_grid: np.ndarray | None) -> None:
        system, k, c = self.system, self.count, self.cols
        theta, phi = state.theta, state.phi
        theta_sq = np.vecdot(theta, theta)
        ar_theta_sq = np.vecdot(system.theta_stiff * theta, theta)  # |A^r theta|^2
        phi_sq = np.vecdot(phi, phi)
        half_graph_phi = 0.5 * (phi_sq + np.vecdot(system.phi_stiff * phi, phi))
        c["t"][k] = state.t
        c["norm_theta"][k] = np.sqrt(theta_sq)
        c["graph_theta"][k] = np.sqrt(theta_sq + ar_theta_sq)
        c["norm_phi"][k] = np.sqrt(phi_sq)
        c["graph_phi"][k] = np.sqrt(2.0 * half_graph_phi)
        c["dtphi"][k] = dtphi
        c["half_theta_sq"][k] = 0.5 * theta_sq
        c["diss_theta"][k] = ledger.diss_theta
        c["diss_phi"][k] = ledger.diss_phi
        c["half_phi_graph_sq"][k] = half_graph_phi
        c["potential_integral"][k] = _potential_integral(system, phi, phi_grid)
        c["work_source"][k] = ledger.work_source
        c["work_phi"][k] = ledger.work_phi
        self.theta[k] = theta
        self.phi[k] = phi
        if self.xi is not None:
            # a proximal run hands every record its grid iterate
            self.xi[k] = 0.0 if xi is None else xi
            self.phi_grid[k] = phi_grid
        self.count += 1


def step_count(t_final: float, dt: float) -> int:
    """The number of dt steps that reach t_final; ValueError unless t_final
    is positive and a whole number of steps."""
    if t_final <= 0.0:
        raise ValueError(f"t_final must be positive, got {t_final}")
    n_steps = max(1, int(round(t_final / dt)))
    if abs(n_steps * dt - t_final) > 1e-9 * max(1.0, t_final):
        raise ValueError(
            f"t_final={t_final} is not an integer number of steps of dt={dt}"
        )
    return n_steps


def integrate(system: DiscreteSystem, scheme: SchemeConfig, t_final: float,
              snapshot_stride: int = 1) -> RunOutput:
    """March the system from its projected data to t_final, recording norms
    and the energy ledger.

    Snapshots land every `snapshot_stride` steps plus always at t = 0 and the
    final time.  A stacked system returns one output whose arrays carry its
    row axis (`RunOutput.rows` splits it).  On an overflow guard trip the
    output up to the last completed snapshot is attached to the raised
    BlowupError.
    """
    if snapshot_stride < 1:
        raise ValueError(f"snapshot_stride must be >= 1, got {snapshot_stride}")
    dt = scheme.dt
    n_steps = step_count(t_final, dt)
    if scheme.scheme == "imex_euler" and system.eps == 0.0 and system.potential.multivalued:
        raise ValueError("imex_euler cannot treat a multivalued potential at eps = 0; "
                         "use implicit_prox")

    theta0, phi0 = project_data(system)
    state = State(0.0, theta0, phi0)
    prox = scheme.scheme == "implicit_prox"
    step_fn = step_implicit_prox if prox else step_imex
    ledger = _LedgerAccumulator(system)
    n_rows = 1 + n_steps // snapshot_stride + (n_steps % snapshot_stride != 0)
    snaps = _Snapshots(system, n_rows, prox)

    # prox runs ledger the datum grid at t = 0: the modal projection of a
    # clamped field can overshoot the obstacle and blow up the indicator
    snaps.record(state, 0.0, ledger, None, system.phi0_grid if prox else None)
    try:
        for k in range(1, n_steps + 1):
            step = step_fn(system, state, dt)
            new_state = step.state
            new_state.t = k * dt  # avoid accumulated drift in snapshot times
            dtphi = np.sqrt(ledger.accumulate(state, step, dt)) / dt
            state = new_state
            if k % snapshot_stride == 0 or k == n_steps:
                snaps.record(state, dtphi, ledger, step.xi_grid, step.phi_grid)
    except OverflowGuardError as exc:
        raise BlowupError(str(exc), _finalize(snaps)) from None
    return _finalize(snaps)


def _finalize(snaps: _Snapshots) -> RunOutput:
    n = snaps.count

    def col(name):
        return snaps.cols[name][:n]

    lhs = (col("half_theta_sq") + col("diss_theta") + col("diss_phi")
           + col("half_phi_graph_sq") + col("potential_integral"))
    rhs = lhs[0] + col("work_source") + col("work_phi")
    ledger = LedgerSeries(
        half_theta_sq=col("half_theta_sq"),
        diss_theta=col("diss_theta"),
        diss_phi=col("diss_phi"),
        half_phi_graph_sq=col("half_phi_graph_sq"),
        potential_integral=col("potential_integral"),
        work_source=col("work_source"),
        work_phi=col("work_phi"),
        lhs=lhs,
        rhs=rhs,
        residual=np.abs(lhs - rhs),
    )
    return RunOutput(
        times=col("t"),
        theta_series=snaps.theta[:n],
        phi_series=snaps.phi[:n],
        norm_theta=col("norm_theta"),
        graph_theta=col("graph_theta"),
        norm_phi=col("norm_phi"),
        graph_phi=col("graph_phi"),
        dtphi_norm=col("dtphi"),
        ledger=ledger,
        xi_series=None if snaps.xi is None else snaps.xi[:n],
        phi_grid_series=None if snaps.phi_grid is None else snaps.phi_grid[:n],
    )
