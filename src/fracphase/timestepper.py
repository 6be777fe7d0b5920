"""Time integration of the Galerkin system with an energy ledger.

Both schemes are one implicit-explicit Euler step, `step_imex`, with the
linear stiff parts implicit: semi-implicit Euler (imex_euler) takes the
convex part of the potential explicitly, the proximal scheme (implicit_prox)
backward through its resolvent on the grid, which is what the obstacle
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

import math
from dataclasses import dataclass, fields, replace
from typing import Optional

import numpy as np

from .galerkin import DiscreteSystem, OverflowGuardError, ValidationError, \
    apply_coupling, eval_nonlinearity, guard, project_data
from .potentials import Potential, ResolventError, potential_energy_density, prox_step
from .spectral import analyze, graph_norms, synthesize

SCHEMES = ("imex_euler", "implicit_prox")


class BlowupError(RuntimeError):
    """A step failed (an overflow guard trip or a resolvent failure) in step
    `step`, the one that ends at simulated time `t`; `row` is the offending
    row of a stacked system (None otherwise).  `integrate` attaches as
    `partial` the output it would have returned, up to the last completed
    snapshot (for a stacked run the batched output, which `partial.rows()`
    splits)."""

    def __init__(self, message: str, partial: "RunOutput | None" = None, *,
                 step: int | None = None, t: float | None = None,
                 row: int | None = None):
        super().__init__(message)
        self.partial = partial
        self.step, self.t, self.row = step, t, row


def scheme_problem(potential: Potential, eps: float, scheme: str) -> str | None:
    """Why `scheme` cannot march `potential` at Yosida level `eps`, or None: a
    multivalued beta at eps = 0 has no value to take explicitly, so only the
    proximal scheme, which applies it through its resolvent, can march it."""
    if potential.multivalued and eps == 0 and scheme != "implicit_prox":
        return f"{potential.kind} at eps = 0 requires implicit_prox"
    return None


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

    source is the sample g(t+dt) the step applied and dphi the phase
    increment the coupling received; the energy ledger reuses both.  A
    proximal step also reports its multiplier and grid state.
    """

    state: State
    source: np.ndarray
    dphi: np.ndarray
    xi_grid: Optional[np.ndarray] = None
    phi_grid: Optional[np.ndarray] = None


def step_imex(system: DiscreteSystem, state: State, scheme: SchemeConfig,
              denominators: tuple[np.ndarray, np.ndarray]) -> StepResult:
    """One implicit-explicit Euler step of either scheme; `denominators` is
    `system.step_denominators(scheme.dt)`.

    Phi* = (Phi - dt F(Theta, Phi)) / (1 + dt M) with F frozen at the start
    state.  Under imex_euler F holds beta_eps and Phi+ = Phi*.  Under
    implicit_prox F leaves the convex part out, and the resolvent J_dt of
    beta_eps (beta itself at eps = 0) applies it backward on the grid:

        phi_grid+ = J_dt(synth(Phi*)),   Phi+ = P(phi_grid+),
        xi_grid   = (synth(Phi*) - phi_grid+) / dt   in beta(phi_grid+);

    the multiplier relation holds exactly at every node, so an obstacle
    bound holds by construction.  Both schemes then take
    Theta+ = (I + dt Lambda)^(-1) (Theta - E (Phi+ - Phi) + dt g(t+dt)).
    """
    dt, prox = scheme.dt, scheme.scheme == "implicit_prox"
    t_new = state.t + dt
    theta_denom, phi_denom = denominators
    fphi, start_grid = eval_nonlinearity(system, state.theta, state.phi,
                                         include_beta=not prox)
    phi_new = (state.phi - dt * fphi) / phi_denom
    xi_grid = phi_grid = None
    if prox:
        intermediate = guard(synthesize(system.basis_b, phi_new), "phase grid")
        phi_grid = prox_step(system.potential, system.eps, dt, intermediate)
        xi_grid = (intermediate - phi_grid) / dt
        phi_new = analyze(system.basis_b, phi_grid)
    phi_new = guard(phi_new, "phi coefficients")
    dphi = phi_new - state.phi
    coupled = apply_coupling(system, start_grid, dphi)
    g = system.source_at(t_new)
    # + dt*g stays for a zero source too: it turns a -0.0 of theta - coupled
    # into the +0.0 the recorded series hold
    theta_new = guard((state.theta - coupled + dt * g) / theta_denom, "theta coefficients")
    return StepResult(State(t_new, theta_new, phi_new), g, dphi, xi_grid, phi_grid)


# what a snapshot records besides the state; `_finalize` derives the norms
_COLUMNS = ("t", "dtphi", "diss_theta", "diss_phi", "potential_integral",
            "work_source", "work_phi")


class _LedgerAccumulator:
    """The energy identity terms, accumulated step by step, and the
    per-snapshot columns of a whole run.

    Dissipation and work integrals use the left-endpoint rule with forward
    difference quotients, which matches the Euler consistency order; the
    source work uses the implicit sample g(t+dt) that the scheme applies
    and stays exactly 0.0 without a source.  The increment and every modal or
    grid quantity come from the step, so the ledger does no transform of its
    own.  The sums are scalars, or one entry per row of a stacked system.

    The columns are preallocated for `n_rows` snapshots, `count` of them
    filled.  A record holds only what the march produced: the state,
    |d_t phi|, the sums and the potential integral.  An unstacked proximal
    run also records its multiplier and grid iterates.
    """

    def __init__(self, system: DiscreteSystem, n_rows: int, prox: bool):
        self.system = system
        self.diss_theta = 0.0
        self.diss_phi = 0.0
        self.work_source = 0.0
        self.work_phi = 0.0
        self.count = 0
        shape = (n_rows,) + system.phi_stiff.shape[:-1]
        self.cols = {name: np.empty(shape) for name in _COLUMNS}
        self.cols["t"] = np.empty(n_rows)
        self.theta = np.empty(shape + (system.n_a,))
        self.phi = np.empty(shape + (system.n_b,))
        grids = prox and system.phi_stiff.ndim == 1
        self.xi = np.empty((n_rows, system.basis_b.n_grid)) if grids else None
        self.phi_grid = np.empty((n_rows, system.basis_b.n_grid)) if grids else None

    def accumulate(self, state: State, step: StepResult, dt: float) -> np.ndarray:
        """Add one step's terms; returns |dphi|^2, which the caller reuses.
        phi - P(pi(phi)) is phi + gamma*phi, since pi(v) = -gamma*v."""
        sysm, dphi = self.system, step.dphi
        dphi_sq = np.vecdot(dphi, dphi)
        self.diss_theta += dt * np.vecdot(sysm.theta_stiff * state.theta, state.theta)
        self.diss_phi += dphi_sq / dt
        if sysm.source:
            self.work_source += dt * np.vecdot(step.source, step.state.theta)
        self.work_phi += np.vecdot(state.phi + sysm.potential.gamma * state.phi, dphi)
        return dphi_sq

    def record(self, state: State, dtphi, xi: np.ndarray | None,
               phi_grid: np.ndarray | None) -> None:
        """Write one snapshot: `state`, |d_t phi| and the sums so far."""
        k, c = self.count, self.cols
        c["t"][k] = state.t
        c["dtphi"][k] = dtphi
        c["diss_theta"][k] = self.diss_theta
        c["diss_phi"][k] = self.diss_phi
        c["potential_integral"][k] = _potential_integral(self.system, state.phi, phi_grid)
        c["work_source"][k] = self.work_source
        c["work_phi"][k] = self.work_phi
        self.theta[k] = state.theta
        self.phi[k] = state.phi
        if self.xi is not None:
            # a proximal run hands every record its grid iterate
            self.xi[k] = 0.0 if xi is None else xi
            self.phi_grid[k] = phi_grid
        self.count += 1


def _potential_integral(system: DiscreteSystem, phi: np.ndarray,
                        phi_grid: np.ndarray | None) -> np.ndarray:
    grid = phi_grid if phi_grid is not None else synthesize(system.basis_b, phi)
    density = potential_energy_density(system.potential, system.eps, grid)
    return np.vecdot(system.basis_b.quad_weights, density)


def step_count(t_final: float, dt: float) -> int:
    """The number of dt steps that reach t_final; ValueError unless t_final
    is positive and a whole, finite number of steps."""
    if t_final <= 0.0:
        raise ValueError(f"t_final must be positive, got {t_final}")
    steps = t_final / dt
    # an overflowing quotient counts as 0 steps, which the test below rejects
    n_steps = max(1, int(round(steps))) if math.isfinite(steps) else 0
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
    row axis (`RunOutput.rows` splits it).  A `scheme_problem` raises
    ValidationError before the first step.  An overflow guard trip or a
    resolvent failure raises BlowupError with the step, its end time, the
    offending row and the output up to the last completed snapshot.
    """
    if snapshot_stride < 1:
        raise ValueError(f"snapshot_stride must be >= 1, got {snapshot_stride}")
    problem = scheme_problem(system.potential, system.eps, scheme.scheme)
    if problem is not None:
        raise ValidationError(problem)
    dt = scheme.dt
    n_steps = step_count(t_final, dt)
    # built once per run; a dt the products cannot carry fails here
    denominators = system.step_denominators(dt)

    theta0, phi0 = project_data(system)
    state = State(0.0, theta0, phi0)
    prox = scheme.scheme == "implicit_prox"
    n_rows = 1 + n_steps // snapshot_stride + (n_steps % snapshot_stride != 0)
    ledger = _LedgerAccumulator(system, n_rows, prox)

    # prox runs ledger the datum grid at t = 0: the modal projection of a
    # clamped field can overshoot the obstacle and blow up the indicator
    ledger.record(state, 0.0, None, system.phi0_grid if prox else None)
    try:
        for k in range(1, n_steps + 1):
            step = step_imex(system, state, scheme, denominators)
            new_state = step.state
            new_state.t = k * dt  # avoid accumulated drift in snapshot times
            dphi_sq = ledger.accumulate(state, step, dt)
            state = new_state
            if k % snapshot_stride == 0 or k == n_steps:
                ledger.record(state, np.sqrt(dphi_sq) / dt, step.xi_grid, step.phi_grid)
    except (OverflowGuardError, ResolventError) as exc:
        raise BlowupError(f"{exc} in step {k}, t={k * dt!r}", _finalize(ledger), step=k,
                          t=k * dt, row=getattr(exc, "row", None)) from None
    return _finalize(ledger)


def _finalize(ledger: _LedgerAccumulator) -> RunOutput:
    """The recorded rows as a RunOutput, with the norms of every snapshot
    derived at once (a row-batched vecdot equals the per-row one)."""
    system, n = ledger.system, ledger.count

    def col(name):
        return ledger.cols[name][:n]

    theta, phi = ledger.theta[:n], ledger.phi[:n]
    theta_sq = np.vecdot(theta, theta)
    phi_sq = np.vecdot(phi, phi)
    half_theta_sq = 0.5 * theta_sq
    half_graph_phi = 0.5 * (phi_sq + np.vecdot(system.phi_stiff * phi, phi))
    lhs = (half_theta_sq + col("diss_theta") + col("diss_phi")
           + half_graph_phi + col("potential_integral"))
    rhs = lhs[0] + col("work_source") + col("work_phi")
    series = LedgerSeries(
        half_theta_sq=half_theta_sq,
        diss_theta=col("diss_theta"),
        diss_phi=col("diss_phi"),
        half_phi_graph_sq=half_graph_phi,
        potential_integral=col("potential_integral"),
        work_source=col("work_source"),
        work_phi=col("work_phi"),
        lhs=lhs,
        rhs=rhs,
        residual=np.abs(lhs - rhs),
    )
    return RunOutput(
        times=col("t"),
        theta_series=theta,
        phi_series=phi,
        norm_theta=np.sqrt(theta_sq),
        graph_theta=graph_norms(theta, system.theta_stiff),
        norm_phi=np.sqrt(phi_sq),
        graph_phi=graph_norms(phi, system.phi_stiff),
        dtphi_norm=col("dtphi"),
        ledger=series,
        xi_series=None if ledger.xi is None else ledger.xi[:n],
        phi_grid_series=None if ledger.phi_grid is None else ledger.phi_grid[:n],
    )
