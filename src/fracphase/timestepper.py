"""Time integration of the Galerkin system with an energy ledger.

Both schemes are one implicit-explicit Euler step, `step_imex`, with the
linear stiff parts implicit: semi-implicit Euler (imex_euler) takes the
convex part of the potential explicitly, the proximal scheme (implicit_prox)
backward through its resolvent on the grid, which is what the obstacle
potential and the sigma -> 0 limit system need.  `prepare_step` takes once
per run every decision a run never changes, so a step does only arithmetic:
it calls no overflow guard and no resolvent check.  It writes what those
checks read into rows (`_CheckRows`), and `integrate` runs every check once
per span of steps, in a step's order, before anything records the span.

The ledger mirrors the first a-priori energy identity of the continuous
problem: at the semi-discrete level the identity is exact, so the recorded
balance residual measures pure time-discretization error and must shrink
first order in dt.  It is reduced once per block of LEDGER_BLOCK steps.

Every march is a stack (`galerkin.stack_systems`): B trajectories advance as
one (B, n) state, and a lone system is a stack of one, which `integrate`
makes at its top and splits off its output.  Steps, ledger and snapshots
work over the trailing axis.  `integrate` always starts from the system's
projected data and returns only what it recorded.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from typing import Callable, Optional

import numpy as np

from .galerkin import DiscreteSystem, OverflowGuardError, ValidationError, guard, \
    prepare_force, project_data, stack_systems
from .potentials import Potential, ResolventError, check_resolvent, moreau, prox_step
from .spectral import SpectralBasis, analyze, squared_graph_norms, synthesize

SCHEMES = ("imex_euler", "implicit_prox")

# steps per ledger reduction, whatever the snapshot stride
LEDGER_BLOCK = 64

# floats a check row block may hold per stored grid: a span of steps ends
# once its rows fill this (or at a snapshot or a ledger block end), so a
# span is 64 steps on an n = 8 interval and one step on a 256 x 256 rectangle
CHECK_GRID_FLOATS = 8192


class BlowupError(RuntimeError):
    """A step failed (an overflow guard trip or a resolvent failure) in step
    `step`, the one that ends at simulated time `t`; `row` is the offending
    row of a stacked system of several rows (None for a lone system).
    `integrate` attaches as `partial` the output it would have returned, up
    to the last completed snapshot."""

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


@dataclass(frozen=True)
class SchemeConfig:
    scheme: str = "imex_euler"
    dt: float = 1e-3

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}; expected one of {SCHEMES}")
        if not (math.isfinite(self.dt) and self.dt > 0.0):
            raise ValueError(f"dt must be positive and finite, got {self.dt}")


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

    A proximal run also records, per snapshot, the largest and smallest value
    of its grid iterate and the worst sign excess max(-phi*xi) of its
    multiplier xi over the nodes where |phi| = 1 (0 where there are none),
    and keeps the multiplier of the last snapshot; the obstacle contracts
    read these (None otherwise).  Of a stacked run every array but `times`
    carries a row axis, after the snapshot axis and before the grid axis of
    `xi_final`; `rows()` splits it into one output per trajectory.
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
    grid_max: Optional[np.ndarray] = None     # (K,)
    grid_min: Optional[np.ndarray] = None     # (K,)
    sign_excess: Optional[np.ndarray] = None  # (K,)
    xi_final: Optional[np.ndarray] = None     # (m,)

    def rows(self) -> list["RunOutput"]:
        """One single-trajectory output per row of a stacked run's output."""

        def pick(obj, b):
            return {f.name: getattr(obj, f.name)[:, b] for f in fields(obj)
                    if f.name not in ("times", "ledger", "xi_final")
                    and getattr(obj, f.name) is not None}

        return [replace(self, **pick(self, b),
                        ledger=replace(self.ledger, **pick(self.ledger, b)),
                        xi_final=None if self.xi_final is None else self.xi_final[b])
                for b in range(self.theta_series.shape[1])]


class _CheckRows:
    """What the checks of a step read, one row per step of a span, written
    by the step at row `i`: the resolvent's input and output grids `s`, `x`
    (under implicit_prox `s` is the intermediate grid) and the collocated
    grid of F `f` (None when `galerkin.prepare_force` collocates nothing).
    The obstacle's projection is exact, so it keeps no `x`, and no `s` either
    under imex_euler, where no check reads it.  The coefficient checks read
    the ledger's state rows.

    The step synthesizes the resolvent's input into its `s` row, and `solve`
    has the split's solver write its output into row i of `x` (into the
    per-run grid `solved` where no row is kept), its cubic taking scratch
    grids 1 and 2.  `scratch` holds at least three grids and a row block:
    the residual checks form their residuals in its first rows, and a
    snapshot's record takes three of them between steps.  So a step
    allocates no grid and copies none.

    `level` is the level `solve` was called at, None while it never was (at
    eps = 0 under imex_euler); it is checked by assembly (eps) and
    `prepare_step` (dt), and the resolvent's input is finite in the first
    step that fails any check: a synthesis of checked coefficients, or the
    checked intermediate grid.
    """

    def __init__(self, system: DiscreteSystem, prox: bool):
        self.shape = system.phi_stiff.shape[:-1] + (system.basis_b.n_grid,)
        self.n_rows = min(LEDGER_BLOCK, max(1, CHECK_GRID_FLOATS // math.prod(self.shape)))
        self.i, self.level, self.potential, self.prox = 0, None, system.potential, prox
        self.x = None if system.potential.multivalued else self.grids()
        self.s = self.grids() if prox or self.x is not None else None
        self.f = None  # `prepare_step` allocates it when `prepare_force`'s F collocates
        self.solved = [np.empty(self.shape)] * self.n_rows if self.x is None else list(self.x)
        self.scratch = np.empty((max(3, self.n_rows),) + self.shape)
        self.pair = tuple(self.scratch[1:3])  # a tuple unpacks without forming views

    def grids(self) -> np.ndarray:
        return np.empty((self.n_rows,) + self.shape)

    def solve(self, level: float, s: np.ndarray) -> np.ndarray:
        """J_level(s) by the split's own solver, into row i of `x`; `s` is
        the step's `s` row already."""
        self.level = level
        return self.potential.resolvent_solver(level, s, self.solved[self.i], self.pair)

    def run(self, rows, theta: np.ndarray, phi: np.ndarray) -> None:
        """Every check in a step's order on check rows `rows` (a step's index
        or a slice of several) and the matching coefficient rows; the first
        failing one raises."""
        residual = self.level is not None and self.x is not None
        if residual and not self.prox:
            check_resolvent(self.potential, self.level, self.s[rows], self.x[rows],
                            self.scratch[rows])
        if self.f is not None:
            guard(self.f[rows], "nonlinearity")
        if self.prox:
            guard(self.s[rows], "phase grid")
            if residual:
                check_resolvent(self.potential, self.level, self.s[rows], self.x[rows],
                                self.scratch[rows])
        guard(phi, "phi coefficients")
        guard(theta, "theta coefficients")

    def first_failure(self, theta: np.ndarray, phi: np.ndarray, first: int):
        """None when the span's steps, rows 0..i here and block rows first..
        of the ledger's theta and phi, pass every check, which one batched
        call per check decides; else (r, error) of the span's first failing
        step r, the error its own checks raise."""
        n = self.i + 1
        try:
            self.run(slice(0, n), theta[first:first + n], phi[first:first + n])
            return None
        except (OverflowGuardError, ResolventError):
            for r in range(n):
                try:
                    self.run(r, theta[first + r], phi[first + r])
                except (OverflowGuardError, ResolventError) as exc:
                    return r, exc
            raise


@dataclass(frozen=True)
class PreparedStep:
    """What `step_imex` needs of one run, every decision the run never changes
    taken: the denominators 1 + dt*Lambda and 1 + dt*M, F and E w as
    `galerkin.prepare_force` binds them, the phase basis, g(t) (a bound zero
    vector without a source), under implicit_prox the resolvent J_dt of the
    phase grid, the rows the step writes for the checks and, per check row,
    the grids the step writes into (`rows`): F's phase grid, F's collocated
    terms and, under implicit_prox, the intermediate grid."""

    dt: float
    theta_denom: np.ndarray
    phi_denom: np.ndarray
    force: Callable[..., tuple]
    couple: Callable[[np.ndarray | None, np.ndarray], np.ndarray]
    basis_b: SpectralBasis
    source_at: Callable[[float], np.ndarray]
    prox: Optional[Callable[[np.ndarray], np.ndarray]]
    checks: _CheckRows
    rows: tuple


def prepare_step(system: DiscreteSystem, scheme: SchemeConfig) -> PreparedStep:
    """The PreparedStep of `system` under `scheme`; a `scheme_problem`, or a
    dt the denominators cannot carry, raises ValidationError here.

    The temperature denominator and the zero source take theta's shape:
    same-shape operands skip numpy's costly broadcasting setup.  Every grid a
    step forms is allocated here, once per run: F's phase grid is the
    resolvent's input row under imex_euler when one is kept, else a grid of
    its own.
    """
    pot, eps = system.potential, system.eps
    if problem := scheme_problem(pot, eps, scheme.scheme):
        raise ValidationError(problem)
    dt, prox = scheme.dt, scheme.scheme == "implicit_prox"
    theta_denom, phi_denom = system.step_denominators(dt)
    rows = system.phi_stiff.shape[:-1]
    zeros = np.zeros(rows + (system.n_a,))
    checks = _CheckRows(system, prox)
    force, couple = prepare_force(system, explicit_beta=not prox, solve=checks.solve)
    grid = f = star = [None] * checks.n_rows
    if force.collocates:
        checks.f = checks.grids()
        f = list(checks.f)
        grid = list(checks.s if checks.s is not None and not prox else checks.grids())
    prox_grid = None
    if prox:
        star, out = list(checks.s), np.empty(checks.shape)
        prox_grid = lambda s: prox_step(pot, eps, dt, s, checks.solve, out, checks.scratch[0])
    return PreparedStep(
        dt, np.tile(theta_denom, rows + (1,)), phi_denom, force, couple, system.basis_b,
        system.source_at if system.source else lambda t: zeros, prox_grid, checks,
        tuple(zip(grid, f, star)))


def step_imex(prepared: PreparedStep, theta: np.ndarray, phi: np.ndarray, t: float):
    """One implicit-explicit Euler step of either scheme from the state
    (theta, phi) at time t: (theta+, phi+, g(t+dt), synth(Phi*), phi_grid+),
    the last two None under imex_euler.

    Phi* = (Phi - dt F(Theta, Phi)) / (1 + dt M) with F frozen at the start
    state.  Under imex_euler F holds beta_eps and Phi+ = Phi*.  Under
    implicit_prox F leaves the convex part out, and the resolvent J_dt of
    beta_eps (beta itself at eps = 0) applies it backward on the grid:

        phi_grid+ = J_dt(synth(Phi*)),   Phi+ = P(phi_grid+),
        xi_grid   = (synth(Phi*) - phi_grid+) / dt   in beta(phi_grid+);

    the multiplier relation holds exactly at every node, so an obstacle
    bound holds by construction.  Both schemes then take
    Theta+ = (I + dt Lambda)^(-1) (Theta - E (Phi+ - Phi) + dt g(t+dt)).
    The step checks nothing: it writes the grids the checks read into row
    `checks.i` of the prepared check rows, and the two grids it returns are
    per-run buffers, valid until the next step.
    """
    p, dt = prepared, prepared.dt
    grid, collocated, star = p.rows[p.checks.i]
    fphi, start_grid, _ = p.force(theta, phi, grid, collocated)
    phi_new = (phi - dt * fphi) / p.phi_denom
    intermediate = phi_grid = None
    if p.prox is not None:
        intermediate = synthesize(p.basis_b, phi_new, star)
        phi_grid = p.prox(intermediate)
        phi_new = analyze(p.basis_b, phi_grid)
    coupled = p.couple(start_grid, phi_new - phi)
    g = p.source_at(t + dt)
    # + dt*g stays for a zero source too: it turns a -0.0 of theta - coupled
    # into the +0.0 the recorded series hold
    theta_new = (theta - coupled + dt * g) / p.theta_denom
    return theta_new, phi_new, g, intermediate, phi_grid


# what a snapshot records besides the state; `_finalize` derives the norms.
# The four sums and |d_t phi| come in the order of `_LedgerAccumulator.sums`;
# a proximal run adds the reductions of its grid iterate and multiplier.
_REDUCED = ("diss_theta", "diss_phi", "work_source", "work_phi", "dtphi")
_COLUMNS = ("t", "potential_integral") + _REDUCED
_CONTACT = ("grid_max", "grid_min", "sign_excess")


class _LedgerAccumulator:
    """The energy identity terms, reduced once per block of steps, and the
    per-snapshot columns of a whole run.

    Dissipation and work integrals use the left-endpoint rule with forward
    difference quotients, which matches the Euler consistency order; the
    source work uses the implicit sample g(t+dt) that the scheme applies
    and stays exactly 0.0 without a source.  The march writes each step's
    (B, n) state and source sample into a block row, row 0 holding the state
    the block starts from; `accumulate` reduces the block into preallocated
    buffers with one batched vecdot per term and np.add.accumulate, which adds
    in the order of a per-step +=.  The columns hold `n_snaps` snapshots,
    `count` of them filled: per row the state, the potential integral, of a
    proximal run the `_CONTACT` reductions, and, once their block is reduced,
    |d_t phi| and the sums.  `xi` is a proximal run's last multiplier.
    """

    def __init__(self, system: DiscreteSystem, n_snaps: int, block_steps: int, prox: bool,
                 grid: np.ndarray, scratch: np.ndarray):
        self.system = system
        # a snapshot's phase grid (or, under implicit_prox, its envelope) and
        # the envelope's three scratch grids: the step's, free between steps
        self.grid, self.grid_scratch = grid, scratch
        self.count = 0
        n_rows, n_a, n_b = system.phi_stiff.shape[0], system.n_a, system.n_b
        self.cols = {name: np.empty((n_snaps, n_rows))
                     for name in _COLUMNS + (_CONTACT if prox else ())}
        self.cols["t"] = np.empty(n_snaps)
        self.theta = np.empty((n_snaps, n_rows, n_a))
        self.phi = np.empty((n_snaps, n_rows, n_b))
        self.xi = np.zeros((n_rows, system.basis_b.n_grid)) if prox else None
        self.rows: list[int] = []  # the block rows of the snapshots to fill in
        # the block and per row the sums and |d_t phi|, row 0 carrying the block
        # before (0 at t = 0); the source sample is shared by the rows
        self.theta_block = np.empty((block_steps + 1, n_rows, n_a))
        self.phi_block = np.empty((block_steps + 1, n_rows, n_b))
        self.source_block = np.empty((block_steps + 1, 1, n_a)) if system.source else None
        self.sums = np.zeros((len(_REDUCED), block_steps + 1, n_rows))
        # the reduction's buffers: Lambda theta, d phi, phi + gamma*phi, |d phi|^2
        self.scratch = [np.empty((block_steps, n_rows) + n) for n in ((n_a,), (n_b,), (n_b,), ())]

    def accumulate(self, steps: int, dt: float) -> None:
        """Reduce the block's first `steps` steps, fill in the snapshots taken
        in them and carry the sums and the last state into row 0.
        phi - P(pi(phi)) is phi + gamma*phi, since pi(v) = -gamma*v."""
        sysm, k = self.system, steps
        theta, phi, sums = self.theta_block, self.phi_block, self.sums[:, :k + 1]
        start_theta, start_phi = theta[:k], phi[:k]
        stiff_theta, dphi, phi_term, dphi_sq = (buf[:k] for buf in self.scratch)
        np.vecdot(np.multiply(sysm.theta_stiff, start_theta, out=stiff_theta), start_theta,
                  out=sums[0, 1:])
        sums[0, 1:] *= dt
        np.vecdot(np.subtract(phi[1:k + 1], start_phi, out=dphi), dphi, out=dphi_sq)
        np.divide(dphi_sq, dt, out=sums[1, 1:])
        np.divide(np.sqrt(dphi_sq, out=dphi_sq), dt, out=sums[4, 1:])
        if self.source_block is not None:
            np.vecdot(self.source_block[1:k + 1], theta[1:k + 1], out=sums[2, 1:])
            sums[2, 1:] *= dt
        np.add(start_phi, np.multiply(sysm.potential.gamma, start_phi, out=phi_term),
               out=phi_term)
        np.vecdot(phi_term, dphi, out=sums[3, 1:])
        np.add.accumulate(sums[:4], axis=1, out=sums[:4])
        snapshots = slice(self.count - len(self.rows), self.count)
        for name, per_row in zip(_REDUCED, sums):
            self.cols[name][snapshots] = per_row[self.rows]
        self.rows.clear()
        sums[:, 0] = sums[:, k]
        theta[0], phi[0] = theta[k], phi[k]

    def record(self, t: float, theta: np.ndarray, phi: np.ndarray, row: int,
               xi: np.ndarray | None, phi_grid: np.ndarray | None) -> None:
        """Write one snapshot but for the sums and |d_t phi|, which the
        reduction fills in from block row `row`.  A proximal run hands every
        record its grid iterate and, after t = 0, its multiplier."""
        k, c, sysm = self.count, self.cols, self.system
        c["t"][k] = t
        grid = phi_grid if phi_grid is not None else synthesize(sysm.basis_b, phi, self.grid)
        density = moreau(sysm.potential, sysm.eps, grid, self.grid, self.grid_scratch)
        c["potential_integral"][k] = np.vecdot(sysm.basis_b.quad_weights, density)
        self.theta[k], self.phi[k] = theta, phi
        self.rows.append(row)
        if self.xi is not None:
            if xi is not None:
                self.xi = xi
            np.max(grid, axis=-1, out=c["grid_max"][k])
            np.min(grid, axis=-1, out=c["grid_min"][k])
            excess = np.where(np.abs(grid) == 1.0, -grid * self.xi, 0.0)
            np.max(excess, axis=-1, out=c["sign_excess"][k])
        self.count += 1


def step_count(t_final: float, dt: float) -> int:
    """The number of dt steps that reach t_final; ValueError unless both are
    positive and finite and t_final is a whole, finite number of steps."""
    for name, value in (("t_final", t_final), ("dt", dt)):
        if not (math.isfinite(value) and value > 0.0):
            raise ValueError(f"{name} must be positive and finite, got {value}")
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
    row axis (`RunOutput.rows` splits it); a lone system marches as a stack
    of one and returns that row's output.  A `scheme_problem` raises
    ValidationError before the first step.  An overflow guard trip or a
    resolvent failure raises BlowupError with the step, its end time, the
    offending row and the output up to the last completed snapshot.

    The checks run once per span of steps (`_CheckRows`), which ends at each
    snapshot, at each ledger block end and when the check rows are full; the
    error is the one the first failing step's own checks raise, so it equals
    a per-step check's.
    """
    if snapshot_stride < 1:
        raise ValueError(f"snapshot_stride must be >= 1, got {snapshot_stride}")
    lone = np.shape(system.sigma) == ()
    system = stack_systems([system]) if lone else system
    prepared = prepare_step(system, scheme)
    dt = scheme.dt
    n_steps = step_count(t_final, dt)
    theta, phi = project_data(system)
    prox = prepared.prox is not None
    n_snaps = 1 + n_steps // snapshot_stride + (n_steps % snapshot_stride != 0)
    block = min(LEDGER_BLOCK, n_steps)
    checks = prepared.checks
    # a snapshot records between steps, on an F row (free then) when F has rows
    ledger = _LedgerAccumulator(system, n_snaps, block, prox,
                                np.empty(checks.shape) if checks.f is None else checks.f[0],
                                checks.scratch[:3])

    def output() -> RunOutput:
        # the reduction is done: its buffers go before the norms' temporaries
        # come, which keeps the run's peak memory at the per-call temporaries'
        ledger.scratch = None
        run = _finalize(ledger)
        return run.rows()[0] if lone else run

    # prox runs ledger the datum grid at t = 0: the modal projection of a
    # clamped field can overshoot the obstacle and blow up the indicator
    ledger.theta_block[0], ledger.phi_block[0] = theta, phi
    ledger.record(0.0, theta, phi, 0, None, system.phi0_grid if prox else None)
    first = 1  # the block row of the span's first step
    try:
        # the steps a span computes after one that fails its checks run on
        # inf or NaN, which must print nothing
        with np.errstate(all="ignore"):
            for k in range(1, n_steps + 1):
                j = (k - 1) % block + 1  # the step's row in its block
                checks.i = j - first  # and in its span
                # (k - 1)*dt, not the sum of k - 1 dt's, avoids drift in the times
                theta, phi, g, star_grid, phi_grid = step_imex(prepared, theta, phi,
                                                               (k - 1) * dt)
                ledger.theta_block[j], ledger.phi_block[j] = theta, phi
                if ledger.source_block is not None:
                    ledger.source_block[j] = g
                snapshot = k % snapshot_stride == 0 or k == n_steps
                # a span ends before a snapshot, so only checked states record
                if snapshot or j == block or checks.i + 1 == checks.n_rows:
                    failure = checks.first_failure(ledger.theta_block, ledger.phi_block,
                                                   first)
                    if failure is not None:
                        r, exc = failure
                        k += r - checks.i  # the failing step
                        raise exc
                    first = j % block + 1
                if snapshot:
                    xi = None if phi_grid is None else (star_grid - phi_grid) / dt
                    ledger.record(k * dt, theta, phi, j, xi, phi_grid)
                if j == block or k == n_steps:
                    ledger.accumulate(j, dt)
    except (OverflowGuardError, ResolventError) as exc:
        ledger.accumulate((k - 1) % block, dt)  # fills the unfinished block's snapshots
        raise BlowupError(f"{exc} in step {k}, t={k * dt!r}", output(), step=k,
                          t=k * dt, row=getattr(exc, "row", None)) from None
    return output()


def _finalize(ledger: _LedgerAccumulator) -> RunOutput:
    """The recorded rows as a RunOutput, with the norms of every snapshot
    derived at once (a row-batched vecdot equals the per-row one), each
    product formed once."""
    system, n = ledger.system, ledger.count

    def col(name):
        return ledger.cols[name][:n] if name in ledger.cols else None

    theta, phi = ledger.theta[:n], ledger.phi[:n]
    theta_sq = np.vecdot(theta, theta)
    phi_sq = np.vecdot(phi, phi)
    phi_graph_sq = squared_graph_norms(phi, system.phi_stiff, phi_sq)
    half_theta_sq = 0.5 * theta_sq
    half_graph_phi = 0.5 * phi_graph_sq
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
        graph_theta=np.sqrt(squared_graph_norms(theta, system.theta_stiff, theta_sq)),
        norm_phi=np.sqrt(phi_sq),
        graph_phi=np.sqrt(phi_graph_sq),
        dtphi_norm=col("dtphi"),
        ledger=series,
        xi_final=ledger.xi,
        **{name: col(name) for name in _CONTACT},
    )
