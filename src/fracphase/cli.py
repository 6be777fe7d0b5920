"""Command-line surface: configuration-driven runs with CSV/JSON outputs.

Subcommands map one-to-one onto the solver and analysis drivers:

  simulate    integrate one scenario, emit time series / snapshots / manifest
  converge    refinement study along n_modes | eps | dt | sigma
  contdep     continuous-dependence ratio ladder
  longtime    long-horizon run plus the stationarity probe
  relaxlimit  sigma -> 0 ladder against the direct limit solver
  selftest    spectral + convex-analysis property suites

Exit codes: 0 ok, 1 internal error, 2 configuration error, 3 solver failure,
4 check failure, 5 I/O failure.
"""
from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import itertools
import json
import math
import os
import sys
import time
import traceback

import numpy as np

from . import __version__
from .analysis import (contdep_report, convergence_study, omega_limit_probe,
                       relaxation_limit_study)
from .config import (DEFAULT_GRID_FACTOR, ConfigError, RunConfig, apply_overrides,
                     build_system, build_systems, load_raw_config, read_study,
                     validate_config)
from .expressions import ExpressionError
from .galerkin import OverflowGuardError, ValidationError, resolve_field, stack_systems
from .potentials import (ResolventError, double_obstacle_potential,
                         logarithmic_potential, moreau, regular_potential,
                         resolvent, yosida)
from .spectral import (BasisBuildError, build_basis, gram_defect, kernel_projection,
                       fractional_multipliers, synthesize)
from .timestepper import BlowupError, RunOutput, SchemeConfig, integrate

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_CHECK = 4
EXIT_IO = 5

OUTPUT_ROOT_ENV = "FRACPHASE_OUT_ROOT"

TIMESERIES_HEADER = ("t,norm_theta,graphnorm_theta,norm_phi,graphnorm_phi,"
                     "dtphi_norm,energy_lhs,energy_rhs,energy_residual")
SNAPSHOT_HEADER = "t,field,mode_index,coefficient"


def _fmt(x: float) -> str:
    """Full-precision decimal text; round-trips float64 exactly."""
    return format(float(x), ".17g")


def config_hash(raw: dict) -> str:
    """Hash of the semantically meaningful config (output location excluded)."""
    stripped = {k: v for k, v in raw.items() if k != "output"}
    blob = json.dumps(stripped, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _write_atomic(path: str, chunks) -> None:
    """Write the string chunks of the iterable `chunks` to `path`, whole or
    not at all: into path + ".tmp", which then replaces `path`; when anything
    raises, the .tmp is removed and `path` keeps what it held.  A bare str is
    refused: it would be written one character at a time."""
    if isinstance(chunks, str):
        raise TypeError("_write_atomic takes an iterable of string chunks, not a str")
    tmp = path + ".tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


# rows per `%` template: blocks of 256-4096 rows format 20-30% faster than one
# `%` per row, and one template for a whole 65 536-row file gives most of it back
_BLOCK_ROWS = 1024


def _table(header: str, prefixes, values):
    """CSV text, one chunk at a time: `header`, then line i = prefixes[i]
    followed by row i of the 2-D float array `values`, each value as _fmt
    writes it.

    `prefixes` is an iterable of strings, read one block at a time, so a
    generator is never materialized, and neither is the text: each block of
    _BLOCK_ROWS rows is one chunk, formatted by one `%` template ("%.17g" % x
    is the same text as _fmt(x)).  The prefixes become part of that template:
    they hold only _fmt text, field names, integers and commas, never a `%`.
    """
    row = ",".join(["%.17g"] * values.shape[1]) + "\n"
    prefixes = iter(prefixes)
    yield header + "\n"
    for start in range(0, values.shape[0], _BLOCK_ROWS):
        block = values[start:start + _BLOCK_ROWS]
        template = row.join(itertools.islice(prefixes, block.shape[0])) + row
        yield template % tuple(block.ravel().tolist())


def _coordinate_text(axis_nodes):
    """Per node of the row-major product of the axes' nodes, its coordinates
    as _fmt text, each followed by a comma, one node at a time.

    Each axis's nodes are formatted once, and the texts of the axes are
    joined row-major, as `SpectralBasis.grid_points` lists the nodes.
    """
    *outer, inner = ([_fmt(v) + "," for v in nodes.tolist()] for nodes in axis_nodes)
    for head in map("".join, itertools.product(*outer)):
        yield from map(head.__add__, inner)


def emit_run_outputs(run: RunOutput, system, out_dir: str,
                     grid_times=()) -> list[str]:
    """Write timeseries.csv, snapshots.csv, optional grid slices, plot data.

    Each file is streamed to disk one block of rows at a time and replaces
    its path atomically (`_write_atomic`), so the memory emission takes does
    not grow with the size of a file.
    """
    os.makedirs(out_dir, exist_ok=True)
    files = []

    led = run.ledger
    columns = [run.times, run.norm_theta, run.graph_theta, run.norm_phi, run.graph_phi,
               run.dtphi_norm, led.lhs, led.rhs, led.residual]
    # small, and timeseries.dat reuses it: the one text held whole
    timeseries = "".join(_table(TIMESERIES_HEADER, itertools.repeat(""),
                                np.column_stack(columns)))
    path = os.path.join(out_dir, "timeseries.csv")
    _write_atomic(path, [timeseries])
    files.append(path)

    # one row per (snapshot, field, mode) holding the snapshot's theta then
    # phi coefficients; each time is formatted once
    tails = ([f",theta,{j}," for j in range(run.theta_series.shape[1])]
             + [f",phi,{j}," for j in range(run.phi_series.shape[1])])
    prefixes = (t + tail for t in map(_fmt, run.times.tolist()) for tail in tails)
    coeffs = np.concatenate([run.theta_series, run.phi_series], axis=1).reshape(-1, 1)
    path = os.path.join(out_dir, "snapshots.csv")
    _write_atomic(path, _table(SNAPSHOT_HEADER, prefixes, coeffs))
    files.append(path)

    # one file per distinct recorded snapshot the requests snap to
    snaps = dict.fromkeys(int(np.argmin(np.abs(run.times - t))) for t in grid_times)
    header = "x,theta,phi" if system.basis_b.ndim == 1 else "x,y,theta,phi"
    for k in snaps:
        theta_grid = synthesize(system.basis_a, run.theta_series[k])
        phi_grid = synthesize(system.basis_b, run.phi_series[k])
        path = os.path.join(out_dir, f"grid_{float(run.times[k])!r}.csv")
        _write_atomic(path, _table(header, _coordinate_text(system.basis_b.axis_nodes),
                                   np.column_stack([theta_grid, phi_grid])))
        files.append(path)

    # the plot data is the CSV text space-separated: %.17g text holds no comma
    path = os.path.join(out_dir, "timeseries.dat")
    _write_atomic(path, ["# " + timeseries.replace(",", " ")])
    files.append(path)
    return files


def _strict_json(value):
    """`value` with each non-finite float (not JSON) as None, written as null."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, dict):
        return {key: _strict_json(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_strict_json(item) for item in value]
    return value


class _ManifestWriter:
    """Collects run metadata, which `main` writes as manifest.json into
    `out_dir`, None until the run directory is known."""

    def __init__(self, out_dir: str | None, command: str):
        self.out_dir = out_dir
        self.started = time.perf_counter()
        self.payload = {
            "artifact": "fracphase",
            "version": __version__,
            "command": command,
            "config": None,
            "config_hash": None,
            "status": "ok",
            "checks": {},
            "advisories": [],
            "files": [],
        }

    def check(self, name: str, passed: bool, detail=None) -> None:
        entry = {"passed": bool(passed)}
        if detail is not None:
            entry["detail"] = detail
        self.payload["checks"][name] = entry

    def fail(self, stage: str, message: str, exc: BaseException | None = None) -> None:
        self.payload["status"] = "failed"
        failure = {"stage": stage, "message": message}
        if exc is not None:
            failure["exception"] = type(exc).__name__
            failure["traceback"] = "".join(traceback.format_exception(exc))
        self.payload["failure"] = failure

    def advise(self, *sources) -> None:
        """List each advisory of `sources` (the config, the marched systems)
        not yet listed."""
        listed = self.payload["advisories"]
        for source in sources:
            listed.extend(a for a in source.advisories if a not in listed)

    def add_files(self, files) -> None:
        self.payload["files"].extend(os.path.basename(f) for f in files)

    def write_table(self, name: str, header: str, rows) -> None:
        """Write a study table (rows of text cells) into the run directory."""
        os.makedirs(self.out_dir, exist_ok=True)
        path = os.path.join(self.out_dir, name)
        _write_atomic(path, ["\n".join([header, *map(",".join, rows)]) + "\n"])
        self.add_files([path])

    def write(self) -> str:
        self.payload["wall_clock_s"] = time.perf_counter() - self.started
        os.makedirs(self.out_dir, exist_ok=True)
        path = os.path.join(self.out_dir, "manifest.json")
        text = json.dumps(_strict_json(self.payload), indent=2, sort_keys=True,
                          allow_nan=False)
        _write_atomic(path, [text + "\n"])
        return path

    @property
    def all_passed(self) -> bool:
        return all(entry["passed"] for entry in self.payload["checks"].values())


# ---------------------------------------------------------------------------
# subcommands


def _simulate_and_emit(cfg: RunConfig, manifest: _ManifestWriter) -> tuple:
    """Assemble and march the config's system and write its run outputs into
    the run directory.

    On a BlowupError the partial outputs are written before the error
    propagates; `main` records the solver failure.
    """
    system = build_system(cfg)
    manifest.advise(system)
    try:
        run = integrate(system, cfg.scheme, cfg.t_final, cfg.snapshot_stride)
    except BlowupError as exc:
        manifest.add_files(emit_run_outputs(exc.partial, system, manifest.out_dir,
                                            cfg.grid_times))
        raise
    manifest.add_files(emit_run_outputs(run, system, manifest.out_dir, cfg.grid_times))
    _check_obstacle(manifest, [(system, run)])
    return system, run


def _check_obstacle(manifest: _ManifestWriter, marched) -> None:
    """Gate the obstacle contracts on the (system, run) pairs `marched` at the
    obstacle at eps = 0 (eps > 0 may leave [-1, 1]), when there are any.

    `obstacle_bound` is |phi| <= 1 and `multiplier_sign` is xi >= 0 where
    phi = 1 and xi <= 0 where phi = -1, each the worst violation at a
    recorded node, read from the runs' per-snapshot reductions; NaN fails.
    A failing check names its worst row, the index into `marched`, when there
    are several.
    """
    gated = [(k, run) for k, (system, run) in enumerate(marched)
             if system.potential.multivalued and system.eps == 0.0]
    if not gated:
        return
    for name, excess in (
            ("obstacle_bound",
             lambda run: np.maximum(np.max(run.grid_max), -np.min(run.grid_min)) - 1.0),
            ("multiplier_sign", lambda run: np.max(run.sign_excess))):
        per_row = np.array([excess(run) for _, run in gated])
        worst = float(np.maximum(np.max(per_row), 0.0))
        detail = {"worst_violation": worst}
        if worst != 0.0 and len(marched) > 1:
            detail["row"] = gated[int(np.argmax(np.nan_to_num(per_row, nan=np.inf)))][0]
        manifest.check(name, worst == 0.0, detail)


def _cmd_simulate(cfg: RunConfig, study: dict, manifest: _ManifestWriter) -> str:
    _, run = _simulate_and_emit(cfg, manifest)
    resid = float(np.max(run.ledger.residual))
    manifest.check("energy_ledger_finite", bool(np.all(np.isfinite(run.ledger.residual))),
                   {"max_residual": resid})
    return f"simulate: {run.times.size} snapshots, max energy residual {resid:.3e}"


def _cmd_converge(cfg: RunConfig, study: dict, manifest: _ManifestWriter) -> str:
    axis, values = study["axis"], study["values"]
    if axis == "n_modes":
        # each level on its default grid, which grows with n_modes
        systems = [build_system(dataclasses.replace(cfg, **{
            name: dataclasses.replace(getattr(cfg, name), n_modes=value,
                                      m_grid=DEFAULT_GRID_FACTOR * value)
            for name in ("operator_a", "operator_b")})) for value in values]
    else:
        sigma, eps = cfg.operator_b.exponent, cfg.eps
        systems = build_systems(cfg, [(value if axis == "sigma" else sigma,
                                       value if axis == "eps" else eps)
                                      for value in values])
    manifest.advise(*systems)

    def march(system, dt, stride):
        return integrate(system, SchemeConfig(cfg.scheme.scheme, dt=dt), cfg.t_final, stride)

    if axis == "sigma":
        # the potentials branch on a scalar eps, so only sigma levels share a batch
        runs = march(stack_systems(systems), *study["levels"][0]).rows()
    else:
        runs = [march(system, *level) for system, level in zip(systems, study["levels"])]
    errors = convergence_study(list(zip(systems, runs)))

    rows = []
    names = sorted(errors)
    for k, value in enumerate(values):
        row = [_fmt(float(value))]
        for name in names:
            col = errors[name]
            row.append(_fmt(col[k]) if k < len(col) else "")
        rows.append(row)
    manifest.write_table("study_converge.csv", ",".join([axis] + names), rows)

    # the last level is the reference, so a pair to compare needs 3 levels
    if len(values) > 2:
        manifest.check("errors_decrease",
                       bool(np.all(np.diff(errors["phi_l2_h"][:-1]) <= 0.0)),
                       {"errors": errors["phi_l2_h"]})
    _check_obstacle(manifest, list(zip(systems, runs)))
    return f"converge[{axis}]: errors {errors['phi_l2_h']}"


def _cmd_contdep(cfg: RunConfig, study: dict, manifest: _ManifestWriter) -> str:
    deltas = study["deltas"]
    base = build_system(cfg)
    mode = synthesize(base.basis_a, np.eye(base.n_a)[study["mode_index"]])
    # the base run and one run per datum theta0 + delta*e_mode march as one
    # stacked system; each shifted datum is held to assembly's datum checks
    with np.errstate(over="ignore"):  # resolve_field rejects a shift that overflows
        shifted = [resolve_field(base.theta0_grid + float(d) * mode, base.basis_a,
                                 f"theta0 + study.contdep.deltas[{k}]*mode")
                   for k, d in enumerate(deltas)]
    systems = [base] + [dataclasses.replace(base, theta0_grid=grid) for grid in shifted]
    manifest.advise(*systems)
    runs = integrate(stack_systems(systems), cfg.scheme, cfg.t_final,
                     cfg.snapshot_stride).rows()
    _check_obstacle(manifest, list(zip(systems, runs)))
    reports = [contdep_report(systems[0], runs[0], system, run)
               for system, run in zip(systems[1:], runs[1:])]
    ratios = np.array([r.ratio for r in reports], dtype=float)

    rows = [[_fmt(d), _fmt(r.lhs), _fmt(r.rhs), _fmt(r.ratio)]
            for d, r in zip(deltas, reports)]
    manifest.write_table("study_contdep.csv", "delta,lhs,rhs,ratio", rows)

    finite = bool(np.all(np.isfinite(ratios)))
    spread = float(ratios.max() / ratios.min() - 1.0) if finite and ratios.min() > 0 else np.inf
    manifest.check("ratio_finite", finite)
    if len(deltas) > 1:  # a spread compares at least two ratios
        manifest.check("ratio_stable", spread < study["max_ratio_spread"],
                       {"spread": spread, "ratios": ratios.tolist()})
    return f"contdep: ratios {ratios}, spread {spread:.3%}"


def _cmd_longtime(cfg: RunConfig, study: dict, manifest: _ManifestWriter) -> str:
    tail_threshold = study["tail_threshold"]
    system, run = _simulate_and_emit(cfg, manifest)
    report = omega_limit_probe(system, run, study["tail_fraction"])
    manifest.check("tail_ar_theta", report.tail_sup_ar_theta <= tail_threshold,
                   {"value": report.tail_sup_ar_theta})
    manifest.check("tail_dtphi", report.tail_sup_dtphi <= tail_threshold,
                   {"value": report.tail_sup_dtphi})
    manifest.check("stationary_residual",
                   report.stationary_residual <= study["stationary_threshold"],
                   {"value": report.stationary_residual})
    manifest.check("theta_on_kernel",
                   report.final_nonkernel_theta <= tail_threshold,
                   {"value": report.final_nonkernel_theta,
                    "final_theta_norm": report.final_theta_norm})
    return (f"longtime: tail |A^r theta| {report.tail_sup_ar_theta:.3e}, "
            f"tail |dtphi| {report.tail_sup_dtphi:.3e}, "
            f"stationary residual {report.stationary_residual:.3e}")


def _cmd_relaxlimit(cfg: RunConfig, study: dict, manifest: _ManifestWriter) -> str:
    ladder = build_systems(cfg, [(sigma, cfg.eps) for sigma in study["sigmas"]])
    manifest.advise(*ladder)
    report = relaxation_limit_study(ladder, cfg.scheme.dt, cfg.t_final, cfg.snapshot_stride)
    _check_obstacle(manifest, report.marched)

    rows = [[_fmt(s), _fmt(pe), _fmt(te)]
            for s, pe, te in zip(report.sigmas, report.phi_errors, report.theta_errors)]
    manifest.write_table("study_relaxlimit.csv", "sigma,phi_l2q_error,theta_l2q_error", rows)
    if report.monotone is not None:
        manifest.check("errors_decreasing", report.monotone,
                       {"phi": report.phi_errors, "theta": report.theta_errors})
    return f"relaxlimit: phi errors {report.phi_errors} (monotone={report.monotone})"


def _selftest_rows(seed: int) -> list[tuple[str, str, int, float, float, bool]]:
    """Property suites over random samples; one row per (check, kind)."""
    rng = np.random.default_rng(seed)
    rows = []

    def row(check, kind, samples, values, tol):
        # the worst of the row's per-sample values and 0 (a row whose values
        # are all <= 0 reads 0); a NaN value is the worst and fails the row
        worst = float(np.maximum(np.max(values), 0.0))
        rows.append((check, kind, samples, worst, tol, worst <= tol))

    bases = {kind: build_basis(kind, 1.0, 64, 512)
             for kind in ("interval_neumann", "interval_dirichlet")}
    for kind, basis in bases.items():
        row("gram_identity", kind, 64, gram_defect(basis), 1e-10)
        v = rng.standard_normal((100, 64))
        two = fractional_multipliers(basis, 0.7) * (fractional_multipliers(basis, 0.3) * v)
        one = fractional_multipliers(basis, 1.0) * v
        scale = np.max(np.abs(one), axis=1)
        row("semigroup_relative", kind, 100,
            np.max(np.abs(two - one), axis=1) / np.where(scale == 0.0, 1.0, scale), 1e-13)
        p = kernel_projection(basis, rng.standard_normal(64))
        row("kernel_projection_idempotent", kind, 1,
            np.abs(kernel_projection(basis, p) - p), 1e-12)

    # sampling windows keep the logarithmic resolvent inside representable
    # territory (the root approaches the domain endpoint exponentially in s/eps)
    pots = {
        "regular": (regular_potential(), (-5.0, 5.0), (1e-4, 1.0)),
        "logarithmic": (logarithmic_potential(2.0), (-1.6, 1.6), (0.05, 1.0)),
        "double_obstacle": (double_obstacle_potential(0.5), (-5.0, 5.0), (1e-4, 1.0)),
    }
    checks = (("resolvent_residual", 1e-10), ("envelope_bounds", 1e-12),
              ("envelope_monotone_in_eps", 1e-12), ("yosida_lipschitz", 1e-9),
              ("resolvent_nonexpansive", 1e-9))
    n_eps, n_s = 25, 40
    n = n_eps * n_s
    for name, (pot, s_range, eps_range) in pots.items():
        values = []  # per eps, one row of per-sample values per check
        for e in np.geomspace(*eps_range, n_eps).tolist():
            ss, tt = rng.uniform(*s_range, size=(2, n_s))
            j, jt = resolvent(pot, e, ss), resolvent(pot, e, tt)
            if pot.kind == "double_obstacle":
                res = np.abs(j - np.clip(ss, -1.0, 1.0))
            else:
                res = np.abs(j + e * pot.beta(j) - ss)
            env = moreau(pot, e, ss)
            bh = pot.beta_hat(ss)
            gap = np.abs(ss - tt) + 1e-300
            values.append((
                res,
                np.maximum(-env, np.where(np.isfinite(bh), env - bh, 0.0)),
                env - moreau(pot, e / 2.0, ss),
                e * np.abs(yosida(pot, e, ss) - yosida(pot, e, tt)) / gap - 1.0,
                np.abs(j - jt) / gap - 1.0))
        for k, (check, tol) in enumerate(checks):
            row(check, name, n, [v[k] for v in values], tol)
    # |beta_eps| <= |beta| on the window's part of the domain of beta (the
    # minimal section); drawn after every other row so their samples stay put
    for name, (pot, s_range, eps_range) in pots.items():
        window = (max(s_range[0], pot.domain[0]), min(s_range[1], pot.domain[1]))
        s = rng.uniform(*window, size=(n_eps, n_s))
        row("yosida_minimal_section", name, n,
            [np.abs(yosida(pot, e, s_e)) - np.abs(pot.beta(s_e))
             for e, s_e in zip(np.geomspace(*eps_range, n_eps).tolist(), s)], 1e-9)
    # B^(2 sigma) -> I - P as sigma -> 0: on each positive eigenvalue mu,
    # |mu**sigma - 1| shrinks strictly down the ladder, so each rung's error
    # over the one before is below 1 (the tolerance is the float below 1)
    for kind, basis in bases.items():
        positive = basis.eigenvalues > 0.0
        errors = np.abs([fractional_multipliers(basis, sigma)[positive] - 1.0
                         for sigma in (0.2, 0.1, 0.05, 0.01)])
        ratios = errors[1:] / errors[:-1]
        row("sigma_zero_multiplier", kind, ratios.size, ratios, math.nextafter(1.0, 0.0))
    # the gate of an FFT basis, on the pair it transforms with
    for kind in bases:
        row("fft_gram_identity", kind, 512,
            gram_defect(build_basis(kind, 1.0, 512, 2048)), 1e-10)
    return rows


def _cmd_selftest(cfg: RunConfig, study: dict, manifest: _ManifestWriter) -> str:
    rows = _selftest_rows(cfg.seed)
    csv_rows = [[check, kind, str(ns), _fmt(worst), _fmt(tol), str(ok).lower()]
                for check, kind, ns, worst, tol, ok in rows]
    manifest.write_table("selftest.csv", "check,kind,samples,worst,tolerance,passed",
                         csv_rows)
    for check, kind, _, worst, tol, ok in rows:
        manifest.check(f"{check}.{kind}", ok, {"worst": worst, "tolerance": tol})
    n_passed = sum(ok for *_, ok in rows)
    return f"selftest: {n_passed}/{len(rows)} checks passed"


COMMANDS = {
    "simulate": _cmd_simulate,
    "converge": _cmd_converge,
    "contdep": _cmd_contdep,
    "longtime": _cmd_longtime,
    "relaxlimit": _cmd_relaxlimit,
    "selftest": _cmd_selftest,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fracphase",
                                     description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", required=True, help="path to a JSON config (or a manifest.json)")
    parser.add_argument("--out", default=None, help="output directory (default: config output.directory "
                        f"under ${OUTPUT_ROOT_ENV} if set)")
    parser.add_argument("--override", action="append", default=[], metavar="KEY=VALUE",
                        help="override a config entry, e.g. scheme.dt=5e-4 (repeatable)")
    parser.add_argument("--quiet", action="store_true")
    return parser


def resolve_out_dir(args, cfg: RunConfig) -> str:
    if args.out:
        return args.out
    root = os.environ.get(OUTPUT_ROOT_ENV)
    sub = cfg.out_dir or "fracphase-out"
    if root:
        return sub if os.path.isabs(sub) else os.path.join(root, sub)
    return sub


def main(argv=None) -> int:
    """Run one command; every failure after argument parsing lands in the
    manifest, which is written whenever the run directory is known: `--out`,
    or the config's own directory once the config validates."""
    args = build_parser().parse_args(argv)
    manifest = _ManifestWriter(args.out or None, args.command)
    code = EXIT_OK
    try:
        raw = apply_overrides(load_raw_config(args.config), args.override)
        manifest.payload.update(config=raw, config_hash=config_hash(raw))
        cfg = validate_config(raw)
        manifest.out_dir = resolve_out_dir(args, cfg)
        manifest.advise(cfg)
        summary = COMMANDS[args.command](cfg, read_study(cfg, args.command), manifest)
        if not args.quiet:
            print(summary)
        if not manifest.all_passed:
            manifest.payload["status"] = "check_failed"
            code = EXIT_CHECK
    except (ConfigError, ValidationError, ExpressionError, BasisBuildError) as exc:
        manifest.fail("validation", str(exc), exc)
        print(f"configuration error: {exc}", file=sys.stderr)
        code = EXIT_CONFIG
    except (BlowupError, OverflowGuardError, ResolventError) as exc:
        manifest.fail("solver", str(exc), exc)
        if isinstance(exc, BlowupError):
            manifest.payload["failure"].update(step=exc.step, t=exc.t, row=exc.row)
        print(f"solver failure: {exc}", file=sys.stderr)
        code = EXIT_SOLVER
    except OSError as exc:
        manifest.fail("io", str(exc), exc)
        print(f"I/O failure: {exc}", file=sys.stderr)
        code = EXIT_IO
    except Exception as exc:
        # a defect, not bad input: record it so no crash leaves an "ok" manifest
        manifest.fail("internal", f"{type(exc).__name__}: {exc}", exc)
        traceback.print_exc()
        code = EXIT_INTERNAL
    except BaseException as exc:
        manifest.fail("interrupted", type(exc).__name__, exc)
        raise
    finally:
        if manifest.out_dir is not None:
            try:
                manifest.write()
            except OSError as exc:
                print(f"cannot write manifest: {exc}", file=sys.stderr)
                code = EXIT_IO
    return code


if __name__ == "__main__":
    sys.exit(main())
