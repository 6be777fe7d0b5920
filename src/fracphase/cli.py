"""Command-line surface: configuration-driven runs with CSV/JSON outputs.

Subcommands map one-to-one onto the solver and analysis drivers:

  simulate    integrate one scenario, emit time series / snapshots / manifest
  converge    refinement study along n_modes | eps | dt | sigma
  contdep     continuous-dependence ratio ladder
  longtime    long-horizon run plus the stationarity probe
  relaxlimit  sigma -> 0 ladder against the direct limit solver
  opcheck     fractional-operator consistency checks (sigma -> 0 identity)
  selftest    spectral + convex-analysis property suites

Exit codes: 0 ok, 1 internal error, 2 configuration error, 3 solver failure,
4 check failure, 5 I/O failure.
"""
from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import sys
import time
import traceback

import numpy as np

from . import __version__
from .analysis import (contdep_report, convergence_study, hpqo_probe,
                       omega_limit_probe, relaxation_limit_study,
                       sigma_zero_operator_check)
from .config import (ConfigError, RunConfig, apply_overrides, build_bases,
                     build_potential, build_problem_data, build_system,
                     load_raw_config, read_study, validate_config)
from .expressions import ExpressionError
from .galerkin import (OverflowGuardError, ProblemData, ValidationError, assemble,
                       stack_systems)
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


def _write_atomic(path: str, text: str) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
    os.replace(tmp, path)


def write_columns(path: str, header: str, columns) -> str:
    """Write float columns as CSV text, one row per line, each value as _fmt
    writes it; returns the text.

    "%.17g" % x is the same text as _fmt(x); one format per row instead of a
    call per value halves the cost of large grid files.
    """
    fmt = ",".join(["%.17g"] * len(columns))
    rows = zip(*(np.asarray(c, dtype=float).tolist() for c in columns))
    text = "\n".join([header, *(fmt % row for row in rows)]) + "\n"
    _write_atomic(path, text)
    return text


def emit_run_outputs(run: RunOutput, system, out_dir: str,
                     grid_times=()) -> list[str]:
    """Write timeseries.csv, snapshots.csv, optional grid slices, plot data."""
    os.makedirs(out_dir, exist_ok=True)
    files = []

    led = run.ledger
    columns = [run.times, run.norm_theta, run.graph_theta, run.norm_phi, run.graph_phi,
               run.dtphi_norm, led.lhs, led.rhs, led.residual]
    path = os.path.join(out_dir, "timeseries.csv")
    timeseries = write_columns(path, TIMESERIES_HEADER, columns)
    files.append(path)

    snap_rows = []
    for t, theta, phi in zip(run.times.tolist(), run.theta_series.tolist(),
                             run.phi_series.tolist()):
        t = _fmt(t)
        snap_rows.extend("%s,theta,%d,%.17g" % (t, j, c) for j, c in enumerate(theta))
        snap_rows.extend("%s,phi,%d,%.17g" % (t, j, c) for j, c in enumerate(phi))
    path = os.path.join(out_dir, "snapshots.csv")
    _write_atomic(path, "\n".join([SNAPSHOT_HEADER, *snap_rows]) + "\n")
    files.append(path)

    # one file per distinct recorded snapshot the requests snap to
    for k in dict.fromkeys(int(np.argmin(np.abs(run.times - t))) for t in grid_times):
        theta_grid = synthesize(system.basis_a, run.theta_series[k])
        phi_grid = synthesize(system.basis_b, run.phi_series[k])
        pts = system.basis_b.grid_points
        if pts.ndim == 1:
            header, coords = "x,theta,phi", [pts]
        else:
            header, coords = "x,y,theta,phi", [pts[:, 0], pts[:, 1]]
        path = os.path.join(out_dir, f"grid_{float(run.times[k])!r}.csv")
        write_columns(path, header, coords + [theta_grid, phi_grid])
        files.append(path)

    # the plot data is the CSV text space-separated: %.17g text holds no comma
    path = os.path.join(out_dir, "timeseries.dat")
    _write_atomic(path, "# " + timeseries.replace(",", " "))
    files.append(path)
    return files


def read_timeseries(path: str) -> dict[str, np.ndarray]:
    """Re-ingest a timeseries.csv into named columns."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        data = [[float(v) for v in line.strip().split(",")] for line in fh if line.strip()]
    arr = np.asarray(data)
    return {name: arr[:, k] for k, name in enumerate(header)}


class _ManifestWriter:
    """Collects run metadata and guarantees a manifest lands on disk."""

    def __init__(self, out_dir: str, command: str, raw_config: dict):
        self.out_dir = out_dir
        self.started = time.perf_counter()
        self.payload = {
            "artifact": "fracphase",
            "version": __version__,
            "command": command,
            "config": raw_config,
            "config_hash": None if raw_config is None else config_hash(raw_config),
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

    def add_files(self, files) -> None:
        self.payload["files"].extend(os.path.basename(f) for f in files)

    def write_table(self, name: str, header: str, rows) -> None:
        """Write a study table (rows of text cells) into the run directory."""
        os.makedirs(self.out_dir, exist_ok=True)
        path = os.path.join(self.out_dir, name)
        _write_atomic(path, "\n".join([header, *map(",".join, rows)]) + "\n")
        self.add_files([path])

    def write(self) -> str:
        self.payload["wall_clock_s"] = time.perf_counter() - self.started
        os.makedirs(self.out_dir, exist_ok=True)
        path = os.path.join(self.out_dir, "manifest.json")
        _write_atomic(path, json.dumps(self.payload, indent=2, sort_keys=True) + "\n")
        return path

    @property
    def all_passed(self) -> bool:
        return all(entry["passed"] for entry in self.payload["checks"].values())


# ---------------------------------------------------------------------------
# subcommands


def _simulate_and_emit(cfg: RunConfig, manifest: _ManifestWriter,
                       out_dir: str) -> tuple:
    """Assemble and march the config's system and write its run outputs.

    On a BlowupError the partial outputs are written before the error
    propagates; `main` records the solver failure.
    """
    system = build_system(cfg)
    manifest.payload["advisories"].extend(system.advisories)
    try:
        run = integrate(system, cfg.scheme, cfg.t_final, cfg.snapshot_stride)
    except BlowupError as exc:
        manifest.add_files(emit_run_outputs(exc.partial, system, out_dir, cfg.grid_times))
        raise
    manifest.add_files(emit_run_outputs(run, system, out_dir, cfg.grid_times))
    return system, run


def _cmd_simulate(cfg: RunConfig, manifest: _ManifestWriter, out_dir: str) -> str:
    read_study(cfg, "simulate")
    _, run = _simulate_and_emit(cfg, manifest, out_dir)
    resid = float(np.max(run.ledger.residual))
    manifest.check("energy_ledger_finite", bool(np.all(np.isfinite(run.ledger.residual))),
                   {"max_residual": resid})
    return f"simulate: {run.times.size} snapshots, max energy residual {resid:.3e}"


def _cmd_converge(cfg: RunConfig, manifest: _ManifestWriter, out_dir: str) -> str:
    study = read_study(cfg, "converge")
    axis, values = study["axis"], study["values"]
    basis_a, basis_b = build_bases(cfg)
    potential = build_potential(cfg)
    data = build_problem_data(cfg, basis_a, basis_b)

    def make_system(value):
        ba, bb, level_data, eps = basis_a, basis_b, data, cfg.eps
        r, sigma = cfg.operator_a.exponent, cfg.operator_b.exponent
        if axis == "n_modes":
            # each level on its default grid, which grows with n_modes
            level = dataclasses.replace(cfg, **{
                name: dataclasses.replace(getattr(cfg, name), n_modes=value, m_grid=None)
                for name in ("operator_a", "operator_b")})
            ba, bb = build_bases(level)
            level_data = build_problem_data(cfg, ba, bb)
        elif axis == "eps":
            eps = float(value)
        elif axis == "sigma":
            sigma = float(value)
        return assemble(level_data, ba, bb, r, sigma, eps, potential)

    def march(system, dt, stride):
        scheme = SchemeConfig(cfg.scheme.scheme, dt=dt)
        return integrate(system, scheme, cfg.t_final, stride).rows()

    systems = [make_system(v) for v in values]
    if axis == "sigma":
        # the potentials branch on a scalar eps, so only sigma levels share a batch
        runs = march(stack_systems(systems), *study["levels"][0])
    else:
        runs = [run for system, level in zip(systems, study["levels"])
                for run in march(system, *level)]
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

    monotone = bool(np.all(np.diff(errors["phi_l2_h"][:-1]) <= 0.0)) \
        if len(values) > 2 else True
    manifest.check("errors_decrease", monotone, {"errors": errors["phi_l2_h"]})
    return f"converge[{axis}]: errors {errors['phi_l2_h']}"


def _cmd_contdep(cfg: RunConfig, manifest: _ManifestWriter, out_dir: str) -> str:
    study = read_study(cfg, "contdep")
    deltas = study["deltas"]
    basis_a, basis_b = build_bases(cfg)
    potential = build_potential(cfg)
    base = build_problem_data(cfg, basis_a, basis_b)
    mode = synthesize(basis_a, np.eye(basis_a.n_modes)[study["mode_index"]])

    def system(data: ProblemData):
        return assemble(data, basis_a, basis_b, cfg.operator_a.exponent,
                        cfg.operator_b.exponent, cfg.eps, potential)

    # the base run and one run per datum theta0 + delta*e_mode march as one
    # stacked system
    systems = [system(base)]
    theta0 = systems[0].theta0_grid
    systems += [system(dataclasses.replace(base, theta0=theta0 + float(d) * mode))
                for d in deltas]
    runs = integrate(stack_systems(systems), cfg.scheme, cfg.t_final,
                     cfg.snapshot_stride).rows()
    reports = [contdep_report(systems[0], runs[0], system, run)
               for system, run in zip(systems[1:], runs[1:])]
    ratios = np.array([r.ratio for r in reports], dtype=float)

    rows = [[_fmt(d), _fmt(r.lhs), _fmt(r.rhs), _fmt(r.ratio)]
            for d, r in zip(deltas, reports)]
    manifest.write_table("study_contdep.csv", "delta,lhs,rhs,ratio", rows)

    finite = bool(np.all(np.isfinite(ratios)))
    spread = float(ratios.max() / ratios.min() - 1.0) if finite and ratios.min() > 0 else np.inf
    manifest.check("ratio_finite", finite)
    manifest.check("ratio_stable", spread < study["max_ratio_spread"],
                   {"spread": spread, "ratios": ratios.tolist()})
    return f"contdep: ratios {ratios}, spread {spread:.3%}"


def _cmd_longtime(cfg: RunConfig, manifest: _ManifestWriter, out_dir: str) -> str:
    study = read_study(cfg, "longtime")
    tail_threshold = study["tail_threshold"]
    system, run = _simulate_and_emit(cfg, manifest, out_dir)
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


def _cmd_relaxlimit(cfg: RunConfig, manifest: _ManifestWriter, out_dir: str) -> str:
    sigmas = read_study(cfg, "relaxlimit")["sigmas"]
    basis_a, basis_b = build_bases(cfg)
    potential = build_potential(cfg)
    data = build_problem_data(cfg, basis_a, basis_b)
    try:
        ladder = [assemble(data, basis_a, basis_b, cfg.operator_a.exponent,
                           float(sigma), cfg.eps, potential) for sigma in sigmas]
        report = relaxation_limit_study(ladder, cfg.scheme.dt, cfg.t_final,
                                        cfg.snapshot_stride)
    except ValueError as exc:
        raise ConfigError([("study.relaxlimit", str(exc))]) from None

    rows = [[_fmt(s), _fmt(pe), _fmt(te)]
            for s, pe, te in zip(report.sigmas, report.phi_errors, report.theta_errors)]
    manifest.write_table("study_relaxlimit.csv", "sigma,phi_l2q_error,theta_l2q_error", rows)
    manifest.check("errors_decreasing", report.monotone,
                   {"phi": report.phi_errors, "theta": report.theta_errors})
    return f"relaxlimit: phi errors {report.phi_errors} (monotone={report.monotone})"


def _cmd_opcheck(cfg: RunConfig, manifest: _ManifestWriter, out_dir: str) -> str:
    study = read_study(cfg, "opcheck")
    sigmas = [float(s) for s in study["sigmas"]]
    _, basis_b = build_bases(cfg)
    rng = np.random.default_rng(cfg.seed)
    if study["vector"] is None:
        coeffs = rng.standard_normal(basis_b.n_modes)
        coeffs /= 1.0 + basis_b.eigenvalues  # smooth test vector
    else:
        coeffs = np.zeros(basis_b.n_modes)
        index, amplitude = study["vector"]
        coeffs[index] = amplitude

    chk = sigma_zero_operator_check(basis_b, coeffs, sigmas)
    rows = [[_fmt(s), _fmt(d), _fmt(c)]
            for s, d, c in zip(chk["sigma"], chk["direct"], chk["closed_form"])]
    manifest.write_table("study_opcheck.csv", "sigma,error_direct,error_closed_form", rows)

    agree = float(np.max(np.abs(chk["direct"] - chk["closed_form"])))
    manifest.check("closed_form_agreement", agree <= 1e-12, {"max_diff": agree})
    decreasing = bool(np.all(np.diff(chk["direct"]) < 0.0)) if len(sigmas) > 1 else True
    manifest.check("errors_decreasing", decreasing, {"errors": chk["direct"].tolist()})

    if study["hpqo_vectors"] is not None:
        pot = build_potential(cfg)
        vectors = rng.standard_normal((study["hpqo_vectors"], basis_b.n_modes))
        vectors /= (1.0 + basis_b.eigenvalues)
        eps = cfg.eps if cfg.eps > 0 else 1e-2
        rep = hpqo_probe(basis_b, cfg.operator_b.exponent, pot, eps, vectors)
        manifest.write_table("study_hpqo.csv", "vector,value",
                             [[str(k), _fmt(v)] for k, v in enumerate(rep.values)])
        manifest.payload["checks"]["hpqo_sign"] = {
            "passed": True,  # diagnostic only, never a gate
            "detail": {"min_value": rep.min_value, "violations": rep.violations},
        }
    return f"opcheck: direct vs closed-form agree to {agree:.2e}"


def _selftest_rows(seed: int) -> list[tuple[str, str, int, float, float, bool]]:
    """Property suites over random samples; one row per (check, kind)."""
    rng = np.random.default_rng(seed)
    rows = []

    for kind in ("interval_neumann", "interval_dirichlet"):
        basis = build_basis(kind, 1.0, 64, 512)
        defect = gram_defect(basis)
        rows.append(("gram_identity", kind, 64, defect, 1e-10, defect <= 1e-10))
        worst = 0.0
        for _ in range(100):
            v = rng.standard_normal(64)
            two = fractional_multipliers(basis, 0.7) * (
                fractional_multipliers(basis, 0.3) * v)
            one = fractional_multipliers(basis, 1.0) * v
            scale = np.max(np.abs(one)) or 1.0
            worst = max(worst, float(np.max(np.abs(two - one)) / scale))
        rows.append(("semigroup_relative", kind, 100, worst, 1e-13, worst <= 1e-13))
        v = rng.standard_normal(64)
        p = kernel_projection(basis, v)
        idem = float(np.max(np.abs(kernel_projection(basis, p) - p)))
        rows.append(("kernel_projection_idempotent", kind, 1, idem, 1e-12, idem <= 1e-12))

    # sampling windows keep the logarithmic resolvent inside representable
    # territory (the root approaches the domain endpoint exponentially in s/eps)
    pots = {
        "regular": (regular_potential(), (-5.0, 5.0), (1e-4, 1.0)),
        "logarithmic": (logarithmic_potential(2.0), (-1.6, 1.6), (0.05, 1.0)),
        "double_obstacle": (double_obstacle_potential(0.5), (-5.0, 5.0), (1e-4, 1.0)),
    }
    n_eps, n_s = 25, 40
    for name, (pot, s_range, eps_range) in pots.items():
        worst_env = worst_res = worst_mono = worst_lip = worst_nonexp = 0.0
        for e in np.geomspace(eps_range[0], eps_range[1], n_eps):
            e = float(e)
            ss = rng.uniform(*s_range, size=n_s)
            j = np.asarray(resolvent(pot, e, ss))
            if pot.kind == "double_obstacle":
                res = np.abs(j - np.clip(ss, -1.0, 1.0))
            else:
                res = np.abs(j + e * np.asarray(pot.beta(j)) - ss)
            worst_res = max(worst_res, float(np.max(res)))
            env = np.asarray(moreau(pot, e, ss))
            bh = np.asarray(pot.beta_hat(ss))
            finite = np.isfinite(bh)
            worst_env = max(worst_env, float(np.max(np.maximum(
                -env, np.where(finite, env - bh, 0.0)))))
            env2 = np.asarray(moreau(pot, e / 2.0, ss))
            worst_mono = max(worst_mono, float(np.max(env - env2)))
            tt = rng.uniform(*s_range, size=n_s)
            by_s = np.asarray(yosida(pot, e, ss))
            by_t = np.asarray(yosida(pot, e, tt))
            gap = np.abs(ss - tt) + 1e-300
            worst_lip = max(worst_lip, float(np.max(e * np.abs(by_s - by_t) / gap - 1.0)))
            jt = np.asarray(resolvent(pot, e, tt))
            worst_nonexp = max(worst_nonexp, float(np.max(np.abs(j - jt) / gap - 1.0)))
        n = n_eps * n_s
        rows.append(("resolvent_residual", name, n, worst_res, 1e-10, worst_res <= 1e-10))
        rows.append(("envelope_bounds", name, n, worst_env, 1e-12, worst_env <= 1e-12))
        rows.append(("envelope_monotone_in_eps", name, n, worst_mono, 1e-12,
                     worst_mono <= 1e-12))
        rows.append(("yosida_lipschitz", name, n, worst_lip, 1e-9, worst_lip <= 1e-9))
        rows.append(("resolvent_nonexpansive", name, n, worst_nonexp, 1e-9,
                     worst_nonexp <= 1e-9))
    return rows


def _cmd_selftest(cfg: RunConfig, manifest: _ManifestWriter, out_dir: str) -> str:
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
    "opcheck": _cmd_opcheck,
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
    args = build_parser().parse_args(argv)
    raw = None
    try:
        raw = apply_overrides(load_raw_config(args.config), args.override)
        cfg = validate_config(raw)
    except (ConfigError, ValidationError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        if args.out:
            # --out names the run directory: record the rejection there, with
            # the config when it was read
            manifest = _ManifestWriter(args.out, args.command, raw)
            manifest.fail("validation", str(exc), exc)
            return _write_manifest(manifest, EXIT_CONFIG)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return EXIT_IO
    except json.JSONDecodeError as exc:
        print(f"config is not valid JSON: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    out_dir = resolve_out_dir(args, cfg)
    manifest = _ManifestWriter(out_dir, args.command, cfg.raw)
    manifest.payload["advisories"].extend(cfg.advisories)
    code = EXIT_OK
    try:
        summary = COMMANDS[args.command](cfg, manifest, out_dir)
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
        code = _write_manifest(manifest, code)
    return code


def _write_manifest(manifest: _ManifestWriter, code: int) -> int:
    """Write the manifest and return `code`, or EXIT_IO when it cannot be written."""
    try:
        manifest.write()
    except OSError as exc:
        print(f"cannot write manifest: {exc}", file=sys.stderr)
        return EXIT_IO
    return code


if __name__ == "__main__":
    sys.exit(main())
