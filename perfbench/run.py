#!/usr/bin/env python3
"""Benchmark of the fracphase CLI: one workload, one process, closed loop.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root. Each measured call is one in-process
`fracphase.cli.main([...])` on the workload's generated config, into a fresh
empty output directory; the next call starts when the previous one returns.

--trace 0 reports the end-to-end metrics: `wall_s` (median seconds per CLI
call), `setup_s` (median seconds of load_raw_config + validate_config +
build_system, timed on its own) and `peak_rss_mb` (ru_maxrss of this
process). --trace 1 alternates untraced and traced calls and reports the
per-layer split of the traced ones plus the tracing overhead. Times are
reported at a reference host speed (see HostSpeed); the measured seconds are
printed alongside.

Every call is checked: it fails when cli.main raises or returns nonzero, when
the manifest is missing, not "ok", lacks an expected check or has a false
one, when an expected output file is missing or non-finite, or, on the
default seed, when the result differs from the pinned reference. The last
stdout line is the JSON result; the lines before it record the run
environment and the metrics with their sample counts.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCE_DIR = BENCH_DIR / "reference"
WORK_ROOT = ROOT / ".perfbench_work"

# Reference agreement, relative to the largest magnitude in each column.
# A closed-form resolvent or fast transforms shift results by about 1e-12;
# replacing the rect cross-mass quadrature by exact integrals shifts
# rect-mixed by up to 7.8e-7 (energy_residual). A wrong answer (a dropped
# term, a sign, a source sampled at the wrong time) moves them by 1e-3 or more.
RTOL = 1e-5

# setup is timed first, for at most this share of the run, between these
# repetition counts, in blocks of at least SETUP_BLOCK_S between calibrations
SETUP_SHARE = 0.2
SETUP_BLOCK_S = 1.0
MIN_SETUP_REPS = 3
MAX_SETUP_REPS = 10000
MIN_CALLS = 3
MIN_TRACED_CALLS = 2

# Seconds the calibration kernel takes at the reference host speed. The
# 2-vCPU virtual machine the benchmark was defined on changes speed by up to
# 2x over seconds to minutes, whatever runs on it (a fixed pure-Python loop
# swings the same way). Every timing is therefore reported at the reference
# speed: measured seconds x CALIBRATION_REFERENCE_S / the kernel's mean time
# just before and just after the timed interval.
CALIBRATION_REFERENCE_S = 0.2

# One BLAS thread, so the program and the calibration kernel run on the same
# single vCPU: with two threads the scaled times of the BLAS-heavy rect-mixed
# spread twice as wide, because the kernel does not see the second vCPU.
BLAS_THREADS = 1
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def bootstrap() -> None:
    """Set the BLAS thread count, then make `src/` and this directory importable.

    Must run before numpy is imported.
    """
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    for path in (str(BENCH_DIR), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)


def _openblas_threads():
    """Thread count OpenBLAS reports, when numpy bundles it; else None."""
    import ctypes
    import glob

    import numpy as np

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(args) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "fracphase").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": BLAS_THREADS, "blas_threads_reported": _openblas_threads(),
        "commit": commit, "source_sha256": digest.hexdigest(),
        "machine": platform.machine(),
    }


# ---------------------------------------------------------------------------
# one call and its checks


def read_csv(path: Path):
    import numpy as np

    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
    return header, np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def compare_reference(workload, header, values) -> list[str]:
    import numpy as np

    ref_header, ref = read_csv(REFERENCE_DIR / f"{workload.name}.csv")
    if header != ref_header or values.shape != ref.shape:
        return [f"result shape {header} {values.shape} differs from reference "
                f"{ref_header} {ref.shape}"]
    problems = []
    for k, col in enumerate(header):
        scale = float(np.max(np.abs(ref[:, k])))
        diff = float(np.max(np.abs(values[:, k] - ref[:, k])))
        if not diff <= RTOL * scale:
            problems.append(f"{col}: max deviation {diff:.3e} from reference exceeds "
                            f"{RTOL:g} x column scale {scale:.3e}")
    return problems


def check_outputs(workload, out_dir: Path, compare: bool) -> list[str]:
    """Problems with one call's outputs; empty when the call succeeded."""
    import numpy as np

    manifest_path = out_dir / "manifest.json"
    if not manifest_path.is_file():
        return ["manifest.json missing"]
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    problems = []
    if manifest.get("status") != "ok":
        problems.append(f"manifest status {manifest.get('status')!r}: {manifest.get('failure')}")
    checks = manifest.get("checks", {})
    for name in workload.checks:
        if name not in checks:
            problems.append(f"manifest check {name!r} missing")
    for name, entry in checks.items():
        if not entry.get("passed"):
            problems.append(f"manifest check {name!r} failed: {entry.get('detail')}")
    missing = [f for f in workload.files if not (out_dir / f).is_file()]
    if missing:
        problems.append(f"output files missing: {missing}")
    result_path = out_dir / workload.result_file
    if not result_path.is_file():
        return problems
    header, values = read_csv(result_path)
    if values.shape[0] != workload.result_rows:
        problems.append(f"{workload.result_file} has {values.shape[0]} rows, "
                        f"expected {workload.result_rows}")
    elif not np.all(np.isfinite(values)):
        problems.append(f"{workload.result_file} holds non-finite values")
    elif compare:
        problems.extend(compare_reference(workload, header, values))
    return problems


def run_call(workload, config_path: Path, out_dir: Path, compare: bool):
    """Time one cli.main call into the fresh directory out_dir; check it.

    Returns (seconds, problems, bytes written).
    """
    from fracphase import cli

    argv = [workload.command, "--config", str(config_path), "--out", str(out_dir), "--quiet"]
    gc.collect()
    start = perf_counter()
    try:
        code = cli.main(argv)
        raised = None
    except Exception as exc:  # a crash is a failed call, not a benchmark error
        code, raised = None, exc
    elapsed = perf_counter() - start
    if raised is not None:
        traceback.print_exception(raised, file=sys.stderr)
        problems = [f"cli.main raised {type(raised).__name__}: {raised}"]
    else:
        problems = [] if code == 0 else [f"cli.main returned {code}"]
    problems += check_outputs(workload, out_dir, compare)
    written = sum(p.stat().st_size for p in out_dir.rglob("*") if p.is_file()) \
        if out_dir.is_dir() else 0
    shutil.rmtree(out_dir, ignore_errors=True)
    return elapsed, problems, written


def time_setup(config_path: Path) -> float:
    from fracphase import config

    start = perf_counter()
    raw = config.load_raw_config(str(config_path))
    cfg = config.validate_config(raw)
    config.build_system(cfg)
    return perf_counter() - start


# ---------------------------------------------------------------------------
# the two modes


class HostSpeed:
    """Times a fixed calibration kernel between measured intervals.

    The kernel mixes the two kinds of work the workloads do: Python-level
    loops over small numpy calls, and dense mat-vecs on a 2 MB matrix. It
    belongs to the benchmark and must not change, or scaled times stop being
    comparable across runs.
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self._small = rng.standard_normal((128, 32))
        self._big = rng.standard_normal((1024, 256)) / 32.0
        self._last = self._kernel()

    def _kernel(self) -> float:
        import numpy as np

        small, big = self._small, self._big
        v, w = np.ones(32), np.ones(256)
        start = perf_counter()
        for _ in range(18000):
            v = small.T @ np.clip(small @ v, -1.0, 1.0) / 128.0 + 0.5 * v
        for _ in range(360):
            w = big.T @ np.tanh(big @ w)
        return perf_counter() - start

    def factor(self) -> float:
        """Reference-speed scale for the interval since the previous calibration."""
        now = self._kernel()
        factor = CALIBRATION_REFERENCE_S / (0.5 * (self._last + now))
        self._last = now
        return factor


class Calls:
    """Numbered fresh output directories and the failure tally of a run."""

    def __init__(self, workload, config_path: Path, work_dir: Path, compare: bool):
        self.workload, self.config_path, self.work_dir = workload, config_path, work_dir
        self.compare = compare
        self.attempted = 0
        self.failed = 0
        self.speed = HostSpeed()

    def run(self):
        """One checked call; returns (measured s, reference-speed factor, bytes written)."""
        out_dir = self.work_dir / f"call-{self.attempted}"
        self.attempted += 1
        elapsed, problems, written = run_call(self.workload, self.config_path, out_dir,
                                              self.compare)
        factor = self.speed.factor()
        if problems:
            self.failed += 1
            for problem in problems:
                print(f"call {self.attempted - 1} failed: {problem}", file=sys.stderr)
        return elapsed, factor, written


def measure_end_to_end(calls: Calls, seconds: float) -> dict:
    start = perf_counter()
    setup, setup_raw = [], []
    while len(setup) < MIN_SETUP_REPS or (
            perf_counter() - start < SETUP_SHARE * seconds and len(setup) < MAX_SETUP_REPS):
        block_start = perf_counter()
        block = [time_setup(calls.config_path)]
        while (perf_counter() - block_start < SETUP_BLOCK_S
               and len(setup) + len(block) < MAX_SETUP_REPS):
            block.append(time_setup(calls.config_path))
        factor = calls.speed.factor()
        setup_raw += block
        setup += [t * factor for t in block]
    walls, walls_raw = [], []
    while len(walls) < MIN_CALLS or perf_counter() - start < seconds:
        elapsed, factor, _ = calls.run()
        walls_raw.append(elapsed)
        walls.append(elapsed * factor)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    print(f"wall_s at reference speed: {[round(w, 4) for w in walls]}")
    print(f"wall_s measured: {[round(w, 4) for w in walls_raw]}, "
          f"median {statistics.median(walls_raw):.6g} s")
    print(f"setup_s measured: median {statistics.median(setup_raw):.6g} s")
    return {
        "wall_s": (statistics.median(walls), "s", len(walls)),
        "setup_s": (statistics.median(setup), "s", len(setup)),
        "peak_rss_mb": (rss_mb, "MB", 1),
    }


def measure_layers(calls: Calls, seconds: float) -> tuple[dict, list[str]]:
    from tracer import Tracer

    tracer = Tracer()
    untraced, traced, summaries, unwrapped = [], [], [], set()
    start = perf_counter()
    pattern = (False, True, True, False)  # U T T U: each side gets early and late calls
    k = 0
    while (len(traced) < MIN_TRACED_CALLS or not untraced
           or perf_counter() - start < seconds):
        if pattern[k % len(pattern)]:
            tracer.reset()
            unwrapped.update(tracer.install())
            try:
                elapsed, factor, written = calls.run()
            finally:
                tracer.uninstall()
            traced.append(elapsed * factor)
            summaries.append(tracer.summarize(scale=factor) | {"bytes_written": written})
        else:
            elapsed, factor, _ = calls.run()
            untraced.append(elapsed * factor)
        k += 1
    return layer_metrics(calls.workload, summaries, untraced, traced, sorted(unwrapped))


def _counts(summary: dict) -> dict:
    """The parts of a traced summary that must repeat exactly between calls.

    Bytes written are left out: the manifest records the call's wall clock,
    whose printed length varies.
    """
    return {"spans": {name: (s["calls"], s["calls_in_step"], s["calls_in_integrate"])
                      for name, s in summary["spans"].items()},
            "work": summary["work"], "snapshots": summary["snapshots"]}


def layer_metrics(workload, summaries, untraced, traced, unwrapped):
    """Per-layer metrics of the traced calls, and tracer self-check problems."""
    notes = [f"binding not wrapped: {b}" for b in unwrapped]
    first = summaries[0]
    errors = []
    if any(_counts(s) != _counts(first) for s in summaries[1:]):
        errors.append("traced call counts differ between calls of one run")
    spans = first["spans"]
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "calls_in_step": 0,
             "calls_in_integrate": 0}

    def span(name):
        return spans.get(name, empty)

    def self_s(name):
        return statistics.median(s["spans"].get(name, empty)["self_s"] for s in summaries)

    steps = span("timestepper.step")["calls"]
    snapshots = first["snapshots"]

    def per_step(name):
        return span(name)["calls_in_step"] / steps if steps else 0.0

    points = first["work"].get("potentials.resolvent.points", 0.0)
    step_total = statistics.median(s["spans"].get("timestepper.step", empty)["total_s"]
                                   for s in summaries)
    m = {
        "spectral.synthesize.calls_per_step": (per_step("spectral.synthesize"), "calls/step"),
        "spectral.analyze.calls_per_step": (per_step("spectral.analyze"), "calls/step"),
        "spectral.synthesize.calls_per_snapshot": (
            span("spectral.synthesize")["calls_in_integrate"] / snapshots if snapshots else 0.0,
            "calls/snapshot"),
        "spectral.synthesize.calls": (span("spectral.synthesize")["calls"], "count"),
        "spectral.analyze.calls": (span("spectral.analyze")["calls"], "count"),
        "spectral.synthesize.self_s": (self_s("spectral.synthesize"), "s"),
        "spectral.analyze.self_s": (self_s("spectral.analyze"), "s"),
        "spectral.transform_bytes_computed": (
            first["work"].get("spectral.transform_bytes_computed", 0.0), "B"),
        "spectral.build_basis.self_s": (self_s("spectral.build_basis"), "s"),
        "potentials.resolvent.calls": (span("potentials.resolvent")["calls"], "count"),
        "potentials.resolvent.points": (points, "count"),
        "potentials.resolvent.self_s": (self_s("potentials.resolvent"), "s"),
        "potentials.resolvent.ns_per_point": (
            1e9 * self_s("potentials.resolvent") / points if points else 0.0, "ns"),
        "potentials.moreau.self_s": (self_s("potentials.moreau"), "s"),
        "galerkin.assemble.self_s": (self_s("galerkin.assemble"), "s"),
        "galerkin.eval_nonlinearity.self_s": (self_s("galerkin.eval_nonlinearity"), "s"),
        "galerkin.apply_coupling.self_s": (self_s("galerkin.apply_coupling"), "s"),
        "galerkin.source_at.calls_per_step": (per_step("galerkin.source_at"), "calls/step"),
        "timestepper.steps": (steps, "count"),
        "timestepper.snapshots": (snapshots, "count"),
        "timestepper.step.self_s": (self_s("timestepper.step"), "s"),
        "timestepper.ledger.self_s": (self_s("timestepper.ledger"), "s"),
        "timestepper.integrate.self_s": (self_s("timestepper.integrate"), "s"),
        "timestepper.step_us": (1e6 * step_total / steps if steps else 0.0, "us"),
        "analysis.trajectories": (span("timestepper.integrate")["calls"], "count"),
        "analysis.relaxation_limit_study.self_s": (
            self_s("analysis.relaxation_limit_study"), "s"),
        "cli.main.self_s": (self_s("cli.main"), "s"),
        "cli.emit_run_outputs.self_s": (self_s("cli.emit_run_outputs"), "s"),
        "cli.bytes_written": (first["bytes_written"], "B"),
        "config.build_system.self_s": (self_s("config.build_system"), "s"),
        "trace.wall_s": (statistics.median(traced), "s"),
        "trace.overhead_ratio": (statistics.median(traced) / statistics.median(untraced),
                                 "ratio"),
    }

    # the per-step counts at the commit that defined the benchmark; a change
    # that alters the step structure moves them on purpose, so a mismatch is
    # reported, not failed
    seen = {"synthesize": per_step("spectral.synthesize"),
            "analyze": per_step("spectral.analyze"),
            "source_at": per_step("galerkin.source_at"),
            "synthesize_per_snapshot": m["spectral.synthesize.calls_per_snapshot"][0]}
    for key, want in workload.counts.items():
        if seen[key] != want:
            notes.append(f"{key}: {seen[key]} calls, {want} when the benchmark was defined")
    m["tracer.check_failures"] = (len(notes), "count")
    for note in notes:
        print(f"tracer self-check: {note}", file=sys.stderr)
    return {k: (v, unit, len(summaries)) for k, (v, unit) in m.items()}, errors


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "fracphase" / "cli.py").is_file():
        print(f"fracphase sources not found under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    bootstrap()

    from workloads import DEFAULT_SEED, WORKLOADS, make_config

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    print(json.dumps({"env": environment(args)}, sort_keys=True))

    work_dir = WORK_ROOT / f"{workload.name}-{os.getpid()}"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    try:
        config_path = work_dir / "config.json"
        config_path.write_text(json.dumps(make_config(workload, args.seed), indent=2),
                               encoding="utf-8")
        calls = Calls(workload, config_path, work_dir, compare=args.seed == DEFAULT_SEED)
        errors = []
        if args.trace:
            metrics, errors = measure_layers(calls, args.seconds)
        else:
            metrics = measure_end_to_end(calls, args.seconds)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass

    for error in errors:
        print(f"benchmark check failed: {error}", file=sys.stderr)
    for name, (value, unit, n) in metrics.items():
        print(f"{name} = {value:.6g} {unit} (n={n})")
    print(f"failed_share = {calls.failed / calls.attempted:.6g} "
          f"({calls.failed} of {calls.attempted} calls failed)")
    print(json.dumps({
        "correct": calls.failed == 0 and not errors,
        "attempted": calls.attempted,
        "failed": calls.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
