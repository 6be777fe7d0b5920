"""Span tracer that wraps the public functions of the fracphase modules.

Consumer modules bind names at import time (`from .spectral import
synthesize`), so wrapping only `fracphase.spectral.synthesize` would miss
almost every call. `Tracer.install` therefore replaces the function in its
home module and in every `fracphase.*` module that holds the same object, and
`Tracer.uninstall` puts every original back.

Spans live in flat arrays (name id, parent index, start, end) until the call
ends; `summarize` turns them into per-name call counts and self times, where
self time is a span's duration minus the time its child spans cover.
"""
from __future__ import annotations

import functools
import sys
from array import array
from time import perf_counter

import numpy as np

# (home module, attribute, span name). Both steppers share one span name so
# per-step counts do not depend on the scheme.
FUNCTIONS = (
    ("fracphase.spectral", "synthesize", "spectral.synthesize"),
    ("fracphase.spectral", "analyze", "spectral.analyze"),
    ("fracphase.spectral", "build_basis", "spectral.build_basis"),
    ("fracphase.potentials", "resolvent", "potentials.resolvent"),
    ("fracphase.potentials", "yosida", "potentials.yosida"),
    ("fracphase.potentials", "moreau", "potentials.moreau"),
    ("fracphase.potentials", "prox_step", "potentials.prox_step"),
    ("fracphase.potentials", "potential_energy_density", "potentials.potential_energy_density"),
    ("fracphase.galerkin", "assemble", "galerkin.assemble"),
    ("fracphase.galerkin", "eval_nonlinearity", "galerkin.eval_nonlinearity"),
    ("fracphase.galerkin", "apply_coupling", "galerkin.apply_coupling"),
    ("fracphase.galerkin", "project_data", "galerkin.project_data"),
    ("fracphase.timestepper", "integrate", "timestepper.integrate"),
    ("fracphase.timestepper", "step_imex", "timestepper.step"),
    ("fracphase.timestepper", "step_implicit_prox", "timestepper.step"),
    ("fracphase.analysis", "relaxation_limit_study", "analysis.relaxation_limit_study"),
    ("fracphase.analysis", "solve_relaxation_limit", "analysis.solve_relaxation_limit"),
    ("fracphase.analysis", "omega_limit_probe", "analysis.omega_limit_probe"),
    ("fracphase.config", "load_raw_config", "config.load_raw_config"),
    ("fracphase.config", "validate_config", "config.validate_config"),
    ("fracphase.config", "build_system", "config.build_system"),
    ("fracphase.cli", "main", "cli.main"),
    ("fracphase.cli", "emit_run_outputs", "cli.emit_run_outputs"),
)

# (home module, class, method, span name). The ledger update is per-step work
# that integrate calls between steps; its own span keeps per-step counts exact
# integers, separate from the per-snapshot work of `record`.
METHODS = (
    ("fracphase.galerkin", "DiscreteSystem", "source_at", "galerkin.source_at"),
    ("fracphase.timestepper", "_LedgerAccumulator", "accumulate", "timestepper.ledger"),
)

# consumer bindings that must be wrapped for the counts to mean anything;
# patching only the home modules would leave these untraced
REQUIRED_BINDINGS = (
    ("fracphase.galerkin", "synthesize"), ("fracphase.galerkin", "analyze"),
    ("fracphase.galerkin", "yosida"),
    ("fracphase.timestepper", "synthesize"), ("fracphase.timestepper", "analyze"),
    ("fracphase.timestepper", "eval_nonlinearity"), ("fracphase.timestepper", "apply_coupling"),
    ("fracphase.timestepper", "prox_step"),
    ("fracphase.analysis", "integrate"), ("fracphase.analysis", "assemble"),
    ("fracphase.cli", "integrate"), ("fracphase.cli", "synthesize"),
    ("fracphase.cli", "build_system"), ("fracphase.config", "build_basis"),
    ("fracphase.config", "assemble"),
)

PER_STEP_SCOPES = ("timestepper.step", "timestepper.ledger")
OUTSIDE, STEP, INTEGRATE = 0, 1, 2


def _transform_bytes(basis, *_args, **_kwargs) -> float:
    """Bytes of the dense m x n float64 transform matrix one call reads (computed)."""
    return 8.0 * basis.n_grid * basis.n_modes


def _resolvent_points(_pot, _eps, s, *_args, **_kwargs) -> float:
    return float(np.size(s))


# per-call work counters: span name -> (counter name, f(*args) -> amount)
WORK = {
    "spectral.synthesize": ("spectral.transform_bytes_computed", _transform_bytes),
    "spectral.analyze": ("spectral.transform_bytes_computed", _transform_bytes),
    "potentials.resolvent": ("potentials.resolvent.points", _resolvent_points),
}


class Tracer:
    """Records one span per wrapped call while installed."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._patches: list[tuple[object, str, object]] = []
        self._stack: list[int] = []
        self.reset()

    def reset(self) -> None:
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack.clear()
        self.work: dict[str, float] = {}
        self.snapshots = 0

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, span: str, fn):
        nid = self._id(span)
        work = WORK.get(span)
        counts_snapshots = span == "timestepper.integrate"
        st = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(st[-1] if st else -1)
            self.end.append(0.0)
            st.append(idx)
            self.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = perf_counter()
                st.pop()
            if work is not None:
                key, amount = work
                self.work[key] = self.work.get(key, 0.0) + amount(*args, **kwargs)
            if counts_snapshots:
                self.snapshots += len(result.times)
            return result

        return traced

    def install(self) -> list[str]:
        """Wrap every traced function at its home and at each consumer binding.

        Returns the REQUIRED_BINDINGS left unwrapped, which the caller reports.
        """
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "fracphase" or n.startswith("fracphase."))]
        for home, attr, span in FUNCTIONS:
            original = getattr(sys.modules[home], attr, None)
            if original is None:
                print(f"tracer: {home}.{attr} not found, not traced", file=sys.stderr)
                continue
            wrapper = self._wrap(span, original)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, name, value))
                        setattr(module, name, wrapper)
        for home, cls_name, method, span in METHODS:
            cls = getattr(sys.modules[home], cls_name, None)
            original = vars(cls).get(method) if cls is not None else None
            if original is None:
                print(f"tracer: {home}.{cls_name}.{method} not found, not traced",
                      file=sys.stderr)
                continue
            self._patches.append((cls, method, original))
            setattr(cls, method, self._wrap(span, original))
        return [f"{mod}.{attr}" for mod, attr in REQUIRED_BINDINGS
                if not hasattr(getattr(sys.modules[mod], attr, None), "__wrapped__")]

    def uninstall(self) -> None:
        for target, name, original in reversed(self._patches):
            setattr(target, name, original)
        self._patches.clear()

    def summarize(self, scale: float = 1.0) -> dict:
        """Per span name: calls, total and self seconds, and where the calls ran.

        Times are multiplied by `scale`. `calls_in_step` counts calls inside a
        step or ledger update; `calls_in_integrate` counts the other calls made
        inside integrate.
        """
        name = np.array(self.name, dtype=np.int64)
        parent = np.array(self.parent, dtype=np.int64)
        dur = scale * (np.array(self.end) - np.array(self.start))
        child = np.zeros(dur.size)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_time = dur - child

        # parents precede their children, so one forward pass finds each
        # span's nearest enclosing scope: a step or ledger update (per-step
        # work) or the rest of integrate (per-snapshot and per-run work)
        scope_of = {self._ids[s]: STEP for s in PER_STEP_SCOPES if s in self._ids}
        if "timestepper.integrate" in self._ids:
            scope_of[self._ids["timestepper.integrate"]] = INTEGRATE
        names = self.name.tolist()
        scope = [OUTSIDE] * dur.size
        for i, p in enumerate(self.parent.tolist()):
            if p >= 0:
                scope[i] = scope_of.get(names[p], scope[p])
        scope = np.array(scope, dtype=np.int64)

        n = len(self.names)
        calls = np.bincount(name, minlength=n)
        total = np.bincount(name, weights=dur, minlength=n)
        selfs = np.bincount(name, weights=self_time, minlength=n)
        in_step = np.bincount(name[scope == STEP], minlength=n)
        in_integrate = np.bincount(name[scope == INTEGRATE], minlength=n)
        out = {}
        for k, span in enumerate(self.names):
            out[span] = {"calls": int(calls[k]), "total_s": float(total[k]),
                         "self_s": float(selfs[k]), "calls_in_step": int(in_step[k]),
                         "calls_in_integrate": int(in_integrate[k])}
        return {"spans": out, "work": dict(self.work), "snapshots": self.snapshots}
