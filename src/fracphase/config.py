"""Run configuration: parsing, validation, and problem construction.

Configs are JSON files with nested sections (geometry, exponents, potential,
coupling, data, scheme, study, output).  One reader checks every key against
one rule vocabulary and collects the problems, so a broken config reports
every offending key with the violated rule at once: `validate_config` reads
the shared keys, and `read_study` the `study.<command>` section of the
command that runs.
"""
from __future__ import annotations

import copy
import json
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import expressions
from .expressions import is_number
from .galerkin import Coupling, ProblemData, assemble
from .potentials import (Potential, double_obstacle_potential, logarithmic_potential,
                         regular_potential, zero_potential)
from .spectral import (BASIS_KINDS, RECT_KINDS, GridTooSmallError, SpectralBasis,
                       build_basis, min_grid_nodes)
from .timestepper import SCHEMES, SchemeConfig, scheme_problem, step_count


# an absent m_grid is DEFAULT_GRID_FACTOR * n_modes nodes per axis
DEFAULT_GRID_FACTOR = 8


class ConfigError(Exception):
    """Invalid configuration; .problems lists (key, constraint) pairs."""

    def __init__(self, problems):
        self.problems = list(problems)
        lines = "; ".join(f"{key}: {msg}" for key, msg in self.problems)
        super().__init__(f"invalid configuration: {lines}")


# rules are (description, predicate) pairs; a number is `is_number`
NUMBER = ("a finite number", is_number)
POSITIVE = ("a positive number", lambda v: is_number(v) and v > 0)
NONNEGATIVE = ("a number >= 0", lambda v: is_number(v) and v >= 0)
COUNT = ("a positive integer", lambda v: type(v) is int and is_number(v) and v >= 1)
STRING = ("a string", lambda v: type(v) is str)
OBJECT = ("an object", lambda v: type(v) is dict)


def index_below(n: int) -> tuple:
    return f"an integer in [0, {n})", lambda v: type(v) is int and 0 <= v < n


def one_of(*choices: str) -> tuple:
    return f"one of {choices}", lambda v: type(v) is str and v in choices


def list_of(rule: tuple, at_least: int = 0) -> tuple:
    description, valid = rule
    count = f" of at least {at_least} entries" if at_least else ""
    return (f"a list{count}, each entry {description}",
            lambda v: type(v) is list and len(v) >= at_least and all(map(valid, v)))


_REQUIRED = object()


class _Reader:
    """Reads dotted keys of a raw config, collecting every broken rule."""

    def __init__(self, raw: dict):
        self.problems: list[tuple[str, str]] = []
        self._sections = {"": raw}

    def _section(self, path: str) -> dict | None:
        """The object at dotted `path` ({} when absent), or None once a
        section on the path is not an object; each path is walked once."""
        node = self._sections.get(path, False)
        if node is False:
            parent, _, name = path.rpartition(".")
            node = self._section(parent)
            if node is not None:
                node = node.get(name, {})
                if type(node) is not dict:
                    node = self.problem(path, OBJECT, node)
            self._sections[path] = node
        return node

    def get(self, key: str, rule: tuple, default=_REQUIRED):
        """The value at dotted `key` (`default` when absent), or None after
        recording a problem when it breaks `rule` or a section on its path is
        not an object.  A key whose default is None may also be null."""
        path, _, name = key.rpartition(".")
        node = self._section(path)
        if node is None:
            return None
        value = node.get(name, default)
        if value is None and default is None:
            return None
        if value is _REQUIRED:
            return self.problem(key, rule, None)
        return value if rule[1](value) else self.problem(key, rule, value)

    def problem(self, key: str, rule: tuple, value) -> None:
        """Record, once, that `value` at `key` breaks `rule`."""
        problem = (key, f"must be {rule[0]}, got {value!r}")
        if problem not in self.problems:
            self.problems.append(problem)

    def done(self) -> None:
        if self.problems:
            raise ConfigError(self.problems)


@dataclass
class OperatorSpec:
    """One operator's basis and exponent; an absent m_grid is resolved to
    DEFAULT_GRID_FACTOR*n_modes, so equal specs build equal bases."""

    kind: str
    extent: tuple[float, ...]
    n_modes: int
    m_grid: int
    exponent: float


@dataclass
class RunConfig:
    operator_a: OperatorSpec
    operator_b: OperatorSpec
    potential: Potential
    eps: float
    coupling: Coupling
    data: dict
    scheme: SchemeConfig
    t_final: float
    snapshot_stride: int
    out_dir: Optional[str]
    grid_times: tuple[float, ...]
    seed: int
    raw: dict
    advisories: tuple[str, ...] = ()


def apply_overrides(raw: dict, overrides: list[str]) -> dict:
    """Apply repeatable --override key.path=value entries to the raw config."""
    raw = copy.deepcopy(raw)
    for item in overrides:
        if "=" not in item:
            raise ConfigError([(item, "override must look like key.path=value")])
        path, _, text = item.partition("=")
        try:
            value = json.loads(text)
        except json.JSONDecodeError:
            value = text
        node = raw
        keys = path.split(".")
        for key in keys[:-1]:
            node = node.setdefault(key, {})
            if not isinstance(node, dict):
                raise ConfigError([(path, "override path crosses a non-section value")])
        node[keys[-1]] = value
    return raw


def load_raw_config(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except ValueError as exc:  # malformed JSON or text that is not UTF-8
            raise ConfigError([("<root>", f"config is not valid JSON: {exc}")]) from None
    if not isinstance(raw, dict):
        raise ConfigError([("<root>", f"config must be a JSON object, got {raw!r}")])
    # manifests embed the config they ran with; accept them directly
    if "config" in raw and "geometry" not in raw:
        raw = raw["config"]
        if not isinstance(raw, dict):
            raise ConfigError([("config", f"must be an object, got {raw!r}")])
    return raw


def _axes(extent) -> list:
    return extent if type(extent) is list else [extent]


# an interval takes L or [L], a rectangle [Lx, Ly]
_EXTENT = {1: ("a positive number or a list of one",
               lambda v: POSITIVE[1](v[0] if type(v) is list and len(v) == 1 else v)),
           2: ("a list of two positive numbers",
               lambda v: type(v) is list and len(v) == 2 and all(map(POSITIVE[1], v)))}
_BASIS_KIND = one_of(*BASIS_KINDS)
# each potential kind's builder, called with its one parameter
_POTENTIALS = {"regular": regular_potential, "logarithmic": logarithmic_potential,
               "double_obstacle": double_obstacle_potential,
               "none": lambda _: zero_potential()}
_POTENTIAL_KIND = one_of(*_POTENTIALS)
_COUPLING_KIND = one_of("constant", "function")
_SCHEME = one_of(*SCHEMES)


def _grid_problem(label: str, need: int, m_grid) -> tuple[str, str]:
    return (f"geometry.{label}.m_grid",
            f"must be an integer >= {need}, four times the 1-D modes per axis, got {m_grid!r}")


def _operator_spec(r: _Reader, label: str, exponent_key: str) -> OperatorSpec | None:
    """The spec of operator `label`.  An interval's grid rule is closed form
    and checked here; a rectangle's reads the modes it selects, so
    `build_bases` checks it where the basis selects them, once."""
    key = f"geometry.{label}"
    kind = r.get(f"{key}.kind", _BASIS_KIND)
    ext = None
    if kind is not None:
        extent = r.get(f"{key}.extent", _EXTENT[2 if kind in RECT_KINDS else 1])
        ext = None if extent is None else tuple(map(float, _axes(extent)))
    n_modes = r.get(f"{key}.n_modes", COUNT)
    m_grid = r.get(f"{key}.m_grid", COUNT, None)
    if None not in (ext, n_modes, m_grid) and kind not in RECT_KINDS:
        need = min_grid_nodes(kind, ext, n_modes)
        if m_grid < need:
            r.problems.append(_grid_problem(label, need, m_grid))
    exponent = r.get(exponent_key, POSITIVE, 0.5)
    if None in (ext, n_modes, exponent):
        return None
    return OperatorSpec(kind=kind, extent=ext, n_modes=n_modes,
                        m_grid=DEFAULT_GRID_FACTOR * n_modes if m_grid is None else m_grid,
                        exponent=float(exponent))


def validate_config(raw: dict) -> RunConfig:
    """Read every shared key of the JSON object `raw` into a RunConfig, which
    carries the run's one potential and coupling; a ConfigError lists every
    key that breaks its rule."""
    r = _Reader(raw)
    op_a = _operator_spec(r, "a", "exponents.r")
    op_b = _operator_spec(r, "b", "exponents.sigma")

    pot_kind = r.get("potential.kind", _POTENTIAL_KIND)
    eps = r.get("potential.eps", NONNEGATIVE, 0.0)
    gamma = r.get("potential.gamma", NONNEGATIVE, None)
    parameter = 1.0 if gamma is None else gamma
    if pot_kind == "logarithmic":
        parameter = r.get("potential.c1", ("a number > 1", lambda v: is_number(v) and v > 1))
    elif pot_kind == "double_obstacle":
        parameter = r.get("potential.c2", POSITIVE)
    advisories = []
    if gamma is not None and pot_kind != "regular":
        advisories.append(f"potential.gamma is ignored: the {pot_kind} potential "
                          "fixes its own slope")
    potential = None if None in (pot_kind, parameter) else \
        _POTENTIALS[pot_kind](float(parameter))

    # an absent coupling section is the zero constant coupling
    coupling_kind = r.get("coupling.kind", _COUPLING_KIND, "constant")
    if coupling_kind == "constant":
        value = r.get("coupling.value", NUMBER, 0.0)
    elif coupling_kind == "function":
        r.get("coupling.name", one_of("tanh"))
        offset = r.get("coupling.offset", NUMBER, 0.0)
        scale = r.get("coupling.scale", NUMBER, 1.0)

    scheme_name = r.get("scheme.scheme", _SCHEME, "imex_euler")
    dt = r.get("scheme.dt", POSITIVE, 1e-3)
    t_final = r.get("scheme.t_final", POSITIVE, 1.0)
    if None not in (dt, t_final):
        try:
            step_count(float(t_final), float(dt))
        except ValueError as exc:
            r.problems.append(("scheme.t_final", str(exc)))
    stride = r.get("scheme.snapshot_stride", COUNT, 1)
    # keys of the retired proximal fixed-point loop; old manifests still replay
    scheme_raw = r.get("scheme", OBJECT, {}) or {}
    advisories += [f"scheme.{key} is ignored: the proximal step is closed form"
                   for key in ("fixed_point_tol", "max_inner_iters") if key in scheme_raw]

    if None not in (potential, eps, scheme_name):
        if problem := scheme_problem(potential, eps, scheme_name):
            r.problems.append(("scheme.scheme", problem))

    data = r.get("data", OBJECT, {})
    out_dir = r.get("output.directory", STRING, None)
    grid_times = r.get("output.grid_times", list_of(NUMBER), [])
    seed = r.get("seed", ("an integer >= 0", lambda v: type(v) is int and v >= 0), 0)
    r.done()

    if coupling_kind == "constant":
        coupling = Coupling.constant(value)
    else:
        offset, scale = float(offset), float(scale)
        coupling = Coupling.function(lambda v: offset + scale * np.tanh(v))
    return RunConfig(
        operator_a=op_a,
        operator_b=op_b,
        potential=potential,
        eps=float(eps),
        coupling=coupling,
        data=data,
        scheme=SchemeConfig(scheme=scheme_name, dt=float(dt)),
        t_final=float(t_final),
        snapshot_stride=stride,
        out_dir=out_dir,
        grid_times=tuple(float(t) for t in grid_times),
        seed=seed,
        raw=raw,
        advisories=tuple(advisories),
    )


# the values each converge axis takes
CONVERGE_AXES = {"n_modes": COUNT, "eps": NONNEGATIVE, "dt": POSITIVE, "sigma": POSITIVE}


def _converge_levels(r: _Reader, cfg: RunConfig, values: list, axis: str,
                     n_shared: int) -> list[tuple[float, int]] | None:
    """(dt, snapshot stride) per converge value; None after recording the
    values whose dt is no whole number of steps or does not nest."""
    dts = [float(v) for v in values] if axis == "dt" else [cfg.scheme.dt] * len(values)
    for dt in dts:
        try:
            step_count(cfg.t_final, dt)
        except ValueError as exc:
            r.problems.append(("study.converge.values", str(exc)))
    if r.problems:  # the reader has no other problem when this runs
        return None
    # snapshots land on multiples of a shared interval so trajectories from
    # different dt levels can be compared pointwise in time
    coarsest = max(dts)
    interval = coarsest * max(1, int(round(cfg.t_final / coarsest / n_shared)))
    strides = [max(1, int(round(interval / dt))) if math.isfinite(interval / dt) else 0
               for dt in dts]
    for dt, stride in zip(dts, strides):
        if abs(stride * dt - interval) > 1e-9 * interval:
            r.problems.append(("study.converge.values",
                               f"dt={dt} does not divide the snapshot interval "
                               f"{interval}; use nested dt values"))
    return list(zip(dts, strides))


def read_study(cfg: RunConfig, command: str) -> dict:
    """The `study.<command>` section of a validated config, every key checked
    and defaults filled in ({} for a command without one); a ConfigError lists
    every key that breaks its rule.  Only the running command's section is
    read, so the others may hold anything.  The commands that write grid files
    (simulate, longtime) also check that each `output.grid_times` entry lies
    in [0, t_final]; the others ignore them, so a study may shorten t_final."""
    r, key = _Reader(cfg.raw), f"study.{command}"
    study = {}
    if command in ("simulate", "longtime"):
        in_run = (f"a number in [0, {cfg.t_final}]",
                  lambda v: is_number(v) and 0 <= v <= cfg.t_final)
        r.get("output.grid_times", list_of(in_run), [])
    if command == "converge":
        axis = r.get(f"{key}.axis", one_of(*CONVERGE_AXES), "dt")
        values = None if axis is None else \
            r.get(f"{key}.values", list_of(CONVERGE_AXES[axis], at_least=2))
        n_shared = r.get(f"{key}.n_shared_snapshots", COUNT, 50)
        study = {"axis": axis, "values": values, "levels": None}
        if None not in (values, n_shared):
            study["levels"] = _converge_levels(r, cfg, values, axis, n_shared)
        if axis == "eps" and values is not None:
            for value in values:
                if problem := scheme_problem(cfg.potential, value, cfg.scheme.scheme):
                    r.problems.append((f"{key}.values", f"{problem}, got {value!r}"))
    elif command == "contdep":
        nonzero = ("a nonzero number", lambda v: is_number(v) and v != 0)
        study = {"deltas": r.get(f"{key}.deltas", list_of(nonzero, at_least=1),
                                 [1e-1, 1e-2, 1e-3, 1e-4]),
                 "max_ratio_spread": r.get(f"{key}.max_ratio_spread", POSITIVE, 0.2),
                 "mode_index": r.get(f"{key}.mode_index",
                                     index_below(cfg.operator_a.n_modes), 1)}
    elif command == "longtime":
        fraction = ("a number in (0, 1]", lambda v: is_number(v) and 0 < v <= 1)
        study = {"tail_fraction": r.get(f"{key}.tail_fraction", fraction, 0.1),
                 "tail_threshold": r.get(f"{key}.tail_threshold", POSITIVE, 1e-6),
                 "stationary_threshold": r.get(f"{key}.stationary_threshold",
                                               POSITIVE, 1e-5)}
    elif command == "relaxlimit":
        sigmas = r.get(f"{key}.sigmas", list_of(POSITIVE, at_least=1), [0.5, 0.25, 0.1, 0.05])
        if sigmas is not None and sigmas != sorted(sigmas, reverse=True):
            r.problems.append((f"{key}.sigmas", f"must be decreasing, got {sigmas!r}"))
        if cfg.coupling.kind != "constant":
            r.problems.append((key, "the relaxation limit requires a constant coupling"))
        study = {"sigmas": sigmas}
    r.done()
    return study


def build_bases(cfg: RunConfig) -> tuple[SpectralBasis, SpectralBasis]:
    """The two operators' bases: one object when the specs equal in all but
    the exponent, which is the one rule for sharing a basis.  A grid below a
    rectangle's rule is a ConfigError naming the spec's m_grid key."""
    a, b = cfg.operator_a, cfg.operator_b

    def build(spec: OperatorSpec, label: str) -> SpectralBasis:
        try:
            return build_basis(spec.kind, spec.extent, spec.n_modes, spec.m_grid)
        except GridTooSmallError as exc:
            raise ConfigError([_grid_problem(label, exc.need, spec.m_grid)]) from None

    basis_a = build(a, "a")
    if (b.kind, b.extent, b.n_modes, b.m_grid) == (a.kind, a.extent, a.n_modes, a.m_grid):
        return basis_a, basis_a
    return basis_a, build(b, "b")


def build_problem_data(cfg: RunConfig, basis_a: SpectralBasis,
                       basis_b: SpectralBasis) -> ProblemData:
    theta0 = expressions.build_space_field(cfg.data.get("theta0"), basis_a, "data.theta0")
    phi0 = expressions.build_space_field(cfg.data.get("phi0"), basis_b, "data.phi0")
    source = expressions.build_source(cfg.data.get("source"), basis_a, "data.source")
    return ProblemData(theta0=theta0, phi0=phi0, source=source, coupling=cfg.coupling)


def build_systems(cfg: RunConfig, levels) -> list:
    """The config's system at each (sigma, eps) of `levels`, assembled over
    bases and data built once."""
    basis_a, basis_b = build_bases(cfg)
    data = build_problem_data(cfg, basis_a, basis_b)
    return [assemble(data, basis_a, basis_b, cfg.operator_a.exponent, float(sigma),
                     float(eps), cfg.potential) for sigma, eps in levels]


def build_system(cfg: RunConfig):
    """Assemble the discrete system a config describes."""
    return build_systems(cfg, [(cfg.operator_b.exponent, cfg.eps)])[0]
