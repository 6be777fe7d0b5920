"""Run configuration: parsing, validation, and problem construction.

Configs are JSON files with nested sections (geometry, exponents, potential,
coupling, data, scheme, study, output).  Validation is collected per key so a
broken config reports every offending field with the violated constraint.
"""
from __future__ import annotations

import copy
import json
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import expressions
from .galerkin import Coupling, ProblemData, assemble
from .potentials import Potential, by_name
from .spectral import BASIS_KINDS, SpectralBasis, build_basis, min_grid_nodes
from .timestepper import SCHEMES, SchemeConfig


class ConfigError(Exception):
    """Invalid configuration; .problems lists (key, constraint) pairs."""

    def __init__(self, problems):
        self.problems = list(problems)
        lines = "; ".join(f"{key}: {msg}" for key, msg in self.problems)
        super().__init__(f"invalid configuration: {lines}")


@dataclass
class OperatorSpec:
    kind: str
    extent: tuple[float, ...]
    n_modes: int
    m_grid: Optional[int]
    exponent: float


@dataclass
class RunConfig:
    operator_a: OperatorSpec
    operator_b: OperatorSpec
    potential_kind: str
    eps: float
    c1: Optional[float]
    c2: Optional[float]
    gamma: Optional[float]
    coupling: dict
    data: dict
    scheme: SchemeConfig
    t_final: float
    snapshot_stride: int
    study: dict
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
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ConfigError([("<root>", "config must be a JSON object")])
    # manifests embed the config they ran with; accept them directly
    if "config" in raw and "geometry" not in raw:
        raw = raw["config"]
    return raw


def _operator_spec(section: dict, label: str, exponent_key: str,
                   exponent: float, problems: list) -> OperatorSpec | None:
    kind = section.get("kind")
    if kind not in BASIS_KINDS:
        problems.append((f"geometry.{label}.kind",
                         f"must be one of {BASIS_KINDS}, got {kind!r}"))
        return None
    extent = section.get("extent")
    ext = tuple(np.atleast_1d(np.asarray(extent, dtype=float)).tolist()) if extent is not None else ()
    want = 2 if kind.startswith("rect") else 1
    extent_ok = len(ext) == want and all(e > 0 for e in ext)
    if not extent_ok:
        problems.append((f"geometry.{label}.extent",
                         f"needs {want} positive value(s), got {extent!r}"))
    n_modes = section.get("n_modes")
    if not isinstance(n_modes, int) or n_modes < 1:
        problems.append((f"geometry.{label}.n_modes", f"must be a positive integer, got {n_modes!r}"))
        n_modes = 1
    m_grid = section.get("m_grid")
    need = min_grid_nodes(kind, ext, n_modes) if extent_ok else 0
    if m_grid is not None and (not isinstance(m_grid, int) or m_grid < need):
        problems.append((f"geometry.{label}.m_grid",
                         f"must be an integer >= {need}, four times the 1-D modes "
                         f"per axis, got {m_grid!r}"))
    if not (isinstance(exponent, (int, float)) and exponent > 0):
        problems.append((f"exponents.{exponent_key}", f"must be positive, got {exponent!r}"))
        exponent = 0.5
    return OperatorSpec(kind=kind, extent=ext, n_modes=n_modes, m_grid=m_grid,
                        exponent=float(exponent))


def validate_config(raw: dict) -> RunConfig:
    problems: list[tuple[str, str]] = []

    geometry = raw.get("geometry", {})
    exponents = raw.get("exponents", {})
    op_a = _operator_spec(geometry.get("a", {}), "a", "r",
                          exponents.get("r", 0.5), problems)
    op_b = _operator_spec(geometry.get("b", {}), "b", "sigma",
                          exponents.get("sigma", 0.5), problems)

    pot = raw.get("potential", {})
    pot_kind = pot.get("kind")
    if pot_kind not in ("regular", "logarithmic", "double_obstacle", "none"):
        problems.append(("potential.kind",
                         f"must be regular|logarithmic|double_obstacle|none, got {pot_kind!r}"))
    eps = pot.get("eps", 0.0)
    if not isinstance(eps, (int, float)) or eps < 0:
        problems.append(("potential.eps", f"must be >= 0, got {eps!r}"))
    c1, c2, gamma = pot.get("c1"), pot.get("c2"), pot.get("gamma")
    if pot_kind == "logarithmic" and (not isinstance(c1, (int, float)) or c1 <= 1):
        problems.append(("potential.c1", f"logarithmic potential needs c1 > 1, got {c1!r}"))
    if pot_kind == "double_obstacle" and (not isinstance(c2, (int, float)) or c2 <= 0):
        problems.append(("potential.c2", f"double obstacle needs c2 > 0, got {c2!r}"))
    if gamma is not None and (not isinstance(gamma, (int, float)) or gamma < 0):
        problems.append(("potential.gamma", f"must be >= 0, got {gamma!r}"))

    coupling = raw.get("coupling", {"kind": "constant", "value": 0.0})
    ckind = coupling.get("kind")
    if ckind == "constant":
        if not isinstance(coupling.get("value"), (int, float)):
            problems.append(("coupling.value", "constant coupling needs a numeric value"))
    elif ckind == "function":
        if coupling.get("name") != "tanh":
            problems.append(("coupling.name", f"only the 'tanh' builtin ships, got {coupling.get('name')!r}"))
    else:
        problems.append(("coupling.kind", f"must be constant|function, got {ckind!r}"))

    scheme_raw = raw.get("scheme", {})
    scheme_name = scheme_raw.get("scheme", "imex_euler")
    if scheme_name not in SCHEMES:
        problems.append(("scheme.scheme", f"must be one of {SCHEMES}, got {scheme_name!r}"))
        scheme_name = "imex_euler"
    dt = scheme_raw.get("dt", 1e-3)
    if not isinstance(dt, (int, float)) or dt <= 0:
        problems.append(("scheme.dt", f"must be positive, got {dt!r}"))
        dt = 1e-3
    t_final = scheme_raw.get("t_final", 1.0)
    if not isinstance(t_final, (int, float)) or t_final <= 0:
        problems.append(("scheme.t_final", f"must be positive, got {t_final!r}"))
        t_final = 1.0
    stride = scheme_raw.get("snapshot_stride", 1)
    if not isinstance(stride, int) or stride < 1:
        problems.append(("scheme.snapshot_stride", f"must be a positive integer, got {stride!r}"))
        stride = 1
    # keys of the retired proximal fixed-point loop; old manifests still replay
    advisories = tuple(f"scheme.{key} is ignored: the proximal step is closed form"
                       for key in ("fixed_point_tol", "max_inner_iters")
                       if key in scheme_raw)

    if pot_kind == "double_obstacle" and eps == 0 and scheme_name == "imex_euler":
        problems.append(("scheme.scheme",
                         "double_obstacle at eps = 0 requires implicit_prox"))

    data = raw.get("data", {})
    output = raw.get("output", {})
    grid_times = tuple(float(t) for t in output.get("grid_times", ()))
    seed = raw.get("seed", 0)
    if not isinstance(seed, int):
        problems.append(("seed", f"must be an integer, got {seed!r}"))
        seed = 0

    if problems:
        raise ConfigError(problems)

    return RunConfig(
        operator_a=op_a,
        operator_b=op_b,
        potential_kind=pot_kind,
        eps=float(eps),
        c1=None if c1 is None else float(c1),
        c2=None if c2 is None else float(c2),
        gamma=None if gamma is None else float(gamma),
        coupling=coupling,
        data=data,
        scheme=SchemeConfig(scheme=scheme_name, dt=float(dt)),
        t_final=float(t_final),
        snapshot_stride=stride,
        study=raw.get("study", {}),
        out_dir=output.get("directory"),
        grid_times=grid_times,
        seed=seed,
        raw=raw,
        advisories=advisories,
    )


def build_coupling(cfg: RunConfig) -> Coupling:
    section = cfg.coupling
    if section.get("kind") == "constant":
        return Coupling.constant(section["value"])
    offset = float(section.get("offset", 0.0))
    scale = float(section.get("scale", 1.0))
    return Coupling.function(lambda v: offset + scale * np.tanh(v))


def build_bases(cfg: RunConfig) -> tuple[SpectralBasis, SpectralBasis]:
    a, b = cfg.operator_a, cfg.operator_b
    basis_a = build_basis(a.kind, a.extent, a.n_modes, a.m_grid)
    if (b.kind, b.extent, b.n_modes, b.m_grid) == (a.kind, a.extent, a.n_modes, a.m_grid):
        return basis_a, basis_a
    return basis_a, build_basis(b.kind, b.extent, b.n_modes, b.m_grid)


def build_potential(cfg: RunConfig) -> Potential:
    return by_name(cfg.potential_kind, c1=cfg.c1, c2=cfg.c2, gamma=cfg.gamma)


def build_problem_data(cfg: RunConfig, basis_a: SpectralBasis,
                       basis_b: SpectralBasis) -> ProblemData:
    theta0 = expressions.build_space_field(cfg.data.get("theta0"), basis_a)
    phi0 = expressions.build_space_field(cfg.data.get("phi0"), basis_b)
    source = expressions.build_source(cfg.data.get("source"), basis_a)
    return ProblemData(theta0=theta0, phi0=phi0, source=source,
                       coupling=build_coupling(cfg))


def build_system(cfg: RunConfig):
    """Construct (system, basis_a, basis_b, potential, data) from a config."""
    basis_a, basis_b = build_bases(cfg)
    potential = build_potential(cfg)
    data = build_problem_data(cfg, basis_a, basis_b)
    system = assemble(data, basis_a, basis_b, cfg.operator_a.exponent,
                      cfg.operator_b.exponent, cfg.eps, potential)
    return system, basis_a, basis_b, potential, data
