"""Built-in expression vocabulary for problem data.

Configs describe initial fields and sources with small JSON fragments:
constants, sin/cos monomials tied to the domain extents, Gaussians,
eigenfunction modes, and separable space*time products with exponential or
cosine time factors.  This covers every shipped scenario without pulling in
an expression-language dependency.  A space expression is evaluated once,
on the grid of its basis, when its field or source is built: the result is
an array of grid values, which assembly projects.  Every term's `amplitude`
(default 1) multiplies it, a constant's `value` included.  A malformed term
fails as an ExpressionError naming the term.
"""
from __future__ import annotations

import sys

import numpy as np

from .spectral import SpectralBasis, eigenfunctions_at


class ExpressionError(ValueError):
    pass


_FLOAT_MAX = sys.float_info.max


def is_number(value) -> bool:
    """A finite JSON number.  Booleans, strings, NaN, +-Infinity and integers
    beyond the float range are not; every numeric config entry obeys this."""
    return type(value) in (int, float) and -_FLOAT_MAX <= value <= _FLOAT_MAX


def _number(term: dict, name: str, where: str, default=None) -> float:
    value = term.get(name, default)
    if not is_number(value):
        raise ExpressionError(f"{where}.{name}: must be a finite number, got {value!r}")
    return float(value)


def _object(term, where: str) -> dict:
    if type(term) is not dict:
        raise ExpressionError(f"{where}: must be an object, got {term!r}")
    return term


def _terms(spec, where: str) -> list[tuple[object, str]]:
    """(term, name) pairs of a single term or a nonempty list of terms."""
    if type(spec) is not list:
        return [(spec, where)]
    if not spec:
        raise ExpressionError(f"{where}: must hold at least one term")
    return [(term, f"{where}[{i}]") for i, term in enumerate(spec)]


def _space_term(term, basis: SpectralBasis, where: str) -> np.ndarray:
    """The values of one space term on the basis grid."""
    term = _object(term, where)
    kind = term.get("kind")
    ndim = basis.ndim
    amp = _number(term, "amplitude", where, 1.0)
    if kind == "constant":
        return np.full(basis.n_grid, amp * _number(term, "value", where))
    if kind in ("cos", "sin"):
        k = term.get("k")
        ks = k if type(k) is list else [k]
        if len(ks) != ndim or not all(type(v) is int and is_number(v) for v in ks):
            raise ExpressionError(
                f"{where}.k: must be {ndim} integer wavenumber(s), got {k!r}")
        fn = np.cos if kind == "cos" else np.sin
        # separable: each factor on its own axis's nodes, then their outer
        # product, which forms (amp*fx)*fy as the product on every node does
        out = amp
        for x, kj, length in zip(basis.axis_nodes, ks, basis.domain_extent):
            out = np.multiply.outer(out, fn(kj * np.pi * x / length))
        return out.ravel()
    if kind == "gaussian":
        center = term.get("center")
        centers = center if type(center) is list else [center]
        if len(centers) != ndim or not all(map(is_number, centers)):
            raise ExpressionError(f"{where}.center: must be {ndim} number(s), got {center!r}")
        center = np.asarray(centers, dtype=float)
        width = _number(term, "width", where)
        if width <= 0:
            raise ExpressionError(f"{where}.width: must be positive, got {width!r}")
        d2 = np.zeros(basis.n_grid)
        for x, c in zip(basis.grid_points.reshape(-1, ndim).T, center):
            d2 = d2 + (x - c) ** 2
        return amp * np.exp(-d2 / (2.0 * width**2))
    if kind == "mode":
        j = term.get("index")
        if not (type(j) is int and 0 <= j < basis.n_modes):
            raise ExpressionError(
                f"{where}.index: must be an integer in [0, {basis.n_modes}), got {j!r}")
        return amp * eigenfunctions_at(basis, basis.grid_points, [j])[:, 0]
    raise ExpressionError(f"{where}.kind: unknown space expression kind {kind!r}")


def build_space_field(spec, basis: SpectralBasis, where: str = "field"):
    """The values of a space expression on the grid of `basis`, or None.

    `where` names the expression in error messages, e.g. "data.theta0".
    """
    if spec is None:
        return None
    values = [_space_term(term, basis, name) for term, name in _terms(spec, where)]
    return sum(values[1:], values[0])


def _time_factor(spec, where: str) -> callable:
    if spec is None:
        return lambda t: 1.0
    spec = _object(spec, where)
    kind = spec.get("kind")
    amp = _number(spec, "amplitude", where, 1.0)
    if kind == "constant":
        value = amp * _number(spec, "value", where, 1.0)
        return lambda t: value
    if kind == "exp":
        rate = _number(spec, "rate", where)
        return lambda t: amp * np.exp(rate * t)
    if kind == "cos":
        omega = _number(spec, "omega", where)
        phase = _number(spec, "phase", where, 0.0)
        return lambda t: amp * np.cos(omega * t + phase)
    raise ExpressionError(f"{where}.kind: unknown time expression kind {kind!r}")


def build_source(spec, basis: SpectralBasis, where: str = "source"):
    """The (space values, time factor) pairs of a source spec as a tuple, or
    None.

    A source spec is a {"space": ..., "time": ...} product or a list of such
    products; the source f(x, t) is the sum of space(x) * time(t), so
    assembly projects each space factor's grid values once instead of the
    whole source at every sample.
    """
    if spec is None:
        return None
    parts = []
    for product, name in _terms(spec, where):
        product = _object(product, name)
        if product.get("space") is None:
            raise ExpressionError(f"{name}.space: a source product needs a space factor")
        parts.append((build_space_field(product["space"], basis, f"{name}.space"),
                      _time_factor(product.get("time"), f"{name}.time")))
    return tuple(parts)
