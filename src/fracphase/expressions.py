"""Built-in expression vocabulary for problem data.

Configs describe initial fields and sources with small JSON fragments:
constants, sin/cos monomials tied to the domain extents, Gaussians,
eigenfunction modes, and separable space*time products with exponential or
cosine time factors.  This covers every shipped scenario without pulling in
an expression-language dependency.
"""
from __future__ import annotations

import numpy as np

from .spectral import SpectralBasis, eigenfunctions_at


class ExpressionError(ValueError):
    pass


def _axis_values(points: np.ndarray, axis: int, ndim: int) -> np.ndarray:
    if ndim == 1:
        if axis != 0:
            raise ExpressionError(f"axis {axis} out of range for a 1-D domain")
        return points.reshape(-1)
    return points[:, axis]


def _eval_space_term(term: dict, points: np.ndarray, basis: SpectralBasis) -> np.ndarray:
    kind = term.get("kind")
    ndim = basis.ndim
    amp = float(term.get("amplitude", 1.0))
    if kind == "constant":
        return np.full(points.shape[0] if points.ndim > 1 else points.size,
                       float(term["value"]))
    if kind in ("cos", "sin"):
        k = term["k"]
        ks = [int(k)] if np.isscalar(k) else [int(v) for v in k]
        if len(ks) != ndim:
            raise ExpressionError(
                f"{kind} term needs {ndim} wavenumber(s), got {term['k']!r}"
            )
        fn = np.cos if kind == "cos" else np.sin
        out = np.full(points.shape[0] if points.ndim > 1 else points.size, amp)
        for axis, kj in enumerate(ks):
            x = _axis_values(points, axis, ndim)
            out = out * fn(kj * np.pi * x / basis.domain_extent[axis])
        return out
    if kind == "gaussian":
        center = np.atleast_1d(np.asarray(term["center"], dtype=float))
        width = float(term["width"])
        if width <= 0:
            raise ExpressionError("gaussian width must be positive")
        if center.size != ndim:
            raise ExpressionError(f"gaussian center needs {ndim} component(s)")
        d2 = np.zeros(points.shape[0] if points.ndim > 1 else points.size)
        for axis in range(ndim):
            d2 = d2 + (_axis_values(points, axis, ndim) - center[axis]) ** 2
        return amp * np.exp(-d2 / (2.0 * width**2))
    if kind == "mode":
        j = int(term["index"])
        if not 0 <= j < basis.n_modes:
            raise ExpressionError(f"mode index {j} outside 0..{basis.n_modes - 1}")
        return amp * eigenfunctions_at(basis, points, [j])[:, 0]
    raise ExpressionError(f"unknown space expression kind {term!r}")


def build_space_field(spec, basis: SpectralBasis):
    """Return a callable points -> values for a space expression, or None."""
    if spec is None:
        return None
    terms = spec if isinstance(spec, list) else [spec]

    def field(points: np.ndarray) -> np.ndarray:
        points = np.asarray(points, dtype=float)
        total = None
        for term in terms:
            vals = _eval_space_term(term, points, basis)
            total = vals if total is None else total + vals
        return total

    return field


def _time_factor(spec) -> callable:
    if spec is None:
        return lambda t: 1.0
    kind = spec.get("kind")
    amp = float(spec.get("amplitude", 1.0))
    if kind == "constant":
        value = float(spec.get("value", amp))
        return lambda t: value
    if kind == "exp":
        rate = float(spec["rate"])
        return lambda t: amp * np.exp(rate * t)
    if kind == "cos":
        omega = float(spec["omega"])
        phase = float(spec.get("phase", 0.0))
        return lambda t: amp * np.cos(omega * t + phase)
    raise ExpressionError(f"unknown time expression kind {spec!r}")


class SeparableSource:
    """Sum of space(points) * time(t) products, callable as (points, t) -> values.

    `products` lists the (space, time) factor pairs, so assembly can project
    each space factor once instead of the whole source at every sample.
    """

    def __init__(self, products):
        self.products = tuple(products)

    def __call__(self, points: np.ndarray, t: float) -> np.ndarray:
        total = None
        for space, time in self.products:
            vals = space(points) * time(t)
            total = vals if total is None else total + vals
        return total


def build_source(spec, basis: SpectralBasis):
    """Return a SeparableSource for a source spec, or None.

    A source spec is a {"space": ..., "time": ...} product or a list of such
    products, summed.
    """
    if spec is None:
        return None
    products = spec if isinstance(spec, list) else [spec]
    parts = []
    for product in products:
        if "space" not in product:
            raise ExpressionError("source term needs a 'space' entry")
        space = build_space_field(product["space"], basis)
        parts.append((space, _time_factor(product.get("time"))))
    return SeparableSource(parts)
