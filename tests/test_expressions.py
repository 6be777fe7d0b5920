"""Config expressions evaluated on their basis grid.

The closure builders below are a verbatim copy of the form the expression
module had when space expressions returned callables over arbitrary points,
which assembly then evaluated on the basis grid.  The grid values the module
returns now must equal, bit for bit, those closures evaluated at
`grid_points`.
"""
import numpy as np
import pytest

from fracphase import expressions
from fracphase.expressions import (ExpressionError, _number, _object, _terms,
                                   is_number)
from fracphase.spectral import SpectralBasis, build_basis, eigenfunctions_at

def _size(points: np.ndarray) -> int:
    return points.shape[0] if points.ndim > 1 else points.size


def _axis_values(points: np.ndarray, axis: int, ndim: int) -> np.ndarray:
    return points.reshape(-1) if ndim == 1 else points[:, axis]


def _space_term(term, basis: SpectralBasis, where: str):
    """Parse one space term into a callable points -> values."""
    term = _object(term, where)
    kind = term.get("kind")
    ndim = basis.ndim
    amp = _number(term, "amplitude", where, 1.0)
    if kind == "constant":
        value = _number(term, "value", where)
        return lambda points: np.full(_size(points), value)
    if kind in ("cos", "sin"):
        k = term.get("k")
        ks = k if type(k) is list else [k]
        if len(ks) != ndim or not all(type(v) is int and is_number(v) for v in ks):
            raise ExpressionError(
                f"{where}.k: must be {ndim} integer wavenumber(s), got {k!r}")
        fn = np.cos if kind == "cos" else np.sin

        def monomial(points):
            out = np.full(_size(points), amp)
            for axis, kj in enumerate(ks):
                x = _axis_values(points, axis, ndim)
                out = out * fn(kj * np.pi * x / basis.domain_extent[axis])
            return out
        return monomial
    if kind == "gaussian":
        center = term.get("center")
        centers = center if type(center) is list else [center]
        if len(centers) != ndim or not all(map(is_number, centers)):
            raise ExpressionError(f"{where}.center: must be {ndim} number(s), got {center!r}")
        center = np.asarray(centers, dtype=float)
        width = _number(term, "width", where)
        if width <= 0:
            raise ExpressionError(f"{where}.width: must be positive, got {width!r}")

        def gaussian(points):
            d2 = np.zeros(_size(points))
            for axis in range(ndim):
                d2 = d2 + (_axis_values(points, axis, ndim) - center[axis]) ** 2
            return amp * np.exp(-d2 / (2.0 * width**2))
        return gaussian
    if kind == "mode":
        j = term.get("index")
        if not (type(j) is int and 0 <= j < basis.n_modes):
            raise ExpressionError(
                f"{where}.index: must be an integer in [0, {basis.n_modes}), got {j!r}")
        return lambda points: amp * eigenfunctions_at(basis, points, [j])[:, 0]
    raise ExpressionError(f"{where}.kind: unknown space expression kind {kind!r}")


def build_space_field(spec, basis: SpectralBasis, where: str = "field"):
    """Return a callable points -> values for a space expression, or None.

    `where` names the expression in error messages, e.g. "data.theta0".
    """
    if spec is None:
        return None
    terms = [_space_term(term, basis, name) for term, name in _terms(spec, where)]

    def field(points: np.ndarray) -> np.ndarray:
        points = np.asarray(points, dtype=float)
        total = None
        for term in terms:
            vals = term(points)
            total = vals if total is None else total + vals
        return total

    return field


def _time_factor(spec, where: str) -> callable:
    if spec is None:
        return lambda t: 1.0
    spec = _object(spec, where)
    kind = spec.get("kind")
    amp = _number(spec, "amplitude", where, 1.0)
    if kind == "constant":
        value = _number(spec, "value", where, amp)
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
    """The (space, time) factor pairs of a source spec as a tuple, or None.

    A source spec is a {"space": ..., "time": ...} product or a list of such
    products; the source f(x, t) is the sum of space(x) * time(t), so
    assembly projects each space factor once instead of the whole source at
    every sample.
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


INTERVAL_TERMS = [
    {"kind": "constant", "value": 0.3},
    {"kind": "cos", "k": 2, "amplitude": 0.7},
    {"kind": "sin", "k": 3},
    {"kind": "gaussian", "center": 0.3, "width": 0.1, "amplitude": 1.5},
    {"kind": "mode", "index": 3, "amplitude": 2.0},
]
RECT_TERMS = [
    {"kind": "constant", "value": -0.2},
    {"kind": "cos", "k": [1, 2], "amplitude": 0.5},
    {"kind": "sin", "k": [2, 1], "amplitude": 1.3},
    {"kind": "gaussian", "center": [0.4, 0.9], "width": 0.2},
    {"kind": "mode", "index": 4, "amplitude": -1.5},
]
TIMES = [None, {"kind": "exp", "rate": -1.0, "amplitude": 0.5},
         {"kind": "cos", "omega": 3.0, "phase": 0.2}, {"kind": "constant", "value": 2.5},
         {"kind": "constant", "amplitude": 3.0}]
BASES = [("interval_neumann", 1.0, 8, 64, INTERVAL_TERMS),
         ("interval_dirichlet", 1.7, 12, 96, INTERVAL_TERMS),
         ("rect_neumann", [1.0, 1.5], 10, 24, RECT_TERMS)]


@pytest.mark.parametrize("kind,extent,n,m,terms", BASES)
def test_space_values_match_closures_on_grid(kind, extent, n, m, terms):
    basis = build_basis(kind, extent, n, m)
    for spec in terms + [terms]:
        values = expressions.build_space_field(spec, basis)
        assert np.array_equal(values, build_space_field(spec, basis)(basis.grid_points)), spec
    assert expressions.build_space_field(None, basis) is None


@pytest.mark.parametrize("kind,extent,n,m,terms", BASES)
def test_source_products_match_closures_on_grid(kind, extent, n, m, terms):
    basis = build_basis(kind, extent, n, m)
    spec = [{"space": space, "time": time}
            for space, time in zip(terms + [terms], TIMES + TIMES[:1])]
    new, old = expressions.build_source(spec, basis), build_source(spec, basis)
    assert len(new) == len(old) == len(spec)
    for (space, time), (old_space, old_time) in zip(new, old):
        assert np.array_equal(space, old_space(basis.grid_points))
        for t in (0.0, 0.3, 1.7, 12.0):
            assert time(t) == old_time(t)
    assert expressions.build_source(None, basis) is None


def test_constant_amplitude_multiplies_value(neumann8):
    field = expressions.build_space_field(
        {"kind": "constant", "value": 0.1, "amplitude": 5}, neumann8)
    assert np.array_equal(field, np.full(neumann8.n_grid, 5 * 0.1))
    times = [{"kind": "constant", "value": 2, "amplitude": 3},
             {"kind": "constant", "amplitude": 3}, {"kind": "constant", "value": 2}]
    source = expressions.build_source(
        [{"space": {"kind": "constant", "value": 1}, "time": time} for time in times],
        neumann8)
    assert [time(0.4) for _, time in source] == [6.0, 3.0, 2.0]


def _full_grid_monomial(term, basis: SpectralBasis) -> np.ndarray:
    """A verbatim copy of the cos/sin evaluation on every grid node, the form
    `expressions._space_term` had before it evaluated each axis on its own
    nodes."""
    points = basis.grid_points
    axes = [points] if basis.ndim == 1 else points.T  # the grid's coordinates per axis
    amp = _number(term, "amplitude", "oracle", 1.0)
    k = term.get("k")
    ks = k if type(k) is list else [k]
    fn = np.cos if term["kind"] == "cos" else np.sin
    out = np.full(basis.n_grid, amp)
    for x, kj, length in zip(axes, ks, basis.domain_extent):
        out = out * fn(kj * np.pi * x / length)
    return out


@pytest.mark.parametrize("extent", [[1.0, 1.0], [1.3, 0.7]])
@pytest.mark.parametrize("kind", ["rect_dirichlet", "rect_neumann"])
def test_separable_terms_per_axis_match_full_grid(kind, extent):
    basis = build_basis(kind, extent, 16, 64)
    for fn in ("cos", "sin"):
        for k in ([1, 1], [3, 0], [2, 5]):
            for amp in (1.0, 0.37, -2.5):
                term = {"kind": fn, "k": k, "amplitude": amp}
                assert np.array_equal(expressions.build_space_field(term, basis),
                                      _full_grid_monomial(term, basis)), term
    interval = build_basis("interval_dirichlet", extent[1], 8, 64)
    for fn in ("cos", "sin"):
        term = {"kind": fn, "k": 3, "amplitude": 0.37}
        assert np.array_equal(expressions.build_space_field(term, interval),
                              _full_grid_monomial(term, interval))


@pytest.mark.parametrize("kind", ["rect_dirichlet", "rect_neumann"])
def test_grid_terms_keep_the_stored_grid_bytes(kind):
    # the gaussian and mode terms read grid_points, which the axes now form:
    # their values equal, byte for byte, the closures above on the grid a
    # basis stored before (x repeated, y tiled)
    extent, m = [1.3, 0.7], 40
    basis = build_basis(kind, extent, 9, m)
    x, y = (np.linspace(0.0, length, m) for length in extent)
    stored = np.column_stack([np.repeat(x, m), np.tile(y, m)])
    for spec in ({"kind": "gaussian", "center": [0.4, 0.3], "width": 0.15, "amplitude": 0.7},
                 {"kind": "mode", "index": 5, "amplitude": -1.3}):
        got = expressions.build_space_field(spec, basis)
        assert got.tobytes() == build_space_field(spec, basis)(stored).tobytes(), spec
