import numpy as np
import pytest

from fracphase.galerkin import Coupling, ProblemData, assemble
from fracphase.potentials import regular_potential
from fracphase.spectral import build_basis, eigenfunctions_at
from fracphase.timestepper import SchemeConfig, integrate


@pytest.fixture(scope="session")
def neumann8():
    return build_basis("interval_neumann", 1.0, 8)


@pytest.fixture(scope="session")
def dirichlet8():
    return build_basis("interval_dirichlet", 1.0, 8)


def smoke_data():
    """The standing smoke scenario: mild double-well dynamics with a source."""
    return ProblemData(
        theta0=lambda x: 0.1 + 0.5 * np.cos(np.pi * x),
        phi0=lambda x: 0.1 + 0.3 * np.cos(np.pi * x),
        source=lambda x, t: 0.5 * np.cos(np.pi * x) * np.exp(-t),
        coupling=Coupling.constant(0.7),
    )


def smoke_run(basis, dt=1e-3, eps=1e-2, t_final=0.5, scheme="imex_euler",
              stride=None, data=None):
    data = data or smoke_data()
    system = assemble(data, basis, basis, 0.5, 0.5, eps, regular_potential(1.0))
    if stride is None:
        stride = max(1, int(round(t_final / dt)) // 50)
    run = integrate(system, SchemeConfig(scheme, dt=dt), t_final, stride)
    return system, run


def gauss_legendre_gram(basis_a, basis_b, nodes=200):
    """(e^a_i, e^b_j) by a `nodes`-point Gauss-Legendre rule per axis.

    The integrands are smooth trigonometric products, so the rule converges
    to rounding level: the reference for the closed-form inter-basis Gram.
    """
    x, w = np.polynomial.legendre.leggauss(nodes)
    axes = [(0.5 * length * (x + 1.0), 0.5 * length * w)
            for length in basis_a.domain_extent]
    grids = np.meshgrid(*(xs for xs, _ in axes), indexing="ij")
    points = np.column_stack([g.ravel() for g in grids])
    weights = np.ones(1)
    for _, ws in axes:
        weights = np.outer(weights, ws).ravel()
    va = eigenfunctions_at(basis_a, points)
    vb = eigenfunctions_at(basis_b, points)
    return va.T @ (weights[:, None] * vb)
