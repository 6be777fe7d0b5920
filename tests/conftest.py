import importlib.util
import json
import os
import sys

import numpy as np
import pytest

from fracphase.galerkin import Coupling, ProblemData, assemble
from fracphase.potentials import regular_potential
from fracphase.spectral import (build_basis, eigenfunctions_at, fractional_multipliers,
                                kernel_projection)
from fracphase.timestepper import SchemeConfig, integrate


BENCH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")


def bench_workload(monkeypatch, name):
    """The benchmark workload `name` of perfbench/workloads.py."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", os.path.join(BENCH, "workloads.py"))
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclass looks it up
    spec.loader.exec_module(workloads)
    return workloads.WORKLOADS[name]


@pytest.fixture(scope="session")
def neumann8():
    return build_basis("interval_neumann", 1.0, 8, 64)


@pytest.fixture(scope="session")
def dirichlet8():
    return build_basis("interval_dirichlet", 1.0, 8, 64)


def smoke_data():
    """The standing smoke scenario: mild double-well dynamics with a source."""
    return ProblemData(
        theta0=lambda x: 0.1 + 0.5 * np.cos(np.pi * x),
        phi0=lambda x: 0.1 + 0.3 * np.cos(np.pi * x),
        source=((lambda x: 0.5 * np.cos(np.pi * x), lambda t: np.exp(-t)),),
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


def same_bits(a, b):
    """Two float arrays of one shape holding the same bits."""
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def bisect_resolvent(beta, eps, s, lo, hi, iters=200):
    """Independent bisection oracle for x + eps*beta(x) = s, pointwise on
    the bracket [lo, hi] (broadcast against s)."""
    lo, hi = np.broadcast_arrays(np.asarray(lo, dtype=float), np.asarray(hi, dtype=float))
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if np.all((mid == lo) | (mid == hi)):
            break
        above = mid + eps * beta(mid) - s > 0
        lo, hi = np.where(above, lo, mid), np.where(above, mid, hi)
    return 0.5 * (lo + hi)


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


def read_timeseries(path):
    """A run's timeseries.csv as named columns."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        data = [[float(v) for v in line.strip().split(",")] for line in fh if line.strip()]
    arr = np.asarray(data)
    return {name: arr[:, k] for k, name in enumerate(header)}


def sigma_zero_errors(basis, coeffs, sigmas):
    """|B^sigma v - (v - Pv)| per sigma, as two arrays from two routes.

    The direct route applies the fractional multiplier and subtracts the
    kernel complement; the closed form sums (mu_j^sigma - 1)^2 v_j^2 over the
    positive eigenvalues.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    complement = coeffs - kernel_projection(basis, coeffs)
    positive = basis.eigenvalues > 0.0
    direct, closed = [], []
    for sigma in sigmas:
        mult = fractional_multipliers(basis, float(sigma))
        direct.append(np.linalg.norm(mult * coeffs - complement))
        closed.append(np.sqrt(np.sum((mult[positive] - 1.0) ** 2 * coeffs[positive] ** 2)))
    return np.array(direct), np.array(closed)


def _reject_constant(token):
    raise ValueError(f"manifest holds {token}, which is not JSON")


def read_manifest(out_dir):
    """A run's manifest.json, parsed as strict JSON: NaN and +-Infinity
    tokens fail the parse."""
    with open(os.path.join(out_dir, "manifest.json"), "r", encoding="utf-8") as fh:
        return json.load(fh, parse_constant=_reject_constant)
