"""References for the march that do not depend on its array shapes: the
per-step call counts of each benchmark workload's config shape, and the
closed-form solution of the linear system (potential kind "none", constant
coupling) the march must converge to at first order."""
import collections
import copy

import numpy as np
import pytest

import fracphase.galerkin
import fracphase.timestepper
from conftest import gauss_legendre_gram
from fracphase.analysis import limit_system
from fracphase.config import build_system, build_systems, validate_config
from fracphase.galerkin import DiscreteSystem, project_data, stack_systems
from fracphase.timestepper import integrate


def interval(n, m, kind="interval_neumann"):
    return {"kind": kind, "extent": 1.0, "n_modes": n, "m_grid": m}


EXPONENT, COUPLING = 0.5, 0.7  # r = sigma, and the constant coupling ell


def config(geometry, potential, scheme, source=None, coupling=COUPLING):
    data = {"theta0": [{"kind": "constant", "value": 0.1},
                       {"kind": "mode", "index": 1, "amplitude": 0.5}],
            "phi0": [{"kind": "constant", "value": 0.1},
                     {"kind": "mode", "index": 1, "amplitude": 0.3}]}
    if source is not None:
        data["source"] = source
    return {"geometry": geometry, "exponents": {"r": EXPONENT, "sigma": EXPONENT},
            "potential": potential, "coupling": {"kind": "constant", "value": coupling},
            "data": data, "scheme": scheme, "seed": 1}


SOURCE = {"space": {"kind": "mode", "index": 1, "amplitude": 0.5},
          "time": {"kind": "exp", "rate": -1.0}}
REGULAR = {"kind": "regular", "gamma": 1.0, "eps": 0.01}
IMEX = {"scheme": "imex_euler", "dt": 0.001, "t_final": 0.02, "snapshot_stride": 5}

# each benchmark workload's shape on a small size: its bases (the FFT path at
# n_modes * m_grid >= 2**18 for interval-wide), potential, scheme, source and,
# for obstacle-ladder, its stacked sigma ladder at eps = 0.  The counts are
# the calls one step makes, so a step that gains a transform or a source
# sample fails here.
CALL_COUNTS = {
    "interval-longtime": (
        config({"a": interval(8, 64), "b": interval(8, 64)}, REGULAR, IMEX),
        {"synthesize": 1, "analyze": 1, "source_at": 0}),
    "rect-mixed": (
        config({"a": {"kind": "rect_dirichlet", "extent": [1.0, 1.0], "n_modes": 6,
                      "m_grid": 24},
                "b": {"kind": "rect_neumann", "extent": [1.0, 1.0], "n_modes": 6,
                      "m_grid": 24}}, REGULAR, IMEX, SOURCE),
        {"synthesize": 1, "analyze": 1, "source_at": 1}),
    "obstacle-ladder": (
        config({"a": interval(16, 64), "b": interval(16, 64)},
               {"kind": "double_obstacle", "c2": 0.5, "eps": 0.0},
               dict(IMEX, scheme="implicit_prox"), coupling=2.0),
        {"synthesize": 1, "analyze": 1, "source_at": 0}),
    "interval-wide": (
        config({"a": interval(128, 2048), "b": interval(128, 2048)}, REGULAR,
               dict(IMEX, t_final=0.005), SOURCE),
        {"synthesize": 1, "analyze": 1, "source_at": 1}),
}


@pytest.mark.parametrize("workload", sorted(CALL_COUNTS))
def test_per_step_call_counts(monkeypatch, workload):
    raw, want = CALL_COUNTS[workload]
    cfg = validate_config(copy.deepcopy(raw))
    if workload == "obstacle-ladder":
        system = stack_systems(build_systems(cfg, [(s, 0.0) for s in (0.5, 0.25, 0.1)]))
    else:
        system = build_system(cfg)
    counts, in_step = collections.Counter(), [False]

    def counting(name, fn):
        def counted(*args, **kwargs):
            counts[name] += in_step[0]
            return fn(*args, **kwargs)
        return counted

    for module in (fracphase.galerkin, fracphase.timestepper):
        for name in ("synthesize", "analyze"):
            monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    monkeypatch.setattr(DiscreteSystem, "source_at",
                        counting("source_at", DiscreteSystem.source_at))
    step = fracphase.timestepper.step_imex

    def stepping(*args):
        in_step[0] = True
        counts["steps"] += 1
        try:
            return step(*args)
        finally:
            in_step[0] = False

    monkeypatch.setattr(fracphase.timestepper, "step_imex", stepping)
    integrate(system, cfg.scheme, cfg.t_final, cfg.snapshot_stride)
    assert counts["steps"] == round(cfg.t_final / cfg.scheme.dt)
    assert {name: counts[name] / counts["steps"] for name in want} == want


# ---------------------------------------------------------------------------
# the linear system in closed form


def exact_final_state(system: DiscreteSystem, t: float, time_terms,
                      phi_stiff: np.ndarray | None = None) -> np.ndarray:
    """[Theta(t), Phi(t)] of the linear Galerkin system the march discretizes
    at potential kind "none" and a constant coupling ell:

        Phi' = -M Phi + E^T Theta,
        Theta' = -(Lambda + E E^T) Theta + E M Phi + f(t) q,

    from the projected data, with q the projected source and f(s) the sum of
    the terms a*exp(r*s) of `time_terms`, a list of (a, r) pairs: r = 0 for a
    constant factor, and a conjugate pair of complex terms for a cosine.
    Lambda, M and E are built here from the config's exponents and coupling,
    the bases' eigenvalues and a Gauss-Legendre Gram matrix, not from the
    system's arrays; `phi_stiff` replaces the diagonal of M (the sigma -> 0
    limit's mask I - P).  numpy's eig diagonalizes the matrix, and each
    mode's Duhamel integral is closed form.
    """
    lam = np.diag(system.basis_a.eigenvalues ** (2.0 * EXPONENT))
    mu = np.diag(system.basis_b.eigenvalues ** (2.0 * EXPONENT)
                 if phi_stiff is None else phi_stiff)
    coupling = COUPLING * gauss_legendre_gram(system.basis_a, system.basis_b)
    matrix = np.block([[-(lam + coupling @ coupling.T), coupling @ mu],
                       [coupling.T, -mu]])
    (_, q), = system.source
    force = np.concatenate([q, np.zeros(system.n_b)])
    y0 = np.concatenate(project_data(system))
    d, v = np.linalg.eig(matrix)
    z0, p = np.linalg.solve(v, y0), np.linalg.solve(v, force)
    duhamel = 0.0
    for a, r in time_terms:
        gap = r - d
        # a * int_0^t exp(d (t - s)) exp(r s) ds, with its limit a*t*exp(d t) at r = d
        tiny = np.abs(gap * t) < 1e-8
        duhamel = duhamel + a * np.where(
            tiny, t * np.exp(d * t), (np.exp(r * t) - np.exp(d * t)) / np.where(tiny, 1.0, gap))
    y = v @ (np.exp(d * t) * z0 + duhamel * p)
    assert np.max(np.abs(y.imag)) <= 1e-10 * np.max(np.abs(y.real))
    return y.real


GEOMETRIES = {
    "interval": {"a": interval(8, 64), "b": interval(8, 64)},
    "mixed_dn": {"a": interval(8, 64, "interval_dirichlet"), "b": interval(8, 64)},
    "rect": {"a": {"kind": "rect_neumann", "extent": [1.0, 1.5], "n_modes": 6, "m_grid": 24},
             "b": {"kind": "rect_neumann", "extent": [1.0, 1.5], "n_modes": 6, "m_grid": 24}},
}
# the config's time factor as its terms (a, r) of a sum of a*exp(r*t); a
# cosine amp*cos(omega t + phase) is the conjugate pair amp/2 e^(+-i phase)
# e^(+-i omega t)
COS_AMP, COS_OMEGA, COS_PHASE = 1.1, 6.0, 0.4
TIME_FACTORS = {
    "constant": ({"kind": "constant", "value": 0.8}, [(0.8, 0.0)]),
    "exp": ({"kind": "exp", "rate": -1.5, "amplitude": 1.2}, [(1.2, -1.5)]),
    "cos": ({"kind": "cos", "omega": COS_OMEGA, "phase": COS_PHASE, "amplitude": COS_AMP},
            [(0.5 * COS_AMP * np.exp(sign * 1j * COS_PHASE), sign * 1j * COS_OMEGA)
             for sign in (1, -1)]),
}


# each march against the closed form: one per time factor, and "limit",
# `limit_system`'s sigma -> 0 march under a constant factor, whose
# phi-equation takes the mask I - P (1 off the kernel of B, 0 on it) in place
# of M; every geometry's B basis is Neumann, so that kernel is its constant mode
MARCHES = {factor: (factor, False) for factor in TIME_FACTORS}
MARCHES["limit"] = ("constant", True)


@pytest.mark.parametrize("march", sorted(MARCHES))
@pytest.mark.parametrize("geometry", sorted(GEOMETRIES))
def test_linear_march_converges_to_the_exact_solution(geometry, march):
    factor, limit = MARCHES[march]
    spec, time_terms = TIME_FACTORS[factor]
    source = {"space": {"kind": "mode", "index": 1, "amplitude": 0.5}, "time": spec}
    errors = []
    for dt in (4e-3, 2e-3, 1e-3):
        raw = config(GEOMETRIES[geometry], {"kind": "none"},
                     {"scheme": "implicit_prox" if limit else "imex_euler", "dt": dt,
                      "t_final": 0.5, "snapshot_stride": 1000}, source)
        cfg = validate_config(raw)
        system, mask = build_system(cfg), None
        if limit:
            system = limit_system(system)
            mask = np.where(system.basis_b.eigenvalues == 0.0, 0.0, 1.0)
            assert mask[0] == 0.0 and mask[1:].all()
        run = integrate(system, cfg.scheme, cfg.t_final, cfg.snapshot_stride)
        final = np.concatenate([run.theta_series[-1], run.phi_series[-1]])
        errors.append(np.linalg.norm(final - exact_final_state(system, cfg.t_final,
                                                                time_terms, mask)))
    ratios = np.array(errors[:-1]) / np.array(errors[1:])
    # implicit-explicit Euler is first order: halving dt halves the error
    assert np.all((1.9 <= ratios) & (ratios <= 2.1)), ratios
    assert errors[-1] <= 5e-4

