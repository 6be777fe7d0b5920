import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracphase.potentials import (CoercivityReport, ResolventError,
                                  coercivity_probe, custom_potential,
                                  double_obstacle_potential,
                                  logarithmic_potential, moreau, prox_step,
                                  regular_potential, resolvent, yosida,
                                  zero_potential)

# sampling windows per kind; the logarithmic window keeps the resolvent root
# representable in float64 (it approaches the endpoint like exp(-(|s|-1)/eps))
KINDS = {
    "regular": (regular_potential(), (-5.0, 5.0), (1e-4, 1.0)),
    "logarithmic": (logarithmic_potential(2.0), (-1.6, 1.6), (0.05, 1.0)),
    "double_obstacle": (double_obstacle_potential(0.5), (-5.0, 5.0), (1e-4, 1.0)),
}


def bisect_resolvent(beta, eps, s, lo, hi, iters=200):
    """Independent bisection oracle for x + eps*beta(x) = s."""
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if mid + eps * beta(mid) - s > 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


class TestCanonicalSplits:
    def test_regular_reassembles_double_well(self):
        pot = regular_potential(1.0)
        s = np.linspace(-2, 2, 41)
        full = pot.beta_hat(s) + pot.pi_hat(s)
        assert np.allclose(full, 0.25 * (s**2 - 1.0) ** 2, atol=1e-14)

    def test_logarithmic_values(self):
        pot = logarithmic_potential(2.0)
        assert pot.beta_hat(np.array([0.0]))[0] == 0.0
        assert pot.beta_hat(np.array([1.0]))[0] == pytest.approx(2 * np.log(2))
        assert pot.beta_hat(np.array([1.5]))[0] == np.inf
        assert np.isnan(pot.beta(np.array([1.0]))[0])  # flagged outside D(beta)

    def test_obstacle_domain(self):
        pot = double_obstacle_potential(0.5)
        assert pot.beta_hat(np.array([0.7]))[0] == 0.0
        assert pot.beta_hat(np.array([1.2]))[0] == np.inf

    def test_gamma_recorded(self):
        assert regular_potential(1.0).gamma == 1.0
        assert logarithmic_potential(1.5).gamma == 3.0
        assert double_obstacle_potential(0.25).gamma == 0.5

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            logarithmic_potential(1.0)
        with pytest.raises(ValueError):
            double_obstacle_potential(0.0)

    def test_custom_gamma_must_match_pi(self):
        quartic = (lambda s: np.asarray(s) ** 4 / 4.0, lambda s: np.asarray(s) ** 3)
        pot = custom_potential(*quartic, pi=lambda s: -0.5 * np.asarray(s, dtype=float),
                               gamma=0.5)
        assert pot.gamma == 0.5
        with pytest.raises(ValueError, match="gamma"):
            custom_potential(*quartic, pi=lambda s: -0.5 * np.asarray(s, dtype=float),
                             gamma=1.0)
        with pytest.raises(ValueError, match="gamma"):
            custom_potential(*quartic, pi=lambda s: -np.sin(np.asarray(s, dtype=float)),
                             gamma=1.0)

    def test_custom_rejects_nonconvex(self):
        with pytest.raises(ValueError, match="convex"):
            custom_potential(lambda s: -np.asarray(s) ** 2 + 1e3 * np.abs(s),
                             lambda s: np.sign(s), validate=True)


class TestResolvent:
    def test_obstacle_is_projection(self):
        pot = double_obstacle_potential(1.0)
        assert resolvent(pot, 0.37, 2.0) == 1.0
        assert resolvent(pot, 5.0, -3.0) == -1.0
        assert resolvent(pot, 1.0, 0.5) == 0.5

    def test_regular_against_bisection_oracle(self):
        pot = regular_potential()
        oracle = bisect_resolvent(lambda x: x**3, 0.1, 1.0, 0.0, 1.0)
        assert oracle == pytest.approx(0.9216989942046786, abs=1e-12)
        assert resolvent(pot, 0.1, 1.0) == pytest.approx(oracle, abs=1e-11)

    def test_logarithmic_fixes_origin(self):
        pot = logarithmic_potential(2.0)
        assert resolvent(pot, 0.8, 0.0) == pytest.approx(0.0, abs=1e-13)

    def test_residuals_on_window(self):
        rng = np.random.default_rng(11)
        for name, (pot, s_range, eps_range) in KINDS.items():
            for eps in np.geomspace(*eps_range, 7):
                s = rng.uniform(*s_range, size=64)
                j = resolvent(pot, float(eps), s)
                if name == "double_obstacle":
                    res = np.abs(j - np.clip(s, -1, 1))
                else:
                    res = np.abs(j + eps * pot.beta(j) - s)
                assert np.max(res) <= 1e-10, name

    def test_closed_form_is_residual_checked(self):
        wrong = dataclasses.replace(regular_potential(),
                                    resolvent_closed_form=lambda eps, s: s.copy())
        with pytest.raises(ResolventError, match="residual"):
            resolvent(wrong, 1.0, np.array([0.0, 2.0]))
        # a stacked (2-D) input reports the failing point as well
        with pytest.raises(ResolventError, match=r"residual 8\.000e\+00 at s=.*2\.0"):
            resolvent(wrong, 1.0, np.array([[0.0, 0.0], [0.0, 2.0]]))

    def test_rejects_bad_eps(self):
        with pytest.raises(ValueError):
            resolvent(regular_potential(), 0.0, 1.0)


class TestYosida:
    def test_obstacle_formula(self):
        pot = double_obstacle_potential(0.5)
        assert yosida(pot, 0.25, 1.5) == pytest.approx(2.0)
        assert yosida(pot, 0.33, 0.5) == 0.0

    def test_regular_value_and_minimal_section_bound(self):
        pot = regular_potential()
        val = yosida(pot, 0.1, 1.0)
        assert val == pytest.approx(0.783010057953214, abs=1e-10)
        assert abs(val) <= abs(pot.beta(np.array([1.0]))[0])

    def test_derivative_of_envelope(self):
        # beta_eps is the derivative of the Moreau envelope
        pot = regular_potential()
        h = 1e-6
        for s in (-1.7, -0.3, 0.9, 2.4):
            fd = (moreau(pot, 0.1, s + h) - moreau(pot, 0.1, s - h)) / (2 * h)
            assert fd == pytest.approx(yosida(pot, 0.1, s), rel=1e-5)


class TestMoreau:
    def test_obstacle_squared_distance(self):
        pot = double_obstacle_potential(0.5)
        assert moreau(pot, 0.5, 1.5) == pytest.approx(0.25)

    def test_zero_at_origin(self):
        for pot, _, _ in KINDS.values():
            assert moreau(pot, 0.3, 0.0) == pytest.approx(0.0, abs=1e-14)

    def test_regular_against_grid_minimization_oracle(self):
        # dense scan of tau -> (tau-1)^2/(2 eps) + tau^4/4
        tau = np.linspace(-2.0, 2.0, 2_000_001)
        oracle = float(np.min((tau - 1.0) ** 2 / 0.2 + tau**4 / 4.0))
        assert oracle == pytest.approx(0.2110801332597008, abs=1e-8)
        assert moreau(regular_potential(), 0.1, 1.0) == pytest.approx(oracle, abs=1e-8)


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(sorted(KINDS)), seed=st.integers(0, 2**32 - 1))
def test_convex_analysis_properties(kind, seed):
    pot, s_range, eps_range = KINDS[kind]
    rng = np.random.default_rng(seed)
    eps = float(rng.uniform(*eps_range))
    s = rng.uniform(*s_range, size=16)
    t = rng.uniform(*s_range, size=16)

    env = np.asarray(moreau(pot, eps, s))
    bh = np.asarray(pot.beta_hat(s))
    assert np.all(env >= -1e-13)
    finite = np.isfinite(bh)
    assert np.all(env[finite] <= bh[finite] + 1e-10)
    env_smaller = np.asarray(moreau(pot, eps / 2.0, s))
    assert np.all(env <= env_smaller + 1e-11)

    by_s, by_t = np.asarray(yosida(pot, eps, s)), np.asarray(yosida(pot, eps, t))
    gap = np.abs(s - t)
    assert np.all(eps * np.abs(by_s - by_t) <= gap * (1.0 + 1e-9) + 1e-12)

    js, jt = np.asarray(resolvent(pot, eps, s)), np.asarray(resolvent(pot, eps, t))
    assert np.all(np.abs(js - jt) <= gap * (1.0 + 1e-9) + 1e-12)

    # consistency beta_eps(s) = beta(J_eps(s)) for single-valued kinds
    if kind != "double_obstacle":
        assert np.max(np.abs(by_s - np.asarray(pot.beta(js)))) <= 1e-6 / eps * 1e-3


# the regular split with its closed form removed runs the Newton path
NEWTON_REGULAR = dataclasses.replace(regular_potential(), resolvent_closed_form=None)


@settings(max_examples=200, deadline=None)
@given(log_eps=st.floats(-6.0, 3.0),
       s=st.lists(st.floats(-1e11, 1e11), min_size=1, max_size=16))
def test_cubic_resolvent_matches_newton_oracle(log_eps, s):
    eps = 10.0 ** log_eps
    s = np.asarray(s)
    x = np.asarray(resolvent(regular_potential(), eps, s))
    oracle = np.asarray(resolvent(NEWTON_REGULAR, eps, s))
    assert np.all(np.abs(x - oracle) <= 1e-11 * (1.0 + np.abs(oracle)))
    assert np.all(np.abs(x + eps * x**3 - s) <= 2e-15 * (1.0 + np.abs(s)))
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            resolvent(regular_potential(), eps, np.append(s, bad))


def test_yosida_bounded_by_minimal_section():
    for kind, (pot, s_range, eps_range) in KINDS.items():
        rng = np.random.default_rng(5)
        lo, hi = pot.domain
        s = rng.uniform(max(s_range[0], lo + 1e-3), min(s_range[1], hi - 1e-3), 200)
        for eps in np.geomspace(*eps_range, 5):
            by = np.abs(np.asarray(yosida(pot, float(eps), s)))
            b0 = np.abs(np.asarray(pot.beta(s)))
            assert np.all(by <= b0 + 1e-9), kind


class TestProxStep:
    def test_eps_zero_is_plain_resolvent(self):
        pot = regular_potential()
        assert prox_step(pot, 0.0, 0.1, 1.0) == pytest.approx(
            resolvent(pot, 0.1, 1.0), abs=1e-14)

    def test_yosida_resolvent_identity_linear(self):
        # on beta(s) = s the identity has a closed form to compare against
        pot = custom_potential(lambda s: np.asarray(s) ** 2 / 2.0,
                               lambda s: np.asarray(s, dtype=float),
                               beta_prime=lambda s: np.ones_like(np.asarray(s, dtype=float)),
                               validate=False)
        eps, lam, s = 0.3, 0.2, 1.7
        got = prox_step(pot, eps, lam, s)
        expected = s * (1 + eps) / (1 + eps + lam)
        assert got == pytest.approx(expected, rel=1e-12)


class TestCoercivityProbe:
    def test_obstacle_has_quadratic_lower_bound(self):
        rep = coercivity_probe(double_obstacle_potential(0.5), [1e-1, 1e-2], (-3, 3))
        assert rep.ok and rep.alpha > 0

    def test_regular_split(self):
        rep = coercivity_probe(regular_potential(1.0), [1e-1, 1e-2, 1e-3], (-3, 3))
        assert rep.ok and rep.alpha > 0

    def test_pure_quartic(self):
        pot = custom_potential(lambda s: np.asarray(s) ** 4 / 4.0,
                               lambda s: np.asarray(s) ** 3,
                               beta_prime=lambda s: 3.0 * np.asarray(s) ** 2)
        rep = coercivity_probe(pot, [1e-1], (-3, 3))
        assert rep.ok and rep.alpha > 0

    def test_noncoercive_reports_failure(self):
        # a strongly concave perturbation defeats any quadratic lower bound
        pot = custom_potential(lambda s: np.asarray(s) ** 2 / 2.0,
                               lambda s: np.asarray(s, dtype=float),
                               beta_prime=lambda s: np.ones_like(np.asarray(s, dtype=float)),
                               pi_hat=lambda s: -10.0 * np.asarray(s) ** 2,
                               pi=lambda s: -20.0 * np.asarray(s, dtype=float),
                               validate=False)
        rep = coercivity_probe(pot, [1e-1], (-3, 3))
        assert not rep.ok and rep.alpha == 0.0


def test_zero_potential_is_inert():
    pot = zero_potential()
    assert resolvent(pot, 0.5, 1.23) == 1.23
    assert yosida(pot, 0.5, -4.0) == 0.0
    assert moreau(pot, 0.5, 2.0) == 0.0
