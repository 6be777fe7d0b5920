import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import bisect_resolvent, same_bits
from fracphase.galerkin import OVERFLOW_LIMIT
from fracphase.potentials import (Potential, ResolventError, check_resolvent,
                                  double_obstacle_potential,
                                  logarithmic_potential, moreau, prox_step,
                                  regular_potential, resolvent, yosida,
                                  zero_potential)

ALL_SPLITS = [regular_potential(), logarithmic_potential(2.0),
              double_obstacle_potential(0.5), zero_potential()]
ALL_SPLIT_IDS = ["regular", "logarithmic", "double_obstacle", "zero"]

# sampling windows per kind; the logarithmic window keeps the resolvent root
# representable in float64 (it approaches the endpoint like exp(-(|s|-1)/eps))
KINDS = {
    "regular": (regular_potential(), (-5.0, 5.0), (1e-4, 1.0)),
    "logarithmic": (logarithmic_potential(2.0), (-1.6, 1.6), (0.05, 1.0)),
    "double_obstacle": (double_obstacle_potential(0.5), (-5.0, 5.0), (1e-4, 1.0)),
}


# beta(s) = s, whose resolvent s/(1+eps) has a closed form to compare against
LINEAR = Potential(kind="linear",
                   beta_hat=lambda s: 0.5 * np.asarray(s, dtype=float) ** 2,
                   beta=lambda s, out=None: np.asarray(s, dtype=float),
                   gamma=0.0, domain=(-np.inf, np.inf),
                   resolvent_solver=lambda eps, s, out=None, scratch=None: s / (1.0 + eps))


class TestCanonicalSplits:
    def test_regular_reassembles_double_well(self):
        pot = regular_potential(1.0)
        s = np.linspace(-2, 2, 41)
        # pi_hat = (1 - 2*gamma*s^2)/4, the declared slope's primitive
        full = pot.beta_hat(s) + (1.0 - 2.0 * pot.gamma * s**2) / 4.0
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

    def test_obstacle_domain_is_closed_and_exact(self):
        # the indicator of [-1, 1]: no slack past the endpoints
        pot = double_obstacle_potential(0.5)
        s = np.array([-1.0 - 5e-13, -1.0, 1.0, 1.0 + 5e-13])
        assert pot.beta_hat(s).tolist() == [np.inf, 0.0, 0.0, np.inf]
        assert np.array_equal(np.isnan(pot.beta(s)), [True, False, False, True])

    def test_gamma_recorded(self):
        assert regular_potential(1.0).gamma == 1.0
        assert logarithmic_potential(1.5).gamma == 3.0
        assert double_obstacle_potential(0.25).gamma == 0.5

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            logarithmic_potential(1.0)
        with pytest.raises(ValueError):
            double_obstacle_potential(0.0)


class TestResolvent:
    def test_obstacle_is_projection(self):
        pot = double_obstacle_potential(1.0)
        assert resolvent(pot, 0.37, np.array([2.0]))[0] == 1.0
        assert resolvent(pot, 5.0, np.array([-3.0]))[0] == -1.0
        assert resolvent(pot, 1.0, np.array([0.5]))[0] == 0.5

    @pytest.mark.parametrize("shape", [(24,), (3, 8)], ids=["1d", "stacked"])
    def test_obstacle_closed_form_has_the_bits_of_clip(self, shape):
        # signed zeros, the bounds and their neighbours, NaN and large values
        edges = [0.0, -0.0, 1.0, -1.0, 0.5, -0.5, 1e300, -1e300,
                 np.finfo(float).max, -np.finfo(float).max, np.nan, -np.nan]
        edges += [np.nextafter(b, d) for b in (1.0, -1.0) for d in (np.inf, -np.inf)]
        s = np.resize(np.array(edges), shape)
        got = double_obstacle_potential(0.5).resolvent_solver(0.1, s)
        want = np.clip(s, -1.0, 1.0)
        assert got.shape == s.shape
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_regular_against_bisection_oracle(self):
        pot = regular_potential()
        oracle = bisect_resolvent(lambda x: x**3, 0.1, 1.0, 0.0, 1.0)
        assert oracle == pytest.approx(0.9216989942046786, abs=1e-12)
        assert resolvent(pot, 0.1, np.array([1.0]))[0] == pytest.approx(oracle, abs=1e-11)

    def test_logarithmic_fixes_origin(self):
        pot = logarithmic_potential(2.0)
        assert resolvent(pot, 0.8, np.array([0.0]))[0] == 0.0

    def test_logarithmic_against_bisection_oracle(self):
        pot, s_range, eps_range = KINDS["logarithmic"]
        s = np.linspace(*s_range, 321)
        for eps in np.geomspace(*eps_range, 8):
            oracle = bisect_resolvent(pot.beta, eps, s, -1.0, 1.0)
            assert np.max(np.abs(resolvent(pot, float(eps), s) - oracle)) <= 1e-12, eps

    def test_logarithmic_is_odd_bit_for_bit_and_stacks_by_row(self):
        pot = logarithmic_potential(2.0)
        s = np.linspace(-1.6, 1.6, 33).reshape(3, 11)  # holds 0.0
        j = resolvent(pot, 0.1, s)
        assert j.shape == s.shape
        assert np.array_equal(resolvent(pot, 0.1, -s).view(np.int64), (-j).view(np.int64))
        for row in range(3):
            assert np.array_equal(resolvent(pot, 0.1, s[row]), j[row])

    @pytest.mark.parametrize("s", [1.0 + 1e-15, 1.0 + 1e-14, 1.0 + 1e-9, 1.0 + 1e-7])
    def test_logarithmic_root_past_float_resolution_stays_interior(self, s):
        # at eps = 1e-300 the root is closer to +-1 than float resolution: an
        # interior float within the solver's tolerance is returned, the last
        # one once tanh rounds to 1, and its residual passes
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            x = resolvent(logarithmic_potential(2.0), 1e-300, np.array([s, -s]))
        edge = np.nextafter(1.0, 0.0)
        assert x[0] == -x[1] and 1.0 - 1e-15 <= x[0] <= edge
        if s > 1.0 + 1e-15:
            assert x[0] == edge

    @pytest.mark.parametrize("eps,s", [(1e300, 1e12), (1e100, 1e50), (1.0, 1e-300)])
    def test_logarithmic_root_near_zero_has_no_overflow(self, eps, s):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            x = resolvent(logarithmic_potential(2.0), eps, np.array([s, -s]))
        # tanh(y) + 2*eps*y = s with y ~ s/(1 + 2*eps) tiny
        assert x == pytest.approx(np.array([s, -s]) / (1.0 + 2.0 * eps), rel=1e-14)

    @pytest.mark.parametrize("eps,s", [(1e-300, 1e12), (1e-300, 1.7e308), (1e300, 1.7e308),
                                       (1.0, 1e12), (1e-5, 10.0)])
    def test_logarithmic_unrepresentable_root_fails_without_overflow(self, eps, s):
        # the root is 1 to float resolution, where beta is off its domain:
        # the residual check rejects the last interior float, and nothing
        # warns, also while a point beside it still iterates
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ResolventError, match="kind=logarithmic"):
                resolvent(logarithmic_potential(2.0), eps, np.array([s, -s, 0.5]))

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

    def test_solver_is_residual_checked(self):
        wrong = dataclasses.replace(regular_potential(),
                                    resolvent_solver=lambda eps, s, out=None, scratch=None:
                                    s.copy())
        with pytest.raises(ResolventError, match="residual"):
            resolvent(wrong, 1.0, np.array([0.0, 2.0]))
        # a stacked (2-D) input reports the failing point as well
        with pytest.raises(ResolventError, match=r"residual 8\.000e\+00 at s=.*2\.0"):
            resolvent(wrong, 1.0, np.array([[0.0, 0.0], [0.0, 2.0]]))

    def test_rejects_bad_eps(self):
        with pytest.raises(ValueError):
            resolvent(regular_potential(), 0.0, np.array([1.0]))

    @pytest.mark.parametrize("pot", ALL_SPLITS, ids=ALL_SPLIT_IDS)
    def test_rejects_eps_whose_triple_overflows(self, pot):
        # sqrt(3*eps) of the cubic would be inf; every split refuses the same level
        with pytest.raises(ValueError, match="3\\*eps finite"):
            resolvent(pot, 6e307, np.array([0.5]))

    @pytest.mark.parametrize("pot", [regular_potential(), logarithmic_potential(2.0)],
                             ids=["regular", "logarithmic"])
    def test_iterating_solvers_are_warning_free_below_the_eps_bound(self, pot):
        s = np.linspace(-10.0, 10.0, 41)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            x = resolvent(pot, 5.99e307, s)
        assert np.array_equal(np.sign(x), np.sign(s))

    @pytest.mark.parametrize("pot", ALL_SPLITS, ids=ALL_SPLIT_IDS)
    def test_zero_d_input_matches_one_element(self, pot):
        point = resolvent(pot, 0.1, np.array(0.2))
        assert np.ndim(point) == 0
        assert np.array_equal(point, resolvent(pot, 0.1, np.array([0.2]))[0])


class TestYosida:
    def test_obstacle_formula(self):
        pot = double_obstacle_potential(0.5)
        assert yosida(pot, 0.25, np.array([1.5]))[0] == pytest.approx(2.0)
        assert yosida(pot, 0.33, np.array([0.5]))[0] == 0.0

    def test_regular_value_and_minimal_section_bound(self):
        pot = regular_potential()
        val = yosida(pot, 0.1, np.array([1.0]))[0]
        assert val == pytest.approx(0.783010057953214, abs=1e-10)
        assert abs(val) <= abs(pot.beta(np.array([1.0]))[0])

    def test_derivative_of_envelope(self):
        # beta_eps is the derivative of the Moreau envelope
        pot = regular_potential()
        h = 1e-6
        s = np.array([-1.7, -0.3, 0.9, 2.4])
        fd = (moreau(pot, 0.1, s + h) - moreau(pot, 0.1, s - h)) / (2 * h)
        assert fd == pytest.approx(yosida(pot, 0.1, s), rel=1e-5)


class TestMoreau:
    def test_obstacle_squared_distance(self):
        pot = double_obstacle_potential(0.5)
        assert moreau(pot, 0.5, np.array([1.5]))[0] == pytest.approx(0.25)

    def test_zero_at_origin(self):
        for pot, _, _ in KINDS.values():
            assert moreau(pot, 0.3, np.array([0.0]))[0] == pytest.approx(0.0, abs=1e-14)

    def test_regular_against_grid_minimization_oracle(self):
        # dense scan of tau -> (tau-1)^2/(2 eps) + tau^4/4
        tau = np.linspace(-2.0, 2.0, 2_000_001)
        oracle = float(np.min((tau - 1.0) ** 2 / 0.2 + tau**4 / 4.0))
        assert oracle == pytest.approx(0.2110801332597008, abs=1e-8)
        assert moreau(regular_potential(), 0.1, np.array([1.0]))[0] == pytest.approx(
            oracle, abs=1e-8)


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


@settings(max_examples=200, deadline=None)
@given(log_eps=st.floats(-6.0, 3.0),
       s=st.lists(st.floats(-1e11, 1e11), min_size=1, max_size=16))
def test_cubic_resolvent_matches_bisection_oracle(log_eps, s):
    eps = 10.0 ** log_eps
    s = np.asarray(s)
    x = np.asarray(resolvent(regular_potential(), eps, s))
    # the root lies between 0 and s
    oracle = bisect_resolvent(lambda v: v * v * v, eps, s, np.minimum(s, 0.0),
                              np.maximum(s, 0.0))
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
        s = np.array([1.0])
        assert prox_step(pot, 0.0, 0.1, s) == pytest.approx(resolvent(pot, 0.1, s), abs=1e-14)

    def test_yosida_resolvent_identity_linear(self):
        # on beta(s) = s the identity has a closed form to compare against
        eps, lam, s = 0.3, 0.2, np.array([1.7])
        got = prox_step(LINEAR, eps, lam, s)
        expected = s * (1 + eps) / (1 + eps + lam)
        assert got == pytest.approx(expected, rel=1e-12)


# points past each well, ordered by |s|; the logarithmic ones stay where the
# resolvent root is representable at the levels below
COERCIVITY_CASES = {
    "regular": (regular_potential(1.0), [10.0, 100.0, 1000.0]),
    "logarithmic": (logarithmic_potential(2.0), [2.0, 3.0, 4.0]),
    "double_obstacle": (double_obstacle_potential(0.5), [10.0, 100.0, 1000.0]),
}


def regularized_energy(pot, eps, s):
    """beta_hat_eps + pi_hat with pi_hat = -gamma*s^2/2, on +-s."""
    s = np.concatenate([s, -np.asarray(s)])
    return moreau(pot, eps, s) - 0.5 * pot.gamma * s * s


class TestCoercivityRule:
    """beta_hat_eps + pi_hat is coercive exactly when eps*gamma < 1.

    Every shipped split has pi_hat = -gamma*s^2/2 and a beta_hat_eps that
    grows like s^2/(2*eps); `galerkin.assemble` advises on this rule.
    """

    @pytest.mark.parametrize("kind", COERCIVITY_CASES)
    def test_grows_below_the_threshold(self, kind):
        pot, s = COERCIVITY_CASES[kind]
        f = regularized_energy(pot, 0.5 / pot.gamma, s).reshape(2, -1)
        assert np.all(np.diff(f, axis=1) > 0.0), f

    @pytest.mark.parametrize("kind", COERCIVITY_CASES)
    def test_unbounded_below_at_the_threshold(self, kind):
        pot, s = COERCIVITY_CASES[kind]
        f = regularized_energy(pot, 1.0 / pot.gamma, s).reshape(2, -1)
        assert np.all(np.diff(f, axis=1) < 0.0) and np.all(f < 0.0), f


# +-1, points just past them, and points far off every bounded domain
LEVEL_ZERO_WINDOW = np.array([-1e12, -2.0, -1.0 - 5e-13, -1.0, -0.5, -0.0, 0.0, 0.3,
                              1.0, 1.0 + 5e-13, 2.0, 1e12])


class TestLevelZero:
    """Level eps = 0 of the Yosida family is the split itself."""

    @pytest.mark.parametrize("pot", ALL_SPLITS, ids=ALL_SPLIT_IDS)
    def test_yosida_and_moreau_are_beta_and_beta_hat_bit_for_bit(self, pot):
        s = LEVEL_ZERO_WINDOW
        for got, want in ((yosida(pot, 0.0, s), pot.beta(s)),
                          (moreau(pot, 0.0, s), pot.beta_hat(s))):
            # int64 views compare every bit: NaN, inf and the sign of zero
            assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_window_leaves_the_bounded_domains(self):
        for pot in (logarithmic_potential(2.0), double_obstacle_potential(0.5)):
            assert np.isnan(yosida(pot, 0.0, LEVEL_ZERO_WINDOW)).any()
            assert np.isinf(moreau(pot, 0.0, LEVEL_ZERO_WINDOW)).any()

    @pytest.mark.parametrize("pot", ALL_SPLITS, ids=ALL_SPLIT_IDS)
    def test_negative_level_raises(self, pot):
        for level_map in (yosida, moreau):
            with pytest.raises(ValueError, match="must be positive"):
                level_map(pot, -0.1, np.array([0.5]))

    @pytest.mark.parametrize("pot", ALL_SPLITS, ids=ALL_SPLIT_IDS)
    def test_largest_valid_level_is_warning_free(self, pot):
        # the largest eps `galerkin.assemble` accepts, on inputs up to its
        # overflow guard
        eps = np.finfo(float).max / OVERFLOW_LIMIT / (1.0 + 1e-12)
        s = np.array([-OVERFLOW_LIMIT, -3.0, -0.5, 0.0, 0.7, 3.0, OVERFLOW_LIMIT])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = [resolvent(pot, eps, s), yosida(pot, eps, s), moreau(pot, eps, s),
                      prox_step(pot, eps, 1e-3, s)]
        assert all(np.isfinite(v).all() for v in values)


def test_zero_potential_is_inert():
    pot = zero_potential()
    assert resolvent(pot, 0.5, np.array([1.23]))[0] == 1.23
    assert yosida(pot, 0.5, np.array([-4.0]))[0] == 0.0
    assert moreau(pot, 0.5, np.array([2.0]))[0] == 0.0


# finite entries of 1e200 overflow the dot product of the fast finiteness test
FINITENESS_EDGES = [0.0, 1.0, 1e200, -1e200, np.inf, -np.inf, np.nan]


@settings(max_examples=100, deadline=None)
@given(s=st.lists(st.sampled_from(FINITENESS_EDGES), min_size=1, max_size=8),
       stacked=st.booleans())
def test_resolvent_finiteness_fast_path_matches_exact(s, stacked):
    s = np.asarray(s * 2).reshape(2, -1) if stacked else np.asarray(s)
    if np.isfinite(s).all():
        assert np.isfinite(resolvent(regular_potential(), 0.01, s)).all()
    else:
        with pytest.raises(ValueError, match="resolvent input must be finite"):
            resolvent(regular_potential(), 0.01, s)


def exact_residual_message(pot, eps, s):
    """The per-point residual check `resolvent` accepts on one dot product in
    front of: the message of the error it raises, None when it accepts."""
    x = pot.resolvent_solver(eps, s)
    residual = np.abs(x + eps * np.asarray(pot.beta(x), dtype=float) - s)
    sanity = 1e-6 * (1.0 + np.abs(s))
    if (residual <= sanity).all():
        return None
    excess = np.where(np.isfinite(residual), residual - sanity, np.inf)
    worst = int(np.argmax(excess))
    return (f"resolvent failed for kind={pot.kind}, eps={eps}: residual "
            f"{residual.flat[worst]:.3e} at s={s.flat[worst]!r}")


@settings(max_examples=200, deadline=None)
@given(s=st.lists(st.floats(-20.0, 20.0), min_size=1, max_size=12),
       eps=st.floats(1e-3, 1.0), data=st.data())
def test_residual_check_fast_path_matches_exact(s, eps, data):
    s = np.asarray(s)
    # off by 1e-5 at one point, plus small errors that pass one at a time but
    # may push the sum of squares past the fast test
    where = data.draw(st.integers(0, s.size - 1))
    offsets = np.asarray(data.draw(st.lists(st.sampled_from([0.0, 4e-7, 6e-7, -6e-7]),
                                            min_size=s.size, max_size=s.size)))
    offsets[where] = data.draw(st.sampled_from([1e-5, -1e-5, 0.0]))
    wrong = dataclasses.replace(
        LINEAR, resolvent_solver=lambda eps, s, out=None, scratch=None: s / (1.0 + eps)
        + offsets)
    expected = exact_residual_message(wrong, eps, s)
    if expected is None:
        assert np.array_equal(resolvent(wrong, eps, s), s / (1.0 + eps) + offsets)
    else:
        with pytest.raises(ResolventError) as info:
            resolvent(wrong, eps, s)
        assert str(info.value) == expected


# both signs, both zeros, both wells and past them; logarithmic roots stay
# representable at the levels below
OUT_SAMPLES = np.append(np.linspace(-1.5, 1.5, 13), -0.0).reshape(2, 7)


class TestOutBuffers:
    """Every `out=` path writes its allocating twin's bits into the caller's
    array and nothing else; the march hands them per-run buffers."""

    @pytest.mark.parametrize("pot", ALL_SPLITS, ids=ALL_SPLIT_IDS)
    @pytest.mark.parametrize("eps", [1e-3, 0.1, 2.0])
    def test_solver_into_out(self, pot, eps):
        grids = np.full((3,) + OUT_SAMPLES.shape, np.nan)
        scratch = np.full((2,) + OUT_SAMPLES.shape, np.nan)
        got = pot.resolvent_solver(eps, OUT_SAMPLES, grids[1], scratch)
        assert np.shares_memory(got, grids[1])
        assert same_bits(grids[1], pot.resolvent_solver(eps, OUT_SAMPLES))
        assert np.isnan(grids[[0, 2]]).all()

    @pytest.mark.parametrize("pot", ALL_SPLITS, ids=ALL_SPLIT_IDS)
    @pytest.mark.parametrize("name", ["beta", "beta_hat"])
    def test_maps_into_out(self, pot, name):
        fn = getattr(pot, name)
        want = fn(OUT_SAMPLES)
        out = np.full_like(OUT_SAMPLES, np.nan)
        assert fn(OUT_SAMPLES, out) is out and same_bits(out, want)
        if name == "beta_hat":  # the envelope forms it in place
            alias = OUT_SAMPLES.copy()
            assert same_bits(fn(alias, alias), want)

    @pytest.mark.parametrize("pot", ALL_SPLITS, ids=ALL_SPLIT_IDS)
    @pytest.mark.parametrize("eps", [0.0, 0.1])
    def test_yosida_moreau_and_prox_into_out(self, pot, eps):
        s = OUT_SAMPLES
        scratch = np.full((3,) + s.shape, np.nan)
        out = np.full_like(s, np.nan)
        assert same_bits(yosida(pot, eps, s, out=out), yosida(pot, eps, s))
        want = moreau(pot, eps, s)
        assert same_bits(moreau(pot, eps, s, out, scratch), want)
        alias = s.copy()  # a snapshot's envelope replaces its synthesized grid
        assert same_bits(moreau(pot, eps, alias, alias, scratch), want)
        got = prox_step(pot, eps, 0.05, s, None, out, scratch[0])
        assert same_bits(got, prox_step(pot, eps, 0.05, s))

    @pytest.mark.parametrize("pot, eps", [(regular_potential(), 0.3),
                                          (logarithmic_potential(2.0), 0.05)],
                             ids=["regular", "logarithmic"])
    @pytest.mark.parametrize("offset", [0.0, 4e-7, 1e-5, np.nan])
    def test_residual_check_into_out_decides_the_same(self, pot, eps, offset):
        x = pot.resolvent_solver(eps, OUT_SAMPLES)
        x[1, 3] += offset
        before = x.copy()
        outcomes = []
        for out in (None, np.full_like(x, np.nan)):
            try:
                outcomes.append(check_resolvent(pot, eps, OUT_SAMPLES, x, out))
            except ResolventError as exc:
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1]
        assert (outcomes[0] is None) == (abs(offset) < 1e-6)
        assert same_bits(x, before)
