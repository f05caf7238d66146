import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arccover.tails import (
    _CHUNK,
    _GUIDE_BINS,
    TailFunction,
    _exact_sum,
    cf_estimate,
    karamata_ratio,
    parse_tail,
    rv_limit_probe,
    tail_prefix_total,
)

from oracles import sample_radius_reference, tail_prefix_total_reference

FAMILIES = [
    parse_tail("const:1"),
    parse_tail("const:2"),
    parse_tail("geom:0.5"),
    parse_tail("logpow:0"),
    parse_tail("logpow:1"),
    parse_tail("logpow:-0.5"),
    parse_tail("pow:-0.5"),
    parse_tail("slowlog"),
]


class TestEval:
    def test_const_radius_two(self):
        assert parse_tail("const:2").value(2) == 1.0

    def test_pure_power_sixteen(self):
        assert parse_tail("pow:-0.5").value(16) == pytest.approx(0.25, abs=1e-15)

    def test_logpow_zero_is_one_over_r(self):
        assert parse_tail("logpow:0").value(10) == pytest.approx(0.1, abs=1e-15)

    def test_normalized_at_one(self):
        for tail in FAMILIES:
            assert tail.value(1) == 1.0

    @pytest.mark.parametrize("tail", FAMILIES, ids=lambda t: t.spec_string)
    def test_non_increasing_to_1e5(self, tail):
        vals = tail.values(np.arange(1, 10**5 + 1))
        assert np.all(np.diff(vals) <= 0.0)
        assert np.all((vals >= 0.0) & (vals <= 1.0))

    @pytest.mark.parametrize("b", [0.5, 1.0, 2.0, 3.0])
    def test_logpow_envelope_matches_running_min(self, b):
        # oracle: the recursive monotone envelope computed directly
        tail = parse_tail(f"logpow:{b}")
        upto = 10**4
        raw = np.minimum(np.log(np.arange(2.0, upto + 1)) ** b / np.arange(2.0, upto + 1), 1.0)
        envelope = np.minimum.accumulate(np.concatenate([[1.0], raw]))
        assert np.allclose(tail.values(np.arange(1, upto + 1)), envelope, rtol=0, atol=0)

    @pytest.mark.parametrize("b", [0.0, 1.0])
    def test_logpow_skipped_power_keeps_bits(self, b):
        # values skips ln(r) ** b at b = 0 and 1; the power form is the reference
        r = np.arange(1, 2**20 + 1)
        rf = r.astype(np.float64)
        with np.errstate(divide="ignore"):
            raw = np.log(rf) ** b / rf
        power_form = np.where(r == 1, 1.0, np.minimum(min(1.0, raw[1]), raw))
        assert np.array_equal(parse_tail(f"logpow:{b:g}").values(r).view(np.int64), power_form.view(np.int64))

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            parse_tail("geom:1.0")
        with pytest.raises(ValueError):
            parse_tail("pow:-1.5")
        with pytest.raises(ValueError):
            parse_tail("logpow:-2")
        with pytest.raises(ValueError):
            parse_tail("const:0")
        with pytest.raises(ValueError):
            parse_tail("slowlog").value(0)

    @pytest.mark.parametrize("tail", FAMILIES, ids=lambda t: t.spec_string)
    def test_rejects_non_integral_radius(self, tail):
        # the int64 cast truncated these: pow:-0.5 gave f(2) for 2.5 and
        # f(2), f(3) for [2.5, 3.9]
        with pytest.raises(ValueError, match="integer"):
            tail.value(2.5)
        with pytest.raises(ValueError, match="integer"):
            tail.values(np.array([2.5, 3.9]))
        with pytest.raises(ValueError, match="integer"):
            tail.values(np.array([2.0, math.nan]))
        assert tail.value(3.0) == tail.value(3)
        assert tail.values(np.array([2.0, 3.0])).tolist() == tail.values(np.array([2, 3])).tolist()

    @pytest.mark.parametrize("family, param", [
        ("logpow", math.nan), ("logpow", math.inf), ("const", math.inf),
        ("geom", math.nan), ("pow", -math.inf), ("slowlog", math.nan),
    ])
    def test_rejects_non_finite_parameter(self, family, param):
        # logpow:nan gave f(2) = nan, so every radius clamped to n, and
        # logpow:inf acted as const:1
        with pytest.raises(ValueError, match="finite"):
            TailFunction(family, param)


class TestParse:
    @pytest.mark.parametrize("spec", ["const:2", "geom:0.5", "logpow:1", "pow:-0.5", "slowlog"])
    def test_round_trip(self, spec):
        assert parse_tail(parse_tail(spec).spec_string) == parse_tail(spec)

    def test_case_sensitive(self):
        with pytest.raises(ValueError):
            parse_tail("Geom:0.5")
        with pytest.raises(ValueError):
            parse_tail("slowLog")


class TestSampling:
    def test_pure_power_quarter(self):
        # oracle by enumeration around the quantile
        f = parse_tail("pow:-0.5")
        assert f.value(15) >= 0.25 and f.value(16) >= 0.25 and f.value(17) < 0.25
        assert f.sample_radii(np.array([0.25]), cap=2**40).tolist() == [16]

    def test_u_one_gives_one(self):
        assert parse_tail("geom:0.5").sample_radii(np.array([1.0]), cap=2**40).tolist() == [1]
        assert parse_tail("slowlog").sample_radii(np.array([1.0]), cap=2**40).tolist() == [1]

    def test_const_one_always_one(self):
        f = parse_tail("const:1")
        for u in (1e-9, 0.3, 1.0):
            assert f.sample_radii(np.array([u]), cap=2**40).tolist() == [1]

    @pytest.mark.parametrize("tail", FAMILIES, ids=lambda t: t.spec_string)
    def test_vector_matches_scalar(self, tail):
        # caps up to 2**17 search the table, larger ones check a closed-form
        # guess and bisect the misses; 5e-324 is the least double, where
        # geom:0.5's f(1075) lies
        rng = np.random.default_rng(915)
        for cap in (1, 7, 1000, 10**5, 2**17, 2**17 + 1, 2**40):
            at_cap = [tail.value(r) for r in (cap - 1, cap, cap + 1) if r >= 1]
            u = np.concatenate([1.0 - rng.random(400), [1.0, 2.0**-53, 5e-324], [x for x in at_cap if x > 0]])
            got = tail.sample_radii(u, cap=cap)
            want = np.array([sample_radius_reference(tail, float(x), cap) for x in u])
            assert np.array_equal(got, want), cap

    @pytest.mark.parametrize("cap", [10**6, 3 * 10**7, 715_827_882, 2**40])
    def test_guess_far_off_where_f_is_subnormal(self, cap):
        # geom:0.999's closed-form guess at u = 5e-324 is about 2,800 below the
        # inverse; the check catches it and the draw is bisected
        tail = parse_tail("geom:0.999")
        u = np.array([5e-324, 4e-323, 1e-310, 0.5, 1.0])
        want = [sample_radius_reference(tail, float(x), cap) for x in u]
        assert tail.sample_radii(u, cap=cap).tolist() == want
        if cap == 10**6:
            assert want[:2] == [744761, 742054]

    @pytest.mark.parametrize("spec", ["logpow:1", "logpow:2", "logpow:-0.5"])
    def test_logpow_guess_off_by_one_is_settled(self, spec):
        # past the table the logpow guess misses some draws by one; u = f(r)
        # and its two float neighbours, on a geometric grid of r, probe them
        tail, cap = parse_tail(spec), 10**6
        r = np.unique(np.geomspace(2**17 + 1, cap, 100).astype(np.int64))
        f = tail.values(r)
        u = np.concatenate([f, np.nextafter(f, 0.0), np.nextafter(f, 1.0)])
        want = [sample_radius_reference(tail, float(x), cap) for x in u]
        assert tail.sample_radii(u, cap=cap).tolist() == want

    @pytest.mark.parametrize("tail", [t for t in FAMILIES if t.family != "const"], ids=lambda t: t.spec_string)
    def test_guide_lookup_equals_binary_search(self, tail):
        # the guide answers u from its bin of width 2**-16; every bin edge and
        # both its float neighbours probe the bins' ends. geom:0.5's f is 0
        # from r = 1076 on, so its table is shorter than every cap >= 1076
        edges = np.arange(1, _GUIDE_BINS + 1) / _GUIDE_BINS
        rng = np.random.default_rng(6180)
        u = np.concatenate([1.0 - rng.random(10**5), edges, np.nextafter(edges, 0.0),
                            np.nextafter(edges[:-1], 1.0), [1.0, 2.0**-53, 5e-324]])
        for cap in (1, 7, 1000, 10**5, 2**17):
            got = tail.sample_radii(u, cap=cap)
            assert got.dtype == np.int64
            table = -tail.values(np.arange(1, cap + 1))
            assert np.array_equal(got, np.searchsorted(table, -u, side="right")), cap
        if tail.spec_string == "geom:0.5":
            assert np.count_nonzero(table) == 1075

    @pytest.mark.parametrize("spec, cap", [("geom:0.5", 2.5), ("pow:-0.5", 2**40 + 0.5), ("const:3", 2.5),
                                           ("logpow:1", math.nan), ("slowlog", "7"), ("geom:0.5", 0)])
    def test_rejects_non_integral_cap(self, spec, cap):
        # a cap of 2.5 once gave geom:0.5 radius 3 and const:3 radius 2
        with pytest.raises(ValueError, match="cap must be an integer"):
            parse_tail(spec).sample_radii(np.array([0.2, 1.0]), cap=cap)

    def test_takes_integral_float_cap_as_int(self):
        u = np.array([0.01, 0.3, 1.0])
        for spec in ("geom:0.5", "pow:-0.5", "const:3"):
            tail = parse_tail(spec)
            for cap in (7, 2**40):
                assert np.array_equal(tail.sample_radii(u, cap=float(cap)), tail.sample_radii(u, cap=cap))

    @given(st.floats(min_value=1e-6, max_value=1.0, exclude_min=False))
    @settings(max_examples=60, deadline=None)
    def test_inverse_transform_identity(self, u):
        # R >= r iff f(r) >= u, by construction
        f = parse_tail("geom:0.3")
        [r] = f.sample_radii(np.array([u]), cap=2**40).tolist()
        assert f.value(r) >= u
        assert f.value(r + 1) < u

    @pytest.mark.slow
    @pytest.mark.parametrize("tail", FAMILIES, ids=lambda t: t.spec_string)
    def test_empirical_frequency(self, tail):
        m = 10**5
        rng = np.random.default_rng(99173)
        u = 1.0 - rng.random(m)
        radii = tail.sample_radii(u, cap=2**40)
        for r in (1, 2, 5, 10, 100):
            p = tail.value(r)
            freq = np.count_nonzero(radii >= r) / m
            sd = math.sqrt(max(p * (1 - p), 1e-12) / m)
            assert abs(freq - p) <= 4 * sd + 1e-12, (tail.spec_string, r, freq, p)


class TestMoments:
    # F_k = sum_{r<=k} f(r) = E[min(R, k)], the truncated first moment of the radius

    def test_const_one_prefix(self):
        assert tail_prefix_total(parse_tail("const:1"), 1) == 1.0
        assert tail_prefix_total(parse_tail("const:1"), 77) == 1.0

    def test_const_two_prefix(self):
        assert tail_prefix_total(parse_tail("const:2"), 5) == 2.0

    def test_harmonic_prefix(self):
        # oracle: fsum of the harmonic series
        got = tail_prefix_total(parse_tail("logpow:0"), 4)
        assert got == pytest.approx(math.fsum(1.0 / k for k in (1, 2, 3, 4)), rel=1e-15)

    @pytest.mark.parametrize("tail", FAMILIES, ids=lambda t: t.spec_string)
    def test_prefix_matches_direct_summation(self, tail):
        n = 10**4
        direct = math.fsum(tail.values(np.arange(1, n + 1)))
        assert tail_prefix_total(tail, n) == pytest.approx(direct, rel=1e-12)
        k = 3517
        assert tail_prefix_total(tail, k) == pytest.approx(math.fsum(tail.values(np.arange(1, k + 1))), rel=1e-12)

    @pytest.mark.slow
    def test_prefix_million_relative_error(self):
        tail = parse_tail("pow:-0.5")
        direct = math.fsum(tail.values(np.arange(1, 10**6 + 1)))
        assert abs(tail_prefix_total(tail, 10**6) - direct) / direct < 1e-9

    @pytest.mark.parametrize("spec", ["const:3", "geom:0.5", "logpow:0", "pow:-0.5", "slowlog"])
    def test_prefix_refuses_non_integral_n(self, spec):
        with pytest.raises(ValueError, match="integer"):
            tail_prefix_total(parse_tail(spec), 2.5)

    @pytest.mark.parametrize("spec", ["const:3", "geom:0.5", "logpow:0", "pow:-0.5", "slowlog"])
    def test_prefix_takes_integral_float_as_int(self, spec):
        tail = parse_tail(spec)
        assert tail_prefix_total.__wrapped__(tail, 5.0) == tail_prefix_total.__wrapped__(tail, 5)


EXACT_SPECS = ["logpow:-0.99", "logpow:0", "logpow:1", "logpow:3", "pow:-0.01", "pow:-0.5", "pow:-0.99", "slowlog"]
EXACT_NS = [1, 2, 3, 4097, 65535, 65536, 65537, 131073, 100000]
# positive doubles from 2**-1074 to just below 2**51, subnormals included
WIDE_FLOATS = st.builds(math.ldexp, st.floats(min_value=0.5, max_value=1.0, exclude_max=True), st.integers(-1073, 51))
SUMMANDS = st.one_of(st.just(0.0), st.just(-0.0), st.just(5e-324), st.floats(min_value=0.0, max_value=2.0**50), WIDE_FLOATS)


class TestPrefixExact:
    """tail_prefix_total keeps the bits of fsum over chunk fsums; _exact_sum keeps those of fsum."""

    @pytest.mark.parametrize("n", EXACT_NS)
    @pytest.mark.parametrize("spec", EXACT_SPECS)
    def test_bits_equal_chunk_fsums(self, spec, n):
        tail = parse_tail(spec)
        assert tail_prefix_total(tail, n) == tail_prefix_total_reference(tail, n)

    @pytest.mark.parametrize("spec", ["pow:-0.5", "slowlog"])
    def test_bits_equal_chunk_fsums_at_benchmark_size(self, spec):
        tail = parse_tail(spec)
        assert tail_prefix_total(tail, 10**6) == tail_prefix_total_reference(tail, 10**6)

    @given(st.lists(SUMMANDS, min_size=1, max_size=300), st.integers(1, 200), st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_exact_sum_is_fsum(self, summands, repeat, descending):
        # repeats build runs of equal exponent; a descending array is laid out as f is
        x = np.repeat(np.array(summands, dtype=np.float64), repeat)
        if descending:
            x = np.sort(x)[::-1].copy()
        assert _exact_sum(x) == math.fsum(x)

    @pytest.mark.parametrize("value", [np.nextafter(2.0, 0.0), np.nextafter(2.0**-1022, 0.0), np.nextafter(2.0**50, 0.0)],
                             ids=["normal", "subnormal", "large"])
    def test_exact_sum_full_limbs(self, value):
        # every fraction bit set in every entry of a full chunk: each limb sums to its largest total
        x = np.full(_CHUNK, value)
        assert _exact_sum(x) == math.fsum(x)
        x[::2] = 0.0
        assert _exact_sum(x) == math.fsum(x)

    def test_exact_sum_subnormals_only(self):
        x = np.array([5e-324, 5e-324, 1e-310, 0.0, 2.0**-1022])
        assert _exact_sum(x) == math.fsum(x)
        assert _exact_sum(np.zeros(3)) == 0.0


class TestDiagnostics:
    def test_karamata_const_exhausted_is_zero(self):
        assert karamata_ratio(parse_tail("const:1"), 10) == 0.0

    @pytest.mark.slow
    def test_karamata_pure_power_error_shrinks(self):
        f = parse_tail("pow:-0.5")
        errs = [abs(karamata_ratio(f, x) - 0.5) for x in (10**3, 10**4, 10**5, 10**6)]
        assert all(a >= b for a, b in zip(errs, errs[1:]))
        assert errs[-1] < 1e-2

    @pytest.mark.slow
    def test_karamata_slowlog_trend(self):
        # frozen by direct summation: 0.8442 at 1e3, 0.9266 at 1e6; the analytic
        # limit 1 is approached like 1/ln x, far slower than 5e-2 at x=1e6
        f = parse_tail("slowlog")
        v3 = karamata_ratio(f, 10**3)
        v6 = karamata_ratio(f, 10**6)
        assert v3 == pytest.approx(0.844198, abs=1e-4)
        assert v6 == pytest.approx(0.926553, abs=1e-4)
        assert abs(v6 - 1.0) < abs(v3 - 1.0)

    def test_rv_probe_logpow(self):
        assert rv_limit_probe(parse_tail("logpow:0"), 2.0, 10**6) == pytest.approx(0.5, abs=1e-6)

    def test_rv_probe_pure_power(self):
        assert rv_limit_probe(parse_tail("pow:-0.5"), 4.0, 10**4) == pytest.approx(0.5, abs=1e-3)

    def test_rv_probe_slowlog_band(self):
        v = rv_limit_probe(parse_tail("slowlog"), 10.0, 10**6)
        assert 0.85 <= v <= 1.0

    def test_rv_probe_exhausted(self):
        with pytest.raises(ValueError, match="tail exhausted"):
            rv_limit_probe(parse_tail("const:2"), 2.0, 5)

    @pytest.mark.slow
    def test_cf_estimates(self):
        assert cf_estimate(parse_tail("pow:-0.5"), 10**6) == pytest.approx(2.0, abs=2e-2)
        # harmonic boundary case diverges like ln n + gamma
        assert cf_estimate(parse_tail("logpow:0"), 10**4) == pytest.approx(9.7876, abs=1e-3)
        # slowly varying: frozen direct values, trend toward the analytic limit 1
        v3 = cf_estimate(parse_tail("slowlog"), 10**3)
        v6 = cf_estimate(parse_tail("slowlog"), 10**6)
        assert v6 == pytest.approx(1.079269, abs=1e-4)
        assert abs(v6 - 1.0) < abs(v3 - 1.0)

    def test_cf_exhausted(self):
        with pytest.raises(ValueError, match="tail exhausted"):
            cf_estimate(parse_tail("const:1"), 10)

    def test_prefix_total_closed_forms(self):
        # geometric prefix has an exact closed form to cross-check the summation
        q = 0.25
        tail = parse_tail(f"geom:{q}")
        direct = math.fsum(tail.values(np.arange(1, 201)))
        assert tail_prefix_total(tail, 200) == pytest.approx(direct, rel=1e-14)
        assert tail_prefix_total(tail, 200) == pytest.approx((1 - q**200) / (1 - q), rel=1e-14)
