import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from arccover import cli
from arccover.circle import (
    CONVERGING,
    DIVERGING,
    CircleConfiguration,
    _vacant_bounds,
    count_missing_lattice,
    is_covered,
    project_W,
    project_X,
    sample_truncated,
    shepp_series,
    vacant_set,
)
from arccover.experiments import ExperimentConfig, run_experiment

from oracles import lattice_vacant_reference, vacant_bounds_reference


def config(points, alpha=1.0, z=0.01):
    xs = np.array([p[0] for p in points], dtype=np.float64)
    ys = np.array([p[1] for p in points], dtype=np.float64)
    return CircleConfiguration(alpha, z, xs, ys)


@st.composite
def lattice_configs(draw):
    """A lattice size n and up to 10 arcs; ends often fall on, or one double
    either side of, multiples of 1/n."""
    n = draw(st.integers(1, 40))
    k_over_n = st.integers(0, 2 * n).map(lambda k: k / n)
    beside = st.tuples(k_over_n, st.sampled_from((-1.0, 2.0))).map(lambda t: float(np.nextafter(*t)))
    on_grid = st.one_of(k_over_n, beside)
    x = st.one_of(st.floats(0.0, 1.0, exclude_max=True), on_grid.filter(lambda v: 0.0 <= v < 1.0))
    y = st.one_of(st.floats(1e-3, 1.5), on_grid.filter(lambda v: v > 0.0))
    return n, config(draw(st.lists(st.tuples(x, y), max_size=10)), z=1.0 / n)


_SEAM_X = 1.0 - 2.0**-53  # the largest x; x + 1.0 rounds to 2.0


@st.composite
def seam_configs(draw):
    """Up to 12 arcs; starts often repeat or sit at 0 or just below 1, and
    lengths range from the smallest double to past the whole circle."""
    x = st.one_of(st.floats(0.0, 1.0, exclude_max=True), st.sampled_from((0.0, 0.25, 0.5, _SEAM_X)))
    y = st.one_of(st.floats(0.0, 1.5, exclude_min=True), st.sampled_from((2.0**-53, 0.25, 0.5, 1.0)))
    return config(draw(st.lists(st.tuples(x, y), max_size=12)))


class TestConfiguration:
    @pytest.mark.parametrize("xs, ys", [
        ([-0.25], [0.5]),
        ([1.0], [0.5]),
        ([math.nan], [0.5]),
        ([0.5], [0.0]),
        ([0.5], [-0.2]),
        ([0.5], [math.nan]),
        ([0.1, 0.5], [0.3]),
    ])
    def test_rejects_out_of_range(self, xs, ys):
        with pytest.raises(ValueError):
            CircleConfiguration(1.0, 0.01, np.array(xs), np.array(ys))


class TestSampling:
    def test_alpha_zero_empty(self):
        cfg = sample_truncated(0.0, 0.5, seed=1)
        assert cfg.count == 0

    def test_mean_count(self):
        # Lambda(R_z) = alpha / z
        counts = [sample_truncated(1.0, 0.5, seed=s).count for s in range(400)]
        se = np.std(counts, ddof=1) / math.sqrt(len(counts))
        assert abs(np.mean(counts) - 2.0) <= 4 * se

    def test_length_marginal(self):
        # P(y >= s) = z / s for s >= z
        cfg = sample_truncated(50.0, 0.001, seed=7)
        ys = cfg.ys
        assert ys.min() > cfg.z
        m = ys.size
        for s in (0.002, 0.01, 0.1):
            p = cfg.z / s
            freq = np.count_nonzero(ys >= s) / m
            sd = math.sqrt(p * (1 - p) / m)
            assert abs(freq - p) <= 4 * sd

    def test_rejects_nan(self):
        # NaN fails every comparison; a NaN alpha once gave an empty configuration
        with pytest.raises(ValueError, match="alpha"):
            sample_truncated(math.nan, 0.01, seed=1)
        with pytest.raises(ValueError, match="truncation height"):
            sample_truncated(0.5, math.nan, seed=1)

    def test_deterministic(self):
        a = sample_truncated(1.0, 0.01, seed=99)
        b = sample_truncated(1.0, 0.01, seed=99)
        assert np.array_equal(a.xs, b.xs) and np.array_equal(a.ys, b.ys)


class TestVacantSet:
    def test_giant_arc_covers(self):
        cfg = config([(0.2, 2.0)])
        assert is_covered(cfg)
        assert vacant_set(cfg).is_empty
        # here x + y and x + 1 round to the same float, so only the y > 1
        # rule keeps the circle point x from reading as vacant
        cfg = config([(0.5 + 3 * 2.0**-53, 1.0 + 2.0**-52)])
        assert is_covered(cfg)
        assert vacant_set(cfg).is_empty

    def test_empty_configuration(self):
        cfg = config([])
        v = vacant_set(cfg)
        assert not is_covered(cfg)
        assert v.pieces == ((0.0, 1.0),)
        assert v.total_length == 1.0

    def test_two_arc_arithmetic(self):
        # open arcs (0,0.5) and (0.5,0.9): vacant = {0} u {0.5} u [0.9,1), length 0.1
        v = vacant_set(config([(0.0, 0.5), (0.5, 0.4)]))
        assert v.total_length == pytest.approx(0.1, abs=1e-12)
        assert (0.0, 0.0) in v.pieces
        assert any(a == pytest.approx(0.9) and b == 1.0 for a, b in v.pieces)
        assert (0.5, 0.5) in v.pieces
        assert v.wraps

    def test_abutting_arcs_leave_point(self):
        cfg = config([(0.0, 0.5), (0.5, 0.1)])
        assert not is_covered(cfg)
        assert (0.5, 0.5) in vacant_set(cfg).pieces

    def test_wrap_interval(self):
        v = vacant_set(config([(0.3, 0.5)]))
        # uncovered: [0.8, 1) u [0, 0.3] as closed pieces split at the seam
        assert v.total_length == pytest.approx(0.5, abs=1e-12)
        assert v.pieces[0][0] == 0.0
        assert v.pieces[-1][1] == 1.0
        assert v.wraps is True

    @given(st.lists(st.tuples(st.floats(0, 0.999), st.floats(0.011, 1.5)), max_size=12))
    @settings(max_examples=150, deadline=None)
    def test_lengths_sum_to_one(self, pts):
        cfg = config(pts)
        v = vacant_set(cfg)
        grid = np.linspace(0.0, 0.999, 587)
        # covered length by brute force on a fine grid agrees within grid resolution
        covered = np.zeros(grid.size, dtype=bool)
        for x, y in pts:
            if y > 1.0:
                covered[:] = True
                break
            d = (grid - x) % 1.0
            covered |= (d > 0) & (d < y)
        approx_vacant = np.count_nonzero(~covered) / grid.size
        assert v.total_length == pytest.approx(approx_vacant, abs=0.01)
        assert 0.0 <= v.total_length <= 1.0

    @given(lattice_configs())
    @settings(max_examples=300, deadline=None)
    def test_is_covered_iff_no_vacant_piece(self, case):
        _, cfg = case
        assert is_covered(cfg) == vacant_set(cfg).is_empty

    @given(st.one_of(seam_configs(), lattice_configs().map(lambda case: case[1])))
    @example(config([]))
    @example(config([(0.25, 0.75)]))  # x + y == 1.0: ends on the seam
    @example(config([(0.25, 0.75), (0.0, 0.25)]))  # x + y == 1.0 and an arc from the seam
    @example(config([(0.6, 0.4), (0.1, 0.95)]))  # x + y == 1.0 beside a seam arc
    @example(config([(_SEAM_X, 0.5)]))  # x + 1.0 rounds to 2.0
    @example(config([(_SEAM_X, 2.0**-53), (0.0, 0.5)]))  # x + y == 1.0 with x + 1.0 == 2.0
    @example(config([(0.0, 0.5), (0.5, 0.5)]))  # touching arcs, both seam ends
    @example(config([(0.2, 0.3), (0.5, 0.1), (0.6, 0.3)]))  # a chain of touching arcs
    @example(config([(0.5, 0.1), (0.5, 0.3), (0.5, 0.2)]))  # repeated starts
    @example(config([(0.5, 2.0**-60), (0.5, 0.3), (0.5, 2.0**-60)]))  # repeated starts, empty in doubles
    @example(config([(2.0**-60, 2.0**-60), (0.0, 0.3)]))  # different x, same x + 1.0
    @settings(max_examples=400, deadline=None)
    def test_bounds_match_doubled_window_reference(self, cfg):
        # the reference merges shifted arcs that are empty in doubles, which can
        # repeat or split a piece; wherever there is none the bounds are the same
        # doubles, and otherwise the same vacant set as a union
        lo, hi = _vacant_bounds(cfg)
        want_lo, want_hi = vacant_bounds_reference(cfg)
        assert np.all(lo <= hi) and np.all(hi[:-1] < lo[1:])
        if np.all((cfg.xs + cfg.ys) + 1.0 > cfg.xs + 1.0):
            assert np.array_equal(lo, want_lo) and np.array_equal(hi, want_hi)
        else:
            assert vacant_set(cfg).total_length == math.fsum((want_hi - 1.0) - (want_lo - 1.0))
            assert is_covered(cfg) == (want_lo.size == 0)

    @pytest.mark.parametrize("points, pieces", [
        ([(1e-20, 1e-300), (0.0, 0.3)], ((0.0, 0.0), (1.3 - 1.0, 1.0))),
        ([(0.5, 1e-300)], ((0.0, 1.0),)),
        ([(_SEAM_X, 1.5 * 2.0**-52)], ((2.0**-52, 1.0),)),  # empty shifted, but the seam piece covers [0, 2**-52)
    ])
    def test_arcs_empty_in_doubles(self, points, pieces):
        assert vacant_set(config(points)).pieces == pieces

    def test_pieces_sorted_disjoint(self):
        v = vacant_set(config([(0.1, 0.2), (0.6, 0.15)]))
        flat = [e for piece in v.pieces for e in piece]
        assert flat == sorted(flat)


class TestLatticeCount:
    def test_giant_arc(self):
        assert count_missing_lattice(config([(0.3, 1.5)], z=0.05), 20) == 0

    def test_empty(self):
        assert count_missing_lattice(config([], z=0.05), 20) == 20

    def test_truncation_mismatch(self):
        with pytest.raises(ValueError, match="truncation mismatch"):
            count_missing_lattice(config([], z=0.2), 20)

    def test_open_boundary_counts_as_vacant(self):
        # arc (1/8, 3/8) at n = 8: dyadic, so every rule agrees; site 1 sits
        # on the open left end and stays vacant, site 3 on the right end too
        assert count_missing_lattice(config([(0.125, 0.25)], z=0.05), 8) == 8 - 1
        # arc (0.1, 0.1 + 0.2) at n = 10: in doubles 10·x > 1, so site 1 stays
        # vacant, and 0.1 + 0.2 > 3/10, so site 3 lies strictly inside with site 2
        assert count_missing_lattice(config([(0.1, 0.2)], z=0.05), 10) == 10 - 2

    @given(lattice_configs())
    @example((2, config([(0.49999999999999994, 0.6)], z=0.5)))  # x + 1.0 rounds up to 1.5
    @example((22, config([(15 / 22, 2.5 / 22)], z=1 / 22)))  # 22·x rounds down to 15
    @example((10, config([(0.1, 0.2)], z=0.1)))  # 0.1 + 0.2 > 3/10
    @example((5, config([(0.0, 0.2)], z=0.2)))  # 5·0.2 rounds to 1.0 but exceeds 1
    @example((8, config([(0.125, 0.25)], z=0.125)))  # dyadic: no rounding at all
    @example((25, config([(0.09617544230010422, 0.18382455769989578)], z=0.04)))  # 25·(x + y) < 7 rounds above 7
    @settings(max_examples=300, deadline=None)
    def test_matches_arc_by_arc_reference(self, case):
        n, cfg = case
        vacant = lattice_vacant_reference(cfg.xs, cfg.ys, n)
        assert (~project_X(cfg, n).mask).tolist() == vacant.tolist()
        assert count_missing_lattice(cfg, n) == np.count_nonzero(vacant)

    @pytest.mark.slow
    def test_expected_count(self):
        # E[Z_n] = exp(-alpha) n^(1-alpha); Z_n is clumpy, so the band is wide
        alpha, n, m = 0.5, 1000, 6000
        zs = np.array([count_missing_lattice(sample_truncated(alpha, 1.0 / n, seed=10**6 + s), n) for s in range(m)])
        want = math.exp(-alpha) * n ** (1 - alpha)
        se = zs.std(ddof=1) / math.sqrt(m)
        assert abs(zs.mean() - want) <= 3 * se


class TestTruncationMonotonicity:
    def test_nested_vacancy(self):
        base = sample_truncated(0.8, 0.001, seed=21)
        coarse = base.truncate(0.01)
        fine_v = vacant_set(base)
        coarse_v = vacant_set(coarse)
        assert fine_v.total_length <= coarse_v.total_length + 1e-12
        # probe points vacant under the finer configuration stay vacant under the coarser
        probes = np.arange(733) / 733

        def probe_vacant(v):
            lo, hi = np.array(v.pieces).reshape(-1, 2).T
            return np.any((lo <= probes[:, None]) & (probes[:, None] <= hi), axis=1)

        finer_vacant = probe_vacant(fine_v)
        assert np.all(probe_vacant(coarse_v)[finer_vacant])

    def test_truncate_validates(self):
        cfg = sample_truncated(0.5, 0.01, seed=2)
        with pytest.raises(ValueError):
            cfg.truncate(0.001)

    def test_truncate_rejects_nan(self):
        # once an empty configuration with z = NaN
        with pytest.raises(ValueError, match="truncate upward"):
            sample_truncated(0.5, 0.01, seed=2).truncate(math.nan)


class TestProjections:
    def test_w_example(self):
        cfg = config([(0.0, 0.25)], z=0.05)
        assert np.flatnonzero(project_W(cfg, 10).mask).tolist() == [0, 1]

    def test_w_short_arc_contributes_nothing(self):
        cfg = config([(0.4, 0.05)], z=0.04)
        assert np.flatnonzero(project_W(cfg, 10).mask).tolist() == []

    def test_w_giant_covers_all(self):
        cfg = config([(0.4, 1.2)], z=0.05)
        assert np.flatnonzero(project_W(cfg, 10).mask).size == 10

    def test_x_example(self):
        cfg = config([(0.05, 0.32)], z=0.05)
        assert np.flatnonzero(project_X(cfg, 10).mask).tolist() == [1, 2, 3]

    def test_x_giant_covers_all(self):
        cfg = config([(0.9, 1.5)], z=0.05)
        assert np.flatnonzero(project_X(cfg, 10).mask).size == 10

    def test_inclusion_random(self):
        violations = 0
        for i, (alpha, n) in enumerate([(0.3, 10), (0.8, 10), (1.5, 10), (0.3, 1000), (0.8, 1000), (1.5, 1000)]):
            for rep in range(150):
                cfg = sample_truncated(alpha, 1.0 / n, seed=9000 * i + rep)
                if not project_W(cfg, n).issubset(project_X(cfg, n)):
                    violations += 1
        assert violations == 0

    @given(lattice_configs())
    @settings(max_examples=300, deadline=None)
    def test_w_inside_x_off_grid(self, case):
        # W starts at ceil(n·x), which leaves X only when n·x is an integer
        # (test_w_example); every arc kept here has a non-integer n·x
        n, cfg = case
        keep = np.array([(Fraction(x) * n).denominator != 1 for x in cfg.xs], dtype=bool)
        cfg = config(list(zip(cfg.xs[keep], cfg.ys[keep])), z=cfg.z)
        assert project_W(cfg, n).issubset(project_X(cfg, n))

    def test_missing_lattice_iff_x_incomplete(self):
        # Z_n is read off project_X, so it is checked against the arc-by-arc
        # lattice rule on sampled configurations, full ones included
        full = 0
        for rep in range(60):
            cfg = sample_truncated(0.6, 0.01, seed=31000 + rep)
            vacant = lattice_vacant_reference(cfg.xs, cfg.ys, 100)
            z = count_missing_lattice(cfg, 100)
            assert z == np.count_nonzero(vacant)
            full += z == 0
        assert 0 < full < 60


class TestSheppSeries:
    def test_classifications_fast(self):
        n_terms = 10**5
        _, c1 = shepp_series(lambda n: min(1.0 / n, 1.0), n_terms)
        _, c2 = shepp_series(lambda n: 0.0, n_terms)
        _, c3 = shepp_series(lambda n: min(0.75 / n, 1.0), n_terms)
        _, c4 = shepp_series(lambda n: min(1.25 / n, 1.0), n_terms)
        assert (c1, c2, c3, c4) == (DIVERGING, CONVERGING, CONVERGING, DIVERGING)

    def test_partial_sums_monotone(self):
        partial, _ = shepp_series(lambda n: 0.0, 1000)
        assert np.all(np.diff(partial) > 0)
        assert partial[-1] == pytest.approx(math.fsum(1.0 / k**2 for k in range(1, 1001)), rel=1e-12)

    def test_rejects_increasing(self):
        with pytest.raises(ValueError):
            shepp_series(lambda n: 0.1 if n > 5 else 0.05, 100)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            shepp_series(lambda n: 1.5 / n if n > 1 else 1.5, 100)
        with pytest.raises(ValueError):
            shepp_series(lambda n: -0.1, 100)

    def test_rejects_nan(self):
        # once S_N = nan, classified inconclusive
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            shepp_series(lambda n: math.nan, 100)

    def test_constant_lengths_diverge(self):
        partial, cls = shepp_series(lambda n: 0.5, 100)
        assert cls == DIVERGING  # constant positive lengths force divergence
        assert partial.size == 100


def alpha_groups(tmp_path, phase, alpha, n_list, replicates, seed):
    """run_experiment on one alpha; the summary groups keyed by n."""
    cfg = ExperimentConfig(phase=phase, alpha_list=(alpha,), n_list=n_list, replicates=replicates,
                           base_seed=seed, output_path=str(tmp_path / phase))
    _, summary = run_experiment(cfg)
    return [summary["groups"][f"alpha={alpha:g}|n={n}"] for n in n_list]


class TestPiHat:
    def test_alpha_zero(self, tmp_path):
        [g] = alpha_groups(tmp_path, "shepp_pi", 0.0, (100,), 50, seed=3)
        assert g["pi_hat"] == 0.0
        assert g["halfwidth_95"] == 0.0

    def test_halfwidth_formula(self, tmp_path):
        [g] = alpha_groups(tmp_path, "shepp_pi", 1.5, (100,), 200, seed=3)
        p = g["pi_hat"]
        assert g["halfwidth_95"] == pytest.approx(1.96 * math.sqrt(p * (1 - p) / 200), rel=1e-12)

    def test_requires_replicates(self):
        with pytest.raises(ValueError):
            ExperimentConfig(phase="shepp_pi", alpha_list=(0.5,), n_list=(100,), replicates=0)

    @pytest.mark.slow
    def test_monotone_in_truncation(self, tmp_path):
        # finer truncation only adds arcs, so pi rises with n; intervals must
        # never invert the order
        groups = alpha_groups(tmp_path, "shepp_pi", 0.8, (100, 1000, 10000), 500, seed=17)
        vals = [(g["pi_hat"], g["halfwidth_95"]) for g in groups]
        for (p_lo, hw_lo), (p_hi, hw_hi) in zip(vals, vals[1:]):
            assert p_hi >= p_lo - (hw_lo + hw_hi)


class TestDimension:
    def test_validates_alpha(self):
        with pytest.raises(ValueError):
            ExperimentConfig(phase="dimension", alpha_list=(1.2,), n_list=(100,), replicates=10)

    def test_insufficient_acceptances(self, tmp_path, capsys):
        # alpha high and n tiny: nearly every configuration covers
        code = cli.main(["dimension", "--alpha", "0.99", "--n", "8", "--replicates", "35", "--seed", "1",
                         "--out", str(tmp_path / "d.json")])
        assert code == cli.EXIT_VALIDATION
        assert "insufficient" in capsys.readouterr().err

    def test_small_alpha_exponent_near_one(self, tmp_path):
        [g] = alpha_groups(tmp_path, "dimension", 0.05, (1000,), 120, seed=5)
        assert g["accepted"] >= 100
        assert g["conditional_mean_exponent"] > 0.85
