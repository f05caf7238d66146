import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from arccover import torus
from arccover.seeding import derive_seed, generator
from arccover.tails import parse_tail
from arccover.torus import (
    CoverResult,
    covered_mask,
    pair_vacancy_exact,
    run_to_cover,
    site_vacancy,
    snapshot_vacant,
    vacancy_probability_exact,
)

from oracles import ArcEvent, NaiveCoverState, TorusCoverState, batches_of, run_to_cover_reference
from overshoot import binomial_upper_quantile, overshoot_bound

TAILS = [
    parse_tail("const:1"),
    parse_tail("const:3"),
    parse_tail("geom:0.5"),
    parse_tail("logpow:0"),
    parse_tail("pow:-0.5"),
    parse_tail("slowlog"),
]


class TestPlaceArc:
    def test_wraparound(self):
        s = TorusCoverState(5)
        assert s.place_arc(3, 4) == 4
        assert sorted(s.vacant_indices()) == [2]

    def test_idempotent(self):
        s = TorusCoverState(5)
        s.place_arc(0, 5)
        assert s.place_arc(2, 3) == 0
        assert s.vacant_count == 0

    def test_long_arc_clamps(self):
        s = TorusCoverState(3)
        assert s.place_arc(0, 100) == 3
        assert s.is_covered

    def test_rejects_zero_size(self):
        with pytest.raises(ValueError):
            TorusCoverState(0)
        with pytest.raises(ValueError):
            NaiveCoverState(0)

    def test_rejects_bad_args(self):
        s = TorusCoverState(4)
        with pytest.raises(ValueError):
            s.place_arc(4, 1)
        with pytest.raises(ValueError):
            s.place_arc(0, 0)

    def test_new_state_all_vacant(self):
        for n in (1, 5, 10**4):
            s = TorusCoverState(n)
            assert s.vacant_count == n
            assert s.arcs_placed == 0

    @given(
        n=st.integers(min_value=1, max_value=64),
        arcs=st.lists(st.tuples(st.integers(0, 63), st.integers(1, 80)), max_size=60),
    )
    @settings(max_examples=120, deadline=None)
    def test_successor_matches_naive(self, n, arcs):
        a, b = TorusCoverState(n), NaiveCoverState(n)
        total = 0
        for u, r in arcs:
            u %= n
            na = a.place_arc(u, r)
            nb = b.place_arc(u, r)
            assert na == nb
            total += na
        assert a.vacant_indices() == b.vacant_indices()
        assert a.vacant_count == b.vacant_count == n - total

    def test_newly_covered_sums_to_n(self):
        rng = np.random.default_rng(5)
        n = 200
        s = TorusCoverState(n)
        total = 0
        while not s.is_covered:
            total += s.place_arc(int(rng.integers(0, n)), int(rng.integers(1, 8)))
        assert total == n

    @given(u=st.integers(0, 19), r=st.integers(1, 50))
    @settings(max_examples=80, deadline=None)
    def test_arc_event_matches_place_arc(self, u, r):
        n = 20
        state = NaiveCoverState(n)
        state.place_arc(u, r)
        covered = ArcEvent(u=u, r=r, index=0).covered_indices(n)
        assert covered == sorted(set(range(n)) - set(state.vacant_indices()))


class TestCoveredMask:
    def test_wrap(self):
        m = covered_mask(5, np.array([3]), np.array([4]))
        assert m.tolist() == [True, True, False, True, True]

    def test_full_cover(self):
        m = covered_mask(3, np.array([1]), np.array([50]))
        assert m.all()

    @pytest.mark.parametrize("n", [1, 2, 5, 64])
    def test_wrap_term(self, n):
        # a length-n arc from the last site covers everything; a length-2 arc
        # there covers the last site and site 0 only
        assert covered_mask(n, np.array([n - 1]), np.array([n])).all()
        expected = np.zeros(n, dtype=bool)
        expected[[n - 1, 0]] = True
        assert covered_mask(n, np.array([n - 1]), np.array([2])).tolist() == expected.tolist()

    @pytest.mark.parametrize("n", [1, 5])
    def test_no_arcs(self, n):
        empty = np.array([], dtype=np.int64)
        assert covered_mask(n, empty, empty).tolist() == [False] * n

    @given(
        n=st.integers(min_value=1, max_value=48),
        arcs=st.lists(st.tuples(st.integers(-96, 95), st.integers(1, 60)), max_size=40),
    )
    @settings(max_examples=120, deadline=None)
    def test_matches_naive_union(self, n, arcs):
        # starts drawn from [-2n, 2n) to check the mod-n reduction
        naive = NaiveCoverState(n)
        starts, lens = [], []
        for u, r in arcs:
            u = u % (4 * n) - 2 * n
            naive.place_arc(u % n, r)
            starts.append(u)
            lens.append(r)
        got = covered_mask(n, np.array(starts, dtype=np.int64), np.array(lens, dtype=np.int64))
        assert got.tolist() == naive.covered.tolist()


    def test_int32_guard(self):
        # the sweep's int32 reach array holds values up to 2n - 1, inside the
        # limit; the guard must reject n before any n-sized buffer is allocated
        n = (2**31 - 1) // 3 + 1
        assert n == 715_827_883
        with pytest.raises(ValueError, match="int32"):
            covered_mask(n, np.array([0]), np.array([1]))
        with pytest.raises(ValueError, match="int32"):
            run_to_cover(parse_tail("const:1"), n, seed=1)
        with pytest.raises(ValueError, match="int32"):
            site_vacancy(parse_tail("const:1"), n, 1.0, seed=1, sites=[0])

    @pytest.mark.parametrize("call", [
        lambda n: covered_mask(n, np.array([0]), np.array([1])),
        lambda n: run_to_cover(parse_tail("const:1"), n, seed=1),
        lambda n: snapshot_vacant(parse_tail("const:1"), n, 1.0, seed=1),
    ], ids=["covered_mask", "run_to_cover", "snapshot_vacant"])
    def test_rejects_empty_torus(self, call):
        # refused by the size check, before a divide by n or an empty draw range
        with pytest.raises(ValueError, match="torus size 0"):
            call(0)

    @pytest.mark.parametrize("call", [
        lambda n: covered_mask(n, np.array([0]), np.array([1])),
        lambda n: run_to_cover(parse_tail("const:1"), n, seed=1),
        lambda n: run_to_cover(parse_tail("slowlog"), n, seed=1),  # the merge alone
        lambda n: snapshot_vacant(parse_tail("const:1"), n, 1.0, seed=1),
        lambda n: site_vacancy(parse_tail("const:1"), n, 1.0, seed=1, sites=[0]),
    ], ids=["covered_mask", "run_to_cover", "run_to_cover_merge", "snapshot_vacant", "site_vacancy"])
    def test_rejects_non_integral_size(self, call):
        # numpy's own error was a TypeError, "expected a sequence of integers"
        with pytest.raises(ValueError, match="torus size 1000.0 must be an integer >= 1"):
            call(1000.0)


class TestMergeOpen:
    @given(st.lists(st.tuples(st.integers(0, 8), st.integers(1, 4)), max_size=10))
    @example([(0, 1), (1, 1)])  # touching: the shared end 1 stays out of the union
    @settings(max_examples=300, deadline=None)
    def test_open_intervals_touching_stay_apart(self, spans):
        # real open intervals (a, a + w) on a half-integer grid, so ends coincide
        # often; the union is known once every point of the grid is checked
        spans.sort()
        lo = np.array([a for a, _ in spans], dtype=np.float64)
        hi = np.array([a + w for a, w in spans], dtype=np.float64)
        gs, ge = torus._merge_open(lo, hi)
        assert np.all(gs < ge) and np.all(gs[1:] >= ge[:-1])
        for p in np.arange(-1.0, 14.0, 0.5):
            assert ((lo < p) & (p < hi)).any() == ((gs < p) & (p < ge)).any(), p

    @given(st.lists(st.tuples(st.integers(0, 12), st.integers(1, 4)), max_size=10))
    @example([(0, 2), (2, 2)])  # touching pieces [0, 2) and [2, 4) join
    @example([(0, 2), (3, 2)])  # a one-site gap at 2 keeps [0, 2) and [3, 5) apart
    @settings(max_examples=300, deadline=None)
    def test_integer_pieces_touching_join(self, spans):
        # sites s <= v < e passed as the open (s - 1, e), as the interval merge does
        spans.sort()
        s = np.array([a for a, _ in spans], dtype=np.int64)
        e = np.array([a + w for a, w in spans], dtype=np.int64)
        gs, ge = torus._merge_open(s - 1, e)
        gs = gs + 1
        assert np.all(gs < ge) and np.all(gs[1:] > ge[:-1])
        for v in range(-1, 18):
            assert ((s <= v) & (v < e)).any() == ((gs <= v) & (v < ge)).any(), v


class TestWindowCover:
    @given(L=st.sampled_from((1, 3)), reach=st.integers(0, 5),
           spans=st.lists(st.tuples(st.integers(0, 8), st.integers(1, 12)), max_size=10))
    @example(L=3, reach=0, spans=[])  # the seam piece (L - 1, L) alone: the whole window is one gap
    @example(L=1, reach=0, spans=[(0, 3)])  # an arc from L - 1 holds L; none reaches 2L
    @example(L=1, reach=1, spans=[(2, 2), (4, 1)])  # (1, 2) and (2, 2.5): 2L is the point L, held by the seam piece
    @example(L=3, reach=4, spans=[(6, 2)])  # the first arc starts where the seam piece ends
    @example(L=3, reach=0, spans=[(4, 2), (6, 2), (8, 4)])  # touching arcs leave their shared ends
    @settings(max_examples=400, deadline=None)
    def test_covers_iff_no_gaps(self, L, reach, spans):
        # open arcs on a half-integer grid, each start in [L - 1, 2L], and a
        # seam piece (L - 1, seam) with seam in [L, 2L)
        s = np.array([L - 1 + min(a, 2 * L + 2) / 2 for a, _ in spans])
        e = s + np.array([w / 2 for _, w in spans])
        order = np.argsort(s, kind="stable")
        starts, ends, seam = s[order], e[order], L + min(reach, 2 * L - 1) / 2
        lo, hi = torus._window_gaps(starts, ends, L, seam)
        assert np.all(lo <= hi) and np.all(hi[:-1] < lo[1:]) and np.all((L <= lo) & (hi <= 2 * L))
        # each gap runs from the end of a piece to the start of the next, or to 2L
        assert set(lo) <= {seam, *ends} and set(hi) <= {2 * L, *starts}
        assert torus._window_covers(starts, ends, L, seam) == (lo.size == 0)
        for p in np.arange(L, 2 * L, 0.25):
            held = p < seam or ((starts < p) & (p < ends)).any()
            assert held != ((lo <= p) & (p <= hi)).any(), p


class TestShortestPrefix:
    @given(B=st.integers(1, 300), data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_lo_is_the_last_failed_probe(self, B, data):
        # the smallest covering prefix, where each probe's lo is 0 or the
        # probe that failed last: the merge has folded the arcs before it
        shortest = data.draw(st.integers(1, B))
        failed = [0]

        def covers(lo, k):
            assert lo == failed[-1] < k <= B
            if k >= shortest:
                return True
            failed.append(k)
            return False

        assert torus._shortest_prefix(covers, B) == shortest


class TestRunToCover:
    def test_single_arc_covers(self):
        res = run_to_cover(parse_tail("const:3"), 3, seed=11)
        assert res.tau == 1

    def test_n_equal_one(self):
        res = run_to_cover(parse_tail("geom:0.5"), 1, seed=3)
        assert res.tau == 1

    def test_deterministic(self):
        a = run_to_cover(parse_tail("geom:0.5"), 500, seed=12345)
        b = run_to_cover(parse_tail("geom:0.5"), 500, seed=12345)
        assert a == b

    def test_result_invariants(self):
        res = run_to_cover(parse_tail("pow:-0.5"), 1000, seed=8)
        assert res.tau >= math.ceil(res.n / res.max_radius)
        assert res.T > 0
        assert isinstance(res, CoverResult)

    @pytest.mark.parametrize("tail", TAILS, ids=lambda t: t.spec_string)
    def test_engines_agree(self, tail):
        for n in (1, 2, 17, 128):
            fast = run_to_cover(tail, n, seed=4242)
            successor = run_to_cover_reference(tail, n, seed=4242, engine="successor")
            naive = run_to_cover_reference(tail, n, seed=4242, engine="naive")
            assert fast == successor == naive

    @given(
        spec=st.sampled_from(("const:1", "const:3", "geom:0.5", "logpow:0", "logpow:1", "pow:-0.5", "slowlog")),
        n=st.integers(min_value=1, max_value=5000),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        batch_size=st.sampled_from((1, 2, 64, None)),
    )
    @settings(max_examples=60, deadline=None)
    def test_sparse_engine_matches_sweep(self, spec, n, seed, batch_size):
        # run_to_cover picks one engine per run, so patching SPARSE_SITES_PER_ARC
        # runs each on the whole stream. With small batches the merge carries
        # its pieces across many batches: the only test that runs it to cover so
        tail = parse_tail(spec)
        with batches_of(batch_size), pytest.MonkeyPatch.context() as mp:
            mp.setattr(torus, "SPARSE_SITES_PER_ARC", 0)
            merge_only = run_to_cover(tail, n, seed)
            mp.setattr(torus, "SPARSE_SITES_PER_ARC", math.inf)
            sweep_only = run_to_cover(tail, n, seed)
            assert merge_only == sweep_only == run_to_cover_reference(tail, n, seed)

    @pytest.mark.parametrize("seed", [0, 6, 2**64 - 1])
    @pytest.mark.parametrize("B", [1, 1000, 262144])
    def test_exponentials_of_covering_batch_are_a_prefix(self, seed, B):
        # _first_cover draws only k exponentials after the batch that covers.
        # T keeps its bits because, after the same starts and uniforms, a draw
        # of k equals the first k of a draw of B
        def after_arcs():
            rng = generator(seed)
            torus._draw_arcs(rng, parse_tail("logpow:0"), 1000, B)
            return rng

        full = after_arcs().standard_exponential(B)
        for k in {1, B // 3 + 1, B - 1, B} - {0}:
            assert np.array_equal(after_arcs().standard_exponential(k), full[:k]), k

    @pytest.mark.parametrize("batch_size", [1, 3])
    def test_final_batch_vacant_index_wrap(self, batch_size, monkeypatch):
        # the covering batch is searched on Z/VZ, the V sites earlier batches
        # left vacant. These runs map an arc that starts after the last vacant
        # site to vacant index V mod V = 0, and an arc whose vacant range runs
        # past V - 1 back round to 0. With one arc per batch nothing is
        # bisected, so only batches of 3 reach the merge of Z/VZ with them
        seen = set()
        vacant_arcs = torus._vacant_arcs

        def spy(vacant, V, u, r):
            kept, starts, lengths = vacant_arcs(vacant, V, u, r)
            if (u[kept] > np.flatnonzero(vacant)[-1]).any():
                seen.add("starts after the last vacant site")
            if (starts + lengths > V).any():
                seen.add("wraps past V")
            return kept, starts, lengths

        monkeypatch.setattr(torus, "_vacant_arcs", spy)
        tail = parse_tail("logpow:0")
        with batches_of(batch_size):
            for seed in range(20):
                assert run_to_cover(tail, 6, seed) == run_to_cover_reference(tail, 6, seed), seed
        assert seen == {"starts after the last vacant site", "wraps past V"}

    @pytest.mark.parametrize("spec", ["logpow:0", "logpow:1"])
    def test_first_batch_search_narrows(self, spec, monkeypatch):
        # the first batch covers, and its first failed probe moves the search
        # to the torus of the sites that probe left vacant: _vacant_arcs gets
        # a mask of all n sites while only one batch is drawn, and one merge
        # of those V sites finishes the search
        tail, n = parse_tail(spec), 20_000
        draws, narrowed, merges = [], [], []
        draw_arcs, vacant_arcs = torus._draw_arcs, torus._vacant_arcs

        def count_draws(*args):
            draws.append(args)
            return draw_arcs(*args)

        def spy(vacant, V, u, r):
            narrowed.append((len(draws), len(vacant), V))
            return vacant_arcs(vacant, V, u, r)

        class CountingMerge(torus._SparseCover):
            def __init__(self, m):
                merges.append(m)
                super().__init__(m)

        monkeypatch.setattr(torus, "_draw_arcs", count_draws)
        monkeypatch.setattr(torus, "_vacant_arcs", spy)
        monkeypatch.setattr(torus, "_SparseCover", CountingMerge)
        for seed in range(4):
            want = run_to_cover_reference(tail, n, seed)
            draws.clear()
            narrowed.clear()
            merges.clear()
            assert run_to_cover(tail, n, seed) == want, seed
            assert len(merges) == 1 and 0 < merges[0] < n, (seed, merges)
            assert narrowed == [(1, n, merges[0])], seed

    def test_merge_folds_failed_probe(self, monkeypatch):
        # the merge folds a probe of the covering batch that leaves sites
        # vacant into its pieces, in the middle of the batch; a probe calls
        # _merge_open only to fold
        tail, n = parse_tail("pow:-0.5"), 100_000
        assert torus._default_batch(tail, n) * torus.SPARSE_SITES_PER_ARC <= n
        calls = []  # [folds, result] per place
        place, merge = torus._SparseCover.place, torus._merge_open

        def spy_place(self, u, r):
            calls.append([0, None])
            calls[-1][1] = place(self, u, r)
            return calls[-1][1]

        def spy_merge(lo, hi):
            calls[-1][0] += 1
            return merge(lo, hi)

        monkeypatch.setattr(torus._SparseCover, "place", spy_place)
        monkeypatch.setattr(torus, "_merge_open", spy_merge)
        for seed in range(4):
            calls.clear()
            assert run_to_cover(tail, n, seed) == run_to_cover_reference(tail, n, seed), seed
            folds, k = calls[-1]
            assert k > 1 and folds >= 1, seed

    @pytest.mark.parametrize("spec", ["logpow:0", "logpow:1"])
    def test_no_full_sweep_after_a_probe_leaves_sites_vacant(self, spec, monkeypatch):
        # the cost of the narrowed search: once a probe of the covering batch
        # leaves sites vacant, the merge finishes it and no sweep follows
        tail, n = parse_tail(spec), 10**5
        sweeps = []  # (torus size, covered all) per sweep
        covered = torus._CoverSweep.covered

        def spy(self, starts, lengths):
            mask = covered(self, starts, lengths)
            sweeps.append((self.n, bool(mask.all())))
            return mask

        monkeypatch.setattr(torus._CoverSweep, "covered", spy)
        for i in range(12):
            sweeps.clear()
            run_to_cover(tail, n, derive_seed(6, n, i))
            assert sweeps[0] == (n, True), i  # the first batch covers
            first_vacant = next(j for j, (_, full) in enumerate(sweeps) if not full)
            assert sweeps[first_vacant + 1 :] == [], (i, sweeps)

    @given(
        n=st.integers(min_value=1, max_value=40),
        batches=st.lists(st.lists(st.tuples(st.integers(0, 39), st.integers(1, 40)), min_size=1, max_size=12),
                         min_size=1, max_size=6),
    )
    @example(n=2, batches=[[(1, 1)]])  # ends at n exactly, nothing wraps: site 0 stays vacant
    @example(n=3, batches=[[(2, 2)], [(1, 1)]])  # a held piece past 2n: the seam piece covers site 0
    @settings(max_examples=400, deadline=None)
    def test_interval_merge_matches_naive(self, n, batches):
        # first covering arc and held pieces of the merge against arc-by-arc placement
        sparse = torus._SparseCover(n)
        naive = NaiveCoverState(n)
        for batch in batches:
            u = np.array([a % n for a, _ in batch], dtype=np.int64)
            r = np.array([(b - 1) % n + 1 for _, b in batch], dtype=np.int64)
            want = None
            for k in range(len(u)):
                naive.place_arc(int(u[k]), int(r[k]))
                if naive.is_covered:
                    want = k + 1
                    break
            assert sparse.place(u, r) == want
            if want is not None:
                return
            # sorted, disjoint open groups of window arcs (u - 1 + n, u + r + n);
            # a group (s, e) covers the sites s + 1 - n, ..., e - 1 - n, mod n
            starts, ends = sparse.starts, sparse.ends
            assert np.all(starts < ends) and np.all(starts[1:] >= ends[:-1])
            assert (starts >= n - 1).all() and (ends <= 3 * n - 1).all()
            assert covered_mask(n, starts + 1 - n, ends - starts - 1).tolist() == naive.covered.tolist()

    @pytest.mark.parametrize("spec", ["slowlog", "pow:-0.5"])
    def test_sparse_workload_never_sweeps(self, spec, monkeypatch):
        # the pre-exponential and exponential workloads cover with far fewer
        # arcs than sites: no n-sized sweep buffer is ever built
        tail, n = parse_tail(spec), 10**6
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(torus, "SPARSE_SITES_PER_ARC", math.inf)
            want = [run_to_cover(tail, n, seed) for seed in range(6)]

        def refuse(n):
            raise AssertionError(f"_CoverSweep({n}) built on a sparse workload")

        monkeypatch.setattr(torus, "_CoverSweep", refuse)
        assert [run_to_cover(tail, n, seed) for seed in range(6)] == want

    @pytest.mark.slow
    def test_coupon_collector_mean(self):
        # oracle: E[tau] = n H_n for unit radii; n=3 gives 5.5 exactly
        n, m = 3, 20000
        taus = np.array([run_to_cover(parse_tail("const:1"), n, seed=s).tau for s in range(m)])
        want = n * math.fsum(1.0 / k for k in range(1, n + 1))
        assert want == 5.5
        se = taus.std(ddof=1) / math.sqrt(m)
        assert abs(taus.mean() - want) <= 3 * se


class TestOvershootBound:
    def test_bstar_overshoot_within_exact_bound(self):
        # P(T/n > a) <= B_n(a) for the Poissonized cover time (derivation in
        # tests/overshoot.py); f(r) = 1/r is the B* family of gate 5a
        tail = parse_tail("logpow:0")
        m = 2000
        grid = (1.0, 1.5, 2.0, 3.0)
        ns = (16, 64, 256)
        level = 1e-3 / (len(ns) * len(grid))
        for n in ns:
            scaled = np.array([run_to_cover(tail, n, seed=s).T / n for s in range(m)])
            for a in grid:
                bound = overshoot_bound(tail, n, a)
                assert bound < 1.0
                over = int(np.count_nonzero(scaled > a))
                assert over <= binomial_upper_quantile(m, bound, level), (n, a, over, m * bound)

    def test_binomial_upper_quantile(self):
        # P(Bin(4, 1/2) > k) = 15/16, 11/16, 5/16, 1/16, 0 for k = 0..4
        assert binomial_upper_quantile(4, 0.5, 0.07) == 3
        assert binomial_upper_quantile(4, 0.5, 0.06) == 4
        assert binomial_upper_quantile(4, 0.5, 0.95) == 0
        assert binomial_upper_quantile(10, 0.0, 1e-3) == 0
        assert binomial_upper_quantile(10, 1.0, 1e-3) == 10


class TestVacancyFormulas:
    def test_exact_single(self):
        f = parse_tail("const:1")
        assert vacancy_probability_exact(f, 4, 4.0) == pytest.approx(math.exp(-1.0), rel=1e-15)
        assert vacancy_probability_exact(f, 4, 0.0) == 1.0
        n = 100
        t = 0.5 * n * math.log(n)
        assert vacancy_probability_exact(f, n, t) == pytest.approx(0.1, rel=1e-12)

    def test_exact_pair(self):
        f = parse_tail("const:1")
        n = 100
        t = 0.5 * n * math.log(n)
        assert pair_vacancy_exact(f, n, t, 50) == pytest.approx(0.01, rel=1e-12)
        assert pair_vacancy_exact(f, n, 0.0, 1) == 1.0
        assert pair_vacancy_exact(f, n, t, 30) == pair_vacancy_exact(f, n, t, 70)

    def test_pair_range(self):
        with pytest.raises(IndexError):
            pair_vacancy_exact(parse_tail("const:1"), 10, 1.0, 10)
        with pytest.raises(IndexError):
            pair_vacancy_exact(parse_tail("const:1"), 10, 1.0, 0)

    @pytest.mark.parametrize("formula", [
        lambda t: vacancy_probability_exact(parse_tail("const:1"), 100, t),
        lambda t: pair_vacancy_exact(parse_tail("const:1"), 100, t, 50),
    ], ids=["single", "pair"])
    def test_rejects_nan_time(self, formula):
        # NaN passed a t < 0 check, and the formula returned nan
        with pytest.raises(ValueError, match="t must be"):
            formula(math.nan)
        assert formula(math.inf) == 0.0


class TestSnapshot:
    def test_time_zero(self):
        count, idx = snapshot_vacant(parse_tail("const:1"), 50, 0.0, seed=1)
        assert count == 50
        assert len(idx) == 50

    def test_huge_time_covers(self):
        n = 1000
        count, idx = snapshot_vacant(parse_tail("const:1"), n, 10.0 * n * math.log(n), seed=7)
        assert count == 0
        assert idx.size == 0

    @pytest.mark.slow
    def test_mean_vacant_matches_formula(self):
        # spec protocol: n=1e4, t = 0.5 n ln n, 200 seeds, mean within 3 sigma of sqrt(n)
        f = parse_tail("const:1")
        n = 10**4
        t = 0.5 * n * math.log(n)
        counts = np.array([snapshot_vacant(f, n, t, seed=s)[0] for s in range(200)])
        se = counts.std(ddof=1) / math.sqrt(len(counts))
        assert abs(counts.mean() - 100.0) <= 3 * se

    @pytest.mark.parametrize("t", [math.nan, math.inf, -1.0])
    def test_rejects_bad_time(self, t):
        # Poisson(t) needs a finite t >= 0; numpy's own error for NaN was
        # "lam < 0 or lam is NaN"
        with pytest.raises(ValueError, match="t must be finite and >= 0"):
            snapshot_vacant(parse_tail("const:1"), 100, t, seed=1)

    def test_site_vacancy_matches_snapshot(self):
        n = 300
        # sites outside [0, n) are taken mod n
        sites = np.array([0, n // 2, n - 1, n, -1, 2 * n + 7, -3 * n])
        cases = [("geom:0.5", 500.0), ("const:1", 200.0), ("const:1", 0.0), ("pow:-0.5", 10.0), ("slowlog", 3.0)]
        for spec, t in cases:
            f = parse_tail(spec)
            for seed in range(20):
                count, idx = snapshot_vacant(f, n, t, seed=seed)
                vac = site_vacancy(f, n, t, seed=seed, sites=sites)
                assert vac.tolist() == np.isin(sites % n, idx).tolist(), (spec, t, seed)

    @pytest.mark.parametrize("sites", [[0.9, 1.7], np.array([0.0, 1.0])])
    def test_site_vacancy_rejects_non_integer_sites(self, sites):
        # np.asarray(sites, dtype=np.int64) read [0.9, 1.7] as sites [0, 1]
        with pytest.raises(ValueError, match="sites must be integers"):
            site_vacancy(parse_tail("const:1"), 100, 50.0, seed=1, sites=sites)
