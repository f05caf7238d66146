"""Full-scale acceptance gates, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v -s``; it took 227 s on two cores.
Each test prints one PASS/FAIL line. Gates 2, 3, 6, 7 and 8 judge a run with
``arccover.gates``, which ``--assert`` reads too, and print its detail; gates 6
and 8 add clauses of their own. Gate 6 (pre-exponential sandwich) is known to
fail: the lower member of ``stats.preexp_bounds`` overstates the mass of arcs
that cover a fixed half of the circle, so it is not a lower bound and sits
above the measured ECDF (see the comment at the gate); it is asserted as
stated rather than weakened.
"""
import math

import numpy as np
import pytest

from arccover.circle import (
    CONVERGING,
    DIVERGING,
    count_missing_lattice,
    project_W,
    project_X,
    sample_truncated,
    shepp_series,
)
from arccover.experiments import (
    DEFAULT_BASE_SEED,
    ExperimentConfig,
    preset_config,
    run_experiment,
    vacancy_frequency,
)
from arccover.gates import dimension_gate, ks_gate, sandwich_gate, vacancy_gate
from arccover.seeding import derive_seed, generator
from arccover.stats import OffspringLaw, extinction_frequency, kesten_stigum_check
from arccover.tails import cf_estimate, karamata_ratio, parse_tail, tail_prefix_total
from arccover.torus import pair_vacancy_exact, run_to_cover, snapshot_vacant, vacancy_probability_exact

from oracles import NaiveCoverState, TorusCoverState, batches_of
from overshoot import binomial_upper_quantile, overshoot_bound

pytestmark = pytest.mark.acceptance

WORKERS = 2
SEED = DEFAULT_BASE_SEED


def report(criterion: str, ok: bool, detail: str) -> bool:
    print(f"[{criterion}] {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


# -- 1: oracle equivalence ----------------------------------------------------


def test_01_oracle_equivalence():
    families = ["const:2", "geom:0.5", "logpow:0", "pow:-0.5", "slowlog"]
    runs_per_family = 1000
    rng = np.random.default_rng(SEED)
    checked = 0
    for spec in families:
        tail = parse_tail(spec)
        for rep in range(runs_per_family):
            n = int(rng.integers(1, 513))
            seed = derive_seed(SEED, n, checked)
            batch = 512
            with batches_of(batch):
                fast = run_to_cover(tail, n, seed)
            succ_state = TorusCoverState(n)
            naive_state = NaiveCoverState(n)
            arc_rng = generator(seed)
            tau = 0
            while not succ_state.is_covered:
                u = arc_rng.integers(0, n, batch, dtype=np.int64)
                w = 1.0 - arc_rng.random(batch)
                r = tail.sample_radii(w, cap=n)
                arc_rng.standard_exponential(batch)
                for k in range(batch):
                    a = succ_state.place_arc(int(u[k]), int(r[k]))
                    b = naive_state.place_arc(int(u[k]), int(r[k]))
                    assert a == b
                    if succ_state.is_covered:
                        tau += k + 1
                        break
                else:
                    tau += batch
                    continue
            assert succ_state.vacant_indices() == naive_state.vacant_indices() == []
            assert tau == fast.tau, (spec, n, tau, fast.tau)
            checked += 1
    assert report("criterion 1", True, f"{checked} runs, successor == naive == batch engine everywhere")


# -- 2: exact vacancy formulas ------------------------------------------------


def test_02_exact_vacancy_formulas():
    tail = parse_tail("const:1")
    replicates = 20000
    ok = True
    details = []
    for n in (100, 1000):
        for factor in (0.5, 1.0, 2.0):
            t = factor * n * math.log(n)
            freq, joint = vacancy_frequency(tail, n, t, (0, n // 2), replicates, SEED + n)
            exact = vacancy_probability_exact(tail, n, t), pair_vacancy_exact(tail, n, t, n // 2)
            gate = vacancy_gate((freq[0], joint), exact, replicates)
            ok &= gate.ok
            details.append(f"n={n} a={factor}: {gate.detail}")
    assert report("criterion 2", ok, "; ".join(details))


# -- 3: Gumbel phase ----------------------------------------------------------


@pytest.fixture(scope="module")
def gumbel_runs(tmp_path_factory):
    out = {}
    for name in ("gumbel_const", "gumbel_geom"):
        cfg = preset_config(name, output_path=str(tmp_path_factory.mktemp("acc") / name))
        _, summary = run_experiment(cfg, workers=WORKERS)
        out[name] = summary
    return out


def test_03_gumbel_phase(gumbel_runs):
    gates = [ks_gate(summary) for summary in gumbel_runs.values()]
    assert report("criterion 3", all(gate.ok for gate in gates), "; ".join(gate.detail for gate in gates))


# -- 4: vacant-set concentration ----------------------------------------------


def test_04_concentration():
    tail = parse_tail("geom:0.5")
    n = 10**6
    alpha = 0.5
    mu = 2.0
    t = alpha * n * math.log(n) / mu
    counts = np.array([snapshot_vacant(tail, n, t, derive_seed(SEED, n, rep))[0] for rep in range(100)])
    g_n = tail_prefix_total(tail, n) / mu
    target = n ** (1.0 - g_n * alpha)
    rel = abs(counts.mean() - target) / target
    assert report("criterion 4", rel <= 0.05,
                  f"mean |V|={counts.mean():.1f} vs n^(1-g_n a)={target:.1f}, rel err {rel:.3%}")


# -- 5: Theorem B* support and law --------------------------------------------


@pytest.fixture(scope="module")
def bstar_run(tmp_path_factory):
    cfg = preset_config("bstar", output_path=str(tmp_path_factory.mktemp("acc") / "bstar"))
    _, summary = run_experiment(cfg, workers=WORKERS)
    return summary["groups"]["logpow:0|n=100000"]


def test_05a_bstar_support(bstar_run):
    # The limit law of T/n is supported on [0,1] (Shepp's threshold at alpha=1),
    # but at finite n the overshoot above 1 is not small, so the gate checks the
    # exact finite-n bound instead of the limit. At Poisson time t = a n the
    # torus is uncovered iff (i) no arc has arrived, probability e^-t, or (ii)
    # the vacant set is a nonempty proper subset, which has a vacant site with a
    # covered left neighbour. A union bound over that site gives
    #   P(T/n > a) <= B_n(a) = n [P(0 vacant) - P(0,1 vacant)] + e^(-a n),
    # both terms exact (tests/overshoot.py). For f(r) = 1/r this is about
    # n^(1-a) e^(-a gamma) (1 - e^-a): B_n(1.05) = 0.199 at n=1e5, and reaching
    # the old gate P(T/n > 1.05) <= 0.01 would need n near 1e31. Measured
    # overshoot at a=1.05: 0.049 at base seed 6, 0.041-0.059 over seeds 7-14.
    # The bound is nearly attained in the far tail: at n=1e4 over 40,000
    # replicates (base seed 6), 8 / 3 / 1 land above a = 1.8 / 1.9 / 2.0, against
    # 40,000 B_n(a) = 7.45 / 2.85 / 1.09. So at each grid point a > 1 the count
    # above a must not exceed the one-sided Binomial(m, B_n(a)) quantile at
    # level 1e-3 over the number of points, and B_n(1.05) must fall with n,
    # which keeps the limit's support on [0,1] in view.
    tail = parse_tail("logpow:0")
    n, m = 10**5, bstar_run["count"]
    points = [g for g in bstar_run["ecdf"] if float(g) > 1.0]
    level = 1e-3 / len(points)
    over_limit = []
    for g in points:
        over = m - round(bstar_run["ecdf"][g] * m)
        cap = binomial_upper_quantile(m, overshoot_bound(tail, n, float(g)), level)
        if over > cap:
            over_limit.append(f"a={g}: {over} > {cap}")
    trend = [overshoot_bound(tail, 10**k, 1.05) for k in (5, 6, 7)]
    decreasing = trend[0] > trend[1] > trend[2]
    p_over = 1.0 - bstar_run["ecdf"]["1.05"]
    assert report(
        "criterion 5a", not over_limit and decreasing,
        f"P(T/n > 1.05) = {p_over:.4f} vs B_n(1.05) = {trend[0]:.4f}; "
        f"counts above a within the Binomial(m, B_n(a)) quantile at "
        f"{len(points) - len(over_limit)}/{len(points)} points {over_limit}; "
        f"B_n(1.05) at n=1e5/1e6/1e7 = {trend[0]:.4f}/{trend[1]:.4f}/{trend[2]:.4f} "
        f"({'decreasing' if decreasing else 'NOT decreasing'})",
    )


def test_05b_bstar_spread(bstar_run):
    std = bstar_run["std"]
    assert report("criterion 5b", std >= 0.05, f"std of T/n = {std:.4f} (gate >= 0.05)")


def test_05c_bstar_matches_circle_model(bstar_run, tmp_path):
    cfg = ExperimentConfig(phase="shepp_pi", alpha_list=(0.5, 0.8), n_list=(10**4,), replicates=2000,
                           base_seed=SEED, output_path=str(tmp_path / "pi"))
    _, summary = run_experiment(cfg, workers=WORKERS)
    ok = True
    details = []
    for alpha in (0.5, 0.8):
        ecdf = bstar_run["ecdf"][f"{alpha:g}"]
        group = summary["groups"][f"alpha={alpha:g}|n=10000"]
        p, hw = group["pi_hat"], group["halfwidth_95"]
        good = abs(ecdf - p) <= 0.05
        ok &= good
        details.append(f"a={alpha}: P(T/n<=a)={ecdf:.4f} vs pi_hat={p:.4f}+-{hw:.4f} ({'ok' if good else 'BAD'})")
    assert report("criterion 5c", ok, "; ".join(details))


# -- 6: Theorem C sandwich ----------------------------------------------------


def test_06_preexp_sandwich(tmp_path):
    # The upper bounds and the tail-side check hold; the lower display does
    # not. Its squared term uses the rate alpha/2^(1+p), which counts every arc
    # of relative length >= 1/2 (also those >= 1, already conditioned away by
    # the e^-alpha factor) and credits each with probability 1/2 of covering a
    # fixed half. An arc of relative length x covers a fixed half with
    # probability x - 1/2, so the half-cover intensity is
    #   m(p) = |p| (1 - 2^-(1+p)) / (1+p) - (2^-p - 1) / 2
    # (0.1364 / 0.0858 / 0.0405 at p = -0.75 / -0.5 / -0.25, matching the
    # exact discrete sum at n=1e6 to four digits). Here p = -0.5, and at
    # alpha = 0.5 / 1 / 2 the quoted lower bounds 0.4473 / 0.7267 / 0.9422 lie
    # above the measured ECDF 0.394 / 0.645 / 0.902; at alpha = 1 and 2 that is
    # over 4 standard errors and beyond the 0.03 slack. With alpha m(p) in the
    # squared term they would read 0.3945 / 0.6346 / 0.8680 and pass. The fault
    # is in stats.preexp_bounds; the gate is asserted as stated until it is mended.
    cfg = preset_config("preexp", output_path=str(tmp_path / "preexp"))
    _, summary = run_experiment(cfg, workers=WORKERS)
    # the sandwich is the CLI's preexp gate; the tail clause ECDF(2) > 1 - e^-2 is this criterion's own
    sandwich = sandwich_gate(summary)
    ecdf_2 = summary["groups"]["pow:-0.5|n=1000000"]["ecdf"]["2"]
    displayed = ecdf_2 > 1.0 - math.exp(-2.0)
    assert report("criterion 6", sandwich.ok and displayed,
                  f"{sandwich.detail}; ECDF(2)={ecdf_2:.4f} > 1-e^-2={1 - math.exp(-2.0):.4f} "
                  f"({'ok' if displayed else 'BAD'})")


# -- 7: exponential phase -----------------------------------------------------


def test_07_exponential_phase(tmp_path):
    cfg = preset_config("exponential", output_path=str(tmp_path / "expo"))
    _, summary = run_experiment(cfg, workers=WORKERS)
    gate = ks_gate(summary)
    assert report("criterion 7", gate.ok, gate.detail)


# -- 8: dimension law ---------------------------------------------------------


def test_08_dimension_law(tmp_path):
    cfg = preset_config("dimension", output_path=str(tmp_path / "dimension"))
    _, summary = run_experiment(cfg, workers=WORKERS)
    m_small = summary["groups"]["alpha=0.5|n=1000"]["conditional_mean_exponent"]
    large = summary["groups"]["alpha=0.5|n=100000"]
    # the band is the CLI's dimension gate; >= 200 acceptances and a trend toward 1 - alpha are this criterion's own
    band = dimension_gate(summary)
    enough = large["accepted"] >= 200
    closer = abs(large["conditional_mean_exponent"] - 0.5) < abs(m_small - 0.5)
    assert report("criterion 8", band.ok and enough and closer, f"{band.detail}; n=1e3: mean={m_small:.4f}")


# -- 9: pi threshold ----------------------------------------------------------


def test_09_pi_threshold(tmp_path):
    cfg = preset_config("shepp_pi", output_path=str(tmp_path / "pi"))
    _, summary = run_experiment(cfg, workers=WORKERS)
    g = summary["groups"]
    p15_small = g["alpha=1.5|n=100"]
    p15_large = g["alpha=1.5|n=10000"]
    level_ok = p15_large["pi_hat"] >= 0.9
    trend_ok = p15_large["pi_hat"] >= p15_small["pi_hat"]
    chain = [g[f"alpha={a}|n=10000"] for a in ("0.1", "0.8", "1.5")]
    chain_ok = all(
        lo["pi_hat"] <= hi["pi_hat"] + lo["halfwidth_95"] + hi["halfwidth_95"]
        for lo, hi in zip(chain, chain[1:])
    )
    assert report(
        "criterion 9", level_ok and trend_ok and chain_ok,
        f"pi(1.5): {p15_small['pi_hat']:.4f} (n=1e2) -> {p15_large['pi_hat']:.4f} (n=1e4); "
        f"chain at n=1e4: {[round(c['pi_hat'], 4) for c in chain]}",
    )


# -- 10: exact mean of Z_n ----------------------------------------------------


def test_10_missing_count_mean():
    alpha, n, m = 0.5, 10**4, 10**4
    zs = np.array([
        count_missing_lattice(sample_truncated(alpha, 1.0 / n, derive_seed(SEED, n, rep)), n)
        for rep in range(m)
    ])
    target = math.exp(-alpha) * n ** (1.0 - alpha)
    se = zs.std(ddof=1) / math.sqrt(m)
    ok = abs(zs.mean() - target) <= 3 * se
    assert report("criterion 10", ok,
                  f"mean Z_n = {zs.mean():.3f} vs e^-a n^(1-a) = {target:.3f} (3 SE = {3 * se:.3f})")


# -- 11: Shepp series ---------------------------------------------------------


def test_11_shepp_series():
    n_terms = 10**6
    cases = [
        (lambda n: min(1.0 / n, 1.0), DIVERGING, "1/n"),
        (lambda n: 0.0, CONVERGING, "0"),
        (lambda n: min(0.75 / n, 1.0), CONVERGING, "0.75/n"),
        (lambda n: min(1.25 / n, 1.0), DIVERGING, "1.25/n"),
    ]
    results = []
    ok = True
    for fn, want, label in cases:
        _, got = shepp_series(fn, n_terms)
        ok &= got == want
        results.append(f"{label}: {got} ({'ok' if got == want else 'BAD'})")
    assert report("criterion 11", ok, "; ".join(results))


# -- 12: Karamata diagnostics -------------------------------------------------


def test_12_karamata():
    ok = True
    details = []
    for p in (-0.75, -0.5, -0.25):
        err = abs(karamata_ratio(parse_tail(f"pow:{p}"), 10**6) - (p + 1.0))
        ok &= err <= 1e-2
        details.append(f"p={p}: err={err:.2e}")
    cf = cf_estimate(parse_tail("pow:-0.5"), 10**6)
    cf_ok = abs(cf - 2.0) <= 2e-2
    ok &= cf_ok
    details.append(f"C_f={cf:.4f} (|C_f - 2| <= 0.02 {'ok' if cf_ok else 'BAD'})")
    assert report("criterion 12", ok, "; ".join(details))


# -- 13: branching concentration ----------------------------------------------


def test_13_branching():
    law = OffspringLaw.binomial(4, 0.6)
    mean_w, var_w = kesten_stigum_check(law, generations=12, replicates=5000, seed=SEED)
    target_var = law.sigma2 / (law.mu**2 - law.mu)
    mean_ok = abs(mean_w - 1.0) <= 0.05
    var_ok = abs(var_w - target_var) <= 0.2 * target_var
    law2 = OffspringLaw.from_dict({0: 0.25, 2: 0.75})
    m = 10**5
    freq = extinction_frequency(law2, replicates=m, seed=SEED, survival_cutoff=10**4)
    sd = math.sqrt((1 / 3) * (2 / 3) / m)
    ext_ok = abs(freq - 1 / 3) <= 3 * sd
    assert report(
        "criterion 13", mean_ok and var_ok and ext_ok,
        f"mean W={mean_w:.4f}, var W={var_w:.4f} (target {target_var:.4f}); "
        f"extinction {freq:.4f} vs 1/3 (3 sigma = {3 * sd:.4f})",
    )


# -- 14: coupling inclusion ----------------------------------------------------


def test_14_coupling_inclusion():
    combos = [(0.3, 10), (0.8, 10), (1.5, 10), (0.3, 1000), (0.8, 1000), (1.5, 1000)]
    per_combo = 1667
    violations = 0
    total = 0
    for i, (alpha, n) in enumerate(combos):
        for rep in range(per_combo):
            cfg = sample_truncated(alpha, 1.0 / n, derive_seed(SEED + i, n, rep))
            if not project_W(cfg, n).issubset(project_X(cfg, n)):
                violations += 1
            total += 1
    assert report("criterion 14", violations == 0, f"{violations} violations over {total} configurations")


# -- 15: reproducibility -------------------------------------------------------


def test_15_reproducibility(tmp_path):
    blobs = []
    for i, workers in enumerate((1, 4, 16)):
        cfg = preset_config("calibration", output_path=str(tmp_path / f"cal{i}"))
        paths, _ = run_experiment(cfg, workers=workers)
        blobs.append((paths["csv"].read_bytes(), paths["summary"].read_bytes()))
    same_workers = blobs[0] == blobs[1] == blobs[2]
    cfg = ExperimentConfig(phase="gumbel", tail="geom:0.5", n_list=(512,), replicates=64,
                           base_seed=SEED, output_path=str(tmp_path / "rerun"))
    paths, _ = run_experiment(cfg, workers=4)
    first = paths["csv"].read_bytes()
    paths, _ = run_experiment(cfg, workers=16)
    rerun_same = paths["csv"].read_bytes() == first
    assert report("criterion 15", same_workers and rerun_same,
                  f"calibration byte-identical across 1/4/16 workers: {same_workers}; "
                  f"cover rerun identical: {rerun_same}")
