"""Experiment orchestration: presets, replicate scheduling, CSV/JSON emission.

Every replicate seed is derive_seed(base_seed, n, replicate), so output files
are byte-identical across reruns and across worker counts. The manifest (which
carries wall-clock) is written to a separate file to keep the data files
deterministic.
"""
from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, asdict
from multiprocessing import Pool
from pathlib import Path

import numpy as np

from . import __version__
from .gates import SANDWICH_SLACK
from .seeding import PRNG_NAME, derive_seed
from .stats import EmpiricalDistribution, coupon_collector_sample, exp_cdf, gumbel_cdf, ks_distance, preexp_bounds
from .tails import TailFunction, parse_tail, star_probe, tail_prefix_total, triangle_probe
from .torus import CoverResult, run_to_cover, site_vacancy
from .circle import count_missing_lattice, sample_truncated, vacant_set

__all__ = [
    "ExperimentConfig",
    "derive_seed",
    "scale_sample",
    "run_experiment",
    "vacancy_frequency",
    "PRESETS",
    "preset_config",
    "DEFAULT_BASE_SEED",
]

PHASES = ("gumbel", "compact", "bstar", "preexp", "exponential", "shepp_pi", "dimension", "calibration")
COVER_PHASES = ("gumbel", "compact", "bstar", "preexp", "exponential")
F_SCALED_PHASES = ("compact", "preexp", "exponential")  # scaled sample f(n) T

CSV_HEADER = "phase,family,n,replicate,seed,tau,T,scaled"

DEFAULT_BASE_SEED = 6


@dataclass(frozen=True)
class ExperimentConfig:
    phase: str
    tail: str = ""
    n_list: tuple[int, ...] = ()
    replicates: int = 1
    base_seed: int = DEFAULT_BASE_SEED
    alpha_list: tuple[float, ...] = ()
    output_path: str = "results/run"

    def __post_init__(self):
        if self.phase not in PHASES:
            raise ValueError(f"unknown phase {self.phase!r}")
        if self.replicates < 1:
            raise ValueError("replicates must be >= 1")
        if not self.n_list:
            raise ValueError("n_list must be non-empty")
        if min(self.n_list) < 1:
            raise ValueError("every n must be >= 1")
        if any(b <= a for a, b in zip(self.n_list, self.n_list[1:])):
            raise ValueError("n_list must be strictly increasing")
        if self.phase in COVER_PHASES:
            tail = parse_tail(self.tail)
            if self.phase == "gumbel" and tail.mean() is None:
                raise ValueError("gumbel phase requires a finite-mean family")
            if self.phase == "preexp" and tail.family != "pow":
                raise ValueError(f"preexp phase requires a pow:p tail, got {self.tail!r}")
            # f is non-increasing, so f(n) > 0 at every n iff at the largest
            if self.phase in F_SCALED_PHASES and tail.value(self.n_list[-1]) == 0.0:
                raise ValueError(f"{self.phase} phase scales T by f(n), but f({self.n_list[-1]}) = 0 for {self.tail}")
        if any(not a >= 0.0 for a in self.alpha_list):
            raise ValueError("every alpha must be >= 0")
        if self.phase in ("shepp_pi", "dimension") and not self.alpha_list:
            raise ValueError(f"{self.phase} phase needs alpha_list")
        if self.phase == "dimension" and any(not 0.0 < a < 1.0 for a in self.alpha_list):
            raise ValueError("dimension phase needs alpha in (0,1)")
        if self.phase == "dimension" and self.n_list[0] < 2:
            raise ValueError(f"dimension phase needs n >= 2 (its exponent divides by ln n), got {self.n_list[0]}")


def scale_sample(phase: str, tail: TailFunction, n: int, result: CoverResult) -> float:
    """Phase-specific normalization of the Poissonized cover time."""
    if phase == "gumbel":
        mu = tail.mean()
        if mu is None:
            raise ValueError("gumbel scaling needs a finite-mean family")
        return (mu / n) * result.T - math.log(n)
    if phase in F_SCALED_PHASES:
        return tail.value(n) * result.T
    if phase == "bstar":
        return result.T / n
    raise ValueError(f"phase {phase!r} has no cover-time scaling")


# -- replicate tasks (module level so they pickle for worker pools) ----------


def _cover_task(args) -> tuple:
    phase, tail_spec, n, rep, base_seed = args
    tail = parse_tail(tail_spec)
    seed = derive_seed(base_seed, n, rep)
    res = run_to_cover(tail, n, seed)
    return (phase, tail_spec, n, rep, seed, res.tau, res.T, scale_sample(phase, tail, n, res))


def _pi_task(args) -> tuple:
    phase, alpha, n, rep, base_seed = args
    seed = derive_seed(base_seed, n, rep)
    config = sample_truncated(alpha, 1.0 / n, seed)
    vac = vacant_set(config)
    covered = 1.0 if vac.is_empty else 0.0
    return (phase, f"alpha={alpha:g}", n, rep, seed, config.count, vac.total_length, covered)


def _dimension_task(args) -> tuple:
    phase, alpha, n, rep, base_seed = args
    seed = derive_seed(base_seed, n, rep)
    config = sample_truncated(alpha, 1.0 / n, seed)
    z = count_missing_lattice(config, n)
    scaled = math.log(z) / math.log(n) if z > 0 else float("nan")
    return (phase, f"alpha={alpha:g}", n, rep, seed, z, float(config.count), scaled)


def _calibration_task(args) -> tuple:
    phase, _tail, K, rep, base_seed = args
    seed = derive_seed(base_seed, K, rep)
    t = coupon_collector_sample(K, 1.0, seed)
    return (phase, "coupon", K, rep, seed, K, t, (1.0 / K) * t - math.log(K))


_TASKS = {
    **dict.fromkeys(COVER_PHASES, _cover_task),
    "shepp_pi": _pi_task,
    "dimension": _dimension_task,
    "calibration": _calibration_task,
}

_GRIDS = {
    "gumbel": np.round(np.arange(-2.0, 8.01, 0.25), 10),
    "calibration": np.round(np.arange(-2.0, 8.01, 0.25), 10),
    "exponential": np.round(np.arange(0.0, 8.01, 0.25), 10),
    "preexp": np.round(np.arange(0.0, 8.01, 0.25), 10),
    "compact": np.round(np.arange(0.0, 2.001, 0.05), 10),
    "bstar": np.round(np.arange(0.0, 2.001, 0.05), 10),
}

_REFERENCE = {"gumbel": gumbel_cdf, "calibration": gumbel_cdf, "exponential": exp_cdf}


def _task_list(config: ExperimentConfig):
    # the circle phases run one group per alpha, every other phase one group
    groups = config.alpha_list if config.phase in ("shepp_pi", "dimension") else (config.tail,)
    return [(config.phase, group, n, rep, config.base_seed)
            for group in groups for n in config.n_list for rep in range(config.replicates)]


def _format_row(row) -> str:
    phase, family, n, rep, seed, tau, t_val, scaled = row
    return f"{phase},{family},{n},{rep},{seed},{tau:d},{t_val:.17g},{scaled:.17g}"


def _quantiles(values: np.ndarray) -> dict:
    qs = (0.01, 0.05, 0.25, 0.5, 0.75, 0.95, 0.99)
    pts = np.quantile(values, qs)
    return {f"q{int(100 * q):02d}": float(v) for q, v in zip(qs, pts)}


def _summarize_group(phase: str, scaled: np.ndarray) -> dict:
    info: dict = {
        "count": int(scaled.size),
        "mean": float(np.mean(scaled)),
        "std": float(np.std(scaled, ddof=1)) if scaled.size > 1 else 0.0,
        "quantiles": _quantiles(scaled),
    }
    grid = _GRIDS.get(phase)
    if grid is not None:
        emp = EmpiricalDistribution.from_samples(scaled)
        info["ecdf"] = {f"{g:g}": float(emp.ecdf(g)) for g in grid}
        ref = _REFERENCE.get(phase)
        if ref is not None:
            ks = ks_distance(emp, ref)
            info["ks"] = {"D": ks.D, "threshold_5pct": ks.threshold_5pct}
    return info


def _preexp_bound_check(tail: TailFunction, scaled: np.ndarray) -> dict:
    emp = EmpiricalDistribution.from_samples(scaled)
    out = {}
    for alpha in (0.5, 1.0, 2.0):
        lower, upper = preexp_bounds(alpha, tail.param)
        ecdf = float(emp.ecdf(alpha))
        out[f"{alpha:g}"] = {
            "lower": lower,
            "upper": upper,
            "ecdf": ecdf,
            "within_003": bool(lower - SANDWICH_SLACK <= ecdf <= upper + SANDWICH_SLACK),
        }
    return out


def _compact_diagnostics(tail: TailFunction, n: int) -> dict:
    return {
        "star_beta_05": star_probe(tail, n, 0.5),
        "triangle_beta_05": triangle_probe(tail, n, 0.5),
        "prefix_total": tail_prefix_total(tail, n),
        "f_n": tail.value(n),
    }


def run_experiment(config: ExperimentConfig, workers: int = 1):
    """Run all replicates, write <out>.csv / <out>.summary.json / <out>.manifest.json.

    Returns (paths dict, summary dict). Output bytes depend only on the config,
    never on the worker count.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    t0 = time.monotonic()
    tasks = _task_list(config)
    fn = _TASKS[config.phase]
    workers = min(workers, len(tasks))  # no idle processes for a few tasks
    if workers <= 1:
        rows = [fn(t) for t in tasks]
    else:
        chunk = max(1, len(tasks) // (workers * 8))
        with Pool(processes=workers) as pool:
            rows = pool.map(fn, tasks, chunksize=chunk)

    out = Path(config.output_path)
    out.parent.mkdir(parents=True, exist_ok=True)
    csv_path = out.with_suffix(".csv")
    csv_path.write_text(CSV_HEADER + "\n" + "\n".join(_format_row(r) for r in rows) + "\n")

    summary: dict = {"phase": config.phase, "tail": config.tail, "base_seed": config.base_seed, "groups": {}}
    for key in sorted({(r[1], r[2]) for r in rows}):
        family, n = key
        scaled = np.array([r[7] for r in rows if (r[1], r[2]) == key], dtype=np.float64)
        if config.phase == "shepp_pi":
            m = scaled.size
            p = float(np.mean(scaled))
            group = {
                "count": int(m),
                "pi_hat": p,
                "halfwidth_95": 1.96 * math.sqrt(p * (1.0 - p) / m),
            }
        elif config.phase == "dimension":
            accepted = scaled[~np.isnan(scaled)]
            group = {
                "count": int(scaled.size),
                "accepted": int(accepted.size),
                "conditional_mean_exponent": float(np.mean(accepted)) if accepted.size else None,
            }
        else:
            group = _summarize_group(config.phase, scaled)
            if config.phase == "preexp":
                group["bounds"] = _preexp_bound_check(parse_tail(config.tail), scaled)
            if config.phase == "compact":
                group["tightness"] = _compact_diagnostics(parse_tail(config.tail), n)
        summary["groups"][f"{family}|n={n}"] = group

    summary_path = out.with_suffix(".summary.json")
    summary_path.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")

    manifest = {
        "config": asdict(config),
        "artifact_version": __version__,
        "prng": PRNG_NAME,
        "wall_clock_seconds": time.monotonic() - t0,
        "per_n_replicates": {str(n): config.replicates for n in config.n_list},
    }
    manifest_path = out.with_suffix(".manifest.json")
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")

    paths = {"csv": csv_path, "summary": summary_path, "manifest": manifest_path}
    return paths, summary


def vacancy_frequency(tail: TailFunction, n: int, t: float, sites, replicates: int, base_seed: int):
    """Monte Carlo frequency of each site (and all sites jointly) being vacant at time t."""
    if n < 1 or replicates < 1:
        raise ValueError("n and replicates must be >= 1")
    sites = np.asarray(sites, dtype=np.int64)
    single = np.zeros(sites.size, dtype=np.int64)
    joint = 0
    for rep in range(replicates):
        vac = site_vacancy(tail, n, t, derive_seed(base_seed, n, rep), sites)
        single += vac
        joint += int(vac.all())
    return single / replicates, joint / replicates


# -- named preset grids, one per verification gate -----------------------------

PRESETS: dict[str, dict] = {
    "gumbel_const": dict(phase="gumbel", tail="const:1", n_list=(1000, 100000), replicates=2000),
    "gumbel_geom": dict(phase="gumbel", tail="geom:0.5", n_list=(1000, 100000), replicates=2000),
    "compact": dict(phase="compact", tail="logpow:1", n_list=(1000, 10000, 100000), replicates=2000),
    "bstar": dict(phase="bstar", tail="logpow:0", n_list=(100000,), replicates=2000),
    "preexp": dict(phase="preexp", tail="pow:-0.5", n_list=(1000000,), replicates=1000),
    "exponential": dict(phase="exponential", tail="slowlog", n_list=(1000, 1000000), replicates=2000),
    "shepp_pi": dict(phase="shepp_pi", alpha_list=(0.1, 0.3, 0.8, 1.5), n_list=(100, 10000), replicates=2000),
    "dimension": dict(phase="dimension", alpha_list=(0.5,), n_list=(1000, 100000), replicates=1000),
    "calibration": dict(phase="calibration", n_list=(10000,), replicates=2000),
}


def preset_config(name: str, base_seed: int | None = None, output_path: str | None = None) -> ExperimentConfig:
    if name not in PRESETS:
        raise ValueError(f"unknown preset {name!r}; choose from {sorted(PRESETS)}")
    kw = dict(PRESETS[name])
    if base_seed is not None:
        kw["base_seed"] = base_seed
    kw["output_path"] = output_path or f"results/{name}"
    return ExperimentConfig(**kw)
