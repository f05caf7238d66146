"""Experiment orchestration: presets, replicate scheduling, CSV/JSON emission.

Every replicate seed is derive_seed(base_seed, n, replicate), so output files
are byte-identical across reruns and across worker counts. The manifest (which
carries wall-clock) is written to a separate file to keep the data files
deterministic.
"""
from __future__ import annotations

import json
import math
import numbers
import os
import platform
import time
from dataclasses import dataclass, asdict
from multiprocessing import Pipe, Process
from pathlib import Path

import numpy as np

from . import __version__
from .gates import KS_RULES, SANDWICH_SLACK
from .seeding import PRNG_NAME, derive_seed
from .stats import EmpiricalDistribution, coupon_collector_sample, ks_distance, preexp_bounds
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
        if not all(isinstance(v, numbers.Integral) for v in (self.replicates, *self.n_list)):
            raise ValueError(f"n and replicates must be integers, got n {self.n_list}, replicates {self.replicates}")
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
        if self.phase in ("compact", "dimension") and self.n_list[0] < 2:
            raise ValueError(f"{self.phase} phase needs n >= 2 (it divides by ln n), got {self.n_list[0]}")
        labels = [label for label, _ in _groups(self)]
        if len(set(labels)) < len(labels):
            raise ValueError(f"alpha_list {self.alpha_list} repeats a group label: {labels}")


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


# -- replicate tasks (module level so they pickle for worker processes) ------
# Each takes (phase, group argument, n, seed) and returns the three measured
# columns of its CSV row: tau, T, scaled.


def _cover_task(args) -> tuple:
    phase, tail_spec, n, seed = args
    tail = parse_tail(tail_spec)
    res = run_to_cover(tail, n, seed)
    return res.tau, res.T, scale_sample(phase, tail, n, res)


def _pi_task(args) -> tuple:
    _phase, alpha, n, seed = args
    config = sample_truncated(alpha, 1.0 / n, seed)
    vac = vacant_set(config)
    return config.count, vac.total_length, 1.0 if vac.is_empty else 0.0


def _dimension_task(args) -> tuple:
    _phase, alpha, n, seed = args
    config = sample_truncated(alpha, 1.0 / n, seed)
    z = count_missing_lattice(config, n)
    return z, float(config.count), math.log(z) / math.log(n) if z > 0 else float("nan")


def _calibration_task(args) -> tuple:
    _phase, _tail, K, seed = args
    t = coupon_collector_sample(K, 1.0, seed)
    return K, t, (1.0 / K) * t - math.log(K)


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


def _groups(config: ExperimentConfig) -> list[tuple[str, object]]:
    """(family label, task argument) of each group in output order: one group
    per alpha in the circle phases, one group in every other phase."""
    if config.phase in ("shepp_pi", "dimension"):
        return [(f"alpha={alpha:g}", alpha) for alpha in config.alpha_list]
    return [("coupon" if config.phase == "calibration" else config.tail, config.tail)]


def _quantiles(values: np.ndarray) -> dict:
    qs = (0.01, 0.05, 0.25, 0.5, 0.75, 0.95, 0.99)
    pts = np.quantile(values, qs)
    return {f"q{int(100 * q):02d}": float(v) for q, v in zip(qs, pts)}


def _summarize_group(config: ExperimentConfig, n: int, scaled: np.ndarray) -> dict:
    if config.phase == "shepp_pi":
        p = float(np.mean(scaled))
        m = scaled.size
        return {"count": m, "pi_hat": p, "halfwidth_95": 1.96 * math.sqrt(p * (1.0 - p) / m)}
    if config.phase == "dimension":
        accepted = scaled[~np.isnan(scaled)]
        return {
            "count": int(scaled.size),
            "accepted": int(accepted.size),
            "conditional_mean_exponent": float(np.mean(accepted)) if accepted.size else None,
        }
    info: dict = {
        "count": int(scaled.size),
        "mean": float(np.mean(scaled)),
        "std": float(np.std(scaled, ddof=1)) if scaled.size > 1 else 0.0,
        "quantiles": _quantiles(scaled),
    }
    emp = EmpiricalDistribution.from_samples(scaled)
    info["ecdf"] = {f"{g:g}": float(emp.ecdf(g)) for g in _GRIDS[config.phase]}
    if config.phase in KS_RULES:
        ks = ks_distance(emp, KS_RULES[config.phase][0])
        info["ks"] = {"D": ks.D, "threshold_5pct": ks.threshold_5pct}
    if config.phase == "preexp":
        info["bounds"] = _preexp_bound_check(parse_tail(config.tail), emp)
    if config.phase == "compact":
        info["tightness"] = _compact_diagnostics(parse_tail(config.tail), n)
    return info


def _preexp_bound_check(tail: TailFunction, emp: EmpiricalDistribution) -> dict:
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


def _send_share(conn, fn, share) -> None:
    """Worker process body: send ``(None, results)``, or ``(exception, traceback text)`` if a task raised."""
    with conn:
        try:
            message = (None, [fn(t) for t in share])
        except Exception as exc:
            import traceback  # only on failure: at the top it would add about 1 ms to every import of arccover

            message = (exc, traceback.format_exc())
        conn.send(message)


def _map_shares(fn, tasks: list, workers: int) -> list:
    """``[fn(t) for t in tasks]`` on ``workers`` processes, this one included.

    Worker w in 1..workers-1 is a new process that computes ``tasks[w::workers]``
    and sends its results over a one-way pipe; this process computes
    ``tasks[0::workers]`` meanwhile, so one worker starts no process. A task's
    exception is re-raised here, and a worker that exits without sending
    raises RuntimeError. Every worker is terminated and joined before this
    returns or raises.
    """
    children = []
    try:
        for w in range(1, workers):
            receiver, sender = Pipe(duplex=False)
            proc = Process(target=_send_share, args=(sender, fn, tasks[w::workers]), daemon=True)
            children.append((proc, receiver))
            with sender:  # once started, the worker holds the only write end, so its exit ends the pipe
                proc.start()
        measured = [None] * len(tasks)
        measured[0::workers] = [fn(t) for t in tasks[0::workers]]
        for w, (proc, receiver) in enumerate(children, start=1):
            try:
                exc, value = receiver.recv()
            except EOFError:
                proc.join()
                raise RuntimeError(f"replicate worker {w} exited with code {proc.exitcode} "
                                   "before sending its results") from None
            if exc is not None:
                raise exc from RuntimeError(f"in replicate worker {w}:\n{value}")
            measured[w::workers] = value
        return measured
    finally:
        for proc, receiver in children:
            receiver.close()
            if proc.pid is not None:  # started
                proc.terminate()
                proc.join()


def run_experiment(config: ExperimentConfig, workers: int = 1):
    """Run all replicates, write <out>.csv / <out>.summary.json / <out>.manifest.json.

    Returns (paths dict, summary dict). Output bytes depend only on the config,
    never on the worker count.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    t0 = time.monotonic()
    reps = config.replicates
    seeds = {n: [derive_seed(config.base_seed, n, rep) for rep in range(reps)] for n in config.n_list}
    blocks = [(label, arg, n) for label, arg in _groups(config) for n in config.n_list]
    tasks = [(config.phase, arg, n, seed) for _, arg, n in blocks for seed in seeds[n]]
    fn = _TASKS[config.phase]
    workers = min(workers, len(tasks))  # no idle processes for a few tasks
    measured = _map_shares(fn, tasks, workers)

    # the tasks run block by block, so block i is measured[i * reps:(i + 1) * reps]
    lines = [CSV_HEADER]
    summary: dict = {"phase": config.phase, "tail": config.tail, "base_seed": config.base_seed, "groups": {}}
    for i, (label, _, n) in enumerate(blocks):
        block = measured[i * reps:(i + 1) * reps]
        lines += [f"{config.phase},{label},{n},{rep},{seed},{tau:d},{t_val:.17g},{s:.17g}"
                  for rep, (seed, (tau, t_val, s)) in enumerate(zip(seeds[n], block))]
        scaled = np.array([s for _, _, s in block], dtype=np.float64)
        summary["groups"][f"{label}|n={n}"] = _summarize_group(config, n, scaled)

    out = Path(config.output_path)
    out.parent.mkdir(parents=True, exist_ok=True)
    csv_path = out.with_suffix(".csv")
    csv_path.write_text("\n".join(lines) + "\n")
    summary_path = out.with_suffix(".summary.json")
    summary_path.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")

    manifest = {
        "config": asdict(config),
        "artifact_version": __version__,
        "prng": PRNG_NAME,
        "wall_clock_seconds": time.monotonic() - t0,
        "per_n_replicates": {str(n): config.replicates for n in config.n_list},
        "workers": workers,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }
    manifest_path = out.with_suffix(".manifest.json")
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")

    paths = {"csv": csv_path, "summary": summary_path, "manifest": manifest_path}
    return paths, summary


def vacancy_frequency(tail: TailFunction, n: int, t: float, sites, replicates: int, base_seed: int):
    """Monte Carlo frequency of each site (and all sites jointly) being vacant at time t."""
    if n < 1 or replicates < 1:
        raise ValueError("n and replicates must be >= 1")
    single = np.zeros(np.size(sites), dtype=np.int64)
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
