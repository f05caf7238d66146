"""The benchmark workloads: fixed lists of calls into arccover's public entry points.

A workload is built from its seed alone. Replicate seeds are
``derive_seed(seed, n, replicate)``, as in the program; the program only ever
receives the configs and arguments built here.

Each call object has
  ``replicates``       replicates one execution completes,
  ``execute(workers)`` the timed calls into the library, returning raw results,
  ``output(raw)``      (output bytes for the digest, problems found, bytes written).
"""
from __future__ import annotations

import dataclasses
import hashlib
import math
from pathlib import Path

import numpy as np

from arccover import circle, experiments, seeding, tails, torus

DEFAULT_SEED = experiments.DEFAULT_BASE_SEED

# Arcs drawn far outnumber sites: several hundred thousand arcs per replicate at
# n=1e5, so the O(n) sweep, the PCG64 draws and the radius inverse transform
# all carry real shares of the time.
COVER_DENSE = (("gumbel", "const:1", 100_000), ("gumbel", "geom:0.5", 100_000), ("bstar", "logpow:0", 100_000))
# Arcs drawn far below n: one batch, then about 14 O(n) sweeps of the
# first-cover search dominate; tail_prefix_total is paid once per process.
COVER_SPARSE = (("compact", "logpow:1", 100_000), ("preexp", "pow:-0.5", 1_000_000), ("exponential", "slowlog", 1_000_000))
COVER_REPLICATES = {"cover_dense": 6, "cover_sparse": 4}

SNAPSHOT_N = 100_000
SNAPSHOT_TAIL = "const:1"
SNAPSHOT_ALPHAS = (0.5, 1.0)
SNAPSHOT_REPLICATES = 8
SHEPP_PI_REPLICATES = 100
DIMENSION_REPLICATES = 50
PROJECT_N = 100_000
PROJECT_ALPHAS = (0.5, 1.5)
PROJECT_REPLICATES = 8

WORKLOADS = ("cover_dense", "cover_sparse", "snapshot")


def _csv_problems(config: experiments.ExperimentConfig, text: str) -> list[str]:
    """Row count, (n, replicate) order and the seed column of a run_experiment CSV."""
    lines = text.splitlines()
    if not lines or lines[0] != experiments.CSV_HEADER:
        return ["CSV header mismatch"]
    groups = len(config.alpha_list) if config.phase in ("shepp_pi", "dimension") else 1
    expected = [(n, rep) for _ in range(groups) for n in config.n_list for rep in range(config.replicates)]
    rows = [line.split(",") for line in lines[1:]]
    if len(rows) != len(expected):
        return [f"CSV has {len(rows)} rows, expected {len(expected)}"]
    for row, (n, rep) in zip(rows, expected):
        if (int(row[2]), int(row[3])) != (n, rep) or int(row[4]) != seeding.derive_seed(config.base_seed, n, rep):
            return [f"CSV row {row[:5]} does not match (n={n}, replicate={rep})"]
        if config.phase in experiments.COVER_PHASES and not (int(row[5]) >= 1 and 0.0 < float(row[6]) < math.inf):
            return [f"CSV row {row[:7]} has a bad tau or T"]
    return []


class ExperimentCall:
    """One ``run_experiment`` call; its output is the CSV and summary bytes."""

    def __init__(self, name: str, config: experiments.ExperimentConfig):
        self.name = name
        self.config = config
        groups = len(config.alpha_list) if config.phase in ("shepp_pi", "dimension") else 1
        self.replicates = groups * len(config.n_list) * config.replicates

    def execute(self, workers: int):
        paths, _summary = experiments.run_experiment(self.config, workers=workers)
        return paths

    def output(self, paths):
        csv = paths["csv"].read_bytes()
        summary = paths["summary"].read_bytes()
        written = sum(p.stat().st_size for p in paths.values())
        return csv + b"\0" + summary, _csv_problems(self.config, csv.decode()), written


class TorusSnapshotCall:
    """``snapshot_vacant`` per replicate, then ``vacancy_frequency`` and the exact
    vacancy formulas on the same seeds, as the ``arccover snapshot`` command runs them."""

    def __init__(self, alpha: float, seed: int):
        self.name = f"torus_snapshot_a{alpha:g}"
        self.tail = tails.parse_tail(SNAPSHOT_TAIL)
        self.n = SNAPSHOT_N
        self.t = alpha * self.n * math.log(self.n) / self.tail.mean()
        self.sites = (0, self.n // 2)
        self.seed = seed
        self.replicates = SNAPSHOT_REPLICATES

    def execute(self, workers: int):
        n, t = self.n, self.t
        snaps = [torus.snapshot_vacant(self.tail, n, t, seeding.derive_seed(self.seed, n, rep))
                 for rep in range(self.replicates)]
        freq, joint = experiments.vacancy_frequency(self.tail, n, t, self.sites, self.replicates, self.seed)
        exact = (torus.vacancy_probability_exact(self.tail, n, t),
                 torus.pair_vacancy_exact(self.tail, n, t, n // 2))
        return snaps, freq, joint, exact

    def output(self, raw):
        snaps, freq, joint, exact = raw
        problems = []
        vacant = np.zeros((len(snaps), len(self.sites)), dtype=bool)
        lines = []
        for rep, (count, idx) in enumerate(snaps):
            if idx is None or count != idx.size or np.any(np.diff(idx) <= 0) or (idx.size and not 0 <= idx[0] <= idx[-1] < self.n):
                problems.append(f"{self.name} replicate {rep}: vacant count and indices disagree")
                continue
            vacant[rep] = np.isin(self.sites, idx)
            lines.append(f"{rep} {count} {_sha(idx.astype('<i8').tobytes())}")
        # site_vacancy and snapshot_vacant read the same stream, so the
        # frequencies must equal the membership counts exactly
        got = [*map(float, freq), joint]
        want = [*map(float, vacant.sum(axis=0) / len(snaps)), int(vacant.all(axis=1).sum()) / len(snaps)]
        if got != want:
            problems.append(f"{self.name}: vacancy_frequency gives {got}, snapshot_vacant gives {want}")
        lines.append(" ".join(f"{v!r}" for v in (*got, *exact)))
        return "\n".join(lines).encode(), problems, 0


class ProjectionCall:
    """``project_W`` and ``project_X`` of circle configurations truncated at 1/n."""

    def __init__(self, alpha: float, seed: int):
        self.name = f"project_a{alpha:g}"
        self.alpha = alpha
        self.n = PROJECT_N
        self.seed = seed
        self.replicates = PROJECT_REPLICATES

    def execute(self, workers: int):
        out = []
        for rep in range(self.replicates):
            config = circle.sample_truncated(self.alpha, 1.0 / self.n, seeding.derive_seed(self.seed, self.n, rep))
            out.append((config.count, circle.project_W(config, self.n).mask, circle.project_X(config, self.n).mask))
        return out

    def output(self, raw):
        problems = []
        lines = []
        for rep, (count, w, x) in enumerate(raw):
            if w.shape != (self.n,) or x.shape != (self.n,) or np.any(w & ~x):
                problems.append(f"{self.name} replicate {rep}: W projection not inside X projection")
            lines.append(f"{rep} {count} {_sha(np.packbits(w).tobytes())} {_sha(np.packbits(x).tobytes())}")
        return "\n".join(lines).encode(), problems, 0


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def build(workload: str, seed: int, out_dir: Path) -> list:
    """The calls of one workload, in the order they run."""
    out_dir = Path(out_dir)
    if workload in ("cover_dense", "cover_sparse"):
        runs = COVER_DENSE if workload == "cover_dense" else COVER_SPARSE
        calls = []
        for phase, tail, n in runs:
            name = f"{phase}_{tail}_n{n}"
            config = experiments.ExperimentConfig(
                phase=phase, tail=tail, n_list=(n,), replicates=COVER_REPLICATES[workload],
                base_seed=seed, output_path=str(out_dir / name.replace(":", "")))
            calls.append(ExperimentCall(name, config))
        return calls
    if workload == "snapshot":
        calls = [TorusSnapshotCall(alpha, seed) for alpha in SNAPSHOT_ALPHAS]
        for preset, reps in (("shepp_pi", SHEPP_PI_REPLICATES), ("dimension", DIMENSION_REPLICATES)):
            config = experiments.preset_config(preset, base_seed=seed, output_path=str(out_dir / preset))
            calls.append(ExperimentCall(preset, dataclasses.replace(config, replicates=reps)))
        calls += [ProjectionCall(alpha, seed) for alpha in PROJECT_ALPHAS]
        return calls
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
