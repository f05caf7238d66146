"""Empirical distributions, reference laws, the coupon-collector oracle,
and a Galton-Watson simulator with moment checks."""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .seeding import derive_seed, generator

__all__ = [
    "EmpiricalDistribution",
    "KSResult",
    "OffspringLaw",
    "gumbel_cdf",
    "exp_cdf",
    "ks_distance",
    "coupon_collector_sample",
    "preexp_bounds",
    "branching_run",
    "kesten_stigum_check",
    "extinction_frequency",
]

POPULATION_CAP = 10**9


def gumbel_cdf(t):
    """Standard Gumbel law exp(-exp(-t))."""
    return np.exp(-np.exp(-np.asarray(t, dtype=np.float64)))


def exp_cdf(t):
    """Unit-rate exponential law max(0, 1 - exp(-t))."""
    t = np.asarray(t, dtype=np.float64)
    return np.where(t > 0.0, -np.expm1(-t), 0.0)


@dataclass(frozen=True)
class KSResult:
    D: float
    m: int

    @property
    def threshold_5pct(self) -> float:
        return 1.36 / math.sqrt(self.m)


@dataclass(frozen=True)
class EmpiricalDistribution:
    """Sorted sample set with right-continuous ECDF evaluation."""

    samples: np.ndarray

    @classmethod
    def from_samples(cls, values) -> "EmpiricalDistribution":
        arr = np.sort(np.asarray(values, dtype=np.float64))
        if arr.size < 1:
            raise ValueError("need at least one sample")
        return cls(samples=arr)

    @property
    def m(self) -> int:
        return int(self.samples.size)

    def ecdf(self, x):
        return np.searchsorted(self.samples, np.asarray(x, dtype=np.float64), side="right") / self.m


def ks_distance(emp: EmpiricalDistribution, cdf) -> KSResult:
    """One-sample sup distance between the ECDF and a reference CDF."""
    m = emp.m
    F = np.asarray(cdf(emp.samples), dtype=np.float64)
    i = np.arange(1, m + 1, dtype=np.float64)
    d_plus = float(np.max(i / m - F))
    d_minus = float(np.max(F - (i - 1.0) / m))
    return KSResult(D=max(d_plus, d_minus), m=m)


def coupon_collector_sample(K: int, p: float, seed: int) -> float:
    """Time-changed coupon collector: max of K exponentials with rate p/K."""
    if K < 1:
        raise ValueError("K must be >= 1")
    if not 0.0 < p <= 1.0:
        raise ValueError("thinning rate p must lie in (0, 1]")
    rng = generator(seed)
    return float(rng.standard_exponential(K).max() * (K / p))


def preexp_bounds(alpha: float, p: float) -> tuple[float, float]:
    """CDF sandwich for the heavy-tail limit at index p in (-1,0).

    upper uses the Karamata constant 1/(1+p); lower is the two-region
    inclusion-exclusion bound 1 - e^-a + e^-a (1 - e^{-a/2^(1+p)})^2.
    """
    if not alpha > 0:
        raise ValueError("alpha must be positive")
    if not -1.0 < p < 0.0:
        raise ValueError("p must lie in (-1, 0)")
    upper = -math.expm1(-alpha / (1.0 + p))
    lower = -math.expm1(-alpha) + math.exp(-alpha) * (-math.expm1(-alpha / 2.0 ** (1.0 + p))) ** 2
    return lower, upper


@dataclass(frozen=True)
class OffspringLaw:
    """Finite offspring pmf on {0..K} with derived mean and variance."""

    pmf: np.ndarray
    mu: float = field(init=False)
    sigma2: float = field(init=False)

    def __post_init__(self):
        pmf = np.asarray(self.pmf, dtype=np.float64)
        if pmf.ndim != 1 or pmf.size < 1 or np.any(pmf < 0):
            raise ValueError("pmf must be a nonnegative 1-d vector")
        if abs(float(pmf.sum()) - 1.0) > 1e-12:
            raise ValueError("pmf must sum to 1 within 1e-12")
        object.__setattr__(self, "pmf", pmf)
        k = np.arange(pmf.size, dtype=np.float64)
        mu = float(np.dot(k, pmf))
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "sigma2", float(np.dot(k * k, pmf) - mu * mu))

    @classmethod
    def from_dict(cls, d: dict[int, float]) -> "OffspringLaw":
        k_max = max(d)
        pmf = np.zeros(k_max + 1)
        for k, w in d.items():
            pmf[k] = w
        return cls(pmf=pmf)

    @classmethod
    def binomial(cls, trials: int, p: float) -> "OffspringLaw":
        k = np.arange(trials + 1)
        pmf = np.array([math.comb(trials, int(j)) for j in k], dtype=np.float64)
        pmf *= p ** k * (1.0 - p) ** (trials - k)
        return cls(pmf=pmf / pmf.sum())

    @classmethod
    def deterministic(cls, k: int) -> "OffspringLaw":
        pmf = np.zeros(k + 1)
        pmf[k] = 1.0
        return cls(pmf=pmf)


def _next_generation(rng: np.random.Generator, z: int, law: OffspringLaw) -> int:
    counts = rng.multinomial(z, law.pmf)
    return int(np.dot(counts, np.arange(law.pmf.size)))


def branching_run(law: OffspringLaw, generations: int, seed: int) -> np.ndarray:
    """Galton-Watson trajectory Z_0..Z_g from Z_0 = 1; deterministic given seed."""
    if generations < 0:
        raise ValueError("generations must be >= 0")
    rng = generator(seed)
    traj = np.empty(generations + 1, dtype=np.int64)
    z = 1
    traj[0] = z
    for g in range(1, generations + 1):
        if z > 0:
            z = _next_generation(rng, z, law)
            if z > POPULATION_CAP:
                raise RuntimeError(f"population exceeded {POPULATION_CAP} at generation {g}; runaway configuration")
        traj[g] = z
    return traj


def kesten_stigum_check(law: OffspringLaw, generations: int, replicates: int, seed: int) -> tuple[float, float]:
    """Sample mean and variance of W = Z_g / mu^g over independent runs."""
    if law.mu <= 1.0:
        raise ValueError("law must be supercritical (mu > 1)")
    scale = law.mu**generations
    w = np.empty(replicates)
    for rep in range(replicates):
        w[rep] = branching_run(law, generations, derive_seed(seed, generations, rep))[-1] / scale
    return float(w.mean()), float(w.var(ddof=1))


def extinction_frequency(law: OffspringLaw, replicates: int, seed: int,
                         max_generations: int = 200, survival_cutoff: int = 10**6) -> float:
    """Fraction of runs that die out; runs reaching the cutoff count as survived."""
    extinct = 0
    for rep in range(replicates):
        rng = generator(derive_seed(seed, max_generations, rep))
        z = 1
        for _ in range(max_generations):
            z = _next_generation(rng, z, law)
            if z == 0:
                extinct += 1
                break
            if z >= survival_cutoff:
                break
    return extinct / replicates
