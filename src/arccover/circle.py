"""Truncated Mandelbrot-Shepp arc model on the unit circle.

A configuration at intensity alpha and truncation z is a Poisson draw of
(position, length) points with rate alpha dx dy/y^2 restricted to y > z.
Each point projects to the OPEN arc (x, x+y) on the circle; points with y > 1
cover everything. Interval arithmetic is exact under that open convention:
abutting arcs leave their shared endpoint uncovered. On the lattice Z/nZ, site
j is covered by (x, x + y) iff n·x < j < n·(x + y), taken mod n and exact on the
stored doubles; each lattice boundary is one exact floor, ``_floor_n``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .seeding import generator
from .torus import _merge_open, covered_mask

__all__ = [
    "CircleConfiguration",
    "VacantIntervals",
    "ProjectionSet",
    "sample_truncated",
    "vacant_set",
    "is_covered",
    "count_missing_lattice",
    "project_W",
    "project_X",
    "shepp_series",
]


@dataclass(frozen=True)
class CircleConfiguration:
    """Finite truncated configuration: arcs (x_i, y_i) with every y_i > z."""

    alpha: float
    z: float
    xs: np.ndarray
    ys: np.ndarray

    def __post_init__(self):
        if self.xs.shape != self.ys.shape:
            raise ValueError(f"xs and ys differ in shape: {self.xs.shape} vs {self.ys.shape}")
        if not (np.all((self.xs >= 0.0) & (self.xs < 1.0)) and np.all(self.ys > 0.0)):
            raise ValueError("every arc needs a start x in [0, 1) and a length y > 0")

    @property
    def count(self) -> int:
        return int(self.xs.size)

    def truncate(self, z_new: float) -> "CircleConfiguration":
        """Sub-configuration of arcs longer than z_new (requires z_new >= z)."""
        if z_new < self.z:
            raise ValueError("can only truncate upward: z_new >= z")
        keep = self.ys > z_new
        return CircleConfiguration(self.alpha, z_new, self.xs[keep], self.ys[keep])


@dataclass(frozen=True)
class VacantIntervals:
    """Closed vacant pieces of the circle, split at the wrap point.

    Each piece (a, b) with 0 <= a <= b <= 1 is the closed set of circle points
    in [a, b]; a == b marks an isolated uncovered point. A piece ending at 1.0
    abuts the seam; the circle point 0 itself is vacant only when some piece
    starts at 0.0. ``wraps`` is True when the first and last pieces join
    across 1 -> 0.
    """

    pieces: tuple[tuple[float, float], ...]
    wraps: bool

    @property
    def total_length(self) -> float:
        return math.fsum(b - a for a, b in self.pieces)

    @property
    def is_empty(self) -> bool:
        return not self.pieces


def sample_truncated(alpha: float, z: float, seed: int) -> CircleConfiguration:
    """Poisson(alpha/z) arcs: x uniform, y = z/U so that P(y >= s) = z/s."""
    if alpha < 0:
        raise ValueError("alpha must be >= 0")
    if z <= 0:
        raise ValueError("truncation height must be positive")
    rng = generator(seed)
    count = int(rng.poisson(alpha / z)) if alpha > 0 else 0
    xs = rng.random(count)
    u = rng.random(count)
    u[u == 0.0] = 2.0**-53  # keep y strictly above z
    ys = z / (1.0 - u)
    return CircleConfiguration(alpha, z, xs, ys)


def _vacant_bounds(config: CircleConfiguration) -> tuple[np.ndarray, np.ndarray]:
    """Closed vacant pieces [lo[i], hi[i]], sorted and disjoint, in the window [1, 2].

    A circle point q is covered iff q + 1 lies strictly inside a merged arc
    (x + 1, (x + y) + 1), or inside (x, x + y) for an arc with x + y > 1; those
    seam arcs all hold the point 1.0, so they merge into the first group. 2.0
    stands for the same circle point as 1.0, so no gap starts there.
    """
    if np.any(config.ys > 1.0):
        return np.empty(0), np.empty(0)
    s = config.xs + 1.0
    # stable: an arc with (x + y) + 1.0 == x + 1.0 opens a group only when it comes first among equal starts
    order = np.argsort(s, kind="stable")
    ends = (config.xs + config.ys)[order]
    seam = ends > 1.0
    gs, ge = _merge_open(np.concatenate([config.xs[order][seam], s[order]]),
                         np.concatenate([ends[seam], ends + 1.0]))
    lo = np.concatenate([[1.0], ge])
    hi = np.concatenate([gs, [2.0]])
    keep = (lo <= hi) & (lo < 2.0)
    return lo[keep], hi[keep]


def vacant_set(config: CircleConfiguration) -> VacantIntervals:
    """Exact complement of the union of open projected arcs."""
    lo, hi = _vacant_bounds(config)
    pieces = tuple((a - 1.0, b - 1.0) for a, b in zip(lo, hi))
    wraps = len(pieces) >= 2 and pieces[0][0] == 0.0 and pieces[-1][1] == 1.0
    return VacantIntervals(pieces=pieces, wraps=wraps)


def is_covered(config: CircleConfiguration) -> bool:
    """True iff the open arcs cover every circle point, isolated gaps included."""
    return not _vacant_bounds(config)[0].size


# -- coupled discrete projections --------------------------------------------


@dataclass(frozen=True)
class ProjectionSet:
    """Covered indices of Z/nZ read off one circle configuration."""

    n: int
    mask: np.ndarray

    def issubset(self, other: "ProjectionSet") -> bool:
        return bool(np.all(other.mask[self.mask]))


def _floor_n(n: int, x: np.ndarray, y=0.0) -> np.ndarray:
    """floor(n·(x + y)) as int64, exact on the stored doubles."""
    v = n * (x + y)
    out = np.floor(v).astype(np.int64)
    # v is off by < 1.5 ulps < 2**-50·|v|, so only a v that close to an integer needs Fraction
    for i in (np.abs(v - np.rint(v)) <= 2.0**-50 * np.abs(v)).nonzero()[0]:
        out[i] = math.floor(n * (Fraction(x[i]) + Fraction(np.broadcast_to(y, v.shape)[i])))
    return out


def _check_truncation(config: CircleConfiguration, n: int) -> None:
    if config.z > 1.0 / n * (1.0 + 1e-12):
        raise ValueError(f"truncation mismatch: config.z={config.z} exceeds 1/n={1.0 / n}")


def project_W(config: CircleConfiguration, n: int) -> ProjectionSet:
    """Square-grid projection: each point covers ceil(nx) .. ceil(nx)+floor(ny)-1."""
    _check_truncation(config, n)
    k = np.minimum(_floor_n(n, config.ys), n)
    keep = k >= 1
    return ProjectionSet(n, covered_mask(n, -_floor_n(n, -config.xs[keep]), k[keep]))


def project_X(config: CircleConfiguration, n: int) -> ProjectionSet:
    """Lattice-run projection: each point covers the j with n·x < j < n·(x + y)."""
    _check_truncation(config, n)
    xs, ys = config.xs, config.ys
    lo = _floor_n(n, xs) + 1
    length = np.where(ys > 1.0, n, np.minimum(-_floor_n(n, -xs, -ys) - lo, n))  # ceil(n·(x + y)) - lo
    keep = length >= 1
    return ProjectionSet(n, covered_mask(n, lo[keep], length[keep]))


def count_missing_lattice(config: CircleConfiguration, n: int) -> int:
    """Z_n: lattice sites left vacant by a configuration truncated at 1/n."""
    return n - int(np.count_nonzero(project_X(config, n).mask))


# -- series diagnostic and fractal exponent ----------------------------------

DIVERGING = "diverging"
CONVERGING = "converging"
INCONCLUSIVE = "inconclusive"

_SLOPE_GUARD = 1e-3  # numerical margin at the -1 boundary (harmonic case fits at -1 - O(1/N))


def shepp_series(lengths, N: int):
    """Partial sums of n^-2 exp(l_1 + ... + l_n) and a divergence classification.

    ``lengths`` is a callable n -> l_n; l must be non-increasing
    in [0, 1). Classification fits the log-log slope of the terms over the last
    decade: slope >= -1 (minus a small numerical guard) means diverging, slope
    below -1.05 means converging, anything between is inconclusive.
    """
    if N < 10:
        raise ValueError("need N >= 10")
    if N > 10**7:
        raise ValueError("N capped at 10**7")
    idx = np.arange(1, N + 1, dtype=np.float64)
    ell = np.asarray([lengths(i) for i in range(1, N + 1)], dtype=np.float64)
    if np.any(ell < 0.0) or np.any(ell > 1.0):
        raise ValueError("arc lengths must lie in [0, 1]")
    if np.any(np.diff(ell) > 0.0):
        raise ValueError("arc lengths must be non-increasing")
    log_terms = np.cumsum(ell) - 2.0 * np.log(idx)
    partial = np.cumsum(np.exp(log_terms))
    window = idx >= N // 10
    slope = np.polyfit(np.log(idx[window]), log_terms[window], 1)[0]
    if slope >= -1.0 - _SLOPE_GUARD:
        cls = DIVERGING
    elif slope < -1.05:
        cls = CONVERGING
    else:
        cls = INCONCLUSIVE
    return partial, cls

