"""Truncated Mandelbrot-Shepp arc model on the unit circle.

A configuration at intensity alpha and truncation z is a Poisson draw of
(position, length) points with rate alpha dx dy/y^2 restricted to y > z.
Each point projects to the OPEN arc (x, x+y) on the circle; points with y > 1
cover everything. Interval arithmetic is exact under that open convention:
abutting arcs leave their shared endpoint uncovered.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

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
    """Closed vacant pieces [lo[i], hi[i]], sorted and disjoint, in the doubled window [1, 2]."""
    if np.any(config.ys > 1.0):
        return np.empty(0), np.empty(0)
    # merge the open arcs in doubled coordinates, where a circle point q is
    # covered iff q+1 lies strictly inside a merged interval; _merge_open
    # keeps abutting arcs apart, so their junction stays uncovered
    xs, ys = config.xs, config.ys
    s = np.concatenate([xs, xs + 1.0])
    e = np.concatenate([xs + ys, xs + ys + 1.0])
    order = np.argsort(s, kind="stable")
    gs, ge = _merge_open(s[order], e[order])
    # closed gaps of the merged cover, clipped to the window [1, 2) that holds
    # one representative q+1 of every circle point q
    bounds_lo = np.concatenate([[-math.inf], ge])
    bounds_hi = np.concatenate([gs, [math.inf]])
    lo = np.maximum(bounds_lo, 1.0)
    hi = np.minimum(bounds_hi, 2.0)
    keep = (bounds_lo < 2.0) & (bounds_hi >= 1.0) & (lo <= hi)
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


def _lattice_vacant(config: CircleConfiguration, n: int) -> np.ndarray:
    """Vacancy indicator for the n lattice points k/n (open-arc convention)."""
    lo, hi = _vacant_bounds(config)
    # k/n + 1.0 meets the bounds in the doubled window, as in the merge; the
    # pieces are sorted and disjoint, so it lies in one iff more of them start
    # at or before it than end before it
    pos = np.arange(n, dtype=np.float64) / n + 1.0
    return np.searchsorted(lo, pos, side="right") > np.searchsorted(hi, pos, side="left")


def count_missing_lattice(config: CircleConfiguration, n: int) -> int:
    """Z_n: lattice points k/n left vacant by a configuration truncated at 1/n."""
    if config.z > 1.0 / n * (1.0 + 1e-12):
        raise ValueError(f"truncation mismatch: config.z={config.z} exceeds 1/n={1.0 / n}")
    return int(np.count_nonzero(_lattice_vacant(config, n)))


# -- coupled discrete projections --------------------------------------------


@dataclass(frozen=True)
class ProjectionSet:
    """Covered indices of Z/nZ read off one circle configuration."""

    n: int
    mask: np.ndarray

    def issubset(self, other: "ProjectionSet") -> bool:
        return bool(np.all(other.mask[self.mask]))


def project_W(config: CircleConfiguration, n: int) -> ProjectionSet:
    """Square-grid projection: each point covers ceil(nx) .. ceil(nx)+floor(ny)-1."""
    if config.z > 1.0 / n * (1.0 + 1e-12):
        raise ValueError("config must be truncated at z <= 1/n")
    xs, ys = config.xs, config.ys
    k = np.minimum(np.floor(n * ys), n).astype(np.int64)
    keep = k >= 1
    mask = covered_mask(n, np.ceil(n * xs[keep]).astype(np.int64), k[keep])
    return ProjectionSet(n=n, mask=mask)


def project_X(config: CircleConfiguration, n: int) -> ProjectionSet:
    """Lattice-run projection: each point covers the maximal run of j with j/n
    strictly inside its open arc."""
    if config.z > 1.0 / n * (1.0 + 1e-12):
        raise ValueError("config must be truncated at z <= 1/n")
    xs, ys = config.xs, config.ys
    full = ys > 1.0
    lo = np.floor(n * xs).astype(np.int64) + 1
    hi = np.ceil(n * (xs + ys)).astype(np.int64) - 1
    length = np.where(full, n, np.minimum(hi - lo + 1, n))
    keep = length >= 1
    mask = covered_mask(n, lo[keep], length[keep])
    return ProjectionSet(n=n, mask=mask)


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

