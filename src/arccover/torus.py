"""Discrete covering process on Z/nZ: arc placement, cover times, vacancy formulas.

Every random quantity comes from one pinned arc stream per seed: uniform
starts on Z/nZ and radii drawn from the tail by inverse transform, written out
once in ``_first_cover`` (cover times) and once in ``_covered_at`` (the arcs
present at a fixed Poisson time). Coverage has two kernels. The one-pass
prefix-max sweep ``_CoverSweep`` with a wrap term does O(n + arcs) vectorized
work over n-sized buffers; every fixed-time coverage or vacancy question is
read off its mask. The interval merge ``_SparseCover`` sorts the arcs it holds
and does O(arcs) work with no n-sized buffer. ``run_to_cover`` picks the
first-cover engine from the arcs it holds against n: it merges while they
number at most n / ``SPARSE_SITES_PER_ARC`` and hands off to the sweep past
that point. The arc-by-arc reference engines that tests compare both against
live in ``tests/oracles.py``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .seeding import generator
from .tails import TailFunction, tail_prefix_total

__all__ = [
    "CoverResult",
    "run_to_cover",
    "snapshot_vacant",
    "site_vacancy",
    "vacancy_probability_exact",
    "pair_vacancy_exact",
    "covered_mask",
]

ARC_HARD_CAP = 10**10
VACANT_INDEX_LIMIT = 10**6
SWEEP_N_LIMIT = (2**31 - 1) // 3
# run_to_cover merges while it holds at most n / 8 arcs and pieces. Measured at
# n = 1e6 (pow:-0.5, one batch of B arcs), the merge takes 3% of the sweep's
# time at B = n / 100, 30% at n / 8, 75% at n / 4 and 178% at n / 2
SPARSE_SITES_PER_ARC = 8


@dataclass(frozen=True)
class CoverResult:
    """One replicate: discrete cover time tau, Poissonized time T, largest placed arc."""

    n: int
    tau: int
    T: float
    max_radius: int
    seed: int


# -- vectorized coverage sweep ---------------------------------------------


def _check_sweep_size(n: int) -> None:
    # reach[] holds p + L[p] <= 2n - 1 in int32; checked before allocating
    if n > SWEEP_N_LIMIT:
        raise ValueError(f"torus size {n} exceeds {SWEEP_N_LIMIT}, the int32 limit of the coverage sweep")


class _CoverSweep:
    """Reusable n-sized buffers for the one-pass prefix-max coverage sweep.

    For arcs {p, ..., p+L[p]-1} mod n with L[p] <= n, site v is covered iff
    max over p <= v of p + L[p] exceeds v, or max over all p of p + L[p] - n
    (the wrap term) exceeds v. Taking the wrap max over all p is safe: an arc
    from p <= v that reaches v + n also reaches v. O(n + #arcs) per call.
    """

    def __init__(self, n: int):
        _check_sweep_size(n)
        self.n = n
        self._L = np.zeros(n, dtype=np.int32)
        self._reach = np.empty(n, dtype=np.int32)
        self._base = np.arange(n, dtype=np.int32)

    def accumulate(self, starts, lengths):
        """Fold a chunk of arcs into the per-start max-length table."""
        if len(starts):
            np.maximum.at(self._L, starts, lengths.astype(np.int32, copy=False))

    def finish(self, clear=None):
        """Mask of covered sites from the accumulated table; ``clear`` lists starts to reset."""
        reach = self._reach
        np.add(self._base, self._L, out=reach)
        np.maximum.accumulate(reach, out=reach)
        np.maximum(reach, reach[-1] - self.n, out=reach)
        if clear is not None and len(clear):
            self._L[clear] = 0
        return reach > self._base

    def covered(self, starts, lengths):
        """Mask of the sites covered by these arcs alone (starts in [0, n), lengths <= n)."""
        self.accumulate(starts, lengths)
        return self.finish(clear=starts)


def covered_mask(n: int, starts: np.ndarray, lengths: np.ndarray):
    """One-shot coverage of the union of arcs {start, ..., start+len-1} mod n, each start taken mod n."""
    lengths = np.minimum(np.asarray(lengths, dtype=np.int64), n)
    return _CoverSweep(n).covered(np.asarray(starts, dtype=np.int64) % n, lengths)


def _default_batch(tail: TailFunction, n: int) -> int:
    est = n * (math.log(max(n, 2)) + 2.0) / tail_prefix_total(tail, n)
    return int(min(max(1024.0, 1.25 * est), 262144.0))


def _first_cover(tail: TailFunction, n: int, seed: int, batch_size: int | None, place) -> CoverResult:
    """Draw the pinned arc stream batch by batch until ``place`` reports cover.

    Each batch takes B starts, then B uniforms turned into radii, then B
    exponentials. ``place(starts, radii)`` returns None while a site stays
    vacant after the batch, else the number k >= 1 of the batch's arcs after
    which the torus is first covered.
    """
    rng = generator(seed)
    B = batch_size or _default_batch(tail, n)
    arcs_before = 0
    eta_parts: list[float] = []
    max_r = 0
    while True:
        u = rng.integers(0, n, B, dtype=np.int64)
        r = tail.sample_radii(1.0 - rng.random(B), cap=n)
        eta = rng.standard_exponential(B)
        k = place(u, r)
        if k is not None:
            T = math.fsum(eta_parts + [float(np.sum(eta[:k]))])
            max_r = max(max_r, int(r[:k].max()))
            return CoverResult(n=n, tau=arcs_before + k, T=T, max_radius=max_r, seed=seed)
        arcs_before += B
        eta_parts.append(float(np.sum(eta)))
        max_r = max(max_r, int(r.max()))
        if arcs_before > ARC_HARD_CAP:
            raise RuntimeError(f"no cover after {arcs_before} arcs; configuration bug?")


def _shortest_prefix(covers, B: int) -> int:
    """Smallest k in [1, B] with covers(k), for covers monotone in k and covers(B) true."""
    lo, hi = 1, B
    while lo < hi:
        mid = (lo + hi) // 2
        if covers(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


class _SparseCover:
    """Interval-merge first-cover search in O(arcs held) work, with no n-sized buffer.

    The sites covered by earlier batches are held as sorted, merged,
    non-wrapping pieces [start, end) of int64. Taken in order of start, a set
    of arcs covers the torus iff its largest end reaches n and each arc starts
    at or before the larger of the earlier arcs' largest end and the wrap term
    (largest end - n); otherwise the site at that reach is vacant.
    """

    def __init__(self, n: int):
        self.n = n
        self.starts = self.ends = np.empty(0, dtype=np.int64)

    def place(self, u: np.ndarray, r: np.ndarray):
        """``_first_cover``'s place: the batch joins the pieces unless some prefix covers."""
        n = self.n
        B = len(u)
        starts = np.concatenate((u, self.starts))
        order = np.argsort(starts)
        starts = starts[order]
        ends = np.concatenate((u + r, self.ends))[order]
        # pieces carry index -1, so every prefix keeps them
        index = np.concatenate((np.arange(B), np.full(len(self.starts), -1)))[order]

        def covers(k):
            kept = index < k
            reach = np.maximum.accumulate(np.where(kept, ends, 0))
            wrap = int(reach[-1]) - n
            if wrap < 0:
                return False
            # shift to the reach before each arc; dropped arcs count as starting at 0
            reach[1:] = reach[:-1]
            reach[0] = 0
            return not (np.where(kept, starts, 0) > np.maximum(reach, wrap)).any()

        if covers(B):
            return _shortest_prefix(covers, B)
        wrap = int(ends.max()) - n
        if wrap > 0:
            starts = np.concatenate(([0], starts))
            ends = np.concatenate(([wrap], ends))
        reach = np.maximum.accumulate(np.minimum(ends, n))
        breaks = np.flatnonzero(starts[1:] > reach[:-1])
        self.starts = starts[np.concatenate(([0], breaks + 1))]
        self.ends = reach[np.append(breaks, len(reach) - 1)]
        return None


def run_to_cover(tail: TailFunction, n: int, seed: int, batch_size: int | None = None) -> CoverResult:
    """Place i.i.d. arcs (uniform start, inverse-transform radius) until covered.

    Deterministic given the seed. Arcs are drawn from the pinned PCG64 stream in
    batches of B(tail, n); radii are clamped to n at placement. T is the sum of
    one standard exponential per placed arc. Batches go to the interval merge
    while the pieces held plus B stay at most n / SPARSE_SITES_PER_ARC, then to
    the sweep, which starts from the pieces; both give the same first cover.
    """
    _check_sweep_size(n)  # before any draw: the merge may hand off to the sweep
    B = batch_size or _default_batch(tail, n)
    sparse = _SparseCover(n)
    sweep = before = None

    def start_sweep():
        # the sweep starts from the pieces merged so far
        nonlocal sweep, before
        sweep = _CoverSweep(n)
        before = sweep.covered(sparse.starts, sparse.ends - sparse.starts)

    if B * SPARSE_SITES_PER_ARC > n:
        # allocated before the first draw, the sweep's buffers do not pin
        # the heap above the batch arrays
        start_sweep()

    def place(u, r):
        # merge while few arcs are held; past that, join the batch's mask to
        # the earlier coverage and, on cover, bisect for the shortest prefix
        nonlocal before
        if sweep is None:
            if (len(sparse.starts) + B) * SPARSE_SITES_PER_ARC <= n:
                return sparse.place(u, r)
            start_sweep()
        cov = sweep.covered(u, r) | before
        if not cov.all():
            before = cov
            return None
        return _shortest_prefix(lambda k: bool((sweep.covered(u[:k], r[:k]) | before).all()), len(u))

    return _first_cover(tail, n, seed, B, place)


# -- timed snapshots ---------------------------------------------------------

_DRAW_CHUNK = 1 << 22


def _covered_at(tail: TailFunction, n: int, t: float, seed: int) -> np.ndarray:
    """Coverage of every site at Poisson time t: N ~ Poisson(t) arcs swept into one mask.

    Each chunk of m arcs takes m starts, then m uniforms turned into radii
    (clamped to n).
    """
    if t < 0:
        raise ValueError("t must be >= 0")
    sweep = _CoverSweep(n)
    rng = generator(seed)
    N = int(rng.poisson(t))
    for done in range(0, N, _DRAW_CHUNK):
        m = min(N - done, _DRAW_CHUNK)
        # no chunk array outlives accumulate: one kept alive through finish
        # sits below finish's allocations and keeps the heap from shrinking
        sweep.accumulate(rng.integers(0, n, m, dtype=np.int64),
                         tail.sample_radii(1.0 - rng.random(m), cap=n))
    return sweep.finish()


def snapshot_vacant(tail: TailFunction, n: int, t: float, seed: int):
    """State at Poisson time t: draws N ~ Poisson(t) arcs, returns (vacant_count, vacant_indices).

    vacant_indices is None when the count exceeds 10**6 (memory guard).
    """
    cov = _covered_at(tail, n, t, seed)
    count = int(n - np.count_nonzero(cov))
    if count > VACANT_INDEX_LIMIT:
        return count, None
    return count, np.flatnonzero(~cov)


def site_vacancy(tail: TailFunction, n: int, t: float, seed: int, sites) -> np.ndarray:
    """Vacancy indicators at Poisson time t for ``sites``, each taken mod n."""
    return ~_covered_at(tail, n, t, seed)[np.asarray(sites, dtype=np.int64) % n]


# -- exact vacancy formulas ---------------------------------------------------


def vacancy_probability_exact(tail: TailFunction, n: int, t: float) -> float:
    """P(one fixed site vacant at time t) = exp(-t F_n / n)."""
    if t < 0:
        raise ValueError("t must be >= 0")
    return math.exp(-t * tail_prefix_total(tail, n) / n)


def pair_vacancy_exact(tail: TailFunction, n: int, t: float, k: int) -> float:
    """P(sites 0 and k both vacant at time t) = exp(-t (F_k + F_{n-k}) / n)."""
    if t < 0:
        raise ValueError("t must be >= 0")
    if not 1 <= k <= n - 1:
        raise IndexError(f"separation k={k} outside [1, {n - 1}]")
    fk = tail_prefix_total(tail, k) + tail_prefix_total(tail, n - k)
    return math.exp(-t * fk / n)
