"""Discrete covering process on Z/nZ: arc placement, cover times, vacancy formulas.

Every random quantity comes from one pinned arc stream per seed: uniform
starts on Z/nZ and radii drawn from the tail by inverse transform, laid out
only by ``_draw_arcs``. Coverage has two kernels. The one-pass prefix-max sweep
``_CoverSweep`` with a wrap term does O(n + arcs) vectorized work over n-sized
buffers; every fixed-time coverage or vacancy question is read off its mask.
The interval merge ``_SparseCover`` holds sorted pieces, sorts each batch and
merges it in, with O(arcs) work and no n-sized buffer; it asks whether open
arcs cover a circle of length n by the rule ``_window_covers`` /
``_window_gaps`` that the circle model asks at length 1. ``run_to_cover``
picks one of the two per run from the batch size, before the first draw, and
the merge alone searches the covering batch for its shortest covering prefix:
the sweep hands it the arcs after a probe that leaves sites vacant, mapped
onto the torus of those sites. The arc-by-arc reference engines that tests
compare both against live in ``tests/oracles.py``.
"""
from __future__ import annotations

import math
import numbers
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
# run_to_cover merges when a batch holds at most n / 8 arcs. Measured at
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
    if not isinstance(n, numbers.Integral) or n < 1:
        raise ValueError(f"torus size {n} must be an integer >= 1")
    if n > SWEEP_N_LIMIT:
        raise ValueError(f"torus size {n} exceeds {SWEEP_N_LIMIT}, the int32 limit of the coverage sweep")


class _CoverSweep:
    """Reusable n-sized buffers for the one-pass prefix-max coverage sweep of Z/nZ.

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

    def finish(self):
        """Mask of covered sites from the accumulated table."""
        reach = self._reach
        np.add(self._base, self._L, out=reach)
        np.maximum.accumulate(reach, out=reach)
        np.maximum(reach, reach[-1] - self.n, out=reach)
        return reach > self._base

    def covered(self, starts, lengths):
        """Mask of the sites covered by these arcs alone (starts in [0, n), lengths <= n); leaves the table clear."""
        self.accumulate(starts, lengths)
        mask = self.finish()
        # a memset: run_to_cover sweeps only batches of more than n / 8
        # arcs, where it costs less than scattering zeros over the starts,
        # and it never costs more than finish's own O(n) passes
        self._L.fill(0)
        return mask


def covered_mask(n: int, starts: np.ndarray, lengths: np.ndarray):
    """One-shot coverage of the union of arcs {start, ..., start+len-1} mod n, each start taken mod n."""
    lengths = np.minimum(np.asarray(lengths, dtype=np.int64), n)
    sweep = _CoverSweep(n)
    sweep.accumulate(np.asarray(starts, dtype=np.int64) % n, lengths)
    return sweep.finish()


def _default_batch(tail: TailFunction, n: int) -> int:
    est = n * (math.log(max(n, 2)) + 2.0) / tail_prefix_total(tail, n)
    return int(min(max(1024.0, 1.25 * est), 262144.0))


def _draw_arcs(rng, tail: TailFunction, n: int, m: int):
    """The pinned layout of m arcs: m starts on Z/nZ, then m uniforms turned into radii clamped to n."""
    return rng.integers(0, n, m, dtype=np.int64), tail.sample_radii(1.0 - rng.random(m), cap=n)


def _first_cover(tail: TailFunction, n: int, seed: int, B: int, place) -> CoverResult:
    """Draw batches of B arcs from ``_draw_arcs``, each followed by one exponential per arc placed, until cover.

    ``place(starts, radii)`` returns None while a site stays vacant, else the
    k >= 1 arcs of the batch that cover. A batch that leaves a site vacant is
    followed by B exponentials, the covering batch by k, and nothing is drawn
    after it. PCG64's ``standard_exponential`` draws one value at a time, so
    the k are the first k of the B a full draw would give.
    """
    rng = generator(seed)
    arcs_before = 0
    eta_parts: list[float] = []
    max_r = 0
    while True:
        u, r = _draw_arcs(rng, tail, n, B)
        k = place(u, r)
        if k is not None:
            T = math.fsum(eta_parts + [float(np.sum(rng.standard_exponential(k)))])
            max_r = max(max_r, int(r[:k].max()))
            return CoverResult(n=n, tau=arcs_before + k, T=T, max_radius=max_r, seed=seed)
        arcs_before += B
        max_r = max(max_r, int(r.max()))
        del u, r  # before the exponentials, starts first, as in _covered_at
        eta_parts.append(float(np.sum(rng.standard_exponential(B))))
        if arcs_before > ARC_HARD_CAP:
            raise RuntimeError(f"no cover after {arcs_before} arcs; configuration bug?")


def _merge_open(lo: np.ndarray, hi: np.ndarray):
    """Union of open intervals (lo[i], hi[i]) sorted by lo, as disjoint groups (starts, ends);
    touching intervals stay apart, so their shared end stays out of the union."""
    reach = np.maximum.accumulate(hi)
    first = np.ones(lo.size, dtype=bool)
    first[1:] = lo[1:] >= reach[:-1]
    last = np.ones(lo.size, dtype=bool)
    last[:-1] = first[1:]
    return lo[first], reach[last]


def _window_covers(starts: np.ndarray, ends: np.ndarray, L, seam) -> bool:
    """Whether open arcs (starts[i], ends[i]) and the seam piece (L - 1, seam) cover a circle of length L.

    The circle is read on its window [L, 2L]: circle point q is the window
    point L + q, and 2L stands for L. The arcs are sorted by start, each start
    in [L - 1, 2L]. The arcs that cross the seam all hold the point L, so they
    are one piece, seam = max(L, w) with w their farthest end on the unshifted
    circle; here seam < 2L.
    """
    reach = np.maximum.accumulate(ends)
    # the first arc whose reach gets to 2L; the arcs after it do not matter
    k = int(reach.searchsorted(2 * L))
    # each start against the reach before it, the seam piece's included
    return k < reach.size and starts[0] < seam and not (starts[1 : k + 1] >= np.maximum(reach[:k], seam)).any()


def _window_gaps(starts: np.ndarray, ends: np.ndarray, L, seam):
    """The closed gaps [lo[i], hi[i]] that the pieces of ``_window_covers`` leave in [L, 2L], sorted and disjoint.

    Exact only for arcs that start at L or later: one that starts in [L - 1, L) holds L, yet the last gap ends at 2L.
    """
    gs, ge = _merge_open(np.append(L - 1, starts), np.append(seam, ends))
    # the seam piece heads the first group and 2L is the point L: every gap starts in [L, 2L)
    keep = ge < 2 * L
    return ge[keep], np.append(gs[1:], 2 * L)[keep]


def _shortest_prefix(covers, B: int) -> int:
    """Smallest k in [1, B] with covers(lo, k), for covers monotone in k and the first B arcs covering.

    covers(lo, k) asks whether the first k arcs cover, where the first lo are
    known not to; lo only rises, so a probe that fails may fold its arcs in.
    """
    lo, hi = 0, B
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if covers(lo, mid):
            hi = mid
        else:
            lo = mid
    return hi


class _SparseCover:
    """Interval-merge first-cover search in O(arcs held) work, with no n-sized buffer.

    The one shortest-covering-prefix search: ``run_to_cover`` uses it on
    Z/nZ for sparse batches, and the sweep hands it the arcs it maps onto
    Z/VZ once V sites are known to stay vacant. Site v is the window point
    n + v of ``_window_covers``, and the sites u, ..., u + r - 1 are the open
    arc (u - 1 + n, u + r + n). The pieces are the merged groups of earlier
    arcs, with no seam piece: each probe derives it from the largest end. A
    batch, or a prefix of the covering batch that a probe finds not to
    cover, joins the pieces, so each probe of the bisection sorts and merges
    only the arcs after the last such prefix: about 2B arcs over the whole
    search.
    """

    def __init__(self, n: int):
        self.n = n
        self.starts = self.ends = np.empty(0, dtype=np.int64)

    def _union(self, s: np.ndarray, e: np.ndarray):
        """The pieces and the arcs (s, e), sorted by start, as (starts, ends); the pieces are sorted already."""
        order = np.argsort(s)
        if not len(self.starts):
            return s[order], e[order]
        at = np.searchsorted(self.starts, s[order]) + np.arange(len(s))
        piece = np.ones(len(self.starts) + len(s), dtype=bool)
        piece[at] = False
        starts = np.empty(piece.size, dtype=np.int64)
        ends = np.empty(piece.size, dtype=np.int64)
        starts[at], ends[at] = s[order], e[order]
        starts[piece], ends[piece] = self.starts, self.ends
        return starts, ends

    def place(self, u: np.ndarray, r: np.ndarray):
        """``_first_cover``'s place: the batch joins the pieces unless some prefix covers."""
        s, e = u + (self.n - 1), u + (r + self.n)
        farthest = np.maximum.accumulate(e)  # the farthest end of each prefix

        def covers(lo, k):
            # the arcs before lo are in the pieces; a prefix that fails joins them
            starts, ends = self._union(s[lo:k], e[lo:k])
            # the seam piece: the farthest end less n (the group ends rise, so the last is the farthest held)
            w = max(int(farthest[k - 1]), int(self.ends[-1]) if len(self.ends) else 0) - self.n
            if _window_covers(starts, ends, self.n, max(self.n, w)):
                return True
            self.starts, self.ends = _merge_open(starts, ends)
            return False

        return _shortest_prefix(covers, len(u)) if covers(0, len(u)) else None


def run_to_cover(tail: TailFunction, n: int, seed: int) -> CoverResult:
    """Place i.i.d. arcs (uniform start, inverse-transform radius) until covered.

    Deterministic given the seed. Arcs are drawn from the pinned PCG64 stream in
    batches of B(tail, n); radii are clamped to n at placement. T is the sum of
    one standard exponential per placed arc. The engine is picked once, before
    the first draw: the interval merge when B <= n / SPARSE_SITES_PER_ARC, else
    the sweep; both give the same first cover. The sweep halves the covering
    batch on Z/nZ until the arcs before some index lo are known to leave V
    sites vacant (earlier batches with lo = 0, or the first failed probe of
    the first batch). Each arc from lo on then becomes the arc of the vacant
    sites it reaches, on Z/VZ, and arcs that reach none are dropped; the
    merge's shortest prefix of the kept arcs that covers Z/VZ ends at the arc
    whose batch index gives tau. Nothing is drawn differently, so tau and T
    do not depend on how the search is narrowed.
    """
    _check_sweep_size(n)  # for both engines, until the merge is checked above the sweep's limit
    B = _default_batch(tail, n)
    if B * SPARSE_SITES_PER_ARC <= n:
        return _first_cover(tail, n, seed, B, _SparseCover(n).place)
    # allocated before the first draw, the sweep's buffers do not pin the heap
    # above the batch arrays
    sweep = _CoverSweep(n)
    before = None  # the earlier batches' coverage

    def place(u, r):
        nonlocal before
        cov = sweep.covered(u, r)
        if before is not None:
            cov |= before
        if not cov.all():
            before = cov
            return None
        # the shortest covering prefix is in (lo, hi]. In the first batch,
        # halve the prefix on Z/nZ until it leaves sites vacant
        lo, hi = 0, len(u)
        vacant = None if before is None else ~before
        while vacant is None and hi > 1:
            cov = sweep.covered(u[: hi // 2], r[: hi // 2])
            if cov.all():
                hi //= 2
            else:
                lo, vacant = hi // 2, ~cov
        if vacant is None:
            return hi
        # the arcs after lo need only cover the V sites vacant before them:
        # the merge finishes on Z/VZ, with the arcs that reach none dropped
        V = int(np.count_nonzero(vacant))
        kept, starts, lengths = _vacant_arcs(vacant, V, u[lo:hi], r[lo:hi])
        return lo + int(kept[_SparseCover(V).place(starts, lengths) - 1]) + 1

    return _first_cover(tail, n, seed, B, place)


def _vacant_arcs(vacant: np.ndarray, V: int, u: np.ndarray, r: np.ndarray):
    """The arcs (u, r) on Z/nZ seen on the torus Z/VZ of the V sites flagged in ``vacant``.

    Returns (kept, starts, lengths): the batch indices of the arcs that reach a
    vacant site, each one's first vacant index mod V, and its vacant count.
    """
    n = len(vacant)
    # count[x] = vacant sites in [0, x), x <= n. An arc ends at u + r <= 2n - 1;
    # an end x > n counts V + count[x - n]. The end is folded back rather than
    # the count doubled: a 2n + 1 count, held only here, raised the peak RSS
    count = np.empty(n + 1, dtype=np.int32)
    count[0] = 0
    np.cumsum(vacant, dtype=np.int32, out=count[1:])
    lo = count[u]
    end = u + r
    wraps = end > n
    end[wraps] -= n
    lengths = count[end] - lo
    lengths[wraps] += V
    kept = np.flatnonzero(lengths)
    # an arc past the last vacant site starts at vacant index V, that is 0
    return kept, lo[kept] % V, lengths[kept]


# -- timed snapshots ---------------------------------------------------------

_DRAW_CHUNK = 1 << 22


def _covered_at(tail: TailFunction, n: int, t: float, seed: int) -> np.ndarray:
    """Coverage of every site at Poisson time t: N ~ Poisson(t) arcs, drawn in chunks, swept into one mask."""
    # Poisson(t) needs a finite t; NaN fails both comparisons
    if not 0 <= t < math.inf:
        raise ValueError(f"t must be finite and >= 0, got {t}")
    sweep = _CoverSweep(n)
    rng = generator(seed)
    N = int(rng.poisson(t))
    for done in range(0, N, _DRAW_CHUNK):
        starts, radii = _draw_arcs(rng, tail, n, min(N - done, _DRAW_CHUNK))
        sweep.accumulate(starts, radii)
        # freed before finish, starts first: a chunk array kept alive, or radii
        # freed first, leaves glibc's heap larger (4.4 MB peak RSS, snapshot n = 1e5)
        del starts, radii
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
    sites = np.asarray(sites)
    if sites.size and sites.dtype.kind not in "iu":
        raise ValueError(f"sites must be integers, got {sites.dtype} values")  # a cast would truncate 1.7 to 1
    return ~_covered_at(tail, n, t, seed)[sites.astype(np.int64) % n]


# -- exact vacancy formulas ---------------------------------------------------


def vacancy_probability_exact(tail: TailFunction, n: int, t: float) -> float:
    """P(one fixed site vacant at time t) = exp(-t F_n / n)."""
    if not t >= 0:  # also refuses NaN
        raise ValueError(f"t must be >= 0, got {t}")
    return math.exp(-t * tail_prefix_total(tail, n) / n)


def pair_vacancy_exact(tail: TailFunction, n: int, t: float, k: int) -> float:
    """P(sites 0 and k both vacant at time t) = exp(-t (F_k + F_{n-k}) / n)."""
    if not t >= 0:  # also refuses NaN
        raise ValueError(f"t must be >= 0, got {t}")
    if not 1 <= k <= n - 1:
        raise IndexError(f"separation k={k} outside [1, {n - 1}]")
    fk = tail_prefix_total(tail, k) + tail_prefix_total(tail, n - k)
    return math.exp(-t * fk / n)
