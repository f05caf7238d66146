"""Arc-by-arc reference engines for the torus cover process.

The library resolves coverage with a vectorized prefix-max sweep
(``arccover.torus``). The oracles here place one arc at a time, so tests can
check the sweep against them on the same stream. Not a test module: pytest
does not collect it.

* ``TorusCoverState``: the successor-skipping structure ("next uncovered index
  at or after i" with path compression); each index is touched O(alpha(n))
  amortized over a run.
* ``NaiveCoverState``: a boolean array with the same interface.

``lattice_vacant_reference`` does the same for the circle model: it checks
each lattice site against each arc in turn, in exact rational arithmetic on
the stored doubles, so tests can check ``project_X`` and
``count_missing_lattice`` against the lattice rule at every boundary.

``vacant_bounds_reference`` is the circle's vacant set as the library merged
it before the open-arc cover rule that the circle shares with the torus
merge: every arc twice, at x and x + 1, with the gaps clipped to the window
[1, 2]. Tests check ``circle._vacant_bounds``, which reads the arcs once,
shifted, with the arcs that cross the seam as one piece, against it bit for
bit.

``sample_radius_reference`` is the scalar inverse transform of a tail, found
by doubling and bisection on ``TailFunction.value``; tests check the
vectorized ``TailFunction.sample_radii`` against it.

``tail_prefix_total_reference`` is the prefix total F_n as the library summed
it before its exact chunk sums: ``math.fsum`` of each 2**16-term chunk, then
``math.fsum`` of the chunk sums. Tests check ``tail_prefix_total`` against it
bit for bit.

``derive_seeds`` is ``derive_seed`` vectorized over replicates, fast enough for
the seed collision scan.

``batches_of(B)`` makes ``run_to_cover`` and ``run_to_cover_reference`` draw
batches of B arcs by patching ``torus._default_batch``, so tests reach batch
boundaries that the default batch size never hits.
"""
import contextlib
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest

from arccover import torus
from arccover.seeding import _K0, _K1, _K2, _M1, _M2, _MASK
from arccover.tails import _CHUNK, TailFunction
from arccover.torus import CoverResult, _first_cover, _merge_open


class TorusCoverState:
    """Coverage over Z/nZ via a successor array with path compression."""

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("torus size must be >= 1")
        self.n = n
        # successor[i] = next uncovered index >= i; index n is a fixed sentinel
        self.successor = list(range(n + 1))
        self.vacant_count = n
        self.arcs_placed = 0

    def _find(self, i: int) -> int:
        succ = self.successor
        root = i
        while succ[root] != root:
            root = succ[root]
        while succ[i] != root:
            succ[i], i = root, succ[i]
        return root

    def place_arc(self, u: int, r: int) -> int:
        """Cover {u, ..., u+r-1} mod n; returns the number of newly covered indices."""
        n = self.n
        if not 0 <= u < n:
            raise ValueError(f"start index {u} outside [0, {n})")
        if r < 1:
            raise ValueError("arc length must be >= 1")
        r = min(r, n)
        newly = 0
        succ = self.successor
        end = min(u + r, n)
        j = self._find(u)
        while j < end:
            succ[j] = j + 1
            newly += 1
            j = self._find(j + 1)
        wrap_end = u + r - n
        if wrap_end > 0:
            j = self._find(0)
            while j < wrap_end:
                succ[j] = j + 1
                newly += 1
                j = self._find(j + 1)
        self.vacant_count -= newly
        self.arcs_placed += 1
        return newly

    def vacant_indices(self) -> list[int]:
        out = []
        j = self._find(0)
        while j < self.n:
            out.append(j)
            j = self._find(j + 1)
        return out

    @property
    def is_covered(self) -> bool:
        return self.vacant_count == 0


class NaiveCoverState:
    """Boolean-array oracle with the same interface as TorusCoverState."""

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("torus size must be >= 1")
        self.n = n
        self.covered = np.zeros(n, dtype=bool)
        self.vacant_count = n
        self.arcs_placed = 0

    def place_arc(self, u: int, r: int) -> int:
        n = self.n
        if not 0 <= u < n:
            raise ValueError(f"start index {u} outside [0, {n})")
        if r < 1:
            raise ValueError("arc length must be >= 1")
        r = min(r, n)
        before = self.vacant_count
        end = min(u + r, n)
        seg = self.covered[u:end]
        newly = int(seg.size - np.count_nonzero(seg))
        seg[:] = True
        wrap_end = u + r - n
        if wrap_end > 0:
            seg = self.covered[0:wrap_end]
            newly += int(seg.size - np.count_nonzero(seg))
            seg[:] = True
        self.vacant_count = before - newly
        self.arcs_placed += 1
        return newly

    def vacant_indices(self) -> list[int]:
        return np.flatnonzero(~self.covered).tolist()

    @property
    def is_covered(self) -> bool:
        return self.vacant_count == 0


@dataclass(frozen=True)
class ArcEvent:
    """One placed arc: start u, length r, arrival order."""

    u: int
    r: int
    index: int

    def covered_indices(self, n: int) -> list[int]:
        if self.r < 1:
            raise ValueError("arc length must be >= 1")
        return sorted({(self.u + j) % n for j in range(min(self.r, n))})


@contextlib.contextmanager
def batches_of(B: int | None):
    """Within the block, cover-time draws come in batches of B arcs; None keeps the default size."""
    with pytest.MonkeyPatch.context() as mp:
        if B is not None:
            mp.setattr(torus, "_default_batch", lambda tail, n: B)
        yield


def run_to_cover_reference(tail: TailFunction, n: int, seed: int, engine: str = "successor") -> CoverResult:
    """Arc-by-arc reference consuming the identical stream as run_to_cover."""
    state = TorusCoverState(n) if engine == "successor" else NaiveCoverState(n)

    def place(u, r):
        for k in range(len(u)):
            state.place_arc(int(u[k]), int(r[k]))
            if state.is_covered:
                return k + 1
        return None

    return _first_cover(tail, n, seed, torus._default_batch(tail, n), place)


def lattice_vacant_reference(xs, ys, n: int) -> np.ndarray:
    """Vacancy of the lattice sites j of Z/nZ, one arc at a time.

    The rule of ``arccover.circle``: site j is covered by (x, x+y) iff
    n·x < j < n·(x+y) for j or j + n, in ``Fraction`` arithmetic on the stored
    doubles, and any y > 1 covers everything.
    """
    vacant = np.ones(n, dtype=bool)
    for x, y in zip(list(xs), list(ys)):
        if y > 1.0:
            vacant[:] = False
            break
        lo = Fraction(x) * n
        hi = (Fraction(x) + Fraction(y)) * n
        for j in range(n):
            if lo < j < hi or lo < j + n < hi:
                vacant[j] = False
    return vacant


def vacant_bounds_reference(config) -> tuple[np.ndarray, np.ndarray]:
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


def sample_radius_reference(tail: TailFunction, u: float, cap: int) -> int:
    """min(R, cap) for R = max{r >= 1 : f(r) >= u}, one value of f at a time."""
    # f(1) = 1 >= u, so lo always satisfies f(lo) >= u; hi is the first
    # doubling past cap or with f(hi) < u
    lo, hi = 1, 2
    while hi <= cap and tail.value(hi) >= u:
        lo, hi = hi, 2 * hi
    hi = min(hi, cap + 1)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if tail.value(mid) >= u:
            lo = mid
        else:
            hi = mid
    return lo


def tail_prefix_total_reference(tail: TailFunction, n: int) -> float:
    """F_n = sum_{i<=n} f(i) as fsum of chunk fsums."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if tail.family == "const":
        return float(min(n, int(tail.param)))
    if tail.family == "geom":
        q = tail.param
        return (1.0 - q**n) / (1.0 - q)
    # a memoryview hands fsum Python floats one at a time, without boxing
    # numpy scalars or building a list
    return math.fsum([math.fsum(memoryview(tail.values(np.arange(start, min(start + _CHUNK, n + 1), dtype=np.int64))))
                      for start in range(1, n + 1, _CHUNK)])


def derive_seeds(base: int, n: int, replicates: np.ndarray) -> np.ndarray:
    """Vectorized derive_seed over a uint64 replicate array."""
    with np.errstate(over="ignore"):
        m1 = np.uint64(_M1)
        m2 = np.uint64(_M2)

        def fin(x):
            x = (x ^ (x >> np.uint64(30))) * m1
            x = (x ^ (x >> np.uint64(27))) * m2
            return x ^ (x >> np.uint64(31))

        h = fin(np.uint64(base ^ _K0))
        h = fin(h + np.uint64(_K1) * np.uint64(n & _MASK))
        h = fin(h + np.uint64(_K2) * replicates.astype(np.uint64))
    return h
