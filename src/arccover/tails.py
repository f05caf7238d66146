"""Radius tail families f(r) = P(R >= r), prefix moments, and regular-variation diagnostics.

Five parametric families are supported, named in config strings as
``const:<c>``, ``geom:<q>``, ``logpow:<b>``, ``pow:<p>``, ``slowlog``.
Every family is normalized to a valid tail: f(1) = 1 and f non-increasing.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "TailFunction",
    "parse_tail",
    "tail_prefix_total",
    "karamata_ratio",
    "rv_limit_probe",
    "cf_estimate",
    "star_probe",
    "triangle_probe",
]

_FAMILIES = ("const", "geom", "logpow", "pow", "slowlog")


def _as_count(x, name: str) -> int:
    """x as an int >= 1, taking an integral float as its int; anything else is refused."""
    if not (isinstance(x, numbers.Integral) or (isinstance(x, float) and x.is_integer())) or x < 1:
        raise ValueError(f"{name} must be an integer >= 1, got {x!r}")
    return int(x)


@dataclass(frozen=True)
class TailFunction:
    """One radius law, identified by family name and a single parameter.

    const:c    R == c exactly                        (mean c)
    geom:q     f(r) = q**(r-1), q in (0,1)           (mean 1/(1-q))
    logpow:b   monotone envelope of min(ln^b(r)/r, 1), b > -1   (infinite mean)
    pow:p      f(r) = r**p, p in (-1,0)              (infinite mean)
    slowlog    f(r) = 1/(1 + ln r)                   (infinite mean)
    """

    family: str
    param: float = 0.0

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown tail family {self.family!r}")
        p = self.param
        if not math.isfinite(p):
            raise ValueError(f"tail parameter {p} must be finite")
        if self.family == "const" and (p < 1 or p != int(p)):
            raise ValueError("const radius must be a positive integer")
        if self.family == "geom" and not 0.0 < p < 1.0:
            raise ValueError("geom parameter must lie in (0,1)")
        if self.family == "logpow" and p <= -1.0:
            raise ValueError("logpow exponent must exceed -1")
        if self.family == "pow" and not -1.0 < p < 0.0:
            raise ValueError("pow exponent must lie in (-1,0)")

    # -- basic values -----------------------------------------------------
    @property
    def spec_string(self) -> str:
        if self.family == "slowlog":
            return "slowlog"
        if self.family == "const":
            return f"const:{int(self.param)}"
        return f"{self.family}:{self.param:g}"

    def mean(self) -> float | None:
        """E[R] when finite, else None."""
        if self.family == "const":
            return self.param
        if self.family == "geom":
            return 1.0 / (1.0 - self.param)
        return None

    def _raw_logpow(self, rf: np.ndarray) -> np.ndarray:
        # ln(r)^b / r for r >= 2, shared by every code path. The power is
        # skipped at b = 0 and b = 1, where it gives exactly 1 and ln(r), so
        # the bits are those of the power form
        b = self.param
        if b == 0.0:
            return 1.0 / rf
        if b == 1.0:
            return np.log(rf) / rf
        return np.log(rf) ** b / rf

    def _envelope_head(self) -> float:
        # running minimum of min(ln^b(r)/r, 1) up to the unimodal peak; for
        # integer arguments this is min(1, ln(2)^b / 2)
        return min(1.0, float(self._raw_logpow(np.array([2.0]))[0]))

    def value(self, r) -> float:
        """f(r) = P(R >= r) for one integer radius 1 <= r <= 2**53."""
        if not 1 <= r <= 2**53:
            raise ValueError("radius argument must lie in [1, 2**53]")
        return float(self.values(np.asarray([r]))[0])

    def values(self, r: np.ndarray) -> np.ndarray:
        """Vectorized f over an array of integer radii >= 1 (an integral float is taken as its int)."""
        r = np.asarray(r)
        if r.dtype.kind not in "iu":
            if not np.all(np.isfinite(r) & (r == np.floor(r))):
                raise ValueError("radius argument must be an integer")
            r = r.astype(np.int64)
        if r.size and int(r.min()) < 1:
            raise ValueError("radius argument must be >= 1")
        fam = self.family
        if fam == "const":
            return np.where(r <= self.param, 1.0, 0.0)
        rf = r.astype(np.float64)
        if fam == "geom":
            return np.power(self.param, rf - 1.0)
        if fam == "pow":
            return np.power(rf, self.param)
        if fam == "slowlog":
            return 1.0 / (1.0 + np.log(rf))
        # logpow envelope: 1 at r=1, else min(1, ln(2)^b/2, ln(r)^b/r); at
        # r = 1, ln(1)^b divides by zero for b < 0 and is replaced
        with np.errstate(divide="ignore"):
            return np.where(r == 1, 1.0, np.minimum(self._envelope_head(), self._raw_logpow(rf)))

    # -- sampling ----------------------------------------------------------
    def sample_radii(self, u: np.ndarray, cap: int) -> np.ndarray:
        """Vectorized inverse transform clamped at cap: min(R, cap) for R = max{r >= 1 : f(r) >= u}.

        ``cap`` is an integer >= 1 (an integral float is taken as its int).
        For cap <= 2**17 the radius is read from the table f(1..cap), built
        once per (tail, cap) from ``values`` and cached, by indexed search: a
        guide over 2**16 equal bins of u answers every u in a bin that no f
        value splits with one read, and the rest (0.02% of draws for
        geom:0.5, 0.8% for logpow:0, 6% for slowlog at cap 1e5) are
        binary-searched. This is exact, and at caps 1e4 to 2**17 it was
        2.7x (pow:-0.5) to 20x (logpow:0) cheaper than the guess, so the
        table serves every non-const family. The cap bounds a table at 1 MB;
        above it, each draw starts from one closed-form guess r, checked
        against ``values`` (f(r) >= u, and f(r + 1) < u below cap), and the
        draws that fail the check are bisected on [1, cap] as the scalar
        reference does. The guess is exact but for some logpow draws, which
        it misses by one (0.02% for logpow:1, 0.4% for logpow:2 at cap 1e6),
        and u where f is subnormal. The path is chosen from cap alone; f is
        never evaluated to choose it.
        """
        u = np.asarray(u, dtype=np.float64)
        cap = _as_count(cap, "cap")
        if u.size == 0:
            return np.empty(0, dtype=np.int64)
        if not (0.0 < u.min() and u.max() <= 1.0):
            raise ValueError("u must lie in (0,1]")
        fam = self.family
        if fam == "const":
            return np.full(u.shape, min(int(self.param), cap), dtype=np.int64)
        if cap <= _TABLE_CAP:
            # table[i] = -f(i + 1) ascends, so the count of entries <= -u is
            # the count of r <= cap with f(r) >= u, which is min(R, cap).
            # u * 2**16 is exact, so its floor is u's bin
            table, guide = _neg_tail_table(self, cap)
            r = guide[(u * _GUIDE_BINS).astype(np.intp)]
            split = np.flatnonzero(r < 0)
            if split.size:
                r[split] = np.searchsorted(table, -u[split], side="right")
            return r
        capf = float(cap)
        with np.errstate(divide="ignore", over="ignore"):
            if fam == "geom":
                guess = 1.0 + np.floor(np.log(u) / math.log(self.param))
            elif fam == "pow":
                guess = np.floor(np.power(u, 1.0 / self.param))
            elif fam == "slowlog":
                guess = np.floor(np.exp(1.0 / u - 1.0))
            else:
                guess = self._logpow_guess(u)
        # +inf clips to cap; no guess is NaN for u in (0, 1]
        r = np.clip(guess, 1.0, capf).astype(np.int64)
        # the draws the guess misses are bisected on [1, cap], keeping
        # f(lo) >= u and hi = cap + 1 or f(hi) < u, as the scalar reference does
        room = r < cap
        off = self.values(r) < u
        off[room] |= self.values(r[room] + 1) >= u[room]
        i = np.flatnonzero(off)
        lo, hi = np.ones(i.size, dtype=np.int64), np.full(i.size, cap + 1, dtype=np.int64)
        while (hi - lo > 1).any():
            mid = (lo + hi) // 2
            ok = self.values(mid) >= u[i]
            lo, hi = np.where(ok, mid, lo), np.where(ok, hi, mid)
        r[i] = lo
        return r

    def _logpow_guess(self, u: np.ndarray) -> np.ndarray:
        # solve ln(r)^b / r = u on the decreasing branch: y - b ln y = -ln u
        b = self.param
        head = self._envelope_head()
        y = np.maximum(-np.log(u), 1.5)
        for _ in range(12):
            y = np.maximum(-np.log(u) + b * np.log(y), 1.0)
        out = np.exp(y)
        return np.where(u > head, 1.0, out)


def parse_tail(spec: str) -> TailFunction:
    """Parse a config-file family string such as 'geom:0.5' (case-sensitive)."""
    if spec == "slowlog":
        return TailFunction("slowlog")
    name, sep, arg = spec.partition(":")
    if not sep or name not in ("const", "geom", "logpow", "pow"):
        raise ValueError(f"unrecognized tail spec {spec!r}")
    return TailFunction(name, float(int(arg)) if name == "const" else float(arg))


# -- inverse-transform table -------------------------------------------------

# largest cap sample_radii searches a table for: 1 MB of float64
_TABLE_CAP = 2**17
# bins of the indexed-search guide; a power of two, so u * _GUIDE_BINS and
# every bin edge b / _GUIDE_BINS are exact
_GUIDE_BINS = 2**16


@lru_cache(maxsize=16)
def _neg_tail_table(tail: TailFunction, cap: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (table, guide) for ``sample_radii``'s indexed search (Chen & Asau 1974).

    table is -f(1..cap) with its zero suffix dropped (f never rises, so zeros
    come last). With c(u) = #{f >= u}, the int64 guide's entry b, for b in
    [0, 2**16], is c(u) when that count is the same for every u in
    [b/2**16, (b+1)/2**16), and -1 otherwise. The count there is constant iff
    no f lies in the bin, that is iff c(b/2**16) == c((b+1)/2**16); the last
    bin holds only u = 1.
    """
    values = tail.values(np.arange(1, cap + 1, dtype=np.int64))
    table = -values[: np.count_nonzero(values)]
    del values
    edges = np.arange(_GUIDE_BINS + 1, dtype=np.float64)
    edges *= -1.0 / _GUIDE_BINS  # in place: the guide's one bin-sized temporary
    guide = np.searchsorted(table, edges, side="right").astype(np.int64, copy=False)
    del edges
    guide[:-1][guide[:-1] != guide[1:]] = -1
    table.flags.writeable = False
    guide.flags.writeable = False
    return table, guide


# -- prefix sums ------------------------------------------------------------

_CHUNK = 1 << 16
_LIMB = 26
_LIMB_MASK = (1 << _LIMB) - 1


def _exact_sum(x: np.ndarray) -> float:
    """The correctly rounded sum of 1 to 2**16 non-negative finite doubles: math.fsum's bits.

    A double with exponent field e > 0 is (2**52 + fraction) * 2**(e - 1075);
    a zero or subnormal one (e = 0) is fraction * 2**(1 - 1075). The 52-bit
    fractions of each run of equal e are summed exactly in two 26-bit int64
    limbs (at most 2**16 * 2**26 < 2**42 per limb), plus count * 2**52 for
    the implicit bits of a normal run. The runs are added as one Python int
    over the smallest exponent, and one int/int true division rounds it
    half-even, as fsum does. A non-increasing f has 5-14 runs per chunk.
    """
    bits = x.view(np.int64)
    # neighbours differ in sign or exponent field iff their xor, unsigned, is >= 2**52
    starts = np.concatenate(([0], np.flatnonzero((bits[1:] ^ bits[:-1]).view(np.uint64) >= 1 << 52) + 1))
    lo = np.add.reduceat(bits & _LIMB_MASK, starts).tolist()
    high = bits >> _LIMB
    high &= _LIMB_MASK  # in place: one chunk-sized temporary at a time
    hi = np.add.reduceat(high, starts).tolist()
    counts = np.diff(starts, append=x.size).tolist()
    fields = (bits[starts] >> 52).tolist()
    low = max(min(fields), 1)
    total = 0
    for e, c, h, l in zip(fields, counts, hi, lo):
        mantissa = (h << _LIMB) + l + (c << 52 if e > 0 else 0)
        total += mantissa << (max(e, 1) - low)
    scale = low - 1075
    return float(total << scale) if scale >= 0 else total / (1 << -scale)


@lru_cache(maxsize=128)
def tail_prefix_total(tail: TailFunction, n: int) -> float:
    """F_n = sum_{i<=n} f(i) for an integer n >= 1 (an integral float is taken as its int).

    ``const`` and ``geom`` are closed forms. Other families sum f over chunks
    of 2**16 terms: each chunk exactly (``_exact_sum``, which needs the
    non-negative finite values every tail has), then ``math.fsum`` over the
    chunk sums. The bits equal fsum of chunk fsums, which B and the
    ``compact`` summary depend on.
    """
    n = _as_count(n, "n")
    if tail.family == "const":
        return float(min(n, int(tail.param)))
    if tail.family == "geom":
        q = tail.param
        return (1.0 - q**n) / (1.0 - q)
    return math.fsum([_exact_sum(tail.values(np.arange(start, min(start + _CHUNK, n + 1), dtype=np.int64)))
                      for start in range(1, n + 1, _CHUNK)])


# -- regular-variation diagnostics ----------------------------------------


def karamata_ratio(tail: TailFunction, x: int) -> float:
    """x f(x) / F_x; tends to p+1 for f regularly varying with index p > -1."""
    if x < 2:
        raise ValueError("x must be >= 2")
    return x * tail.value(x) / tail_prefix_total(tail, x)


def rv_limit_probe(tail: TailFunction, t: float, x: int) -> float:
    """f(floor(x t)) / f(x); tends to t**p for f in RV_p."""
    if x < 1 or x * t < 1:
        raise ValueError("require x >= 1 and x*t >= 1")
    fx = tail.value(x)
    if fx == 0.0:
        raise ValueError(f"tail exhausted: f({x}) = 0")
    return tail.value(int(x * t)) / fx


def _probe_f(tail: TailFunction, n: int, beta: float = 1.0) -> float:
    """f(n) for a probe over [n^beta, n] that divides by it; refuses n < 2, beta outside (0, 1] and f(n) = 0."""
    if n < 2:
        raise ValueError("n must be >= 2")
    if not 0.0 < beta <= 1.0:
        raise ValueError(f"beta must lie in (0, 1], got {beta}")
    fn = tail.value(n)
    if fn == 0.0:
        raise ValueError(f"tail exhausted: f({n}) = 0")
    return fn


def cf_estimate(tail: TailFunction, n: int) -> float:
    """F_n / (n f(n)); converges to 1/(1+p) for pow:p and to 1 for slowly varying tails."""
    fn = _probe_f(tail, n)
    return tail_prefix_total(tail, n) / (n * fn)


def star_probe(tail: TailFunction, n: int, beta: float, points: int = 64) -> float:
    """sup of x f(x) / (n f(n)) over x in [n^beta, n], sampled geometrically."""
    fn = _probe_f(tail, n, beta)
    lo = max(2, int(n**beta))
    xs = np.unique(np.geomspace(lo, n, points).astype(np.int64))
    vals = xs * tail.values(xs) / (n * fn)
    return float(vals.max())


def triangle_probe(tail: TailFunction, n: int, beta: float) -> float:
    """F_{n^beta} / (f(n) n ln n)."""
    fn = _probe_f(tail, n, beta)
    k = max(1, int(n**beta))
    return tail_prefix_total(tail, k) / (fn * n * math.log(n))
