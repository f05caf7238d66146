"""Radius tail families f(r) = P(R >= r), prefix moments, and regular-variation diagnostics.

Five parametric families are supported, named in config strings as
``const:<c>``, ``geom:<q>``, ``logpow:<b>``, ``pow:<p>``, ``slowlog``.
Every family is normalized to a valid tail: f(1) = 1 and f non-increasing.
"""
from __future__ import annotations

import math
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
        # ln(r)^b / r for r >= 2; single expression shared by every code path
        return np.log(rf) ** self.param / rf

    def _envelope_head(self) -> float:
        # running minimum of min(ln^b(r)/r, 1) up to the unimodal peak; for
        # integer arguments this is min(1, ln(2)^b / 2)
        return min(1.0, float(self._raw_logpow(np.array([2.0]))[0]))

    def value(self, r) -> float:
        """f(r) = P(R >= r) for one integer radius 1 <= r <= 2**53."""
        if not 1 <= r <= 2**53:
            raise ValueError("radius argument must lie in [1, 2**53]")
        return float(self.values(np.asarray([r], dtype=np.int64))[0])

    def values(self, r: np.ndarray) -> np.ndarray:
        """Vectorized f over an int64 array of radii >= 1."""
        r = np.asarray(r, dtype=np.int64)
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
        # logpow envelope: 1 at r=1, else min(1, ln(2)^b/2, ln(r)^b/r)
        out = np.empty_like(rf)
        one = r == 1
        out[one] = 1.0
        rest = ~one
        with np.errstate(divide="ignore"):
            base = self._raw_logpow(rf[rest])
        out[rest] = np.minimum(self._envelope_head(), base)
        return out

    # -- sampling ----------------------------------------------------------
    def sample_radii(self, u: np.ndarray, cap: int) -> np.ndarray:
        """Vectorized inverse transform clamped at cap: min(R, cap), exact below cap."""
        u = np.asarray(u, dtype=np.float64)
        if u.size == 0:
            return np.empty(0, dtype=np.int64)
        if not (0.0 < u.min() and u.max() <= 1.0):
            raise ValueError("u must lie in (0,1]")
        if cap < 1:
            raise ValueError("cap must be >= 1")
        fam = self.family
        if fam == "const":
            return np.full(u.shape, min(int(self.param), cap), dtype=np.int64)
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
        guess = np.where(np.isfinite(guess), guess, capf + 2.0)
        r = np.clip(guess, 1.0, capf).astype(np.int64)
        # local correction restores the exact discrete inverse
        for _ in range(64):
            bad_hi = self.values(r) < u
            if bad_hi.any():
                r[bad_hi] -= 1
                continue
            room = r < cap
            if room.any():
                bad_lo = np.zeros_like(bad_hi)
                bad_lo[room] = self.values(r[room] + 1) >= u[room]
                if bad_lo.any():
                    r[bad_lo] += 1
                    continue
            break
        else:
            raise RuntimeError("radius correction failed to converge")
        return np.maximum(r, 1)

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


# -- prefix sums ------------------------------------------------------------

_CHUNK = 1 << 16


@lru_cache(maxsize=128)
def tail_prefix_total(tail: TailFunction, n: int) -> float:
    """F_n = sum_{i<=n} f(i), compensated."""
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


def cf_estimate(tail: TailFunction, n: int) -> float:
    """F_n / (n f(n)); converges to 1/(1+p) for pow:p and to 1 for slowly varying tails."""
    if n < 2:
        raise ValueError("n must be >= 2")
    fn = tail.value(n)
    if fn == 0.0:
        raise ValueError(f"tail exhausted: f({n}) = 0")
    return tail_prefix_total(tail, n) / (n * fn)


def star_probe(tail: TailFunction, n: int, beta: float, points: int = 64) -> float:
    """sup of x f(x) / (n f(n)) over x in [n^beta, n], sampled geometrically."""
    lo = max(2, int(n**beta))
    xs = np.unique(np.geomspace(lo, n, points).astype(np.int64))
    vals = xs * tail.values(xs) / (n * tail.value(n))
    return float(vals.max())


def triangle_probe(tail: TailFunction, n: int, beta: float) -> float:
    """F_{n^beta} / (f(n) n ln n)."""
    k = max(1, int(n**beta))
    return tail_prefix_total(tail, k) / (tail.value(n) * n * math.log(n))
