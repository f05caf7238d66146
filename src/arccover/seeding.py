"""Deterministic 64-bit seed derivation for replicate streams."""
from __future__ import annotations

import numpy as np

_MASK = (1 << 64) - 1

# splitmix64 finalizer constants (Steele/Lea/Flood) plus two odd mixing keys.
_M1 = 0xBF58476D1CE4E5B9
_M2 = 0x94D049BB133111EB
_K0 = 0x9E3779B97F4A7C15
_K1 = 0xC2B2AE3D27D4EB4F
_K2 = 0x165667B19E3779F9


def _avalanche(x: int) -> int:
    x &= _MASK
    x = ((x ^ (x >> 30)) * _M1) & _MASK
    x = ((x ^ (x >> 27)) * _M2) & _MASK
    return x ^ (x >> 31)


def derive_seed(base: int, n: int, replicate: int) -> int:
    """Mix (base, n, replicate) into one 64-bit seed via splitmix64 finalizers."""
    h = _avalanche(base ^ _K0)
    h = _avalanche(h + (_K1 * (n & _MASK)) & _MASK)
    h = _avalanche(h + (_K2 * (replicate & _MASK)) & _MASK)
    return h


def generator(seed: int) -> np.random.Generator:
    """The repository PRNG: PCG64 (period 2^128), seeded deterministically."""
    return np.random.Generator(np.random.PCG64(seed))


PRNG_NAME = "numpy.random.PCG64"
