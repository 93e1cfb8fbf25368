"""Counts computed apart from sievekit, used to check its answers.

Nothing here imports sievekit.  Each function recomputes a quantity from
its definition with plain NumPy (or sympy for the arithmetic of moduli), so
a fault in the package cannot hide by agreeing with itself.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
import sympy

# Published values: pi(10^8) and the number of twin pairs (p, p + 2) with p + 2 < 10^8.
PI_1E8 = 5_761_455
TWIN_PAIRS_1E8 = 440_312


def prime_list(limit: int) -> np.ndarray:
    """Primes below ``limit`` by an odd-only sieve of Eratosthenes."""
    if limit <= 2:
        return np.zeros(0, dtype=np.int64)
    odd = np.ones((limit + 1) // 2, dtype=bool)  # odd[i] stands for 2i + 1
    odd[0] = False
    for i in range(1, (math.isqrt(limit - 1) - 1) // 2 + 1):
        if odd[i]:
            p = 2 * i + 1
            odd[p * p // 2 :: p] = False
    primes = 2 * np.flatnonzero(odd).astype(np.int64) + 1
    return np.concatenate(([2], primes[primes < limit]))


@lru_cache(maxsize=8)
def _small_primes(z: int) -> tuple[int, ...]:
    return tuple(int(p) for p in prime_list(z))


def index_range(kind: str, params: dict) -> tuple[int, int]:
    """The index set [lo, hi) each affine kind runs over (see sievekit.problem)."""
    if kind == "interval":
        return params["x"] - params["y"] + 1, params["x"] + 1
    if kind == "twin":
        return 1, params["x"] - 2
    if kind == "goldbach":
        return 3, params["N"] - 2
    if kind == "progression":
        return 1, params["x"]
    raise ValueError(kind)


def forbidden(kind: str, params: dict, p: int) -> tuple[int, ...]:
    """Index classes mod p whose element value is divisible by p."""
    if kind in ("interval", "progression"):
        return (0,)
    if kind == "twin":
        return tuple(sorted({0, (-2) % p}))
    if kind == "goldbach":
        return tuple(sorted({0, params["N"] % p}))
    raise ValueError(kind)


def sifting_primes(kind: str, params: dict, z: int) -> list[int]:
    """Primes below z that remove at least one element class."""
    if kind == "progression":
        return [p for p in _small_primes(z) if params["k"] % p]
    return list(_small_primes(z))


def residue_sift(kind: str, params: dict, z: int) -> int:
    """S(A, z) by a plain residue sieve over the index range."""
    lo, hi = index_range(kind, params)
    keep = np.ones(max(hi - lo, 0), dtype=bool)
    for p in _small_primes(z):
        for r in forbidden(kind, params, p):
            keep[(r - lo) % p :: p] = False
    if kind == "progression":
        k, l = params["k"], params["l"]
        in_class = np.zeros_like(keep)
        in_class[(l - lo) % k :: k] = True
        keep &= in_class
    return int(np.count_nonzero(keep))


def element_count(kind: str, params: dict) -> int:
    lo, hi = index_range(kind, params)
    if kind == "progression":
        k, l = params["k"], params["l"]
        first = lo + (l - lo) % k
        return max(0, (hi - 1 - first) // k + 1)
    return hi - lo


def squarefree_support(primes: list[int], z: int) -> list[tuple[int, int]]:
    """(q, phi(q)) for squarefree q < z built from ``primes``, q = 1 included."""
    out = [(1, 1)]
    for p in sorted(primes):
        out.extend((q * p, f * (p - 1)) for q, f in list(out) if q * p < z)
    return out


def smallest_factor(limit: int) -> np.ndarray:
    """spf[n] = least prime factor of n for 2 <= n < limit (spf[0] = spf[1] = 0)."""
    spf = np.zeros(limit, dtype=np.int32)
    for p in prime_list(math.isqrt(limit - 1) + 1):
        p = int(p)
        block = spf[p * p :: p]
        block[block == 0] = p
    n = np.arange(limit, dtype=np.int32)
    unset = spf == 0
    spf[unset] = n[unset]
    spf[:2] = 0
    return spf


def big_omega(limit: int) -> np.ndarray:
    """Omega(n), prime factors with multiplicity, for 0 <= n < limit, by repeated division."""
    spf = smallest_factor(limit)
    rest = np.arange(limit, dtype=np.int64)
    count = np.zeros(limit, dtype=np.int16)
    live = rest > 1
    while live.any():
        count[live] += 1
        rest[live] //= spf[rest[live]]
        live = rest > 1
    return count


def primitive_character_count(q: int) -> int:
    """Primitive characters mod q: multiplicative, p - 2 at a prime, p^(e-2) (p-1)^2 at p^e, e >= 2."""
    out = 1
    for p, e in sympy.factorint(q).items():
        if e == 1:
            out *= p - 2
        else:
            out *= p ** (e - 2) * (p - 1) ** 2
    return out


def totient(q: int) -> int:
    return int(sympy.totient(q))
