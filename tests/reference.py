"""Reference computations the tests pin ``sievekit`` against.

Each one is the plain textbook definition, sharing no code path with
``src/``.
"""

import math
from functools import lru_cache

import numpy as np


def plain_sieve(limit: int) -> np.ndarray:
    """The primes below ``limit`` as int64, by one non-segmented Eratosthenes bitmap over [0, limit)."""
    if limit < 2:
        return np.empty(0, dtype=np.int64)
    is_prime = np.ones(limit, dtype=bool)
    is_prime[:2] = False
    for p in range(2, math.isqrt(limit - 1) + 1):
        if is_prime[p]:
            is_prime[p * p :: p] = False
    return np.flatnonzero(is_prime).astype(np.int64)


# -- divisibility scans of element values ------------------------------------


def brute_sift(values, z, d=1):
    """|S(A_d, z)| by a pure-Python scan: the values d divides and no prime below z does."""
    count = 0
    zp = [p for p in range(2, z) if all(p % q for q in range(2, p))]
    for v in values:
        if v % d:
            continue
        if all(v % p for p in zp):
            count += 1
    return count


def count_multiples(values, d):
    """|A_d|: the int64 values that d divides, by one ``values % d`` scan."""
    return int(np.count_nonzero(values % d == 0))


def survivors(values, primes):
    """The mask of the int64 values no prime of ``primes`` divides, one ``values % p`` scan per prime."""
    keep = np.ones(len(values), dtype=bool)
    for p in primes:
        keep &= values % p != 0
    return keep


def value_histogram_per_prime(values, primes):
    """Counts of values by the set of ``primes`` dividing them (bit i for primes[i]), one ``values % p`` pass per prime."""
    masks = np.zeros(len(values), dtype=np.int64)
    for i, p in enumerate(primes):
        masks |= (values % p == 0).astype(np.int64) << i
    return np.bincount(masks, minlength=1 << len(primes)).astype(np.int64)


def _in_classes(M, N, classes, p):
    """The mask of the indices n in [M, M+N) with n mod p in ``classes[p]``, by one residue per index; M may pass int64.

    The residues of M, M+1, ... repeat with period p, so they are those of one period, tiled.
    """
    residues = np.tile((np.arange(p, dtype=np.int64) + M % p) % p, N // p + 1)[:N]
    held = np.zeros(N, dtype=bool)
    for r in classes.get(p, ()):
        held |= residues == r
    return held


def class_histogram(M, N, classes, primes):
    """Counts of the indices n in [M, M+N) by the set of ``primes`` whose ``classes`` hold n (bit i for primes[i]), one scan per prime."""
    masks = np.zeros(N, dtype=np.int64)
    for i, p in enumerate(primes):
        masks |= _in_classes(M, N, classes, p).astype(np.int64) << i
    return np.bincount(masks, minlength=1 << len(primes)).astype(np.int64)


def class_survivors(M, N, classes, primes):
    """The mask of the indices n in [M, M+N) that no prime of ``primes`` holds in its ``classes``, one scan per prime."""
    keep = np.ones(N, dtype=bool)
    for p in primes:
        keep &= ~_in_classes(M, N, classes, p)
    return keep


def divisibility(values, primes):
    """Per prime p of the ascending ``primes``: the values p divides, and the values no smaller one of them divides."""
    divisible, rough, free = {}, {}, np.ones(len(values), dtype=bool)
    for p in primes:
        divisible[p], rough[p] = values % p == 0, free.copy()
        free &= ~divisible[p]
    return divisible, rough


def masked_sift_count(masks, w, d_primes):
    """|S(A_d, w)| from ``divisibility`` masks, w one of their primes: the masks of d's primes ANDed with the w-rough ones."""
    divisible, rough = masks
    keep = rough[w].copy()
    for p in d_primes:
        keep &= divisible[p]
    return int(np.count_nonzero(keep))


@lru_cache(maxsize=1)
def _problem_divisibility(problem):
    return divisibility(problem.values(), plain_sieve(64).tolist())


def reference_sift_count(problem, w, d_primes):
    """|S(A_d, w)|, w a prime below 64, from the problem's values (their masks kept for the last problem asked)."""
    return masked_sift_count(_problem_divisibility(problem), w, d_primes)


# -- density products ---------------------------------------------------------


def density_factors(density, z):
    """The factors 1 - omega(p)/p over the primes p < z, one Fraction each from the density's per-prime ``omega``."""
    return [1 - density.omega(p) / p for p in plain_sieve(z).tolist()]
