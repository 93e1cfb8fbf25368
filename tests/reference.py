"""Reference computations the tests pin ``sievekit`` against.

Each one is the plain textbook definition, sharing no code path with
``src/``.
"""

import math

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
