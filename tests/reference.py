"""Reference computations the tests pin ``sievekit`` against.

Each one is the plain textbook definition, sharing no code path with
``src/``.
"""

import cmath
import math
from itertools import combinations
from fractions import Fraction
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


@lru_cache(maxsize=4)
def factor_count_reference(x: int) -> np.ndarray:
    """Omega(n) for 0 <= n < x as uint8, by one strike per power of every prime below x; cached and read-only.

    An entry does not depend on x (a prime power >= x strikes nothing below it), so a table serves every smaller x.
    """
    out = np.zeros(max(x, 0), dtype=np.uint8)
    for p in plain_sieve(x).tolist():
        pk = p
        while pk < x:
            out[pk::pk] += 1
            pk *= p
    out.setflags(write=False)
    return out


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


# -- divisor walks -------------------------------------------------------------


def combination_walk(primes, max_nu):
    """(d, factors, mu) for each product d of at most ``max_nu`` of ``primes``, factors taken in descending order."""
    ps = sorted(primes, reverse=True)
    for k in range(min(max_nu, len(ps)) + 1):
        for factors in combinations(ps, k):
            yield math.prod(factors), factors, (-1) ** k


def level_ok(value, p, D, beta):
    """The Rosser level test value * p^beta < D: exact in integers for integral beta, else in floats."""
    if float(beta).is_integer():
        return value * p ** int(beta) < D
    return value * p**beta < D


def eta_walk(primes, D, beta, r):
    """The recursive eta walk: ("rho", d, factors, mu) per kept divisor, ("sigma", d, factors, 0) per boundary one.

    Factors are taken in descending order.  A prefix of nu primes, nu = r mod 2,
    whose value times its least prime to the beta fails to stay below D is a
    boundary divisor and is not extended; every other prefix is kept and extended
    by each smaller prime.
    """
    ps = sorted(primes, reverse=True)

    def rec(start, value, factors):
        yield "rho", value, factors, (-1) ** len(factors)
        for j in range(start, len(ps)):
            p = ps[j]
            child, grown = value * p, factors + (p,)
            if len(grown) % 2 != r % 2 or level_ok(child, p, D, beta):
                yield from rec(j + 1, child, grown)
            else:
                yield "sigma", child, grown, 0

    yield from rec(0, 1, ())


def truncation_inequality_check(D, beta, r, z):
    """Level-margin inequalities for every kept divisor of P(z), z^2 <= D, over the ``eta_walk``.

    Kept d: (1/2) ((beta-1)/(beta+1))^(nu/2) log D < log(D/d).
    Discarded boundary d additionally pins log(D/d) + log p(d) into
    ((1/2) ((beta-1)/(beta+1))^((nu-1)/2) log D, (beta+1) log p(d)].
    """
    if z * z > D:
        raise ValueError("requires z^2 <= D")
    ratio = (beta - 1) / (beta + 1)
    log_D = math.log(D)
    checked = failures = 0
    checked_sigma = failures_sigma = 0
    for tag, d, factors, _mu in eta_walk(plain_sieve(z).tolist(), D, beta, r):
        if tag == "rho":
            checked += 1
            if not 0.5 * ratio ** (len(factors) / 2) * log_D < math.log(D / d):
                failures += 1
        else:
            checked_sigma += 1
            mid = math.log(D / d) + math.log(factors[-1])
            lo = 0.5 * ratio ** ((len(factors) - 1) / 2) * log_D
            hi = (beta + 1) * math.log(factors[-1])
            if not (lo < mid <= hi):
                failures_sigma += 1
    return {
        "kept_checked": checked,
        "kept_failures": failures,
        "boundary_checked": checked_sigma,
        "boundary_failures": failures_sigma,
        "holds": failures == 0 and failures_sigma == 0,
    }


# -- density products ---------------------------------------------------------


def density_factors(density, z):
    """The factors 1 - omega(p)/p over the primes p < z, one Fraction each from the density's per-prime ``omega``."""
    return [1 - density.omega(p) / p for p in plain_sieve(z).tolist()]


# -- affine kinds -------------------------------------------------------------

# Each affine kind's element at index t, as its definition states it: the interval's n = t, the
# twin product t(t+2), the Goldbach product t(N-t), and the progression's n = l + k t, 0 <= l < k.
# Every parameter enters as an integer coefficient, so reduced mod p it leaves F(t) mod p as it is.
AFFINE_POLYNOMIALS = {
    "interval": lambda t, q: t,
    "twin": lambda t, q: t * (t + 2),
    "goldbach": lambda t, q: t * (q["N"] - t),
    "progression": lambda t, q: q["l"] + q["k"] * t,
}


def brute_roots(kind, params, p):
    """The t mod p with p | F(t), F the kind's polynomial, by evaluating F at every t in [0, p)."""
    t = np.arange(p, dtype=np.int64)
    F = AFFINE_POLYNOMIALS[kind](t, {key: v % p for key, v in params.items()})
    return tuple(np.flatnonzero(F % p == 0).tolist())


def affine_elements(kind, params):
    """The elements of an affine kind, listed from its definition."""
    if kind == "interval":
        return list(range(params["x"] - params["y"] + 1, params["x"] + 1))
    if kind == "twin":
        return [n * (n + 2) for n in range(1, params["x"] - 2)]
    if kind == "goldbach":
        return [n * (params["N"] - n) for n in range(3, params["N"] - 2)]
    return [n for n in range(1, params["x"]) if n % params["k"] == params["l"]]


def reference_dual_b_values(values, roots):
    """Farey points a/q and b(a/q) = sum over d with q | d of lambda(d)/d sum over h in roots[d] of e(-ah/q).

    ``values`` maps each support d to lambda(d) and ``roots`` each d to its
    roots mod d; q runs over the support ascending, then a coprime to q
    ascending.  One ``cmath.exp`` per weight, per root and per point.
    """
    points, b = [], []
    for q in sorted(values):
        for a in range(q) if q > 1 else [0]:
            if q > 1 and math.gcd(a, q) != 1:
                continue
            total = 0j
            for d, lam in values.items():
                if d % q == 0:
                    total += complex(lam) / d * sum(cmath.exp(-2j * cmath.pi * a * h / q) for h in roots[d])
            points.append(Fraction(a, q))
            b.append(total)
    return points, np.asarray(b, dtype=complex)
