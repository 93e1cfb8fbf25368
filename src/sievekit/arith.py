"""Ground-truth prime tables and elementary multiplicative utilities.

Everything downstream (problem models, sieve bounds, verification suites)
counts against the tables built here, so this module favours bit-exact,
deterministic computation over speed tricks.

Conventions fixed here:

* ``li(x)`` is the offset logarithmic integral ``int_2^x dt/log t``
  (so ``li(2) == 0``), evaluated by adaptive quadrature.
* twin primes are counted as *pairs*, indexed by the smaller member.
* ``k = 1`` is accepted in progression counts with ``phi(1) = 1``; the
  residue class is then the full sequence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.integrate import quad

DEFAULT_LIMIT_CAP = 10**9
_SEGMENT = 1 << 20
LI_ABS_TOL = 1e-9


class BudgetError(RuntimeError):
    """A computation would exceed its configured work/memory budget."""


class PrimeLookup:
    """Read-only ``n -> is n prime`` view of a :class:`PrimeTable`.

    Indexing takes an int or an int array and answers with one binary
    search in the table's primes, so the view stores nothing of its own
    (``nbytes`` is 0).  Every value outside [0, limit) reads False.
    """

    nbytes = 0

    def __init__(self, table: PrimeTable):
        self._table = table

    def __getitem__(self, n):
        ps = self._table.primes
        if np.ndim(n) == 0:
            n = int(n)
            if not 0 <= n < self._table.limit:
                return False
            i = int(np.searchsorted(ps, n))
            return i < len(ps) and int(ps[i]) == n
        n = np.asarray(n)
        if len(ps) == 0:
            return np.zeros(n.shape, dtype=bool)
        # a value equal to some prime lies in [2, limit), so no range test is needed
        i = np.searchsorted(ps, n)
        np.minimum(i, len(ps) - 1, out=i)
        return ps[i] == n


@dataclass(frozen=True)
class PrimeTable:
    """All primes below ``limit``, sorted, as a read-only int64 array."""

    limit: int
    primes: np.ndarray

    def __post_init__(self):
        self.primes.setflags(write=False)

    @property
    def membership(self) -> PrimeLookup:
        return PrimeLookup(self)

    def __contains__(self, n: int) -> bool:
        return self.membership[n]

    def count_below(self, x: int) -> int:
        """pi(x): the number of primes p < x."""
        if x > self.limit:
            raise ValueError(f"table limit {self.limit} too small for x={x}")
        return int(np.searchsorted(self.primes, x, side="left"))

    def primes_below(self, x: int) -> np.ndarray:
        if x > self.limit:
            raise ValueError(f"table limit {self.limit} too small for x={x}")
        return self.primes[: self.count_below(x)]


def _bitmap_simple(limit: int) -> np.ndarray:
    """Plain (non-segmented) sieve over [0, limit); used as the cross-check reference."""
    is_prime = np.ones(limit, dtype=bool)
    is_prime[:2] = False
    for p in range(2, math.isqrt(limit - 1) + 1):
        if is_prime[p]:
            is_prime[p * p :: p] = False
    return is_prime


def primes_up_to_simple(limit: int) -> PrimeTable:
    """Non-segmented sieve of all primes below ``limit``."""
    if limit < 2:
        return PrimeTable(limit, np.empty(0, dtype=np.int64))
    return PrimeTable(limit, np.flatnonzero(_bitmap_simple(limit)).astype(np.int64))


def primes_up_to(limit: int, *, cap: int = DEFAULT_LIMIT_CAP) -> PrimeTable:
    """All primes in [2, limit), computed by an odd-only segmented sieve.

    Entry j of the reused segment buffer stands for the odd number
    lo + 2j; each segment keeps only its primes, and the pieces are joined
    once at the end, so working memory is O(sqrt(limit) + _SEGMENT) beside
    the result.  Bit-identical to the plain sieve.  Raises
    :class:`BudgetError` when ``limit`` exceeds ``cap``.
    """
    if limit > cap:
        raise BudgetError(f"limit {limit} exceeds configured cap {cap}")
    if limit < 3:
        return PrimeTable(limit, np.empty(0, dtype=np.int64))
    base = primes_up_to_simple(math.isqrt(limit - 1) + 1).primes[1:].tolist()  # odd primes p, p^2 < limit
    pieces = [np.array([2], dtype=np.int64)]
    buf = np.empty(_SEGMENT, dtype=bool)
    for lo in range(3, limit, 2 * _SEGMENT):
        hi = min(lo + 2 * _SEGMENT, limit)
        seg = buf[: (hi - lo + 1) // 2]
        seg[:] = True
        for p in base:
            if p * p >= hi:
                break
            start = max(p * p, (lo + p - 1) // p * p)
            if start % 2 == 0:
                start += p
            seg[(start - lo) // 2 :: p] = False
        found = np.flatnonzero(seg)
        found *= 2
        found += lo
        pieces.append(found)
    return PrimeTable(limit, np.concatenate(pieces))


@lru_cache(maxsize=64)
def small_primes(limit: int) -> tuple[int, ...]:
    """Cached tuple of primes below ``limit`` (intended for small limits)."""
    return tuple(int(p) for p in primes_up_to_simple(limit).primes)


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization of n >= 1 by trial division, as (p, exponent) pairs."""
    if n < 1:
        raise ValueError("n must be positive")
    out = []
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            out.append((p, e))
        p += 1 if p == 2 else 2
    if m > 1:
        out.append((m, 1))
    return out


def prime_factors(n: int) -> tuple[int, ...]:
    """The distinct primes dividing n >= 1, ascending."""
    return tuple(p for p, _ in factorize(n))


def divisors(n: int) -> list[int]:
    """The positive divisors of n >= 1, ascending."""
    out = [1]
    for p, e in factorize(n):
        out = [d * p**k for d in out for k in range(e + 1)]
    return sorted(out)


def mobius(n: int) -> int:
    """Mobius function: 0 on non-squarefree n, else (-1)^(number of prime factors)."""
    if n < 1:
        raise ValueError("n must be positive")
    if n == 1:
        return 1
    sign = 1
    for _, e in factorize(n):
        if e > 1:
            return 0
        sign = -sign
    return sign


def euler_phi(n: int) -> int:
    if n < 1:
        raise ValueError("n must be positive")
    out = n
    for p, _ in factorize(n):
        out -= out // p
    return out


@dataclass(frozen=True)
class FactoredSquarefree:
    """A squarefree integer with its prime factors listed in descending order."""

    value: int
    prime_factors: tuple[int, ...]
    nu: int

    def __post_init__(self):
        prod = 1
        for p in self.prime_factors:
            prod *= p
        if prod != self.value or len(set(self.prime_factors)) != self.nu:
            raise ValueError("inconsistent squarefree factorization")
        if list(self.prime_factors) != sorted(self.prime_factors, reverse=True):
            raise ValueError("prime factors must be descending")


def factor_squarefree(n: int) -> FactoredSquarefree:
    """Factor a squarefree n; raises ValueError if n has a squared factor."""
    factors = factorize(n)
    if any(e > 1 for _, e in factors):
        raise ValueError(f"{n} is not squarefree")
    descending = tuple(sorted((p for p, _ in factors), reverse=True))
    return FactoredSquarefree(n, descending, len(descending))


def truncated_mobius(m: FactoredSquarefree, ell: int) -> int:
    """Sum of mu(d) over divisors d of m with at most ``ell`` prime factors.

    For m > 1 the closed form (-1)^ell * C(nu(m) - 1, ell) holds; the sum
    form below keeps the two routes independent for testing.
    """
    if ell < 0:
        raise ValueError("ell must be nonnegative")
    if m.value <= 1:
        raise ValueError("m must exceed 1")
    return sum((-1) ** j * math.comb(m.nu, j) for j in range(min(ell, m.nu) + 1))


def pi_count(table: PrimeTable, x: int, variant: str = "plain", *, k: int | None = None, l: int | None = None) -> int:
    """Prime counts below x: plain pi(x), twin pairs, or a progression class.

    * ``plain``: #{p < x}
    * ``twin``:  #{p : p < x, p and p+2 both prime} (pairs, smaller member)
    * ``progression``: #{p < x : p = l (mod k)}, requires gcd(k, l) = 1
    """
    if variant == "plain":
        return table.count_below(x)
    if variant == "twin":
        if x + 2 > table.limit:
            raise ValueError(f"table limit {table.limit} too small for twin count at x={x}")
        # p and p + 2 both prime means consecutive primes two apart
        k = table.count_below(x)
        return int(np.count_nonzero(np.diff(table.primes[: k + 1]) == 2))
    if variant == "progression":
        if k is None or l is None:
            raise ValueError("progression counts need k and l")
        if k < 1:
            raise ValueError("k must be >= 1")
        if math.gcd(k, l) != 1 and k != 1:
            raise ValueError(f"(k, l) = ({k}, {l}) not coprime")
        ps = table.primes_below(x)
        return int(np.count_nonzero(ps % k == (l % k)))
    raise ValueError(f"unknown variant {variant!r}")


def li(x: float) -> float:
    """Offset logarithmic integral int_2^x dt/log t (so li(2) = 0)."""
    if x < 2:
        raise ValueError("li is defined here for x >= 2")
    if x == 2:
        return 0.0
    val, _err = quad(lambda t: 1.0 / math.log(t), 2.0, x, epsabs=LI_ABS_TOL, epsrel=1e-12, limit=200)
    return val


def remainder_E(table: PrimeTable, x: int, k: int, l: int) -> float:
    """pi(x; k, l) - li(x)/phi(k), the progression remainder term."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > 1 and math.gcd(k, l) != 1:
        raise ValueError(f"(k, l) = ({k}, {l}) not coprime")
    count = pi_count(table, x, "progression", k=k, l=l)
    return count - li(x) / euler_phi(k)


def mean_remainder_sum(table: PrimeTable, x: int, Q: int, *, work_cap: int = 10**9) -> float:
    """Sum over q < Q of max over residues a coprime to q of |E(x; q, a)|.

    Exact given the table; intended as a desk-scale empirical probe of how
    progression remainders average out over moduli.
    """
    if Q < 2:
        raise ValueError("Q must be >= 2")
    ps = table.primes_below(x)
    if Q * (len(ps) + Q) > work_cap:
        raise BudgetError(f"Q={Q}, x={x} exceeds work cap {work_cap}")
    li_x = li(x)
    total = abs(len(ps) - li_x)  # q = 1: the full sequence, phi(1) = 1
    for q in range(2, Q):
        counts = np.bincount(ps % q, minlength=q)
        phi_q = euler_phi(q)
        best = 0.0
        for a in range(q):
            if math.gcd(a, q) == 1:
                best = max(best, abs(counts[a] - li_x / phi_q))
        total += best
    return float(total)
