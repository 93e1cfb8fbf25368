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
* ``factorize`` is trial division, so it runs only on integers a caller
  hands in: a divisor the package builds from primes keeps them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

DEFAULT_LIMIT_CAP = 10**9  # largest prime-table limit
SMALL_PRIMES_CAP = 2 * 10**7  # largest small_primes limit: 1.27M primes, held as Python ints
REMAINDER_WORK_CAP = 10**9  # most (modulus, prime) steps one mean_remainder_sum may take
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


def primes_up_to(limit: int) -> PrimeTable:
    """All primes in [2, limit), computed by an odd-only segmented sieve.

    Entry j of the reused segment buffer stands for the odd number
    lo + 2j; each segment keeps only its primes, and the pieces are joined
    once at the end, so working memory is O(sqrt(limit) + _SEGMENT) beside
    the result.  The base primes come from this same sieve one level down
    (through :func:`small_primes`).  Raises :class:`BudgetError` when
    ``limit`` exceeds ``DEFAULT_LIMIT_CAP``.
    """
    if limit > DEFAULT_LIMIT_CAP:
        raise BudgetError(f"limit {limit} exceeds configured cap {DEFAULT_LIMIT_CAP}")
    if limit < 3:
        return PrimeTable(limit, np.empty(0, dtype=np.int64))
    base = small_primes(math.isqrt(limit - 1) + 1)[1:]  # odd primes p, p^2 < limit
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
    """Cached tuple of the primes below ``limit``, read off :func:`primes_up_to`; BudgetError past the cap."""
    if limit > SMALL_PRIMES_CAP:
        raise BudgetError(f"small_primes limit {limit} exceeds cap {SMALL_PRIMES_CAP}")
    return tuple(primes_up_to(limit).primes.tolist())


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


def factor_squarefree(n: int) -> tuple[int, ...]:
    """The primes of a squarefree n, descending; raises ValueError if n has a squared factor."""
    factors = factorize(n)
    if any(e > 1 for _, e in factors):
        raise ValueError(f"{n} is not squarefree")
    return tuple(p for p, _ in reversed(factors))


def truncated_mobius(nu: int, ell: int) -> int:
    """Sum of mu(d) over the divisors d with at most ``ell`` primes of a squarefree m with ``nu`` primes.

    It is 1 at nu = 0; for nu >= 1 the closed form (-1)^ell * C(nu - 1, ell)
    holds, and the sum form below keeps the two routes independent for testing.
    """
    if ell < 0:
        raise ValueError("ell must be nonnegative")
    return sum((-1) ** j * math.comb(nu, j) for j in range(min(ell, nu) + 1))


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
    from scipy.integrate import quad  # imported here: li is its only user, and scipy is most of the import time

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


def mean_remainder_sum(table: PrimeTable, x: int, Q: int) -> float:
    """Sum over q < Q of max over residues a coprime to q of |E(x; q, a)|.

    Exact given the table; intended as a desk-scale empirical probe of how
    progression remainders average out over moduli.
    """
    if Q < 2:
        raise ValueError("Q must be >= 2")
    ps = table.primes_below(x)
    if Q * (len(ps) + Q) > REMAINDER_WORK_CAP:
        raise BudgetError(f"Q={Q}, x={x} exceeds work cap {REMAINDER_WORK_CAP}")
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
