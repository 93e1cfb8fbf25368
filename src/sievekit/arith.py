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
* ``factorize`` trial-divides by the primes below 2^16 and splits what is
  left by Brent-Pollard rho, each factor certified by deterministic
  Miller-Rabin, so it ends on every n whose cofactor stays below 3.3e24
  and raises ``BudgetError`` past that; a divisor the package builds from
  primes keeps them.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

DEFAULT_LIMIT_CAP = 10**9  # largest prime-table limit
SMALL_PRIMES_CAP = 2 * 10**7  # largest small_primes limit: 1.27M primes, held as Python ints
REMAINDER_WORK_CAP = 10**9  # most (modulus, prime) steps one mean_remainder_sum may take
_SEGMENT = 1 << 20
_WHEEL_PRIMES = (3, 5, 7, 11, 13)  # primes_up_to starts each segment with their odd multiples struck
_WHEEL_PERIOD = 3 * 5 * 7 * 11 * 13  # entries of odd-only index space per period
LI_ABS_TOL = 1e-9
_TRIAL_BOUND = 1 << 16  # factorize trial-divides by the primes below this
_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MILLER_RABIN_EXACT_BELOW = 3317044064679887385961981  # psi_13: those bases are exact below it (Sorenson-Webster 2017)
_RHO_BATCH = 128  # rho steps per gcd


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


def prime_count_bound(limit: int) -> int:
    """An upper bound on the number of primes below ``limit``: ``limit`` itself below 100, else
    Rosser and Schoenfeld's pi(x) < 1.25506 x / ln x for x > 1 (Illinois J. Math. 6, 1962), plus one
    to absorb the float's rounding."""
    if limit < 100:
        return max(limit, 0)
    return int(1.25506 * limit / math.log(limit)) + 1


def primes_up_to(limit: int) -> PrimeTable:
    """All primes in [2, limit), computed by an odd-only segmented sieve.

    Entry j of the reused segment buffer stands for the odd number
    lo + 2j.  Each segment starts as a copy of one tiled pattern of the odd
    numbers prime to 3*5*7*11*13 (period 15015 entries), so only the primes
    from 17 on are struck, and its primes are written in place into one
    int64 output sized by :func:`prime_count_bound`; the table is a prefix of
    that output, whose unwritten tail is never touched.  Working memory
    beside the result is O(sqrt(limit) + _SEGMENT).  The base primes come
    from this same sieve one level down (through :func:`small_primes`).
    Raises :class:`BudgetError` when ``limit`` exceeds ``DEFAULT_LIMIT_CAP``.
    """
    if limit > DEFAULT_LIMIT_CAP:
        raise BudgetError(f"limit {limit} exceeds configured cap {DEFAULT_LIMIT_CAP}")
    if limit < 3:
        return PrimeTable(limit, np.empty(0, dtype=np.int64))
    base = small_primes(math.isqrt(limit - 1) + 1)[6:]  # primes from 17 on, p^2 < limit
    seg_len = min(_SEGMENT, (limit - 1) // 2)
    # entry i of the tile stands for 2i + 1; a segment reads seg_len entries from offset
    # (lo - 1) // 2 mod the period, and never past entry limit // 2
    tile = np.ones(min(seg_len + _WHEEL_PERIOD, limit // 2), dtype=bool)
    for p in _WHEEL_PRIMES:
        tile[(p - 1) // 2 :: p] = False
    out = np.empty(prime_count_bound(limit), dtype=np.int64)
    out[0] = 2
    n = 1
    buf = np.empty(seg_len, dtype=bool)
    for lo in range(3, limit, 2 * _SEGMENT):
        hi = min(lo + 2 * _SEGMENT, limit)
        off = (lo - 1) // 2 % _WHEEL_PERIOD
        seg = tile[off : off + (hi - lo + 1) // 2]
        if hi < limit:  # a later segment reads the tile again, so strike a copy
            buf[:] = seg
            seg = buf
        for p in _WHEEL_PRIMES:
            if lo <= p < hi:
                seg[(p - lo) // 2] = True
        for p in base:
            if p * p >= hi:
                break
            start = max(p * p, (lo + p - 1) // p * p)
            if start % 2 == 0:
                start += p
            seg[(start - lo) // 2 :: p] = False
        found = np.flatnonzero(seg)
        dst = out[n : n + len(found)]  # a shape error, never a stray write, if the bound were short
        np.multiply(found, 2, out=dst)
        dst += lo
        n += len(found)
    return PrimeTable(limit, out[:n])


@lru_cache(maxsize=64)
def small_primes(limit: int) -> tuple[int, ...]:
    """Cached tuple of the primes below ``limit``, read off :func:`primes_up_to`; BudgetError past the cap."""
    if limit > SMALL_PRIMES_CAP:
        raise BudgetError(f"small_primes limit {limit} exceeds cap {SMALL_PRIMES_CAP}")
    return tuple(primes_up_to(limit).primes.tolist())


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization of n >= 1 as ascending (p, exponent) pairs.

    Trial division by the primes below 2^16 first, which settles every
    n < 2^32; a cofactor left at or above 2^32 has only prime factors past
    2^16, and is split by Brent-Pollard rho with each piece certified by
    :func:`is_prime`, which raises :class:`BudgetError` on a cofactor at or
    past ``MILLER_RABIN_EXACT_BELOW``.
    """
    if n < 1:
        raise ValueError("n must be positive")
    out = []
    m = n
    for p in small_primes(_TRIAL_BOUND):
        if p * p > m:
            break
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            out.append((p, e))
    if m >= _TRIAL_BOUND**2:
        large = Counter()
        pending = [m]
        while pending:
            f = pending.pop()
            if is_prime(f):
                large[f] += 1
            else:
                d = _brent_rho(f)
                pending += [d, f // d]
        out += sorted(large.items())
    elif m > 1:
        out.append((m, 1))
    return out


def is_prime(n: int) -> bool:
    """Primality by Miller-Rabin to the first 13 prime bases, exact for n < ``MILLER_RABIN_EXACT_BELOW``.

    Raises :class:`BudgetError` at or past that bound, where the answer would be only probable.
    """
    if n >= MILLER_RABIN_EXACT_BELOW:
        raise BudgetError(f"a {n.bit_length()}-bit integer is past the certified primality bound "
                          f"{MILLER_RABIN_EXACT_BELOW:.2e}")
    if n < 2:
        return False
    for p in _MILLER_RABIN_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MILLER_RABIN_BASES:
        y = pow(a, d, n)
        if y in (1, n - 1):
            continue
        for _ in range(s - 1):
            y = y * y % n
            if y == n - 1:
                break
        else:
            return False
    return True


def _brent_rho(n: int) -> int:
    """A proper factor of an odd composite n, by Brent's variant of Pollard rho (BIT 20, 1980).

    The map y -> y^2 + c (mod n) is walked in doubling runs, and the gcd
    with n is taken once per ``_RHO_BATCH`` steps over the product of the
    differences; a batch that overshoots is replayed one step at a time.
    The deterministic c = 1, 2, ... moves on when a walk closes on n itself.
    """
    for c in itertools.count(1):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(_RHO_BATCH, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += _RHO_BATCH
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g


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
        # p and p + 2 both prime means consecutive primes two apart; the gaps are
        # taken _SEGMENT at a time, each piece overlapping the next by one prime
        ps = table.primes[: table.count_below(x) + 1]
        return sum(int(np.count_nonzero(np.diff(ps[lo:lo + _SEGMENT + 1]) == 2))
                   for lo in range(0, len(ps) - 1, _SEGMENT))
    if variant == "progression":
        if k is None or l is None:
            raise ValueError("progression counts need k and l")
        if k < 1:
            raise ValueError("k must be >= 1")
        if math.gcd(k, l) != 1 and k != 1:
            raise ValueError(f"(k, l) = ({k}, {l}) not coprime")
        # the residues are taken _SEGMENT primes at a time, so no temporary spans the table
        ps = table.primes_below(x)
        return sum(int(np.count_nonzero(ps[lo:lo + _SEGMENT] % k == l % k))
                   for lo in range(0, len(ps), _SEGMENT))
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
