"""Sieve-problem data model: sequences, densities, residue systems, oracles.

A :class:`SieveProblem` packages a finite integer sequence ``A`` together
with its multiplicative density ``omega``, a scale ``X`` and (for affine
kinds) an equivalent residue-class description.  ``exact_sift`` is the
exact oracle every bound in the package is compared against: a segmented
residue sieve over the index range for the affine kinds, a divisibility
scan of the element values for the explicit ones.

Supported kinds:

* ``interval``       n in (x-y, x],                    omega = 1, X = y
* ``twin``           n(n+2) for 1 <= n < x-2,          omega(2)=1, omega(p)=2, X = x
* ``goldbach``       n(N-n) for 3 <= n <= N-3,         omega(p)=2 (p not | N) else 1, X = N
* ``shifted_prime``  p+2 for odd primes p < x,         omega(2)=0, omega(p)=p/(p-1), X = li(x)
* ``progression``    n < x with n = l (mod k),         omega(p)=0 for p|k else 1, X = x/k
* ``parity``         n < x, total prime divisors = r,  omega = 1, X = x/2
* ``custom``         explicit elements + density

The four affine kinds (interval, twin, goldbach, progression) are each one
rule for the forbidden index classes Omega(p) (``_affine_classes``); their
omega(p) is |Omega(p)| and their |A_d| a CRT count of those classes.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from typing import Callable, Mapping

import numpy as np

from .arith import BudgetError, PrimeTable, factor_squarefree, li, primes_up_to_simple, small_primes

KINDS = ("interval", "twin", "goldbach", "shifted_prime", "progression", "parity", "custom")

# Most elements one oracle count may visit.  The affine kinds stream their
# index range in blocks, so there it bounds work, not memory; the explicit
# kinds still hold every value in an int64 array.
ORACLE_ELEMENT_CAP = 2 * 10**7
DIVISOR_CAP = 1 << 25  # most squarefree divisors one walk, or entries one profile, may hold
_PROFILE_Z = 53  # oracle profiles cover sifting primes below this bound
_BLOCK = 1 << 18  # index positions per block of the affine residue sieve
_LUT_MODULUS = 1 << 18  # largest prime product one residue lookup table of a value profile spans


def in_profile_window(z: int) -> bool:
    """Whether every prime below z lies in the default profile window (the primes below 53)."""
    return z <= _PROFILE_Z


def _as_fraction(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


class SiftingDensity:
    """Multiplicative density: omega(p) removed residue classes per prime p.

    ``kappa`` is the declared dimension.  omega extends multiplicatively to
    squarefree d; values are exact rationals.
    """

    def __init__(self, rule: Callable[[int], Fraction], kappa: float):
        self._rule = rule
        self.kappa = kappa
        self._memo: dict[int, Fraction] = {}
        self._fits: dict[tuple[int, int], float] = {}  # dimension_fit results by (z1, z2)

    def omega(self, p: int) -> Fraction:
        w = self._memo.get(p)
        if w is None:
            w = _as_fraction(self._rule(p))
            if not 0 <= w.numerator < p * w.denominator:  # 0 <= w < p, in ints
                raise ValueError(f"omega({p}) = {w} violates 0 <= omega(p) < p")
            self._memo[p] = w
        return w

    def omega_d(self, d_primes) -> Fraction:
        out = Fraction(1)
        for p in d_primes:
            out *= self.omega(p)
        return out

    @staticmethod
    def unit(kappa: float = 1.0) -> "SiftingDensity":
        return SiftingDensity(lambda p: Fraction(1), kappa)

    @staticmethod
    def zero() -> "SiftingDensity":
        return SiftingDensity(lambda p: Fraction(0), 0.0)


@dataclass(frozen=True)
class ResidueSystem:
    """Forbidden residue classes mod each participating prime."""

    classes: Mapping[int, tuple[int, ...]]

    def __post_init__(self):
        for p, res in self.classes.items():
            if len(set(res)) != len(res) or any(not 0 <= r < p for r in res):
                raise ValueError(f"bad residue set mod {p}: {res}")
            if len(res) >= p:
                raise ValueError(f"|Omega({p})| must stay below {p}")

    def size(self, p: int) -> int:
        return len(self.classes.get(p, ()))

    def primes(self) -> tuple[int, ...]:
        return tuple(sorted(self.classes))

    def supported(self, p: int) -> bool:
        return self.size(p) > 0

    def size_d(self, d_primes) -> int:
        out = 1
        for p in d_primes:
            out *= self.size(p)
        return out

    def roots_mod(self, d_primes) -> list[int]:
        """All residues mod prod(d_primes) lying in Omega(p) for each p (CRT)."""
        m = 1
        roots = [0]
        for p in d_primes:
            res = self.classes.get(p, ())
            # CRT step: r mod m, s mod p -> unique class mod m*p
            inv = pow(m, -1, p)
            new = []
            for r in roots:
                for s in res:
                    new.append(r + m * ((s - r) * inv % p))
            roots = new
            m *= p
        return roots

    def count_in_interval(self, M: int, N: int, d_primes) -> int:
        """#{n in [M, M+N) : n in Omega(p) for every p | d}."""
        m = math.prod(d_primes)
        hi, lo = M + N - 1, M - 1
        return sum((hi - r) // m - (lo - r) // m for r in self.roots_mod(d_primes))


@dataclass(frozen=True)
class OmegaForm:
    """Interval [M, M+N) sifted by forbidden residue classes.

    Every count is made by one segmented residue sieve: the index range is
    walked in blocks of ``_BLOCK`` positions, and inside a block each class
    r mod p is struck with the strided slice ``buf[(r - start) % p :: p]``.
    Counts hold one block at a time, whatever M and N; no element value is
    formed, so indices past 2^63 are fine.
    """

    M: int
    N: int
    residues: ResidueSystem

    def _marked_blocks(self, marks, nbits: int):
        """Yield one buffer per block, ORing ``bit`` at every index in a class mod p.

        ``marks`` lists (p, bit) pairs; ``nbits`` bounds the bits in use and
        so the buffer dtype.  Raises BudgetError before any work when N
        exceeds ``ORACLE_ELEMENT_CAP``.
        """
        if self.N > ORACLE_ELEMENT_CAP:
            raise BudgetError(f"{self.N} elements exceed the oracle cap {ORACLE_ELEMENT_CAP}")
        dtype = np.min_scalar_type((1 << nbits) - 1)
        end = self.M + self.N
        for start in range(self.M, end, _BLOCK):
            buf = np.zeros(min(_BLOCK, end - start), dtype=dtype)
            for p, bit in marks:
                for r in self.residues.classes.get(p, ()):
                    buf[(r - start) % p :: p] |= bit
            yield buf

    def _survivor_blocks(self, z: int):
        """Block masks of the indices lying in no class mod a prime p < z."""
        for buf in self._marked_blocks([(p, 1) for p in self.residues.primes() if p < z], 1):
            yield buf == 0

    def survivor_mask(self, z: int) -> np.ndarray:
        return np.concatenate([np.ones(0, dtype=bool), *self._survivor_blocks(z)])

    def sift_count(self, z: int) -> int:
        """#{n in [M, M+N) : n in no Omega(p) with p < z}."""
        return sum(int(np.count_nonzero(keep)) for keep in self._survivor_blocks(z))

    def histogram(self, primes: tuple[int, ...]) -> np.ndarray:
        """Counts of indices by the set of ``primes`` whose classes hold them (bit i for primes[i])."""
        hist = np.zeros(1 << len(primes), dtype=np.int64)
        for buf in self._marked_blocks([(p, 1 << i) for i, p in enumerate(primes)], len(primes)):
            hist += np.bincount(buf, minlength=len(hist))
        return hist


def _value_histogram(values: np.ndarray, primes: tuple[int, ...]) -> np.ndarray:
    """Counts of ``values`` by the set of ``primes`` dividing them (bit i for primes[i]).

    The primes are taken in order in greedy runs whose product m stays at
    most ``_LUT_MODULUS`` (2^18): below 53 these are 2*3*5*7*11*13 = 30030,
    17*19*23*29, 31*37*41 and 43*47.  Each prime p of a run divides m, so
    p | v exactly when p | (v mod m); a table of m entries holding, at
    residue s, the bits of the run's primes that divide s flags the whole
    run with one ``values % m`` pass and one lookup.  NumPy's ``%`` by a
    positive m is non-negative for every int64, negatives and 0 included.
    A prime too large to share a run is tested on its own.
    """
    dtype = np.min_scalar_type((1 << len(primes)) - 1)
    masks = np.zeros(len(values), dtype=dtype)
    i = 0
    while i < len(primes):
        j, m = i + 1, primes[i]
        while j < len(primes) and m * primes[j] <= _LUT_MODULUS:
            m *= primes[j]
            j += 1
        if j == i + 1:
            masks |= (values % m == 0).astype(dtype) << i
        else:
            lut = np.zeros(m, dtype=dtype)
            for k in range(i, j):
                lut[:: primes[k]] |= 1 << k
            masks |= lut[values % m]
        i = j
    return np.bincount(masks, minlength=1 << len(primes)).astype(np.int64, copy=False)


class _Profile:
    """Divisibility bit-profile of a problem's elements over a prime window.

    ``hist[mask]`` counts elements whose value is divisible by exactly the
    primes flagged in ``mask``; superset sums then answer every
    |A_d| / |S(A_d, w)| query exactly without touching the elements again.
    The primes are in ascending order, bit i for primes[i].
    """

    def __init__(self, primes: tuple[int, ...], hist: np.ndarray):
        self.primes = primes
        self.index = {p: i for i, p in enumerate(primes)}
        self.hist = hist
        self._superset = self._superset_sum(self.hist)
        self._sifted: dict[int, np.ndarray] = {0: self._superset}  # sifted by no prime: the superset table itself

    @staticmethod
    def _superset_sum(hist: np.ndarray) -> np.ndarray:
        f = hist.copy()
        for i in range(len(f).bit_length() - 1):
            # axis 1 is bit i of the mask; fold the set half into the clear half in place
            v = f.reshape(-1, 2, 1 << i)
            v[:, 0, :] += v[:, 1, :]
        return f

    def bits_of(self, d_primes) -> int:
        bits = 0
        for p in d_primes:
            bits |= 1 << self.index[p]
        return bits

    def count_multiple(self, d_primes) -> int:
        return int(self._superset[self.bits_of(d_primes)])

    def mobius_sum(self, d_primes) -> int:
        """Sum of mu(e) |A_e| over e | d, folded from the superset table top bit first."""
        bits, f = self.bits_of(d_primes), self._superset
        for i in reversed(range(len(self.primes))):
            lo, hi = f.reshape(2, -1)
            f = lo - hi if bits >> i & 1 else lo
        return int(f[0])

    def sift_count(self, w: int, d_primes=()) -> int:
        """#{a in A : d | a, a has no prime factor below w (within the window)}.

        The k primes below w are the low k bits of a mask, so the elements
        free of them are ``hist[::2^k]``; the superset table of that slice,
        2^(n-k) entries kept per k, answers every d.
        """
        k = bisect_left(self.primes, w)
        dbits = self.bits_of(d_primes)
        if dbits & ((1 << k) - 1):
            return 0
        table = self._sifted.get(k)
        if table is None:
            table = self._sifted[k] = self._superset_sum(self.hist[:: 1 << k])
        return int(table[dbits >> k])


class SieveProblem:
    """A finite sequence with density bookkeeping and exact counting."""

    def __init__(
        self,
        kind: str,
        params: dict,
        X: Fraction,
        density: SiftingDensity,
        *,
        lo: int | None = None,
        hi: int | None = None,
        explicit: np.ndarray | None = None,
        residues: ResidueSystem | None = None,
        omega_interval: tuple[int, int] | None = None,
    ):
        if kind not in KINDS:
            raise ValueError(f"unknown kind {kind!r}")
        self.kind = kind
        self.params = dict(params)
        self.X = _as_fraction(X)
        self.density = density
        self._lo = lo
        self._hi = hi
        self.residues = residues
        self._omega_interval = omega_interval
        self._wide: dict[int, ResidueSystem] = {}  # affine classes past _PROFILE_Z, by power-of-two bound
        self._values: np.ndarray | None = explicit
        self._profiles: dict[tuple[int, ...], _Profile] = {}
        self._inert: set[int] = set()  # primes with omega(p) = 0 checked to divide no element

    # -- element access -------------------------------------------------

    @property
    def size(self) -> int:
        if self._lo is None:  # explicit elements, or parity's made on first use
            return len(self.values())
        return max(self._hi - self._lo, 0)

    def values(self) -> np.ndarray:
        """The element values of A as an int64 array (cached)."""
        if self._values is None and self.kind == "parity":
            # n < x whose prime divisors, counted with multiplicity, number r mod 2
            big_omega = factor_count_sieve(self.params["x"])
            self._values = np.nonzero((big_omega[1:] & 1) == self.params["r"])[0].astype(np.int64) + 1
        if self._values is None:
            if self.size > ORACLE_ELEMENT_CAP:
                raise BudgetError(f"{self.size} elements exceed enumeration cap")
            n = np.arange(self._lo, self._hi, dtype=np.int64)
            if self.kind in ("interval", "progression"):
                vals = n
            elif self.kind == "twin":
                vals = n * (n + 2)
            elif self.kind == "goldbach":
                vals = n * (self.params["N"] - n)
            else:
                raise AssertionError(self.kind)
            if self.kind == "progression":
                k, l = self.params["k"], self.params["l"]
                vals = vals[vals % k == l % k]
            self._values = vals
        return self._values

    def profile(self, primes: tuple[int, ...] | None = None) -> _Profile:
        """The divisibility profile over ascending ``primes`` (default: the primes below 53), cached.

        Raises BudgetError, before any allocation, when the 2^len(primes)
        histogram entries would exceed ``DIVISOR_CAP``.
        """
        if primes is None:
            primes = small_primes(_PROFILE_Z)
        if (1 << len(primes)) > DIVISOR_CAP:
            raise BudgetError(f"2^{len(primes)} profile entries exceed the enumeration cap")
        prof = self._profiles.get(primes)
        if prof is None:
            if self._omega_interval is not None:
                hist = self.omega_form(max(primes, default=1) + 1).histogram(primes)
            else:
                hist = _value_histogram(self.values(), primes)
            prof = self._profiles[primes] = _Profile(primes, hist)
        return prof

    def sifting_primes(self, z: int, z0: int = 2) -> tuple[int, ...]:
        """Primes p with z0 <= p < z and nonzero density.

        An inert prime (omega(p) = 0) is left out, which is sound only when
        it divides no element: the oracle counts still sift by it.  One that
        divides an element raises ValueError; each prime is checked once
        per problem.
        """
        out = []
        for p in small_primes(z):
            if p < z0:
                continue
            if self.density.omega(p) != 0:
                out.append(p)
            elif p not in self._inert:
                if self.count_multiple(p, (p,)):
                    raise ValueError(f"omega({p}) = 0, yet {p} divides an element of {self.describe()}")
                self._inert.add(p)
        return tuple(out)

    def profile_below(self, z: int) -> _Profile:
        """A profile holding every sifting prime below z.

        Up to ``_PROFILE_Z`` that is the default window; above it, the
        profile over exactly the sifting primes, 2^pi(z) entries at most.
        """
        return self.profile() if in_profile_window(z) else self.profile(self.sifting_primes(z))

    # -- exact counting ---------------------------------------------------

    def count_multiple(self, d: int, d_primes=None) -> int:
        """|A_d|: elements whose value is divisible by squarefree d.

        ``d_primes`` are the primes of d when the caller already holds them
        (a divisor walk does); otherwise d is factored here, and a d that is
        not squarefree raises ValueError.  An affine kind counts the indices
        lying in Omega(p) for every p | d by CRT.
        """
        if d_primes is None:
            d_primes = factor_squarefree(d).prime_factors
        if self._omega_interval is not None:
            M, N = self._omega_interval
            return self._residues_below(max(d_primes, default=2) + 1).count_in_interval(M, N, d_primes)
        vals = self.values()
        if d > 2**63:  # above every int64 |value|, so only 0 is a multiple
            return int(np.count_nonzero(vals == 0))
        return int(np.count_nonzero(vals % d == 0))

    # -- residue-class (Omega) form --------------------------------------

    def omega_form(self, z: int | None = None) -> OmegaForm:
        """The equivalent interval-plus-residue-classes description.

        The stored residue classes cover the primes below ``_PROFILE_Z``; a
        larger ``z`` extends them to every prime below z, so sifting at z
        sees all of its primes.
        """
        if self._omega_interval is None:
            raise ValueError(f"kind {self.kind!r} has no residue-class form")
        M, N = self._omega_interval
        return OmegaForm(M, N, self.residues if z is None else self._residues_below(z))

    def _residues_below(self, z: int) -> ResidueSystem:
        """The kind's classes for at least every prime below z.

        Past ``_PROFILE_Z`` the classes run to the power of two at or above
        z, built once per such bound and kept, so a divisor walk or a
        repeated ``omega_form(z)`` call never rebuilds them.
        """
        if z <= _PROFILE_Z:
            return self.residues
        bound = 1 << (z - 1).bit_length()
        rs = self._wide.get(bound)
        if rs is None:
            rs = self._wide[bound] = _affine_residues(self.kind, self.params, bound)
        return rs

    # -- serialization ----------------------------------------------------

    def to_config(self) -> dict:
        return {"kind": self.kind, **self.params}

    def describe(self) -> str:
        inner = ",".join(f"{k}={v}" for k, v in self.params.items())
        return f"{self.kind}({inner})"


def _affine_classes(kind: str, params: Mapping, p: int) -> tuple[int, ...]:
    """Omega(p) of an affine kind: the index classes mod p whose element p divides.

    This rule is the whole arithmetic of the kind: its density is
    omega(p) = |Omega(p)|, and |A_d| counts the indices lying in Omega(p)
    for every p | d.  A progression indexes n = l + k t, so p | n exactly
    when t = -l / k (mod p); a prime of k divides no element.
    """
    if kind == "interval":
        return (0,)
    if kind == "twin":
        return (0,) if p == 2 else (0, p - 2)
    if kind == "goldbach":
        r = params["N"] % p
        return (0, r) if r else (0,)
    k, l = params["k"], params["l"]
    return () if k % p == 0 else ((-l * pow(k, -1, p)) % p,)


def _affine_residues(kind: str, params: Mapping, z_max: int) -> ResidueSystem:
    classes = {p: _affine_classes(kind, params, p) for p in small_primes(z_max)}
    return ResidueSystem({p: res for p, res in classes.items() if res})


def _affine_problem(kind: str, params: dict, X: Fraction, kappa: float, lo: int, hi: int,
                    omega_interval: tuple[int, int] | None = None) -> SieveProblem:
    """An affine problem over the values at n in [lo, hi), sifted as the indices of ``omega_interval``.

    ``omega_interval`` (M, N) defaults to the index range [lo, hi) itself.
    """
    dens = SiftingDensity(lambda p: Fraction(len(_affine_classes(kind, params, p))), kappa)
    return SieveProblem(
        kind, params, X, dens, lo=lo, hi=hi,
        residues=_affine_residues(kind, params, _PROFILE_Z),
        omega_interval=(lo, hi - lo) if omega_interval is None else omega_interval,
    )


def build_problem(kind: str, params: Mapping, *, table: PrimeTable | None = None) -> SieveProblem:
    """Construct a sieve problem of the given kind.

    ``table`` is required for ``shifted_prime`` and ignored by every other
    kind.  Affine kinds also carry the equivalent interval + residue-system
    form (change of variables on the index).
    """
    params = dict(params)
    if kind == "interval":
        x, y = int(params["x"]), int(params["y"])
        if not 2 <= y <= x:
            raise ValueError("interval needs 2 <= y <= x")
        return _affine_problem(kind, {"x": x, "y": y}, Fraction(y), 1.0, x - y + 1, x + 1)
    if kind == "twin":
        x = int(params["x"])
        if x < 5:
            raise ValueError("twin needs x >= 5")
        return _affine_problem(kind, {"x": x}, Fraction(x), 2.0, 1, x - 2)
    if kind == "goldbach":
        N = int(params["N"])
        if N < 8 or N % 2:
            raise ValueError("goldbach needs even N >= 8")
        return _affine_problem(kind, {"N": N}, Fraction(N), 2.0, 3, N - 2)
    if kind == "shifted_prime":
        x = int(params["x"])
        if table is None or table.limit < x + 2:
            raise ValueError("shifted_prime needs a prime table reaching x + 2")
        ps = table.primes_below(x)
        vals = (ps[ps >= 3] + 2).astype(np.int64)
        dens = SiftingDensity(lambda p: Fraction(0) if p == 2 else Fraction(p, p - 1), 1.0)
        return SieveProblem(kind, {"x": x}, Fraction(li(x)), dens, explicit=vals)
    if kind == "progression":
        x, k, l = int(params["x"]), int(params["k"]), int(params["l"])
        if k < 1:
            raise ValueError("k must be >= 1")
        if k > 1 and math.gcd(k, l) != 1:
            raise ValueError(f"(k, l) = ({k}, {l}) not coprime")
        l = l % k if k > 1 else 0
        first = l or k  # the least n >= 1 in the class
        count = (x - 1 - first) // k + 1 if first < x else 0
        return _affine_problem(kind, {"x": x, "k": k, "l": l}, Fraction(x, k), 1.0, 1, x,
                               ((first - l) // k if count else 0, count))
    if kind == "parity":
        x, r = int(params["x"]), int(params["r"])
        if r not in (0, 1):
            raise ValueError("parity r must be 0 or 1")
        if x > ORACLE_ELEMENT_CAP:
            raise BudgetError(f"parity x={x} exceeds enumeration cap")
        return SieveProblem(kind, {"x": x, "r": r}, Fraction(x, 2), SiftingDensity.unit(1.0))
    if kind == "custom":
        vals = np.asarray(params["elements"], dtype=np.int64)
        dens = params.get("density") or SiftingDensity.unit(1.0)
        X = _as_fraction(params.get("X", len(vals)))
        return SieveProblem(kind, {"n_elements": len(vals)}, X, dens, explicit=vals)
    raise ValueError(f"unknown kind {kind!r}")


def problem_from_config(config: Mapping, *, table: PrimeTable | None = None) -> SieveProblem:
    cfg = dict(config)
    kind = cfg.pop("kind")
    return build_problem(kind, cfg, table=table)


@lru_cache(maxsize=2)
def factor_count_sieve(x: int) -> np.ndarray:
    """Number of prime divisors counted with multiplicity, for 0 <= n < x.

    Only the prime powers of p <= sqrt(x - 1) are struck; each strike also
    divides p out of a residual copy of n, so what remains above 1 is the
    one prime factor an n < x can have above the root.  The array is
    cached and returned read-only, shared by every caller at the same x.
    """
    out = np.zeros(x, dtype=np.uint8)
    if x > 2:
        residual = np.arange(x, dtype=np.int32 if x <= 2**31 else np.int64)
        for p in primes_up_to_simple(math.isqrt(x - 1) + 1).primes:
            p = int(p)
            pk = p
            while pk < x:
                out[pk::pk] += 1
                residual[pk::pk] //= p
                pk *= p
        out[residual > 1] += 1
    out.setflags(write=False)
    return out


def count_in_class(problem: SieveProblem, d: int) -> tuple[int, Fraction]:
    """(|A_d|, remainder): exact count and its deviation from (omega(d)/d) X."""
    d_primes = factor_squarefree(d).prime_factors
    count = problem.count_multiple(d, d_primes)
    main = problem.density.omega_d(d_primes) / d * problem.X
    return count, Fraction(count) - main


def density_numerators(density: SiftingDensity, primes) -> tuple[int, Callable[[tuple[int, ...]], int]]:
    """(L, n) with omega(d)/d = n(factors)/L, an int, for d over ``primes``; L = prod of p b_p, omega(p) = a_p/b_p."""
    ab = {p: (density.omega(p).numerator, p * density.omega(p).denominator) for p in primes}
    L = math.prod(pb for _, pb in ab.values())

    def n(factors) -> int:
        a = pb = 1
        for p in factors:
            a_p, pb_p = ab[p]
            a *= a_p
            pb *= pb_p
        return a * (L // pb)

    return L, n


def divisor_tally(problem: SieveProblem, primes, items, *, worst_case: bool = False) -> tuple[Fraction, Fraction]:
    """Exact (X * sum of mu omega(d)/d, sum of |R_d|) over divisor-walk items.

    ``items`` yields (d, factors, mu) with every factor in ``primes``;
    R_d = |A_d| - (omega(d)/d) X is the class remainder, and ``worst_case``
    tallies the density bound omega(d) in place of |R_d|.  With
    omega(d)/d = n_d/L (``density_numerators``) and X = x_num/x_den, every
    term is an integer over L x_den, so the sums run in Python ints and
    each result is one Fraction: the same rationals as a per-divisor
    Fraction sum, and so the same floats.  |A_d| is read off the default
    profile when every prime lies below 53.
    """
    L, n_of = density_numerators(problem.density, primes)
    x_num, x_den = problem.X.numerator, problem.X.denominator
    scale = L * x_den
    prof = None if worst_case or not all(p < _PROFILE_Z for p in primes) else problem.profile()
    main = rem = 0
    for d, factors, mu in items:
        n = n_of(factors)
        main += mu * n
        if worst_case:
            rem += n * d  # omega(d) = n_d d / L
        else:
            count = prof.count_multiple(factors) if prof else problem.count_multiple(d, factors)
            rem += abs(count * scale - n * x_num)
    return Fraction(main * x_num, scale), Fraction(rem, L if worst_case else scale)


def exact_sift(problem: SieveProblem, z: int) -> int:
    """Exact survivor count after sifting by every prime below z, the oracle count.

    Up to z = 53 it is read off the default window profile; above it an
    affine kind runs the block residue sieve, and an explicit kind scans
    its values once per prime below z.
    """
    if z < 2:
        raise ValueError("z must be >= 2")
    if in_profile_window(z):
        return problem.profile().sift_count(z)
    if problem._omega_interval is not None:
        return problem.omega_form(z).sift_count(z)
    vals = problem.values()
    keep = np.ones(len(vals), dtype=bool)
    for p in small_primes(z):
        keep &= vals % p != 0
    return int(np.count_nonzero(keep))


def divisor_walk(primes, *, max_nu: int):
    """Iterate (d, factors_descending, mu) over products of at most ``max_nu`` of ``primes``.

    Each factor tuple is a combination of the primes taken in descending
    order.  Raises BudgetError, before any divisor is made, when the sum of
    C(n, k) over k <= max_nu exceeds ``DIVISOR_CAP``.
    """
    ps = sorted(primes, reverse=True)
    sizes = range(min(max_nu, len(ps)) + 1)
    count = sum(math.comb(len(ps), k) for k in sizes)
    if count > DIVISOR_CAP:
        raise BudgetError(f"{count} divisors of at most {max_nu} primes exceed the enumeration cap")
    return ((math.prod(f), f, (-1) ** k) for k in sizes for f in combinations(ps, k))
