"""Sieve-problem data model: sequences, densities, residue systems, oracles.

A :class:`SieveProblem` packages a finite integer sequence ``A`` together
with its multiplicative density ``omega``, a scale ``X`` and the source of
its elements.  ``exact_sift`` is the exact oracle every bound in the
package is compared against.

Supported kinds, the affine ones with the linear factors (a, b) of their
element F(t) = prod (a t + b) over an index t:

* ``interval``       t in (x-y, x],                factors (1, 0),          X = y
* ``twin``           t(t+2) for 1 <= t < x-2,      factors (1, 0), (1, 2),  X = x
* ``goldbach``       t(N-t) for 3 <= t <= N-3,     factors (1, 0), (-1, N), X = N
* ``progression``    kt+l in [1, x), l mod k,      factors (k, l),          X = x/k
* ``shifted_prime``  p+2 for odd primes p < x,     omega(2)=0, omega(p)=p/(p-1), X = li(x)
* ``parity``         n < x, total prime divisors = r,  omega = 1, X = x/2
* ``custom``         explicit elements + density

Each affine kind is written once, in ``build_problem``, as an index
interval [M, M+N), X and its factors, and all else follows from them:
Omega(p), the index classes t mod p with p | F(t), is the roots -b/a mod
p of the factors with p not | a (``_Roots``), omega(p) = |Omega(p)| (in
bulk, ``_root_counts``) and ``values()`` is F.

Every count is over one divisibility pattern of the elements, marked in
blocks by the kernel of the problem's one source.  An affine kind holds
an ``OmegaForm``, whose kernel ORs a periodic table into a block for
each run of primes dense enough to pay for one (``_lut_runs``: period at
most the positions marked, strike density sum |Omega(p)|/p at least
``_LUT_DENSITY``) and strikes strided slices for the rest; |A_d| is a
CRT count.  Parity holds ``_Kept``: the positions of the interval [1, x)
a mask of Omega(n) mod 2 selects, marked by the same strided kernel
(factor (1, 0)).  shifted_prime and custom hold ``_Values``, an int64
value array with a lookup table per run.  ``_Source`` writes histograms,
sifted counts and survivor masks once.

Many |A_d| at once come from one divisibility profile (``_Profile``,
``SieveProblem.profile``): the superset sums of the pattern over a set of
primes, the window below 53 for any set inside it.  Every engine counts
through ``SieveProblem.reader(primes, uses)``, which alone decides between
the profile and the source: the window or a cached profile always, a new
one once ``uses`` counts pay for building it (``profile_threshold``), and
the source otherwise.  Both answer ``count_multiple`` and ``sift_count``,
and ``count_masks`` for a block of divisors.

A walk over squarefree divisors d | P(z) is one generator,
``squarefree_masks``: each d is a bit mask over the walk's ascending
primes (int64 up to 63 of them), made a block at a time, truncated at a
number of primes (Brun) or pruned by the Rosser level rule.
``divisor_tally`` and the Rosser identities read a block as arrays: |A_d|
in one gather off a profile, and omega(d)/d from per-byte product tables
(``DivisorTerms``).
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, chain
from typing import Callable, Mapping

import numpy as np

from .arith import BudgetError, PrimeTable, factor_squarefree, li, primes_up_to, small_primes

KINDS = ("interval", "twin", "goldbach", "shifted_prime", "progression", "parity", "custom")

# Most elements (for parity, positions of [1, x)) one oracle count may visit.  The
# affine kinds stream their index range in blocks, so there it bounds work, not
# memory; parity holds an x-byte mask, shifted_prime and custom an int64 value array.
ORACLE_ELEMENT_CAP = 2 * 10**7
DIVISOR_CAP = 1 << 25  # most squarefree divisors one walk, or entries one profile, may hold
_PROFILE_Z = 53  # oracle profiles cover sifting primes below this bound
# Fewest element positions per block of a source's marking kernel, and about the most divisors a walk holds.
_BLOCK = 1 << 18
_LUT_MODULUS = 1 << 18  # largest prime product one residue lookup table of a marking kernel spans
# Least strike density sum |Omega(p)|/p of a run a strided kernel tabulates.  On a shared
# 2-core x86 VM, ORing a table into a 2^18 block took 15-20 us (uint8) and 20-25 us (uint16),
# about what striking the run's classes took at density 0.03 and 0.045.
_LUT_DENSITY = 0.05
# Costs behind ``SieveProblem.profile_threshold``, in ns, measured on a shared 2-core x86 VM:
_NS_ELEMENT = 5  # one element in one pass of a profile build, or in a values % d scan
_NS_ENTRY_BIT = 1  # one profile entry in one prime's step of the superset sum
_NS_CRT = 4000  # one affine |A_d| by CRT, less the cost of reading it off a profile
_NS_STRIDED = 1000  # one parity |A_d| by a strided count of its mask, besides the positions it scans


def _as_fraction(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


class SiftingDensity:
    """Multiplicative density: omega(p) removed residue classes per prime p.

    omega extends multiplicatively to squarefree d; values are exact
    rationals.  ``counts``, when given, is the same rule in bulk for a
    density with integer omega: omega(p) over an int64 array of primes.
    """

    def __init__(self, rule: Callable[[int], Fraction], counts: Callable[[np.ndarray], np.ndarray] | None = None):
        self._rule = rule
        self._counts = counts
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

    def fractions(self, ps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(a, b) with omega(p)/p = a_p/b_p for each prime of the int64 array ``ps``.

        A bulk rule gives int64 arrays with b = ps, each value checked
        0 <= omega(p) < p as ``omega`` checks it and none memoised.  Without
        one, a_p is the numerator of omega(p) and b_p is p times its
        denominator, in object arrays of Python ints, so no b_p can overflow.
        """
        if self._counts is not None:
            w = self._counts(ps)
            bad = np.flatnonzero((w < 0) | (w >= ps))
            if len(bad):
                i = bad[0]
                raise ValueError(f"omega({ps[i]}) = {w[i]} violates 0 <= omega(p) < p")
            return w, ps
        memo = self._memo  # hits are read directly: a call to omega per prime would be most of the cost
        pairs = ((memo[p] if p in memo else self.omega(p)).as_integer_ratio() for p in ps.tolist())
        flat = np.fromiter(chain.from_iterable(pairs), dtype=object, count=2 * len(ps))
        return flat[0::2], flat[1::2] * ps.astype(object)  # a_p, and b_p = p times the denominator of omega(p)

    def omega_d(self, d_primes) -> Fraction:
        out = Fraction(1)
        for p in d_primes:
            out *= self.omega(p)
        return out

    @staticmethod
    def unit() -> "SiftingDensity":
        return SiftingDensity(lambda p: Fraction(1), np.ones_like)

    @staticmethod
    def zero() -> "SiftingDensity":
        return SiftingDensity(lambda p: Fraction(0), np.zeros_like)


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


def _lut_runs(marks, dtype, classes: Callable[[int], tuple[int, ...]], positions: int | None = None):
    """(tables, rest): a (run, lut) per tabulated greedy run of ``marks``, and the (p, bit, classes(p)) of no table.

    A greedy run takes primes in order while their product m stays <= ``_LUT_MODULUS``;
    lut[s], s < m, holds the bits of the run's p with s mod p in ``classes(p)``.  A lone
    prime gets no table.  Nor, for a strided kernel over ``positions`` positions, does a
    run whose table would not pay: m past ``positions``, or a strike density
    sum |classes(p)|/p below ``_LUT_DENSITY``; that is decided before any table is
    built.  A lookup kernel (``positions`` None) tabulates every run.
    """
    tables, rest, i = [], [], 0
    while i < len(marks):
        j, m = i + 1, marks[i][0]
        while j < len(marks) and m * marks[j][0] <= _LUT_MODULUS:
            m *= marks[j][0]
            j += 1
        if j == i + 1:
            p, bit = marks[i]
            rest.append((p, bit, classes(p)))
            i = j
            continue
        run, i = [(p, bit, classes(p)) for p, bit in marks[i:j]], j
        if positions is not None and (m > positions or sum(len(res) / p for p, _, res in run) < _LUT_DENSITY):
            rest += run
            continue
        lut = np.zeros(m, dtype=dtype)
        for p, bit, res in run:
            for r in res:
                lut[r::p] |= bit
        tables.append((run, lut))
    return tables, rest


def _add_periodic(values: np.ndarray, period: np.ndarray, M: int, op=np.add) -> None:
    """values[i] = op(values[i], period[(M + i) mod q]) in place, q = len(period): a head, whole periods, a tail.

    ``op`` is a binary ufunc: ``np.add`` for sums, ``np.bitwise_or`` for a marking kernel's bits.
    """
    q, N = len(period), len(values)
    s = M % q
    head = min(q - s, N)
    k = (N - head) // q
    whole = values[head:head + k * q].reshape(k, q)
    for dst, src in ((values[:head], period[s:s + head]), (whole, period),
                     (values[head + k * q:], period[:N - head - k * q])):
        op(dst, src, out=dst)


class _Source:
    """A problem's elements: ``N``, ``values()``, ``count_multiple`` and one marking kernel.

    ``_marker(marks, dtype)`` returns a function of a block [lo, hi) of
    element positions that gives a ``dtype`` buffer ORing ``bit`` at every
    element p divides, for each (p, bit) of ``marks``; ``_Kept`` instead
    takes its form's blocks and discards the positions that are no element.
    """

    def _marked_blocks(self, marks, nbits: int):
        """Yield the kernel's buffer per block of ``_BLOCK`` positions, or of 2^nbits when that is more.

        ``nbits`` bounds the bits in use and so the dtype; the longer block
        keeps a histogram's bincount at most one pass per element.  Raises
        BudgetError before any work when N exceeds ``ORACLE_ELEMENT_CAP``.
        """
        if self.N > ORACLE_ELEMENT_CAP:
            raise BudgetError(f"{self.N} elements exceed the oracle cap {ORACLE_ELEMENT_CAP}")
        dtype = np.min_scalar_type((1 << nbits) - 1)
        mark = self._marker(marks, dtype)
        step = max(_BLOCK, 1 << nbits)
        for lo in range(0, self.N, step):
            yield mark(lo, min(lo + step, self.N))

    def _sifted_blocks(self, z: int):
        """Block buffers, nonzero at the elements divisible by some prime p < z."""
        return self._marked_blocks([(p, 1) for p in small_primes(z)], 1)

    def survivor_mask(self, z: int) -> np.ndarray:
        return np.concatenate([np.ones(0, dtype=bool), *(buf == 0 for buf in self._sifted_blocks(z))])

    def sift_count(self, z: int) -> int:
        """The elements divisible by no prime p < z."""
        return sum(len(buf) - int(np.count_nonzero(buf)) for buf in self._sifted_blocks(z))

    def histogram(self, primes: tuple[int, ...]) -> np.ndarray:
        """Counts of elements by the set of ``primes`` dividing them (bit i for primes[i])."""
        hist = None  # the first block's counts, so that one block holds one table
        for buf in self._marked_blocks([(p, 1 << i) for i, p in enumerate(primes)], len(primes)):
            counts = np.bincount(buf, minlength=1 << len(primes))[: 1 << len(primes)]  # less a discarded bin (``_Kept``)
            hist = counts if hist is None else np.add(hist, counts, out=hist)
        return np.zeros(1 << len(primes), dtype=np.int64) if hist is None else hist

    def count_masks(self, primes, masks: np.ndarray) -> np.ndarray:
        """|A_d| for each mask over ``primes`` (bit i for primes[i]), each counted alone by ``count_multiple``."""
        return np.array([self.count_multiple(_mask_primes(primes, m)) for m in masks.tolist()], dtype=np.int64)


@dataclass(frozen=True)
class OmegaForm(_Source):
    """Interval [M, M+N) sifted by forbidden residue classes.

    p divides the element at index n when n lies in Omega(p).  The kernel ORs
    the table of each run ``_lut_runs`` tabulates (period m, at most N, and
    strike density at least ``_LUT_DENSITY``) into a block at offset
    (M + lo) mod m, and strikes each class r of the other primes as
    ``buf[(r - start) % p :: p]``, forming no value, so indices pass 2^63.
    An affine kind's form holds the linear factors (a, b) of its element:
    ``values()`` is prod (a t + b) over the int64 indices t, and Omega(p)
    is their roots mod p (``_Roots``).  A bare form has no factors, and its
    values are the indices.  Parity's ``_Kept`` marks its interval [1, x)
    (factor (1, 0)) with this kernel.
    """

    M: int
    N: int
    residues: ResidueSystem
    factors: tuple[tuple[int, int], ...] = ()

    def _marker(self, marks, dtype):
        def classes(p):
            return self.residues.classes.get(p, ())

        tables, struck = _lut_runs(marks, dtype, classes, self.N)

        def mark(lo: int, hi: int) -> np.ndarray:
            buf = np.zeros(hi - lo, dtype=dtype)
            start = self.M + lo
            for _, lut in tables:
                _add_periodic(buf, lut, start, np.bitwise_or)
            for p, bit, res in struck:
                for r in res:
                    buf[(r - start) % p :: p] |= bit
            return buf

        return mark

    def values(self) -> np.ndarray:
        if self.N > ORACLE_ELEMENT_CAP:
            raise BudgetError(f"{self.N} elements exceed enumeration cap")
        # |a t + b| peaks at an end of the indices; int64 products wrap, so bound the true values first
        factors, ends = self.factors or ((1, 0),), (self.M, self.M + self.N - 1)
        peaks = [max(abs(a * t + b) for t in ends) for a, b in factors]
        if max(*map(abs, ends), *map(abs, chain(*factors)), *peaks, math.prod(peaks)) >= 2**63:
            raise ValueError(f"values over the indices [{self.M}, {self.M + self.N}) pass int64")
        t = np.arange(self.M, self.M + self.N, dtype=np.int64)
        return math.prod(a * t + b for a, b in factors)

    def density(self) -> SiftingDensity:
        """omega(p) = |Omega(p)|, with bulk counts (``_root_counts``) when the form has factors."""
        rs, factors = self.residues, self.factors
        bulk = (lambda ps: _root_counts(factors, ps)) if factors else None
        return SiftingDensity(lambda p: Fraction(rs.size(p)), bulk)

    def count_multiple(self, d_primes) -> int:
        """#{n in [M, M+N) : n in Omega(p) for every p | d}, by CRT."""
        m = math.prod(d_primes)
        hi, lo = self.M + self.N - 1, self.M - 1
        return sum((hi - r) // m - (lo - r) // m for r in self.residues.roots_mod(d_primes))

    def _tally_costs(self, k: int) -> tuple[int, int]:
        """(ns to mark a profile over k primes, ns per |A_d| alone): one block-sieve pass, one CRT count."""
        return _NS_ELEMENT * self.N, _NS_CRT


class _Kept(_Source):
    """The positions of an interval form [M, M+N) that ``make_drop()``'s mask leaves, as elements.

    Parity is the interval [1, x) less the n with Omega(n) != r mod 2.  The
    form's strided kernel marks every position, and a dropped one also
    carries the discard bit 2^nbits, above every pattern of the marks' bits:
    a sift counts it as struck, and a histogram over k primes keeps the low
    2^k bins of its bincount, with no boolean compress.  |A_d| is one
    strided count of the mask, and ``values()`` is formed only when asked.
    """

    def __init__(self, form: OmegaForm, make_drop: Callable[[], np.ndarray]):
        self.form = form
        self._make = make_drop
        self._drop: np.ndarray | None = None

    @property
    def drop(self) -> np.ndarray:
        """The bool mask of the form's positions that are not elements, made on first use and kept."""
        if self._drop is None:
            self._drop = self._make()
        return self._drop

    @property
    def N(self) -> int:
        return self.form.N - int(np.count_nonzero(self.drop))

    def values(self) -> np.ndarray:
        return np.flatnonzero(~self.drop) + self.form.M

    def _marked_blocks(self, marks, nbits: int):
        # ORed, the bit keeps each dropped position's pattern, which spreads them over the bincount (a
        # window at x = 10^6 took 4.1 ms, against 5.1 ms with all of them in one bin); once 2^(nbits+1)
        # bins pass a block's positions, the max sets each to 2^nbits, one bin more instead of twice as many
        op = np.bitwise_or if 2 << nbits <= _BLOCK else np.maximum
        lo, drop = 0, self.drop.view(np.uint8)
        for buf in self.form._marked_blocks(marks, nbits + 1):
            op(buf, np.left_shift(drop[lo:lo + len(buf)], nbits, dtype=buf.dtype), out=buf)
            lo += len(buf)
            yield buf

    def survivor_mask(self, z: int) -> np.ndarray:
        return super().survivor_mask(z)[~self.drop]

    def count_multiple(self, d_primes) -> int:
        """#{a in A : d | a}: the kept positions of one class mod d, by one strided count of the mask."""
        d, n = math.prod(d_primes), self.form.N
        start = -self.form.M % d
        if start >= n:
            return 0
        held = self.drop[start::min(d, n)]
        return len(held) - int(np.count_nonzero(held))

    def _tally_costs(self, k: int) -> tuple[int, int]:
        """(ns to mark a profile over k primes, ns per |A_d| alone): one block-sieve pass, one strided count.

        The divisors of a walk over the primes below 60 to 1000 scan about
        1/2048 of the positions each, on average.
        """
        return _NS_ELEMENT * self.form.N, _NS_STRIDED + _NS_ELEMENT * self.form.N // 2048


class _Values(_Source):
    """Explicit element values (shifted_prime, custom) as an int64 array.

    The kernel marks each greedy run of primes (``_lut_runs``, e.g.
    2*3*5*7*11*13 = 30030), of product m, by one ``values % m`` and one
    lookup in its table per block: p | v exactly when p | (v mod m), and
    NumPy's ``%`` by m > 0 is non-negative for every int64.  A prime too
    large to share a run is tested alone, in a sift (one bit) only on the
    values still unmarked.
    """

    def __init__(self, values: np.ndarray):
        self._values, self.N = values, len(values)

    def values(self) -> np.ndarray:
        return self._values

    def _marker(self, marks, dtype):
        values = self.values()
        tables, lone = _lut_runs(marks, dtype, lambda p: (0,))
        sift = len({bit for _, bit in marks}) == 1  # one bit for every mark: a survivor count or mask

        def mark(lo: int, hi: int) -> np.ndarray:
            v = values[lo:hi]
            buf = np.zeros(hi - lo, dtype=dtype)
            for _, lut in tables:
                buf |= lut[v % len(lut)]
            if lone:  # a marked position stays marked, so in a sift each prime tests the unmarked ones only
                idx = np.flatnonzero(buf == 0) if sift else np.arange(len(v))
                rest = v[idx]
                for p, bit, _ in lone:
                    hit = rest % p == 0
                    buf[idx[hit]] |= bit
                    if sift:
                        idx, rest = idx[~hit], rest[~hit]
            return buf

        return mark

    def count_multiple(self, d_primes) -> int:
        """#{a in A : d | a}, by one ``values % d`` pass."""
        d, vals = math.prod(d_primes), self.values()
        if d > 2**63:  # above every int64 |value|, so only 0 is a multiple
            return int(np.count_nonzero(vals == 0))
        return int(np.count_nonzero(vals % d == 0))

    def _tally_costs(self, k: int) -> tuple[int, int]:
        """(ns to mark a profile over k primes, ns per |A_d| alone): at most a pass per prime, one pass."""
        return _NS_ELEMENT * self.N * k, _NS_ELEMENT * self.N


class _Profile:
    """Divisibility bit-profile of a problem's elements over a prime window.

    ``hist[mask]`` counts elements whose value is divisible by exactly the
    primes flagged in ``mask``.  Only its superset sums are kept:
    ``_superset[mask]`` counts the elements divisible by every prime of
    ``mask``, which answers every |A_d| / |S(A_d, w)| query exactly without
    touching the elements again.  The primes are in ascending order, bit i
    for primes[i].  Every entry is a count of elements, so the tables are
    int32 when there are fewer than 2^31 elements, as below the oracle cap.
    """

    def __init__(self, primes: tuple[int, ...], hist: np.ndarray):
        self.primes = primes
        self.index = {p: i for i, p in enumerate(primes)}
        self._superset = self._superset_sum(hist.astype(np.int32 if hist.sum() < 2**31 else np.int64))
        self._sifted: dict[int, np.ndarray] = {0: self._superset}  # sifted by no prime: the superset table itself
        self._maps: dict[tuple[int, ...], list[np.ndarray]] = {}  # ``_own``'s byte tables, by walk primes

    @staticmethod
    def _superset_sum(f: np.ndarray) -> np.ndarray:
        """Fold ``f`` into its superset sums, in place."""
        for i in range(len(f).bit_length() - 1):
            # axis 1 is bit i of the mask; fold the set half into the clear half
            v = f.reshape(-1, 2, 1 << i)
            v[:, 0, :] += v[:, 1, :]
        return f

    def bits_of(self, d_primes) -> int:
        bits = 0
        for p in d_primes:
            bits |= 1 << self.index[p]
        return bits

    def _own(self, primes, masks: np.ndarray) -> np.ndarray:
        """Masks over ``primes`` (bit i for primes[i], each a prime of this profile) as masks over its own primes."""
        primes = tuple(primes)
        if primes == self.primes:
            return masks
        tables = self._maps.get(primes)
        if tables is None:
            bits = [1 << self.index[p] for p in primes]
            tables = self._maps[primes] = [t.astype(np.int64) for t in _byte_tables(bits, np.bitwise_or, 0)]
        return _read_bytes(tables, masks, np.bitwise_or)

    def count_multiple(self, d_primes) -> int:
        return int(self._superset[self.bits_of(d_primes)])

    def count_masks(self, primes, masks: np.ndarray) -> np.ndarray:
        """|A_d| for each mask over ``primes``: one gather on the superset table."""
        return self._superset[self._own(primes, masks)]

    def sift_count(self, w: int, d_primes=()) -> int:
        """#{a in A : d | a, a has no prime factor below w (within the window)}."""
        return int(self.sift_masks(w, self.primes, np.array([self.bits_of(d_primes)]))[0])

    def sift_masks(self, w: int, primes, masks: np.ndarray) -> np.ndarray:
        """``sift_count(w, d)`` for each mask over ``primes``: one gather on the table kept for w, 0 where p(d) < w.

        The k primes below w are the low k bits of a mask.  The table kept
        for k has 2^(n-k) entries: at mask j of the high bits, the elements
        free of the k low primes and divisible by those of j.  It answers
        every d.  It is folded from the kept table of the largest i < k (the
        superset table is i = 0): reshaped to 2^(k-i) columns for bits i to
        k - 1, each row's inclusion-exclusion over its columns, one bit at a
        time, leaves the elements free of those primes too.
        """
        k = bisect_left(self.primes, w)
        table = self._sifted.get(k)
        if table is None:
            i = max(j for j in self._sifted if j < k)
            f = self._sifted[i].reshape(-1, 1 << (k - i))
            for _ in range(k - i):
                v = f.reshape(len(f), 2, -1)
                f = v[:, 0, :] - v[:, 1, :]
            table = self._sifted[k] = f.ravel()
        own = self._own(primes, masks)
        return np.where(own & ((1 << k) - 1), 0, table[own >> k])


class SieveProblem:
    """A finite sequence with density bookkeeping and exact counting.

    ``source`` holds the elements (``OmegaForm``, ``_Kept`` or ``_Values``); every count
    is asked of it or of a profile built from it, whichever it is.
    """

    def __init__(self, kind: str, params: dict, X: Fraction, density: SiftingDensity, source: _Source):
        if kind not in KINDS:
            raise ValueError(f"unknown kind {kind!r}")
        self.kind = kind
        self.params = dict(params)
        self.X = _as_fraction(X)
        self.density = density
        self.source = source
        self._profiles: dict[tuple[int, ...], _Profile] = {}
        self._terms: dict[tuple[int, ...], DivisorTerms] = {}
        self._inert: set[int] = set()  # primes with omega(p) = 0 checked to divide no element

    @property
    def size(self) -> int:
        return self.source.N

    def values(self) -> np.ndarray:
        """The element values of A as an int64 array."""
        return self.source.values()

    def profile(self, primes=None) -> _Profile:
        """The divisibility profile over ``primes``, cached: the window below 53 when they all lie in it.

        Any other set gets a profile over exactly its primes.  Raises
        BudgetError, before any allocation, when its 2^len(primes) entries
        would exceed ``DIVISOR_CAP``.
        """
        primes = _profile_primes(primes or ())
        if (1 << len(primes)) > DIVISOR_CAP:
            raise BudgetError(f"2^{len(primes)} profile entries exceed the enumeration cap")
        prof = self._profiles.get(primes)
        if prof is None:
            prof = self._profiles[primes] = _Profile(primes, self.source.histogram(primes))
        return prof

    def divisor_terms(self, primes) -> DivisorTerms:
        """The density's ``DivisorTerms`` over the ascending ``primes``, cached."""
        primes = tuple(primes)
        terms = self._terms.get(primes)
        if terms is None:
            terms = self._terms[primes] = DivisorTerms(self.density, primes)
        return terms

    def reader(self, primes, uses: int | None = None) -> _Profile | _Source:
        """What answers |A_d| (``count_multiple(d_primes)``) and sifted counts (``sift_count(w)``) over ``primes``.

        ``profile(primes)`` when ``uses`` is None, or when ``uses`` counts
        reach ``profile_threshold(primes)``: so the window below 53 and a
        cached profile always, and a new one once it pays.  Otherwise the
        source, which counts each query alone.
        """
        if uses is not None:
            at = self.profile_threshold(primes)
            if at is None or at > uses:
                return self.source
        return self.profile(primes)

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

    def profile_threshold(self, primes) -> int | None:
        """Fewest counts over ``primes`` at which ``reader`` answers them off ``profile(primes)``.

        0 when that profile is the window (the bound's exact count builds it
        anyway) or is cached; None, for never, past ``DIVISOR_CAP`` entries.
        Otherwise building it (the source's marking pass and a superset sum
        over k 2^k entry bits) costs less than counting each |A_d| alone
        (``_tally_costs``).
        """
        primes = _profile_primes(primes)
        k = len(primes)
        if (1 << k) > DIVISOR_CAP:
            return None
        if primes[-1] < _PROFILE_Z or primes in self._profiles:
            return 0
        mark, alone = self.source._tally_costs(k)
        return -(-(mark + _NS_ENTRY_BIT * k * (1 << k)) // max(alone, 1))

    def count_multiple(self, d: int, d_primes=None) -> int:
        """|A_d|: elements whose value is divisible by squarefree d, with primes ``d_primes``.

        Without them d is factored here, and a d that is not squarefree raises ValueError.
        """
        if d_primes is None:
            d_primes = factor_squarefree(d)
        return self.source.count_multiple(d_primes)

    def omega_form(self) -> OmegaForm:
        """The affine kind's index interval and class rule, valid at every z."""
        if not isinstance(self.source, OmegaForm):
            raise ValueError(f"kind {self.kind!r} has no residue-class form")
        return self.source

    def to_config(self) -> dict:
        return {"kind": self.kind, **self.params}

    def describe(self) -> str:
        inner = ",".join(f"{k}={v}" for k, v in self.params.items())
        return f"{self.kind}({inner})"


def _profile_primes(primes) -> tuple[int, ...]:
    """The primes of the profile over ``primes``: the window below 53 when they all lie in it, else them, ascending."""
    primes = tuple(sorted(primes))
    return small_primes(_PROFILE_Z) if all(p < _PROFILE_Z for p in primes) else primes


class _Roots(dict):
    """Omega(p) by prime p, made on first lookup and kept: the distinct roots -b/a mod p of factors with p not | a."""

    def __init__(self, factors):
        super().__init__()
        self._factors = factors

    def __missing__(self, p: int) -> tuple[int, ...]:
        res = self[p] = tuple(sorted({-b * pow(a, -1, p) % p for a, b in self._factors if a % p}))
        return res

    def get(self, p: int, default=()) -> tuple[int, ...]:
        return self[p]


def _root_counts(factors, ps: np.ndarray) -> np.ndarray:
    """|Omega(p)| for each prime of the int64 array ``ps``, as ``_Roots`` counts them.

    Each factor (a, b) with p not | a has one root, new unless it meets the
    root of an earlier factor (a', b') with p not | a', that is p | a' b - a b'.
    An n past int64 is reduced mod each prime in Python ints.
    """
    def divides(n: int) -> np.ndarray:
        n = abs(n)
        return (n % ps if n < 2**63 else np.array([n % p for p in ps.tolist()], dtype=np.int64)) == 0

    out = np.zeros_like(ps)
    for j, (a, b) in enumerate(factors):
        new = ~divides(a)
        for a0, b0 in factors[:j]:
            new &= divides(a0) | ~divides(a0 * b - a * b0)
        out += new
    return out


def _affine_form(M: int, N: int, factors) -> OmegaForm:
    """The form over the indices [M, M+N) whose element is prod (a t + b) over ``factors``."""
    return OmegaForm(M, N, ResidueSystem(_Roots(factors)), factors)


def _affine_problem(kind: str, params: dict, X: Fraction, M: int, N: int, factors) -> SieveProblem:
    """An affine problem: its form's indices [M, M+N) and factors, its density the form's."""
    form = _affine_form(M, N, factors)
    return SieveProblem(kind, params, X, form.density(), form)


def build_problem(kind: str, params: Mapping, *, table: PrimeTable | None = None) -> SieveProblem:
    """Construct a sieve problem of the given kind.

    ``table``, primes reaching x + 2, serves ``shifted_prime``, which sieves
    one when none is given; other kinds ignore it.  This is the one function
    that branches on a kind: each affine kind is written here once, as its
    index interval [M, M+N), X and the linear factors (a, b) of its element.
    """
    params = dict(params)
    if kind == "interval":
        x, y = int(params["x"]), int(params["y"])
        if not 2 <= y <= x:
            raise ValueError("interval needs 2 <= y <= x")
        return _affine_problem(kind, {"x": x, "y": y}, Fraction(y), x - y + 1, y, ((1, 0),))
    if kind == "twin":
        x = int(params["x"])
        if x < 5:
            raise ValueError("twin needs x >= 5")
        return _affine_problem(kind, {"x": x}, Fraction(x), 1, x - 3, ((1, 0), (1, 2)))
    if kind == "goldbach":
        N = int(params["N"])
        if N < 8 or N % 2:
            raise ValueError("goldbach needs even N >= 8")
        return _affine_problem(kind, {"N": N}, Fraction(N), 3, N - 5, ((1, 0), (-1, N)))
    if kind == "shifted_prime":
        x = int(params["x"])
        table = table or primes_up_to(x + 2)
        if table.limit < x + 2:
            raise ValueError("shifted_prime needs a prime table reaching x + 2")
        ps = table.primes_below(x)
        vals = ps[1:] + 2  # ps[0] == 2 whenever ps is not empty
        dens = SiftingDensity(lambda p: Fraction(0) if p == 2 else Fraction(p, p - 1))
        return SieveProblem(kind, {"x": x}, Fraction(li(x)), dens, _Values(vals))
    if kind == "progression":
        x, k, l = int(params["x"]), int(params["k"]), int(params["l"])
        if k < 1:
            raise ValueError("k must be >= 1")
        if k > 1 and math.gcd(k, l) != 1:
            raise ValueError(f"(k, l) = ({k}, {l}) not coprime")
        l = l % k if k > 1 else 0
        first = l or k  # the least n >= 1 in the class
        count = (x - 1 - first) // k + 1 if first < x else 0
        return _affine_problem(kind, {"x": x, "k": k, "l": l}, Fraction(x, k),
                               (first - l) // k if count else 0, count, ((k, l),))
    if kind == "parity":
        x, r = int(params["x"]), int(params["r"])
        if r not in (0, 1):
            raise ValueError("parity r must be 0 or 1")
        if x > ORACLE_ELEMENT_CAP:
            raise BudgetError(f"parity x={x} exceeds enumeration cap")

        def drop() -> np.ndarray:  # the n in [1, x) whose prime divisors, counted with multiplicity, are not r mod 2
            odd = factor_count_sieve(x)[1:] & 1
            odd ^= r
            return odd.view(bool)

        source = _Kept(_affine_form(1, max(x - 1, 0), ((1, 0),)), drop)
        return SieveProblem(kind, {"x": x, "r": r}, Fraction(x, 2), SiftingDensity.unit(), source)
    if kind == "custom":
        vals = np.asarray(params["elements"], dtype=np.int64)
        dens = params.get("density") or SiftingDensity.unit()
        X = _as_fraction(params.get("X", len(vals)))
        return SieveProblem(kind, {"n_elements": len(vals)}, X, dens, _Values(vals))
    raise ValueError(f"unknown kind {kind!r}")


def problem_from_config(config: Mapping, *, table: PrimeTable | None = None) -> SieveProblem:
    cfg = dict(config)
    kind = cfg.pop("kind")
    return build_problem(kind, cfg, table=table)


@lru_cache(maxsize=2)
def factor_count_sieve(x: int) -> np.ndarray:
    """Number of prime divisors counted with multiplicity, for 0 <= n < x.

    Each prime power of p <= sqrt(x - 1) is struck as a strided slice.  An
    n < x has at most one prime factor q above the root, to the first power,
    so each prime q in (sqrt(x - 1), x) adds 1 at q m for m <= (x - 1) // q:
    one scatter per cofactor m, over the primes q <= (x - 1) // m.  The
    primes are sieved before the table is allocated, so the sieve's working
    memory and the table never peak together.  The array is cached and
    returned read-only, shared by every caller at the same x.
    """
    root = math.isqrt(max(x - 1, 0))
    primes = primes_up_to(x).primes
    large = primes[np.searchsorted(primes, root, side="right"):]
    out = np.zeros(x, dtype=np.uint8)
    for p in small_primes(root + 1):
        pk = p
        while pk < x:
            out[pk::pk] += 1
            pk *= p
    for m in range(1, (x - 1) // (root + 1) + 1):
        out[large[: np.searchsorted(large, (x - 1) // m, side="right")] * m] += 1
    out.setflags(write=False)
    return out


def count_in_class(problem: SieveProblem, d: int) -> tuple[int, Fraction]:
    """(|A_d|, remainder): exact count and its deviation from (omega(d)/d) X."""
    d_primes = factor_squarefree(d)
    count = problem.count_multiple(d, d_primes)
    main = problem.density.omega_d(d_primes) / d * problem.X
    return count, Fraction(count) - main


def _byte_tables(items, op=np.multiply, unit=1) -> list[np.ndarray]:
    """Per byte j of a mask over len(items) bits, the table of ``op`` over items[8j + i] at its set bits i.

    Entries are Python ints (object arrays), each table 2^(bits in byte j) long.
    """
    tables = []
    for j in range(0, max(len(items), 1), 8):
        t = np.array([unit], dtype=object)
        for v in items[j:j + 8]:
            t = np.concatenate([t, op(t, v)])
        tables.append(t)
    return tables


def _read_bytes(tables, masks: np.ndarray, op=np.multiply) -> np.ndarray:
    """``op`` over each mask's entries in ``tables`` (``_byte_tables``), one gather per byte."""
    out = tables[0][np.asarray(masks & 255, dtype=np.intp)]
    for j, t in enumerate(tables[1:], 1):
        op(out, t[np.asarray(masks >> 8 * j & 255, dtype=np.intp)], out=out)
    return out


def _mask_primes(primes, m: int) -> list[int]:
    """The primes[i] at the set bits i of ``m``."""
    out = []
    while m:
        out.append(primes[(m & -m).bit_length() - 1])
        m &= m - 1
    return out


def _popcount(masks: np.ndarray) -> np.ndarray:
    """nu(d), the primes of each mask: ``np.bitwise_count`` on int64 masks, ``int.bit_count`` on wider ones."""
    if masks.dtype != object:
        return np.bitwise_count(masks).astype(np.int64)
    return np.array([m.bit_count() for m in masks.tolist()], dtype=np.int64)


def mask_mobius(masks: np.ndarray) -> np.ndarray:
    """mu(d) = (-1)^nu(d) for each mask, as int64."""
    return 1 - 2 * (_popcount(masks) & 1)


class DivisorTerms:
    """omega(d)/d = a(d)/b(d) = n_d/L for the divisors d over ascending ``primes``, read off their masks.

    With omega(p)/p = a_p/b_p (``SiftingDensity.fractions``), a(d) and b(d)
    are the products of a_p and b_p over the primes of d, one table lookup
    per mask byte (``_byte_tables``), L is the product of every b_p, and
    n_d = a(d) L / b(d) is an integer.
    """

    def __init__(self, density: SiftingDensity, primes):
        a, b = (f.tolist() for f in density.fractions(np.array(primes, dtype=np.int64)))
        self.primes = list(primes)
        self.L = math.prod(b)
        self._tables = [_byte_tables(f) for f in (a, b)]
        # int64 copies; an entry past int64 is read only by a product that ``ab`` keeps in Python ints
        self._int64 = [[np.where(t < 2**63, t, 0).astype(np.int64) for t in ts] for ts in self._tables]
        # at nu, the product of the nu largest factors, each counted as at least 1: no product of nu of them is larger
        self._top = [list(accumulate(sorted((max(v, 1) for v in f), reverse=True), lambda x, y: x * y, initial=1))
                     for f in (a, b)]

    def ab(self, masks: np.ndarray, a_scale: int = 1, b_scale: int = 1) -> tuple[np.ndarray, np.ndarray]:
        """(a(d), b(d)) for each mask: int64 when a(d) |a_scale| + b(d) |b_scale| < 2^63 for any d of as many primes.

        Otherwise arrays of Python ints.  A scale of 0 counts as 1.
        """
        nu = int(_popcount(masks).max(initial=0))
        fits = self._top[0][nu] * max(abs(a_scale), 1) + self._top[1][nu] * max(abs(b_scale), 1) < 2**63
        tables = self._int64 if fits else self._tables
        return _read_bytes(tables[0], masks), _read_bytes(tables[1], masks)

    def numerators(self, masks: np.ndarray) -> np.ndarray:
        """n_d = a(d) L / b(d) for each mask, as Python ints."""
        a, b = self.ab(masks)
        return a.astype(object) * (self.L // b.astype(object))

    def values(self, masks: np.ndarray) -> np.ndarray:
        """d itself for each mask, as Python ints."""
        return _read_bytes(_byte_tables(self.primes), masks)


def divisor_tally(problem: SieveProblem, primes, walk, *, worst_case: bool = False) -> tuple[Fraction, Fraction]:
    """Exact (X * sum of mu(d) omega(d)/d, sum of |R_d|) over the kept divisors of ``walk``.

    ``walk`` yields (kept, boundary) mask arrays over ``primes``, as
    ``squarefree_masks`` does.  R_d = |A_d| - (omega(d)/d) X is the class
    remainder, and ``worst_case`` tallies the density bound omega(d) in
    place of |R_d|.  With omega(d)/d = a(d)/b(d) = n_d/L (``DivisorTerms``)
    and X = x_num/x_den, |R_d| L x_den = (L/b(d)) |A_d b(d) x_den - a(d) x_num|,
    the inner term in int64 where ``DivisorTerms.ab`` proves it fits and in
    Python ints otherwise, never in floats.  Each block adds one Python-int
    dot product to each sum, so each result is one Fraction: the same
    rationals as a per-divisor Fraction sum, and so the same floats.  |A_d|
    comes from ``problem.reader(primes, n)``, n the walk's divisors counted
    up to ``problem.profile_threshold(primes)``; the walk is held only that
    far.  Off a profile a block's counts are one gather; the source counts
    each divisor alone.
    """
    terms = problem.divisor_terms(primes)
    x_num, x_den = problem.X.numerator, problem.X.denominator
    at = None if worst_case else problem.profile_threshold(primes)
    blocks, head, seen = (kept for kept, _ in walk), [], 0
    while at and seen < at and (masks := next(blocks, None)) is not None:
        head.append(masks)
        seen += len(masks)
    read = None if worst_case else problem.reader(primes, seen)
    main = rem = 0
    for masks in chain(head, blocks):
        mu = mask_mobius(masks)
        if worst_case:
            n = terms.numerators(masks)
            main += int(np.dot(mu, n))
            rem += int(np.dot(n, terms.values(masks)))  # omega(d) = n_d d / L
            continue
        a, b = terms.ab(masks, x_num, max(problem.size, 1) * x_den)
        c = terms.L // b.astype(object)
        main += int(np.dot(mu * a, c))
        rem += int(np.dot(np.abs(read.count_masks(primes, masks) * b * x_den - a * x_num), c))
    scale = terms.L * x_den
    return Fraction(main * x_num, scale), Fraction(rem, terms.L if worst_case else scale)


def exact_sift(problem: SieveProblem, z: int) -> int:
    """Exact survivor count after sifting by every prime below z, the oracle count.

    One count through ``problem.reader``: off the window profile up to
    z = 53 or a cached profile of the primes below z, else sifted by the
    source block by block.
    """
    if z < 2:
        raise ValueError("z must be >= 2")
    return problem.reader(small_primes(z), 1).sift_count(z)


def squarefree_masks(primes, *, max_nu: int | None = None, level=None):
    """Yield (kept, boundary) mask arrays over the squarefree products of ``primes``, a block at a time.

    Bit i of a mask flags primes[i], ``primes`` ascending: int64 masks up to
    63 primes, Python ints past them.  The children of a kept divisor d are
    d p over the primes p below its least prime, so each product is made
    once.  A block of children comes from one block of parents in a few
    NumPy calls: each parent repeated over its children's prime indices,
    and that prime's bit ORed in.  Depth first, the walk holds one block of
    parents per level, of at most ``_BLOCK`` over the levels divisors, so
    about ``_BLOCK`` in all however many it makes; blocks shorter than that
    are joined before they are yielded.  The empty product comes first.

    Without ``level``, every product of at most ``max_nu`` primes is kept
    and none is a boundary, and their number is checked against
    ``DIVISOR_CAP`` before any is made.  ``level`` is a Rosser weight table
    (``rosser.RosserWeightTable``: beta, D, r): a child d p with
    nu(d p) = r mod 2 is kept only when d p p^beta < D, its ``eta``, and is
    otherwise a boundary divisor, never expanded, so the walk stays
    proportional to the kept set.  The values d are formed only for this
    rule (``_level_rule``).  BudgetError is raised before a block would take
    the walk past ``DIVISOR_CAP`` divisors.
    """
    n = len(primes)
    top = n if max_nu is None else max(min(max_nu, n), 0)
    if level is None and sum(math.comb(n, k) for k in range(top + 1)) > DIVISOR_CAP:
        raise BudgetError(f"the divisors of at most {max_nu} of {n} primes exceed the enumeration cap")
    wide = np.int64 if n < 64 else object
    bits = np.array([1 << i for i in range(n)], dtype=wide)
    ps, passes = (None, None) if level is None else _level_rule(primes, level)
    step, made = max(_BLOCK // (top + 1), 1), 1

    def children(masks, least, values):
        nonlocal made
        ends = np.cumsum(least)
        starts, total = ends - least, int(ends[-1]) if len(ends) else 0
        for s in range(0, total, step):
            e = min(s + step, total)
            if made + e - s > DIVISOR_CAP:
                raise BudgetError(f"a divisor walk over {n} primes passed the enumeration cap {DIVISOR_CAP}")
            made += e - s
            if e - s == total:  # every parent's children at once
                par = np.repeat(np.arange(len(least)), least)
            else:
                i, j = np.searchsorted(ends, s, "right"), np.searchsorted(starts, e)  # the parents of children s..e-1
                par = np.repeat(np.arange(i, j), np.minimum(ends[i:j], e) - np.maximum(starts[i:j], s))
            idx = np.arange(s, e) - starts[par]
            yield masks[par] | bits[idx], idx, None if values is None else values[par] * ps[idx]

    def levels():
        root = np.zeros(1, dtype=wide)
        yield root, root[:0]
        stack = [children(root, np.array([n]), None if ps is None else np.ones(1, dtype=ps.dtype))] if top else []
        while stack:
            block = next(stack[-1], None)
            if block is None:
                stack.pop()
                continue
            masks, least, values = block
            nu = len(stack)
            if passes is not None and nu % 2 == level.r % 2:
                ok = passes(values, least)
                yield masks[ok], masks[~ok]
                masks, least, values = masks[ok], least[ok], values[ok]
            else:
                yield masks, root[:0]
            if nu < top:  # a parent of least prime index 0 has no children, and adds no work
                stack.append(children(masks, least, values))

    pending, held = [], 0  # short blocks, joined until they fill one
    for block in levels():
        pending.append(block)
        held += len(block[0]) + len(block[1])
        if held >= step:
            yield tuple(np.concatenate(part) for part in zip(*pending))
            pending, held = [], 0
    if pending:
        yield tuple(np.concatenate(part) for part in zip(*pending))


def _level_rule(primes, level):
    """(ps, passes) for ``squarefree_masks``: the primes in the dtype of its values, and the level test.

    passes(v, i) is v primes[i]^beta < D for the values v = d p of children
    of least prime p = primes[i], as ``RosserWeightTable.eta`` decides it.
    For integral beta and finite D that is v p^beta < ceil(D) in integers.
    In a kept divisor of nu(d) = r mod 2, d < D / p(d)^beta; so a parent of
    a tested child is below max(D, p_max), and every value formed is at
    most max(ceil(D), p_max) p_max^(beta+1).  The values are int64 where
    that bound, with beta rounded up, is below 2^63, and Python ints
    otherwise.  Other beta, or D infinite, test the float product, rounded
    as ``eta`` rounds it.
    """
    beta, D = float(level.beta), level.D
    pmax = max(primes, default=1)
    fits = math.isfinite(D) and max(abs(math.ceil(D)), pmax) * pmax ** (math.ceil(beta) + 1) < 2**63
    ps = np.array(primes, dtype=np.int64 if fits else object)
    if beta.is_integer() and math.isfinite(D):
        bound, pk = math.ceil(D), ps ** int(beta)
        return ps, lambda v, i: v * pk[i] < bound
    pb = np.array([p ** beta for p in primes])
    return ps, lambda v, i: v.astype(np.float64) * pb[i] < D
