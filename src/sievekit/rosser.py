"""Combinatorial sieve with level-truncated weight chains.

The weights here come from iterating the complement identity
|S(A,z)| = |S(A,z0)| - sum over z0 <= p < z of |S(A_p, p)| and pruning
branches whose least prime is too small for the remaining level.  The
characteristic functions rho (kept divisors) and sigma (discarded
boundary) are built two ways, by the eta chain recursion and by closed
set descriptions, and the package checks them against each other.  The
bounds and identities walk them with ``problem.squarefree_masks``, whose
level rule is a ``RosserWeightTable``'s eta: each block of kept and
boundary divisors is an int64 mask array, read off a profile in one
gather per block and least prime.

Also here: the coupled delay system for the optimal linear main-term
factors phi_0 (lower) and phi_1 (upper), solved in integrated Volterra
form on a uniform grid; the parity extremal sequences attaining the
linear bounds; and the weighted-sieve decomposition that trades prime
triples for almost-prime counts.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import permutations

import numpy as np

from .arith import BudgetError, PrimeTable, factorize, small_primes
from .legendre import density_product, dimension_fit
from .problem import (
    _PROFILE_Z,
    SieveProblem,
    _Profile,
    build_problem,
    divisor_tally,
    exact_sift,
    factor_count_sieve,
    mask_mobius,
    squarefree_masks,
)
from .reports import BoundReport, field_row

EULER = 0.5772156649015329
TWO_E_EULER = 2 * math.exp(EULER)
LINEAR_SLACK = 0.1  # relative slack of the linear-sieve verdict, for the o(1) terms of phi_r
SIEVE_GRID_ROWS = 10**6  # most tau rows of one sieve-function table; the default table has 1.2e4


# ---------------------------------------------------------------------------
# weight tables


@dataclass(frozen=True)
class RosserWeightTable:
    """Characteristic weight functions at level D, steepness beta, parity r.

    r = 1 gives the upper-bound weights, r = 0 the lower-bound weights.
    Ties level(d) == D resolve to eta = 0 (the pruning rule is strict).
    """

    D: float
    beta: float
    r: int

    def __post_init__(self):
        if self.beta <= 1:
            raise ValueError("beta must exceed 1")
        if self.r not in (0, 1):
            raise ValueError("parity r must be 0 or 1")

    def _level_ok(self, prefix: int, last: int) -> bool:
        """prefix * last^beta < D, exactly when beta is integral."""
        if float(self.beta).is_integer():
            return prefix * last ** int(self.beta) < self.D
        return prefix * last**self.beta < self.D

    def eta(self, nu: int, value: int, least: int) -> int:
        """Branch weight at a squarefree prefix with nu factors, least prime given."""
        if nu % 2 != self.r % 2:
            return 1
        return 1 if self._level_ok(value, least) else 0

    def rho_chain(self, factors: tuple[int, ...]) -> int:
        """rho as the product of eta over the descending prefix chain."""
        prod = 1
        for i, p in enumerate(factors):
            prod *= p
            if not self.eta(i + 1, prod, p):
                return 0
        return 1

    def sigma_chain(self, factors: tuple[int, ...]) -> int:
        """sigma(d) = rho(d / least(d)) - rho(d); lives in {0, 1}."""
        if not factors:
            return 0
        return self.rho_chain(factors[:-1]) - self.rho_chain(factors)

    def rho_closed(self, factors: tuple[int, ...]) -> int:
        """Set description: every parity-aligned prefix passes the level test.

        Membership asks p_1 ... p_(j-1) p_j^(beta+1) < D at each aligned
        index j, i.e. the level test at the prefix through p_j.
        """
        prefix = 1
        for j, p in enumerate(factors, start=1):
            prefix *= p
            if j % 2 == self.r % 2 and not self._level_ok(prefix, p):
                return 0
        return 1

    def sigma_closed(self, factors: tuple[int, ...]) -> int:
        l = len(factors)
        if l == 0 or l % 2 != self.r % 2:
            return 0
        value = 1
        for p in factors:
            value *= p
        if self._level_ok(value, factors[-1]):
            return 0
        return 1 if self.rho_closed(factors[:-1]) else 0


def _by_least(primes, masks: np.ndarray):
    """Yield (p, group) for each least prime p of the int64 ``masks``: the masks whose least prime is p."""
    least = np.bitwise_count((masks & -masks) - 1)
    for i in np.unique(least).tolist():
        yield primes[i], masks[least == i]


# ---------------------------------------------------------------------------
# iteration identities


@dataclass(frozen=True)
class IdentityReport:
    lhs: int
    rhs: int
    holds: bool
    detail: dict


def buchstab_check(problem: SieveProblem, z0: int, z: int) -> IdentityReport:
    """|S(A,z)| = |S(A,z0)| - sum over z0 <= p < z of |S(A_p, p)|, exactly, off ``reader(sifting_primes(z))``."""
    if not 2 <= z0 <= z:
        raise ValueError("need 2 <= z0 <= z")
    prof = problem.reader(problem.sifting_primes(z))
    lhs = prof.sift_count(z)
    total = prof.sift_count(z0)
    drops = {}
    for p in problem.sifting_primes(z, z0):
        drops[p] = prof.sift_count(p, (p,))
        total -= drops[p]
    return IdentityReport(lhs, total, lhs == total, {"drops": drops})


def rosser_identity(problem: SieveProblem, z0: int, z: int, weights: RosserWeightTable) -> IdentityReport:
    """Exact two-sum decomposition of the sifted count under the weights.

    rhs = sum of mu(d) rho(d) |S(A_d, z0)| + (-1)^r sum of sigma(d) |S(A_d, p(d))|
    over squarefree d built from the window primes; dropping the sigma sum
    leaves a one-sided bound.  Every count is read off ``reader(sifting_primes(z))``,
    a block of rho divisors in one gather and the sigma divisors of a block
    in one gather per least prime.  The density analogue is checked in
    exact rationals alongside, summed in ints over omega(d)/d = n_d/L
    (``DivisorTerms``): V(z0) sum mu(d) n_d / L plus the sum over p of
    V(p) S_p / L, S_p the sum of n_d over sigma divisors of least prime p,
    with V(p) read off one running product that ends at V(z).
    """
    if not 2 <= z0 <= z:
        raise ValueError("need 2 <= z0 <= z")
    primes = problem.sifting_primes(z, z0)
    prof = problem.reader(problem.sifting_primes(z))
    lhs = prof.sift_count(z)
    terms = problem.divisor_terms(primes)
    rho_sum = sigma_sum = n_rho = 0
    n_sigma = dict.fromkeys(primes, 0)
    for kept, boundary in squarefree_masks(primes, level=weights):
        mu = mask_mobius(kept)
        rho_sum += int(np.dot(mu, prof.sift_masks(z0, primes, kept)))
        n_rho += int(np.dot(mu, terms.numerators(kept)))
        for p, group in _by_least(primes, boundary):
            sigma_sum += int(prof.sift_masks(p, primes, group).sum())
            n_sigma[p] += int(terms.numerators(group).sum())
    sign = (-1) ** weights.r
    rhs = rho_sum + sign * sigma_sum
    v = density_product(problem.density, z0)  # V(p) on reaching each p below, V(z) after the loop
    v_rhs = v * Fraction(n_rho, terms.L)
    ps = small_primes(z)
    for p in ps[bisect_left(ps, z0):]:
        v_rhs += sign * v * Fraction(n_sigma.get(p, 0), terms.L)
        v *= 1 - problem.density.omega(p) / p
    bound_holds = sign * (lhs - rho_sum) >= 0
    return IdentityReport(
        lhs,
        rhs,
        lhs == rhs,
        {
            "rho_sum": rho_sum,
            "sigma_sum": sigma_sum,
            "bound_holds": bound_holds,
            "v_identity_holds": v == v_rhs,
            "v_lhs": v,
            "v_rhs": v_rhs,
        },
    )


# ---------------------------------------------------------------------------
# linear-sieve main-term functions


@dataclass(frozen=True)
class SieveFunctionTable:
    """Tabulated lower/upper main-term factors on a uniform tau grid."""

    step: float
    taus: np.ndarray
    phi0: np.ndarray
    phi1: np.ndarray

    def phi(self, r: int, tau: float) -> float:
        """Linear interpolation; phi0 vanishes on (0, 2], tau phi1 is constant there."""
        if tau <= 0:
            raise ValueError("tau must be positive")
        grid = self.phi0 if r % 2 == 0 else self.phi1
        if tau <= self.taus[0]:
            return 0.0 if r % 2 == 0 else TWO_E_EULER / tau
        if tau > self.taus[-1] + 1e-12:
            raise ValueError(f"tau={tau} beyond the tabulated range {self.taus[-1]}")
        return float(np.interp(tau, self.taus, grid))

    def rows(self) -> list[dict]:
        return [
            {"tau": float(t), "phi0": float(a), "phi1": float(b)}
            for t, a, b in zip(self.taus, self.phi0, self.phi1)
        ]


def solve_sieve_functions(tau_max: float = 10.0, step: float = 1e-3) -> SieveFunctionTable:
    """Integrate the coupled delay system forward from its closed-form seed.

    d/dtau (tau phi_r) = phi_{1-r}(tau - 1) for tau >= 2, with
    tau phi1 = 2 e^gamma and phi0 = 0 on (0, 2].  Uses the integrated
    (Volterra) form with trapezoidal quadrature on a grid aligned so that
    tau - 1 lands on grid points; the step is snapped to 1/round(1/step).
    A row's trapezoid reads rows one unit of tau back, so each block of
    1/step rows is one ``np.cumsum`` over earlier rows, which adds in order:
    the table equals a row-by-row loop's to the bit.  Raises when the
    (2, 4] closed forms disagree beyond 1e-6.  Raises BudgetError, before
    any allocation, past ``SIEVE_GRID_ROWS`` rows (tau_max / step).
    """
    if step > 1e-3 * (1 + 1e-9):
        raise ValueError("step must be at most 1e-3")
    if not math.isfinite(tau_max) or tau_max > 20:
        raise ValueError(f"tau_max must be finite and at most 20, got {tau_max}")
    if tau_max / step > SIEVE_GRID_ROWS:
        raise BudgetError(f"tau_max / step = {tau_max / step:.3g} grid rows exceed the cap {SIEVE_GRID_ROWS}")
    m = round(1 / step)
    h = 1.0 / m
    n = int(round(tau_max * m))
    if n <= 2 * m:
        raise ValueError("tau_max must exceed 2")
    idx = np.arange(1, n + 1)
    taus = idx / m
    phi1 = np.where(taus <= 2, TWO_E_EULER / taus, 0.0)
    phi0 = np.zeros(n)
    # arrays are 0-based: taus[i-1] = i*h
    acc0 = 0.0  # integral feeding phi0
    acc1 = 0.0  # integral feeding phi1
    for lo in range(2 * m, n, m):  # rows lo .. hi - 1, i.e. tau in (lo h, hi h]
        hi = min(lo + m, n)
        back, prev = slice(lo - m - 1, hi - m - 1), slice(lo - m, hi - m)  # the trapezoid's two rows
        acc0s = np.cumsum(np.concatenate(([acc0], h / 2 * (phi1[back] + phi1[prev]))))[1:]
        acc1s = np.cumsum(np.concatenate(([acc1], h / 2 * (phi0[back] + phi0[prev]))))[1:]
        phi0[lo:hi] = acc0s / taus[lo:hi]
        phi1[lo:hi] = (TWO_E_EULER + acc1s) / taus[lo:hi]
        acc0, acc1 = acc0s[-1], acc1s[-1]
    table = SieveFunctionTable(step=h, taus=taus, phi0=phi0, phi1=phi1)
    _validate_closed_forms(table)
    return table


def _validate_closed_forms(table: SieveFunctionTable) -> None:
    sel = (table.taus > 2) & (table.taus <= 4)
    expected0 = TWO_E_EULER * np.log(np.maximum(table.taus - 1, 1e-300)) / table.taus
    err0 = np.max(np.abs(table.phi0[sel] - expected0[sel]))
    sel1 = (table.taus > 2) & (table.taus <= 3)
    err1 = np.max(np.abs(table.phi1[sel1] - TWO_E_EULER / table.taus[sel1]))
    if max(err0, err1) > 1e-6:
        raise ValueError(f"step too coarse: closed-form mismatch {max(err0, err1):.3g}")


@lru_cache(maxsize=1)
def default_sieve_functions() -> SieveFunctionTable:
    return solve_sieve_functions(tau_max=12.0, step=1e-3)


# ---------------------------------------------------------------------------
# linear-sieve bound and the parity extremal example


def linear_sieve_bound(problem: SieveProblem, z: int, D: float, r: int) -> BoundReport:
    """Main term phi_r(log D / log z) V(z) X with an exact remainder tally.

    The main-term factor carries o(1) terms, so the verdict is
    directional-with-slack: the bound times (1 + ``LINEAR_SLACK``) must land
    on the correct side of the oracle.  A dimension far from 1 is flagged in
    the params, not fatal.
    """
    if z < 2:
        raise ValueError("z must be >= 2")
    functions = default_sieve_functions()
    kappa = dimension_fit(problem.density, 100, 10**5)
    tau = math.log(D) / math.log(z)
    main = functions.phi(r, tau) * float(density_product(problem.density, z) * problem.X)
    weights = RosserWeightTable(D=D, beta=2.0, r=r)
    primes = problem.sifting_primes(z)
    _, rem = divisor_tally(problem, primes, squarefree_masks(primes, level=weights))
    direction = "upper" if r == 1 else "lower"
    bound = main + float(rem) if r == 1 else main - float(rem)
    return BoundReport(
        method="rosser",
        problem=problem.describe(),
        params={"z": z, "D": D, "beta": 2.0, "parity": r, "tau": tau,
                "kappa_fit": kappa, "dimension_ok": abs(kappa - 1) <= 0.3},
        direction=direction,
        main=main,
        remainder_bound=float(rem),
        bound=bound,
        exact=exact_sift(problem, z),
        slack=LINEAR_SLACK,
    )


@dataclass(frozen=True)
class ParityExtremalReport:
    x: int
    z: int
    r: int
    exact: int
    rho_sum: int
    sigma_sum: int
    identity_exact: bool
    full_identity_exact: bool
    ratio: float

    row = field_row


@lru_cache(maxsize=2)
def _parity_window(x: int, r: int) -> _Profile:
    """The default-window profile of the parity-r sequence below x, shared by every z <= 53.

    Only the profile is kept (2^15-entry tables, at most about 1 MB), never
    the problem or its x-byte mask; the build forms no value array.
    """
    return build_problem("parity", {"x": x, "r": r}).profile()


def parity_extremal(x: int, z: int, r: int) -> ParityExtremalReport:
    """Sift the fixed-parity sequence and compare with its weight-sum form.

    With level D = x and beta = 2 the discarded sigma branches are empty
    whenever z is small next to x, making the plain weight sum reproduce
    the sifted count exactly; the sigma tally measures any defect.  The
    reported ratio tracks the count against (x/2) phi_r(log x / log z) V(z, 1).
    """
    if z < 2:
        raise ValueError("z must be >= 2")
    if x > 10**7:
        raise BudgetError("parity extremal capped at x = 1e7")
    problem = build_problem("parity", {"x": x, "r": r})
    weights = RosserWeightTable(D=float(x), beta=2.0, r=r)
    primes = problem.sifting_primes(z)
    # every z in the window reads one shared profile; a wider one lives for this call only
    prof = _parity_window(x, r) if z <= _PROFILE_Z else problem.reader(primes)
    exact = prof.sift_count(z)
    rho_sum = sigma_sum = 0
    for kept, boundary in squarefree_masks(primes, level=weights):
        rho_sum += int(np.dot(mask_mobius(kept), prof.count_masks(primes, kept)))
        for p, group in _by_least(primes, boundary):
            sigma_sum += int(prof.sift_masks(p, primes, group).sum())
    functions = default_sieve_functions()
    tau = math.log(x) / math.log(z)
    denom = (x / 2) * functions.phi(r, min(tau, float(functions.taus[-1]))) * float(
        density_product(problem.density, z)
    )
    return ParityExtremalReport(
        x=x, z=z, r=r, exact=exact, rho_sum=rho_sum, sigma_sum=sigma_sum,
        identity_exact=exact == rho_sum,
        full_identity_exact=exact == rho_sum + (-1) ** r * sigma_sum,
        ratio=exact / denom if denom else math.inf,
    )


# ---------------------------------------------------------------------------
# weighted sieve toward almost-prime Goldbach representations


def chen_weight(n: int, N: int) -> Fraction:
    """Weight 1 - half the small-factor count - half the triple-split count.

    Small factors are counted with multiplicity in [N^(1/10), N^(1/3));
    triple splits are ordered factorizations n = p1 p2 p3 with p1 in that
    window and p2 in [N^(1/3), sqrt(N/p1)).  Positive weight forces n to
    have at most two prime factors.
    """
    if not 1 <= n < N:
        raise ValueError("need 1 <= n < N")
    U = N**0.1
    V = N ** (1 / 3)
    factors = factorize(n)
    if any(p < U for p, _ in factors):
        raise ValueError(f"{n} has a prime factor below N^(1/10)")
    s = sum(e for p, e in factors if U <= p < V)
    big_omega = sum(e for _, e in factors)
    t = 0
    if big_omega == 3:
        flat = [p for p, e in factors for _ in range(e)]
        for p1, p2, _p3 in set(permutations(flat)):
            if U <= p1 < V and V <= p2 < math.sqrt(N / p1):
                t += 1
    return 1 - Fraction(s, 2) - Fraction(t, 2)


@dataclass(frozen=True)
class ChenReport:
    N: int
    left: int
    sifted: int
    small_factor_sum: Fraction
    triple_sum: Fraction
    rhs: Fraction
    inequality_holds: bool
    singular_factor: Fraction
    main_shape: float
    ratio: float

    row = field_row


@lru_cache(maxsize=1)
def twin_constant() -> float:
    """prod over odd p of (1 - 1/(p-1)^2), truncated below 10^5."""
    out = 1.0
    for p in small_primes(10**5):
        if p > 2:
            out *= 1 - 1 / (p - 1) ** 2
    return out


def chen_decomposition(N: int, table: PrimeTable) -> ChenReport:
    """Exact evaluation of the almost-prime representation inequality.

    left  = #{p < N : N - p has at most two prime factors}
    rhs   = |S(A, U)| - (1/2) sum over p1 in [U, V) of |S(A_p1, U)|
            - (1/2) #{survivor representations N - p = p1 p2 p3 in range}
    with A = {N - p : p < N}, U = N^(1/10), V = N^(1/3).  The inequality
    left >= rhs is the checked assertion, and every term is an exact count:

    * |S(A, U)| scans the values N - p, one ``% p`` pass per prime below
      U, and the p1 terms scan its survivors, one ``% p1`` pass per p1;
    * a survivor N - p = p1 p2 q of the triple sum has no prime factor
      below U, and p1 >= U, p2 >= V > U, so its cofactor q is a prime at
      least U; the sum counts the primes q in [U, N / (p1 p2)) with
      N - p1 p2 q prime, pi(N / (p1 p2)) lookups per pair, all of one
      p1's pairs in one array lookup;
    * left reads Omega from ``factor_count_sieve(2^k)``, 2^k the least
      power of two at or above N, one cached table for every N in
      (2^(k-1), 2^k].
    """
    if N % 2 or N < 16:
        raise ValueError("N must be even and >= 16")
    if N > 10**7:
        raise BudgetError("weighted-sieve decomposition capped at N = 1e7")
    if table.limit < N:
        raise ValueError("prime table must reach N")
    U = N**0.1
    V = N ** (1 / 3)
    ps = table.primes_below(N)
    values = (N - ps).astype(np.int64)
    survivors = np.ones(len(values), dtype=bool)
    for p in table.primes_below(int(U) + 1):
        if p < U:
            survivors &= values % int(p) != 0
    T1 = int(np.count_nonzero(survivors))
    lo, hi = np.searchsorted(table.primes, [math.ceil(U), math.ceil(V)])  # int bounds: no float copy of the table
    window = [int(p) for p in table.primes[lo:hi]]
    rough = values[survivors]
    T2 = Fraction(sum(int(np.count_nonzero(rough % p1 == 0)) for p1 in window), 2)
    T3 = 0
    for p1 in window:
        # p2 < sqrt(N / p1) exactly when p2 <= isqrt((N - 1) // p1)
        ms = p1 * table.primes[hi : max(hi, np.searchsorted(table.primes, math.isqrt((N - 1) // p1), "right"))]
        # pair j's cofactors are primes[lo : lo + sizes[j]]; index all of them as one run
        sizes = np.maximum(np.searchsorted(table.primes, -(-N // ms)) - lo, 0)
        starts = np.cumsum(sizes) - sizes
        q_index = np.arange(int(sizes.sum())) - np.repeat(starts - lo, sizes)
        T3 += int(np.count_nonzero(table.membership[N - np.repeat(ms, sizes) * table.primes[q_index]]))
    T3 = Fraction(T3, 2)
    big_omega = factor_count_sieve(1 << (N - 1).bit_length())
    left = int(np.count_nonzero(big_omega[values] <= 2))
    rhs = T1 - T2 - T3
    singular = Fraction(1)
    for p, _ in factorize(N):
        if p > 2:
            singular *= Fraction(p - 1, p - 2)
    shape = twin_constant() * float(singular) * N / math.log(N) ** 2
    return ChenReport(
        N=N, left=left, sifted=T1, small_factor_sum=T2, triple_sum=T3,
        rhs=rhs, inequality_holds=left >= rhs,
        singular_factor=singular, main_shape=shape,
        ratio=left / shape if shape else math.inf,
    )
