"""Numerical verification engines for the large-sieve inequality family.

Covers the abstract Hilbert-space inequality, the additive forms over
well-separated points (Farey fractions in particular), the prime-frequency
energy identity behind the earliest duality argument, and the
multiplicative form over primitive Dirichlet characters via Gauss sums.

Inequalities are checked strictly after a 1e-12 relative slack guard, so
rounding can never produce a spurious violation; identities use a 1e-9
relative tolerance.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

import numpy as np

from .arith import BudgetError, divisors, euler_phi, factorize
from .problem import _LUT_MODULUS

IDENT_RTOL = 1e-9
INEQ_SLACK = 1e-12
POWER_TOL = 1e-12  # relative Rayleigh-quotient step at which power iteration stops
POWER_MAX_ITER = 20000


def min_circular_distance(points) -> Fraction:
    """Minimum pairwise distance mod 1, exact (a float counts as the rational it stores).

    Points are compared as integer pairs (a, q) by cross-multiplication, so
    an ascending input is not re-sorted, and one ``Fraction`` is made.
    """
    if len(points) < 2:
        raise ValueError("need at least two points for a separation")
    pts = [t if isinstance(t, Fraction) else Fraction(t) for t in points]
    pairs = [(t.numerator, t.denominator) for t in pts]
    if any(a * s > c * q for (a, q), (c, s) in zip(pairs, pairs[1:])):
        # a correctly rounded a / q orders all but ties, which the Fraction breaks
        pairs = [(t.numerator, t.denominator) for t in sorted(pts, key=lambda t: (t.numerator / t.denominator, t))]
    (a, q), (c, s) = pairs[-1], pairs[0]
    num, den = q * s - a * s + c * q, q * s  # the wraparound gap 1 - a/q + c/s
    for (a, q), (c, s) in zip(pairs, pairs[1:]):
        if (c * q - a * s) * den < num * q * s:
            num, den = c * q - a * s, q * s
    return Fraction(num, den)


@dataclass(frozen=True)
class SeparatedPoints:
    """Points in [0, 1) with a certified minimum circular separation; ``delta=None`` takes the measured one."""

    points: tuple
    delta: Fraction | float | None = None

    def __post_init__(self):
        if len(self.points) > 1:
            gap = min_circular_distance(self.points)
            if self.delta is None:
                object.__setattr__(self, "delta", gap)
            elif gap < self.delta:
                raise ValueError("points are closer than the declared separation")
        if self.delta is None or self.delta <= 0:
            raise ValueError("delta must be positive")


def farey_points(Q: int) -> SeparatedPoints:
    """All reduced fractions a/q with q <= Q in [0, 1), ascending; delta = 1/(Q(Q-1)).

    The points are made in order by the next-term recurrence of the Farey
    sequence: after neighbours a/b < c/d comes (k c - a)/(k d - b) with
    k = floor((Q + b) / d), starting from 0/1, 1/Q and stopping at 1/1.
    """
    if Q < 2:
        raise ValueError("Q must be >= 2")
    pts = [Fraction(0)]
    a, b, c, d = 0, 1, 1, Q
    while c < d:
        pts.append(Fraction(c, d))
        k = (Q + b) // d
        a, b, c, d = c, d, k * c - a, k * d - b
    return SeparatedPoints(tuple(pts), Fraction(1, Q * (Q - 1)))


def _phase_groups(points: SeparatedPoints, M: int, N: int):
    """Yield (rows, table): the phases e(n t) of points ``rows``, n in [M, M + N), at column n mod width.

    Points are grouped by their exact denominator q; the width is q when
    q < N (e(n a/q) has period q) and N otherwise.  Exponents are reduced
    exactly in integers, M as a Python int, so starts past 2^63 are fine;
    only q >= 2^31 (floats among them) takes float t * n, with int64 n.
    """
    fracs = [t if isinstance(t, Fraction) else Fraction(t) for t in points.points]
    groups: dict[int, list[int]] = {}
    for j, t in enumerate(fracs):
        groups.setdefault(t.denominator, []).append(j)
    for q, rows in groups.items():
        if q < N:
            r = np.arange(q, dtype=np.int64)
        else:
            r = (np.arange(N, dtype=np.int64) - M % N) % N  # n - M at column n mod N
            if q >= 1 << 31:
                theta = np.array([float(points.points[j]) for j in rows])
                yield rows, np.exp(2j * np.pi * theta[:, None] * (M + r))
                continue
            r = (M % q + r) % q
        a = np.array([fracs[j].numerator % q for j in rows], dtype=np.int64)
        yield rows, np.exp(2j * np.pi * (a[:, None] * r % q) / q)


def _add_periodic(values: np.ndarray, period: np.ndarray, M: int) -> None:
    """values[i] += period[(M + i) mod q] in place, q = len(period): a head, whole periods, a tail."""
    q, N = len(period), len(values)
    s = M % q
    head = min(q - s, N)
    values[:head] += period[s:s + head]
    k = (N - head) // q
    values[head:head + k * q].reshape(k, q)[...] += period
    values[head + k * q:] += period[:N - head - k * q]


def additive_ls_check(points: SeparatedPoints, coefficients, M: int = 0):
    """Point-side energy against (N - 1 + 1/delta) x coefficient energy.

    lhs = sum over points of |sum_n a_n e(n theta)|^2, coefficients indexed
    over [M, M+N).  Returns (lhs, rhs, ratio); the inequality asserts
    ratio <= 1.  Coefficients of shape (V, N) are V vectors checked at
    once, and lhs, rhs and ratio are then arrays of length V.
    """
    a = np.asarray(coefficients, dtype=complex)
    N = a.shape[-1]
    if N == 0:
        raise ValueError("empty coefficient vector")
    lhs = np.zeros(a.shape[:-1])
    for _rows, table in _phase_groups(points, M, N):
        w = table.shape[1]
        pad = [(0, 0)] * (a.ndim - 1) + [(M % w, -(M % w + N) % w)]
        folded = np.pad(a, pad).reshape(*a.shape[:-1], -1, w).sum(axis=-2)
        lhs += np.sum(np.abs(folded @ table.T) ** 2, axis=-1)
    rhs = float(N - 1 + 1 / points.delta) * np.sum(np.abs(a) ** 2, axis=-1)
    ratio = np.divide(lhs, rhs, out=np.zeros_like(lhs), where=rhs != 0)
    if a.ndim == 1:
        return float(lhs), float(rhs), float(ratio)
    return lhs, rhs, ratio


def dual_ls_check(points: SeparatedPoints, point_coefficients, M: int, N: int) -> tuple[float, float, float]:
    """Interval-side energy of a point-supported polynomial, same constant.

    Period vectors add into a run table of modulus m = lcm of their widths;
    a vector that would take m past ``_LUT_MODULUS`` (2^18) starts a new run,
    so each run, not each denominator, makes one pass over N.
    """
    b = np.asarray(point_coefficients, dtype=complex)
    if len(b) != len(points.points):
        raise ValueError("one coefficient per point required")
    values = np.zeros(N, dtype=complex)
    run = np.zeros(1, dtype=complex)
    for rows, table in _phase_groups(points, M, N):
        w = table.shape[1]
        m = math.lcm(len(run), w)
        if m > _LUT_MODULUS:
            _add_periodic(values, run, M)
            run = np.zeros(w, dtype=complex)
        elif m > len(run):
            run = np.tile(run, m // len(run))
        run.reshape(-1, w)[...] += table.T @ b[rows]
    _add_periodic(values, run, M)
    lhs = float(np.sum(np.abs(values) ** 2))
    rhs = float((N - 1 + 1 / points.delta) * np.sum(np.abs(b) ** 2))
    ratio = 0.0 if rhs == 0 else lhs / rhs
    return lhs, rhs, ratio


def _times_pow2(z: np.ndarray, k) -> np.ndarray:
    """z * 2^k exactly; unlike a product with the float 2^k, this works where 2^k overflows."""
    return np.ldexp(z.real, k) + 1j * np.ldexp(z.imag, k)


def hilbert_ls_check(vectors, psi) -> tuple[float, float]:
    """Selberg's inner-product inequality on explicit finite-dimensional data.

    lhs = sum over m of |<psi, v_m>|^2 / sum_n |<v_m, v_n>|, rhs = <psi, psi>.
    Each v_m = 2^e_m u_m and psi are scaled by powers of two to a largest
    entry in [1/2, 1) before any product is formed, so small vectors do not
    underflow.  Term m is then |<psi', u_m>|^2 / sum_n 2^(e_n - e_m) |<u_m, u_n>|,
    and psi's scale is multiplied back into both sides.  Powers of two
    scale exactly, so where no product underflows the floats are those of
    the unscaled formula.
    """
    V = np.asarray(vectors, dtype=complex)
    psi = np.asarray(psi, dtype=complex)
    if V.ndim != 2 or V.shape[1] != len(psi):
        raise ValueError("vectors must be rows matching psi's dimension")
    row_max = np.abs(V).max(axis=1, initial=0.0)
    if np.any(row_max == 0):
        raise ValueError("zero vector in family")
    e = np.frexp(row_max)[1]
    U = _times_pow2(V, -e[:, None])
    f = math.frexp(float(np.abs(psi).max(initial=0.0)))[1]
    psi = _times_pow2(psi, -f)
    den = np.ldexp(np.abs(U @ U.conj().T), e[None, :] - e[:, None]).sum(axis=1)
    inner = np.abs(U @ psi.conj()) ** 2
    lhs = float(np.sum(inner / den))
    rhs = float(np.real(np.vdot(psi, psi)))
    return math.ldexp(lhs, 2 * f), math.ldexp(rhs, 2 * f)


def linnik_identity_check(indicator, p: int, theta: float, M: int = 0, *, omega_size: int | None = None) -> dict:
    """Energy identity splitting a frequency window over residue classes mod p.

    lhs = sum over a = 1..p-1 of |U(theta + a/p)|^2 must equal
    rhs = p * sum over a mod p of |U(theta; p, a)|^2 - |U(theta)|^2 exactly.
    When ``omega_size`` is given, the derived lower-bound inequality
    |U(theta)|^2 * omega/(p - omega) <= lhs is reported as well.
    """
    w = np.asarray(indicator, dtype=float)
    n = np.arange(M, M + len(w))
    def U(t):
        return complex(np.sum(w * np.exp(2j * np.pi * n * t)))
    lhs = sum(abs(U(theta + a / p)) ** 2 for a in range(1, p))
    per_class = 0.0
    for a in range(p):
        mask = n % p == a
        per_class += abs(complex(np.sum(w[mask] * np.exp(2j * np.pi * n[mask] * theta)))) ** 2
    u0 = abs(U(theta)) ** 2
    rhs = p * per_class - u0
    scale = max(lhs, rhs, 1.0)
    report = {
        "lhs": lhs,
        "rhs": rhs,
        "identity_holds": abs(lhs - rhs) <= IDENT_RTOL * scale,
    }
    if omega_size is not None:
        bound = u0 * omega_size / (p - omega_size)
        report["inequality_lhs"] = bound
        report["inequality_holds"] = bound <= lhs + INEQ_SLACK * scale
    return report


# ---------------------------------------------------------------------------
# Dirichlet characters

CHARACTER_MODULUS_CAP = 1000
# Bytes of character tables kept for reuse: every q < 150 (16.5 MB) fits,
# as does any single table up to the cap (24 MB at q = 997).
CHARACTER_CACHE_BYTES = 64 << 20


def _unit_group(q: int) -> tuple[list[int], list[int]]:
    """Generators and their orders for the unit group mod q (CRT components)."""
    if q == 1:
        return [], []
    gens: list[int] = []
    orders: list[int] = []
    for p, e in factorize(q):
        pe = p**e
        rest = q // pe
        if p == 2:
            if e == 1:
                continue
            if e == 2:
                local = [(3, 2)]
            else:
                local = [(pe - 1, 2), (5, 2 ** (e - 2))]
        else:
            g = _primitive_root(p, e)
            local = [(g, euler_phi(pe))]
        for g, order in local:
            # lift the local generator to 1 mod rest via CRT
            lifted = _crt_lift(g, pe, 1, rest) if rest > 1 else g % q
            gens.append(lifted)
            orders.append(order)
    return gens, orders


def _crt_lift(a: int, m: int, b: int, n: int) -> int:
    t = (b - a) * pow(m, -1, n) % n
    return (a + m * t) % (m * n)


def _primitive_root(p: int, e: int) -> int:
    phi = p - 1
    factors = [f for f, _ in factorize(phi)]
    g = next(
        g for g in range(2, p)
        if all(pow(g, phi // f, p) != 1 for f in factors)
    )
    if e == 1:
        return g
    # lift to prime powers: g or g + p generates mod p^2 and then all p^e
    if pow(g, phi, p * p) == 1:
        g += p
    return g


@dataclass(frozen=True)
class CharacterTable:
    """All Dirichlet characters mod q with conductors and Gauss sums.

    ``exponents[j, n]`` holds integer t with chi_j(n) = e(t / group_exponent)
    and -1 marking non-units, so orthogonality and conductor logic stay
    exact; ``values`` is the complex rendering.
    """

    q: int
    exponents: np.ndarray
    values: np.ndarray
    group_exponent: int
    conductors: np.ndarray
    gauss_sums: np.ndarray

    @property
    def n_characters(self) -> int:
        return self.values.shape[0]

    @property
    def primitive(self) -> np.ndarray:
        return self.conductors == self.q

    def chi(self, j: int, n: int) -> complex:
        return self.values[j, n % self.q]

    @property
    def nbytes(self) -> int:
        return sum(a.nbytes for a in (self.exponents, self.values, self.conductors, self.gauss_sums))


class _TableCache:
    """Character tables by q, least recently used first, holding at most ``max_bytes`` of arrays.

    A table larger than the whole bound is returned but not kept.
    """

    def __init__(self, max_bytes: int):
        self.max_bytes = max_bytes
        self.nbytes = 0
        self._tables: OrderedDict[int, CharacterTable] = OrderedDict()

    def get(self, q: int, build) -> CharacterTable:
        table = self._tables.get(q)
        if table is not None:
            self._tables.move_to_end(q)
            return table
        table = build(q)
        if table.nbytes <= self.max_bytes:
            self._tables[q] = table
            self.nbytes += table.nbytes
            while self.nbytes > self.max_bytes:
                self.nbytes -= self._tables.popitem(last=False)[1].nbytes
        return table

    def clear(self) -> None:
        self._tables.clear()
        self.nbytes = 0


_character_tables = _TableCache(CHARACTER_CACHE_BYTES)


def character_table(q: int) -> CharacterTable:
    """The full character group mod q, cached up to CHARACTER_CACHE_BYTES of tables."""
    if q < 1:
        raise ValueError("q must be >= 1")
    if q > CHARACTER_MODULUS_CAP:
        raise BudgetError(f"modulus {q} above character budget {CHARACTER_MODULUS_CAP}")
    return _character_tables.get(q, _build_character_table)


# the functools cache interface, so code that empties every cache reaches this one
character_table.cache_clear = _character_tables.clear


def _build_character_table(q: int) -> CharacterTable:
    """Build the full character group mod q from the discrete-log lattice of its units."""
    if q == 1:
        exps = np.zeros((1, 1), dtype=np.int64)
        vals = np.ones((1, 1), dtype=complex)
        return CharacterTable(1, exps, vals, 1, np.array([1]), np.array([1.0 + 0j]))
    gens, orders = _unit_group(q)
    e = math.lcm(*orders) if orders else 1
    # the unit lattice: row k of L holds the discrete logs of units[k]; the
    # characters are indexed by the same lattice
    L = np.array(list(product(*(range(order) for order in orders))), dtype=np.int64)
    units = np.ones(len(L), dtype=np.int64)
    for i, (g, order) in enumerate(zip(gens, orders)):
        powers = np.array([pow(g, k, q) for k in range(order)], dtype=np.int64)
        units = units * powers[L[:, i]] % q
    assert len(units) == euler_phi(q)
    unit_exps = (L * (e // np.array(orders, dtype=np.int64))) @ L.T % e
    exps = np.full((len(units), q), -1, dtype=np.int64)
    exps[:, units] = unit_exps
    roots = np.exp(2j * np.pi * np.arange(e) / e)
    vals = np.where(exps >= 0, roots[np.maximum(exps, 0)], 0.0)
    # conductor: the least f | q on whose units n = 1 (mod f) the character is trivial
    conductors = np.full(len(units), q, dtype=np.int64)
    for f in reversed(divisors(q)[:-1]):
        trivial = np.all(unit_exps[:, (units - 1) % f == 0] == 0, axis=1)
        conductors[trivial] = f
    phases = np.exp(2j * np.pi * np.arange(q) / q)
    gauss = vals @ phases
    return CharacterTable(q, exps, vals, e, conductors, gauss)


def multiplicative_ls_check(Q: int, coefficients, M: int = 0) -> tuple[float, float]:
    """Primitive-character energy against (N - 1 + Q^2) x coefficient energy.

    lhs = sum over q < Q of (q/phi(q)) sum over primitive chi mod q of
    |sum_n a_n chi(n)|^2.  The modulus q = 1 contributes the trivial
    character with weight 1 (its conductor is 1, hence primitive here).
    """
    a = np.asarray(coefficients, dtype=complex)
    N = len(a)
    n = np.arange(M, M + N)
    lhs = 0.0
    for q in range(1, Q):
        table = character_table(q)
        prim = np.nonzero(table.primitive)[0]
        if len(prim) == 0:
            continue
        chi_vals = table.values[np.ix_(prim, n % q)]
        sums = chi_vals @ a
        lhs += q / euler_phi(q) * float(np.sum(np.abs(sums) ** 2))
    rhs = float((N - 1 + Q * Q) * np.sum(np.abs(a) ** 2))
    return lhs, rhs


def character_sum_via_gauss(table: CharacterTable, j: int, coefficients, M: int = 0) -> complex:
    """Evaluate sum a_n chi(n) through the additive-character expansion.

    Valid for primitive chi: chi(n) = (1/tau(conj chi)) sum_a conj(chi)(a) e(an/q).
    """
    if table.conductors[j] != table.q:
        raise ValueError("gauss expansion requires a primitive character")
    q = table.q
    a = np.asarray(coefficients, dtype=complex)
    n = np.arange(M, M + len(a))
    chi_bar = np.conj(table.values[j])
    tau_bar = np.sum(chi_bar * np.exp(2j * np.pi * np.arange(q) / q))
    total = 0j
    for r in range(q):
        if chi_bar[r] == 0:
            continue
        total += chi_bar[r] * np.sum(a * np.exp(2j * np.pi * r * n / q))
    return complex(total / tau_bar)


def power_iteration_norm(matrix: np.ndarray) -> float:
    """Largest eigenvalue of M M^H by power iteration (deterministic start).

    Stops when the Rayleigh quotient moves by at most ``POWER_TOL`` relative,
    or after ``POWER_MAX_ITER`` steps.
    """
    rng = np.random.default_rng(0)
    v = rng.normal(size=matrix.shape[1]) + 1j * rng.normal(size=matrix.shape[1])
    v /= np.linalg.norm(v)
    last = 0.0
    for _ in range(POWER_MAX_ITER):
        w = matrix.conj().T @ (matrix @ v)
        norm = np.linalg.norm(w)
        if norm == 0:
            return 0.0
        v = w / norm
        ray = float(np.real(np.vdot(v, matrix.conj().T @ (matrix @ v))))
        if abs(ray - last) <= POWER_TOL * max(ray, 1.0):
            return ray
        last = ray
    return last


def duality_rayleigh(points: SeparatedPoints, M: int, N: int) -> tuple[float, float]:
    """Top Rayleigh quotients of the point-side and interval-side forms.

    The two positive forms share their nonzero spectrum, so the returned
    pair must agree (up to iteration tolerance); this is the numerical
    content of the adjoint-norm equality.
    """
    E = np.zeros((len(points.points), N), dtype=complex)
    for rows, table in _phase_groups(points, M, N):
        for j, period in zip(rows, table):
            _add_periodic(E[j], period, M)
    return power_iteration_norm(E), power_iteration_norm(E.conj().T)
