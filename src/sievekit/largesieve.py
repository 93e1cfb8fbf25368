"""Numerical verification engines for the large-sieve inequality family.

Covers the abstract Hilbert-space inequality, the additive forms over
well-separated points (Farey fractions in particular), the prime-frequency
energy identity behind the earliest duality argument, and the
multiplicative form over primitive Dirichlet characters.  The characters
mod q live on the discrete-log lattice of the units (``_lattice``): the
multiplicative form takes one FFT over it per modulus, and the dense
character tables with conductors and Gauss sums are built from it.

Inequalities are checked strictly after a 1e-12 relative slack guard, so
rounding can never produce a spurious violation; identities use a 1e-9
relative tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import accumulate, repeat
from typing import NamedTuple

import numpy as np

from .arith import BudgetError, euler_phi, factorize
from .problem import _LUT_MODULUS, _add_periodic

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
    a vector that would take m past min(2^18, N) starts a new run, so each
    run, not each denominator, makes one pass over N.  (``_LUT_MODULUS`` is
    2^18; a run wider than N would cost more to fill than the pass it saves.)
    """
    b = np.asarray(point_coefficients, dtype=complex)
    if len(b) != len(points.points):
        raise ValueError("one coefficient per point required")
    values = np.zeros(N, dtype=complex)
    run = np.zeros(1, dtype=complex)
    for rows, table in _phase_groups(points, M, N):
        w = table.shape[1]
        m = math.lcm(len(run), w)
        if m > min(_LUT_MODULUS, N):
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


class _Lattice(NamedTuple):
    """The discrete-log lattice of the units mod q; arrays are read-only.

    Index k (C order over ``orders``) is the unit prod g_i^(k_i) of
    ``_unit_group``'s generators and the character chi_k with
    chi_k(g_i) = e(k_i / orders[i]); q <= 2 has the one cyclic order 1.
    """

    orders: tuple[int, ...]
    units: np.ndarray
    conductors: np.ndarray


def _local_conductors(p: int, e: int) -> np.ndarray:
    """Conductors of the characters mod p^e, on the lattice of p^e's ``_unit_group`` components.

    On a cyclic component of order p^(e-1) h the units = 1 mod p^f make the
    subgroup of order p^(e-f), on which chi_k is trivial exactly when
    p^(e-f) | k; so chi_k has conductor p^(e - v_p(k)), and 1 at k = 0.  For
    2^e, e >= 3, that holds on the component of 5 (h = 1/2), and the
    component of -1 needs 4, as -1 is not 1 mod 4; the larger power wins.
    """
    if p == 2 and e == 1:
        return np.ones(1, dtype=np.int64)
    order = euler_phi(p**e) if p > 2 else 2 ** (e - 2)
    k = np.arange(order)
    f = np.full(order, p**e, dtype=np.int64)
    for j in range(1, e):
        f[k % p**j == 0] //= p
    f[0] = 1
    if p > 2:
        return f
    return np.maximum.outer(np.array([1, 4], dtype=np.int64), f).ravel()


@cache
def _lattice(q: int) -> _Lattice:
    """Orders, units and conductors of the characters mod q, for 1 <= q <= CHARACTER_MODULUS_CAP.

    The conductor of a character is the product of its components' local
    conductors, read off the index; no divisor of q is tried.
    """
    if q < 1:
        raise ValueError("q must be >= 1")
    if q > CHARACTER_MODULUS_CAP:
        raise BudgetError(f"modulus {q} above character budget {CHARACTER_MODULUS_CAP}")
    gens, orders = _unit_group(q)
    units = np.array([1 % q], dtype=np.int64)
    for g, order in zip(gens, orders):
        powers = list(accumulate(repeat(g, order - 1), lambda x, y: x * y % q, initial=1))
        units = (units[:, None] * np.array(powers, dtype=np.int64) % q).ravel()
    conductors = np.ones(1, dtype=np.int64)
    for p, e in factorize(q):
        conductors = np.multiply.outer(conductors, _local_conductors(p, e)).ravel()
    for arr in (units, conductors):
        arr.setflags(write=False)
    return _Lattice(tuple(orders) or (1,), units, conductors)


def character_table(q: int) -> CharacterTable:
    """The full character group mod q, from its discrete-log lattice."""
    orders, units, conductors = _lattice(q)
    e = math.lcm(*orders)
    L = np.indices(orders).reshape(len(orders), -1).T
    exps = np.full((len(units), q), -1, dtype=np.int64)
    exps[:, units] = (L * (e // np.array(orders))) @ L.T % e
    # exponent -1 (a non-unit) reads the 0 appended past the roots
    vals = np.append(np.exp(2j * np.pi * np.arange(e) / e), 0)[exps]
    gauss = vals @ np.exp(2j * np.pi * np.arange(q) / q)
    return CharacterTable(q, exps, vals, e, conductors.copy(), gauss)


def multiplicative_ls_check(Q: int, coefficients, M: int = 0) -> tuple[float, float]:
    """Primitive-character energy against (N - 1 + Q^2) x coefficient energy.

    lhs = sum over q < Q of (q/phi(q)) sum over primitive chi mod q of
    |sum_n a_n chi(n)|^2.  The modulus q = 1 contributes the trivial
    character with weight 1 (its conductor is 1, hence primitive here).
    Per modulus the coefficients fold onto residues, A(r) = sum over
    n = r (mod q) of a_n with M reduced exactly, and one FFT of A over the
    units' lattice gives every character sum, each at the conjugate
    character, which has the same conductor.
    """
    a = np.asarray(coefficients, dtype=complex)
    N = len(a)
    lhs = 0.0
    for q in range(1, Q):
        orders, units, conductors = _lattice(q)
        prim = conductors == q
        if not prim.any():
            continue
        # a_n at n mod q, padded to whole periods (np.pad's set-up would cost more than the fold)
        lead, tail = np.zeros(M % q), np.zeros(-(M % q + N) % q)
        folded = np.concatenate((lead, a, tail)).reshape(-1, q).sum(axis=0)
        sums = np.fft.fftn(folded[units].reshape(orders)).ravel()[prim]
        lhs += q / len(units) * np.vdot(sums, sums).real
    rhs = float((N - 1 + Q * Q) * np.sum(np.abs(a) ** 2))
    return float(lhs), rhs


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
