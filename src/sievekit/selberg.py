"""Quadratic-form sieve: optimal weights, dual route, pseudo-characters.

The upper-bound device squares a weighted divisor sum, so any real weights
with lambda(1) = 1 give a bound; minimizing the resulting quadratic form S
under that side condition yields closed-form optimal weights and the
minimum value 1/G(z).  The same bound re-emerges through an exponential-sum
expansion and the additive large-sieve inequality; both routes are
implemented and checked against each other exactly.

The dual route factors each Farey coefficient through one exact rational
c_q per support modulus q: the roots of a squarefree d reduce mod q | d
onto those of q, each |Omega(d/q)| times, so b(a/q) = c_q sum over r in
Omega(q) of e(-ar/q).  Its energy, the sum over q of c_q^2 times Ramanujan
sums over pairs of roots of q, equals S without the form's lcm terms.

Weights are supported on squarefree d < z composed of primes carrying a
nonempty residue set; primes with empty residue sets do not participate.
Each d keeps the primes it was built from (``LambdaWeights.primes``), so
no kernel factors a d again: ``factorize`` runs only on integers a
caller hands in (``invert_xi``'s keys, ``ramanujan_sum``, ``psi_value``).

Two generalizations are noted but out of scope here: twisting the kernel
rows by primitive Dirichlet characters (multiplying psi_q(n) by
chi(n) (k/phi(k))^(1/2) for coprime moduli k q < z gives a hybrid
inequality family with the same constant), and minimizing the analogous
quadratic form weighted by an arbitrary arithmetic function in place of
interval counting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .arith import BudgetError, divisors, factor_squarefree, factorize, mobius, small_primes
from .problem import OmegaForm, ResidueSystem, SieveProblem, exact_sift
from .reports import BoundReport

DUAL_ENERGY_RTOL = 1e-9  # relative drift allowed between the complex dual energy and the exact form
PSEUDO_Z_CAP = 100  # largest z of a dense pseudo-character table
PSEUDO_N_CAP = 10**4  # longest interval of a dense pseudo-character table


def _supported_squarefree(z: int, residues: ResidueSystem) -> list[tuple[int, tuple[int, ...]]]:
    """Squarefree q < z built from supported primes, ascending, with factors."""
    primes = [p for p in small_primes(z) if residues.supported(p)]
    out = [(1, ())]
    for p in primes:
        out.extend((q * p, fac + (p,)) for q, fac in list(out) if q * p < z)
    return sorted(out)


def H_factor(q_factors, residues: ResidueSystem) -> Fraction:
    """prod over p | q of |Omega(p)| / (p - |Omega(p)|), exact."""
    out = Fraction(1)
    for p in q_factors:
        size = residues.size(p)
        if not 0 < size < p:
            raise ValueError(f"prime {p} needs 0 < |Omega(p)| < p")
        out *= Fraction(size, p - size)
    return out


def G_sum(z: int, residues: ResidueSystem) -> Fraction:
    """Sum of H over squarefree supported q < z (the normalizing sum)."""
    if z < 2:
        raise ValueError("z must be >= 2")
    return sum((H_factor(fac, residues) for _, fac in _supported_squarefree(z, residues)), Fraction(0))


@dataclass(frozen=True)
class LambdaWeights:
    """Optimal quadratic-form weights lambda(d) for d < z, with their G and the ascending primes of each d."""

    z: int
    values: dict[int, Fraction]
    G: Fraction
    primes: dict[int, tuple[int, ...]]

    def __post_init__(self):
        if not self.values.keys() <= self.primes.keys():
            raise ValueError("every weighted d needs its primes")
        if self.values.get(1) != 1:
            raise ValueError("lambda(1) must be 1")
        if any(abs(v) > 1 for v in self.values.values()):
            raise ValueError("weights must stay within [-1, 1]")

    def lam(self, d: int) -> Fraction:
        return self.values.get(d, Fraction(0))


def optimal_lambda(z: int, residues: ResidueSystem) -> LambdaWeights:
    """Closed-form minimizer of the sieve quadratic form, exact rationals."""
    if z < 2:
        raise ValueError("z must be >= 2")
    qs = _supported_squarefree(z, residues)
    H = {q: H_factor(fac, residues) for q, fac in qs}
    G = sum(H.values(), Fraction(0))
    values: dict[int, Fraction] = {}
    for d, fac in qs:
        mu = (-1) ** len(fac)
        lift = Fraction(1)
        for p in fac:
            lift *= Fraction(p, p - residues.size(p))
        tail = sum(
            (H[g] for g, gfac in qs if g * d < z and math.gcd(g, d) == 1),
            Fraction(0),
        )
        values[d] = mu * lift * tail / G
    return LambdaWeights(z=z, values=values, G=G, primes=dict(qs))


def _numerators(weights: LambdaWeights) -> tuple[int, list[tuple[int, int]]]:
    """(D, [(d, n_d)]): each nonzero lambda(d) as n_d / D over their least common denominator D."""
    items = [(d, lam) for d, lam in weights.values.items() if lam != 0]
    D = math.lcm(*(lam.denominator for _, lam in items))
    return D, [(d, lam.numerator * (D // lam.denominator)) for d, lam in items]


def _lcm_terms(weights: LambdaWeights) -> tuple[int, int, list[tuple[list[int], int, int]]]:
    """(D, P, [(primes of m, m, c_m)]): sum of lambda(d1) lambda(d2) f([d1, d2]) is sum c_m f(m) / D^2.

    The c_m are integers and P is the product of the support's primes.  A
    new lcm takes the merged primes of d1 and d2, so no lcm is factored.
    """
    D, items = _numerators(weights)
    rows = [(d, weights.primes[d], n) for d, n in items]
    coeff: dict[int, int] = {}
    facs: dict[int, list[int]] = {}
    for i, (d1, f1, n1) in enumerate(rows):
        for d2, f2, n2 in rows[i:]:
            m = d1 * d2 // math.gcd(d1, d2)
            if m not in coeff:
                coeff[m], facs[m] = 0, sorted({*f1, *f2})
            coeff[m] += (1 if d1 == d2 else 2) * n1 * n2
    return D, math.prod({p for _, f, _ in rows for p in f}), [(facs[m], m, c) for m, c in coeff.items()]


def quadratic_form(weights: LambdaWeights, residues: ResidueSystem) -> Fraction:
    """S = double sum of |Omega(lcm)|/lcm * lambda(d1) lambda(d2), exact: one integer over P D^2."""
    D, P, terms = _lcm_terms(weights)
    return Fraction(sum(c * residues.size_d(fac) * (P // m) for fac, m, c in terms), P * D * D)


def xi_transform(weights: LambdaWeights, residues: ResidueSystem) -> dict[int, Fraction]:
    """Forward diagonalizing transform of the weights.

    xi(f) = sum over d < z, f | d of (|Omega(d)|/d) lambda(d).
    """
    terms = [(d, Fraction(residues.size_d(weights.primes[d]), d) * lam) for d, lam in weights.values.items()]
    return {f: sum((t for d, t in terms if d % f == 0), Fraction(0)) for f in weights.values}


def invert_xi(xi: dict[int, Fraction], residues: ResidueSystem, z: int) -> dict[int, Fraction]:
    """Inverse transform recovering lambda from xi, exact."""
    out: dict[int, Fraction] = {}
    supported = sorted(xi)
    facs = {d: factorize(d) for d in supported}  # each key factored once
    mu = {g: 0 if any(e > 1 for _, e in f) else (-1) ** len(f) for g, f in facs.items()}
    for d in supported:
        total = Fraction(0)
        for g in supported:
            if d * g < z and math.gcd(d, g) == 1 and d * g in xi:
                total += mu[g] * xi[d * g]
        out[d] = Fraction(d, residues.size_d(p for p, _ in facs[d])) * total
    return out


def _as_problem(problem) -> tuple[str, SieveProblem]:
    """(report name, problem) of a SieveProblem with a residue form, or of a bare OmegaForm.

    A bare form is wrapped in a problem of its own, with the form's density
    omega(p) = |Omega(p)|, so that its counts go through the same reader.
    """
    if isinstance(problem, OmegaForm):
        wrapped = SieveProblem("custom", {}, Fraction(problem.N), problem.density(), problem)
        return f"interval[{problem.M},{problem.M + problem.N})", wrapped
    if isinstance(problem, SieveProblem):
        return problem.describe(), problem
    raise TypeError("expected a SieveProblem with a residue form or an OmegaForm")


def _true_remainder(problem: SieveProblem, weights: LambdaWeights) -> Fraction:
    """Signed remainder sum of lambda(d1) lambda(d2) R_[d1,d2] over the interval, exact.

    R_m = |A_m| - |Omega(m)| N / m, so the sum is (P sum c_m |A_m| - N sum
    c_m |Omega(m)| P/m) / (P D^2), two integer sums (see ``_lcm_terms``).
    Each |A_m| comes from the problem's reader of the support's primes.
    """
    D, P, terms = _lcm_terms(weights)
    read = problem.reader({p for fac, _, _ in terms for p in fac}, len(terms))
    form = problem.omega_form()
    rs, counted, main = form.residues, 0, 0
    for fac, m, c in terms:
        counted += c * read.count_multiple(fac)
        main += c * rs.size_d(fac) * (P // m)
    return Fraction(counted * P - main * form.N, P * D * D)


def selberg_upper_bound(problem, z: int, *, worst_case: bool = False) -> BoundReport:
    """Upper bound N/G + R for the sifted interval, remainder tallied exactly.

    The signed true remainder keeps ``bound >= exact`` an identity (the
    bound equals the full square sum over the interval); ``worst_case``
    swaps in the crude (sum |Omega(d)|)^2 estimate.
    """
    desc, problem = _as_problem(problem)
    form = problem.omega_form()
    weights = optimal_lambda(z, form.residues)
    main = Fraction(form.N) / weights.G
    if worst_case:
        rem = Fraction(sum(map(form.residues.size_d, weights.primes.values()))) ** 2
    else:
        rem = _true_remainder(problem, weights)
    bound = main + rem
    exact = exact_sift(problem, z)
    return BoundReport(
        method="selberg",
        problem=desc,
        params={"z": z, "worst_case": worst_case},
        direction="upper",
        main=main,
        remainder_bound=rem,
        bound=bound,
        exact=exact,
    )


def ramanujan_sum(q: int, m: int) -> int:
    """c_q(m) by Mobius over divisors: sum of u mu(q/u) over u | gcd(q, m)."""
    return sum(u * mobius(q // u) for u in divisors(math.gcd(q, m)))


def _dual_coefficients(weights: LambdaWeights, residues: ResidueSystem) -> dict[int, Fraction]:
    """c_q = sum over d < z with q | d of lambda(d) |Omega(d/q)| / d, exact, by support modulus q ascending.

    |Omega| is multiplicative on squarefree d, so c_q is xi(q) / |Omega(q)|.
    """
    xi = xi_transform(weights, residues)
    return {q: xi[q] / residues.size_d(weights.primes[q]) for q in sorted(xi)}


def dual_coefficient_sum(weights: LambdaWeights, residues: ResidueSystem) -> Fraction:
    """Farey-coefficient energy of the dual expansion, via Ramanujan sums.

    Summing |b(a/q)|^2 = c_q^2 |sum over r in Omega(q) of e(-ar/q)|^2 over a
    coprime to q leaves c_q^2 times the Ramanujan sums c_q(r - s) over pairs
    of roots.  Equals the quadratic form S exactly, without its lcm terms.
    """
    total = Fraction(0)
    for q, c in _dual_coefficients(weights, residues).items():
        roots = residues.roots_mod(weights.primes[q])
        total += c * c * sum(ramanujan_sum(q, r - s) for r in roots for s in roots)
    return total


def dual_b_values(weights: LambdaWeights, residues: ResidueSystem) -> tuple[list[Fraction], np.ndarray]:
    """Farey points a/q (q < z supported, then a coprime to q, ascending) and complex coefficients b(a/q).

    Each b(a/q) is c_q times a row sum of one table of e(-ar/q) over the
    roots r of q, with a r reduced mod q in integers.
    """
    points: list[Fraction] = []
    values = []
    for q, c in _dual_coefficients(weights, residues).items():
        a = [k for k in range(q) if math.gcd(k, q) == 1]  # q = 1 keeps a = 0
        ar = np.outer(a, residues.roots_mod(weights.primes[q])) % q
        values.append(float(c) * np.exp(-2j * np.pi / q * ar).sum(axis=1))
        points.extend(Fraction(k, q) for k in a)
    return points, np.concatenate(values)


def linnik_bound(problem, z: int) -> BoundReport:
    """(N + z^2)/G bound derived through the dual exponential-sum route.

    Verifies (a) the Farey coefficient energy equals the quadratic form
    exactly, (b) the same numerically through the complex b values, and
    (c) the interval energy inequality instance of the additive large
    sieve on this data.
    """
    desc, problem = _as_problem(problem)
    form = problem.omega_form()
    weights = optimal_lambda(z, form.residues)
    S = quadratic_form(weights, form.residues)
    if S != 1 / weights.G:
        raise AssertionError("optimal weights missed the quadratic-form minimum")
    exact = exact_sift(problem, z)
    if dual_coefficient_sum(weights, form.residues) != S:
        raise AssertionError("dual coefficient energy disagrees with the form")
    points, b = dual_b_values(weights, form.residues)
    energy = float(np.sum(np.abs(b) ** 2))
    if abs(energy - float(S)) > DUAL_ENERGY_RTOL * max(1.0, float(S)):
        raise AssertionError("complex dual energy drifted from the exact form")
    _additive_instance_check(form, points, b, exact)
    bound = (form.N + Fraction(z) ** 2) * S
    return BoundReport(
        method="linnik",
        problem=desc,
        params={"z": z},
        direction="upper",
        main=bound,
        remainder_bound=0.0,
        bound=bound,
        exact=exact,
    )


def _additive_instance_check(form: OmegaForm, points, b, exact: int) -> None:
    """The interval energy of the dual expansion sandwiches correctly.

    Pointwise the squared expansion dominates the survivor indicator, so
    its interval energy is at least the survivor count ``exact``; dually
    the additive large-sieve inequality caps it by (N - 1 + 1/delta) times
    the coefficient energy.
    """
    from .largesieve import SeparatedPoints, dual_ls_check

    if len(points) > 1:
        # delta left open: the construction certifies the least separation once and keeps it
        lhs, _rhs, ratio = dual_ls_check(SeparatedPoints(tuple(points)), b, form.M, form.N)
        if ratio > 1 + 1e-12:
            raise AssertionError("additive large-sieve instance violated")
    else:
        # one point: |b e(n t)|^2 = |b|^2 at every n
        lhs = form.N * abs(b[0]) ** 2
    if lhs < exact - 1e-9 * max(1.0, exact):
        raise AssertionError("interval energy fell below the survivor count")


def psi_value(q: int, n: int, residues: ResidueSystem) -> float:
    """Single pseudo-character value: mu(q) sqrt(H(q)) times the kernel.

    The kernel multiplies -1/H(p) over primes p | q whose residue set
    contains n; q must be squarefree with supported primes.
    """
    fac = sorted(factor_squarefree(q))  # ValueError on a q that is not squarefree
    out = (-1) ** len(fac) * math.sqrt(H_factor(fac, residues))
    for p in fac:
        if n % p in residues.classes[p]:
            out *= -1 / float(H_factor((p,), residues))
    return out


@dataclass(frozen=True)
class PseudoCharacterMatrix:
    """Rows psi_q(n) for supported squarefree q < z over an interval.

    psi_q(n) = mu(q) sqrt(H(q)) * prod over p | q with n in Omega(p) of
    (-1/H(p)); the rows act like characters in the large-sieve inequality
    with constant N - 1 + z^2.
    """

    z: int
    M: int
    N: int
    qs: tuple[int, ...]
    matrix: np.ndarray
    residues: ResidueSystem
    G: Fraction

    def ls_constant(self) -> float:
        return self.N - 1 + self.z**2

    def row_check(self, a: np.ndarray) -> tuple[float, float]:
        """(lhs, rhs) of the row-sum inequality for coefficients a over n."""
        lhs = float(np.sum(np.abs(self.matrix @ a) ** 2))
        rhs = self.ls_constant() * float(np.sum(np.abs(a) ** 2))
        return lhs, rhs

    def column_check(self, b: np.ndarray) -> tuple[float, float]:
        """(lhs, rhs) of the dual inequality for coefficients b over q."""
        lhs = float(np.sum(np.abs(self.matrix.T @ b) ** 2))
        rhs = self.ls_constant() * float(np.sum(np.abs(b) ** 2))
        return lhs, rhs

    def sifted_recovery_check(self) -> tuple[float, float, float]:
        """Row inequality at the survivor indicator recovers (N + z^2)/G.

        Returns (survivor count, recovered bound, direct (N + z^2)/G).
        """
        form = OmegaForm(self.M, self.N, self.residues)
        indicator = form.survivor_mask(self.z).astype(float)
        lhs, _ = self.row_check(indicator)
        count = float(indicator.sum())
        # lhs = count^2 * G, so count * G <= N - 1 + z^2
        recovered = (self.N - 1 + self.z**2) / float(self.G)
        direct = (self.N + self.z**2) / float(self.G)
        if count > 0:
            measured = lhs / count  # equals count * G
            if measured > self.N - 1 + self.z**2 + 1e-6:
                raise AssertionError("survivor indicator violated the row inequality")
        return count, recovered, direct


def pseudo_character_matrix(z: int, residues: ResidueSystem, M: int, N: int) -> PseudoCharacterMatrix:
    """Dense pseudo-character table over [M, M+N), with the weight identity.

    Asserts exactly (per distinct membership pattern) that the optimal
    weights aggregate to (1/G) sum over q of H(q) Psi_q(n).
    """
    if z > PSEUDO_Z_CAP or N > PSEUDO_N_CAP:
        raise BudgetError(f"pseudo-character matrix budget exceeded (z={z}, N={N})")
    weights = optimal_lambda(z, residues)
    qs = list(weights.primes.items())
    H = {q: H_factor(fac, residues) for q, fac in qs}
    n = np.arange(M, M + N, dtype=np.int64)
    primes = [p for p in small_primes(z) if residues.supported(p)]
    member = {p: np.isin(n % p, residues.classes[p]) for p in primes}
    rows = []
    for q, fac in qs:
        row = np.full(N, (-1) ** len(fac) * math.sqrt(H[q]))
        for p in fac:
            hp = float(H_factor((p,), residues))
            row *= np.where(member[p], -1.0 / hp, 1.0)
        rows.append(row)
    matrix = np.vstack(rows)
    _weight_identity_check(weights, residues, qs, H, member, primes)
    return PseudoCharacterMatrix(
        z=z, M=M, N=N, qs=tuple(q for q, _ in qs), matrix=matrix,
        residues=residues, G=weights.G,
    )


def _weight_identity_check(weights, residues, qs, H, member, primes) -> None:
    """lambda aggregated over residue membership equals the H-weighted kernel sum."""
    if not primes:
        return
    pattern_bits = np.zeros(len(member[primes[0]]), dtype=np.int64)
    for i, p in enumerate(primes):
        pattern_bits |= member[p].astype(np.int64) << i
    for pattern in np.unique(pattern_bits):
        inside = {p for i, p in enumerate(primes) if pattern >> i & 1}
        lhs = sum(
            (lam for d, lam in weights.values.items() if inside.issuperset(weights.primes[d])),
            Fraction(0),
        )
        rhs = Fraction(0)
        for q, fac in qs:
            psi = Fraction(1)
            for p in fac:
                if p in inside:
                    psi *= -1 / H_factor((p,), residues)
            rhs += H[q] * psi
        rhs /= weights.G
        if lhs != rhs:
            raise AssertionError(f"weight aggregation identity failed at pattern {pattern:b}")
