"""Exact inclusion-exclusion sieving and density products.

The decomposition splits the exact survivor count into a density main term
``V(z, omega) * X`` and the signed remainder accumulated over squarefree
divisors of the prime product P(z).  Everything is exact rational
arithmetic, so ``total == main + remainder`` holds identically and the
real check is ``total == exact_sift``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .arith import primes_up_to, small_primes
from .problem import SieveProblem, SiftingDensity

EXP_MINUS_EULER = 0.561459483566885  # exp(-Euler constant), Mertens constant


@dataclass(frozen=True)
class SieveDecomposition:
    main: Fraction
    remainder: Fraction
    total: int

    def __post_init__(self):
        assert self.main + self.remainder == self.total


def density_product(density: SiftingDensity, z: int) -> Fraction:
    """V(z, omega) = prod over p < z of (1 - omega(p)/p), exact: prod (b_p - a_p) / prod b_p (``fractions``)."""
    if z < 2:
        raise ValueError("z must be >= 2")
    a, b = density.fractions(np.array(small_primes(z), dtype=np.int64))
    return Fraction(math.prod((b - a).tolist()), math.prod(b.tolist()))


def density_product_float(density: SiftingDensity, z: int) -> float:
    """Float-precision V(z, omega) for asymptotic comparisons at large z.

    With omega(p)/p = a_p/b_p (``SiftingDensity.fractions``), each factor
    1 - omega(p)/p is the one division (b_p - a_p) / b_p of integers, which
    is correctly rounded (in NumPy for int64 pairs, far below 2^53, and in
    Python for Python ints), and the factors are multiplied left to right,
    so the float is bit-identical to the ``Fraction`` chain.
    """
    if z < 2:
        raise ValueError("z must be >= 2")
    a, b = density.fractions(primes_up_to(z).primes)
    return math.prod(((b - a) / b).tolist(), start=1.0)


def legendre_decompose(problem: SieveProblem, z: int) -> SieveDecomposition:
    """Evaluate the exact sieve identity at level z.

    The total is the signed sum of mu(d) |A_d| over the squarefree divisors
    d of P(z) with nonzero density (the others contribute empty classes):
    the count sifted by those primes, read off their profile
    (``problem.reader(primes)``), so it is exact.  A profile prime outside
    them is inert and, as ``sifting_primes`` checked, divides no element.
    The profile raises BudgetError, before allocating, when its 2^pi(z)
    entries exceed the divisor cap.
    """
    primes = problem.sifting_primes(z)
    total = problem.reader(primes).sift_count(z)
    main = density_product(problem.density, z) * problem.X
    return SieveDecomposition(main, Fraction(total) - main, total)


def mertens_compare(z: int) -> tuple[float, float, float]:
    """V(z, 1) against exp(-Euler)/log z: (product, asymptotic, relative error)."""
    if z < 10:
        raise ValueError("z must be >= 10")
    product = density_product_float(SiftingDensity.unit(), z)
    asymptotic = EXP_MINUS_EULER / math.log(z)
    return product, asymptotic, abs(product / asymptotic - 1)


def dimension_fit(density: SiftingDensity, z1: int, z2: int) -> float:
    """Empirical sieve dimension from the decay of V between z1 and z2."""
    if not 2 < z1 < z2:
        raise ValueError("need 2 < z1 < z2")
    fit = density._fits.get((z1, z2))
    if fit is None:
        v1, v2 = density_product_float(density, z1), density_product_float(density, z2)
        if v1 == v2:
            fit = 0.0
        elif v2 == 0:
            raise ValueError("density product vanishes at z2")
        else:
            fit = math.log(v1 / v2) / math.log(math.log(z2) / math.log(z1))
        density._fits[(z1, z2)] = fit
    return fit
