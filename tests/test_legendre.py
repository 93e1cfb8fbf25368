import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from sievekit.arith import BudgetError, primes_up_to, small_primes
from sievekit.legendre import (
    EXP_MINUS_EULER,
    density_product,
    density_product_float,
    dimension_fit,
    legendre_decompose,
    mertens_compare,
)
from sievekit.problem import DivisorTerms, SiftingDensity, build_problem, exact_sift

from reference import density_factors, plain_sieve


def twin_density():
    return SiftingDensity(lambda p: Fraction(1 if p == 2 else 2))


def test_density_product_examples():
    assert density_product(SiftingDensity.unit(), 10) == Fraction(8, 35)
    assert density_product(SiftingDensity.unit(), 2) == 1
    assert density_product(twin_density(), 5) == Fraction(1, 6)


def test_density_product_monotone():
    dens = twin_density()
    vals = [density_product(dens, z) for z in range(2, 60)]
    assert all(a >= b for a, b in zip(vals, vals[1:]))
    assert density_product(dens, 4) > density_product(dens, 6)


DENSITIES = {
    "interval": lambda: build_problem("interval", {"x": 100, "y": 90}).density,
    "twin": lambda: build_problem("twin", {"x": 100}).density,
    "goldbach": lambda: build_problem("goldbach", {"N": 2 * 3 * 5 * 53}).density,
    "progression": lambda: build_problem("progression", {"x": 100, "k": 6 * 53, "l": 1}).density,
    "shifted_prime": lambda: build_problem("shifted_prime", {"x": 100}, table=primes_up_to(103)).density,
    "unit": SiftingDensity.unit,
    "zero": SiftingDensity.zero,
    # omega(p) = 1/2^70, so every b_p = p 2^70 lies past the int64 range
    "tiny": lambda: SiftingDensity(lambda p: Fraction(1, 2**70)),
}


@pytest.mark.parametrize("name", sorted(DENSITIES))
def test_density_products_match_per_prime_chain(name):
    density = DENSITIES[name]()
    for z in (2, 3, 53, 54, 1000):
        factors = density_factors(density, z)
        assert density_product(density, z) == math.prod(factors, start=Fraction(1)), z
        chain = 1.0
        for f in factors:
            chain *= float(f)
        assert density_product_float(density, z).hex() == chain.hex(), z
        primes = tuple(plain_sieve(z).tolist())
        terms = DivisorTerms(density, primes)
        masks = np.array([1 << i for i in range(len(primes))] + [(1 << len(primes)) - 1],
                         dtype=np.int64 if len(primes) < 63 else object)
        *each, every = (Fraction(n, terms.L) for n in terms.numerators(masks))
        assert each == [1 - f for f in factors], z
        assert every == math.prod((1 - f for f in factors), start=Fraction(1)), z


def test_decompose_interval_30():
    prob = build_problem("interval", {"x": 30, "y": 30})
    dec = legendre_decompose(prob, 6)
    assert dec.total == 8
    assert dec.main == Fraction(30) * Fraction(1, 2) * Fraction(2, 3) * Fraction(4, 5)
    assert dec.main == 8 and dec.remainder == 0


def test_decompose_z2_is_trivial():
    prob = build_problem("twin", {"x": 100})
    dec = legendre_decompose(prob, 2)
    assert dec.main == prob.X
    assert dec.remainder == prob.size - prob.X
    assert dec.total == prob.size


def _inert_at(q):
    return SiftingDensity(lambda p: Fraction(0) if p == q else Fraction(1))


def test_inert_prime_dividing_an_element_raises():
    # omega(3) = 0 drops 3 from the sifting primes while the oracle still sifts by it:
    # Legendre's total would read 34 against exact_sift's 22, so the problem is refused
    prob = build_problem("custom", {"elements": list(range(1, 100)), "density": _inert_at(3)})
    assert exact_sift(prob, 10) == 22
    with pytest.raises(ValueError, match=r"omega\(3\) = 0"):
        prob.sifting_primes(10)
    with pytest.raises(ValueError, match=r"omega\(3\) = 0"):
        legendre_decompose(prob, 10)
    assert prob.sifting_primes(3) == (2,)  # 3 is not below z = 3, so it is not asked about


def test_inert_prime_dividing_no_element_is_dropped_once():
    prob = build_problem("custom", {"elements": list(range(1, 100, 2)), "density": _inert_at(2)})
    calls = []
    count_multiple = prob.count_multiple
    prob.count_multiple = lambda d, d_primes=None: calls.append(d) or count_multiple(d, d_primes)
    assert prob.sifting_primes(10) == (3, 5, 7)
    assert prob.sifting_primes(12) == (3, 5, 7, 11)
    assert calls == [2]  # checked once per problem and prime
    assert legendre_decompose(prob, 10).total == exact_sift(prob, 10)
    # shifted_prime has omega(2) = 0, and 2 divides no p + 2 with p odd
    shifted = build_problem("shifted_prime", {"x": 2000}, table=primes_up_to(2002))
    assert shifted.sifting_primes(10) == (3, 5, 7)
    assert legendre_decompose(shifted, 10).total == exact_sift(shifted, 10)


def test_decompose_matches_oracle_all_kinds():
    from sievekit.arith import primes_up_to

    table = primes_up_to(2100)
    problems = [
        build_problem("interval", {"x": 10**4, "y": 7000}),
        build_problem("twin", {"x": 2000}),
        build_problem("goldbach", {"N": 2000}),
        build_problem("progression", {"x": 3000, "k": 6, "l": 5}),
        build_problem("parity", {"x": 2000, "r": 0}),
        build_problem("shifted_prime", {"x": 2000}, table=table),
        build_problem("custom", {"elements": list(range(51, 2000, 4)), "X": 487}),
    ]
    for prob in problems:
        for z in range(2, 31):
            dec = legendre_decompose(prob, z)
            assert dec.total == exact_sift(prob, z), (prob.kind, z)
            assert dec.main + dec.remainder == dec.total


def test_decompose_above_profile_window():
    # past _PROFILE_Z = 53 the counts come from a profile over exactly the sifting primes
    twin = build_problem("twin", {"x": 10**5})
    for z, total in ((54, 2460), (60, 2371)):
        dec = legendre_decompose(twin, z)
        assert dec.total == dec.main + dec.remainder == exact_sift(twin, z) == total
    others = (build_problem("progression", {"x": 3000, "k": 53, "l": 5}), build_problem("parity", {"x": 2000, "r": 1}))
    for prob in others:
        for z in (53, 54, 60):
            dec = legendre_decompose(prob, z)
            assert dec.total == dec.main + dec.remainder == exact_sift(prob, z), (prob.kind, z)


def reference_walk_total(prob, z):
    """The per-divisor walk: mu(d) |A_d| summed over every subset of the sifting primes,
    each |A_d| read from the profile's superset table."""
    primes = [p for p in small_primes(z) if prob.density.omega(p) != 0]
    prof = prob.profile() if z <= 53 else prob.profile(tuple(primes))
    terms = [((), 1)]
    for p in primes:
        terms += [(f + (p,), -mu) for f, mu in terms]
    return sum(mu * prof.count_multiple(f) for f, mu in terms)


def fold_problems():
    table = primes_up_to(10**4 + 2)
    extremes = [0, 1, -1, -2**63, 2**63 - 1, 30030, -30030, math.prod(small_primes(53))]
    return [
        build_problem("interval", {"x": 10**4, "y": 7000}),
        build_problem("twin", {"x": 10**4}),
        build_problem("goldbach", {"N": 10030}),
        build_problem("progression", {"x": 10**4, "k": 6, "l": 5}),
        build_problem("parity", {"x": 10**4, "r": 1}),
        build_problem("shifted_prime", {"x": 10**4}, table=table),
        build_problem("custom", {"elements": extremes + list(range(-3000, 3000, 7)), "X": 857}),
    ]


@pytest.mark.parametrize("z", [2, 15, 52, 53, 54, 60])
def test_decompose_fold_matches_per_divisor_walk(z):
    for prob in fold_problems():
        dec = legendre_decompose(prob, z)
        assert dec.total == reference_walk_total(prob, z) == exact_sift(prob, z), (prob.kind, z)


def test_decompose_refuses_past_divisor_cap():
    for prob in fold_problems():
        # the least z with 26 sifting primes: 103 unless some prime is inert
        z = next(w for w in range(103, 200) if len(prob.sifting_primes(w)) == 26)
        tracemalloc.start()
        try:
            with pytest.raises(BudgetError):
                legendre_decompose(prob, z)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 16, (prob.kind, peak)


def test_decompose_budget_guard():
    prob = build_problem("interval", {"x": 10**6, "y": 10**6})
    with pytest.raises(BudgetError):
        legendre_decompose(prob, 120)


def test_mertens_compare():
    product, asymptotic, err = mertens_compare(10)
    assert product == pytest.approx(8 / 35)
    assert asymptotic == pytest.approx(EXP_MINUS_EULER / math.log(10))
    # the hardcoded Mertens constant agrees with exp(-gamma)
    assert EXP_MINUS_EULER == pytest.approx(math.exp(-0.5772156649015329), abs=1e-15)


def test_mertens_error_shrinks():
    _, _, err4 = mertens_compare(10**4)
    _, _, err6 = mertens_compare(10**6)
    assert err4 < 0.06
    assert err6 < err4


def test_dimension_fit():
    assert dimension_fit(SiftingDensity.unit(), 100, 10**6) == pytest.approx(1.0, abs=0.1)
    assert dimension_fit(SiftingDensity.zero(), 10, 100) == 0.0
    assert dimension_fit(twin_density(), 100, 10**5) == pytest.approx(2.0, abs=0.2)


def test_interval_main_term_ratio_reported():
    # main / (y / log x) tends toward 2 * exp(-Euler); reported, not asserted as a limit
    x = 10**6
    prob = build_problem("interval", {"x": x, "y": x // 2})
    z = math.isqrt(x)
    main = float(density_product(prob.density, z) * prob.X)
    ratio = main / (float(prob.X) / math.log(x))
    assert 2 * EXP_MINUS_EULER * 0.8 < ratio < 2 * EXP_MINUS_EULER * 1.4
