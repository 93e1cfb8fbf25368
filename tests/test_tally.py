"""The integer tallies and int-ratio density floats against the Fraction loops they replaced."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from sievekit.arith import primes_up_to, small_primes
from sievekit.brun import PureSieveConfig, pure_sieve_bound
from sievekit.legendre import density_product, density_product_float, dimension_fit
from sievekit.problem import SiftingDensity, build_problem, divisor_tally, divisor_walk, exact_sift
from sievekit.reports import BoundReport
from sievekit.rosser import RosserWeightTable, default_sieve_functions, linear_sieve_bound, weight_walk

TABLE = primes_up_to(3000)


def reference_density_product_float(density, z):
    out = 1.0
    for p in small_primes(z):
        out *= 1 - density.omega(p) / p
    return out


def reference_dimension_fit(density, z1, z2):
    v1 = reference_density_product_float(density, z1)
    v2 = reference_density_product_float(density, z2)
    if v1 == v2:
        return 0.0
    if v2 == 0:
        raise ValueError("density product vanishes at z2")
    return math.log(v1 / v2) / math.log(math.log(z2) / math.log(z1))


def reference_remainder(problem, d, factors):
    """R_d = |A_d| - (omega(d)/d) X, with |A_d| from a scan of the element values."""
    count = int(np.count_nonzero(problem.values() % d == 0))
    return count - problem.density.omega_d(factors) / d * problem.X


def reference_pure_tally(problem, primes, cutoff, worst_case):
    # every subset of at most ``cutoff`` primes, grown one prime at a time
    subsets = [()]
    for p in primes:
        subsets += [s + (p,) for s in subsets if len(s) < cutoff]
    main = Fraction(0)
    rem = Fraction(0)
    for factors in subsets:
        d = math.prod(factors)
        w = problem.density.omega_d(factors)
        main += (-1) ** len(factors) * w / d
        rem += w if worst_case else abs(reference_remainder(problem, d, factors))
    return main * problem.X, rem


def reference_pure_sieve_bound(problem, config, worst_case):
    primes = [p for p in small_primes(config.z) if problem.density.omega(p) != 0]
    main, rem = reference_pure_tally(problem, primes, config.cutoff, worst_case)
    sign = 1 if config.parity == "upper" else -1
    return BoundReport(
        method="brun-pure", problem=problem.describe(),
        params={"z": config.z, "ell": config.ell, "cutoff": config.cutoff},
        direction=config.parity, main=main, remainder_bound=rem, bound=main + sign * rem,
        exact=exact_sift(problem, config.z),
    )


def reference_linear_tally(problem, primes, weights):
    rem = Fraction(0)
    for tag, d, factors, _mu in weight_walk(primes, weights):
        if tag == "rho":
            rem += abs(reference_remainder(problem, d, factors))
    return rem


def reference_linear_sieve_bound(problem, z, D, r, kappa, eps=0.1):
    functions = default_sieve_functions()
    tau = math.log(D) / math.log(z)
    main = functions.phi(r, tau) * float(density_product(problem.density, z) * problem.X)
    primes = [p for p in small_primes(z) if problem.density.omega(p) != 0]
    rem = reference_linear_tally(problem, primes, RosserWeightTable(D=D, beta=2.0, r=r))
    return BoundReport(
        method="rosser", problem=problem.describe(),
        params={"z": z, "D": D, "beta": 2.0, "parity": r, "tau": tau,
                "kappa_fit": kappa, "dimension_ok": abs(kappa - 1) <= 0.3},
        direction="upper" if r == 1 else "lower",
        main=main, remainder_bound=float(rem),
        bound=main + float(rem) if r == 1 else main - float(rem),
        exact=exact_sift(problem, z), slack=eps,
    )


def _problem(data):
    kind = data.draw(st.sampled_from(("interval", "twin", "goldbach", "progression", "shifted_prime", "custom")))
    x = data.draw(st.integers(60, 2500))
    if kind == "interval":
        params = {"x": x, "y": data.draw(st.integers(2, x))}
    elif kind in ("twin", "shifted_prime"):
        params = {"x": x}
    elif kind == "goldbach":
        params = {"N": 2 * (x // 2)}
    elif kind == "progression":
        k = data.draw(st.integers(1, 30))
        l = data.draw(st.integers(0, k - 1))
        assume(math.gcd(k, l) == 1)
        params = {"x": x, "k": k, "l": l}
    else:
        # a fractional density below p, vanishing at some primes, and a fractional X;
        # a prime may be inert (omega = 0) only if it divides no element, or the problem is refused
        u, v, m = (data.draw(st.integers(1, 9)) for _ in range(3))
        elements = data.draw(st.lists(st.integers(1, 10**6), min_size=1, max_size=300))
        density = SiftingDensity(
            lambda p: Fraction(0) if p % (m + 2) == 1 and all(e % p for e in elements)
            else Fraction(u * p, (u + v) * p - 1), 1.0)
        params = {"elements": elements, "density": density,
                  "X": Fraction(data.draw(st.integers(1, 10**6)), data.draw(st.integers(1, 97)))}
    return build_problem(kind, params, table=TABLE)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_tallies_match_fraction_loops(data):
    # z straddles the profile window _PROFILE_Z = 53
    prob = _problem(data)
    z = data.draw(st.sampled_from((2, 3, 11, 30, 52, 53, 54, 60, 67)))
    cutoff = data.draw(st.integers(0, 3))
    primes = [p for p in small_primes(z) if prob.density.omega(p) != 0]
    for worst_case in (False, True):
        tally = divisor_tally(prob, primes, divisor_walk(primes, max_nu=cutoff), worst_case=worst_case)
        assert tally == reference_pure_tally(prob, primes, cutoff, worst_case)
    config = PureSieveConfig(z, cutoff // 2, data.draw(st.sampled_from(("upper", "lower"))))
    worst_case = data.draw(st.booleans())
    assert pure_sieve_bound(prob, config, worst_case=worst_case).row() == \
        reference_pure_sieve_bound(prob, config, worst_case).row()

    zl = max(z, 3)
    D = float(data.draw(st.integers(zl + 1, 5000)))
    r = data.draw(st.integers(0, 1))
    weights = RosserWeightTable(D=D, beta=2.0, r=r)
    lprimes = [p for p in small_primes(zl) if prob.density.omega(p) != 0]
    kept = ((d, f, mu) for tag, d, f, mu in weight_walk(lprimes, weights) if tag == "rho")
    assert divisor_tally(prob, lprimes, kept)[1] == reference_linear_tally(prob, lprimes, weights)
    kappa = reference_dimension_fit(prob.density, 100, 10**5)
    assert linear_sieve_bound(prob, zl, D, r).row() == reference_linear_sieve_bound(prob, zl, D, r, kappa).row()


def test_bounds_rows_pinned_at_bench_scale():
    # problems of the size the bounds benchmark runs, above the profile window
    z = 60
    for prob in (build_problem("twin", {"x": 10**5}), build_problem("goldbach", {"N": 100002})):
        config = PureSieveConfig(z, 2, "upper")
        assert pure_sieve_bound(prob, config).row() == reference_pure_sieve_bound(prob, config, False).row()
        kappa = reference_dimension_fit(prob.density, 100, 10**5)
        assert linear_sieve_bound(prob, z, float(z) ** 3, 1).row() == \
            reference_linear_sieve_bound(prob, z, float(z) ** 3, 1, kappa).row()


@pytest.mark.parametrize("kind", ["twin", "goldbach", "progression", "shifted_prime"])
def test_tallies_across_the_profile_window(kind):
    # |A_d| is read off the default profile while every prime lies below 53,
    # and comes from count_multiple once 53 or 59 joins the walk
    params = {"twin": {"x": 2500}, "goldbach": {"N": 2500}, "shifted_prime": {"x": 2500},
              "progression": {"x": 2500, "k": 14, "l": 3}}[kind]  # 2 and 7 are inert
    prob = build_problem(kind, params, table=TABLE)
    kappa = reference_dimension_fit(prob.density, 100, 10**5)
    for z in (47, 53, 54, 60):
        primes = [p for p in small_primes(z) if prob.density.omega(p) != 0]
        for ell, parity in ((1, "upper"), (1, "lower"), (2, "upper")):
            config = PureSieveConfig(z, ell, parity)
            walk = divisor_walk(primes, max_nu=config.cutoff)
            assert divisor_tally(prob, primes, walk) == reference_pure_tally(prob, primes, config.cutoff, False)
            assert pure_sieve_bound(prob, config).row() == reference_pure_sieve_bound(prob, config, False).row()
        for D, r in ((float(z) ** 2, 0), (float(z) ** 3, 1), (1e4, 0)):
            weights = RosserWeightTable(D=D, beta=2.0, r=r)
            kept = ((d, f, mu) for tag, d, f, mu in weight_walk(primes, weights) if tag == "rho")
            assert divisor_tally(prob, primes, kept)[1] == reference_linear_tally(prob, primes, weights)
            rep = linear_sieve_bound(prob, z, D, r)
            assert rep.params["kappa_fit"] == kappa
            assert rep.row() == reference_linear_sieve_bound(prob, z, D, r, kappa).row(), (z, D, r)


DENSITIES = {
    "unit": lambda: build_problem("interval", {"x": 100, "y": 100}).density,
    "twin": lambda: build_problem("twin", {"x": 100}).density,
    # omega(p) = 1 at the small odd primes dividing N, 2 elsewhere
    "goldbach": lambda: build_problem("goldbach", {"N": 2 * 3 * 5 * 7 * 11 * 13 * 101}).density,
    "shifted_prime": lambda: build_problem("shifted_prime", {"x": 100}, table=TABLE).density,
}


@pytest.mark.parametrize("name", sorted(DENSITIES))
def test_density_floats_bit_equal_to_fraction_chain(name):
    density = DENSITIES[name]()
    for z in (2, 3, 10, 53, 54, 101, 102, 1000, 10**4):
        assert density_product_float(density, z).hex() == reference_density_product_float(density, z).hex()
    # z1 = 101 and 97 are prime (v1 stops just below them); [98, 100) holds no prime
    for z1, z2 in ((10, 100), (97, 98), (98, 100), (101, 1009), (100, 10**5)):
        fit = dimension_fit(density, z1, z2)
        assert fit.hex() == reference_dimension_fit(density, z1, z2).hex(), (z1, z2)
        assert dimension_fit(density, z1, z2) is fit
    assert dimension_fit(density, 10, 100) != dimension_fit(density, 100, 10**5)
