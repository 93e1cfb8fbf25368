"""The integer tallies and int-ratio density floats against the Fraction loops they replaced."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from sievekit import problem
from sievekit.arith import BudgetError, primes_up_to, small_primes
from sievekit.brun import PureSieveConfig, pure_sieve_bound
from sievekit.legendre import density_product, density_product_float, dimension_fit
from sievekit.problem import (
    DivisorTerms, SiftingDensity, _Profile, _level_rule, build_problem, divisor_tally, exact_sift, squarefree_masks,
)
from sievekit.reports import BoundReport
from sievekit.rosser import RosserWeightTable, default_sieve_functions, linear_sieve_bound

from reference import affine_elements, brute_roots, combination_walk, count_multiples, eta_walk

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
    count = count_multiples(problem.values(), d)
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
    for tag, d, factors, _mu in eta_walk(primes, weights.D, weights.beta, weights.r):
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
    kind = data.draw(st.sampled_from(
        ("interval", "twin", "goldbach", "progression", "shifted_prime", "parity", "custom")))
    x = data.draw(st.integers(60, 2500))
    if kind == "interval":
        # 2310 = 2 * 3 * 5 * 7 * 11 elements: R_d = 0 for every d | 2310
        y = data.draw(st.one_of(st.integers(2, x), st.just(2310)))
        params = {"x": max(x, y), "y": y}
    elif kind == "parity":
        params = {"x": x, "r": data.draw(st.integers(0, 1))}
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
            else Fraction(u * p, (u + v) * p - 1))
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
        tally = divisor_tally(prob, primes, squarefree_masks(primes, max_nu=cutoff), worst_case=worst_case)
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
    walk = squarefree_masks(lprimes, level=weights)
    assert divisor_tally(prob, lprimes, walk)[1] == reference_linear_tally(prob, lprimes, weights)
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
            walk = squarefree_masks(primes, max_nu=config.cutoff)
            assert divisor_tally(prob, primes, walk) == reference_pure_tally(prob, primes, config.cutoff, False)
            assert pure_sieve_bound(prob, config).row() == reference_pure_sieve_bound(prob, config, False).row()
        for D, r in ((float(z) ** 2, 0), (float(z) ** 3, 1), (1e4, 0)):
            weights = RosserWeightTable(D=D, beta=2.0, r=r)
            walk = squarefree_masks(primes, level=weights)
            assert divisor_tally(prob, primes, walk)[1] == reference_linear_tally(prob, primes, weights)
            rep = linear_sieve_bound(prob, z, D, r)
            assert rep.params["kappa_fit"] == kappa
            assert rep.row() == reference_linear_sieve_bound(prob, z, D, r, kappa).row(), (z, D, r)


DENSITIES = {
    "unit": lambda: build_problem("interval", {"x": 100, "y": 100}).density,
    "twin": lambda: build_problem("twin", {"x": 100}).density,
    # omega(p) = 1 at the small odd primes dividing N, 2 elsewhere
    "goldbach": lambda: build_problem("goldbach", {"N": 2 * 3 * 5 * 7 * 11 * 13 * 101}).density,
    "shifted_prime": lambda: build_problem("shifted_prime", {"x": 100}, table=TABLE).density,
    # omega(2) = omega(3) = 0: factors of exactly 1.0 in the bulk product
    "progression": lambda: build_problem("progression", {"x": 100, "k": 6, "l": 1}).density,
    # 99991 is prime: omega(99991) = 1 among the bulk counts of 2 up to 10^5
    "goldbach_large_prime": lambda: build_problem("goldbach", {"N": 2 * 99991}).density,
}


@pytest.mark.parametrize("name", sorted(DENSITIES))
def test_density_floats_bit_equal_to_fraction_chain(name):
    density = DENSITIES[name]()
    for z in (2, 3, 10, 53, 54, 101, 102, 1000, 10**4, 99991, 99992, 10**5):
        assert density_product_float(density, z).hex() == reference_density_product_float(density, z).hex()
    # z1 = 101 and 97 are prime (v1 stops just below them); [98, 100) holds no prime
    for z1, z2 in ((10, 100), (97, 98), (98, 100), (101, 1009), (100, 10**5)):
        fit = dimension_fit(density, z1, z2)
        assert fit.hex() == reference_dimension_fit(density, z1, z2).hex(), (z1, z2)
        assert dimension_fit(density, z1, z2) is fit
    assert dimension_fit(density, 10, 100) != dimension_fit(density, 100, 10**5)


ROUTE_PROBLEMS = {
    "twin": ("twin", {"x": 3000}),
    # 59 | N, so omega(59) = 1 and Omega(59) is the one class 0
    "goldbach": ("goldbach", {"N": 2 * 3 * 59 * 11}),
    # 53 | k: the walk skips the inert 53 from z = 54 on
    "progression": ("progression", {"x": 3000, "k": 2 * 53, "l": 3}),
    "shifted_prime": ("shifted_prime", {"x": 2500}),
    "parity": ("parity", {"x": 3000, "r": 1}),
}


@pytest.mark.parametrize("name", sorted(ROUTE_PROBLEMS))
def test_tally_routes_agree_across_the_window(name):
    # |A_d| read off profile(primes) against count_multiple, divisor by divisor
    # and summed into (main, rem) by both routes, at and above z = 53
    kind, params = ROUTE_PROBLEMS[name]
    for z in (53, 54, 60, 72):
        prob = build_problem(kind, params, table=TABLE)
        primes = prob.sifting_primes(z)
        prof = prob.profile(primes)
        for d, factors, _mu in combination_walk(primes, 3):
            assert prof.count_multiple(factors) == prob.count_multiple(d, factors), (z, d)
        walk = list(squarefree_masks(primes, max_nu=3))
        tallies = []
        for at in (0, None):  # every walk reads the profile / none does
            prob.profile_threshold = lambda _primes, at=at: at
            tallies.append(divisor_tally(prob, primes, walk))
        assert tallies[0] == tallies[1] == reference_pure_tally(prob, primes, 3, False), z


def _routed_tally(prob, primes, walk):
    """divisor_tally over ``walk``, and whether the reader it counted through was a profile."""
    readers = []
    reader = prob.reader
    prob.reader = lambda *args: readers.append(reader(*args)) or readers[-1]
    try:
        tally = divisor_tally(prob, primes, walk)
    finally:
        del prob.reader
    assert len(readers) == 1
    return tally, isinstance(readers[0], _Profile)


@pytest.mark.parametrize("kind, params", [
    ("twin", {"x": 10**5}), ("goldbach", {"N": 100002}), ("parity", {"x": 3000, "r": 0})])
def test_tally_route_switches_at_the_threshold(kind, params):
    z = 60
    prob = build_problem(kind, params)
    primes = prob.sifting_primes(z)
    masks = np.concatenate([kept for kept, _ in squarefree_masks(primes, max_nu=4)])
    at = prob.profile_threshold(primes)
    assert 0 < at < len(masks)
    for n, reads_profile in ((at - 1, False), (at, True), (len(masks), True)):
        tally, read = _routed_tally(build_problem(kind, params), primes, [(masks[:n], masks[:0])])
        assert read == reads_profile, n
        other = build_problem(kind, params)
        other.profile_threshold = lambda _primes: None if reads_profile else 0
        assert divisor_tally(other, primes, [(masks[:n], masks[:0])]) == tally, n
    assert tally == reference_pure_tally(prob, primes, 4, False)
    # a cached profile is read by every walk, and the window profile below 53 too
    assert prob.profile_threshold(primes) == at
    prob.profile(primes)
    assert prob.profile_threshold(primes) == 0
    assert prob.profile_threshold(prob.sifting_primes(53)) == 0


def test_small_walks_stay_on_the_per_divisor_route():
    # pure upper at ell = 1 (1 + 20 + 190 divisors over the 20 primes below 72),
    # and at ell = 0 on 2 * 10^7 elements (one divisor): building a profile costs more
    small = build_problem("twin", {"x": 10**5})
    primes = small.sifting_primes(72)
    assert len(list(combination_walk(primes, 2))) == 211 < small.profile_threshold(primes)
    big = build_problem("twin", {"x": 2 * 10**7})
    assert 1 < big.profile_threshold(big.sifting_primes(60))
    tally, read = _routed_tally(small, primes, squarefree_masks(primes, max_nu=2))
    assert not read and tally == reference_pure_tally(small, primes, 2, False)
    # the walks of the bounds benchmark at z = 60 read it: 3214 (pure upper) and 834 (pure lower) divisors
    bench = build_problem("twin", {"x": 10**5})
    primes = bench.sifting_primes(60)
    assert bench.profile_threshold(primes) <= 834
    assert _routed_tally(bench, primes, squarefree_masks(primes, max_nu=3))[1]


def test_profile_threshold_past_the_cap_is_never():
    # 2^26 entries would exceed DIVISOR_CAP, so no walk builds that profile: a counted reader is the
    # source however many uses it is given, and the identities' reader refuses before allocating
    prob = build_problem("twin", {"x": 10**4})
    assert prob.profile_threshold(small_primes(102)) is None
    assert prob.reader(small_primes(102), 10**12) is prob.source
    with pytest.raises(BudgetError):
        prob.reader(small_primes(102))


# p = 2, p | N, p | k and k = 1; N, k and l past 2^63 and near 10^30
AFFINE_CASES = [("interval", {"x": 100, "y": 37}), ("twin", {"x": 100})]
AFFINE_CASES += [("goldbach", {"N": N}) for N in (8, 354, 30030, 10**30 + 4, 2**64 + 2)]
AFFINE_CASES += [("progression", {"x": 1000, "k": k, "l": l})
                 for k, l in ((1, 0), (30, 7), (318, 5), (215441, 2), (2**63 + 5, 3), (10**30 + 1, 10**30))]


def test_bulk_density_counts_checked_like_omega():
    # a bulk rule breaking 0 <= omega(p) < p raises ValueError, as omega(p) does
    for bad in (lambda p: p, lambda p: -1):
        density = SiftingDensity(lambda p: Fraction(bad(p)), lambda ps: np.vectorize(bad)(ps))
        with pytest.raises(ValueError, match="violates"):
            density.omega(7)
        with pytest.raises(ValueError, match="violates"):
            density_product_float(density, 10)
        with pytest.raises(ValueError, match="violates"):
            dimension_fit(density, 10, 100)
    # each affine kind's classes Omega(p), their bulk sizes and its values, against a brute scan of its own
    # polynomial: the classes at every p < 3000, at the primes below 10^5 dividing a parameter and at every
    # 64th (a scan of all 9592 takes about 2 s a case), and the bulk sizes at every p < 10^5 against them
    ps = primes_up_to(10**5).primes
    for kind, params in AFFINE_CASES:
        prob = build_problem(kind, params)
        classes, bulk = prob.omega_form().residues.classes, prob.density.fractions(ps)[0].tolist()
        for i, p in enumerate(ps.tolist()):
            if p < 3000 or i % 64 == 0 or any(v and v % p == 0 for v in params.values()):
                assert classes[p] == brute_roots(kind, params, p), (kind, params, p)
            assert bulk[i] == len(classes[p]), (kind, params, p)
        if max(params.values()) < 2**63:  # the others' values pass int64, or their count the oracle cap
            assert prob.values().tolist() == affine_elements(kind, params), (kind, params)
    # a density with no bulk rule answers in Python ints
    assert build_problem("shifted_prime", {"x": 100}, table=TABLE).density.fractions(ps)[0].dtype == object


# -- the mask walker and the block tally -----------------------------------------------------------


def _walk_sets(walk, primes):
    """The kept and the boundary divisors of ``walk`` as sorted prime lists, each list sorted."""
    def sets(masks):
        return [[p for i, p in enumerate(primes) if m >> i & 1] for m in masks.tolist()]
    return sorted(s for kept, _ in walk for s in sets(kept)), sorted(s for _, b in walk for s in sets(b))


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_walker_and_tally_match_the_reference_walks(data):
    # every kind, z on both sides of the window, and each reader route: the threshold's choice,
    # the profile for every walk, or the source for every walk
    prob = _problem(data)
    z = data.draw(st.sampled_from((2, 11, 30, 53, 54, 60, 67, 70)))
    route = data.draw(st.sampled_from(("threshold", "profile", "source")))
    if route != "threshold":
        prob.profile_threshold = lambda _primes, at=(0 if route == "profile" else None): at
    primes = prob.sifting_primes(z)
    cutoff = data.draw(st.integers(0, 8))
    assume(sum(math.comb(len(primes), k) for k in range(cutoff + 1)) <= 1500)
    walk = list(squarefree_masks(primes, max_nu=cutoff))
    assert _walk_sets(walk, primes) == (sorted(sorted(f) for _, f, _ in combination_walk(primes, cutoff)), [])
    for worst_case in (False, True):
        assert divisor_tally(prob, primes, walk, worst_case=worst_case) == \
            reference_pure_tally(prob, primes, cutoff, worst_case)

    r, beta = data.draw(st.integers(0, 1)), data.draw(st.sampled_from((2.0, 3.0, 1.5, 2.5)))
    if primes and data.draw(st.booleans()):
        # a tie: D is d p^beta for a divisor d of least prime p, so eta(d) = 0 wherever d is tested
        factors = data.draw(st.lists(st.sampled_from(primes), min_size=1, max_size=3, unique=True))
        d, p = math.prod(factors), min(factors)
        D = float(d * p ** int(beta)) if beta.is_integer() else d * p**beta
    else:
        D = float(data.draw(st.integers(2, 10**5)))
    ref = list(eta_walk(primes, D, beta, r))
    assume(len(ref) <= 3000)
    weights = RosserWeightTable(D=D, beta=beta, r=r)
    walk = list(squarefree_masks(primes, level=weights))
    assert _walk_sets(walk, primes) == tuple(
        sorted(sorted(f) for tag, _, f, _ in ref if tag == want) for want in ("rho", "sigma"))
    assert divisor_tally(prob, primes, walk)[1] == reference_linear_tally(prob, primes, weights)


def _recording_ab(monkeypatch):
    """Patch ``DivisorTerms.ab`` to record, per block, its most primes and whether it answered in int64."""
    seen = []
    ab = DivisorTerms.ab

    def recording(self, masks, *scales):
        a, b = ab(self, masks, *scales)
        seen.append((int(np.bitwise_count(masks).max(initial=0)), a.dtype == np.int64))
        return a, b

    monkeypatch.setattr(DivisorTerms, "ab", recording)
    return seen


def test_tally_int64_guard_with_x_den_above_one(monkeypatch):
    # progression X = x/k, so x_den = k: the inner term |A_d| b(d) x_den - a(d) x_num is int64 while
    # a(d) x_num + b(d) N k < 2^63 for the largest a(d) = 1 and b(d) = 29 * 23 * 19 of three primes
    # below 30; x is the last value inside that guard, then the first past it
    k, top, primes = 29 * 23 * 19 * 17 * 13 * 11 * 7 * 5 * 3 * 2 * 113 + 1, 29 * 23 * 19, small_primes(30)

    def guard(x):  # x_num + top N x_den, N = (x - 2) // k + 1 elements l + k t = 1 + k t below x
        return x + top * ((x - 2) // k + 1) * k

    lo, hi = 2, 2**63 // top
    while hi - lo > 1:
        lo, hi = ((lo + hi) // 2, hi) if guard((lo + hi) // 2) < 2**63 else (lo, (lo + hi) // 2)
    for x, fits in ((lo, True), (lo + 1, False)):
        seen = _recording_ab(monkeypatch)
        prob = build_problem("progression", {"x": x, "k": k, "l": 1})
        assert prob.X.denominator == k and (guard(x) < 2**63) == fits
        assert divisor_tally(prob, primes, squarefree_masks(primes, max_nu=3)) == \
            reference_pure_tally(prob, primes, 3, False)
        assert (3, fits) in seen and all(int64 for nu, int64 in seen if nu < 3), (x, seen)


def test_tally_int64_guard_with_li_denominator(monkeypatch):
    # shifted_prime(10^5): X = li(10^5) has a 39-bit denominator (2^38) and omega(p)/p = p / (p (p - 1)),
    # so a lone prime's p x_num + p (p - 1) N 2^38 is int64 up to p = 59 and not from p = 61
    prob = build_problem("shifted_prime", {"x": 10**5})
    assert prob.X.denominator == 2**38
    for z, fits in ((60, True), (62, False)):
        primes = prob.sifting_primes(z)
        p = primes[-1]
        assert (p * prob.X.numerator + p * (p - 1) * prob.size * 2**38 < 2**63) == fits
        seen = _recording_ab(monkeypatch)
        assert divisor_tally(prob, primes, squarefree_masks(primes, max_nu=1)) == \
            reference_pure_tally(prob, primes, 1, False)
        assert (1, fits) in seen, (z, seen)


@pytest.mark.parametrize("r", [0, 1])
def test_walker_value_guard_at_D_near_2_63_over_p_cubed(r):
    # the ten primes below 1000 ending at 997, beta = 2: the values d and d p^2 are int64 while
    # max(ceil(D), 997) 997^3 < 2^63, and Python ints from the next D on
    primes = small_primes(1000)[-10:]
    edge = (2**63 - 1) // 997**3
    for D, dtype in ((edge, np.int64), (edge + 1, object)):
        weights = RosserWeightTable(D=float(D), beta=2.0, r=r)
        assert _level_rule(primes, weights)[0].dtype == dtype
        kept, boundary = _walk_sets(list(squarefree_masks(primes, level=weights)), primes)
        ref = list(eta_walk(primes, float(D), 2.0, r))
        assert kept == sorted(sorted(f) for tag, _, f, _ in ref if tag == "rho")
        assert boundary == sorted(sorted(f) for tag, _, f, _ in ref if tag == "sigma") != []


def test_tally_memory_does_not_grow_with_the_walk(monkeypatch):
    # the full walks over 15 and 17 primes, 2^15 and 2^17 divisors, read off a cached profile: past the
    # block size both walks hold full blocks, so their peaks match.  _BLOCK is cut to 2^13 so that the
    # blocks fill at this size as they do at 2^19 and 2^21 divisors with the real one (5.9 and 6.1 MB);
    # the tally takes about 25 us a divisor under tracemalloc, which traces each of its Python ints
    monkeypatch.setattr(problem, "_BLOCK", 1 << 13)
    prob = build_problem("twin", {"x": 10**4})
    peaks = []
    for n in (15, 17):
        primes = small_primes(100)[:n]
        prob.profile(primes)
        tracemalloc.start()
        try:
            divisor_tally(prob, primes, squarefree_masks(primes))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 1.5 * peaks[0], peaks
