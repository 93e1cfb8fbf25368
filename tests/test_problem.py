import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from sievekit.arith import BudgetError, mobius, small_primes
from sievekit.problem import (
    ORACLE_ELEMENT_CAP,
    OmegaForm,
    ResidueSystem,
    SiftingDensity,
    _LUT_DENSITY,
    _Kept,
    _Profile,
    _Values,
    _add_periodic,
    _lut_runs,
    build_problem,
    count_in_class,
    divisor_walk,
    exact_sift,
    factor_count_sieve,
    problem_from_config,
)

from reference import (
    brute_sift, class_histogram, class_survivors, count_multiples, factor_count_reference, plain_sieve, survivors,
    value_histogram_per_prime,
)


def test_interval_builder_matches_stated_shape():
    prob = build_problem("interval", {"x": 30, "y": 30})
    assert prob.X == 30
    assert list(prob.values()) == list(range(1, 31))
    assert prob.density.omega(7) == 1


def test_twin_builder_densities():
    prob = build_problem("twin", {"x": 100})
    assert prob.density.omega(2) == 1
    assert prob.density.omega(3) == 2
    assert prob.X == 100
    assert prob.size == 97
    assert list(prob.values())[:3] == [3, 8, 15]


def test_shifted_prime_builder(table):
    prob = build_problem("shifted_prime", {"x": 100}, table=table)
    assert prob.density.omega(3) == Fraction(3, 2)
    assert prob.density.omega(2) == 0
    from sievekit.arith import li

    assert float(prob.X) == pytest.approx(li(100))
    assert list(prob.values())[:4] == [5, 7, 9, 13]


def test_goldbach_builder():
    prob = build_problem("goldbach", {"N": 100})
    assert prob.density.omega(2) == 1
    assert prob.density.omega(5) == 1
    assert prob.density.omega(3) == 2
    assert prob.size == 95


def test_progression_builder():
    prob = build_problem("progression", {"x": 100, "k": 4, "l": 1})
    vals = prob.values()
    assert vals[0] == 1 and vals[-1] == 97 and len(vals) == 25
    assert prob.size == 25
    assert prob.density.omega(2) == 0
    assert prob.X == 25
    with pytest.raises(ValueError):
        build_problem("progression", {"x": 100, "k": 4, "l": 2})


def test_progression_values_are_the_class_below_x():
    # values() forms l + k t over the index interval; the reference filters 1..x-1 by class
    for k in range(1, 13):
        for l in range(k + 1):
            if k > 1 and math.gcd(k, l) != 1:
                continue
            for x in (1, 2, 3, k, k + 1, 2 * k + 5, 100, 101):
                prob = build_problem("progression", {"x": x, "k": k, "l": l})
                expected = [n for n in range(1, x) if n % k == l % k]
                assert list(prob.values()) == expected, (x, k, l)
                assert prob.size == len(prob.values()), (x, k, l)


def test_progression_size_counts_the_class_not_the_range():
    # 30 000 elements, far below the element cap, though x - 1 is above it
    prob = build_problem("progression", {"x": 3 * 10**7, "k": 1000, "l": 3})
    vals = prob.values()
    assert prob.size == len(vals) == 30000
    assert vals[0] == 3 and vals[-1] == 3 + 1000 * 29999


def test_values_past_int64_raise_and_exact_sift_still_answers():
    # int64 wrapped half the values of the first negative (its last is 1180590494817505509376); the
    # others ended in a bare OverflowError, the last two with one element.  The marking kernel forms
    # no value, so exact_sift answers: the reference strikes a t + b mod p through the indices mod p.
    cases = [("progression", {"x": 2**70, "k": 2**50 + 1, "l": 1}),
             ("progression", {"x": 2**70, "k": 2**63 + 5, "l": 1}),
             ("interval", {"x": 10**30, "y": 1000}),
             ("progression", {"x": 10**6, "k": 2**63 + 5, "l": 3}),
             ("progression", {"x": 10**6, "k": 10**30 + 1, "l": 10**30})]
    for kind, params in cases:
        prob = build_problem(kind, params)
        with pytest.raises(ValueError, match="int64"):
            prob.values()
        form = prob.omega_form()
        [(a, b)] = form.factors
        kept = np.ones(form.N, dtype=bool)
        for p in small_primes(30):
            kept &= (a % p * ((form.M % p + np.arange(form.N)) % p) + b % p) % p != 0
        assert exact_sift(prob, 30) == np.count_nonzero(kept), kind
    with pytest.raises(ValueError, match="int64"):
        OmegaForm(2**63, 10, ResidueSystem({2: (0,)})).values()


def test_parity_builder():
    prob = build_problem("parity", {"x": 20, "r": 0})
    # parity 0: 1 and numbers with an even count of prime divisors (multiplicity)
    assert list(prob.values()) == [1, 4, 6, 9, 10, 14, 15, 16]
    odd = build_problem("parity", {"x": 20, "r": 1})
    assert set(odd.values()) | set(prob.values()) == set(range(1, 20))


def test_factor_count_sieve():
    omega = factor_count_sieve(32)
    assert omega[1] == 0 and omega[2] == 1 and omega[12] == 3 and omega[16] == 4 and omega[30] == 3


def test_factor_count_sieve_matches_reference():
    for x in range(301):
        got = factor_count_sieve(x)
        assert got.dtype == np.uint8 and np.array_equal(got, factor_count_reference(x)), x
    # the root split changes at x = p^2 + 1, and the large-prime pass at x - 1
    # prime and at x = q m, q m + 1 for q the least prime above sqrt(x - 1)
    # (m = q - 1 keeps q that prime).  The reference's entries below x do not
    # depend on x (a prime power >= x strikes nothing below it), so one
    # reference table serves every x up to 10**6
    ref = factor_count_reference(10**6)
    primes = small_primes(1000)
    squares = {p * p + k for p in primes for k in (-1, 0, 1)}
    cofactors = {q * (q - 1) + k for q in primes for k in (0, 1)}
    after_prime = {p + 1 for p in small_primes(10**6)[::997]}
    for x in sorted(squares | cofactors | after_prime | {2**17, 10**6}):
        got = factor_count_sieve(x)
        assert got.dtype == ref.dtype and np.array_equal(got, ref[:x]), x


def test_factor_count_sieve_peak_memory_stays_under_three_bytes_per_entry():
    # the table is x bytes; the primes above the root are sieved before it, and
    # one cofactor's scatter index is the widest temporary (the int32 residual
    # the pass used to hold took 4 x bytes alone)
    x = 2**20
    small_primes(math.isqrt(x - 1) + 1)  # the cached base primes are not the table's memory
    tracemalloc.start()
    try:
        got = factor_count_sieve.__wrapped__(x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(got, factor_count_reference(x))
    assert peak < 3 * x, peak


def test_factor_count_sieve_is_cached_read_only():
    omega = factor_count_sieve(1000)
    assert factor_count_sieve(1000) is omega
    assert not omega.flags.writeable
    with pytest.raises(ValueError):
        omega[2] = 0


def test_count_in_class_examples():
    prob = build_problem("interval", {"x": 30, "y": 30})
    count, rem = count_in_class(prob, 6)
    assert count == 5 and rem == 0

    twin = build_problem("twin", {"x": 100})
    count, rem = count_in_class(twin, 3)
    assert count == 65
    assert rem == Fraction(65) - Fraction(200, 3)

    count, rem = count_in_class(twin, 1)
    assert count == 97 and rem == 97 - 100


# The densities build_problem declared for the affine kinds before they were
# derived from the residue classes, kept as the reference for omega(p) = |Omega(p)|.
DECLARED_DENSITY = {
    "interval": lambda params, p: 1,
    "twin": lambda params, p: 1 if p == 2 else 2,
    "goldbach": lambda params, p: 1 if params["N"] % p == 0 else 2,
    "progression": lambda params, p: 0 if params["k"] % p == 0 else 1,
}


def test_count_in_class_matches_enumeration():
    for kind, params in [
        ("twin", {"x": 500}),
        ("twin", {"x": 20000}),
        ("goldbach", {"N": 300}),
        ("goldbach", {"N": 2 * 3 * 59 * 61}),  # primes of N on both sides of 53
        ("interval", {"x": 400, "y": 250}),
        ("interval", {"x": 20000, "y": 15000}),
        ("progression", {"x": 500, "k": 5, "l": 2}),
        ("progression", {"x": 20000, "k": 6, "l": 5}),  # 2 | k and 3 | k
        ("progression", {"x": 20000, "k": 59, "l": 3}),  # a prime of k above 53
        ("progression", {"x": 20000, "k": 1, "l": 0}),
    ]:
        prob = build_problem(kind, params)
        vals = prob.values()
        for d in (1, 2, 3, 5, 6, 7, 15, 21, 35, 105, 53, 59, 61, 2 * 59 * 61, 3 * 53, 47 * 53 * 59):
            direct = int(np.count_nonzero(vals % d == 0))
            primes = [p for p in small_primes(d + 1) if d % p == 0]
            assert prob.count_multiple(d) == direct, (kind, params, d)
            assert prob.count_multiple(d, tuple(reversed(primes))) == direct, (kind, params, d)
            assert count_in_class(prob, d)[0] == direct, (kind, params, d)
        for p in small_primes(200):
            assert prob.density.omega(p) == DECLARED_DENSITY[kind](prob.params, p), (kind, params, p)


def test_remainder_magnitudes():
    interval = build_problem("interval", {"x": 997, "y": 600})
    twin = build_problem("twin", {"x": 1000})
    for d in (2, 3, 5, 6, 10, 15, 30, 7, 21, 35, 105):
        _, rem = count_in_class(interval, d)
        assert abs(rem) <= 1
        count, rem = count_in_class(twin, d)
        omega_d = twin.density.omega_d([p for p in (2, 3, 5, 7) if d % p == 0])
        # with the declared scale X = x the 3-element length slack leaks into
        # R_d; the crisp bound |R_d| <= omega(d) holds for the matched scale
        assert abs(rem) <= omega_d * (1 + Fraction(3, d))
        matched = Fraction(count) - omega_d / d * twin.size
        assert abs(matched) <= omega_d


def test_exact_sift_examples(table):
    prob = build_problem("interval", {"x": 30, "y": 30})
    assert exact_sift(prob, 6) == 8  # phi(30)

    twin = build_problem("twin", {"x": 100})
    assert exact_sift(twin, 2) == 97

    big = build_problem("interval", {"x": 100, "y": 100})
    assert exact_sift(big, 11) == 22  # 1 plus the 21 primes in [11, 100)


def test_exact_sift_against_pure_python():
    for kind, params in [
        ("twin", {"x": 300}),
        ("goldbach", {"N": 200}),
        ("interval", {"x": 500, "y": 499}),
        ("parity", {"x": 300, "r": 1}),
    ]:
        prob = build_problem(kind, params)
        for z in (2, 3, 7, 13, 30):
            assert exact_sift(prob, z) == brute_sift(prob.values(), z), (kind, z)


def test_sift_count_in_class_oracle():
    prob = build_problem("twin", {"x": 500})
    vals = prob.values()
    for d_primes, w in [((7,), 7), ((11, 7), 5), ((13,), 13), ((), 11)]:
        d = math.prod(d_primes)
        assert prob.profile().sift_count(w, d_primes) == brute_sift(vals, w, d)



def test_profile_sift_count_matches_scan():
    # every w up to the window's end and every d over its six primes, primes of d below w included
    vals = [0, 1, -1, 30030, -2**63, 2**63 - 1, *range(-500, 500, 3)]
    prof = build_problem("custom", {"elements": vals}).profile(small_primes(14))
    for w in range(1, 15):
        for mask in range(64):
            d_primes = [p for i, p in enumerate(prof.primes) if mask >> i & 1]
            assert prof.sift_count(w, d_primes) == brute_sift(vals, w, math.prod(d_primes)), (w, d_primes)


def test_exact_sift_nonincreasing_in_z():
    prob = build_problem("goldbach", {"N": 1000})
    counts = [exact_sift(prob, z) for z in range(2, 40)]
    assert all(a >= b for a, b in zip(counts, counts[1:]))


def test_omega_form_agrees_with_product_form():
    # affine kinds: residue-class sifting of the index interval must count
    # exactly the same survivors as divisibility sifting of the values,
    # on both sides of the profile window (z = 53)
    for kind, params in [
        ("twin", {"x": 1000}),
        ("goldbach", {"N": 1000}),
        ("interval", {"x": 2000, "y": 1500}),
        ("progression", {"x": 2000, "k": 7, "l": 3}),
    ]:
        prob = build_problem(kind, params)
        vals = prob.values()
        for z in (2, 3, 5, 11, 23, 31, 47, 50, 59, 61):
            assert prob.omega_form().sift_count(z) == brute_sift(vals, z), (kind, z)


def test_affine_element_cap_raises_before_any_work():
    prob = build_problem("twin", {"x": ORACLE_ELEMENT_CAP + 10})
    assert prob.size > ORACLE_ELEMENT_CAP
    for z in (2, 30, 60):
        with pytest.raises(BudgetError):
            exact_sift(prob, z)
    with pytest.raises(BudgetError):
        prob.omega_form().survivor_mask(60)


def test_affine_sift_beyond_int64():
    # the residue sieve never forms an element value, so x past 2^63 is fine
    x = 10**30
    prob = build_problem("interval", {"x": x, "y": 5})
    for z in (2, 3, 5, 60):
        assert exact_sift(prob, z) == brute_sift(range(x - 4, x + 1), z), z


def test_residue_system_counting():
    rs = ResidueSystem({2: (0,), 3: (0, 1), 5: (2,)})
    assert rs.size(3) == 2 and rs.size(7) == 0
    assert sorted(rs.roots_mod((2, 3))) == [0, 4]  # even n with n mod 3 in {0, 1}
    count = OmegaForm(0, 30, rs).count_multiple((2, 3))
    direct = sum(1 for n in range(30) if n % 2 == 0 and n % 3 in (0, 1))
    assert count == direct


def test_interval_residue_counts_match_divisibility():
    prob = build_problem("interval", {"x": 2000, "y": 1500})
    form = prob.omega_form()
    for d_primes in [(2,), (3,), (2, 3), (5, 7), (2, 3, 5), (11,)]:
        d = math.prod(d_primes)
        via_residues = form.count_multiple(d_primes)
        assert via_residues == int(np.count_nonzero(prob.values() % d == 0)), d_primes


def test_residue_system_validation():
    with pytest.raises(ValueError):
        ResidueSystem({3: (0, 1, 2)})
    with pytest.raises(ValueError):
        ResidueSystem({3: (3,)})


def test_density_validation():
    dens = SiftingDensity(lambda p: Fraction(p))
    with pytest.raises(ValueError):
        dens.omega(3)


def test_config_round_trip():
    prob = build_problem("progression", {"x": 100, "k": 4, "l": 1})
    cfg = prob.to_config()
    assert cfg == {"kind": "progression", "x": 100, "k": 4, "l": 1}
    again = problem_from_config(cfg)
    assert np.array_equal(again.values(), prob.values())


def test_custom_problem():
    prob = build_problem("custom", {"elements": [5, 7, 11, 25], "X": 4})
    assert exact_sift(prob, 3) == 4
    assert exact_sift(prob, 6) == 2
    assert prob.count_multiple(5) == 2


def test_explicit_count_multiple_past_int64():
    prob = build_problem("custom", {"elements": [0, 5, -(2**62), 2**63 - 1, 2**63 - 3, 0], "X": 6})
    d = math.prod(small_primes(62)[4:])  # 11 * 13 * ... * 61
    assert d > 2**63
    assert prob.count_multiple(d) == 2
    # 2^63 - 3 is squarefree; its primes are given, as factoring it by trial division takes seconds
    assert prob.count_multiple(2**63 - 3, (5, 23, 53301701, 1504703107)) == 3


@pytest.mark.parametrize("kind, params", [
    ("interval", {"x": 100, "y": 100}), ("twin", {"x": 100}), ("goldbach", {"N": 100}),
    ("progression", {"x": 100, "k": 3, "l": 1}), ("parity", {"x": 100, "r": 0}),
    ("shifted_prime", {"x": 100}), ("custom", {"elements": list(range(1, 101))}),
])
def test_count_multiple_refuses_a_square_divisor(kind, params, table):
    # |A_4| is not |A_2|: a d that count_multiple factors itself must be squarefree
    prob = build_problem(kind, params, table=table)
    for d in (4, 12, 2**63 - 1):  # 2^63 - 1 = 7^2 * 73 * 127 * 337 * 92737 * 649657
        with pytest.raises(ValueError, match="not squarefree"):
            prob.count_multiple(d)
    assert prob.count_multiple(6) == int(np.count_nonzero(prob.values() % 6 == 0))


# -- value profile kernel --------------------------------------------------------


INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1
# 2 * 131071 and 4 * 65521 fit under 2^18, one more factor does not;
# 262147 is the least prime above 2^18, so it always forms a run of its own
PRIME_POOL = small_primes(100) + (509, 521, 65521, 131071, 262139, 262147, 1000003)
VALUES = st.lists(
    st.one_of(
        st.integers(INT64_MIN, INT64_MAX),
        st.builds(lambda k, ps: k * math.prod(ps), st.integers(-1000, 1000),
                  st.lists(st.sampled_from(PRIME_POOL), max_size=3)).filter(lambda v: INT64_MIN <= v <= INT64_MAX),
    ),
    max_size=300,
).map(lambda vs: np.array(vs + [0, INT64_MIN, INT64_MAX, -1, 1], dtype=np.int64))


@given(VALUES, st.lists(st.sampled_from(PRIME_POOL), unique=True, max_size=25).map(tuple))
@example(np.arange(-3000, 3000, dtype=np.int64), small_primes(53))
@example(np.arange(-3000, 3000, dtype=np.int64), (2, 131071, 3, 65521, 5))
@example(np.array([0, 262147, -262147, 2 * 262147, INT64_MIN, INT64_MAX], dtype=np.int64), (262147,))
@example(np.array([0, 262147 * 13, INT64_MIN, INT64_MAX], dtype=np.int64), (13, 262147, 2, 3))
@example(np.arange(-10**4, 10**4, dtype=np.int64), small_primes(100))
@settings(max_examples=150, deadline=None)
def test_value_histogram_matches_per_prime_kernel(values, primes):
    got = _Values(values).histogram(primes)
    assert got.dtype == np.int64
    assert np.array_equal(got, value_histogram_per_prime(values, primes))


G = 30 * 100003  # a goldbach N with 3 * 5 | G
# Omega(p) of the forms: interval (one class per prime), twin (two), goldbach
# (one at 2, 3 and 5), and progressions with no class at p | k: k = 30; k = 17 * 19,
# which thins the run 17..29; k = 17 * 19 * 23 * 29, which leaves it density 0
KERNEL_RULES = (
    lambda p: (0,),
    lambda p: (0,) if p == 2 else (0, p - 2),
    lambda p: (0, G % p) if G % p else (0,),
    lambda p: () if 30 % p == 0 else (-7 * pow(30, -1, p) % p,),
    lambda p: () if 323 % p == 0 else (-5 * pow(323, -1, p) % p,),
    lambda p: () if 215441 % p == 0 else (-2 * pow(215441, -1, p) % p,),
)
# the periods of the runs below 53 a strided kernel may tabulate: 2..13, 17..29, 31..41 and 43 * 47
RUN_PERIODS = (30030, 215441, 47027, 2021)
RUN_LCM = math.prod(RUN_PERIODS)


def _kernel_sources(N):
    """An explicit source of N values across int64, and residue forms of N indices with their classes.

    Each form takes one of ``KERNEL_RULES``.  Their starts M are 0, 1 and
    -1 mod every period of ``RUN_PERIODS``, near 0, near 10^30 and on both
    sides of 2^63; 30029 mod 30030; at both int64 extremes; and across 0
    and 2^63.  Each N pairs the rules with the starts differently.
    """
    rng = np.random.default_rng(N)
    vals = rng.integers(-(10**9), 10**9, size=N)
    vals[::5] *= 17 * 19 * 23
    vals[1::11] = rng.integers(-(10**6), 10**6, size=len(vals[1::11])) * 262147
    edges = [min(i, N - 1) for i in (0, 1, 2**18 - 2, 2**18 - 1, 2**18, N - 1)]  # both sides of the first block edge
    vals[edges] = [0, -1, INT64_MIN, INT64_MAX, 30030 * 521, -510510]
    big = 10**30 - 10**30 % RUN_LCM
    top = 2**63 - 2**63 % RUN_LCM
    starts = (0, -1, 30029, big + 1, big - 1, top, top + RUN_LCM - 1,
              INT64_MIN, -(N // 2), 2**63 - N // 2, INT64_MAX - N + 1)
    forms = []
    for i, M in enumerate(starts):
        rule = KERNEL_RULES[(i + N) % len(KERNEL_RULES)]
        classes = {p: rule(p) for p in small_primes(1001) + KERNEL_PRIMES}
        forms.append((OmegaForm(M, N, ResidueSystem(classes)), classes))
    return _Values(vals), forms


# the window's primes (lookup-table runs) and four lone ones: k = 19, so the histogram's block is 2^19
KERNEL_PRIMES = small_primes(53) + (521, 65521, 131071, 262147)


# N at the block edge 2^18 and on both sides of each period of RUN_PERIODS, where its run's table switches on
@pytest.mark.parametrize("N", [1, 2020, 2021, 30029, 30030, 30031, 47026, 47027, 215440, 215441, 2**18 - 1, 2**18, 2**18 + 1])
def test_both_sources_match_a_per_prime_scan_at_block_edges(N):
    explicit, forms = _kernel_sources(N)
    vals = explicit.values()
    for primes in (small_primes(53), KERNEL_PRIMES):
        assert np.array_equal(explicit.histogram(primes), value_histogram_per_prime(vals, primes)), (N, len(primes))
    # 521 and up are lone primes of the explicit kernel; past them a sift tests only the unmarked values
    keep, below = np.ones(N, dtype=bool), 0
    for z in (2, 53, 60, 530, 1000):  # each adds the primes in [below, z) to the reference
        keep &= survivors(vals, [p for p in small_primes(z) if p >= below])
        below = z
        assert explicit.sift_count(z) == np.count_nonzero(keep), (N, z)
        assert np.array_equal(explicit.survivor_mask(z), keep), (N, z)
    for form, classes in forms:
        # the window's runs are 2..13, 17..29, 31..41 and 43 * 47; (53, 59, 61) is one run of period 190747
        for primes in (small_primes(53), KERNEL_PRIMES, (53, 59, 61)):
            want = class_histogram(form.M, N, classes, primes)
            assert np.array_equal(form.histogram(primes), want), (N, form.M, primes)
        keep, below = np.ones(N, dtype=bool), 0
        for z in (2, 53, 60, 200, 1001):  # each adds the primes in [below, z) to the reference
            keep &= class_survivors(form.M, N, classes, [p for p in small_primes(z) if p >= below])
            below = z
            assert form.sift_count(z) == np.count_nonzero(keep), (N, form.M, z)
            assert np.array_equal(form.survivor_mask(z), keep), (N, form.M, z)


# x at the block edge 2^18 and across the second block; 2 and 3 hold one position
@pytest.mark.parametrize("x", [2, 3, 2**18 - 1, 2**18, 2**18 + 1, 2**19 + 2])
@pytest.mark.parametrize("r", [0, 1])
def test_parity_positions_match_a_value_source_over_the_same_values(x, r):
    kept = build_problem("parity", {"x": x, "r": r}).source
    assert isinstance(kept, _Kept)
    vals = kept.values()
    explicit = _Values(vals)
    assert vals.dtype == np.int64 and kept.N == explicit.N == len(vals)
    for primes in (small_primes(53), KERNEL_PRIMES, (53, 59, 61, 67, 71)):
        assert np.array_equal(kept.histogram(primes), explicit.histogram(primes)), (x, r, primes)
    for z in (2, 53, 60, 1000):
        assert kept.sift_count(z) == explicit.sift_count(z), (x, r, z)
        assert np.array_equal(kept.survivor_mask(z), explicit.survivor_mask(z)), (x, r, z)
    # d of one to four primes, d past every position, and d past 2^63, which divides no value in [1, x)
    for d_primes in [(2,), (3,), (2, 3), (5, 7, 11), (2, 3, 5, 7), (3, 11, 13, 17), (1000003,), (2**61 - 1, 5)]:
        d = math.prod(d_primes)
        want = count_multiples(vals, d) if d < 2**63 else 0
        assert kept.count_multiple(d_primes) == explicit.count_multiple(d_primes) == want, (x, r, d)


def _greedy_runs(marks):
    """The runs of ``marks`` by their definition: primes in order while their product stays within 2^18."""
    runs = [[]]
    for mark in marks:
        if runs[-1] and math.prod(p for p, _ in runs[-1]) * mark[0] > 2**18:
            runs.append([])
        runs[-1].append(mark)
    return runs


@pytest.mark.parametrize("positions", [None, 1, 2020, 2021, 47027, 215441, 10**7])
def test_lut_runs_tabulate_by_one_rule_and_leave_each_other_mark_once(positions):
    marks = [(p, 1 << (i % 16)) for i, p in enumerate(small_primes(1001))]
    runs = _greedy_runs(marks)
    for rule in KERNEL_RULES:
        tables, rest = _lut_runs(marks, np.uint16, rule, positions)

        def pays(run):
            """A lookup kernel tabulates every run; a strided one those of period <= positions and density >= the bound."""
            m = math.prod(p for p, _ in run)
            return positions is None or m <= positions and sum(len(rule(p)) / p for p, _ in run) >= _LUT_DENSITY

        tabulated = [run for run in runs if len(run) > 1 and pays(run)]
        assert [[(p, bit) for p, bit, _ in run] for run, _ in tables] == tabulated, positions
        # each mark is in one table or in the rest, not both, and keeps its order and classes
        assert [(p, bit) for p, bit, _ in rest] == [mark for run in runs if run not in tabulated for mark in run]
        assert all(res == rule(p) for p, _, res in rest)
        for run, lut in tables:
            s = np.arange(len(lut))
            want = np.zeros(len(lut), dtype=np.uint16)
            for p, bit, res in run:
                assert res == rule(p)
                for r in res:
                    want[s % p == r] |= bit
            assert lut.dtype == np.uint16 and np.array_equal(lut, want), [p for p, *_ in run]


# q > N, N = kq and N = kq +- 1 (46483 = 23 * 2021); M = 0 mod q below and past 2^63, and other offsets
@pytest.mark.parametrize("q, N", [(7, 3), (7, 7), (7, 20), (7, 21), (7, 22), (2021, 46482), (2021, 46483), (2021, 46484)])
@pytest.mark.parametrize("M", [0, 5, 2021 * 7 * 2**60, 2**63 + 3, 10**30 + 1, -1])
def test_add_periodic_adds_or_ors_the_period_entry_of_each_position(q, N, M):
    rng = np.random.default_rng(q + N)
    period = rng.integers(0, 2**15, q).astype(np.uint16)
    base = rng.integers(0, 2**15, N).astype(np.uint16)
    at = period[(np.arange(N) + M % q) % q]  # the period entry of each position M + i
    for op in (np.add, np.bitwise_or):
        got = base.copy()
        _add_periodic(got, period, M, op)
        assert np.array_equal(got, op(base, at)), op
    # the default adds, as the large-sieve engines call it on complex vectors
    cperiod = period * (1 + 2j)
    got = base * 1j
    _add_periodic(got, cperiod, M)
    assert np.array_equal(got, base * 1j + cperiod[(np.arange(N) + M % q) % q])


@pytest.mark.parametrize("z", [2, 3, 14, 30, 53, 60, 80])
def test_explicit_kind_profiles_match_per_prime_kernel(table, z):
    rng = np.random.default_rng(z)
    customs = rng.integers(-(10**12), 10**12, size=2000).tolist() + [0, INT64_MIN, INT64_MAX, 30030, -510510]
    problems = [
        build_problem("parity", {"x": 10**5, "r": 0}),
        build_problem("parity", {"x": 10**5, "r": 1}),
        build_problem("shifted_prime", {"x": 10**5}, table=table),
        build_problem("custom", {"elements": customs}),
    ]
    primes = small_primes(z)
    for prob in problems:
        # a profile keeps the superset sums of its histogram, which determine it;
        # primes below 53 map to the window profile, so the reference is over its primes
        prof = prob.profile(primes)
        assert prof.primes == (primes if z > 53 else small_primes(53)), (prob.kind, z)
        want = _Profile._superset_sum(value_histogram_per_prime(prob.values(), prof.primes))
        assert np.array_equal(prof._superset, want), (prob.kind, z)
        assert np.array_equal(prob.source.histogram(primes), value_histogram_per_prime(prob.values(), primes))
        if z == 53:
            assert np.array_equal(prob.profile()._superset, want), prob.kind


def test_profile_budget_guard_before_allocation():
    primes = small_primes(102)
    assert len(primes) == 26  # 2^26 histogram entries, past the 2^25 cap
    problems = [
        build_problem("custom", {"elements": list(range(-50, 50))}),
        build_problem("parity", {"x": 1000, "r": 0}),
        build_problem("twin", {"x": 1000}),
    ]
    for prob in problems:
        tracemalloc.start()
        try:
            with pytest.raises(BudgetError):
                prob.profile(primes)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 16, (prob.kind, peak)


def test_divisor_walk_refuses_before_any_divisor():
    primes = small_primes(102)  # 26 primes
    # sum of C(26, k) over k <= 12 is 28 354 132, within the 2^25 cap; k <= 13 passes it
    divisor_walk(primes, max_nu=12)
    for max_nu in (13, 26, 10**9):
        tracemalloc.start()
        try:
            with pytest.raises(BudgetError):
                next(iter(divisor_walk(primes, max_nu=max_nu)))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 16, (max_nu, peak)
    divisor_walk(primes[1:], max_nu=25)  # all 2^25 products of 25 primes: exactly the cap


@pytest.mark.parametrize("n", range(13))
def test_divisor_walk_yields_each_truncated_divisor_once(n):
    primes = small_primes(40)[:n][::-1][1::2] + small_primes(40)[:n][::-1][::2]  # any order
    for max_nu in range(n + 2):
        items = list(divisor_walk(primes, max_nu=max_nu))
        assert len(items) == sum(math.comb(n, k) for k in range(max_nu + 1))
        assert len({d for d, _, _ in items}) == len(items)
        for d, factors, mu in items:
            assert math.prod(factors) == d and len(factors) <= max_nu
            assert list(factors) == sorted(factors, reverse=True)
            assert mu == mobius(d)
