import math
import subprocess
import sys
import tracemalloc
from functools import cache
from pathlib import Path
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sievekit import arith
from sievekit.arith import (
    BudgetError,
    euler_phi,
    factor_squarefree,
    li,
    mean_remainder_sum,
    mobius,
    pi_count,
    primes_up_to,
    remainder_E,
    small_primes,
    truncated_mobius,
)

from reference import plain_sieve


def trial_division_primes(limit):
    """Independent oracle: primes below limit by bare trial division."""
    out = []
    for n in range(2, limit):
        if all(n % d for d in range(2, math.isqrt(n) + 1)):
            out.append(n)
    return out


def test_primes_smallest_cases():
    assert list(primes_up_to(3).primes) == [2]
    assert list(primes_up_to(2).primes) == []
    assert primes_up_to(2).limit == 2


def test_primes_up_to_100_against_trial_division():
    t = primes_up_to(100)
    assert list(t.primes) == trial_division_primes(100)
    assert len(t.primes) == 25 and t.primes[-1] == 97


@cache
def trial_division_below(limit):
    return np.array(trial_division_primes(limit), dtype=np.int64)


def bitmap(limit):
    """is_prime over [0, limit), the layout the table no longer stores."""
    out = np.zeros(limit, dtype=bool)
    out[trial_division_below(limit)] = True
    return out


def test_membership_view_matches_bitmap(table):
    limit = table.limit
    ref = bitmap(limit)
    view = table.membership
    assert view.nbytes == 0
    for n in (0, 1, 2, 3, 4, 91, 97, limit - 3, limit - 2, limit - 1):
        assert view[n] is bool(ref[n]) and (n in table) is bool(ref[n]), n
        assert view[np.int64(n)] is bool(ref[n])
    for n in (-7, -2, -1, limit, limit + 1, limit + 3, 2**64 + 13, -(2**70)):
        assert view[n] is False and n not in table
    everything = np.arange(limit)
    assert np.array_equal(view[everything], ref)
    assert np.array_equal(view[everything[::-1]], ref[::-1])
    rng = np.random.default_rng(3)
    picks = rng.integers(-50, limit + 50, size=(40, 25))
    want = np.where((picks >= 0) & (picks < limit), ref[np.clip(picks, 0, limit - 1)], False)
    got = view[picks]
    assert got.dtype == bool and got.shape == picks.shape and np.array_equal(got, want)
    assert view[np.array([], dtype=np.int64)].shape == (0,)
    empty = primes_up_to(2).membership
    assert not empty[np.arange(-2, 5)].any() and empty[1] is False


def _assert_matches_plain_sieve(limit):
    got, want = primes_up_to(limit).primes, plain_sieve(limit)
    assert got.dtype == want.dtype == np.int64 and got.shape == want.shape, limit
    assert np.array_equal(got, want), limit
    assert small_primes(limit) == tuple(want.tolist()), limit


def test_segmented_agrees_with_simple_to_1e7():
    for limit in [*range(3000), 10**5 + 3, 10**7 + 1]:
        _assert_matches_plain_sieve(limit)


def _limit_near_primes():
    """L at a prime p, p +- 1 and p^2 +- 1: the edges of the odd-only segments and the base sieve."""
    p = st.sampled_from(trial_division_primes(224))
    return st.one_of(
        st.integers(0, 5 * 10**4),
        st.builds(lambda p, s: p + s, p, st.sampled_from((-1, 0, 1))),
        st.builds(lambda p, s: p * p + s, p, st.sampled_from((-1, 1))),
    )


@given(limit=_limit_near_primes(), segment=st.sampled_from((1, 7, 64)))
@settings(max_examples=60, deadline=None)
@example(limit=0, segment=1)
@example(limit=3, segment=1)
@example(limit=5 * 10**4, segment=1)
@example(limit=223**2 + 1, segment=7)
def test_segmented_sieve_at_any_segment_size(limit, segment):
    with mock.patch.object(arith, "_SEGMENT", segment):
        got = primes_up_to(limit)
    want = plain_sieve(limit)
    assert got.limit == limit and got.primes.dtype == np.int64
    assert np.array_equal(got.primes, want)
    assert np.array_equal(got.primes, trial_division_below(max(limit, 0)))


def test_sieve_allocates_nothing_of_limit_size():
    limit = 10**7
    tracemalloc.start()
    try:
        primes_up_to(limit)
        tracemalloc.reset_peak()
        t = primes_up_to(limit)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the pieces and their join are 2 x the primes; a bitmap over [0, limit)
    # with its copies (the former layout) peaked at 4 x
    assert peak < 3 * t.primes.nbytes


def test_budget_guard():
    with mock.patch.object(arith, "DEFAULT_LIMIT_CAP", 10**6), pytest.raises(BudgetError):
        primes_up_to(10**7)


def test_small_primes_refused_past_its_cap_before_sieving():
    tracemalloc.start()
    try:
        with pytest.raises(BudgetError):
            small_primes(arith.SMALL_PRIMES_CAP + 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16


def test_cli_import_leaves_scipy_unloaded():
    # scipy serves li alone and is imported on its first call
    src = str(Path(__file__).parents[1] / "src")
    probe = ("import sys; sys.path.insert(0, sys.argv[1]); import sievekit.cli; "
             "print(any(m.split('.')[0] == 'scipy' for m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", probe, src], capture_output=True, text=True, check=True).stdout
    assert out.strip() == "False"


def mobius_oracle(n):
    if n == 1:
        return 1
    sign, m = 1, n
    for p in range(2, n + 1):
        if p * p > m:
            break
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            sign = -sign
    if m > 1:
        sign = -sign
    return sign


def test_mobius_small_values():
    assert mobius(1) == 1
    assert mobius(12) == 0
    assert mobius(30) == -1


def test_prime_factors_and_divisors_match_trial_division():
    for n in range(1, 3000):
        assert arith.divisors(n) == [d for d in range(1, n + 1) if n % d == 0], n
        assert arith.prime_factors(n) == tuple(
            d for d in range(2, n + 1) if n % d == 0 and all(d % q for q in range(2, d))), n


def test_mobius_against_oracle_to_1e5():
    for n in range(1, 10**5 + 1):
        assert mobius(n) == mobius_oracle(n), n


def test_truncated_mobius_examples():
    nu = len(factor_squarefree(30))
    assert truncated_mobius(nu, 0) == 1
    assert truncated_mobius(nu, 1) == -2
    assert truncated_mobius(nu, 3) == 0
    # m = 1 has the one divisor 1
    assert all(truncated_mobius(0, ell) == 1 for ell in range(4))


def test_truncated_mobius_identity_exhaustive():
    # truncated sum equals (-1)^ell * C(nu - 1, ell) for all squarefree m <= 1e4
    for n in range(2, 10**4 + 1):
        if mobius(n) == 0:
            continue
        nu = len(factor_squarefree(n))
        for ell in range(nu + 1):
            expected = (-1) ** ell * math.comb(nu - 1, ell)
            # independent route: enumerate divisors directly
            direct = 0
            for bits in range(1 << nu):
                if bin(bits).count("1") <= ell:
                    direct += (-1) ** bin(bits).count("1")
            assert truncated_mobius(nu, ell) == expected == direct


def test_factor_squarefree_rejects_squares():
    with pytest.raises(ValueError):
        factor_squarefree(12)


def test_pi_count_variants(table):
    assert pi_count(table, 100) == 25
    # twin pairs below 100: (3,5),(5,7),(11,13),(17,19),(29,31),(41,43),(59,61),(71,73)
    assert pi_count(table, 100, "twin") == 8
    assert pi_count(table, 100, "progression", k=4, l=1) == 11
    assert pi_count(table, 1000, "twin") == 35
    assert pi_count(table, 10**4, "twin") == 205


def test_twin_count_pinned_to_bitmap_lookup(table):
    ref = bitmap(table.limit)
    for x in range(10**4 + 3):
        ps = table.primes_below(x)
        assert pi_count(table, x, "twin") == int(np.count_nonzero(ref[ps + 2])), x


def test_pi_progression_partition(table):
    # classes coprime to k partition the primes not dividing k
    for k in (3, 4, 10, 12):
        total = sum(
            pi_count(table, 10**4, "progression", k=k, l=l)
            for l in range(k)
            if math.gcd(k, l) == 1
        )
        small = sum(1 for p in (2, 3, 5, 7, 11) if k % p == 0 and p < 10**4)
        assert total == pi_count(table, 10**4) - small


def test_li_against_mpmath():
    # mpmath's offset li is the independent quadrature oracle
    for x in (10, 100, 1000, 10**5):
        assert li(x) == pytest.approx(float(mpmath.li(x, offset=True)), abs=1e-6)
    assert li(2) == 0.0


def test_remainder_E_conventions(table):
    # k = 1 is the degenerate full sequence with phi(1) = 1
    assert remainder_E(table, 1000, 1, 0) == pytest.approx(168 - li(1000), abs=1e-12)
    with pytest.raises(ValueError):
        remainder_E(table, 100, 4, 2)
    e = remainder_E(table, 100, 4, 1)
    assert e == pytest.approx(11 - li(100) / 2, abs=1e-9)


def test_remainder_E_recount(table):
    x = 10**5
    count = pi_count(table, x, "progression", k=3, l=1)
    e = remainder_E(table, x, 3, 1)
    assert abs(e - (count - li(x) / 2)) < 0.5
    assert e == pytest.approx(-(li(x) / 2 - count), abs=1e-9)


def test_mean_remainder_sum(table):
    assert mean_remainder_sum(table, 1000, 2) == pytest.approx(abs(168 - li(1000)), abs=1e-9)
    val = mean_remainder_sum(table, 10**4, 10)
    assert val > 0
    # degenerate regime: moduli at and above x still contribute finite rows
    assert math.isfinite(mean_remainder_sum(table, 100, 100))
    with mock.patch.object(arith, "REMAINDER_WORK_CAP", 10**6), pytest.raises(BudgetError):
        mean_remainder_sum(table, 10**5, 10**4)


def test_euler_phi():
    assert [euler_phi(n) for n in (1, 2, 6, 10, 97)] == [1, 1, 2, 4, 96]
