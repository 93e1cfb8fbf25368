"""Property-based checks for the structural invariants."""

import math
from fractions import Fraction
from unittest import mock

import numpy as np
from hypothesis import assume, example, given, settings, strategies as st

from sievekit import problem as problem_mod
from sievekit.arith import mobius, small_primes
from sievekit.brun import PureSieveConfig, exact_indicator, truncated_indicator
from sievekit.largesieve import farey_points, hilbert_ls_check
from sievekit.problem import _PROFILE_Z, ResidueSystem, _Profile, build_problem, exact_sift
from sievekit.selberg import G_sum, H_factor

from reference import survivors, value_histogram_per_prime


@given(st.integers(1, 5000), st.integers(1, 5000))
def test_mobius_multiplicative_on_coprime(a, b):
    if math.gcd(a, b) == 1:
        assert mobius(a * b) == mobius(a) * mobius(b)


@given(st.integers(1, 10**5), st.integers(2, 30), st.integers(0, 4))
@settings(max_examples=300)
def test_truncation_sandwich(n, z, ell):
    exact = exact_indicator(n, z)
    up = truncated_indicator(n, PureSieveConfig(z, ell, "upper"))
    lo = truncated_indicator(n, PureSieveConfig(z, ell, "lower"))
    assert lo <= exact <= up


@given(
    st.integers(2, 25),
    st.lists(st.tuples(st.floats(-3, 3), st.floats(-3, 3)), min_size=2, max_size=60),
)
@settings(max_examples=200)
def test_additive_energy_bound(Q, pairs):
    pts = farey_points(Q)
    a = np.array([complex(re, im) for re, im in pairs])
    n = np.arange(len(a))
    E = np.exp(2j * np.pi * np.outer(np.array(pts.points, dtype=float), n))
    lhs = float(np.sum(np.abs(E @ a) ** 2))
    rhs = float((len(a) - 1 + 1 / pts.delta) * np.sum(np.abs(a) ** 2))
    assert lhs <= rhs * (1 + 1e-12) + 1e-12


@st.composite
def _hilbert_case(draw):
    dim = draw(st.integers(1, 8))
    m = draw(st.integers(1, 6))
    vec = st.lists(st.builds(complex, st.floats(-2, 2), st.floats(-2, 2)), min_size=dim, max_size=dim)
    return draw(st.lists(vec, min_size=m, max_size=m)), draw(vec)


@given(_hilbert_case())
@settings(max_examples=150)
# |v|^2 and <psi, v> are subnormal here unless the family is scaled first;
# the second vector of the last family is 10^161 times the first
@example(([[9.53e-162 + 9.53e-162j]], [1j]))
@example(([[9.53e-162 + 9.53e-162j]], [0.75j]))
@example(([[3e-161, 0], [0, 1]], [1, 0]))
def test_hilbert_inequality_random_families(case):
    fam, psi = np.array(case[0]), np.array(case[1])
    if np.any(np.linalg.norm(fam, axis=1) == 0):
        return
    lhs, rhs = hilbert_ls_check(fam, psi)
    assert lhs <= rhs * (1 + 1e-9) + 1e-12


@given(st.integers(2, 40), st.integers(2, 40))
@settings(max_examples=100)
def test_G_monotone_in_z(z1, z2):
    rs = ResidueSystem({p: (0,) for p in small_primes(41)})
    if z1 <= z2:
        assert G_sum(z1, rs) <= G_sum(z2, rs)


@given(st.integers(5, 400), st.integers(2, 20))
@settings(max_examples=100, deadline=None)
def test_sift_counts_monotone(x, z):
    prob = build_problem("interval", {"x": x, "y": x})
    assert exact_sift(prob, z) >= exact_sift(prob, z + 1)
    assert exact_sift(prob, 2) == prob.size


def _affine_problem(data):
    kind = data.draw(st.sampled_from(("interval", "twin", "goldbach", "progression")))
    if kind == "interval":
        x = data.draw(st.integers(2, 300))
        params = {"x": x, "y": data.draw(st.integers(2, x))}
    elif kind == "twin":
        params = {"x": data.draw(st.integers(5, 300))}
    elif kind == "goldbach":
        params = {"N": 2 * data.draw(st.integers(4, 150))}
    else:
        k = data.draw(st.integers(1, 12))
        l = data.draw(st.integers(0, k - 1))
        assume(math.gcd(k, l) == 1)
        params = {"x": data.draw(st.integers(2, 300)), "k": k, "l": l}
    return build_problem(kind, params)


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_block_sieve_matches_value_divisibility(data):
    # blocks of 1, 7 or 64 split the index range; z and the primes of d straddle
    # the profile window _PROFILE_Z = 53, past which profiles are built by the block sieve
    block = data.draw(st.sampled_from((1, 7, 64)))
    z = data.draw(st.integers(2, 70))
    d_primes = tuple(data.draw(st.lists(st.sampled_from(small_primes(72)), max_size=3, unique=True)))
    with mock.patch.object(problem_mod, "_BLOCK", block):
        prob = _affine_problem(data)
        vals = prob.values()
        sifting = small_primes(z)
        scan = [all(v % p == 0 for p in d_primes) and all(v % p for p in sifting) for v in vals.tolist()]
        assert prob.profile(tuple(sorted({*sifting, *d_primes}))).sift_count(z, d_primes) == sum(scan)
        assert np.array_equal(prob.profile()._superset,
                              _Profile._superset_sum(value_histogram_per_prime(vals, small_primes(_PROFILE_Z))))
        in_window = [p for p in d_primes if p < _PROFILE_Z]
        assert prob.profile().count_multiple(in_window) == sum(all(v % p == 0 for p in in_window) for v in vals.tolist())
        keep = survivors(vals, sifting)
        assert np.array_equal(prob.omega_form().survivor_mask(z), keep)
        assert exact_sift(prob, z) == int(np.count_nonzero(keep))
