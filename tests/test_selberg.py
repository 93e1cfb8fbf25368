import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sievekit.arith import divisors, prime_factors, small_primes
from sievekit.problem import OmegaForm, ResidueSystem, build_problem, exact_sift
from sievekit.selberg import (
    G_sum,
    H_factor,
    LambdaWeights,
    _true_remainder,
    dual_b_values,
    dual_coefficient_sum,
    invert_xi,
    linnik_bound,
    optimal_lambda,
    pseudo_character_matrix,
    quadratic_form,
    ramanujan_sum,
    selberg_upper_bound,
    xi_transform,
)


def zero_system(z):
    return ResidueSystem({p: (0,) for p in small_primes(z)})


def twin_system(z):
    return ResidueSystem({p: ((0,) if p == 2 else tuple(sorted({0, p - 2}))) for p in small_primes(z)})


def random_system(rng, z):
    classes = {}
    for p in small_primes(z):
        size = rng.choice([1, 2, max(1, p // 2)])
        size = min(size, p - 1)
        classes[p] = tuple(sorted(rng.sample(range(p), size)))
    return ResidueSystem(classes)


def check_G_splitting(weights, residues):
    """G splits over each support d: G = sum over f | d of H(f) times the H(g) of g coprime to d with g f < z."""
    H = {q: H_factor(prime_factors(q), residues) for q in weights.values}
    for d in weights.values:
        coprime = [(g, hg) for g, hg in H.items() if math.gcd(g, d) == 1]
        total = sum(H[f] * sum(hg for g, hg in coprime if g * f < weights.z) for f in divisors(d))
        assert total == weights.G, d


def check_diagonal_form(weights, residues):
    """The diagonalized form (Halberstam-Richert, ch. 3): sum of xi(f)^2 / H(f) equals S."""
    xi = xi_transform(weights, residues)
    assert sum(v * v / H_factor(prime_factors(f), residues) for f, v in xi.items()) == quadratic_form(weights, residues)


def test_H_factor_examples():
    rs = zero_system(10)
    assert H_factor((), rs) == 1
    assert H_factor((2,), rs) == 1
    assert H_factor((2, 3), rs) == Fraction(1, 2)
    with pytest.raises(ValueError):
        H_factor((11,), rs)  # unsupported prime


def test_G_sum_examples():
    rs = zero_system(10)
    assert G_sum(2, rs) == 1
    assert G_sum(4, rs) == Fraction(5, 2)
    assert G_sum(5, rs) == Fraction(5, 2)  # q = 4 is not squarefree


def test_optimal_lambda_examples():
    rs = zero_system(10)
    w = optimal_lambda(3, rs)
    assert w.values == {1: Fraction(1), 2: Fraction(-1)}
    w2 = optimal_lambda(2, rs)
    assert w2.values == {1: Fraction(1)}
    w10 = optimal_lambda(10, rs)
    assert w10.values[1] == 1
    assert all(abs(v) <= 1 for v in w10.values.values())
    for weights in (w, w2, w10):
        check_G_splitting(weights, rs)


def test_lambda_bounded_at_half_density():
    # |lambda| <= 1 persists even when |Omega(p)| is about p/2
    rng = random.Random(7)
    for z in (10, 20, 30):
        classes = {p: tuple(sorted(rng.sample(range(p), max(1, p // 2)))) for p in small_primes(z)}
        w = optimal_lambda(z, ResidueSystem(classes))
        assert all(abs(v) <= 1 for v in w.values.values())
        check_G_splitting(w, ResidueSystem(classes))


def test_quadratic_form_is_reciprocal_G():
    rs = zero_system(10)
    w2 = optimal_lambda(2, rs)
    assert quadratic_form(w2, rs) == 1
    w3 = optimal_lambda(3, rs)
    assert quadratic_form(w3, rs) == Fraction(1, 2) == 1 / G_sum(3, rs)
    for weights in (w2, w3):
        check_G_splitting(weights, rs)
        check_diagonal_form(weights, rs)
    for z in (5, 10, 17, 30):
        w = optimal_lambda(z, rs)
        assert quadratic_form(w, rs) == 1 / G_sum(z, rs)
        check_diagonal_form(w, rs)


def test_quadratic_form_random_systems():
    rng = random.Random(3)
    for trial in range(10):
        z = rng.choice([8, 12, 20, 30])
        rs = random_system(rng, z)
        w = optimal_lambda(z, rs)
        assert quadratic_form(w, rs) == 1 / G_sum(z, rs)
        check_G_splitting(w, rs)
        check_diagonal_form(w, rs)


def test_perturbed_weights_increase_form():
    rs = zero_system(10)
    w = optimal_lambda(10, rs)
    check_G_splitting(w, rs)
    check_diagonal_form(w, rs)
    S_opt = quadratic_form(w, rs)
    bumped = dict(w.values)
    bumped[2] += Fraction(1, 10)
    S_pert = quadratic_form(LambdaWeights(z=10, values=bumped, G=w.G), rs)
    assert S_pert > S_opt


def test_minimality_against_random_admissible():
    rng = random.Random(11)
    for z in (6, 12, 20):
        rs = zero_system(z)
        w = optimal_lambda(z, rs)
        check_G_splitting(w, rs)
        S_opt = quadratic_form(w, rs)
        support = sorted(w.values)
        for _ in range(100):
            vals = {d: Fraction(rng.randint(-100, 100), 100) for d in support}
            vals[1] = Fraction(1)
            S = quadratic_form(LambdaWeights(z=z, values=vals, G=w.G), rs)
            assert S >= S_opt


def test_xi_transform_closed_form():
    rs = zero_system(10)
    w = optimal_lambda(3, rs)
    check_G_splitting(w, rs)
    xi = xi_transform(w, rs)
    assert xi[1] == Fraction(1, 2) == 1 / w.G
    # optimal xi(f) = mu(f) H(f) / G
    assert xi[2] == -H_factor((2,), rs) / w.G
    for z in (5, 10, 20):
        w = optimal_lambda(z, rs)
        xi = xi_transform(w, rs)
        for f in xi:
            fac = tuple(p for p in small_primes(z) if f % p == 0)
            assert xi[f] == (-1) ** len(fac) * H_factor(fac, rs) / w.G, (z, f)


def test_xi_round_trip_random():
    rng = random.Random(5)
    rs = twin_system(20)
    w0 = optimal_lambda(20, rs)
    support = sorted(w0.values)
    for _ in range(20):
        vals = {d: Fraction(rng.randint(-50, 50), 50) for d in support}
        vals[1] = Fraction(1)
        w = LambdaWeights(z=20, values=vals, G=w0.G)
        xi = xi_transform(w, rs)
        back = invert_xi(xi, rs, 20)
        assert back == vals


def test_selberg_upper_bound_interval():
    form = OmegaForm(1, 100, zero_system(5))
    rep = selberg_upper_bound(form, 5)
    assert rep.main == pytest.approx(40.0)  # 100 / (5/2)
    assert rep.exact == 33
    assert rep.bound >= rep.exact
    assert rep.verdict == "valid"


def test_selberg_upper_bound_z2():
    form = OmegaForm(1, 100, zero_system(5))
    rep = selberg_upper_bound(form, 2)
    assert rep.bound == pytest.approx(100.0)
    assert rep.exact == 100


def test_selberg_upper_bound_twin_via_problem():
    prob = build_problem("twin", {"x": 10**4})
    rep = selberg_upper_bound(prob, 20)
    assert rep.exact == exact_sift(prob, 20)
    assert rep.bound >= rep.exact
    crude = selberg_upper_bound(prob, 20, worst_case=True)
    assert crude.bound >= rep.exact


def test_linnik_bound_quantitative():
    form = OmegaForm(1, 100, zero_system(5))
    rep = linnik_bound(form, 5)
    assert rep.bound == pytest.approx(50.0)
    assert Fraction(125, 1) * Fraction(2, 5) == 50  # (100 + 25) / (5/2)
    assert rep.exact == 33
    assert rep.verdict == "valid"


def test_linnik_bound_z2():
    form = OmegaForm(0, 50, zero_system(5))
    rep = linnik_bound(form, 2)
    assert rep.bound == pytest.approx(54.0)  # (50 + 4) / 1
    assert rep.exact == 50


def test_linnik_bound_twin_style():
    rs = ResidueSystem({p: ((0,) if p == 2 else tuple(sorted({0, p - 2}))) for p in small_primes(30)})
    form = OmegaForm(1, 10**4, rs)
    rep = linnik_bound(form, 30)
    assert rep.bound >= rep.exact
    assert rep.verdict == "valid"


def test_linnik_bound_twin_report_pinned():
    # the dual check folds 444 Farey points over 99 997 indices; the report is exact
    rep = linnik_bound(build_problem("twin", {"x": 10**5}), 45)
    assert rep.row() == {
        "method": "linnik", "problem": "twin(x=100000)", "direction": "upper",
        "main": 6720.696374373087, "remainder_bound": 0.0, "bound": 6720.696374373087,
        "exact": 2681, "margin": 4039.6963743730867, "verdict": "valid", "param_z": 45,
    }


def test_bounds_above_profile_window_sift_every_prime():
    # the stored residue classes stop at 53; z = 60 must still sift by 53 and 59
    prob = build_problem("twin", {"x": 10**5})
    exact = exact_sift(prob, 60)
    assert exact == 2371
    for rep in (selberg_upper_bound(prob, 60), linnik_bound(prob, 60)):
        assert rep.exact == exact
        assert rep.bound >= exact


def test_linnik_past_2_63_with_denominators_above_the_length():
    # interval [10^30 - 4, 10^30]: the Farey denominators 5 and 7 reach past N = 5
    prob = build_problem("interval", {"x": 10**30, "y": 5})
    rep = linnik_bound(prob, 10)
    assert rep.exact == exact_sift(prob, 10) == 1
    assert rep.verdict == "valid"


def test_short_interval_prime_bound():
    # primes in (x-y, x]: the dual-route bound lands within the classical
    # factor-2 shape of y / log y (2.5 absorbs desk-scale drift)
    import numpy as np

    from sievekit.arith import primes_up_to

    x, y = 10**6, 10**4
    table = primes_up_to(x + 1)
    exact = int(np.count_nonzero((table.primes > x - y) & (table.primes <= x)))
    z = int(math.sqrt(y / math.log(y)))
    rs = ResidueSystem({p: (0,) for p in small_primes(z)})
    form = OmegaForm(x - y + 1, y, rs)
    rep = linnik_bound(form, z)
    assert rep.bound + z >= exact
    ratio = (rep.bound + z) / (y / math.log(y))
    assert ratio <= 2.5


def test_dual_sum_matches_form_random():
    rng = random.Random(9)
    for z in (6, 10, 15, 20):
        for _ in range(3):
            rs = random_system(rng, z)
            w = optimal_lambda(z, rs)
            S = quadratic_form(w, rs)
            assert dual_coefficient_sum(w, rs) == S
            _, b = dual_b_values(w, rs)
            assert float(np.sum(np.abs(b) ** 2)) == pytest.approx(float(S), rel=1e-9)


def test_ramanujan_sum_values():
    assert ramanujan_sum(1, 5) == 1
    assert ramanujan_sum(6, 0) == 2  # phi(6)
    assert ramanujan_sum(5, 5) == 4
    assert ramanujan_sum(5, 1) == -1
    assert ramanujan_sum(6, -3) == ramanujan_sum(6, 3) == -2
    # cross-check against the root-of-unity definition; dual_coefficient_sum
    # passes m = h1 - h2, which may be negative
    for q in range(1, 61):
        for m in range(-q - 1, q + 2):
            direct = sum(
                complex(math.cos(2 * math.pi * a * m / q), math.sin(2 * math.pi * a * m / q))
                for a in range(1, q + 1)
                if math.gcd(a, q) == 1
            )
            assert ramanujan_sum(q, m) == pytest.approx(direct.real, abs=1e-9), (q, m)
    from sievekit.selberg import psi_value

    rs = zero_system(60)
    for q in (4, 9, 12, 18, 50, 2 * 3 * 7 * 7):
        with pytest.raises(ValueError):
            psi_value(q, 1, rs)


def test_psi_value_matches_matrix():
    from sievekit.selberg import psi_value

    rs = twin_system(12)
    mat = pseudo_character_matrix(12, rs, 5, 50)
    for qi, q in enumerate(mat.qs):
        for ni, n in enumerate(range(5, 55)):
            assert psi_value(q, n, rs) == pytest.approx(mat.matrix[qi, ni], abs=1e-12)
    with pytest.raises(ValueError):
        psi_value(4, 1, rs)


def test_pseudo_character_basics():
    rs = zero_system(10)
    mat = pseudo_character_matrix(10, rs, 0, 100)
    # q = 1 row is identically 1
    q1 = mat.qs.index(1)
    assert np.allclose(mat.matrix[q1], 1.0)
    # prime q, n outside Omega(p): psi = -sqrt(H(p))
    q2 = mat.qs.index(2)
    h2 = float(H_factor((2,), rs))
    assert mat.matrix[q2, 1] == pytest.approx(-math.sqrt(h2))  # n = 1 odd
    assert mat.matrix[q2, 0] == pytest.approx(math.sqrt(h2) / h2)  # n = 0 in Omega(2)


def test_pseudo_character_ls_inequalities():
    rng = np.random.default_rng(1)
    rs = twin_system(20)
    mat = pseudo_character_matrix(20, rs, 1, 500)
    for _ in range(50):
        a = rng.normal(size=500) + 1j * rng.normal(size=500)
        lhs, rhs = mat.row_check(a)
        assert lhs <= rhs * (1 + 1e-12)
        b = rng.normal(size=mat.matrix.shape[0]) + 1j * rng.normal(size=mat.matrix.shape[0])
        lhs, rhs = mat.column_check(b)
        assert lhs <= rhs * (1 + 1e-12)


def test_pseudo_character_recovers_sieve_bound():
    rs = zero_system(12)
    mat = pseudo_character_matrix(12, rs, 1, 1000)
    count, recovered, direct = mat.sifted_recovery_check()
    assert count <= recovered <= direct


def test_budget_guard():
    from sievekit.arith import BudgetError

    rs = zero_system(10)
    with pytest.raises(BudgetError):
        pseudo_character_matrix(10, rs, 0, 10**6)


# -- the Fraction double loops the integer kernels replaced, kept as references --


def reference_quadratic_form(weights, residues):
    """S over every ordered pair in the gcd form |Omega(d1)||Omega(d2)| g / (d1 d2 |Omega(g)|), one Fraction each."""
    items = [(d, lam) for d, lam in weights.values.items() if lam != 0]
    dens = {d: Fraction(residues.size_d(prime_factors(d)), d) for d, _ in items}
    S = Fraction(0)
    for d1, l1 in items:
        for d2, l2 in items:
            g = math.gcd(d1, d2)
            S += dens[d1] * dens[d2] * Fraction(g, residues.size_d(prime_factors(g))) * l1 * l2
    return S


def reference_true_remainder(form, weights):
    """Fraction coefficients per lcm, each lcm factored, R_m = |A_m| - |Omega(m)| N / m."""
    coeff = {}
    items = [(d, lam) for d, lam in weights.values.items() if lam != 0]
    for d1, l1 in items:
        for d2, l2 in items:
            m = d1 * d2 // math.gcd(d1, d2)
            coeff[m] = coeff.get(m, 0) + l1 * l2
    total = Fraction(0)
    for m, c in coeff.items():
        fac = prime_factors(m)
        count = form.residues.count_in_interval(form.M, form.N, fac)
        total += c * (count - Fraction(form.residues.size_d(fac), m) * form.N)
    return total


def reference_dual_coefficient_sum(weights, residues):
    """Every ordered pair, every pair of roots, every q | gcd through ramanujan_sum."""
    items = [(d, lam) for d, lam in weights.values.items() if lam != 0]
    roots = {d: residues.roots_mod(prime_factors(d)) for d, _ in items}
    total = Fraction(0)
    for d1, l1 in items:
        for d2, l2 in items:
            qs = divisors(math.gcd(d1, d2))
            inner = sum(ramanujan_sum(q, h1 - h2) for h1 in roots[d1] for h2 in roots[d2] for q in qs)
            total += l1 * l2 * Fraction(inner, d1 * d2)
    return total


KERNEL_PROBLEMS = {
    "interval": {"x": 10**4, "y": 9999},
    "twin": {"x": 10**4},
    "goldbach": {"N": 10030},
    "progression": {"x": 10**4, "k": 7, "l": 3},  # 7 is inert
}


@pytest.mark.parametrize("kind", sorted(KERNEL_PROBLEMS))
def test_integer_kernels_equal_fraction_loops(kind):
    # on both sides of the profile window (z = 53), with optimal and with perturbed weights
    prob = build_problem(kind, KERNEL_PROBLEMS[kind])
    for z in (2, 15, 45, 53, 54, 60):
        form = prob.omega_form(z)
        w = optimal_lambda(z, form.residues)
        S = quadratic_form(w, form.residues)
        assert S == reference_quadratic_form(w, form.residues) == 1 / w.G, (kind, z)
        assert _true_remainder(form, w) == reference_true_remainder(form, w), (kind, z)
        assert dual_coefficient_sum(w, form.residues) == reference_dual_coefficient_sum(w, form.residues) == S
        bumped = {d: lam * Fraction(9, 10) if d > 1 else lam for d, lam in w.values.items()}
        wb = LambdaWeights(z=z, values=bumped, G=w.G)
        Sb = quadratic_form(wb, form.residues)
        assert Sb == reference_quadratic_form(wb, form.residues) == dual_coefficient_sum(wb, form.residues)
        assert _true_remainder(form, wb) == reference_true_remainder(form, wb), (kind, z)


def test_selberg_remainder_at_z100_equals_fraction_loop():
    prob = build_problem("twin", {"x": 10**4})
    form = prob.omega_form(100)
    w = optimal_lambda(100, form.residues)
    rem = reference_true_remainder(form, w)
    assert _true_remainder(form, w) == rem
    rep = selberg_upper_bound(prob, 100)
    assert rep.remainder_bound == float(rem) and rep.bound == float(Fraction(form.N) / w.G + rem)


@st.composite
def residue_systems(draw):
    z = draw(st.integers(2, 40))
    classes = {}
    for p in small_primes(z):
        size = draw(st.integers(0, min(p - 1, 3)))
        classes[p] = tuple(sorted(draw(st.sets(st.integers(0, p - 1), min_size=size, max_size=size))))
    return z, ResidueSystem(classes)


@given(residue_systems(), st.integers(-10**6, 10**30), st.integers(1, 3000), st.data())
@settings(max_examples=40, deadline=None)
def test_integer_kernels_on_random_residue_systems(zrs, M, N, data):
    z, rs = zrs
    w = optimal_lambda(z, rs)
    vals = {d: Fraction(data.draw(st.integers(-100, 100)), 100) if d > 1 else Fraction(1) for d in w.values}
    for weights in (w, LambdaWeights(z=z, values=vals, G=w.G)):
        S = quadratic_form(weights, rs)
        assert S == reference_quadratic_form(weights, rs) == dual_coefficient_sum(weights, rs)
        assert S == reference_dual_coefficient_sum(weights, rs)
        form = OmegaForm(M, N, rs)
        assert _true_remainder(form, weights) == reference_true_remainder(form, weights)
