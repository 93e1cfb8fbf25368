import gc
import math
import weakref
from dataclasses import fields
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sievekit.arith import BudgetError, factor_squarefree, factorize, mobius, primes_up_to, small_primes
from sievekit import rosser
from sievekit.legendre import density_product
from sievekit.problem import SieveProblem, SiftingDensity, build_problem, exact_sift
from sievekit.reports import write_rows
from sievekit.rosser import (
    TWO_E_EULER,
    ChenReport,
    IdentityReport,
    RosserWeightTable,
    buchstab_check,
    chen_decomposition,
    chen_weight,
    default_sieve_functions,
    linear_sieve_bound,
    parity_extremal,
    rosser_identity,
    solve_sieve_functions,
    truncation_inequality_check,
    twin_constant,
    weight_walk,
)

from reference import divisibility, factor_count_reference, masked_sift_count, reference_sift_count


# -- weight tables ----------------------------------------------------------


def test_eta_chain_base_cases():
    w = RosserWeightTable(D=1000.0, beta=2.0, r=0)
    assert (w.rho_chain(()), w.sigma_chain(())) == (1, 0)
    # single prime, parity 1: kept iff p^(beta+1) < D
    w1 = RosserWeightTable(D=1000.0, beta=2.0, r=1)
    assert w1.rho_chain((7,)) == 1  # 343 < 1000
    assert w1.rho_chain((11,)) == 0  # 1331 >= 1000
    # parity 0 keeps single primes unconditionally
    assert w.rho_chain((997,)) == 1


def test_rho_closed_hand_case():
    w = RosserWeightTable(D=1000.0, beta=2.0, r=0)
    assert w.rho_closed((7, 5)) == 1  # 7 * 125 = 875 < 1000
    assert w.rho_closed((11, 5)) == 0  # 11 * 125 = 1375


def squarefree_factor_lists(limit):
    """Descending factor tuples for every squarefree d < limit, via an SPF sieve."""
    spf = np.zeros(limit, dtype=np.int64)
    for p in range(2, limit):
        if spf[p] == 0:
            spf[p::p] = np.where(spf[p::p] == 0, p, spf[p::p])
    out = {1: ()}
    for d in range(2, limit):
        m, factors, squarefree = d, [], True
        while m > 1:
            p = int(spf[m])
            m //= p
            if m % p == 0:
                squarefree = False
                break
            factors.append(p)
        if squarefree:
            out[d] = tuple(sorted(factors, reverse=True))
    return out


def test_chain_matches_closed_exhaustive():
    # every squarefree d below 1e5, all six (beta, D) configurations
    tuples = squarefree_factor_lists(10**5)
    for beta in (1.5, 2.0, 3.0):
        for D in (1000.0, 10000.0):
            for r in (0, 1):
                w = RosserWeightTable(D=D, beta=beta, r=r)
                for d, fac in tuples.items():
                    assert w.rho_chain(fac) == w.rho_closed(fac), (beta, D, r, d)
                    assert w.sigma_chain(fac) == w.sigma_closed(fac), (beta, D, r, d)


def test_level_condition():
    # every kept divisor with at least one level test sits below the level
    for r in (0, 1):
        for D in (1000.0, 10000.0):
            w = RosserWeightTable(D=D, beta=2.0, r=r)
            for nfac in range(5):
                for fac in combinations(list(reversed(small_primes(30))), nfac):
                    d = math.prod(fac)
                    if w.rho_chain(fac) and d < 10**5 and fac:
                        if r == 1 or len(fac) >= 2:
                            assert d < D, (r, D, fac)


def test_tie_resolves_to_zero():
    # p^beta * d == D exactly: the strict rule drops the branch
    w = RosserWeightTable(D=4.0 * 2, beta=2.0, r=0)  # D = 8: 2 * 2^2 = 8
    assert w.rho_chain((2,)) == 1  # parity rule, no level test at nu=1
    w1 = RosserWeightTable(D=8.0, beta=2.0, r=1)
    assert w1.rho_chain((2,)) == 0  # 2^3 = 8, not < 8


# -- iteration identities ----------------------------------------------------


def test_buchstab_trivial_and_small():
    prob = build_problem("interval", {"x": 100, "y": 100})
    rep = buchstab_check(prob, 6, 6)
    assert rep.holds and rep.lhs == rep.rhs
    rep = buchstab_check(prob, 2, 6)
    assert rep.holds


def test_buchstab_across_kinds(table):
    problems = [
        build_problem("interval", {"x": 10**4, "y": 10**4}),
        build_problem("twin", {"x": 1000}),
        build_problem("goldbach", {"N": 1500}),
        build_problem("progression", {"x": 2000, "k": 5, "l": 3}),
        build_problem("parity", {"x": 3000, "r": 0}),
        build_problem("shifted_prime", {"x": 3000}, table=table),
    ]
    for prob in problems:
        for z0, z in ((2, 6), (3, 12), (5, 29), (7, 30)):
            rep = buchstab_check(prob, z0, z)
            assert rep.holds, (prob.kind, z0, z)


def test_rosser_identity_all_kinds(table):
    problems = [
        build_problem("interval", {"x": 10**4, "y": 9999}),
        build_problem("twin", {"x": 1000}),
        build_problem("goldbach", {"N": 1200}),
        build_problem("progression", {"x": 2500, "k": 3, "l": 2}),
        build_problem("parity", {"x": 2500, "r": 1}),
        build_problem("shifted_prime", {"x": 2500}, table=table),
    ]
    for prob in problems:
        for r in (0, 1):
            for z0, z in ((2, 15), (3, 20), (2, 30)):
                w = RosserWeightTable(D=1000.0, beta=2.0, r=r)
                rep = rosser_identity(prob, z0, z, w)
                assert rep.holds, (prob.kind, r, z0, z)
                assert rep.detail["bound_holds"]
                assert rep.detail["v_identity_holds"]


def test_rosser_identity_vacuous_weights():
    prob = build_problem("twin", {"x": 1000})
    # eta identically 1: the weights degenerate to full inclusion-exclusion
    rep = rosser_identity(prob, 2, 12, RosserWeightTable(D=math.inf, beta=2.0, r=1))
    assert rep.holds
    assert rep.detail["sigma_sum"] == 0


def test_rosser_sandwich_both_parities():
    prob = build_problem("twin", {"x": 1000})
    lo = rosser_identity(prob, 2, 15, RosserWeightTable(D=1000.0, beta=2.0, r=0))
    hi = rosser_identity(prob, 2, 15, RosserWeightTable(D=1000.0, beta=2.0, r=1))
    exact = exact_sift(prob, 15)
    assert lo.detail["rho_sum"] <= exact <= hi.detail["rho_sum"]


def test_monotone_improvement_in_level():
    # enlarging D tends to improve the lower bound; local exceptions are
    # logged rather than failed, the end-to-end trend must hold
    prob = build_problem("twin", {"x": 10**4})
    z = 20
    bounds = []
    for D in (float(z * z), 1000.0, 3000.0, 10**4.0, 10**5.0):
        rep = rosser_identity(prob, 2, z, RosserWeightTable(D=D, beta=2.0, r=0))
        bounds.append(rep.detail["rho_sum"])
    exceptions = [(a, b) for a, b in zip(bounds, bounds[1:]) if a > b]
    if exceptions:
        print(f"level-grid regressions (logged, tendency only): {exceptions}")
    assert bounds[-1] >= bounds[0]
    assert len(exceptions) <= 1


def test_truncation_inequalities():
    rep = truncation_inequality_check(20.0**3, 2.0, 1, 20)
    assert rep["holds"] and rep["kept_checked"] > 1
    rep = truncation_inequality_check(15.0**4, 3.0, 0, 15)
    assert rep["holds"]
    rep = truncation_inequality_check(8000.0, 2.0, 0, 20)
    assert rep["holds"] and rep["boundary_checked"] > 0
    with pytest.raises(ValueError):
        truncation_inequality_check(100.0, 2.0, 0, 20)


def reference_buchstab_check(problem, z0, z):
    """The per-item Buchstab check: every count is its own scan of the values."""
    lhs = exact_sift(problem, z)
    total = exact_sift(problem, z0)
    drops = {}
    for p in problem.sifting_primes(z, z0):
        drops[p] = reference_sift_count(problem, p, (p,))
        total -= drops[p]
    return IdentityReport(lhs, total, lhs == total, {"drops": drops})


def reference_rosser_identity(problem, z0, z, weights):
    """The per-item Rosser identity: one scan of the values and one Fraction density term per walk item."""
    primes = problem.sifting_primes(z, z0)
    lhs = exact_sift(problem, z)
    rho_sum = sigma_sum = 0
    v0 = v_sigma = Fraction(0)
    dens = problem.density
    for tag, d, factors, mu in weight_walk(primes, weights):
        w_d = dens.omega_d(factors)
        if tag == "rho":
            rho_sum += mu * reference_sift_count(problem, z0, factors)
            v0 += mu * w_d / d
        else:
            sigma_sum += reference_sift_count(problem, factors[-1], factors)
            v_sigma += w_d / d * density_product(dens, factors[-1])
    sign = (-1) ** weights.r
    v_lhs = density_product(dens, z)
    v_rhs = density_product(dens, z0) * v0 + sign * v_sigma
    detail = {"rho_sum": rho_sum, "sigma_sum": sigma_sum, "bound_holds": sign * (lhs - rho_sum) >= 0,
              "v_identity_holds": v_lhs == v_rhs, "v_lhs": v_lhs, "v_rhs": v_rhs}
    return IdentityReport(lhs, rho_sum + sign * sigma_sum, lhs == rho_sum + sign * sigma_sum, detail)


def _identity_problem(kind, table):
    if kind == "custom":
        # 7 is inert (omega(7) = 0) and divides no element; the density is fractional, and so is X
        elements = [n for n in range(1, 4000) if n % 7]
        density = SiftingDensity(lambda p: Fraction(0) if p == 7 else Fraction(2 * p, 2 * p + 1))
        return build_problem("custom", {"elements": elements, "density": density, "X": Fraction(6857, 2)})
    params = {"interval": {"x": 6000, "y": 5000}, "twin": {"x": 4000}, "goldbach": {"N": 4000},
              # 3 divides k, so it is inert for the progression
              "progression": {"x": 6000, "k": 3, "l": 2}, "parity": {"x": 2 * 10**4, "r": 1},
              "shifted_prime": {"x": 6000}}[kind]
    return build_problem(kind, params, table=table)


@pytest.mark.parametrize("kind", ["interval", "twin", "goldbach", "progression", "parity", "shifted_prime", "custom"])
def test_identities_read_off_profile_match_per_item_references(kind, table):
    # the profile answers every count on both sides of z = 53; parity at z = 60, D = 1e6, r = 1
    # is the shape whose per-item sigma terms made one pass over the values per prime
    prob = _identity_problem(kind, table)
    for z in (15, 47, 53, 54, 60):
        for z0 in (2, 3, 5):
            assert repr(buchstab_check(prob, z0, z)) == repr(reference_buchstab_check(prob, z0, z)), (z0, z)
            for D in (1e3, 1e6):
                for r in (0, 1):
                    w = RosserWeightTable(D=D, beta=2.0, r=r)
                    rep = rosser_identity(prob, z0, z, w)
                    assert repr(rep) == repr(reference_rosser_identity(prob, z0, z, w)), (z0, z, D, r)
                    assert rep.holds and rep.detail["v_identity_holds"]


def test_counts_sifted_by_no_prime_read_the_superset_table():
    # w <= 2 sifts by no prime, so every rho term at z0 = 2 reads the profile's own superset table
    prob = build_problem("twin", {"x": 2 * 10**4})
    assert rosser_identity(prob, 2, 60, RosserWeightTable(D=1e6, beta=2.0, r=1)).holds
    assert buchstab_check(prob, 2, 60).holds
    prof = prob.profile(prob.sifting_primes(60))
    assert prof._sifted[0] is prof._superset


def test_identities_refuse_a_profile_past_25_primes():
    # 29 primes below 110: the 2^29-entry profile is refused before it is built
    prob = build_problem("twin", {"x": 1000})
    with pytest.raises(BudgetError):
        rosser_identity(prob, 2, 110, RosserWeightTable(D=1e3, beta=2.0, r=0))
    with pytest.raises(BudgetError):
        buchstab_check(prob, 2, 110)


def test_identities_need_2_le_z0_le_z():
    prob = build_problem("twin", {"x": 1000})
    for z0, z in ((5, 3), (1, 10)):
        with pytest.raises(ValueError):
            rosser_identity(prob, z0, z, RosserWeightTable(D=1e3, beta=2.0, r=0))
        with pytest.raises(ValueError):
            buchstab_check(prob, z0, z)


@pytest.mark.parametrize("z", [0, 1])
def test_linear_and_parity_refuse_z_below_2(z):
    # both divide by log z; z < 2 is refused first, as every other engine refuses it
    with pytest.raises(ValueError, match="z must be >= 2"):
        linear_sieve_bound(build_problem("twin", {"x": 1000}), z, 1e3, 1)
    with pytest.raises(ValueError, match="z must be >= 2"):
        parity_extremal(1000, z, 0)


# -- sieve functions ----------------------------------------------------------


@pytest.fixture(scope="module")
def functions():
    return default_sieve_functions()


def test_initial_values(functions):
    assert functions.phi(1, 2.0) == pytest.approx(math.exp(0.5772156649015329), abs=1e-9)
    assert functions.phi(0, 2.0) == 0.0
    assert functions.phi(0, 1.5) == 0.0
    assert functions.phi(1, 1.0) == pytest.approx(TWO_E_EULER, abs=1e-9)


def test_closed_form_on_first_window(functions):
    for tau in (2.2, 2.5, 3.0, 3.5, 4.0):
        expected = TWO_E_EULER * math.log(tau - 1) / tau
        assert functions.phi(0, tau) == pytest.approx(expected, abs=1e-6), tau
    for tau in (2.1, 2.7, 3.0):
        assert functions.phi(1, tau) == pytest.approx(TWO_E_EULER / tau, abs=1e-9)
    # continuity from the right at tau = 2
    assert functions.phi(0, 2.001) < 1e-2


def test_three_point_consistency(functions):
    assert 3 * functions.phi(1, 3.0) == pytest.approx(TWO_E_EULER, abs=1e-9)


def test_limits_and_ordering(functions):
    assert functions.phi(0, 10.0) == pytest.approx(1.0, abs=1e-4)
    assert functions.phi(1, 10.0) == pytest.approx(1.0, abs=1e-4)
    mid = (functions.taus >= 2.5) & (functions.taus <= 6.0)
    assert np.all(functions.phi0[mid] < functions.phi1[mid])
    assert np.all(functions.phi0 <= functions.phi1 + 1e-6)


def test_step_halving_convergence():
    coarse = solve_sieve_functions(tau_max=6.0, step=1e-3)
    fine = solve_sieve_functions(tau_max=6.0, step=5e-4)
    # common grid points: every second fine point
    diff0 = np.max(np.abs(coarse.phi0 - fine.phi0[1::2]))
    diff1 = np.max(np.abs(coarse.phi1 - fine.phi1[1::2]))
    assert max(diff0, diff1) < 4e-6


def _row_loop_sieve_functions(tau_max, step):
    """The row-by-row integration of the delay system, the reference for the blockwise solver."""
    m = round(1 / step)
    h = 1.0 / m
    n = int(round(tau_max * m))
    taus = np.arange(1, n + 1) / m
    phi1 = np.where(taus <= 2, TWO_E_EULER / taus, 0.0)
    phi0 = np.zeros(n)
    acc0 = acc1 = 0.0
    for i in range(2 * m + 1, n + 1):
        acc0 += h / 2 * (phi1[i - m - 2] + phi1[i - m - 1])
        acc1 += h / 2 * (phi0[i - m - 2] + phi0[i - m - 1])
        phi0[i - 1] = acc0 / taus[i - 1]
        phi1[i - 1] = (TWO_E_EULER + acc1) / taus[i - 1]
    return phi0, phi1


@pytest.mark.parametrize("tau_max, step", [(12.0, 1e-3), (4.5, 1e-3), (7.3, 5e-4), (3.0, 2.5e-4)])
def test_blockwise_solver_matches_row_loop(tau_max, step):
    # whole and partial last blocks; the running sums add in the loop's order
    table = solve_sieve_functions(tau_max, step)
    phi0, phi1 = _row_loop_sieve_functions(tau_max, step)
    assert np.array_equal(table.phi0, phi0)
    assert np.array_equal(table.phi1, phi1)


def test_step_guard():
    with pytest.raises(ValueError):
        solve_sieve_functions(step=0.01)
    # tau_max = 2 leaves no row past the closed-form seed to integrate
    for tau_max in (1.5, 2.0, 2.0004):
        with pytest.raises(ValueError, match="tau_max must exceed 2"):
            solve_sieve_functions(tau_max=tau_max)
    assert len(solve_sieve_functions(tau_max=2.001).taus) == 2001
    # NaN fails every comparison, so the cap and the grid-row count alone would let it through
    for tau_max in (float("nan"), float("inf"), -float("inf"), 20.5):
        with pytest.raises(ValueError, match="tau_max must be finite and at most 20"):
            solve_sieve_functions(tau_max=tau_max)


def test_csv_round_trip(tmp_path, functions):
    path = tmp_path / "phi.csv"
    write_rows(functions.rows(), str(path), "csv")
    lines = path.read_text().splitlines()
    assert lines[0] == "tau,phi0,phi1"
    assert len(lines) == len(functions.taus) + 1


# -- linear sieve bound --------------------------------------------------------


def test_linear_sieve_progression(table):
    x = 10**5
    prob = build_problem("progression", {"x": x, "k": 3, "l": 1})
    z = int(round(x ** (1 / 10)))
    rep = linear_sieve_bound(prob, max(z, 3), x**0.5, 1)
    assert rep.verdict == "valid"
    assert rep.params["dimension_ok"]


def test_linear_sieve_shifted_prime_lower(table):
    prob = build_problem("shifted_prime", {"x": 10**5}, table=table)
    rep = linear_sieve_bound(prob, 10, 10**4.0, 0)
    assert rep.main > 0  # tau = 4 > 2 so the lower factor is positive
    assert rep.verdict == "valid"


def test_linear_sieve_trivial_when_tau_below_2():
    prob = build_problem("interval", {"x": 10**4, "y": 10**4})
    rep = linear_sieve_bound(prob, 100, 100.0**1.5, 0)
    assert rep.main == 0.0
    assert rep.verdict == "valid"


# -- parity extremal -----------------------------------------------------------


def test_parity_extremal_z2_trivial():
    rep = parity_extremal(10**4, 2, 0)
    assert rep.exact == rep.rho_sum
    assert rep.identity_exact


def test_parity_extremal_exact_identity():
    for r in (0, 1):
        rep = parity_extremal(10**5, 10, r)
        assert rep.identity_exact and rep.full_identity_exact
        assert rep.sigma_sum == 0


def test_parity_extremal_full_identity_with_defect():
    # once discarded branches retain survivors the plain sum drifts but the
    # two-sum identity stays exact
    rep = parity_extremal(10**6, 31, 1)
    assert rep.full_identity_exact
    assert rep.sigma_sum > 0 and not rep.identity_exact
    assert rep.exact == rep.rho_sum - rep.sigma_sum


def test_parity_extremal_profile_budget():
    # 26 primes below 103: a 2^26-entry profile, refused before it is built
    with pytest.raises(BudgetError):
        parity_extremal(10**4, 103, 0)


@pytest.mark.parametrize("z", [54, 60])
def test_parity_extremal_sigma_terms_above_window_match_oracle_calls(z):
    # above z = 53 the sigma terms come from the profile over every prime below z;
    # the reference enumerates each term |S(A_d, p(d))| from the values: one
    # divisibility mask per prime, made once per r, ANDed per term
    x = 10**6
    for r in (0, 1):
        prob = build_problem("parity", {"x": x, "r": r})
        masks = divisibility(prob.values(), small_primes(z))
        weights = RosserWeightTable(D=float(x), beta=2.0, r=r)
        want = 0
        for tag, _, f, _ in weight_walk(small_primes(z), weights):
            if tag == "sigma":
                want += masked_sift_count(masks, f[-1], f)
        rep = parity_extremal(x, z, r)
        assert rep.sigma_sum == want > 0, (z, r)
        assert rep.full_identity_exact


def test_parity_extremal_shared_window_matches_cold_calls(monkeypatch):
    # calls at one (x, r) share the window profile; each report must equal a
    # call made with the cache emptied, on both sides of z = 53, and no
    # profile wider than the window (the 15 primes below 53) may outlive its call
    window = len(small_primes(53))
    made = []
    profile = SieveProblem.profile

    def recording(self, primes=None):
        prof = profile(self, primes)
        if len(prof.primes) > window:
            made.append(weakref.ref(prof))
        return prof

    monkeypatch.setattr(SieveProblem, "profile", recording)
    calls = [(x, z, r) for x in (10**4, 10**6, 10**4) for z in (2, 8, 24, 31, 53, 54, 60) for r in (0, 1)]
    rosser._parity_window.cache_clear()
    shared = []
    for call in calls:
        shared.append(parity_extremal(*call))
        gc.collect()
        assert all(ref() is None for ref in made), call
    assert len(made) == 12  # z = 54 and 60 at each x and r, each gone after its call
    assert rosser._parity_window.cache_info().hits == 24  # 5 window z per (x, r), 4 of them shared
    problems = {}
    for (x, z, r), rep in zip(calls, shared):
        rosser._parity_window.cache_clear()
        assert repr(parity_extremal(x, z, r)) == repr(rep), (x, z, r)
        prob = problems.setdefault((x, r), build_problem("parity", {"x": x, "r": r}))
        assert rep.exact == exact_sift(prob, z), (x, z, r)


def test_parity_extremal_ratio_trend():
    ratios = []
    for x in (10**4, 10**5, 10**6):
        rep = parity_extremal(x, max(2, int(round(x ** 0.25))), 1)
        ratios.append(rep.ratio)
    deviations = [abs(r - 1) for r in ratios]
    assert deviations[-1] == min(deviations)


# -- weighted sieve -------------------------------------------------------------


def test_chen_weight_cases():
    N = 10**6
    assert chen_weight(999983, N) == 1  # prime
    assert chen_weight(5 * 101 * 1979, N) == 0  # exactly the triple ranges
    # single small factor, cofactor prime: W = 1/2 and the number is semiprime
    assert chen_weight(5 * 199999, N) == Fraction(1, 2)
    with pytest.raises(ValueError):
        chen_weight(3 * 7 * 11, N)  # 3 < N^(1/10)


def test_chen_weight_positive_implies_almost_prime():
    # exhaustive over n < 1e6 coprime to P(N^(1/10)) = {2, 3}
    N = 10**6
    big_omega = factor_count_reference(N)
    U, V = N**0.1, N ** (1 / 3)
    primes = small_primes(1000)
    window = [p for p in primes if U <= p < V]
    n = np.arange(N, dtype=np.int64)
    s = np.zeros(N, dtype=np.int64)
    for p in window:
        pk = p
        while pk < N:
            s[pk::pk] += 1
            pk *= p
    t = np.zeros(N, dtype=np.int64)
    table = primes_up_to(N)
    for p1 in window:
        lo = np.searchsorted(table.primes, V)
        for p2 in table.primes[lo:]:
            p2 = int(p2)
            if p2 >= math.sqrt(N / p1):
                break
            m = p1 * p2
            qs = table.primes[: np.searchsorted(table.primes, N // m + 1)]
            idx = m * qs
            idx = idx[idx < N]
            t[idx] += 1
    W2 = 2 - s - t  # twice the weight
    coprime = (n % 2 != 0) & (n % 3 != 0)
    positive = coprime & (W2 > 0) & (n > 0)
    bad = positive & (big_omega > 2)
    assert not bad.any(), n[bad][:10]


def test_chen_decomposition_small(table):
    rep = chen_decomposition(10**4, table)
    assert rep.inequality_holds
    assert rep.left >= float(rep.rhs)
    assert rep.sifted > 0 and rep.triple_sum > 0


def test_chen_decomposition_singular_series():
    t = primes_up_to(31000)
    rep = chen_decomposition(30030, t)
    assert rep.singular_factor == Fraction(128, 33)
    assert rep.inequality_holds


def test_chen_decomposition_degenerate_window(table):
    # tiny N: the prime windows collapse and the triple term vanishes
    rep = chen_decomposition(100, table)
    assert rep.small_factor_sum >= 0
    assert rep.inequality_holds


def chen_reference(N, table):
    """chen_decomposition with a list-scan prime window, a skip-ahead p2 loop and a set lookup per q."""
    prime_set = set(table.primes.tolist())
    U = N**0.1
    V = N ** (1 / 3)
    ps = table.primes_below(N)
    values = (N - ps).astype(np.int64)
    survivors = np.ones(len(values), dtype=bool)
    for p in table.primes_below(int(U) + 1):
        if p < U:
            survivors &= values % int(p) != 0
    T1 = int(np.count_nonzero(survivors))
    window = [int(p) for p in table.primes if U <= p < V]
    T2 = Fraction(0)
    for p1 in window:
        T2 += int(np.count_nonzero(survivors & (values % p1 == 0)))
    T2 = T2 / 2
    T3 = 0
    for p1 in window:
        p2_hi = math.sqrt(N / p1)
        for p2 in table.primes:
            p2 = int(p2)
            if p2 < V:
                continue
            if p2 >= p2_hi:
                break
            m = p1 * p2
            sel = survivors & (values % m == 0)
            for v in values[sel]:
                q = int(v) // m
                if q > 1 and q < table.limit and q in prime_set:
                    T3 += 1
    T3 = Fraction(T3, 2)
    left = int(np.count_nonzero(factor_count_reference(table.limit)[values] <= 2))
    rhs = T1 - T2 - T3
    singular = Fraction(1)
    for p, _ in factorize(N):
        if p > 2:
            singular *= Fraction(p - 1, p - 2)
    shape = twin_constant.__wrapped__() * float(singular) * N / math.log(N) ** 2
    return ChenReport(
        N=N, left=left, sifted=T1, small_factor_sum=T2, triple_sum=T3,
        rhs=rhs, inequality_holds=left >= rhs,
        singular_factor=singular, main_shape=shape,
        ratio=left / shape if shape else math.inf,
    )


# even N around 2^10 (N^(1/10) near 2) and around p^3 for primes p (N^(1/3) near p)
CHEN_EDGES = [1022, 1024, 1026] + [p**3 + s for p in (3, 5, 7, 11, 13, 17, 19, 23) for s in (-1, 1)]


def assert_chen_matches_reference(N, table):
    got, want = chen_decomposition(N, table), chen_reference(N, table)
    for f in fields(ChenReport):
        assert getattr(got, f.name) == getattr(want, f.name), (N, f.name)


def test_chen_decomposition_window_edges(table):
    for N in CHEN_EDGES:
        assert_chen_matches_reference(N, table)


@given(st.one_of(st.integers(8, 10**4).map(lambda k: 2 * k), st.sampled_from(CHEN_EDGES)))
@settings(max_examples=60, deadline=None)
def test_chen_decomposition_matches_reference(table, N):
    assert_chen_matches_reference(N, table)


def chen_per_pair_scan(N, table):
    """chen_decomposition as it was before the cofactor count and the shared Omega table.

    The triple sum scans every value N - p once per pair (p1, p2) for
    divisibility by p1 p2 and tests the quotient for primality; left reads
    Omega from the reference table up to the prime table's limit.
    """
    U = N**0.1
    V = N ** (1 / 3)
    values = (N - table.primes_below(N)).astype(np.int64)
    survivors = np.ones(len(values), dtype=bool)
    for p in table.primes_below(int(U) + 1):
        if p < U:
            survivors &= values % int(p) != 0
    T1 = int(np.count_nonzero(survivors))
    lo, hi = np.searchsorted(table.primes, [U, V])
    window = table.primes[lo:hi].tolist()
    T2 = Fraction(sum(int(np.count_nonzero(survivors & (values % p1 == 0))) for p1 in window), 2)
    T3 = 0
    for p1 in window:
        p2_hi = math.sqrt(N / p1)
        for p2 in table.primes[hi:]:
            p2 = int(p2)
            if p2 >= p2_hi:
                break
            m = p1 * p2
            sel = survivors & (values % m == 0)
            T3 += int(np.count_nonzero(table.membership[values[sel] // m]))
    T3 = Fraction(T3, 2)
    left = int(np.count_nonzero(factor_count_reference(table.limit)[values] <= 2))
    rhs = T1 - T2 - T3
    singular = Fraction(1)
    for p, _ in factorize(N):
        if p > 2:
            singular *= Fraction(p - 1, p - 2)
    shape = twin_constant() * float(singular) * N / math.log(N) ** 2
    return ChenReport(
        N=N, left=left, sifted=T1, small_factor_sum=T2, triple_sum=T3,
        rhs=rhs, inequality_holds=left >= rhs,
        singular_factor=singular, main_shape=shape,
        ratio=left / shape if shape else math.inf,
    )


# every N up to 2^17 + 2 shares its Omega table with the N below the same power of two
CHEN_POWERS = [2**k + s for k in range(12, 18) for s in (-2, 0, 2)] + [30030, 10**5]


@pytest.fixture(scope="module")
def chen_table():
    return primes_up_to(2**17 + 3)


def test_chen_cofactor_count_and_shared_omega_match_per_pair_scan(chen_table):
    for N in list(range(16, 4001, 2)) + CHEN_POWERS:
        got, want = chen_decomposition(N, chen_table), chen_per_pair_scan(N, chen_table)
        assert got.triple_sum == want.triple_sum, N
        assert got.left == want.left, N
        assert got.row() == want.row(), N


def test_twin_constant_value():
    assert twin_constant() == pytest.approx(0.6601618158, abs=1e-4)
