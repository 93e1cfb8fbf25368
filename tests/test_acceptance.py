"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS/FAIL
lines; each criterion is a test function and the asserts pin the stated
tolerances.
"""

import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from sievekit.arith import euler_phi, factorize, pi_count, primes_up_to, small_primes
from sievekit.brun import PureSieveConfig, pure_sieve_bound
from sievekit.largesieve import (
    additive_ls_check,
    dual_ls_check,
    duality_rayleigh,
    farey_points,
    hilbert_ls_check,
    linnik_identity_check,
    multiplicative_ls_check,
)
from sievekit.legendre import legendre_decompose
from sievekit.problem import (
    OmegaForm,
    ResidueSystem,
    build_problem,
    exact_sift,
    factor_count_sieve,
)
from sievekit.rosser import (
    RosserWeightTable,
    buchstab_check,
    chen_decomposition,
    parity_extremal,
    rosser_identity,
    solve_sieve_functions,
    twin_constant,
)
from sievekit.selberg import (
    G_sum,
    linnik_bound,
    optimal_lambda,
    pseudo_character_matrix,
    quadratic_form,
    selberg_upper_bound,
)

EULER = 0.5772156649015329


@pytest.fixture(scope="module")
def table():
    return primes_up_to(10**6 + 2)


@pytest.fixture(scope="module")
def suite_problems(table):
    return [
        build_problem("interval", {"x": 10**6, "y": 10**6}),
        build_problem("twin", {"x": 10**5}),
        build_problem("goldbach", {"N": 10**5}),
        build_problem("progression", {"x": 10**5, "k": 7, "l": 3}),
    ]


def _report(name, ok, extra=""):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}{'  ' + extra if extra else ''}")
    assert ok, f"{name} failed: {extra}"


# -- criterion 1: exact identities -------------------------------------------


def test_criterion_1_exact_identities(suite_problems):
    t0 = time.monotonic()
    checks = 0
    for prob in suite_problems:
        for z in range(2, 31):
            dec = legendre_decompose(prob, z)
            assert dec.total == exact_sift(prob, z), (prob.kind, z)
            assert dec.main + dec.remainder == dec.total
            checks += 1
        for z0 in (2, 3, 5, 11, 19):
            for z in range(z0, 31, 3):
                assert buchstab_check(prob, z0, z).holds, (prob.kind, z0, z)
                checks += 1
        for r in (0, 1):
            for z in range(2, 31, 2):
                w = RosserWeightTable(D=float(z) ** 3, beta=2.0, r=r)
                rep = rosser_identity(prob, 2, z, w)
                assert rep.holds and rep.detail["v_identity_holds"], (prob.kind, r, z)
                checks += 1

    # frequency-energy identity on sifted indicators, 1e-9 relative
    rs = ResidueSystem({p: ((0,) if p == 2 else (0, p - 2)) for p in small_primes(14)})
    form = OmegaForm(1, 1000, rs)
    w = form.survivor_mask(14).astype(float)
    for p in (2, 3, 5, 7, 11, 13):
        for theta in (0.0, 0.3, 1 / 7):
            rep = linnik_identity_check(w, p, theta, M=1, omega_size=rs.size(p))
            assert rep["identity_holds"], (p, theta)
            checks += 1

    # parity extremal identity: the two-sum form exactly at every z, the
    # plain weight-sum form whenever the discarded set is empty
    plain_checked = defect_checked = 0
    for r in (0, 1):
        for z in range(2, 31, 2):
            rep = parity_extremal(10**6, z, r)
            assert rep.full_identity_exact, (r, z)
            if rep.sigma_sum == 0:
                assert rep.identity_exact, (r, z)
                plain_checked += 1
            else:
                defect_checked += 1
            checks += 1
    assert plain_checked >= 12 and defect_checked >= 1
    elapsed = time.monotonic() - t0
    _report("1 exact-identity suite", elapsed < 300, f"{checks} identity checks in {elapsed:.1f}s")


# -- criterion 2: sandwich suite ----------------------------------------------


def test_criterion_2_sandwich_suite(suite_problems):
    violations = 0

    # pointwise truncated-indicator sandwich, vectorized over n <= 1e5
    n = np.arange(1, 10**5 + 1, dtype=np.int64)
    r_counts = np.zeros(len(n), dtype=np.int64)
    primes = list(small_primes(31))
    max_r = len(primes)
    done = 0
    for z in range(2, 31):
        while done < len(primes) and primes[done] < z:
            r_counts += (n % primes[done] == 0).astype(np.int64)
            done += 1
        exact = (r_counts == 0).astype(np.int64)
        for ell in range(6):
            for cutoff, parity in ((2 * ell, 1), (2 * ell + 1, -1)):
                tbl = np.array(
                    [sum((-1) ** j * math.comb(rr, j) for j in range(min(cutoff, rr) + 1)) for rr in range(max_r + 1)]
                )
                trunc = tbl[r_counts]
                if parity == 1:
                    violations += int(np.count_nonzero(trunc < exact))
                else:
                    violations += int(np.count_nonzero(trunc > exact))

    # one-sided weight bounds on the problem suite, both parities
    for prob in suite_problems:
        for r in (0, 1):
            for z in (10, 20, 30):
                for D in (float(z) ** 2, float(z) ** 3):
                    rep = rosser_identity(prob, 2, z, RosserWeightTable(D=D, beta=2.0, r=r))
                    violations += 0 if rep.detail["bound_holds"] else 1

    # quadratic-form and dual-route bounds on 200 random configurations
    rng = random.Random(0)
    for trial in range(200):
        z = rng.randint(3, 30)
        classes = {}
        for p in small_primes(z):
            size = rng.randint(1, min(3, p - 1))
            classes[p] = tuple(sorted(rng.sample(range(p), size)))
        form = OmegaForm(rng.randint(-500, 500), rng.randint(50, 2000), ResidueSystem(classes))
        if trial % 2 == 0:
            rep = selberg_upper_bound(form, z)
        else:
            rep = linnik_bound(form, z)
        violations += 0 if rep.verdict == "valid" else 1

    _report("2 sandwich suite", violations == 0, f"violations={violations}")


# -- criterion 3: quantitative anchors ----------------------------------------


def test_criterion_3_quantitative():
    rs = ResidueSystem({p: (0,) for p in small_primes(5)})
    form = OmegaForm(1, 100, rs)
    rep = linnik_bound(form, 5)
    assert rep.bound == 50.0
    assert rep.exact == 33

    rng = random.Random(1)
    for _ in range(40):
        z = rng.randint(2, 30)
        classes = {}
        for p in small_primes(z):
            size = rng.randint(1, p - 1) if p <= 5 else rng.randint(1, min(4, p - 1))
            classes[p] = tuple(sorted(rng.sample(range(p), size)))
        rs = ResidueSystem(classes)
        w = optimal_lambda(z, rs)
        assert quadratic_form(w, rs) == 1 / G_sum(z, rs)
        assert all(abs(v) <= 1 for v in w.values.values())
    _report("3 quantitative anchors", True, "linnik 50 vs 33; S = 1/G; |lambda| <= 1")


# -- criterion 4: large-sieve trials -------------------------------------------


def test_criterion_4_large_sieve_trials():
    t0 = time.monotonic()
    rng = np.random.default_rng(0)
    trials = {"additive": 3000, "dual": 2000, "hilbert": 3000, "multiplicative": 1500, "kernel_rows": 500}
    violations = 0

    point_sets = [farey_points(Q) for Q in (2, 3, 5, 8, 13, 21, 34, 50)]
    lengths = (16, 64, 256, 1000)
    phase_cache = {}
    for i in range(trials["additive"]):
        pts = point_sets[i % len(point_sets)]
        N = lengths[i % len(lengths)]
        key = (id(pts), N)
        if key not in phase_cache:
            theta = pts.as_floats()
            phase_cache[key] = np.exp(2j * np.pi * np.outer(theta, np.arange(N)))
        E = phase_cache[key]
        a = rng.normal(size=N) + 1j * rng.normal(size=N)
        lhs = float(np.sum(np.abs(E @ a) ** 2))
        rhs = float((N - 1 + 1 / pts.delta) * np.sum(np.abs(a) ** 2))
        violations += int(lhs > rhs * (1 + 1e-12))

    for i in range(trials["dual"]):
        pts = point_sets[i % len(point_sets)]
        N = lengths[i % (len(lengths) - 1)]
        key = (id(pts), N)
        if key not in phase_cache:
            theta = pts.as_floats()
            phase_cache[key] = np.exp(2j * np.pi * np.outer(theta, np.arange(N)))
        E = phase_cache[key]
        b = rng.normal(size=E.shape[0]) + 1j * rng.normal(size=E.shape[0])
        lhs = float(np.sum(np.abs(E.T @ b) ** 2))
        rhs = float((N - 1 + 1 / pts.delta) * np.sum(np.abs(b) ** 2))
        violations += int(lhs > rhs * (1 + 1e-12))

    for _ in range(trials["hilbert"]):
        dim = int(rng.integers(1, 21))
        m = int(rng.integers(1, 12))
        fam = rng.normal(size=(m, dim)) + 1j * rng.normal(size=(m, dim))
        psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        lhs, rhs = hilbert_ls_check(fam, psi)
        violations += int(lhs > rhs * (1 + 1e-9))

    for i in range(trials["multiplicative"]):
        Q = int(rng.integers(2, 21))
        N = int(rng.integers(10, 301))
        a = rng.normal(size=N) + 1j * rng.normal(size=N)
        lhs, rhs = multiplicative_ls_check(Q, a, M=int(rng.integers(0, 100)))
        violations += int(lhs > rhs * (1 + 1e-12))

    rs = ResidueSystem({p: ((0,) if p == 2 else (0, p - 2)) for p in small_primes(20)})
    mat = pseudo_character_matrix(20, rs, 1, 600)
    for _ in range(trials["kernel_rows"]):
        a = rng.normal(size=600) + 1j * rng.normal(size=600)
        lhs, rhs = mat.row_check(a)
        violations += int(lhs > rhs * (1 + 1e-12))
        b = rng.normal(size=mat.matrix.shape[0]) + 1j * rng.normal(size=mat.matrix.shape[0])
        lhs, rhs = mat.column_check(b)
        violations += int(lhs > rhs * (1 + 1e-12))

    worst_gap = 0.0
    for Q, M, N in ((5, 0, 50), (8, -20, 100), (13, 7, 200), (21, 0, 400)):
        r1, r2 = duality_rayleigh(farey_points(Q), M, N)
        worst_gap = max(worst_gap, abs(r1 - r2) / max(r1, r2))
    elapsed = time.monotonic() - t0
    total = sum(trials.values())
    _report(
        "4 large-sieve trials",
        violations == 0 and worst_gap <= 1e-6 and elapsed < 120,
        f"{total} trials, violations={violations}, duality gap={worst_gap:.2e}, {elapsed:.1f}s",
    )


# -- criterion 5: main-term functions ------------------------------------------


def test_criterion_5_sieve_functions():
    table = solve_sieve_functions(tau_max=8.0, step=1e-3)
    e_gamma = math.exp(EULER)
    ok1 = abs(table.phi(1, 2.0) - e_gamma) <= 1e-6
    ok2 = abs(table.phi(0, 3.0) - 2 * e_gamma * math.log(2) / 3) <= 1e-6
    fine = solve_sieve_functions(tau_max=8.0, step=5e-4)
    diff = max(
        float(np.max(np.abs(table.phi0 - fine.phi0[1::2]))),
        float(np.max(np.abs(table.phi1 - fine.phi1[1::2]))),
    )
    ok3 = diff < 4e-6
    _report("5 sieve functions", ok1 and ok2 and ok3,
            f"phi1(2)-e^gamma={table.phi(1, 2.0) - e_gamma:.2e}, halving diff={diff:.2e}")


# -- criterion 6: progression upper bounds --------------------------------------


def test_criterion_6_progression_bounds(table):
    x = 10**6
    primes = table.primes_below(x)
    worst_ratio = 0.0
    checked = 0
    squarefree_H = {}
    for k in range(1, 101):
        counts = np.bincount(primes % k, minlength=k)
        N_bar = x // k
        z = int(math.sqrt(N_bar / math.log(N_bar)))
        G = Fraction(0)
        for q in range(1, z):
            if math.gcd(q, k) != 1:
                continue
            if q not in squarefree_H:
                fac = factorize(q)
                h = Fraction(0)
                if all(e == 1 for _, e in fac):
                    h = Fraction(1)
                    for p, _ in fac:
                        h *= Fraction(1, p - 1)
                squarefree_H[q] = h
            G += squarefree_H[q]
        small = table.primes_below(z)
        phi_k = euler_phi(k)
        shape = x / (phi_k * math.log(x / k))
        for l in range(k) if k > 1 else [0]:
            if k > 1 and math.gcd(l, k) != 1:
                continue
            exact = int(counts[l]) if l < len(counts) else 0
            if k == 1:
                exact = len(primes)
            first = l if l >= 1 else k
            n_class = (x - 1 - first) // k + 1 if first < x else 0
            small_class = int(np.count_nonzero(small % k == l % k)) if k > 1 else len(small)
            bound = float((n_class + z * z) / G) + small_class
            assert bound >= exact, (k, l, bound, exact)
            worst_ratio = max(worst_ratio, bound / shape)
            checked += 1
    _report("6 progression bounds", worst_ratio <= 2.5,
            f"{checked} classes, worst bound/shape = {worst_ratio:.3f}")


# -- criterion 7: twin-bound trend ----------------------------------------------


def _twin_ratios():
    ratios = []
    for x in (10**4, 10**5, 10**6):
        prob = build_problem("twin", {"x": x})
        z = int(math.sqrt(prob.size / math.log(prob.size)))
        rep = selberg_upper_bound(prob, z)
        assert rep.verdict == "valid"
        ratios.append(rep.bound / (x / math.log(x) ** 2))
    return ratios


def test_criterion_7_trend_toward_constant():
    """The normalized twin bound approaches the density-product constant.

    The distance |ratio - 16 C| shrinks strictly across the three scales;
    the limit value itself is not asserted.
    """
    limit = 16 * twin_constant()
    ratios = _twin_ratios()
    gaps = [abs(r - limit) for r in ratios]
    ok = gaps[0] > gaps[1] > gaps[2]
    _report("7 twin trend (approach)", ok,
            f"ratios={[round(r, 3) for r in ratios]}, constant={limit:.3f}, gaps={[round(g, 3) for g in gaps]}")


@pytest.mark.xfail(
    strict=True,
    reason="the raw ratio approaches 16*prod(1 - 1/(p-1)^2) from below at desk "
    "scale (verified out to 1e16), so the literal monotone-decrease reading "
    "cannot hold; see the README \"Conventions\" note",
)
def test_criterion_7_literal_monotone_decrease():
    ratios = _twin_ratios()
    assert ratios[0] > ratios[1] > ratios[2]


# -- criterion 8: almost-prime suite ---------------------------------------------


def test_criterion_8_almost_prime_suite(table):
    for N in list(range(10**4, 10**4 + 201, 2)) + [30030]:
        rep = chen_decomposition(N, table)
        assert rep.inequality_holds, N

    # positive weight forces at most two prime factors: exhaustive below 1e6
    N = 10**6
    big_omega = factor_count_sieve(N)
    U, V = N**0.1, N ** (1 / 3)
    window = [p for p in small_primes(1000) if U <= p < V]
    n = np.arange(N, dtype=np.int64)
    s = np.zeros(N, dtype=np.int64)
    for p in window:
        pk = p
        while pk < N:
            s[pk::pk] += 1
            pk *= p
    t = np.zeros(N, dtype=np.int64)
    for p1 in window:
        lo = np.searchsorted(table.primes, V)
        for p2 in table.primes[lo:]:
            p2 = int(p2)
            if p2 >= math.sqrt(N / p1):
                break
            m = p1 * p2
            qs = table.primes[: np.searchsorted(table.primes, N // m + 1)]
            idx = m * qs
            t[idx[idx < N]] += 1
    W2 = 2 - s - t
    coprime = (n % 2 != 0) & (n % 3 != 0) & (n > 0)
    bad = coprime & (W2 > 0) & (big_omega > 2)
    _report("8 almost-prime suite", not bad.any(),
            f"101 even values + 30030; exhaustive weight check clean below 1e6")


# -- criterion 9: excluded asymptotics -------------------------------------------


def test_criterion_9_exclusions_documented(table):
    """Asymptotic-only results are replaced by property suites, not asserted.

    The progression-remainder mean sum is still computed as an empirical
    probe; only finiteness and the downward drift of its normalized value
    are reported here.
    """
    from sievekit.arith import mean_remainder_sum

    vals = []
    for x in (10**3, 10**4, 10**5):
        v = mean_remainder_sum(table, x, 10)
        vals.append(v / (x / math.log(x) ** 3))
    ok = all(math.isfinite(v) for v in vals) and vals[-1] == min(vals)
    _report("9 excluded asymptotics", ok,
            f"mean-remainder probe normalized by x/log^3 x: {[round(v, 4) for v in vals]}")
