import math
from fractions import Fraction

import numpy as np
import pytest

from sievekit import largesieve
from sievekit.arith import BudgetError, euler_phi, small_primes
from sievekit.largesieve import (
    SeparatedPoints,
    additive_ls_check,
    character_sum_via_gauss,
    character_table,
    dual_ls_check,
    duality_rayleigh,
    farey_points,
    hilbert_ls_check,
    linnik_identity_check,
    min_circular_distance,
    multiplicative_ls_check,
    _unit_group,
)
from sievekit.problem import OmegaForm, ResidueSystem, build_problem
from sievekit.selberg import dual_b_values, optimal_lambda


def test_farey_examples():
    f2 = farey_points(2)
    assert f2.points == (Fraction(0), Fraction(1, 2))
    assert f2.delta == Fraction(1, 2)
    f3 = farey_points(3)
    assert f3.points == (Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(2, 3))
    assert f3.delta == Fraction(1, 6)
    with pytest.raises(ValueError):
        farey_points(1)


def test_farey_recurrence_matches_sorted_reduced_fractions():
    for Q in range(2, 81):
        want = tuple(sorted([Fraction(0)] + [Fraction(a, q) for q in range(2, Q + 1) for a in range(1, q)
                                             if math.gcd(a, q) == 1]))
        pts = farey_points(Q)
        assert pts.points == want, Q
        assert all(type(t) is Fraction for t in pts.points)
        assert pts.delta == Fraction(1, Q * (Q - 1))


def test_farey_delta_exact_up_to_50():
    for Q in range(2, 51):
        pts = farey_points(Q)
        # every pairwise gap |a/q - b/r| as the int64 pair (|a r - b q|, q r)
        a = np.array([t.numerator for t in pts.points], dtype=np.int64)
        q = np.array([t.denominator for t in pts.points], dtype=np.int64)
        i, j = np.triu_indices(len(a), k=1)
        num, den = np.abs(a[i] * q[j] - a[j] * q[i]), q[i] * q[j]
        k = np.argmin(num / den)
        assert not np.any(num * den[k] < num[k] * den)  # no gap below the candidate, exactly
        direct = Fraction(int(num[k]), int(den[k]))
        circular = min_circular_distance(pts.points)
        assert circular == Fraction(1, Q * (Q - 1))
        assert direct == circular  # the wraparound gap is never the minimum here


def test_separated_points_validation():
    with pytest.raises(ValueError):
        SeparatedPoints((Fraction(0), Fraction(1, 100)), Fraction(1, 2))


@pytest.mark.parametrize("points, least", [
    ((Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(5, 9)), Fraction(1, 18)),  # sorted Fractions
    ((Fraction(1, 2), Fraction(0), Fraction(5, 9), Fraction(1, 3)), Fraction(1, 18)),  # unsorted Fractions
    ((0.0, 0.25, 0.5, 0.55), Fraction(0.55) - Fraction(0.5)),  # sorted floats
    ((0.55, 0.0, 0.5, 0.25), Fraction(0.55) - Fraction(0.5)),  # unsorted floats
])
def test_separation_is_checked_on_every_construction(points, least):
    assert min_circular_distance(points) == least
    assert SeparatedPoints(points).delta == least  # delta left open takes the measured separation
    assert SeparatedPoints(points, least).delta == least
    for too_wide in (least + Fraction(1, 10**12), 0.06):
        with pytest.raises(ValueError):
            SeparatedPoints(points, too_wide)


def test_min_circular_distance_is_exact_and_order_free():
    rng = np.random.default_rng(11)
    for Q in (2, 7, 30):
        pts = list(farey_points(Q).points)
        assert min_circular_distance(pts) == Fraction(1, Q * (Q - 1))
        rng.shuffle(pts)
        assert min_circular_distance(pts) == Fraction(1, Q * (Q - 1))
    # distinct rationals one ulp apart as floats, and the wraparound gap as the least
    tiny = Fraction(1, 3) + Fraction(1, 10**30)
    assert float(tiny) == float(Fraction(1, 3))
    assert min_circular_distance([tiny, Fraction(0), Fraction(1, 3)]) == Fraction(1, 10**30)
    assert min_circular_distance([Fraction(99, 100), Fraction(1, 2), Fraction(1, 200)]) == Fraction(3, 200)
    # a float is the rational it stores
    assert min_circular_distance([0.1, 0.3]) == Fraction(0.3) - Fraction(0.1)
    with pytest.raises(ValueError):
        SeparatedPoints((Fraction(1, 2),))  # one point has no separation to measure


def test_additive_zero_vector():
    pts = farey_points(3)
    lhs, rhs, ratio = additive_ls_check(pts, np.zeros(10))
    assert lhs == rhs == ratio == 0


def test_additive_single_point_closed_form():
    # single point theta = 0 with the Q=2 separation: lhs = N^2
    pts = SeparatedPoints((Fraction(0),), Fraction(1, 2))
    N = 40
    lhs, rhs, ratio = additive_ls_check(pts, np.ones(N))
    assert lhs == pytest.approx(N * N)
    assert rhs == pytest.approx((N - 1 + 2) * N)
    assert ratio <= 1


def test_additive_random_trials():
    rng = np.random.default_rng(2)
    pts = farey_points(10)
    for _ in range(100):
        N = int(rng.integers(5, 51))
        a = rng.normal(size=N) + 1j * rng.normal(size=N)
        M = int(rng.integers(-30, 30))
        lhs, rhs, ratio = additive_ls_check(pts, a, M)
        assert ratio <= 1 + 1e-12


def _dense_phases(points, M, N):
    """Reference e(n t) over all points x [M, M+N), one float outer product."""
    n = np.arange(M, M + N)
    return np.exp(2j * np.pi * np.outer(np.array([float(t) for t in points]), n))


def test_folded_energies_match_dense_reference():
    # Folding by denominator against the dense matrix: N = 1 and N = 7 put
    # most Farey denominators on the q >= N path, floats with long binary
    # denominators always take it, and 0.25 / 0.75 fold with q = 4.
    rng = np.random.default_rng(8)
    cases = [farey_points(Q) for Q in (2, 5, 10, 23, 40)]
    cases.append(SeparatedPoints((Fraction(2, 7),), Fraction(1, 2)))
    cases.append(SeparatedPoints((0.1, 0.25, 0.6180339887, 0.75), 0.1))
    for pts in cases:
        for M, N in ((0, 1), (-37, 7), (3, 40), (-1000, 257)):
            E = _dense_phases(pts.points, M, N)
            a = rng.normal(size=N) + 1j * rng.normal(size=N)
            b = rng.normal(size=len(pts.points)) + 1j * rng.normal(size=len(pts.points))
            lhs, _, _ = additive_ls_check(pts, a, M)
            assert lhs == pytest.approx(float(np.sum(np.abs(E @ a) ** 2)), rel=1e-10)
            lhs, _, _ = dual_ls_check(pts, b, M, N)
            assert lhs == pytest.approx(float(np.sum(np.abs(E.T @ b) ** 2)), rel=1e-10)


def test_batched_additive_rows_match_single_calls():
    rng = np.random.default_rng(12)
    cases = [(farey_points(10), 40, 0), (farey_points(23), 7, -37), (farey_points(5), 300, 10**30 + 7),
             (SeparatedPoints((0.1, 0.25, 0.6180339887, 0.75), 0.1), 57, -3)]
    for pts, N, M in cases:
        a = rng.normal(size=(9, N)) + 1j * rng.normal(size=(9, N))
        lhs, rhs, ratio = additive_ls_check(pts, a, M)
        assert lhs.shape == rhs.shape == ratio.shape == (9,)
        for row, l, r, q in zip(a, lhs, rhs, ratio):
            one = additive_ls_check(pts, row, M)
            assert all(isinstance(v, float) for v in one)
            assert np.allclose((l, r, q), one, rtol=1e-12, atol=0)
    lhs, rhs, ratio = additive_ls_check(farey_points(4), np.zeros((3, 10)))
    assert not lhs.any() and not rhs.any() and not ratio.any()


def per_denominator_dual_energy(points, b, M, N):
    """The interval energy with one N-length gather per denominator, as before the run fold.

    Exponents a (n mod q) mod q are reduced in integers, n mod q from M mod q
    taken as a Python int; floats with binary denominators of 2^31 or more
    are evaluated as t * n with int64 n.
    """
    values = np.zeros(N, dtype=complex)
    groups = {}
    for j, t in enumerate(points.points):
        groups.setdefault(Fraction(t).denominator, []).append(j)
    for q, rows in groups.items():
        if q < 1 << 31:
            a = np.array([Fraction(points.points[j]).numerator % q for j in rows], dtype=np.int64)
            n_mod_q = (M % q + np.arange(N, dtype=np.int64)) % q
            phase = np.exp(2j * np.pi * (a[:, None] * n_mod_q % q) / q)
        else:
            theta = np.array([float(points.points[j]) for j in rows])
            phase = np.exp(2j * np.pi * np.outer(theta, np.arange(M, M + N)))
        values += np.asarray(b)[rows] @ phase
    return float(np.sum(np.abs(values) ** 2))


def _dual_route_case(kind, params, z):
    form = build_problem(kind, params).omega_form(z)
    points, b = dual_b_values(optimal_lambda(z, form.residues), form.residues)
    return SeparatedPoints(tuple(points)), b, form.M, form.N


def test_folded_dual_matches_per_denominator_gathers():
    rng = np.random.default_rng(13)
    cases = [
        _dual_route_case("twin", {"x": 20000}, 45),  # 444 points, runs past 2^18 restart
        _dual_route_case("goldbach", {"N": 10030}, 30),
        _dual_route_case("interval", {"x": 10**30, "y": 1000}, 10),  # M near 10^30
        _dual_route_case("interval", {"x": 10**30, "y": 5}, 10),  # q >= N past 2^63
    ]
    for Q, M, N in ((10, 0, 40), (12, -1000, 257), (23, 5, 7), (40, -37, 1)):  # M = 0, negative M, q >= N
        pts = farey_points(Q)
        cases.append((pts, rng.normal(size=len(pts.points)) + 1j * rng.normal(size=len(pts.points)), M, N))
    floats = SeparatedPoints((0.1, 0.25, 0.6180339887, 0.75), 0.1)
    cases.append((floats, rng.normal(size=4) + 1j * rng.normal(size=4), -12, 500))
    for pts, b, M, N in cases:
        lhs, rhs, ratio = dual_ls_check(pts, b, M, N)
        want = per_denominator_dual_energy(pts, b, M, N)
        assert lhs == pytest.approx(want, rel=1e-12), (len(pts.points), M, N)
        assert ratio <= 1 + 1e-12


def test_dual_runs_stay_within_the_lookup_modulus(monkeypatch):
    # a run never tiles past 2^18 entries, so its table stays within 4 MB
    widths = []
    tile = np.tile

    def recording(a, reps):
        out = tile(a, reps)
        widths.append(out.shape[-1])
        return out

    monkeypatch.setattr(largesieve.np, "tile", recording)
    pts, b, M, N = _dual_route_case("twin", {"x": 20000}, 45)
    dual_ls_check(pts, b, M, N)
    assert widths and max(widths) <= 1 << 18


def test_dual_random_trials():
    rng = np.random.default_rng(3)
    pts = farey_points(8)
    for _ in range(50):
        b = rng.normal(size=len(pts.points)) + 1j * rng.normal(size=len(pts.points))
        lhs, rhs, ratio = dual_ls_check(pts, b, -5, 60)
        assert ratio <= 1 + 1e-12


def test_hilbert_orthonormal_reduces_to_bessel():
    V = np.eye(4)[:3]
    psi = np.array([1.0, 2.0, 3.0, 4.0])
    lhs, rhs = hilbert_ls_check(V, psi)
    assert lhs == pytest.approx(1 + 4 + 9)
    assert rhs == pytest.approx(30)


def test_hilbert_single_vector_saturates():
    psi = np.array([1.0 + 1j, 2.0, -1j])
    lhs, rhs = hilbert_ls_check(psi[None, :], psi)
    assert lhs == pytest.approx(rhs)


def test_hilbert_random_families():
    rng = np.random.default_rng(4)
    for _ in range(1000):
        dim = int(rng.integers(1, 21))
        m = int(rng.integers(1, 12))
        V = rng.normal(size=(m, dim)) + 1j * rng.normal(size=(m, dim))
        psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        lhs, rhs = hilbert_ls_check(V, psi)
        assert lhs <= rhs * (1 + 1e-9)


def test_hilbert_rejects_zero_vector():
    with pytest.raises(ValueError):
        hilbert_ls_check(np.zeros((1, 3)), np.ones(3))


def test_linnik_identity_zero():
    rep = linnik_identity_check(np.zeros(20), 5, 0.3)
    assert rep["lhs"] == rep["rhs"] == 0
    assert rep["identity_holds"]


def test_linnik_identity_full_residue_coverage():
    # constant indicator over a full period: nonzero frequencies vanish
    rep = linnik_identity_check(np.ones(7), 7, 0.0)
    assert rep["lhs"] == pytest.approx(0.0, abs=1e-9)
    assert rep["identity_holds"]


def test_linnik_identity_random():
    rng = np.random.default_rng(5)
    for _ in range(50):
        N = int(rng.integers(10, 120))
        w = rng.integers(0, 2, size=N).astype(float)
        p = int(rng.choice([2, 3, 5, 7, 11]))
        theta = float(rng.uniform())
        rep = linnik_identity_check(w, p, theta, M=int(rng.integers(-20, 20)))
        assert rep["identity_holds"]


def test_linnik_inequality_on_sifted_indicator():
    rs = ResidueSystem({p: (0,) for p in small_primes(6)})
    form = OmegaForm(0, 100, rs)
    w = form.survivor_mask(6).astype(float)
    for p in (2, 3, 5):
        rep = linnik_identity_check(w, p, 0.0, omega_size=1)
        assert rep["identity_holds"] and rep["inequality_holds"]


def test_character_table_q1():
    t = character_table(1)
    assert t.n_characters == 1
    assert t.values[0, 0] == 1
    assert t.primitive[0]


def test_character_table_q4():
    t = character_table(4)
    assert t.n_characters == 2
    nontrivial = [j for j in range(2) if t.conductors[j] == 4]
    assert len(nontrivial) == 1
    j = nontrivial[0]
    assert t.chi(j, 1) == pytest.approx(1)
    assert t.chi(j, 3) == pytest.approx(-1)
    assert t.chi(j, 2) == 0


def test_character_table_q5():
    t = character_table(5)
    assert t.n_characters == 4
    prim = t.primitive
    assert prim.sum() == 3  # all non-principal characters mod 5
    for j in np.nonzero(prim)[0]:
        assert abs(t.gauss_sums[j]) == pytest.approx(math.sqrt(5), rel=1e-9)


def test_character_orthogonality():
    for q in (3, 4, 5, 8, 12, 15, 24):
        t = character_table(q)
        assert t.n_characters == euler_phi(q)
        G = t.values @ t.values.conj().T
        expected = euler_phi(q) * np.eye(t.n_characters)
        assert np.allclose(G, expected, atol=1e-9)


def test_gauss_sum_magnitude_primitive():
    for q in range(2, 40):
        t = character_table(q)
        for j in range(t.n_characters):
            if t.conductors[j] == q:
                assert abs(t.gauss_sums[j]) == pytest.approx(math.sqrt(q), rel=1e-9), (q, j)


def test_conductor_consistency():
    # a character mod q restricted from conductor f agrees with the f-table
    t12 = character_table(12)
    for j in range(t12.n_characters):
        f = int(t12.conductors[j])
        tf = character_table(f)
        # find the inducing character mod f by matching unit values
        matches = 0
        for i in range(tf.n_characters):
            if all(
                t12.chi(j, n) == pytest.approx(tf.chi(i, n))
                for n in range(1, 12)
                if math.gcd(n, 12) == 1
            ):
                matches += 1
        assert matches == 1


def character_table_reference(q):
    """Exponents by a triple loop over the discrete-log lattice, conductors by a per-character scan."""
    gens, orders = _unit_group(q)
    e = math.lcm(*orders) if orders else 1
    logs = {}

    def walk(i, value, vec):
        if i == len(gens):
            logs[value] = tuple(vec)
            return
        acc = value
        for k in range(orders[i]):
            walk(i + 1, acc, vec + [k])
            acc = acc * gens[i] % q

    walk(0, 1, [])
    exps = np.full((len(logs), q), -1, dtype=np.int64)
    for j, jvec in enumerate(logs.values()):
        for n, nvec in logs.items():
            t = 0
            for jv, nv, order in zip(jvec, nvec, orders):
                t += jv * nv * (e // order)
            exps[j, n] = t % e

    def conductor(exp_row):
        for f in sorted(d for d in range(1, q + 1) if q % d == 0):
            ok = True
            for n in range(1, q):
                if exp_row[n] >= 0 and (n - 1) % f == 0 and exp_row[n] != 0:
                    ok = False
                    break
            if ok:
                return f
        return q

    roots = np.exp(2j * np.pi * np.arange(e) / e)
    vals = np.where(exps >= 0, roots[np.maximum(exps, 0)], 0.0)
    conductors = np.array([conductor(row) for row in exps])
    gauss = vals @ np.exp(2j * np.pi * np.arange(q) / q)
    return exps, vals, conductors, gauss


def test_character_table_matches_reference():
    # 2^k, odd prime powers and mixed moduli; q = 1 is a fixed special case
    for q in range(2, 200):
        t = character_table(q)
        for got, want in zip((t.exponents, t.values, t.conductors, t.gauss_sums), character_table_reference(q)):
            assert got.dtype == want.dtype and np.array_equal(got, want), q


def test_multiplicative_ls_zero_and_boundary():
    lhs, rhs = multiplicative_ls_check(2, np.zeros(10))
    assert lhs == rhs == 0
    # Q = 2: only q = 1 contributes, via the trivial character
    a = np.arange(1.0, 6.0)
    lhs, rhs = multiplicative_ls_check(2, a)
    assert lhs == pytest.approx(abs(a.sum()) ** 2)


def test_multiplicative_ls_prime_indicator():
    table_primes = set(small_primes(1000))
    a = np.array([1.0 if n in table_primes else 0.0 for n in range(1000)])
    lhs, rhs = multiplicative_ls_check(10, a)
    assert lhs <= rhs * (1 + 1e-12)
    assert lhs > 0


def test_multiplicative_ls_random():
    rng = np.random.default_rng(6)
    for _ in range(25):
        N = int(rng.integers(20, 200))
        a = rng.normal(size=N) + 1j * rng.normal(size=N)
        lhs, rhs = multiplicative_ls_check(int(rng.integers(2, 21)), a, M=int(rng.integers(0, 50)))
        assert lhs <= rhs * (1 + 1e-12)


def test_gauss_reduction_matches_direct():
    rng = np.random.default_rng(7)
    for q in range(2, 21):
        t = character_table(q)
        a = rng.normal(size=60) + 1j * rng.normal(size=60)
        n = np.arange(60)
        for j in range(t.n_characters):
            if t.conductors[j] != q:
                continue
            direct = complex(t.values[j, n % q] @ a)
            via_gauss = character_sum_via_gauss(t, j, a)
            assert direct == pytest.approx(via_gauss, rel=1e-9, abs=1e-9)


def test_duality_rayleigh_agreement():
    for Q, M, N in ((5, 0, 40), (8, -10, 80), (12, 3, 120)):
        pts = farey_points(Q)
        r1, r2 = duality_rayleigh(pts, M, N)
        assert r1 == pytest.approx(r2, rel=1e-6)
        # oracle: the shared top singular value
        n = np.arange(M, M + N)
        E = np.exp(2j * np.pi * np.outer(pts.as_floats(), n))
        top = np.linalg.svd(E, compute_uv=False)[0] ** 2
        assert r1 == pytest.approx(top, rel=1e-6)


def test_character_cache_bounded_by_bytes():
    cache = largesieve._character_tables
    character_table.cache_clear()
    try:
        first = [character_table(q) for q in range(1, 150)]
        # the tables multiplicative_ls_check reuses up to Q = 150 all stay
        assert all(character_table(q) is t for q, t in zip(range(1, 150), first))
        for q in range(150, 1001):
            character_table(q)
            assert cache.nbytes <= largesieve.CHARACTER_CACHE_BYTES
        assert cache.nbytes == sum(t.nbytes for t in cache._tables.values())
    finally:
        character_table.cache_clear()
    # a table larger than the whole bound is returned but evicts nothing
    small = largesieve._TableCache(character_table(40).nbytes)
    t40, t41 = (small.get(q, character_table) for q in (40, 41))
    assert t41.nbytes > t40.nbytes and list(small._tables.items()) == [(40, t40)]


def test_character_budget():
    with pytest.raises(BudgetError):
        character_table(5000)
