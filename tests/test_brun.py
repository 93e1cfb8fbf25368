import math

import numpy as np
import pytest

from sievekit.arith import pi_count, small_primes
from sievekit.brun import (
    PureSieveConfig,
    default_twin_parameters,
    exact_indicator,
    pure_sieve_bound,
    truncated_indicator,
    twin_upper_pipeline,
)
from sievekit.legendre import legendre_decompose
from sievekit.problem import build_problem, exact_sift


def test_truncated_indicator_examples():
    assert truncated_indicator(1, PureSieveConfig(6, 0, "upper")) == 1
    # n = 30, z = 6: exact indicator 0; ell = 0 upper keeps only d = 1
    assert truncated_indicator(30, PureSieveConfig(6, 0, "upper")) == 1
    assert exact_indicator(30, 6) == 0
    # lower with cutoff nu <= 1: 1 - 3 = -2
    assert truncated_indicator(30, PureSieveConfig(6, 0, "lower")) == -2


def test_pointwise_sandwich_exhaustive():
    rng = np.random.default_rng(0)
    ns = np.concatenate([np.arange(1, 3000), rng.integers(1, 10**5, 300)])
    for z in (3, 6, 11, 20, 30):
        zp = small_primes(z)
        for n in ns:
            n = int(n)
            exact = exact_indicator(n, z)
            for ell in range(4):
                up = truncated_indicator(n, PureSieveConfig(z, ell, "upper"))
                lo = truncated_indicator(n, PureSieveConfig(z, ell, "lower"))
                assert lo <= exact <= up, (n, z, ell)


def test_truncation_vacuous_at_full_depth():
    for z in (6, 12, 30):
        depth = len(small_primes(z))
        for n in (1, 2, 97, 210, 2310, 30030, 99999):
            cfg = PureSieveConfig(z, depth, "upper")
            assert truncated_indicator(n, cfg) == exact_indicator(n, z)


def test_defect_sign_identity():
    # (exact - truncated) carries the sign forced by the binomial identity
    for n in (2, 6, 30, 210, 2310):
        for z in (6, 15, 30):
            r = sum(1 for p in small_primes(z) if n % p == 0)
            for cutoff_parity, parity in ((0, "upper"), (1, "lower")):
                for ell in range(3):
                    cfg = PureSieveConfig(z, ell, parity)
                    defect = exact_indicator(n, z) - truncated_indicator(n, cfg)
                    if r > cfg.cutoff:  # truncation actually bites
                        sign = (-1) ** (cfg.cutoff + 1)
                        assert defect * sign >= 0, (n, z, parity, ell)
                    else:
                        assert defect == 0


def test_pure_sieve_bound_reduces_to_exact_identity():
    prob = build_problem("interval", {"x": 1000, "y": 1000})
    config = PureSieveConfig(12, len(small_primes(12)), "upper")
    report = pure_sieve_bound(prob, config)
    dec = legendre_decompose(prob, 12)
    assert report.main == pytest.approx(float(dec.main))
    assert report.verdict == "valid"


def test_pure_sieve_bound_sandwich(table):
    prob = build_problem("twin", {"x": 10**4})
    exact = exact_sift(prob, 20)
    upper = pure_sieve_bound(prob, PureSieveConfig(20, 2, "upper"))
    lower = pure_sieve_bound(prob, PureSieveConfig(20, 1, "lower"))
    assert upper.exact == exact == lower.exact
    assert upper.bound >= exact
    assert lower.bound <= exact
    assert upper.verdict == "valid" and lower.verdict == "valid"


def test_pure_sieve_bound_worst_case_flag():
    prob = build_problem("twin", {"x": 10**4})
    true_tally = pure_sieve_bound(prob, PureSieveConfig(15, 1, "upper"))
    crude = pure_sieve_bound(prob, PureSieveConfig(15, 1, "upper"), worst_case=True)
    assert crude.remainder_bound >= 0
    assert crude.bound >= true_tally.main


def test_twin_pipeline_parameters():
    z, ell = default_twin_parameters(10**4)
    assert z == pytest.approx(math.exp(math.log(10**4) / (100 * math.log(math.log(10**4)))))
    assert ell == int(math.log(10**4) / (4 * math.log(z)))
    with pytest.raises(ValueError):
        default_twin_parameters(100)


def test_twin_pipeline_bounds(table):
    for x, known in ((1000, 35), (10**4, 205), (10**5, 1224)):
        rep = twin_upper_pipeline(x, table)
        assert rep.exact == known
        assert rep.bound >= rep.exact
        assert math.isfinite(rep.ratio)


def test_twin_pipeline_with_real_sifting(table):
    # overriding z makes the sieve actually bite at desk scale
    rep = twin_upper_pipeline(10**4, table, z=20, ell=2)
    assert rep.bound >= rep.exact == 205
    assert rep.bound < 3000  # far below the trivial |A| bound
