"""Pure truncated-Mobius sieve: sandwich bounds and the twin upper pipeline.

Truncating the Mobius sum over divisors of (n, P(z)) at an even number of
prime factors overshoots the exact indicator, at an odd number it
undershoots; summing over a sequence turns that pointwise sandwich into
one-sided counting bounds whose remainder is an explicit finite tally.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .arith import small_primes, truncated_mobius
from .problem import SieveProblem, build_problem, divisor_tally, exact_sift, squarefree_masks
from .reports import BoundReport, field_row


@dataclass(frozen=True)
class PureSieveConfig:
    """Truncation level for the pure sieve: nu(d) <= 2*ell (+1 for lower)."""

    z: int
    ell: int
    parity: str

    def __post_init__(self):
        if self.parity not in ("upper", "lower"):
            raise ValueError("parity must be 'upper' or 'lower'")
        if self.ell < 0:
            raise ValueError("ell must be >= 0")

    @property
    def cutoff(self) -> int:
        return 2 * self.ell + (1 if self.parity == "lower" else 0)


def truncated_indicator(n: int, config: PureSieveConfig) -> int:
    """Sum of mu(d) over d | (n, P(z)) with nu(d) at most the parity cutoff."""
    if n < 1:
        raise ValueError("n must be positive")
    return truncated_mobius(sum(1 for p in small_primes(config.z) if n % p == 0), config.cutoff)


def exact_indicator(n: int, z: int) -> int:
    """1 when n has no prime factor below z, else 0."""
    return int(all(n % p for p in small_primes(z)))


def pure_sieve_bound(problem: SieveProblem, config: PureSieveConfig, *, worst_case: bool = False) -> BoundReport:
    """One-sided bound from the truncated sieve, tallied exactly.

    Main term: X * sum of mu(d) omega(d)/d over d | P(z) with nu(d) <= cutoff.
    Remainder tally: sum of |R_d| over the same divisors (or the density
    worst case sum of omega(d) when ``worst_case``).
    """
    primes = problem.sifting_primes(config.z)
    walk = squarefree_masks(primes, max_nu=config.cutoff)
    main, rem = divisor_tally(problem, primes, walk, worst_case=worst_case)
    sign = 1 if config.parity == "upper" else -1
    bound = main + sign * rem
    return BoundReport(
        method="brun-pure",
        problem=problem.describe(),
        params={"z": config.z, "ell": config.ell, "cutoff": config.cutoff},
        direction=config.parity,
        main=main,
        remainder_bound=rem,
        bound=bound,
        exact=exact_sift(problem, config.z),
    )


@dataclass(frozen=True)
class TwinPipelineReport:
    x: int
    z: float
    ell: int
    bound: float
    exact: int
    ratio: float
    tail_bound: float
    shape: float

    row = field_row


def default_twin_parameters(x: int) -> tuple[float, int]:
    """z = exp(log x / (100 log log x)) and ell = floor(log x / (4 log z))."""
    if x < 1000:
        raise ValueError("x too small for the log log parameter policy")
    log_x = math.log(x)
    z = math.exp(log_x / (100 * math.log(log_x)))
    ell = int(log_x / (4 * math.log(z)))
    return z, ell


def twin_upper_pipeline(x: int, table, *, z: float | None = None, ell: int | None = None) -> TwinPipelineReport:
    """Upper bound for the twin-pair count via the truncated sieve.

    The asymptotically optimal parameter policy produces tiny z at desk
    scale, so both z and ell are overridable.  The reported bound covers
    pairs with a member below z through the additive z term.
    """
    from .arith import pi_count

    z_default, ell_default = default_twin_parameters(x)
    z = z_default if z is None else z
    ell = ell_default if ell is None else ell
    problem = build_problem("twin", {"x": x})
    config = PureSieveConfig(z=max(int(math.ceil(z)), 2), ell=ell, parity="upper")
    report = pure_sieve_bound(problem, config)
    bound = report.bound + z
    exact = pi_count(table, x, "twin")
    # truncation defect estimate: 2^(-2 ell) * prod over p < z of (1 + 4/p)
    tail = 0.25**ell * float(math.prod(1 + 4 / p for p in small_primes(config.z)))
    shape = x * (math.log(math.log(x)) / math.log(x)) ** 2
    return TwinPipelineReport(
        x=x, z=z, ell=ell, bound=bound, exact=exact,
        ratio=bound / exact if exact else math.inf,
        tail_bound=tail, shape=shape,
    )
