"""sievekit: combinatorial sieve bounds checked against exact enumeration."""

from .arith import (
    BudgetError,
    PrimeTable,
    factor_squarefree,
    li,
    mean_remainder_sum,
    mobius,
    pi_count,
    primes_up_to,
    remainder_E,
    truncated_mobius,
)
from .brun import PureSieveConfig, pure_sieve_bound, truncated_indicator, twin_upper_pipeline
from .largesieve import (
    CharacterTable,
    SeparatedPoints,
    additive_ls_check,
    character_table,
    farey_points,
    hilbert_ls_check,
    linnik_identity_check,
    multiplicative_ls_check,
)
from .legendre import SieveDecomposition, density_product, dimension_fit, legendre_decompose, mertens_compare
from .problem import (
    OmegaForm,
    ResidueSystem,
    SieveProblem,
    SiftingDensity,
    build_problem,
    count_in_class,
    exact_sift,
    problem_from_config,
)
from .reports import BoundReport
from .rosser import (
    RosserWeightTable,
    SieveFunctionTable,
    buchstab_check,
    chen_decomposition,
    chen_weight,
    linear_sieve_bound,
    parity_extremal,
    rosser_identity,
    solve_sieve_functions,
    truncation_inequality_check,
)
from .selberg import (
    G_sum,
    H_factor,
    LambdaWeights,
    linnik_bound,
    optimal_lambda,
    pseudo_character_matrix,
    quadratic_form,
    selberg_upper_bound,
    xi_transform,
)
