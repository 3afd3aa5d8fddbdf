"""Numerical verification toolkit for symmetry-gap hardness constructions in
truthful combinatorial public projects and auctions with submodular values.

The package builds the adversarial instance families (hidden-bisection
two-block valuations, polar counting valuations), evaluates their fractional
extensions exactly, runs baseline mechanisms against them, and certifies the
scalar and statistical facts the constructions rest on.
"""

from .setfn import (
    GroundSetError,
    OracleContractError,
    OracleView,
    StructureReport,
    ValuationOracle,
    check_monotone_submodular,
    compose_product,
    make_additive,
    make_budget_additive,
    make_coverage,
    make_polar,
    pack,
    scale_oracle,
    tabulate,
    unpack,
)
from .instances import (
    AuctionInstance,
    CPPInstance,
    CPPLevelParams,
    PhiAlpha,
    TwoBlockValuation,
    expected_union_size,
    make_symgap_valuation,
    psi,
    psi_tilde,
    random_cpp_instance,
    sample_bisection_sequence,
    two_block_product_instance,
)
from .extensions import (
    ConcavityViolation,
    EstimateResult,
    concavity_grid_scan,
    concavity_probe,
    exact_F_blockwise,
    f_exp,
    f_exp_blockwise,
    multilinear_F,
    random_pair_source,
)
from .mechanisms import (
    BalancedPrefixCPP,
    CPPMechanism,
    AuctionMechanism,
    DistributionOverOutcomes,
    GreedyCPP,
    InfeasibleOutcomeError,
    MIDRResult,
    NonConcaveClassError,
    Outcome,
    PayYourBidGreedyAuction,
    RandomSubsetCPP,
    VCGExhaustiveAuction,
    exhaustive_opt_cpp,
    greedy_cpp,
    poisson_midr_cpp,
    vcg_auction_exhaustive,
)
from .audit import (
    AmplificationState,
    MenuPoint,
    SeparationResult,
    StepCertificate,
    TruthReport,
    amplification_step,
    audit_truthfulness,
    basic_instance_counting,
    chernoff_bisection_test,
    extract_menu,
    map_menu_to_qp,
    run_amplification,
    scalar_inequality_suite,
    scaling_probe,
    separate_quadrant,
    symmetry_gap_experiment,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
