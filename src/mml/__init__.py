"""Exact hitting-time analysis, missing-mass simulation, and tail-bound
verification for finite Markov chains."""

__version__ = "0.1.0"

from .bounds import (
    DEFAULT_C,
    DEFAULT_C2,
    BoundParams,
    MissingMassTailBound,
    bernoulli_product_mgf,
    calibrate_c,
    explicit_hitting_tail,
    hitting_tail_bound,
    iid_exact_survival,
    joint_survival_bound,
    kl_divergence,
    missing_mass_tail_bound,
    q_probabilities,
)
from .chain import (
    ChainSpec,
    StationaryDistribution,
    TransitionMatrix,
    derive_stream,
    generate,
    is_irreducible,
    load_chain,
    point_start,
    save_chain,
    stationary,
    validate,
)
from .hitting import (
    HittingTimeTable,
    LargeSetTime,
    StateSet,
    expected_hitting_time,
    hitting_table,
    state_set,
    t_large,
)
from .report import BoundReport, ReportBlock
from .simulate import (
    MissingMassSample,
    SimConfig,
    empirical_mgf,
    first_visit_table,
    hitting_time_samples,
    missing_mass_values,
    occupancy_frequencies,
    sample_missing_mass,
)
from .verify import (
    VerificationSummary,
    VerifyOptions,
    check_lemma1,
    check_lemma2,
    pinsker_check,
    product_inequality_check,
    run_all,
    run_suite,
)
