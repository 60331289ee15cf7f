"""Exact hitting-time analysis, missing-mass simulation, and tail-bound
verification for finite Markov chains."""

__version__ = "0.1.0"

from .bounds import (
    DEFAULT_C,
    DEFAULT_C2,
    BoundParams,
    CalibrationInstance,
    CalibrationResult,
    MissingMassTailBound,
    bernoulli_product_mgf,
    calibrate_c,
    explicit_hitting_tail,
    hitting_tail_bound,
    iid_exact_survival,
    joint_survival_bound,
    kl_divergence,
    missing_mass_tail_bound,
    pinsker_check,
    product_inequality_check,
    q_probabilities,
)
from .chain import (
    ChainSpec,
    StationaryDistribution,
    TransitionMatrix,
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
    check_lemma1,
    check_lemma2,
    expected_hitting_time,
    hitting_table,
    state_set,
    subset_hitting_times,
    t_large,
    t_minus,
    t_plus,
)
from .report import BoundReport, ReportBlock
from .simulate import (
    MissingMassSample,
    SimConfig,
    derive_stream,
    empirical_mgf,
    first_visit_table,
    hitting_time_samples,
    missing_mass_values,
    occupancy_frequencies,
    sample_missing_mass,
    sample_trajectory,
)
from .verify import VerifyOptions, VerificationSummary, run_all, run_suite
