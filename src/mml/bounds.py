"""Closed-form tail bounds for missing mass and set hitting times.

The central object is the vector of Bernoulli surrogate probabilities
q_j = exp(-c n pi(j) / T), where T is the exact worst-case hitting time
of sets of stationary mass at least one half. Products of the q_j bound
joint survival probabilities; an IID mode swaps in the exact survival
(1 - pi(j))^n instead.

The rate constants are existence results, not pinned values; they are
exposed as parameters. Defaults: c = 1/(2e) (a 1/e-rate tail chunking
composed with the factor-2 measure-vs-hitting bound) and c2 = 1 for the
missing-mass deviation rate, which is flagged as an unpinned constant in
every report that uses it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .chain import StationaryDistribution
from .errors import DomainError, InsufficientTrialsError, ValidationError
from .hitting import StateSet, _check_members
from .report import ReportBlock

DEFAULT_C = 1.0 / (2.0 * math.e)
DEFAULT_C2 = 1.0
# step to which calibrate_c floors the certified c
CERTIFIED_C_STEP = 0.25


@dataclass(frozen=True, eq=False)
class BoundParams:
    """Constants shared by the surrogate-probability bounds.

    T = 0 is legal only for single-state chains, where every bound is
    vacuous and reported as such.
    """

    c: float
    T: float
    n: int
    pi: StationaryDistribution

    def __post_init__(self):
        if not self.c > 0:  # NaN fails too, here and below
            raise ValidationError(f"c must be > 0, got {self.c!r}")
        if not self.T >= 0:
            raise ValidationError(f"T must be >= 0, got {self.T!r}")
        if self.T == 0 and self.pi.pi.size > 1:
            raise ValidationError("T = 0 is only possible for m = 1")
        if not self.n >= 1:
            raise ValidationError(f"n must be >= 1, got {self.n}")

    @property
    def vacuous(self) -> bool:
        return self.T == 0.0


def q_probabilities(params: BoundParams, iid_exact: bool = False) -> np.ndarray:
    """Surrogate success probabilities q_j = exp(-c n pi(j) / T).

    With ``iid_exact`` the exact memory-less survival (1 - pi(j))^n is
    returned instead (equivalent to c = 1, T = 1 up to the e^-x vs 1-x
    gap).
    """
    pi_vec = params.pi.pi
    if iid_exact:
        return (1.0 - pi_vec) ** params.n
    if params.vacuous:
        return np.zeros_like(pi_vec)
    return np.exp(-params.c * params.n * pi_vec / params.T)


def joint_survival_bound(params: BoundParams, J: StateSet, iid_exact: bool = False) -> float:
    """Product bound on Pr[no state of J seen in n steps]: prod_j q_j.

    In the default mode the product collapses to exp(-c n pi(J) / T).
    """
    _check_members(J, params.pi.pi.size, "set J")
    idx = J.indices()
    if iid_exact:
        return float(np.prod((1.0 - params.pi.pi[idx]) ** params.n))
    if params.vacuous:
        return 0.0
    mass = math.fsum(params.pi.pi[j] for j in J.members)
    return math.exp(-params.c * params.n * mass / params.T)


def iid_exact_survival(pi: StationaryDistribution, J: StateSet, n: int) -> float:
    """Exact memory-less joint survival (1 - pi(J))^n."""
    if n < 1:
        raise ValidationError(f"n must be >= 1, got {n}")
    if len(J):  # an empty J survives surely
        _check_members(J, pi.pi.size, "set J")
    mass = math.fsum(pi.pi[j] for j in J.members)
    if mass > 1.0 + 1e-12:
        raise ValidationError(f"pi(J) = {mass!r} exceeds 1")
    return max(0.0, 1.0 - mass) ** n


def product_inequality_check(pi: StationaryDistribution, J: StateSet) -> ReportBlock:
    """Check 1 - pi(J) <= prod_{j in J} (1 - pi(j)); a one-row block."""
    _check_members(J, pi.pi.size, "set J")
    mass = math.fsum(pi.pi[j] for j in J.members)
    lhs = 1.0 - mass
    rhs = float(np.prod(1.0 - pi.pi[J.indices()]))
    return ReportBlock.of_check("product-inequality", "", [rhs], [lhs], lhs <= rhs + 1e-12, False,
                                {"J": J.members, "mass": mass})


def hitting_tail_bound(expected: float, t) -> float:
    """Tail bound exp(-floor(t / ceil(e * E N_B))) for the hitting time N_B.

    Chunking argument: survive k independent windows of ceil(e * E N_B)
    steps each. Vacuous (= 1) for t below one window.
    """
    if not 0 < expected < math.inf:  # NaN fails too
        raise ValidationError(
            f"expected hitting time must be finite and > 0, got {expected!r}")
    if not 0 <= t < math.inf:
        raise ValidationError(f"t must be finite and >= 0, got {t!r}")
    window = math.ceil(math.e * expected)
    return math.exp(-math.floor(t / window))


def explicit_hitting_tail(pi_A: float, T_half: float, t, c_explicit: float = DEFAULT_C) -> float:
    """Smooth tail bound exp(-c t pi(A) / T(0.5)) for hitting a set A."""
    if not (0 < pi_A <= 1 + 1e-12):  # the mass of every state may round above 1
        raise ValidationError(f"pi_A must lie in (0, 1], got {pi_A!r}")
    if not T_half > 0:  # NaN fails too, here and below
        raise ValidationError(f"T_half must be > 0, got {T_half!r}")
    if not c_explicit > 0:
        raise ValidationError(f"c_explicit must be > 0, got {c_explicit!r}")
    if not t >= 0:
        raise ValidationError(f"t must be >= 0, got {t!r}")
    return math.exp(-c_explicit * t * pi_A / T_half)


@dataclass(frozen=True)
class MissingMassTailBound:
    """Deviation bound: missing mass <= threshold except with prob failure_bound."""

    threshold: float
    failure_bound: float
    mean_term: float
    epsilon: float
    c2: float
    c2_note: str = "unspecified rate constant; default 1"


def missing_mass_tail_bound(params: BoundParams, epsilon: float,
                            c2: float = DEFAULT_C2, iid_exact: bool = False) -> MissingMassTailBound:
    """Mean-plus-epsilon threshold with failure probability exp(-c2 n eps^2 / T).

    The mean term is sum_j pi(j) q_j, the expectation of the surrogate
    missing mass; in IID mode it equals the exact expected missing mass.
    """
    if not epsilon > 0:  # NaN fails too
        raise ValidationError(f"epsilon must be > 0, got {epsilon!r}")
    if not c2 > 0:
        raise ValidationError(f"c2 must be > 0, got {c2!r}")
    q = q_probabilities(params, iid_exact=iid_exact)
    mean_term = math.fsum(p * qq for p, qq in zip(params.pi.pi, q))
    if params.vacuous:
        failure = 0.0
    else:
        failure = math.exp(-c2 * params.n * epsilon ** 2 / params.T)
    return MissingMassTailBound(threshold=mean_term + epsilon, failure_bound=failure,
                                mean_term=mean_term, epsilon=epsilon, c2=c2)


def bernoulli_product_mgf(weights: Sequence[float], q: Sequence[float], s: float) -> float:
    """MGF of sum_j w_j Q_j for independent Bernoulli(q_j): prod (1 - q_j + q_j e^{s w_j})."""
    total = 0.0
    for w, qq in zip(weights, q):
        total += math.log1p(qq * (math.exp(s * w) - 1.0))
    return math.exp(total)


def kl_divergence(p: float, q: float) -> float:
    """Binary relative entropy D(p || q), natural log, for p, q in [0, 1].

    With 0 log 0 = 0: D is +inf where p > 0 = q or p < 1 = q, and 0 at p = q in {0, 1}.
    """
    if not (0 <= p <= 1) or not (0 <= q <= 1):  # NaN fails too
        raise DomainError(f"p, q must lie in [0, 1], got p={p!r}, q={q!r}")
    return _relative_entropy_term(p, q) + _relative_entropy_term(1 - p, 1 - q)


def _relative_entropy_term(a: float, b: float) -> float:
    """a log(a / b), with 0 log(0 / b) = 0 and a log(a / 0) = +inf for a > 0."""
    if a == 0:
        return 0.0
    return a * math.log(a / b) if b > 0 else math.inf


def pinsker_check(p: float, q: float) -> ReportBlock:
    """Check D(p || q) >= 2 (p - q)^2; a one-row block."""
    d = kl_divergence(p, q)
    lower = 2.0 * (p - q) ** 2
    return ReportBlock.of_check("pinsker", "", [d], [lower], lower <= d + 1e-12, False,
                                {"p": p, "q": q})


# --- calibration of the joint-survival constant on exact survivals ---------


def calibrate_c(p, n, mass, t_half) -> tuple[float, float]:
    """Largest c with p <= exp(-c n pi(J) / T(0.5)) on every row of the survival columns:
    p[i] = Pr[tau_J > n[i]] exactly, mass[i] = pi(J) and t_half[i] the chain's T(0.5).

    Returns (certified, raw): raw is that c, the minimum of -log p / (n pi(J) / T(0.5)),
    and certified floors it to a multiple of CERTIFIED_C_STEP. Rows with n below
    T(0.5) are excluded (short-horizon measurements are vacuous: the chain has
    not had one mixing scale to move). Raises InsufficientTrialsError when no
    row constrains c.
    """
    p, n, mass, t_half = (np.asarray(x, dtype=float) for x in (p, n, mass, t_half))
    if not p.size:
        raise ValidationError("empty calibration suite")
    usable = n >= t_half
    if not usable.any():
        raise ValidationError("no instance passes the n >= T(0.5) inclusion filter")
    # an exact survival of 0, or T(0.5) = 0 (a single state), constrains nothing
    rows = usable & (p > 0) & (t_half > 0)
    if not rows.any():
        raise InsufficientTrialsError(
            "no instance constrains c: every survival probability is 0 "
            "or its chain has T(0.5) = 0")
    raw = min(-math.log(q) / (k * a / t)
              for q, k, a, t in zip(*(x[rows].tolist() for x in (p, n, mass, t_half))))
    return math.floor(raw / CERTIFIED_C_STEP) * CERTIFIED_C_STEP, raw
