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
from .errors import (
    DomainError,
    EmptySetError,
    InsufficientTrialsError,
    ValidationError,
)
from .hitting import StateSet
from .report import BoundReport

DEFAULT_C = 1.0 / (2.0 * math.e)
DEFAULT_C2 = 1.0
CALIBRATION_RESOLUTION = 0.01


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
        if self.c <= 0:
            raise ValidationError(f"c must be > 0, got {self.c!r}")
        if self.T < 0:
            raise ValidationError(f"T must be >= 0, got {self.T!r}")
        if self.T == 0 and self.pi.pi.size > 1:
            raise ValidationError("T = 0 is only possible for m = 1")
        if self.n < 1:
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
    if len(J) == 0:
        raise EmptySetError("set J is empty")
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
    mass = math.fsum(pi.pi[j] for j in J.members)
    if mass > 1.0 + 1e-12:
        raise ValidationError(f"pi(J) = {mass!r} exceeds 1")
    return max(0.0, 1.0 - mass) ** n


def product_inequality_check(pi: StationaryDistribution, J: StateSet) -> BoundReport:
    """Check 1 - pi(J) <= prod_{j in J} (1 - pi(j))."""
    if len(J) == 0:
        raise EmptySetError("set J is empty")
    mass = math.fsum(pi.pi[j] for j in J.members)
    lhs = 1.0 - mass
    rhs = float(np.prod(1.0 - pi.pi[J.indices()]))
    return BoundReport.from_check(
        "product-inequality", rhs, lhs, tol=1e-12,
        metadata={"J": J.members, "mass": mass})


def hitting_tail_bound(expected: float, t) -> float:
    """Tail bound exp(-floor(t / ceil(e * E N_B))) for the hitting time N_B.

    Chunking argument: survive k independent windows of ceil(e * E N_B)
    steps each. Vacuous (= 1) for t below one window.
    """
    if expected <= 0:
        raise ValidationError(f"expected hitting time must be > 0, got {expected!r}")
    if t < 0:
        raise ValidationError(f"t must be >= 0, got {t!r}")
    window = math.ceil(math.e * expected)
    return math.exp(-math.floor(t / window))


def explicit_hitting_tail(pi_A: float, T_half: float, t, c_explicit: float = DEFAULT_C) -> float:
    """Smooth tail bound exp(-c t pi(A) / T(0.5)) for hitting a set A."""
    if not (0 < pi_A <= 1):
        raise ValidationError(f"pi_A must lie in (0, 1], got {pi_A!r}")
    if T_half <= 0:
        raise ValidationError(f"T_half must be > 0, got {T_half!r}")
    if c_explicit <= 0:
        raise ValidationError(f"c_explicit must be > 0, got {c_explicit!r}")
    if t < 0:
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
    if epsilon <= 0:
        raise ValidationError(f"epsilon must be > 0, got {epsilon!r}")
    if c2 <= 0:
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
    """Binary relative entropy D(p || q), natural log; open-interval arguments only."""
    if not (0 < p < 1) or not (0 < q < 1):
        raise DomainError(f"p, q must lie in (0, 1), got p={p!r}, q={q!r}")
    return p * math.log(p / q) + (1 - p) * math.log((1 - p) / (1 - q))


def pinsker_check(p: float, q: float) -> BoundReport:
    """Check D(p || q) >= 2 (p - q)^2."""
    d = kl_divergence(p, q)
    lower = 2.0 * (p - q) ** 2
    return BoundReport.from_check(
        "pinsker", d, lower, tol=1e-12, metadata={"p": p, "q": q})


# --- empirical calibration of the joint-survival constant -------------------


@dataclass(frozen=True)
class CalibrationInstance:
    """One joint-survival value used to certify c.

    An exact survival probability has no CI slack and no trials; a Monte
    Carlo estimate carries its CI half-width and trial count.
    """

    chain_id: str
    members: tuple[int, ...]
    n: int
    mass: float
    t_half: float
    p_hat: float
    slack: float = 0.0
    trials: int = 0

    @property
    def exponent_scale(self) -> float:
        return self.n * self.mass / self.t_half


@dataclass(frozen=True)
class CalibrationResult:
    certified_c: float
    certified_c_raw: float
    uncertainty: float
    resolution: float
    binding: CalibrationInstance | None
    tight: tuple[tuple[str, float], ...] = ()


def calibrate_c(instances: Sequence[CalibrationInstance],
                resolution: float = CALIBRATION_RESOLUTION) -> CalibrationResult:
    """Largest c with p_hat <= exp(-c n pi(J) / T) + slack on every instance.

    Instances with n below the chain's T(0.5) are excluded (short-horizon
    measurements are vacuous: the chain has not had one mixing scale to
    move). Raises InsufficientTrialsError when no instance constrains c
    (every p_hat is at most its slack, e.g. every exact survival is 0), or
    when the CI slack on the binding instance leaves the certified value
    uncertain by more than ``resolution``; exact instances (slack 0) leave
    no uncertainty.
    """
    if not instances:
        raise ValidationError("empty calibration suite")
    usable = [i for i in instances if i.n >= i.t_half]
    if not usable:
        raise ValidationError("no instance passes the n >= T(0.5) inclusion filter")

    hi = math.inf
    binding = None
    tight = []
    for inst in usable:
        x = inst.exponent_scale
        c_tight = math.inf if inst.p_hat <= 0 else -math.log(inst.p_hat) / x
        tight.append((f"{inst.chain_id} J={'|'.join(map(str, inst.members))} n={inst.n}",
                      c_tight))
        c_hi = math.inf if inst.p_hat <= inst.slack else -math.log(inst.p_hat - inst.slack) / x
        if c_hi < hi:
            hi = c_hi
            binding = inst
    if not math.isfinite(hi):
        raise InsufficientTrialsError(
            "no instance constrains c: every survival probability is at most its CI slack "
            "(an exact survival of 0 constrains nothing)")
    up = min(1.0, binding.p_hat + binding.slack)
    c_lo = 0.0 if up >= 1 else -math.log(up) / binding.exponent_scale
    width = hi - c_lo
    if width > resolution:
        raise InsufficientTrialsError(
            f"certified-c uncertainty {width:.4f} exceeds resolution {resolution}")
    certified = math.floor(hi / resolution) * resolution
    return CalibrationResult(certified_c=certified, certified_c_raw=hi, uncertainty=width,
                             resolution=resolution, binding=binding, tight=tuple(tight))
