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
from .errors import InsufficientTrialsError, PreconditionError, ValidationError
from .hitting import StateSet, _check_members

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
        if not 0 < self.c < math.inf:  # NaN fails too, here and below
            raise ValidationError(f"c must be > 0 and finite, got {self.c!r}")
        if not 0 <= self.T < math.inf:
            raise ValidationError(f"T must be >= 0 and finite, got {self.T!r}")
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

    In the default mode the product collapses to exp(-c n pi(J) / T), the
    smooth tail ``explicit_hitting_tail`` at t = n, pi(J) by ``StationaryDistribution.mass``.
    """
    _check_members(J, params.pi.pi.size, "set J")
    if iid_exact:
        return float(np.prod((1.0 - params.pi.pi[J.indices()]) ** params.n))
    if params.vacuous:
        return 0.0
    return explicit_hitting_tail(params.pi.mass(J.members), params.T, params.n, params.c)


def iid_exact_survival(pi: StationaryDistribution, J: StateSet, n: int) -> float:
    """Exact memory-less joint survival (1 - pi(J))^n, pi(J) by ``StationaryDistribution.mass``."""
    if n < 1:
        raise ValidationError(f"n must be >= 1, got {n}")
    if len(J):  # an empty J survives surely
        _check_members(J, pi.pi.size, "set J")
    mass = pi.mass(J.members)
    if mass > 1.0 + 1e-12:
        raise ValidationError(f"pi(J) = {mass!r} exceeds 1")
    return max(0.0, 1.0 - mass) ** n


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
    window = math.e * expected  # inf when no window fits in any finite t
    return 1.0 if window == math.inf else math.exp(-math.floor(t / math.ceil(window)))


def explicit_hitting_tail(pi_A: float, T_half: float, t, c_explicit: float = DEFAULT_C) -> float:
    """Smooth tail bound exp(-c t pi(A) / T(0.5)) for hitting a set A."""
    if not (0 < pi_A <= 1 + 1e-12):  # the mass of every state may round above 1
        raise ValidationError(f"pi_A must lie in (0, 1], got {pi_A!r}")
    if not 0 < T_half < math.inf:  # NaN fails too, here and below
        raise ValidationError(f"T_half must be > 0 and finite, got {T_half!r}")
    if not 0 < c_explicit < math.inf:
        raise ValidationError(f"c_explicit must be > 0 and finite, got {c_explicit!r}")
    if not 0 <= t < math.inf:
        raise ValidationError(f"t must be >= 0 and finite, got {t!r}")
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
    if not 0 < c2 < math.inf:
        raise ValidationError(f"c2 must be > 0 and finite, got {c2!r}")
    q = q_probabilities(params, iid_exact=iid_exact)
    mean_term = math.fsum(p * qq for p, qq in zip(params.pi.pi, q))
    if params.vacuous:
        failure = 0.0
    else:
        try:
            exponent = -c2 * params.n * epsilon ** 2 / params.T
        except OverflowError:  # eps^2 passed the float range
            exponent = -math.inf
        if exponent == -math.inf:  # an overflow: divide by T before the second eps
            exponent = -c2 * params.n * (epsilon / params.T) * epsilon
        failure = math.exp(exponent)
    return MissingMassTailBound(threshold=mean_term + epsilon, failure_bound=failure,
                                mean_term=mean_term, epsilon=epsilon, c2=c2)


def bernoulli_product_mgf(weights: Sequence[float], q: Sequence[float], s: float) -> float:
    """MGF of sum_j w_j Q_j for independent Bernoulli(q_j): prod (1 - q_j + q_j e^{s w_j}).

    inf once the product passes the float range."""
    total = 0.0
    for w, qq in zip(weights, q):
        if qq == 0:  # the factor is exactly 1
            continue
        try:
            total += math.log1p(qq * (math.exp(s * w) - 1.0))
        except OverflowError:  # e^{s w} passed the float range: log of e^{s w} (q + (1 - q) e^{-s w})
            total += s * w + math.log(qq + (1.0 - qq) * math.exp(-s * w))
    try:
        return math.exp(total)
    except OverflowError:
        return math.inf


def kl_divergence(p: float, q: float) -> float:
    """Binary relative entropy D(p || q), natural log, for p, q in [0, 1].

    With 0 log 0 = 0: D is +inf where p > 0 = q or p < 1 = q, and 0 at p = q in {0, 1}.
    """
    if not (0 <= p <= 1) or not (0 <= q <= 1):  # NaN fails too
        raise PreconditionError(f"p, q must lie in [0, 1], got p={p!r}, q={q!r}")
    return _relative_entropy_term(p, q) + _relative_entropy_term(1 - p, 1 - q)


def _relative_entropy_term(a: float, b: float) -> float:
    """a log(a / b), with 0 log(0 / b) = 0 and a log(a / 0) = +inf for a > 0."""
    if a == 0:
        return 0.0
    return a * math.log(a / b) if b > 0 else math.inf


# --- calibration of the joint-survival constant on exact survivals ---------


def calibrate_c(p, n, mass, t_half) -> tuple[float, float]:
    """Largest c with p <= exp(-c n pi(J) / T(0.5)) on every row of the survival columns:
    p[i] = Pr[tau_J > n[i]] exactly, mass[i] = pi(J) and t_half[i] the chain's T(0.5).

    Returns (certified, raw): raw is that c, the minimum of -log p / (n pi(J) / T(0.5)),
    and certified floors it to a multiple of CERTIFIED_C_STEP. Rows with n below
    T(0.5) are excluded (short-horizon measurements are vacuous: the chain has
    not had one mixing scale to move). Like an exact 0, a survival below the
    smallest normal double constrains nothing: it is the round-off residue of a
    tail that underflowed, and -log of it would read as a real survival. A
    survival that rounds above 1 reads as 1, so no c below 0 is certified.
    Raises InsufficientTrialsError when no row constrains c.
    """
    p, n, mass, t_half = (np.asarray(x, dtype=float) for x in (p, n, mass, t_half))
    p = np.minimum(p, 1.0)
    if not p.size:
        raise ValidationError("empty calibration suite")
    usable = n >= t_half
    if not usable.any():
        raise ValidationError("no instance passes the n >= T(0.5) inclusion filter")
    # a survival of 0 or below the smallest normal double, or T(0.5) = 0 (a single
    # state), constrains nothing
    rows = usable & (p >= np.finfo(float).tiny) & (t_half > 0)
    if not rows.any():
        raise InsufficientTrialsError(
            "no instance constrains c: every survival probability is 0 or below the "
            "smallest normal double, or its chain has T(0.5) = 0")
    raw = min((0.0 - math.log(q)) / (k * a / t)  # 0.0 - log 1 is 0.0; -log 1 is -0.0
              for q, k, a, t in zip(*(x[rows].tolist() for x in (p, n, mass, t_half))))
    return math.floor(raw / CERTIFIED_C_STEP) * CERTIFIED_C_STEP, raw
