"""Exact expected hitting times of state sets, and the derived quantities.

For a target set B the vector h solves the first-step system

    h(x) = 0                          x in B
    h(x) = 1 + sum_y P(x,y) h(y)      x not in B

One solver, ``_hitting_times``, handles every target: it groups the
targets by size, solves each stack of (I - Q) h = 1 systems with one
``np.linalg.solve`` call and checks every system's residual. A single
table (``hitting_table``), the array of every subset's hitting times
(``subset_hitting_times``, m <= 20) and T(eps) are stacks of it.

The worst-case-over-starts value T(B) = max_x h(x), and T(eps) maximizes
T(B) over all sets of stationary mass at least eps (m <= 20). Growing the
target can only shorten the walk to it (B subset of B' gives h_B' <= h_B
pointwise), so the maximum is attained on a minimal qualifying set, one
that drops below eps when any member is removed. Only those sets are
solved: typically under a second at m = 20.

The survival law of the walk is exact too. Pr[N_B > t] (no state of B
among X_1..X_t) is start restricted to B^c times Q^(t-1) times 1, with
Q = P restricted to B^c, and the law of the visited set V_n = {X_1..X_n}
follows from a DP over (visited set, current state), m 2^m numbers per
step (m <= 20). Both only add non-negative terms, so they keep their
relative accuracy down to the smallest probabilities.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chain import StationaryDistribution, TransitionMatrix
from .errors import (
    BadParamsError,
    EmptySetError,
    SingularSystemError,
    TooManyStatesError,
    ValidationError,
)
from .report import BoundReport, Labels, ReportBlock

SYSTEM_RESIDUAL_TOL = 1e-9
INEQUALITY_TOL = 1e-9
ENUMERATION_MAX_STATES = 20
MASS_FILTER_TOL = 1e-12
# Systems per stacked solve: at most 2048 x 19 x 19 doubles (~6 MB) at m = 20.
SOLVE_BATCH = 2048


@dataclass(frozen=True)
class StateSet:
    """Sorted set of state indices, with the stationary mass once known."""

    members: tuple[int, ...]
    mass: float | None = None

    def __post_init__(self):
        norm = tuple(sorted({int(x) for x in self.members}))
        if any(x < 0 for x in norm):
            raise ValidationError(f"negative state index in {self.members!r}")
        object.__setattr__(self, "members", norm)

    def __len__(self):
        return len(self.members)

    def indices(self) -> np.ndarray:
        return np.asarray(self.members, dtype=int)

    def with_mass(self, pi: StationaryDistribution) -> "StateSet":
        return StateSet(self.members, mass=pi.mass(self.members))


def state_set(members) -> StateSet:
    return StateSet(tuple(members))


@dataclass(frozen=True, eq=False)
class HittingTimeTable:
    """Expected steps h(x) to reach ``target`` from every state x."""

    target: StateSet
    h: np.ndarray
    t_plus_all: float
    residual: float

    def __post_init__(self):
        self.h.setflags(write=False)


@dataclass(frozen=True)
class LargeSetTime:
    """T(eps) with the witnessing set of stationary mass >= eps."""

    epsilon: float
    value: float
    argmax_set: StateSet


def _check_members(S: StateSet, m: int, what: str = "set"):
    if len(S) == 0:
        raise EmptySetError(f"{what} is empty")
    if S.members[-1] >= m:
        raise ValidationError(f"{what} index {S.members[-1]} out of range for m={m}")


def _check_enumerable(m: int, what: str):
    if m > ENUMERATION_MAX_STATES:
        raise TooManyStatesError(
            f"m={m} exceeds the enumeration cap {ENUMERATION_MAX_STATES} of {what}")


def hitting_table(P: TransitionMatrix, B: StateSet) -> HittingTimeTable:
    """Exact expected hitting times of set B via the first-step linear system."""
    _check_members(B, P.m, "target set")
    outside = np.ones((1, P.m), dtype=bool)
    outside[0, B.indices()] = False
    (h,), (residual,) = _hitting_times(P.rows, outside)
    return HittingTimeTable(target=B, h=h, t_plus_all=float(h.max()), residual=float(residual))


def subset_hitting_times(P: TransitionMatrix) -> np.ndarray:
    """(2^m - 1, m) hitting times of every non-empty target set; row k - 1 targets bitmask k."""
    _check_enumerable(P.m, "the subset enumeration")
    return _hitting_times(P.rows, _outside(np.arange(1, 1 << P.m), P.m))[0]


def _outside(masks: np.ndarray, m: int) -> np.ndarray:
    """Row k is True at the states outside target bitmask masks[k]."""
    return ((masks[:, None] >> np.arange(m)) & 1) == 0


def _hitting_times(rows: np.ndarray, outside: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solve the first-step system of every target; row k of ``outside`` is B_k^c.

    Returns h, a (k, m) array that is 0 on each target, and each system's
    residual max |h - (1 + Q h)| on B_k^c. Targets are grouped by size into
    stacks of at most SOLVE_BATCH systems, one ``np.linalg.solve`` per stack.
    Raises SingularSystemError, naming the target, when a system is
    singular or its residual exceeds SYSTEM_RESIDUAL_TOL.
    """
    h = np.zeros(outside.shape)
    residual = np.zeros(outside.shape[0])
    sizes = outside.sum(axis=1)
    for n in np.unique(sizes[sizes > 0]):
        group = np.flatnonzero(sizes == n)
        diagonal = np.arange(n)
        for start in range(0, group.size, SOLVE_BATCH):
            batch = group[start:start + SOLVE_BATCH]
            rest = np.nonzero(outside[batch])[1].reshape(batch.size, n)
            Q = rows[rest[:, :, None], rest[:, None, :]]
            # I - Q is built next to Q, not from a temporary np.eye: the hole a
            # freed eye leaves is too small for the solver's copy of A, which
            # would then grow the heap (+30 MB peak RSS at m = 2000)
            A = np.zeros_like(Q)
            A[:, diagonal, diagonal] = 1.0
            A -= Q
            try:
                x = np.linalg.solve(A, np.ones((batch.size, n, 1)))
            except np.linalg.LinAlgError as e:
                which = (f"target {_target(outside[batch[0]])}" if batch.size == 1
                         else f"one of {batch.size} targets of {outside.shape[1] - n} states")
                raise SingularSystemError(f"hitting system singular for {which}") from e
            residual[batch] = np.abs(x - 1.0 - Q @ x).max(axis=(1, 2))
            h[batch[:, None], rest] = x[:, :, 0]
    bad = np.flatnonzero(~(residual <= SYSTEM_RESIDUAL_TOL))  # NaN fails too
    if bad.size:
        raise SingularSystemError(
            f"hitting system residual {residual[bad[0]]!r} exceeds tolerance "
            f"for target {_target(outside[bad[0]])}")
    return h, residual


def _target(outside_row: np.ndarray) -> tuple[int, ...]:
    return tuple(np.flatnonzero(~outside_row).tolist())


def t_plus(P: TransitionMatrix, A: StateSet, B: StateSet) -> float:
    """Worst expected hitting time of B over starting states in A."""
    _check_members(A, P.m, "start set")
    return float(hitting_table(P, B).h[A.indices()].max())


def t_minus(P: TransitionMatrix, A: StateSet, B: StateSet) -> float:
    """Best expected hitting time of B over starting states in A."""
    _check_members(A, P.m, "start set")
    return float(hitting_table(P, B).h[A.indices()].min())


def expected_hitting_time(table: HittingTimeTable, start: np.ndarray) -> float:
    """E N_B for the simulation convention X_1 ~ start.

    The solver's h counts transitions from an occupied state, so a chain
    whose first sampled symbol X_1 has law ``start`` hits B after
    1 + sum_x start(x) h(x) steps in expectation (the 1 accounts for
    X_1 itself; h = 0 on B makes the formula exact for starts inside B).
    """
    start = np.asarray(start, dtype=float)
    return 1.0 + float(start @ table.h)


def subset_masses(pi_vec: np.ndarray) -> np.ndarray:
    """Mass of every subset of states, indexed by bitmask (bit j = state j)."""
    masses = np.zeros(1)
    for p in pi_vec:
        masses = np.concatenate([masses, masses + p])
    return masses


def _mask_members(mask: int) -> tuple[int, ...]:
    out = []
    j = 0
    while mask:
        if mask & 1:
            out.append(j)
        mask >>= 1
        j += 1
    return tuple(out)


def _lex_smallest(masks: np.ndarray, m: int) -> tuple[int, ...]:
    """Member tuple of the lexicographically smallest set in an antichain.

    Of two sets with neither inside the other, the smaller tuple is the one
    holding the lowest state in which they differ; reversing the bit order
    makes that set the larger key.
    """
    key = np.zeros_like(masks)
    for j in range(m):
        key |= ((masks >> j) & 1) << (m - 1 - j)
    return _mask_members(int(masks[np.argmax(key)]))


def _minimal_qualifying_sets(pi_vec: np.ndarray, epsilon: float) -> np.ndarray:
    """Bitmasks of the minimal sets of mass >= eps.

    A non-empty set qualifies when its mass is at least eps - MASS_FILTER_TOL;
    it is minimal when removing any one member leaves a set that does not.
    """
    masses = subset_masses(pi_vec)
    qualifies = masses >= epsilon - MASS_FILTER_TOL
    qualifies[0] = False
    minimal = qualifies.copy()
    for j in range(len(pi_vec)):
        # index = (high bits, bit j, low bits): [:, 1] holds the sets containing
        # state j, and [:, 0] the same sets without it
        minimal.reshape(-1, 2, 1 << j)[:, 1] &= ~qualifies.reshape(-1, 2, 1 << j)[:, 0]
    return np.flatnonzero(minimal)


def t_large(P: TransitionMatrix, pi: StationaryDistribution, epsilon: float) -> LargeSetTime:
    """Exact T(eps): max of T(B) over all non-empty B with pi(B) >= eps.

    T(B) can only fall when B grows, so only the minimal qualifying sets are
    solved, in the stacked solves of ``_hitting_times``; capped at m = 20.
    Ties go to the lexicographically smallest member list among the
    minimal sets.
    """
    if not (0 < epsilon <= 1):
        raise BadParamsError(f"epsilon must lie in (0, 1], got {epsilon!r}")
    _check_enumerable(P.m, "T(eps)")
    masks = _minimal_qualifying_sets(pi.pi, epsilon)
    values = _hitting_times(P.rows, _outside(masks, P.m))[0].max(axis=1)
    value = values.max()
    witness = StateSet(_lex_smallest(masks[values == value], P.m)).with_mass(pi)
    return LargeSetTime(epsilon=float(epsilon), value=float(value), argmax_set=witness)


def survival_probabilities(P: TransitionMatrix, start, members, horizons) -> np.ndarray:
    """Exact Pr[N_B > t] for each horizon t >= 1, with X_1 ~ start.

    N_B > t means X_1, ..., X_t all lie outside B = ``members``, so the
    probability is start restricted to B^c, times Q^(t-1), times 1, where
    Q is P restricted to B^c. Works for any m.
    """
    B = StateSet(tuple(members))
    _check_members(B, P.m, "target set")
    horizons = _check_horizons(horizons)
    rest = np.setdiff1d(np.arange(P.m), B.indices())
    Q = P.rows[np.ix_(rest, rest)]
    v = np.asarray(start, dtype=float)[rest]
    out = np.empty(horizons.size)
    t = 1
    for i in np.argsort(horizons, kind="stable"):
        for _ in range(t, horizons[i]):
            v = v @ Q
        t = horizons[i]
        out[i] = v.sum()
    return out


def unseen_set_law(P: TransitionMatrix, start, horizons) -> np.ndarray:
    """Exact law of the visited set V_n = {X_1, ..., X_n}, X_1 ~ start.

    Row i is indexed by bitmask S (bit j = state j) and holds Pr[V_n = S]
    for n = horizons[i]; the unseen set is the complement of S, so its mass
    is ``subset_masses(pi)[::-1][S]``. The DP carries f[x, S] =
    Pr[V_k = S, X_k = x]: m 2^m doubles twice over (about 340 MB at m = 20).
    """
    m = P.m
    _check_enumerable(m, "the visited-set law")
    horizons = _check_horizons(horizons)
    f = np.zeros((m, 1 << m))
    f[np.arange(m), 1 << np.arange(m)] = np.asarray(start, dtype=float)
    step = np.empty_like(f)
    out = np.empty((horizons.size, 1 << m))
    k = 1
    for i in np.argsort(horizons, kind="stable"):
        for _ in range(k, horizons[i]):
            # step[y, S] = Pr[V_k = S, X_k+1 = y]; the move to y adds y to S
            np.matmul(P.rows.T, f, out=step)
            for y in range(m):
                # index = (high bits, bit y, low bits), as in _minimal_qualifying_sets
                src = step[y].reshape(-1, 2, 1 << y)
                dst = f[y].reshape(-1, 2, 1 << y)
                dst[:, 0] = 0.0
                np.add(src[:, 0], src[:, 1], out=dst[:, 1])
        k = horizons[i]
        out[i] = f.sum(axis=0)
    return out


def _check_horizons(horizons) -> np.ndarray:
    horizons = np.asarray(horizons, dtype=np.int64).reshape(-1)
    if horizons.size and horizons.min() < 1:
        raise ValidationError(f"horizons must be >= 1, got {horizons.min()}")
    return horizons


def check_lemma1(P: TransitionMatrix, pi: StationaryDistribution, A: StateSet, B: StateSet) -> BoundReport:
    """Check Lemma 1 for one pair of sets; see ``lemma1_reports``."""
    _check_members(A, P.m, "set A")
    _check_members(B, P.m, "set B")
    h = np.stack([hitting_table(P, S).h for S in (A, B)])
    return lemma1_reports(pi, [A.members, B.members], h, [(0, 1)])[0]


def lemma1_reports(pi: StationaryDistribution, sets, h: np.ndarray, pairs,
                   chain_id: str = "") -> ReportBlock:
    """Check pi(A) <= T+(A,B) / (T+(A,B) + T-(B,A)) for each index pair (a, b).

    A = sets[a], B = sets[b], and row k of h holds the hitting times of
    sets[k]. Overlapping A and B make T-(B,A) = 0 and the inequality
    trivial; such checks are reported with vacuous=true rather than
    rejected. The product form pi(A) * T-(B,A) <= T+(A,B) is checked
    alongside and recorded in the params as ``product_lhs`` and
    ``product_holds``; its right side is ``t_plus``.
    """
    inside = np.zeros(h.shape, dtype=bool)
    for k, members in enumerate(sets):
        inside[k, list(members)] = True
    a, b = np.asarray(pairs, dtype=int).reshape(-1, 2).T
    tp = np.where(inside[a], h[b], -np.inf).max(axis=1)
    tm = np.where(inside[b], h[a], np.inf).min(axis=1)
    lhs = np.array([pi.mass(members) for members in sets])[a]
    denom = tp + tm
    rhs = np.divide(tp, denom, out=np.ones_like(tp), where=denom > 0)
    product_holds = lhs * tm <= tp + INEQUALITY_TOL
    return ReportBlock.of_check(
        "lemma1", chain_id, rhs, lhs, (lhs <= rhs + INEQUALITY_TOL) & product_holds,
        (inside[a] & inside[b]).any(axis=1),
        {"A": Labels(a, sets), "B": Labels(b, sets), "t_plus": tp, "t_minus": tm,
         "product_lhs": lhs * tm, "product_holds": product_holds})


def check_lemma2(P: TransitionMatrix, pi: StationaryDistribution, A: StateSet) -> BoundReport:
    """Check Lemma 2 for one set; needs exact T(0.5), so m <= 20. See ``lemma2_reports``."""
    _check_members(A, P.m, "set A")
    t_half = t_large(P, pi, 0.5).value
    return lemma2_reports([pi.mass(A.members)], [A.members], hitting_table(P, A).h[None], t_half)[0]


def lemma2_reports(masses, sets, h: np.ndarray, t_half: float, chain_id: str = "") -> ReportBlock:
    """Check T(A) <= 2 T(0.5) / pi(A) for each A = sets[k], whose stationary mass is
    masses[k] and whose hitting times are row k of h.

    Also records the per-instance smallest constant kappa with
    T(A) <= kappa * T(0.5) / pi(A), without asserting any improved bound.
    """
    masses = np.asarray(masses, dtype=float)
    t_a = h.max(axis=1)
    bound = 2.0 * t_half / masses
    tight = t_a * masses / t_half if t_half > 0 else np.zeros_like(t_a)
    return ReportBlock.of_check(
        "lemma2", chain_id, bound, t_a, t_a <= bound + INEQUALITY_TOL,
        np.full(len(sets), t_half == 0.0),
        {"A": Labels(np.arange(len(sets)), sets), "t_half": np.full(len(sets), t_half),
         "mass": masses, "tight_constant": tight})
