"""Exact expected hitting times of state sets, and the derived quantities.

For a target set B the vector h solves the first-step system

    h(x) = 0                          x in B
    h(x) = 1 + sum_y P(x,y) h(y)      x not in B

The worst-case-over-starts value T(B) = max_x h(x), and T(eps) maximizes
T(B) over all sets of stationary mass at least eps (m <= 20). Growing the
target can only shorten the walk to it (B subset of B' gives h_B' <= h_B
pointwise), so the maximum is attained on a minimal qualifying set, one
that drops below eps when any member is removed. Only those sets are
solved, in stacked batches: typically under a second at m = 20.

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
from .report import BoundReport

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


def hitting_table(P: TransitionMatrix, B: StateSet) -> HittingTimeTable:
    """Exact expected hitting times of set B via the first-step linear system."""
    _check_members(B, P.m, "target set")
    h = _solve_hitting(P.rows, B.members)
    res = _table_residual(P.rows, B.members, h)
    if res > SYSTEM_RESIDUAL_TOL:
        raise SingularSystemError(f"hitting system residual {res!r} exceeds tolerance")
    return HittingTimeTable(target=B, h=h, t_plus_all=float(h.max()), residual=res)


def _solve_hitting(rows: np.ndarray, members: tuple[int, ...]) -> np.ndarray:
    m = rows.shape[0]
    mask = np.zeros(m, dtype=bool)
    mask[list(members)] = True
    rest = np.flatnonzero(~mask)
    h = np.zeros(m)
    if rest.size:
        Q = rows[np.ix_(rest, rest)]
        try:
            h_rest = np.linalg.solve(np.eye(rest.size) - Q, np.ones(rest.size))
        except np.linalg.LinAlgError as e:
            raise SingularSystemError(f"hitting system singular for target {members}") from e
        h[rest] = h_rest
    return h


def _table_residual(rows, members, h) -> float:
    mask = np.zeros(rows.shape[0], dtype=bool)
    mask[list(members)] = True
    rest = np.flatnonzero(~mask)
    if not rest.size:
        return 0.0
    lhs = h[rest]
    rhs = 1.0 + rows[rest] @ h
    return float(np.max(np.abs(lhs - rhs)))


def t_plus(P: TransitionMatrix, A: StateSet, B: StateSet, *, table: HittingTimeTable | None = None) -> float:
    """Worst expected hitting time of B over starting states in A."""
    _check_members(A, P.m, "start set")
    if table is None:
        table = hitting_table(P, B)
    return float(table.h[A.indices()].max())


def t_minus(P: TransitionMatrix, A: StateSet, B: StateSet, *, table: HittingTimeTable | None = None) -> float:
    """Best expected hitting time of B over starting states in A."""
    _check_members(A, P.m, "start set")
    if table is None:
        table = hitting_table(P, B)
    return float(table.h[A.indices()].min())


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


def _minimal_qualifying_sets(pi_vec: np.ndarray, epsilon: float) -> tuple[np.ndarray, np.ndarray]:
    """Bitmasks and sizes of the minimal sets of mass >= eps.

    A non-empty set qualifies when its mass is at least eps - MASS_FILTER_TOL;
    it is minimal when removing any one member leaves a set that does not.
    """
    masses = subset_masses(pi_vec)
    qualifies = masses >= epsilon - MASS_FILTER_TOL
    qualifies[0] = False
    minimal = qualifies.copy()
    sizes = np.zeros(masses.size, dtype=np.uint8)
    for j in range(len(pi_vec)):
        # index = (high bits, bit j, low bits): [:, 1] holds the sets containing
        # state j, and [:, 0] the same sets without it
        minimal.reshape(-1, 2, 1 << j)[:, 1] &= ~qualifies.reshape(-1, 2, 1 << j)[:, 0]
        sizes.reshape(-1, 2, 1 << j)[:, 1] += 1
    masks = np.flatnonzero(minimal)
    return masks, sizes[masks]


def _batch_t_plus_all(rows: np.ndarray, masks: np.ndarray, size: int) -> np.ndarray:
    """T(B) = max_x h_B(x) for each target bitmask, all of ``size`` members."""
    m = rows.shape[0]
    n = m - size
    if n == 0:
        return np.zeros(masks.size)
    outside = ((masks[:, None] >> np.arange(m)) & 1) == 0
    rest = np.nonzero(outside)[1].reshape(masks.size, n)
    A = np.eye(n) - rows[rest[:, :, None], rest[:, None, :]]
    try:
        h = np.linalg.solve(A, np.ones((masks.size, n, 1)))
    except np.linalg.LinAlgError as e:
        raise SingularSystemError(f"hitting system singular for a target of {size} states") from e
    return h[:, :, 0].max(axis=1)


def t_large(P: TransitionMatrix, pi: StationaryDistribution, epsilon: float) -> LargeSetTime:
    """Exact T(eps): max of T(B) over all non-empty B with pi(B) >= eps.

    T(B) can only fall when B grows, so only the minimal qualifying sets are
    solved, grouped by size into stacked solves; capped at m = 20. Ties go
    to the lexicographically smallest member list among the minimal sets.
    """
    if not (0 < epsilon <= 1):
        raise BadParamsError(f"epsilon must lie in (0, 1], got {epsilon!r}")
    if P.m > ENUMERATION_MAX_STATES:
        raise TooManyStatesError(
            f"m={P.m} exceeds the enumeration cap {ENUMERATION_MAX_STATES}; use t_large_upper")
    masks, sizes = _minimal_qualifying_sets(pi.pi, epsilon)
    values = np.empty(masks.size)
    for size in np.unique(sizes):
        group = np.flatnonzero(sizes == size)
        for start in range(0, group.size, SOLVE_BATCH):
            batch = group[start:start + SOLVE_BATCH]
            values[batch] = _batch_t_plus_all(P.rows, masks[batch], int(size))
    witness = StateSet(_lex_smallest(masks[values == values.max()], P.m)).with_mass(pi)
    recomputed = hitting_table(P, witness)
    return LargeSetTime(epsilon=float(epsilon), value=recomputed.t_plus_all, argmax_set=witness)


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
    if m > ENUMERATION_MAX_STATES:
        raise TooManyStatesError(
            f"m={m} exceeds the enumeration cap {ENUMERATION_MAX_STATES} of the visited-set law")
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


def t_large_upper(P: TransitionMatrix, pi: StationaryDistribution, epsilon: float) -> float:
    """T(eps) surrogate for large chains; exact (delegates) when m <= 20.

    For m > 20 this is a documented heuristic, not a proven bound: it
    returns the max of the exact T(B) over a candidate family of sets of
    mass >= eps (ascending/descending stationary-mass prefixes plus all
    minimal windows in ascending mass order).
    """
    if P.m <= ENUMERATION_MAX_STATES:
        return t_large(P, pi, epsilon).value
    if not (0 < epsilon <= 1):
        raise BadParamsError(f"epsilon must lie in (0, 1], got {epsilon!r}")
    best = 0.0
    for members in _heuristic_candidates(pi.pi, epsilon):
        best = max(best, float(_solve_hitting(P.rows, members).max()))
    return best


def _heuristic_candidates(pi_vec: np.ndarray, epsilon: float):
    m = pi_vec.size
    order = np.argsort(pi_vec, kind="stable")
    seen = set()

    def emit(idx_list):
        members = tuple(sorted(int(i) for i in idx_list))
        if members and members not in seen:
            seen.add(members)
            yield members

    for ordering in (order, order[::-1]):
        acc = 0.0
        prefix = []
        for i in ordering:
            prefix.append(i)
            acc += pi_vec[i]
            if acc >= epsilon - MASS_FILTER_TOL:
                yield from emit(prefix)
                break
    # minimal qualifying windows over the ascending order (two pointers)
    lo = 0
    acc = 0.0
    for hi in range(m):
        acc += pi_vec[order[hi]]
        while lo < hi and acc - pi_vec[order[lo]] >= epsilon - MASS_FILTER_TOL:
            acc -= pi_vec[order[lo]]
            lo += 1
        if acc >= epsilon - MASS_FILTER_TOL:
            yield from emit(order[lo:hi + 1])


def check_lemma1(P: TransitionMatrix, pi: StationaryDistribution, A: StateSet, B: StateSet, *,
                 table_b: HittingTimeTable | None = None,
                 table_a: HittingTimeTable | None = None) -> BoundReport:
    """Check pi(A) <= T+(A,B) / (T+(A,B) + T-(B,A)).

    Overlapping A and B make T-(B,A) = 0 and the inequality trivial; such
    checks are reported with vacuous=true rather than rejected. The
    product form pi(A) * T-(B,A) <= T+(A,B) is checked alongside and
    recorded in the metadata.
    """
    _check_members(A, P.m, "set A")
    _check_members(B, P.m, "set B")
    vacuous = bool(set(A.members) & set(B.members))
    tp = t_plus(P, A, B, table=table_b)
    tm = t_minus(P, B, A, table=table_a)
    lhs = pi.mass(A.members)
    denom = tp + tm
    rhs = tp / denom if denom > 0 else 1.0
    product_holds = bool(lhs * tm <= tp + INEQUALITY_TOL)
    holds = bool(lhs <= rhs + INEQUALITY_TOL) and product_holds
    return BoundReport(
        name="lemma1",
        bound_value=rhs,
        value=lhs,
        margin=rhs - lhs,
        holds=holds,
        vacuous=vacuous,
        metadata={
            "A": A.members,
            "B": B.members,
            "t_plus": tp,
            "t_minus": tm,
            "product_lhs": lhs * tm,
            "product_rhs": tp,
            "product_holds": product_holds,
        },
    )


def check_lemma2(P: TransitionMatrix, pi: StationaryDistribution, A: StateSet, *,
                 t_half: float | None = None,
                 table: HittingTimeTable | None = None) -> BoundReport:
    """Check T(A) <= 2 T(0.5) / pi(A); needs exact T(0.5), so m <= 20.

    Also records the per-instance smallest constant kappa with
    T(A) <= kappa * T(0.5) / pi(A), without asserting any improved bound.
    """
    _check_members(A, P.m, "set A")
    if t_half is None:
        t_half = t_large(P, pi, 0.5).value
    if table is None:
        table = hitting_table(P, A)
    t_a = table.t_plus_all
    mass = pi.mass(A.members)
    rhs = 2.0 * t_half / mass
    kappa = t_a * mass / t_half if t_half > 0 else 0.0
    return BoundReport(
        name="lemma2",
        bound_value=rhs,
        value=t_a,
        margin=rhs - t_a,
        holds=bool(t_a <= rhs + INEQUALITY_TOL),
        vacuous=bool(t_half == 0.0),
        metadata={"A": A.members, "t_half": t_half, "mass": mass, "tight_constant": kappa},
    )
