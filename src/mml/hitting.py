"""Exact expected hitting times of state sets, and the derived quantities.

For a target set B the vector h solves the first-step system

    h(x) = 0                          x in B
    h(x) = 1 + sum_y P(x,y) h(y)      x not in B

One solver, ``_hitting_times``, handles every target on a stack of chains
of equal size: it groups the targets by size, solves each size's
(I - Q) h = 1 systems on every chain of the stack with one
``np.linalg.solve`` call per SOLVE_BATCH systems and checks every
system's residual. A single table (``hitting_table``) and T(eps) pass a
stack of one chain; the array of every subset's hitting times
(``subset_hitting_times_stack``, m <= 20) passes the whole stack, so the
lemma sweeps solve all their chains of one size together. The lemma
kernels read their sets' members and stationary masses from arrays too
(``subset_members``, ``member_masses``).

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
from .report import Labels, ReportBlock

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
    h, residual = _hitting_times(P.rows[None], outside)
    return HittingTimeTable(target=B, h=h[0, 0], t_plus_all=float(h.max()),
                            residual=float(residual[0, 0]))


def subset_hitting_times(P: TransitionMatrix) -> np.ndarray:
    """(2^m - 1, m) hitting times of every non-empty target set; row k - 1 targets bitmask k."""
    return subset_hitting_times_stack([P])[0]


def subset_hitting_times_stack(chains) -> np.ndarray:
    """(C, 2^m - 1, m) hitting times of every non-empty target set on each of C chains of
    m states; [c, k - 1] targets bitmask k on chains[c]. Equal, bit for bit, to
    ``subset_hitting_times`` of each chain."""
    m = chains[0].m
    _check_enumerable(m, "the subset enumeration")
    return _hitting_times(np.stack([P.rows for P in chains]), _outside(np.arange(1, 1 << m), m))[0]


def _outside(masks: np.ndarray, m: int) -> np.ndarray:
    """Row k is True at the states outside target bitmask masks[k]."""
    return ((masks[:, None] >> np.arange(m)) & 1) == 0


def _hitting_times(rows: np.ndarray, outside: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solve the first-step system of every target on every chain of a stack; ``rows`` is a
    (C, m, m) stack of transition rows, and row k of ``outside`` is B_k^c.

    Returns h, a (C, k, m) array that is 0 on each target, and each system's
    residual max |h - (1 + Q h)| on B_k^c, a (C, k) array. Targets are grouped
    by size; each size's systems on all C chains are solved in stacks of at
    most SOLVE_BATCH, one ``np.linalg.solve`` per stack. Each system is solved
    alone within its stack, so h does not depend on the stacking. Raises
    SingularSystemError, naming the target, when a system is singular or its
    residual exceeds SYSTEM_RESIDUAL_TOL.
    """
    chains = rows.shape[0]
    h = np.zeros((chains, *outside.shape))
    residual = np.zeros((chains, outside.shape[0]))
    sizes = outside.sum(axis=1)
    for n in np.unique(sizes[sizes > 0]).tolist():
        group = np.flatnonzero(sizes == n)
        rest = np.nonzero(outside[group])[1].reshape(group.size, n)
        diagonal = np.arange(n)
        for start in range(0, chains * group.size, SOLVE_BATCH):
            # system s is target group[s % size] on chain s // size
            chain, k = np.divmod(np.arange(start, min(start + SOLVE_BATCH, chains * group.size)),
                                 group.size)
            target, r = group[k], rest[k]
            Q = rows[chain[:, None, None], r[:, :, None], r[:, None, :]]
            # I - Q is built next to Q, not from a temporary np.eye: the hole a
            # freed eye leaves is too small for the solver's copy of A, which
            # would then grow the heap (+30 MB peak RSS at m = 2000)
            A = np.zeros_like(Q)
            A[:, diagonal, diagonal] = 1.0
            A -= Q
            try:
                x = np.linalg.solve(A, np.ones((k.size, n, 1)))
            except np.linalg.LinAlgError as e:
                which = (f"target {_target(outside[target[0]])}" if k.size == 1
                         else f"one of {k.size} targets of {outside.shape[1] - n} states")
                raise SingularSystemError(f"hitting system singular for {which}") from e
            residual[chain, target] = np.abs(x - 1.0 - Q @ x).max(axis=(1, 2))
            h[chain[:, None], target[:, None], r] = x[:, :, 0]
    bad = np.argwhere(~(residual <= SYSTEM_RESIDUAL_TOL))  # NaN fails too
    if bad.size:
        chain, k = bad[0].tolist()
        raise SingularSystemError(
            f"hitting system residual {residual[chain, k]!r} exceeds tolerance "
            f"for target {_target(outside[k])}")
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


def subset_members(m: int) -> tuple[list[tuple[int, ...]], np.ndarray]:
    """Every non-empty subset of m states in bitmask order: its member tuples, and a
    (2^m - 1, m) table whose row k - 1 is True at the members of bitmask k."""
    masks = np.arange(1, 1 << m)
    return [_mask_members(mask) for mask in masks.tolist()], ~_outside(masks, m)


# numpy sums fewer terms than this left to right, as a running sum does, and
# longer arrays pairwise
_SEQUENTIAL_SUM_MAX = 7


def member_masses(pis, sets, inside: np.ndarray) -> np.ndarray:
    """(C, k) stationary masses of the sets: [c, k] is ``pis[c].mass(sets[k])`` bit for bit,
    row k of ``inside`` marking the members of sets[k].

    A set of up to _SEQUENTIAL_SUM_MAX members is read off a running sum of
    its masses in ascending state order, the order ``mass`` adds them in;
    larger sets, which numpy sums pairwise, call ``mass`` itself.
    """
    size = inside.sum(axis=1)
    # each row's members first, in ascending order
    order = np.argsort(~inside, axis=1, kind="stable")
    running = np.cumsum(np.stack([pi.pi for pi in pis])[:, order], axis=2)
    masses = running[:, np.arange(size.size), size - 1]
    for k in np.flatnonzero(size > _SEQUENTIAL_SUM_MAX).tolist():
        masses[:, k] = [pi.mass(sets[k]) for pi in pis]
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
    values = _hitting_times(P.rows[None], _outside(masks, P.m))[0][0].max(axis=1)
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


def check_lemma1(P: TransitionMatrix, pi: StationaryDistribution, A: StateSet, B: StateSet) -> ReportBlock:
    """Check Lemma 1 for one pair of sets, as a one-row block; see ``lemma1_stack_reports``."""
    _check_members(A, P.m, "set A")
    _check_members(B, P.m, "set B")
    sets = [A.members, B.members]
    inside = np.zeros((2, P.m), dtype=bool)
    for k, members in enumerate(sets):
        inside[k, list(members)] = True
    h = np.stack([hitting_table(P, S).h for S in (A, B)])
    return lemma1_stack_reports(np.array([[pi.mass(members) for members in sets]]), sets, inside,
                                h[None], np.zeros(1, dtype=np.intp), np.array([[0, 1]]), "")


def lemma1_stack_reports(masses: np.ndarray, sets, inside: np.ndarray, h: np.ndarray,
                         chain: np.ndarray, pairs: np.ndarray, chain_id) -> ReportBlock:
    """Lemma 1's rows on a stack of chains: row i checks pi(A) <= T+(A,B) / (T+(A,B) + T-(B,A))
    for A = sets[a], B = sets[b] on chain c, where (a, b) = pairs[i] and c = chain[i].

    masses[c, k] is the stationary mass of sets[k] on chain c, row k of
    ``inside`` marks its members, and h[c, k] holds its hitting times;
    ``chain_id`` labels the rows as in ``ReportBlock.of_check``. Overlapping
    A and B make T-(B,A) = 0 and the inequality trivial; such checks are
    reported with vacuous=true rather than rejected. The product form
    pi(A) * T-(B,A) <= T+(A,B) is checked alongside and recorded in the
    params as ``product_lhs`` and ``product_holds``; its right side is
    ``t_plus``.
    """
    a, b = pairs.T
    tp = np.where(inside[a], h[chain, b], -np.inf).max(axis=1)
    tm = np.where(inside[b], h[chain, a], np.inf).min(axis=1)
    lhs = masses[chain, a]
    denom = tp + tm
    rhs = np.divide(tp, denom, out=np.ones_like(tp), where=denom > 0)
    product_holds = lhs * tm <= tp + INEQUALITY_TOL
    return ReportBlock.of_check(
        "lemma1", chain_id, rhs, lhs, (lhs <= rhs + INEQUALITY_TOL) & product_holds,
        (inside[a] & inside[b]).any(axis=1),
        {"A": Labels(a, sets), "B": Labels(b, sets), "t_plus": tp, "t_minus": tm,
         "product_lhs": lhs * tm, "product_holds": product_holds})


def check_lemma2(P: TransitionMatrix, pi: StationaryDistribution, A: StateSet) -> ReportBlock:
    """Check Lemma 2 for one set, as a one-row block; needs exact T(0.5), so m <= 20. See
    ``lemma2_stack_reports``."""
    _check_members(A, P.m, "set A")
    t_half = t_large(P, pi, 0.5).value
    return lemma2_stack_reports(np.array([[pi.mass(A.members)]]), [A.members],
                                hitting_table(P, A).h[None, None], np.array([t_half]), "")


def lemma2_stack_reports(masses: np.ndarray, sets, h: np.ndarray, t_half: np.ndarray,
                         chain_id) -> ReportBlock:
    """Lemma 2's rows on a stack of C chains, chain by chain: T(A) <= 2 T(0.5) / pi(A) for
    each A = sets[k] on chain c, whose mass is masses[c, k], whose hitting times are
    h[c, k] and whose T(0.5) is t_half[c]; ``chain_id`` labels the rows as in
    ``ReportBlock.of_check``.

    Also records the per-instance smallest constant kappa with
    T(A) <= kappa * T(0.5) / pi(A), without asserting any improved bound.
    """
    t_a = h.max(axis=2).ravel()
    masses = masses.ravel()
    t_half = np.repeat(t_half, len(sets))
    bound = 2.0 * t_half / masses
    tight = np.divide(t_a * masses, t_half, out=np.zeros_like(t_a), where=t_half > 0)
    return ReportBlock.of_check(
        "lemma2", chain_id, bound, t_a, t_a <= bound + INEQUALITY_TOL, t_half == 0.0,
        {"A": Labels(np.tile(np.arange(len(sets)), h.shape[0]), sets),
         "t_half": t_half, "mass": masses, "tight_constant": tight})
