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
lemma sweeps solve all their chains of one size together. The same
subsets' membership rows and stationary masses come as arrays too
(``subset_members``; ``member_masses``, each set summed by numpy's own
sum, as in ``StationaryDistribution.mass``); ``row_members`` decodes rows.

The worst-case-over-starts value T(B) = max_x h(x), and T(eps) maximizes
T(B) over all sets of stationary mass at least eps (m <= 20). Growing the
target can only shorten the walk to it (B subset of B' gives h_B' <= h_B
pointwise), so the maximum is attained on a minimal qualifying set, one
that drops below eps when any member is removed. Only those sets are
solved: typically under a second at m = 20.

The survival law of the walk is exact too. Pr[N_B > t] (no state of B
among X_1..X_t) is start restricted to B^c times Q^(t-1) times 1, with
Q = P restricted to B^c. One engine, ``survival_probabilities``, answers a
stack of sets on a horizon grid: like ``_hitting_times`` it groups the
sets by size, gathers each size's Q's as one (g, k, k) stack and steps
the g row vectors through the sorted horizons with one batched product a
step, so a row equals the set's own one-set call bit for bit. The law of
the visited set V_n = {X_1..X_n} follows from a DP over (visited set,
current state), m 2^m numbers per step (m <= 20). Both only add
non-negative terms, so they keep their relative accuracy down to the
smallest probabilities.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chain import StationaryDistribution, TransitionMatrix
from .errors import BadParamsError, EmptySetError, SingularSystemError, TooManyStatesError, ValidationError

SYSTEM_RESIDUAL_TOL = 1e-9
ENUMERATION_MAX_STATES = 20
MASS_FILTER_TOL = 1e-12
# Systems per stacked solve: at most 2048 x 19 x 19 doubles (~6 MB) at m = 20.
SOLVE_BATCH = 2048
MEMBER_CHUNK = 10


@dataclass(frozen=True)
class StateSet:
    """Sorted set of state indices."""

    members: tuple[int, ...]

    def __post_init__(self):
        norm = tuple(sorted({int(x) for x in self.members}))
        if any(x < 0 for x in norm):
            raise ValidationError(f"negative state index in {self.members!r}")
        object.__setattr__(self, "members", norm)

    def __len__(self):
        return len(self.members)

    def indices(self) -> np.ndarray:
        return np.asarray(self.members, dtype=int)


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
    h, residual = _hitting_times(P.rows[None], ~np.isin(np.arange(P.m), B.members)[None])
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


def _by_size(table: np.ndarray):
    """The rows of a boolean table grouped by their count n >= 1 of True entries, n
    ascending: for each n, the rows' indices and a (rows, n) array of each row's True
    columns, ascending. Rows with no True entry are left out."""
    sizes = table.sum(axis=1)
    for n in np.unique(sizes[sizes > 0]).tolist():
        group = np.flatnonzero(sizes == n)
        yield group, np.nonzero(table[group])[1].reshape(group.size, n)


def _hitting_times(rows: np.ndarray, outside: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solve the first-step system of every target on every chain of a stack; ``rows`` is a
    (C, m, m) stack of transition rows, and row k of ``outside`` is B_k^c.

    Returns h, a (C, k, m) array that is 0 on each target, and each system's
    residual max |h - 1 - Q h| on B_k^c, a (C, k) array; Q h is (P h)[B_k^c], as
    h = 0 on B_k. Targets are grouped by size; each size's systems on all C
    chains are solved in stacks of at most SOLVE_BATCH, one ``np.linalg.solve``
    per stack, each system alone, so h does not depend on the stacking. Raises
    SingularSystemError, naming the target, when a system is singular or its
    residual exceeds SYSTEM_RESIDUAL_TOL.
    """
    chains = rows.shape[0]
    h = np.zeros((chains, *outside.shape))
    residual = np.zeros((chains, outside.shape[0]))
    for group, rest in _by_size(outside):
        n = rest.shape[1]
        for start in range(0, chains * group.size, SOLVE_BATCH):
            # system s is target group[s % size] on chain s // size
            chain, k = np.divmod(np.arange(start, min(start + SOLVE_BATCH, chains * group.size)),
                                 group.size)
            target, r = group[k], rest[k]
            # A^T = (I - Q)^T is built in the gather of Q^T (index arrays swapped), so
            # A is column-major, as the solver copies it
            At = rows[chain[:, None, None], r[:, None, :], r[:, :, None]]
            np.subtract(0.0, At, out=At)
            At.reshape(k.size, -1)[:, ::n + 1] += 1.0
            try:
                x = np.linalg.solve(At.transpose(0, 2, 1), np.ones((k.size, n, 1)))
            except np.linalg.LinAlgError as e:
                which = (f"target {row_members(~outside[target[:1]])[0]}" if k.size == 1
                         else f"one of {k.size} targets of {outside.shape[1] - n} states")
                raise SingularSystemError(f"hitting system singular for {which}") from e
            h[chain[:, None], target[:, None], r] = x[:, :, 0]
    for c in range(chains):
        for lo in range(0, outside.shape[0], SOLVE_BATCH):
            hs, off = h[c, lo:lo + SOLVE_BATCH], outside[lo:lo + SOLVE_BATCH]
            gap = np.where(off, np.abs(hs - 1.0 - hs @ rows[c].T), 0.0)
            residual[c, lo:lo + SOLVE_BATCH] = gap.max(axis=1)
    bad = np.argwhere(~(residual <= SYSTEM_RESIDUAL_TOL))  # NaN fails too
    if bad.size:
        chain, k = bad[0].tolist()
        raise SingularSystemError(
            f"hitting system residual {residual[chain, k]!r} exceeds tolerance "
            f"for target {row_members(~outside[[k]])[0]}")
    return h, residual


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


def subset_members(m: int) -> np.ndarray:
    """(2^m - 1, m) table of every non-empty subset of m states: row k - 1 marks bitmask k."""
    return ~_outside(np.arange(1, 1 << m), m)


def row_members(inside: np.ndarray) -> list[tuple[int, ...]]:
    """The ascending member tuple of each row of a membership table (True at members): the
    bits of each MEMBER_CHUNK columns index a list of every subset of those states, so a
    row of a subset table (m <= 20) costs one lookup per chunk and at most one join."""
    members = None
    for lo in range(0, inside.shape[1], MEMBER_CHUNK):
        block = inside[:, lo:lo + MEMBER_CHUNK]
        subsets = [()]
        for j in range(lo, lo + block.shape[1]):  # the sets holding j follow, as bit j does
            subsets += [s + (j,) for s in subsets]
        picked = list(map(subsets.__getitem__, (block @ (1 << np.arange(block.shape[1]))).tolist()))
        members = picked if members is None else list(map(tuple.__add__, members, picked))
    return members


def member_masses(pis, inside) -> np.ndarray:
    """(C, 2^m - 1) stationary masses of every non-empty subset, row k of ``inside`` marking
    the members of bitmask k + 1 (``subset_members``): [c, k] is ``pis[c].mass`` of those
    members, bit for bit.

    ``mass`` sums a 1-d array of its terms. Here each set size's terms are gathered into
    one C-contiguous (C, sets, n) array, so numpy sums each set's n terms as one
    contiguous row, in the same order as that 1-d array.
    """
    weights = np.stack([pi.pi for pi in pis])
    masses = np.empty((len(pis), inside.shape[0]))
    for group, members in _by_size(inside):
        masses[:, group] = np.take(weights, members, axis=1).sum(axis=-1)
    return masses


def _lex_smallest(masks: np.ndarray, m: int) -> tuple[int, ...]:
    """Member tuple of the lexicographically smallest of the sets with bitmasks ``masks``."""
    return min(row_members(~_outside(masks, m)))


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
    witness = StateSet(_lex_smallest(masks[values == value], P.m))
    return LargeSetTime(epsilon=float(epsilon), value=float(value), argmax_set=witness)


def survival_probabilities(P: TransitionMatrix, start, sets, horizons) -> np.ndarray:
    """Exact Pr[N_B > t] for each set B of ``sets`` (member tuples) and each horizon
    t >= 1, with X_1 ~ start: a (len(sets), len(horizons)) array.

    N_B > t means X_1, ..., X_t all lie outside B, so the probability is start
    restricted to B^c, times Q^(t-1), times 1, where Q is P restricted to B^c.
    The sets are grouped by size; each group's Q's are gathered as one (g, k, k)
    stack, and its (g, 1, k) row vectors step through the sorted horizons
    together. Works for any m.
    """
    outside = np.ones((len(sets), P.m), dtype=bool)
    for row, members in zip(outside, sets):
        B = StateSet(tuple(members))
        _check_members(B, P.m, "target set")
        row[B.indices()] = False
    horizons = _check_horizons(horizons)
    start = np.asarray(start, dtype=float)
    out = np.zeros((len(sets), horizons.size))  # B = every state: N_B = 1
    for group, rest in _by_size(outside):
        Q = P.rows[rest[:, :, None], rest[:, None, :]]
        v = start[rest][:, None, :]
        t = 1
        for i in np.argsort(horizons, kind="stable"):
            for _ in range(t, horizons[i]):
                v = v @ Q
            t = horizons[i]
            out[group, i] = v.sum(axis=2)[:, 0]
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
