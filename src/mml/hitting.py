"""Exact expected hitting times of state sets, and the derived quantities.

For a target set B the vector h solves the first-step system

    h(x) = 0                          x in B
    h(x) = 1 + sum_y P(x,y) h(y)      x not in B

``solve`` solves it. T(eps) passes ``solve.hitting_times`` a stack of one chain;
the array of every subset's hitting times (``subset_hitting_times_stack``,
m <= 20) passes the whole stack, so the lemma sweeps solve all their chains of
one size together. The same subsets' membership rows and stationary masses come
as arrays too (``subset_members``; ``member_masses``, each set summed by numpy's
own sum, as in ``StationaryDistribution.mass``); ``row_members`` decodes rows.

The worst-case-over-starts value T(B) = max_x h(x), and T(eps) maximizes T(B) over all
sets of stationary mass at least eps (m <= 20). Growing the target can only shorten the
walk to it (B subset of B' gives h_B' <= h_B pointwise), so the maximum is attained on a
minimal qualifying set, one that drops below eps when any member is removed; these are
found on a bitmap of all 2^m sets, eight to a byte. Not all of them need a solve: with
s_t(x) = Pr_x[tau_B > t], h = sum_t s_t; a walk outside B after k steps needs at most
T(B) more in expectation, so for every k

    L_k = max_x sum_{t<k} s_t(x) <= T(B) <= L_k / (1 - max_x s_k(x)),

the upper side infinite while max_x s_k(x) > 1 - BOUND_SLACK (at k = 1, one
over min_{z not in B} P(z, B)). One product steps s_(t+1) = 1_(B^c) P s_t for
a chunk of sets; on lazy-cycle(16) ``t_large`` solves 135 of the 12,870.

The survival law of the walk is exact too. Pr[N_B > t] (no state of B among X_1..X_t) is
v Q^(t-1) 1, Q being P with B's columns zeroed. ``survival_probabilities`` and
``simulate.hitting_time_samples`` step one ``avoiding_walk``: v <- v P, then B's entries
zeroed, one (1, m) x (m, m) product per set a step, so a stack's row, the set's one-set
call and the sampler's tail agree bit for bit, and no (sets, m, m) stack is built. The law of
the visited set V_n = {X_1..X_n} follows from a DP over (visited set,
current state), m 2^m numbers per step (m <= 20). Both only add
non-negative terms, so they keep their relative accuracy down to the
smallest probabilities.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chain import StationaryDistribution, TransitionMatrix
from .errors import PreconditionError, ValidationError
from .solve import by_size, hitting_times, hitting_vector

ENUMERATION_MAX_STATES = 20
MASS_FILTER_TOL = 1e-12
MEMBER_CHUNK = 10
# Relative widening of a k-step bound before it rules a set out of T(eps): far above rounding.
BOUND_SLACK = 1e-6
# T(eps) solves BRACKET_HEAD minimal sets before its bracket rules any out, and solves the
# rest outright once BRACKET_FEW or fewer remain: a step of 128 sets costs about 10 solves.
BRACKET_HEAD = 16
BRACKET_FEW = 128
# Minimal sets stepped together: (20, 16384) doubles, 2.5 MiB, per array at m = 20.
BRACKET_CHUNK = 16384


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
        raise PreconditionError(f"{what} is empty")
    if S.members[-1] >= m:
        raise ValidationError(f"{what} index {S.members[-1]} out of range for m={m}")


def _check_enumerable(m: int, what: str):
    if m > ENUMERATION_MAX_STATES:
        raise PreconditionError(
            f"m={m} exceeds the enumeration cap {ENUMERATION_MAX_STATES} of {what}")


def hitting_table(P: TransitionMatrix, B: StateSet) -> HittingTimeTable:
    """Exact expected hitting times of set B, by ``solve.hitting_vector``."""
    _check_members(B, P.m, "target set")
    h, residual = hitting_vector(P.rows, P.structure, ~np.isin(np.arange(P.m), B.members))
    return HittingTimeTable(target=B, h=h, t_plus_all=float(h.max()), residual=residual)


def subset_hitting_times_stack(chains) -> np.ndarray:
    """(C, 2^m - 1, m) hitting times of every non-empty target set on each of C chains of
    m states; [c, k - 1] targets bitmask k on chains[c], bit for bit as on a stack of
    that chain alone. On a reducible chain some state cannot reach some state y, and the
    first such y raises ``SingularSystemError`` as its ``hitting_table`` does."""
    m = chains[0].m
    _check_enumerable(m, "the subset enumeration")
    for P in (P for P in chains if not P.structure.irreducible):
        for y in range(m):
            hitting_table(P, StateSet((y,)))
    return hitting_times(np.stack([P.rows for P in chains]), _outside(np.arange(1, 1 << m), m))[0]


def _outside(masks: np.ndarray, m: int) -> np.ndarray:
    """Row k is True at the states outside target bitmask masks[k]."""
    return ((masks[:, None] >> np.arange(m)) & 1) == 0


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
    masses = np.zeros(1 << len(pi_vec))
    for j, p in enumerate(pi_vec):  # the sets holding j follow, as bit j does
        np.add(masses[:1 << j], p, out=masses[1 << j:2 << j])
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
    for group, members in by_size(inside):
        masses[:, group] = np.take(weights, members, axis=1).sum(axis=-1)
    return masses


def _lex_smallest(masks: np.ndarray, m: int) -> tuple[int, ...]:
    """Member tuple of the lexicographically smallest of the sets with bitmasks ``masks``."""
    return min(tuple(j for j in range(m) if mask >> j & 1) for mask in masks.tolist())


def _head(x: np.ndarray, k: int) -> np.ndarray:
    """``np.argsort(-x, kind="stable")[:k]``, sorting only the entries at or above the least
    of k blocks' maxima: k entries reach it, so it is at most the k-th largest."""
    cut = x[:x.size // k * k].reshape(k, -1).max(axis=1).min() if x.size >= k else -np.inf
    top = np.flatnonzero(x >= cut)
    return top[np.argsort(-x[top], kind="stable")[:k]]


def _minimal_qualifying_sets(pi_vec: np.ndarray, epsilon: float) -> np.ndarray:
    """Bitmasks of the minimal sets of mass >= eps.

    A non-empty set qualifies when its mass is at least eps - MASS_FILTER_TOL; it is minimal
    when removing any one member leaves a set that does not. Both are bitmaps packed eight
    sets to a byte, bit S for set S; below 8 sets, the byte's spare bits stay 0.
    """
    qualifies = subset_masses(pi_vec) >= epsilon - MASS_FILTER_TOL
    qualifies[0] = False
    qualifies = np.packbits(qualifies, bitorder="little")
    minimal = qualifies.copy()
    for j in range(len(pi_vec)):
        if j < 3:  # in a byte, the bits 0xAA, 0xCC, 0xF0 hold j, 2^j above the sets without
            minimal &= ~((qualifies << (1 << j)) & (0xAA, 0xCC, 0xF0)[j])
            continue
        # byte index = (high bits, bit j, low bits): [:, 1] holds j, [:, 0] the same sets without
        shape = (-1, 2, 1 << (j - 3))
        minimal.reshape(shape)[:, 1] &= ~qualifies.reshape(shape)[:, 0]
    return np.flatnonzero(np.unpackbits(minimal, bitorder="little"))


def _bracket_step(rows: np.ndarray, outside: np.ndarray, s: np.ndarray, total: np.ndarray):
    """One step of the module docstring's bracket, column j of each (m, sets) array for set
    B_j (``outside`` 1 off B_j): adds s_(k-1) to ``total``, sum_(t<k-1) s_t, in place, and
    returns s_k, L_k and the upper side."""
    total += s
    s = rows @ s
    s *= outside
    lower, gap = total.max(axis=0), 1.0 - s.max(axis=0)
    with np.errstate(divide="ignore"):
        return s, lower, np.where(gap >= BOUND_SLACK, lower / gap, np.inf)


def t_large(P: TransitionMatrix, pi: StationaryDistribution, epsilon: float) -> LargeSetTime:
    """Exact T(eps): max of T(B) over all non-empty B with pi(B) >= eps.

    Only the minimal qualifying sets count; capped at m = 20. Past BRACKET_FEW of them they
    are stepped in chunks of BRACKET_CHUNK: step 2 of the first chunk solves its
    BRACKET_HEAD sets of largest L_2 (a block-maxima cut, then a stable sort of the entries
    at or above it; ties to the first), each later step drops every set whose upper side,
    widened by BOUND_SLACK, is below the largest T(B) solved, and a chunk's sets left after
    2m steps, or at BRACKET_FEW or fewer, are solved. The value is that of solving every
    minimal set, bit for bit; the maximizing sets are decoded from their bitmasks, and ties
    go to the lexicographically smallest member list.
    """
    if not (0 < epsilon <= 1):
        raise ValidationError(f"epsilon must lie in (0, 1], got {epsilon!r}")
    _check_enumerable(P.m, "T(eps)")
    masks = _minimal_qualifying_sets(pi.pi, epsilon)
    solved, values = [], []

    def solve(sets):
        solved.append(sets)
        values.append(hitting_times(P.rows[None], _outside(sets, P.m))[0][0].max(axis=1))
        return max(v.max(initial=-np.inf) for v in values)

    best = -np.inf
    for lo in range(0, masks.size, BRACKET_CHUNK):
        sets = masks[lo:lo + BRACKET_CHUNK]
        s = outside = (((sets >> np.arange(P.m)[:, None]) & 1) == 0).astype(float)
        total = np.zeros_like(s)
        for k in range(1, 2 * P.m + 1):
            if sets.size <= BRACKET_FEW:
                break
            s, lower, upper = _bracket_step(P.rows, outside, s, total)
            if k == 2 and lo == 0:
                head = _head(lower, BRACKET_HEAD)
                best = solve(sets[head])
                upper[head] = -np.inf  # solved
            keep = upper * (1.0 + BOUND_SLACK) >= best
            if keep.all():
                continue
            sets, outside, s, total = sets[keep], outside[:, keep], s[:, keep], total[:, keep]
        best = solve(sets)
    values = np.concatenate(values)  # best is their max
    witness = StateSet(_lex_smallest(np.concatenate(solved)[values == best], P.m))
    return LargeSetTime(epsilon=float(epsilon), value=float(best), argmax_set=witness)


def avoiding_walk(P: TransitionMatrix, start, sets) -> tuple[np.ndarray, np.ndarray]:
    """The walk that avoids each set B of ``sets`` (member tuples): keep, the
    (len(sets), 1, m) mask, 0 on B and 1 off it, and v, the start law times keep. Each
    step v <- v @ P, then B's entries zeroed (v *= keep), keeps v zero on B, so after
    t - 1 steps v.sum() is Pr[N_B > t], X_1 ~ start."""
    keep = np.ones((len(sets), 1, P.m))
    for row, members in zip(keep[:, 0], sets):
        _check_members(B := StateSet(tuple(members)), P.m, "target set")
        row[B.indices()] = 0.0
    return keep, np.asarray(start, dtype=float) * keep


def survival_probabilities(P: TransitionMatrix, start, sets, horizons) -> np.ndarray:
    """Exact Pr[N_B > t] for each set B of ``sets`` (member tuples) and each horizon
    t >= 1, with X_1 ~ start: a (len(sets), len(horizons)) array.

    The sets' ``avoiding_walk`` rows step through the sorted horizons together, one (1, m) x
    (m, m) product per set a step (one (sets, m) x (m, m) product would round a row apart
    from its one-set call), and are summed only at the horizons. Any m, in O(sets m) memory.
    """
    keep, v = avoiding_walk(P, start, sets)
    horizons = _check_horizons(horizons)
    out = np.empty((len(sets), horizons.size))
    t = 1
    for i in np.argsort(horizons, kind="stable"):
        for _ in range(t, horizons[i]):
            v = v @ P.rows
            v *= keep
        t = horizons[i]
        out[:, i] = v.sum(axis=2)[:, 0]
    return out


def unseen_set_law(P: TransitionMatrix, start, horizons) -> np.ndarray:
    """Exact law of the visited set V_n = {X_1, ..., X_n}, X_1 ~ start.

    Row i is indexed by bitmask S (bit j = state j) and holds Pr[V_n = S] for n =
    horizons[i]; the unseen set is the complement of S, so its mass is
    ``subset_masses(pi)[::-1][S]``. The DP carries f[x, S] = Pr[V_k = S, X_k = x], never
    written and so 0 for x not in S: m 2^m doubles twice over (about 340 MB at m = 20).
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
                np.add(src[:, 0], src[:, 1], out=dst[:, 1])
        k = horizons[i]
        out[i] = f.sum(axis=0)
    return out


def _check_horizons(horizons) -> np.ndarray:
    horizons = np.asarray(horizons, dtype=np.int64).reshape(-1)
    if horizons.size and horizons.min() < 1:
        raise ValidationError(f"horizons must be >= 1, got {horizons.min()}")
    return horizons
