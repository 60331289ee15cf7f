"""Reference values the benchmark checks the library against.

Nothing here calls mml. The oracle closed forms use exact rational
arithmetic on the chain parameters; the ``T(eps)`` reference and the
minimal-set count use plain numpy on the transition matrix.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

# Same qualification rule as the library: a set qualifies when its mass is
# at least eps - MASS_TOL.
MASS_TOL = 1e-12


def two_state(p: float, q: float):
    """pi and h to target {1} of [[1-p, p], [q, 1-q]]: h(0) = 1/p."""
    P, Q = Fraction(p), Fraction(q)
    return [Q / (P + Q), P / (P + Q)], [1 / P, Fraction(0)]


def lazy_cycle(m: int, hold: float):
    """pi and h to target {0} of the lazy cycle: h(x) = x (m - x) / (1 - hold)."""
    rate = 1 - Fraction(hold)
    return [Fraction(1, m)] * m, [Fraction(x * (m - x)) / rate for x in range(m)]


def birth_death(m: int, p: float, q: float):
    """pi and h to target {0} of the birth-death chain with up p and down q.

    pi(k) is proportional to r^k with r = p/q. Stepping down from j takes
    pi([j, m)) / (q pi(j)) steps in expectation, and h(k) sums those steps
    for j = 1..k.
    """
    P, Q = Fraction(p), Fraction(q)
    r = P / Q
    weights = [r**k for k in range(m)]
    total = sum(weights)
    down = [sum(r ** (i - j) for i in range(j, m)) / Q for j in range(m)]
    h = [sum(down[1:k + 1], Fraction(0)) for k in range(m)]
    return [w / total for w in weights], h


def max_rel_err(computed, exact) -> float:
    """Largest entrywise error: relative where the exact value is non-zero,
    absolute where it is 0."""
    worst = 0.0
    for c, e in zip(computed, exact):
        err = abs(Fraction(float(c)) - e)
        worst = max(worst, float(err / abs(e) if e else err))
    return worst


def subset_masses(pi_vec) -> np.ndarray:
    """Mass of every subset of states, indexed by bitmask (bit j = state j)."""
    masses = np.zeros(1)
    for p in pi_vec:
        masses = np.concatenate([masses, masses + p])
    return masses


def minimal_sets(pi_vec, epsilon: float) -> np.ndarray:
    """Bitmasks of the qualifying sets none of whose proper subsets qualify.

    T(B) can only fall when B grows, so T(eps) is attained on these sets.
    """
    masses = subset_masses(pi_vec)
    qualifies = masses >= epsilon - MASS_TOL
    qualifies[0] = False
    masks = np.arange(masses.size)
    minimal = qualifies.copy()
    for j in range(len(pi_vec)):
        member = (masks >> j) & 1 == 1
        minimal &= ~(member & qualifies[masks ^ (1 << j)])
    return np.flatnonzero(minimal)


def t_large(rows: np.ndarray, pi_vec, epsilon: float) -> float:
    """T(eps) as the largest max_x h_B(x) over the minimal qualifying sets B."""
    m = rows.shape[0]
    best = 0.0
    for mask in minimal_sets(pi_vec, epsilon):
        rest = [j for j in range(m) if not (int(mask) >> j) & 1]
        if rest:
            h = np.linalg.solve(np.eye(len(rest)) - rows[np.ix_(rest, rest)], np.ones(len(rest)))
            best = max(best, float(h.max()))
    return best


def hitting_residual(rows: np.ndarray, members, h: np.ndarray) -> float:
    """Largest first-step residual |h(x) - 1 - sum_y P(x, y) h(y)| off the target."""
    rest = np.setdiff1d(np.arange(rows.shape[0]), members)
    return float(np.max(np.abs(h[rest] - 1.0 - rows[rest] @ h))) if rest.size else 0.0
