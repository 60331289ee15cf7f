"""Independent oracles used by the tests.

These deliberately avoid the library's solver paths: hitting times come
from truncated survival sums (iterating the sub-stochastic matrix) or one
plain dense solve per target, the subset maximizer from brute-force
enumeration, survival and visited-set laws from a sum over every
trajectory, and reference constants from high-precision arithmetic.
"""

from __future__ import annotations

import itertools

import mpmath
import numpy as np

MAX_ORACLE_ITERS = 200_000


def survival_sum_table(rows: np.ndarray, members) -> np.ndarray:
    """h(x) = sum_{t>=0} Pr_x[still outside B after t transitions]."""
    m = rows.shape[0]
    mask = np.zeros(m, dtype=bool)
    mask[list(members)] = True
    rest = np.flatnonzero(~mask)
    h = np.zeros(m)
    if rest.size == 0:
        return h
    Q = rows[np.ix_(rest, rest)]
    w = np.ones(rest.size)
    total = np.zeros(rest.size)
    for _ in range(MAX_ORACLE_ITERS):
        total += w
        w = Q @ w
        if w.max() < 1e-12:
            break
    else:
        raise AssertionError("survival-sum oracle did not converge")
    h[rest] = total
    return h


def survival_sum_expected(rows: np.ndarray, members, start: np.ndarray) -> float:
    """E N_B for X_1 ~ start: 1 + sum_{t>=1} Pr[X_1..X_t all outside B]."""
    m = rows.shape[0]
    mask = np.zeros(m, dtype=bool)
    mask[list(members)] = True
    rest = np.flatnonzero(~mask)
    if rest.size == 0:
        return 1.0
    Q = rows[np.ix_(rest, rest)]
    v = np.asarray(start, dtype=float)[rest]
    total = 1.0
    for _ in range(MAX_ORACLE_ITERS):
        s = v.sum()
        if s < 1e-14:
            return total
        total += s
        v = v @ Q
    raise AssertionError("survival-sum oracle did not converge")


def direct_solve_table(rows: np.ndarray, members) -> np.ndarray:
    """h from one dense solve of the first-step system restricted to B^c."""
    target = set(members)
    rest = [x for x in range(rows.shape[0]) if x not in target]
    h = np.zeros(rows.shape[0])
    if rest:
        h[rest] = np.linalg.solve(np.eye(len(rest)) - rows[np.ix_(rest, rest)], np.ones(len(rest)))
    return h


def brute_force_t_large(rows: np.ndarray, pi_vec: np.ndarray, epsilon: float,
                        table=survival_sum_table):
    """Enumerate every non-empty subset with itertools; no bit tricks shared
    with the implementation. ``table(rows, members)`` gives h for one target."""
    m = rows.shape[0]
    best = None
    for k in range(1, m + 1):
        for combo in itertools.combinations(range(m), k):
            if pi_vec[list(combo)].sum() < epsilon - 1e-12:
                continue
            val = table(rows, combo).max()
            if best is None or val > best[0] + 1e-9:
                best = (val, combo)
    return best


def trajectory_visit_law(rows: np.ndarray, start, n: int) -> dict[frozenset, float]:
    """Pr[{X_1, ..., X_n} = S] for every reachable S, summed over all m^n paths."""
    m = rows.shape[0]
    law: dict[frozenset, float] = {}
    for path in itertools.product(range(m), repeat=n):
        p = start[path[0]]
        for x, y in zip(path, path[1:]):
            p *= rows[x, y]
        visited = frozenset(path)
        law[visited] = law.get(visited, 0.0) + p
    return law


def trajectory_survival(rows: np.ndarray, start, members, n: int) -> float:
    """Pr[no state of ``members`` among X_1, ..., X_n], summed over all m^n paths."""
    target = set(members)
    return sum(p for visited, p in trajectory_visit_law(rows, start, n).items()
               if not visited & target)


def kl_highprec(p: float, q: float) -> float:
    with mpmath.workdps(60):
        p_, q_ = mpmath.mpf(p), mpmath.mpf(q)
        d = p_ * mpmath.log(p_ / q_) + (1 - p_) * mpmath.log((1 - p_) / (1 - q_))
        return float(d)


def random_stochastic(rng, m: int) -> np.ndarray:
    return rng.dirichlet(np.full(m, 1.0), size=m)
