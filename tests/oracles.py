"""Independent oracles used by the tests.

These deliberately avoid the library's solver paths: hitting times come
from truncated survival sums (iterating the sub-stochastic matrix) or one
plain dense solve per target, the subset maximizer from brute-force
enumeration, survival and visited-set laws from a sum over every
trajectory, and reference constants from high-precision arithmetic. The
samplers' reference is the O(m) inverse-CDF count on the same streams.
The report renderer's reference formats one report at a time, cell by
cell, and the summary's reference counts one report at a time.
"""

from __future__ import annotations

import itertools
import re

import mpmath
import numpy as np

from mml.simulate import BLOCK_TRIALS, derive_stream

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


def pick_by_count(cum: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Inverse-CDF step by brute force: per draw, the count of entries cum[k] <= u."""
    return np.sum(cum <= u[:, None], axis=1)


def _cumulative_by_count(chain, pi):
    cum = np.cumsum(chain.matrix.rows, axis=1)
    cum[:, -1] = 1.0
    cum_start = np.cumsum(np.asarray(chain.resolved_start(pi), dtype=float))
    cum_start[-1] = 1.0
    return cum, cum_start


def trajectory_by_count(chain, n: int, master_seed: int, pi=None) -> np.ndarray:
    """X_1, ..., X_n from one draw of n uniforms, each step counting cum entries <= u."""
    cum, cum_start = _cumulative_by_count(chain, pi)
    rows, row = cum.tolist(), cum_start.tolist()
    path = []
    for u in derive_stream(master_seed, 0).random(n).tolist():
        x = sum(c <= u for c in row)
        path.append(x)
        row = rows[x]
    return np.array(path, dtype=np.int64)


def _block_sizes(trials: int):
    return [min(BLOCK_TRIALS, trials - lo) for lo in range(0, trials, BLOCK_TRIALS)]


def first_visit_table_by_count(chain, n: int, trials: int, master_seed: int, pi=None) -> np.ndarray:
    """The first-visit table from the O(m) pick and ``np.minimum.at``, one block at a time."""
    m = chain.matrix.m
    cum, cum_start = _cumulative_by_count(chain, pi)
    blocks = []
    for block, size in enumerate(_block_sizes(trials)):
        us = derive_stream(master_seed, block).random((size, n))
        fv = np.full((size, m), n + 1, dtype=np.int64)
        rows_idx = np.arange(size)
        states = pick_by_count(cum_start, us[:, 0])
        fv[rows_idx, states] = 1
        for i in range(1, n):
            states = pick_by_count(cum[states], us[:, i])
            np.minimum.at(fv, (rows_idx, states), i + 1)
        blocks.append(fv)
    return np.vstack(blocks)


def hitting_time_samples_by_count(chain, members, trials: int, master_seed: int, cap: int,
                                  pi=None) -> np.ndarray:
    """N_B per trial from the O(m) pick, drawing only for the trials still outside B."""
    cum, cum_start = _cumulative_by_count(chain, pi)
    in_B = np.zeros(chain.matrix.m, dtype=bool)
    in_B[list(members)] = True
    blocks = []
    for block, size in enumerate(_block_sizes(trials)):
        rng = derive_stream(master_seed, block)
        states = pick_by_count(cum_start, rng.random(size))
        N = np.where(in_B[states], 1, cap + 1)
        for t in range(2, cap + 1):
            alive = np.flatnonzero(N > cap)
            if not alive.size:
                break
            states[alive] = pick_by_count(cum[states[alive]], rng.random(alive.size))
            N[alive[in_B[states[alive]]]] = t
        blocks.append(N)
    return np.concatenate(blocks)


# --- reports, one row at a time ----------------------------------------------------

_ROW_COLUMNS = "name,chain_id,params,bound,value,ci,margin,holds,vacuous"


def _row_fmt(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(float(v))
    if isinstance(v, (list, tuple)):
        return "|".join(_row_fmt(x) for x in v)
    return str(v)


def _row_quote(text: str) -> str:
    """A cell as csv.writer's default dialect writes it."""
    if re.search('[,"\r\n]', text):
        return '"' + text.replace('"', '""') + '"'
    return text


def report_row(rep) -> str:
    """One report's CSV row: ``k=v;...`` params in sorted key order, only ``chain_id``
    and ``params`` quoted."""
    params = ";".join(f"{k}={_row_fmt(v)}" for k, v in sorted(rep.metadata.items())
                      if k != "chain_id")
    cells = (rep.name, _row_quote(str(rep.metadata.get("chain_id", ""))), _row_quote(params),
             _row_fmt(rep.bound_value), _row_fmt(rep.value), _row_fmt(rep.ci),
             _row_fmt(rep.margin), _row_fmt(rep.holds), _row_fmt(rep.vacuous))
    return ",".join(cells) + "\n"


def render_rows_csv(reports, header_meta=None) -> str:
    """Report CSV text built row by row."""
    head = "".join(f"# {k}={_row_fmt(v)}\n" for k, v in (header_meta or {}).items())
    return head + _ROW_COLUMNS + "\n" + "".join(map(report_row, reports))


def summary_by_rows(suite: str, seed: int, reports) -> tuple[int, int, int, list[dict]]:
    """(checks, passed, vacuous, violations) counted one report at a time."""
    checks = passed = vacuous = 0
    violations = []
    for r in reports:
        checks += 1
        vacuous += bool(r.vacuous)
        passed += bool(r.holds or r.vacuous)
        if not r.holds and not r.vacuous:
            violations.append({"suite": suite, "seed": seed, "name": r.name,
                               "bound": r.bound_value, "value": r.value, "ci": r.ci,
                               **r.metadata})
    return checks, passed, vacuous, violations
