"""Independent oracles used by the tests.

These deliberately avoid the library's solver paths: hitting times come
from truncated survival sums (iterating the sub-stochastic matrix) or one
plain dense solve per target, the subset maximizer from brute-force
enumeration, the lemma1 suite's disjoint set pairs from listing them
all, survival and visited-set laws from a sum over every trajectory, and
reference constants and a stiff chain's hitting times from high-precision
arithmetic. The stationary law
and hitting times also come from the plain constructions of P^T - I
(from np.eye) and I - Q (from zeros), which the library's in-place
builds must equal bit for bit. The samplers' reference is the O(m)
inverse-CDF count on the same streams; for hitting times it counts over
the rows of the library's kernel that avoids B, whose entries the tests
check against exact survival laws separately.
The report renderer's reference formats one report at a time, cell by
cell, and the summary's reference counts one report at a time.
T(eps)'s reference solves every minimal qualifying set, one plain dense
solve each, with no bound to rule a set out; chain validation's reference
clamps and searches the whole matrix on every call, one pass per check.
"""

from __future__ import annotations

import itertools
import re

import mpmath
import numpy as np

from mml.chain import ENTRY_CLAMP, ROW_SUM_TOL
from mml.errors import ValidationError
from mml.hitting import _minimal_qualifying_sets
from mml.simulate import BLOCK_TRIALS, _avoiding_kernel, derive_stream

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
    """h from one dense solve of the first-step system restricted to B^c, I - Q built from
    zeros, a unit diagonal and a subtraction of Q = P restricted to B^c."""
    target = set(members)
    rest = [x for x in range(rows.shape[0]) if x not in target]
    Q = rows[np.ix_(rest, rest)]
    A = np.zeros_like(Q)
    A[np.arange(len(rest)), np.arange(len(rest))] = 1.0
    A -= Q
    h = np.zeros(rows.shape[0])
    if rest:
        h[rest] = np.linalg.solve(A, np.ones(len(rest)))
    return h


def exact_hitting_table(rows: np.ndarray, members, dps: int = 60) -> np.ndarray:
    """h rounded from a solve of the first-step system in ``dps`` decimal digits: the
    binary entries of P are exact in mpmath, so only the solve itself rounds."""
    target = set(members)
    rest = [x for x in range(rows.shape[0]) if x not in target]
    h = np.zeros(rows.shape[0])
    with mpmath.workdps(dps):
        A = mpmath.matrix([[float(x == y) - mpmath.mpf(float(rows[x, y])) for y in rest]
                           for x in rest])
        if rest:
            h[rest] = [float(v) for v in mpmath.lu_solve(A, mpmath.ones(len(rest), 1))]
    return h


def stationary_by_eye(rows: np.ndarray) -> np.ndarray:
    """pi from one dense solve of P^T - I, built from np.eye, with the last equation
    replaced by sum(pi) = 1; then clipped at 0 and normalized, as ``stationary`` does."""
    m = rows.shape[0]
    A = rows.T - np.eye(m)
    A[-1, :] = 1.0
    b = np.zeros(m)
    b[-1] = 1.0
    pi = np.clip(np.linalg.solve(A, b), 0.0, None)
    return pi / pi.sum()


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


def unpruned_t_large(rows: np.ndarray, pi_vec: np.ndarray, epsilon: float):
    """(T(eps), witness) from one ``direct_solve_table`` per minimal qualifying set, every
    one of them solved; the witness is the smallest member tuple among the sets whose
    T(B) equals the maximum, bit for bit."""
    sets = [mask_members(int(mask)) for mask in _minimal_qualifying_sets(pi_vec, epsilon)]
    values = [direct_solve_table(rows, members).max() for members in sets]
    value = max(values)
    return value, min(s for s, v in zip(sets, values) if v == value)


def validate_by_passes(raw) -> np.ndarray:
    """The rows ``validate`` accepts, found by a pass over the matrix per check: every
    finiteness test, clamp and sign search runs whatever the entries are."""
    P = np.array(raw, dtype=float)
    if P.ndim != 2 or P.shape[0] != P.shape[1] or P.shape[0] < 1:
        raise ValidationError(f"expected a square matrix, got shape {P.shape}")
    if not np.all(np.isfinite(P)):
        i, j = np.argwhere(~np.isfinite(P))[0]
        raise ValidationError(f"P[{i}][{j}] is not finite")
    P[(P > -ENTRY_CLAMP) & (P < 0.0)] = 0.0
    P[(P > 1.0) & (P < 1.0 + ENTRY_CLAMP)] = 1.0
    if np.any(P < 0):
        i, j = np.argwhere(P < 0)[0]
        raise ValidationError(f"P[{i}][{j}] = {float(P[i, j])!r} is negative")
    sums = P.sum(axis=1)
    bad = np.flatnonzero(np.abs(sums - 1.0) > ROW_SUM_TOL)
    if bad.size:
        i = int(bad[0])
        raise ValidationError(f"row {i} sums to {float(sums[i])!r}, expected 1")
    return P


def mask_members(mask: int) -> tuple[int, ...]:
    """Ascending member tuple of a bitmask, bit j being state j, read off its binary digits."""
    return tuple(j for j, digit in enumerate(reversed(bin(mask)[2:])) if digit == "1")


def disjoint_pairs_by_enumeration(m: int) -> np.ndarray:
    """Index pairs (a, b) of disjoint subsets, index k being bitmask k + 1, ordered by a then
    b: every one of the 3^m - 2^(m+1) + 1, listed."""
    masks = np.arange(1, 1 << m)
    # row by row, so memory stays near the size of the output
    b = [np.flatnonzero((masks & mask) == 0) for mask in masks.tolist()]
    a = np.repeat(np.arange(masks.size), [row.size for row in b])
    return np.column_stack((a, np.concatenate(b)))


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


def walk_by_count(chain, n: int, stream, lanes: int, pi=None) -> np.ndarray:
    """(ceil(n / lanes), lanes) states of ``lanes`` paths from the start law, by the O(m) count.

    At each 16-step boundary c, ``stream`` (a derived-seed integer or a numpy
    Generator) draws one (min(16, steps - c), lanes) array of uniforms; row i
    moves every lane to its step c + i + 1.
    """
    cum, cum_start = _cumulative_by_count(chain, pi)
    rng = derive_stream(stream, 0) if isinstance(stream, int) else stream
    steps = -(-n // lanes)
    walk = np.empty((steps, lanes), dtype=np.int64)
    rows = np.broadcast_to(cum_start, (lanes, cum_start.size))
    for c in range(0, steps, 16):
        for i, u in enumerate(rng.random((min(16, steps - c), lanes)), start=c):
            walk[i] = pick_by_count(rows, u)
            rows = cum[walk[i]]
    return walk


def occupancy_by_count(chain, n: int, stream, lanes: int, pi=None) -> np.ndarray:
    """Visit frequencies of the first n states of ``walk_by_count`` in step-major order."""
    visits = walk_by_count(chain, n, stream, lanes, pi).ravel()[:n]
    return np.bincount(visits, minlength=chain.matrix.m) / n


def _block_sizes(trials: int):
    return [min(BLOCK_TRIALS, trials - lo) for lo in range(0, trials, BLOCK_TRIALS)]


def first_visit_table_by_count(chain, n: int, trials: int, master_seed: int, pi=None) -> np.ndarray:
    """The first-visit table from the O(m) pick and ``np.minimum.at``, one block at a time.

    At each 16-step boundary c, the trials whose rows of the table still hold
    an n + 1 draw one (min(16, n - c), k) array; row i holds their step c + i + 1.
    """
    m = chain.matrix.m
    cum, cum_start = _cumulative_by_count(chain, pi)
    blocks = []
    for block, size in enumerate(_block_sizes(trials)):
        rng = derive_stream(master_seed, block)
        fv = np.full((size, m), n + 1, dtype=np.int64)
        states = np.zeros(size, dtype=np.int64)
        for c in range(0, n, 16):
            drawing = np.flatnonzero((fv > n).any(axis=1))
            if not drawing.size:  # no row can change: a huge n costs nothing
                break
            for i, u in enumerate(rng.random((min(16, n - c), drawing.size))):
                step = c + i + 1
                rows = cum_start if step == 1 else cum[states[drawing]]
                states[drawing] = pick_by_count(rows, u)
                np.minimum.at(fv, (drawing, states[drawing]), step)
        blocks.append(fv)
    return np.vstack(blocks)


def hitting_time_samples_by_count(chain, members, trials: int, master_seed: int, cap: int,
                                  pi=None) -> np.ndarray:
    """N_B per trial by the superstep rule, each pick the O(m) count over a CDF row.

    X_1 is counted off the start law. Then each trial still outside B, and not
    yet past the cap, counts one uniform per superstep of K steps against its
    row of the library's kernel that avoids B: a count j < K is a hit at step
    t + j + 1, any other moves the trial to state (count - K) of B^c.
    """
    _, cum_start = _cumulative_by_count(chain, pi)
    in_B = np.zeros(chain.matrix.m, dtype=bool)
    in_B[list(members)] = True
    cum = np.cumsum(_avoiding_kernel(chain.matrix.rows, in_B), axis=1)
    cum[:, -1] = 1.0
    steps = cum.shape[1] - cum.shape[0]
    row_of = {x: i for i, x in enumerate(np.flatnonzero(~in_B).tolist())}
    blocks = []
    for block, size in enumerate(_block_sizes(trials)):
        rng = derive_stream(master_seed, block)
        starts = pick_by_count(cum_start, rng.random(size))
        N = np.where(in_B[starts], 1, cap + 1)
        rows = np.array([row_of.get(x, -1) for x in starts.tolist()])  # -1: the trial has ended
        for t in range(1, cap, steps):
            alive = np.flatnonzero(rows >= 0)
            if not alive.size:
                break
            count = pick_by_count(cum[rows[alive]], rng.random(alive.size))
            hit = count < steps
            N[alive[hit]] = np.minimum(t + count[hit] + 1, cap + 1)
            rows[alive] = np.where(hit, -1, count - steps)
        blocks.append(N)
    return np.concatenate(blocks)


# --- reports, one row at a time ----------------------------------------------------

_ROW_COLUMNS = "name,chain_id,params,bound,value,ci,holds,vacuous"


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
             _row_fmt(rep.holds), _row_fmt(rep.vacuous))
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
