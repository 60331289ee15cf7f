"""The paths that solve pi P = pi (``stationary_law``) and (I - Q) h = 1 for the hitting
times h of a target B, Q being P on B^c (``hitting_vector``; ``hitting_times`` for stacks),
and the rules that choose among them, read off P's support once per matrix (``structure``).

- **Band reduction.** A chain of POWER_MIN_STATES = 32 or more states whose support lies in
  the cyclic tridiagonal band, P(x, y) > 0 only for y in {x-1, x, x+1} mod m (birth-death
  chains, lazy cycles), is solved in O(m) by state reduction (``_band_stationary``,
  ``_arc_hitting``). Only non-negative terms are added, so every entry keeps its relative
  accuracy where pi or h spans many orders of magnitude.
- **Fixed-point iteration.** Any other chain of that size first iterates, under
  ``_contract``'s halving rule (``_power_iteration``, ``_hitting_iteration``).
- **LAPACK.** Every other chain, and every chain whose reduction of pi meets a zero pivot
  or whose iteration is dropped (periodic, slow-mixing, stiff or nearly reducible chains),
  takes a direct solve (``_direct_solve``, ``hitting_times``). Below 32 states a direct
  solve costs about as much as a few products, and every chain ``verify`` builds by
  default (m <= 20) keeps its bits.

Every path ends in the same checks, each raising ``SingularSystemError``: for pi, a residual
above STATIONARY_RESIDUAL_TOL (NaN included) or an entry that underflowed to zero; for h, a
residual above SYSTEM_RESIDUAL_TOL * max(1, max h), as the rounding of an accurate solve
grows with h, which reaches 1e7 on stiff birth-death chains. On a reducible chain the
one-target dispatch first searches P's support backward from B, and names B singular if a
state cannot reach it: LAPACK's LU meets a pivot of rounding size there, not 0.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import SingularSystemError

STATIONARY_RESIDUAL_TOL = 1e-10
SYSTEM_RESIDUAL_TOL = 1e-9
POWER_MIN_STATES = 32
# Rows of P read per gather by a reachability search: a (64, m) block of P's rows.
GATHER_ROWS = 64
# Systems per stacked solve: at most 2048 x 19 x 19 doubles (~6 MB) at m = 20.
SOLVE_BATCH = 2048


class Structure(NamedTuple):
    """What the dispatch reads of P's support: its ``_band_links``, and irreducibility."""

    band: tuple[np.ndarray, np.ndarray] | None
    irreducible: bool


def structure(rows: np.ndarray) -> Structure:
    """P's ``Structure``; off the band, irreducibility takes two searches from state 0."""
    band = _band_links(rows)
    return Structure(band, _band_irreducible(*band) if band is not None else (
        _reaches_all(rows, [0]) and _reaches_all(rows.T, [0])))


def _band_links(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """P's down and up links d(x) = P(x, x-1) and u(x) = P(x, x+1), indices mod m, on a band
    chain (see the module docstring), else None. Row 0 is read first, so a chain outside the
    band is most often rejected after one row; a band chain is accepted once the nonzero
    count of the other rows is that of their band entries."""
    m = rows.shape[0]
    # row 0's band is columns m-1, 0 and 1
    if m < POWER_MIN_STATES or np.count_nonzero(rows[0, 2:-1]):
        return None
    x = np.arange(m)
    down, stay, up = rows[x, x - 1], rows[x, x], rows[x, (x + 1) % m]
    inside = sum(np.count_nonzero(links[1:]) for links in (down, stay, up))
    return (down, up) if np.count_nonzero(rows[1:]) == inside else None


def _band_irreducible(down: np.ndarray, up: np.ndarray) -> bool:
    """Strong connectivity of a band chain's support in O(m). Link x joins x and x+1; it is
    crossed upward if u(x) > 0 and downward if d(x+1) > 0. Going up, state 0 reaches the
    states below the first link with no upward step, and going down those above the first
    with no downward step, so what it reaches is an arc of the cycle. Every state lies in
    it when one direction is never broken, or both break only at the same link, leaving a
    path walked both ways. Two different broken links, i with no upward step and j with no
    downward one, cut the cycle into two arcs, and the walk never leaves the arc from j+1
    up to i: leaving it crosses link i upward or link j downward."""
    no_up, no_down = up == 0, np.roll(down, -1) == 0
    return (not no_up.any() or not no_down.any()
            or (np.count_nonzero(no_up) == 1 and np.array_equal(no_up, no_down)))


def _reaches_all(adj: np.ndarray, sources) -> bool:
    """True iff a breadth-first search from the states ``sources`` along the nonzero entries
    of ``adj`` visits every state.

    Each state enters the frontier once, and the frontier's rows are read GATHER_ROWS
    at a time, so the row reads total O(m^2) and no m x m array is built. The search
    stops once every state is seen: on a dense chain that is after one row.
    """
    frontier = np.asarray(sources, dtype=np.intp)
    unseen = np.ones(adj.shape[0], dtype=bool)
    unseen[frontier] = False
    left = np.count_nonzero(unseen)
    while frontier.size and left:
        # P's entries are >= 0, so a nonzero entry is an edge
        reached = adj[frontier[:GATHER_ROWS]].any(axis=0)
        for lo in range(GATHER_ROWS, frontier.size, GATHER_ROWS):
            reached |= adj[frontier[lo:lo + GATHER_ROWS]].any(axis=0)
        frontier = np.flatnonzero(reached & unseen)
        unseen[frontier] = False
        left -= frontier.size
    return not left


def _contract(step, x, rounding) -> tuple[np.ndarray, float] | None:
    """The fixed point of an iteration from x, ``step(x)`` giving x's residual and the next x,
    or None. Until the residual is within ``rounding(x)`` each step must halve it, so an
    attempt that does not contract stops within about 60 steps; from there the iteration
    goes on while the residual falls, and returns the x of the smallest and its residual."""
    best, best_res = x, np.inf
    while True:
        res, nxt = step(x)
        converged = best_res <= rounding(best)
        if not res < (best_res if converged else best_res / 2):
            return (best, best_res) if converged else None
        best, best_res, x = x, res, nxt


def _target(outside: np.ndarray) -> tuple[int, ...]:
    """The member tuple of the target off one row of ``outside``, as error messages name it."""
    return tuple(np.flatnonzero(~outside).tolist())


def stationary_law(rows: np.ndarray, support: Structure) -> tuple[np.ndarray, float]:
    """pi and its residual on an irreducible chain, by the dispatch of the module docstring."""
    found = None
    if support.band is not None:
        found = _band_stationary(rows, *support.band)
    elif rows.shape[0] >= POWER_MIN_STATES:
        found = _power_iteration(rows)
    pi, res = found if found is not None else _direct_solve(rows)
    if not res <= STATIONARY_RESIDUAL_TOL:
        raise SingularSystemError(f"stationary residual {res!r} exceeds tolerance")
    if np.any(pi <= 0):
        raise SingularSystemError("stationary entry underflowed to zero on an irreducible chain")
    return pi, res


def _band_stationary(rows: np.ndarray, down: np.ndarray,
                     up: np.ndarray) -> tuple[np.ndarray, float] | None:
    """pi and its residual on a band chain by GTH state reduction around the cycle, or None
    if a pivot is 0 or pi leaves the float range.

    Eliminating m-1, ..., n+1 in turn leaves state n joined to n-1 by the band and to 0 by
    fill: t = P(n, 0) and f = P(0, n) as reduced so far, so each step updates two numbers.
    State n's pivot is its reduced mass towards the states below it, d(n) + t, and pi(n),
    relative to pi(0) = 1, is the mass flowing into n from below, pi(n-1) u(n-1) + f, over
    that pivot.
    """
    d, u = down.tolist(), up.tolist()
    m = len(d)
    pivot, fill = [0.0] * m, [0.0] * m
    t, f = u[-1], d[0]
    for n in range(m - 1, 0, -1):
        s = d[n] + t
        if not s > 0:
            return None
        pivot[n], fill[n] = s, f
        t, f = u[n - 1] * t / s, f * d[n] / s
    pi = [1.0]
    for n in range(1, m):
        pi.append((pi[-1] * u[n - 1] + fill[n]) / pivot[n])
    pi = np.array(pi)
    total = pi.sum()
    if not np.isfinite(total):
        return None
    pi /= total
    return pi, _residual(pi, rows)


def _power_iteration(rows: np.ndarray) -> tuple[np.ndarray, float] | None:
    """pi and its residual by x <- xP from the uniform law under ``_contract``'s rule, with
    m * eps * max x the rounding of one product, or None: max |xP - x| is x's residual, and
    xP renormalized is the next x. It only adds non-negative terms."""
    m = rows.shape[0]

    def step(x):
        y = x @ rows
        return float(np.max(np.abs(y - x))), y / y.sum()

    return _contract(step, np.full(m, 1.0 / m), lambda x: m * np.finfo(float).eps * x.max())


def _direct_solve(rows: np.ndarray) -> tuple[np.ndarray, float]:
    """pi and its residual by one LAPACK solve of ``(P^T - I) pi = 0`` with the last
    equation replaced by ``sum(pi) = 1``, then clipped to >= 0 and normalized.

    Raises ``SingularSystemError`` if the solve fails, or if its residual before
    clipping exceeds STATIONARY_RESIDUAL_TOL; a non-finite solve has a NaN residual.
    """
    m = rows.shape[0]
    # A^T = P - I with its last column set to 1, so A is column-major, as the solver copies it
    At = rows.copy()
    At.flat[::m + 1] -= 1.0
    At[:, -1] = 1.0
    b = np.zeros(m)
    b[-1] = 1.0
    try:
        pi = np.linalg.solve(At.T, b)
    except np.linalg.LinAlgError as e:
        raise SingularSystemError(f"stationary solve failed: {e}") from e
    res = _residual(pi, rows)
    if not res <= STATIONARY_RESIDUAL_TOL:
        raise SingularSystemError(f"stationary solve residual {res!r} exceeds tolerance")
    pi = np.clip(pi, 0.0, None)
    pi = pi / pi.sum()
    return pi, _residual(pi, rows)


def _residual(pi, rows) -> float:
    return float(np.max(np.abs(pi @ rows - pi)))


def hitting_vector(rows: np.ndarray, support: Structure,
                   outside: np.ndarray) -> tuple[np.ndarray, float]:
    """h and its residual for the target off ``outside``, by the module docstring's dispatch."""
    if not support.irreducible and not _reaches_all(rows.T, np.flatnonzero(~outside)):
        raise SingularSystemError(f"hitting system singular for target {_target(outside)}")
    found = None
    if support.band is not None:
        found = _arc_hitting(rows, *support.band, outside)
    elif rows.shape[0] >= POWER_MIN_STATES:
        found = _hitting_iteration(rows, outside)
    h, residual = (hitting_times(rows[None], outside[None]) if found is None
                   else _checked(found[0][None, None], np.array([[found[1]]]), outside[None]))
    return h[0, 0], float(residual[0, 0])


def _arc_hitting(rows: np.ndarray, down: np.ndarray, up: np.ndarray,
                 outside: np.ndarray) -> tuple[np.ndarray, float]:
    """h and its residual max |1 + Q h - h| on a band chain of links d and u
    (``_band_links``).

    B^c splits into arcs of the cycle, each a path x_1..x_L whose ends step into B.
    Eliminating x_L, ..., x_1 in turn leaves x_i with pivot s_i = d(x_i) + e_i, e_i being
    its reduced mass up into B (e_L = u(x_L), e_i = u(x_i) e_(i+1) / s_(i+1)), and
    right-hand side c_i = 1 + u(x_i) c_(i+1) / s_(i+1); back-substitution from the bottom
    gives h(x_i) = (c_i + d(x_i) h(x_(i-1))) / s_i. No array larger than m is built. A
    pivot of 0 leaves a state that cannot reach B, and raises ``SingularSystemError``
    naming the target.
    """
    d, u, out = down.tolist(), up.tolist(), outside.tolist()
    m = len(d)
    h, pivot, rhs = [0.0] * m, [0.0] * m, [0.0] * m
    # each arc starts above a state of B and runs up to the next one
    for bottom in np.flatnonzero(outside & ~np.roll(outside, 1)).tolist():
        top = bottom
        while out[(top + 1) % m]:
            top += 1
        e, c = u[top % m], 1.0
        for x in range(top, bottom - 1, -1):
            x %= m
            s = d[x] + e
            if not s > 0:
                raise SingularSystemError(f"hitting system singular for target {_target(outside)}")
            pivot[x], rhs[x] = s, c
            e, c = u[x - 1] * e / s, 1.0 + u[x - 1] * c / s
        below = 0.0
        for x in range(bottom, top + 1):
            x %= m
            below = h[x] = (rhs[x] + d[x] * below) / pivot[x]
    h = np.array(h)
    return h, float(np.max(np.abs(np.where(outside, 1.0 + rows @ h - h, 0.0))))


def _hitting_iteration(rows: np.ndarray, outside: np.ndarray) -> tuple[np.ndarray, float] | None:
    """h and its residual on the n states ``outside`` B by a deflated fixed-point iteration
    under ``_contract``'s rule (rounding n * eps * max(1, max h)), or None.

    M = I - 1 q^T, q the column means of Q, preconditions (I - Q) h = 1. With c the column
    sums of P's rows off B and S their sum over B, M^-1 r = r + 1 (c . r) / S for r = 0 on B
    (Sherman-Morrison), and M^-1 1 = n / S is the start. A step takes one product P h (Q h
    off B, as h = 0 on B): r = 1 + Q h - h is h's residual, and the next h is
    max(h + M^-1 r, 1), since an exact h is at least 1 off B. S = 0 returns None."""
    c = outside @ rows
    enter, n = c[~outside].sum(), np.count_nonzero(outside)
    if not enter > 0:
        return None

    def step(h):
        r = np.where(outside, 1.0 + rows @ h - h, 0.0)
        nxt = np.where(outside, np.maximum(h + r + (c @ r) / enter, 1.0), 0.0)
        return float(np.max(np.abs(r))), nxt

    return _contract(step, np.where(outside, n / enter, 0.0),
                     lambda h: n * np.finfo(float).eps * max(1.0, h.max()))


def by_size(table: np.ndarray):
    """The rows of a boolean table grouped by their count n >= 1 of True entries, n
    ascending: for each n, the rows' indices and a (rows, n) array of each row's True
    columns, ascending. Rows with no True entry are left out."""
    sizes = table.sum(axis=1)
    for n in np.unique(sizes[sizes > 0]).tolist():
        group = np.flatnonzero(sizes == n)
        yield group, np.nonzero(table[group])[1].reshape(group.size, n)


def hitting_times(rows: np.ndarray, outside: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solve the first-step system of every target on every chain of a stack by LAPACK;
    ``rows`` is a (C, m, m) stack of transition rows, and row k of ``outside`` is B_k^c.

    Returns h, a (C, k, m) array that is 0 on each target, and each system's
    residual max |h - 1 - Q h| on B_k^c, a (C, k) array; Q h is (P h)[B_k^c], as
    h = 0 on B_k. Targets are grouped by size; each size's systems on all C chains are
    solved in stacks of at most SOLVE_BATCH, one ``np.linalg.solve`` per stack, each
    system alone, so h does not depend on the stacking. Raises ``SingularSystemError``,
    naming the target, when a system is singular or its residual fails the check of the
    module docstring.
    """
    chains = rows.shape[0]
    h = np.zeros((chains, *outside.shape))
    residual = np.zeros((chains, outside.shape[0]))
    for group, rest in by_size(outside):
        n = rest.shape[1]
        for start in range(0, chains * group.size, SOLVE_BATCH):
            # system s is target group[s % size] on chain s // size
            chain, k = np.divmod(np.arange(start, min(start + SOLVE_BATCH, chains * group.size)),
                                 group.size)
            target, r = group[k], rest[k]
            # Q^T in one gather (index arrays swapped), made I - Q^T in place, so the system
            # I - Q is its transpose, column-major, as the solver copies it
            M = rows[chain[:, None, None], r[:, None, :], r[:, :, None]]
            np.subtract(0.0, M, out=M)
            M.reshape(k.size, -1)[:, ::n + 1] += 1.0
            try:
                x = np.linalg.solve(M.transpose(0, 2, 1), np.ones((k.size, n, 1)))
            except np.linalg.LinAlgError as e:
                which = (f"target {_target(outside[target[0]])}" if k.size == 1
                         else f"one of {k.size} targets of {outside.shape[1] - n} states")
                raise SingularSystemError(f"hitting system singular for {which}") from e
            h[chain[:, None], target[:, None], r] = x[:, :, 0]
    for c in range(chains):
        for lo in range(0, outside.shape[0], SOLVE_BATCH):
            hs, off = h[c, lo:lo + SOLVE_BATCH], outside[lo:lo + SOLVE_BATCH]
            gap = np.where(off, np.abs(hs - 1.0 - hs @ rows[c].T), 0.0)
            residual[c, lo:lo + SOLVE_BATCH] = gap.max(axis=1)
    return _checked(h, residual, outside)


def _checked(h: np.ndarray, residual: np.ndarray, outside: np.ndarray):
    """h and residual, once every residual is within tolerance (see the module docstring)."""
    # a tolerance scaled by the system's largest h is at least SYSTEM_RESIDUAL_TOL, so only
    # the systems past that one are scaled; NaN fails too
    chain, k = np.nonzero(~(residual <= SYSTEM_RESIDUAL_TOL))
    scale = np.maximum(1.0, h[chain, k].max(axis=1))
    bad = np.flatnonzero(~(residual[chain, k] <= SYSTEM_RESIDUAL_TOL * scale))
    if bad.size:
        chain, k = chain[bad[0]], k[bad[0]]
        raise SingularSystemError(
            f"hitting system residual {float(residual[chain, k])!r} exceeds tolerance "
            f"for target {_target(outside[k])}")
    return h, residual
