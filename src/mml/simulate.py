"""Seeded, reproducible Monte Carlo for finite chains.

Trials are partitioned into fixed-size blocks; block b of a run with
master seed s draws from a Philox generator keyed by (s, b), so results
are bit-identical for any worker count.

Each step maps one 64-bit word w of a stream (``_words``) to the next
state by the inverse CDF of its row at u = (w >> 11) 2^-53, the uniform
``random()`` makes of w: the count of entries cum[k] <= u. Every sampler
reads the pick off an exact guide table (``_InverseCdf``; Chen & Asau's
indexed search, Devroye, Non-Uniform Random Variate Generation, 1986,
ch. III): the top bits of w name a cell of a power-of-two grid that
brackets the answer, and only a cell with a CDF entry strictly inside it
needs a short binary search. Grid points and u are exact in floating
point, so the pick is bit-identical to the O(m) count for every word, at
an expected O(1) probes per draw instead of O(m). The start law is one
more row of the table.

``occupancy_frequencies`` counts visits, not one path's order, so it
splits its n steps among WALK_LANES lanes and steps them side by side
through the same guide table, ceil(n / WALK_LANES) steps each. From pi
every lane is stationary at every step; from any other start law the
counts carry the burn-in of WALK_LANES short paths, not that of one long
one.

Once a trial of ``first_visit_table`` has seen every state, further steps
cannot change its row (a first-visit step only ever takes its first
value), so it stops stepping and drawing at the next 16-step boundary.
Each block keeps a byte map of the states its trials have not seen, one
byte per table cell: a step reads its trials' bytes, and only a first
visit clears one and writes its step into the table, once per cell.

``hitting_time_samples`` steps K at a time through a kernel that avoids
B: row x outside B holds Pr_x[B first entered at step j] for j = 1..K,
then Pr_x[X_K = y, B not entered] for each y outside B. With Q = P on
B^c and r = P's mass into B, the hit columns are Q^(j-1) r and the
position block is Q^K, sums and products of non-negative numbers only.
X_1 is drawn from the start law; then each live trial draws one uniform
per superstep, in trial order, and its pick either ends the trial at
N_B = t + j or moves it to y. K = SUPERSTEP while at most
SUPERSTEP_STATES states lie outside B; past that, building Q^K costs
more than it saves, and K = 1 (the kernel is [r | Q]).

Both samplers store steps in the narrowest signed integer type that holds
the sentinel n + 1 (cap + 1 for N_B): int8 up to n = 126, int16 up to
32,766, int32 up to 2^31 - 2, else int64. Comparisons, minima and
``bincount`` need no cast; arithmetic that can pass the sentinel does.

Time convention: a trajectory is X_1, ..., X_n with X_1 drawn from the
start law; tau_j = min{i >= 1 : X_i = j} and N_B = min{i >= 1 : X_i in B},
so a point-mass start inside B gives N_B = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chain import ChainSpec, StationaryDistribution, stationary
from .errors import ValidationError
from .hitting import StateSet, _check_members

BLOCK_TRIALS = 8192  # fixed: part of the reproducibility contract
TRAJECTORY_CAP = 10**6
WALK_LANES = 1024  # fixed: paths occupancy_frequencies steps side by side, part of its draw rule
GUIDE_PER_STATE = 16  # G >= 16 m: fewer than m of a row's cells are open, so P(search) < 1/16
GUIDE_CELLS = 1 << 18  # cap on (m + 1) x G: 2 MB of guide table at m = 2000
SUPERSTEP = 16  # steps per uniform of hitting_time_samples: Q^16 from four squarings
SUPERSTEP_STATES = 1024  # the most states outside B that still get a superstep of 16

_MASK64 = (1 << 64) - 1
_SENTINEL_MAX = np.iinfo(np.int64).max - 1  # the largest n or cap whose sentinel + 1 fits a table


def derive_stream(master_seed: int, index: int) -> np.random.Generator:
    """Counter-based stream derivation: Philox keyed by (seed, index)."""
    key = np.array([master_seed & _MASK64, index & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True, eq=False)
class SimConfig:
    """One reproducible simulation run: identical configs give identical results."""

    chain: ChainSpec
    n: int
    trials: int
    master_seed: int
    workers: int = 1

    def __post_init__(self):
        _check_at_least_one(n=self.n, trials=self.trials, workers=self.workers)


def _check_at_least_one(**counts: int) -> None:
    for name, value in counts.items():
        if value < 1:
            raise ValidationError(f"{name} must be >= 1, got {value}")


def _sentinel_dtype(name: str, value: int) -> type:
    """The narrowest signed integer type whose max is >= the sentinel value + 1."""
    for dtype in (np.int8, np.int16, np.int32, np.int64):
        if value < np.iinfo(dtype).max:
            return dtype
    raise ValidationError(f"{name} must be <= {_SENTINEL_MAX} (its sentinel {name} + 1 is "
                          f"an int64), got {value}")


@dataclass(frozen=True)
class MissingMassSample:
    """Stationary mass of the states unseen during one n-step trajectory."""

    value: float
    unseen_set: StateSet


def _cumulative(rows: np.ndarray) -> np.ndarray:
    """Cumulative sums along each row, in place, with each row's last entry set to 1."""
    cum = np.cumsum(rows, axis=-1, out=rows)
    cum[..., -1] = 1.0  # guard against round-off shortfall at the right edge
    return cum


def _cumulative_rows(chain: ChainSpec, pi: StationaryDistribution | None) -> np.ndarray:
    """(m + 1, m) cumulative rows: P's rows, then the start law as row m."""
    start = np.asarray(chain.resolved_start(pi), dtype=float)
    return _cumulative(np.vstack([chain.matrix.rows, start]))


def _words(rng: np.random.Generator, shape) -> np.ndarray:
    """64-bit words w whose uniforms (w >> 11) 2^-53 are ``rng.random(shape)``, same stream.

    Philox's doubles are its raw words shifted so (numpy's ``next_double``),
    so its words are read raw. Any other generator's doubles are multiples
    of 2^-53 as well (MT19937 joins 27 and 26 bits), and are shifted back up.
    """
    if type(rng.bit_generator) is np.random.Philox:
        return rng.bit_generator.random_raw(shape)
    return (rng.random(shape) * 2.0 ** 53).astype(np.uint64) << 11


class _InverseCdf:
    """Exact inverse CDF of every row of ``cum`` through a guide table.

    ``pick(rows, words)`` returns, per draw, count(cum[row, k] <= u) for the
    uniform u = (w >> 11) 2^-53 of the 64-bit word w. The last entry is
    1.0 > u, so only the non-decreasing prefix cum[row, :m - 1] counts (it
    may overshoot 1 by round-off). A draw in cell k = floor(u G), the top
    log2 G bits of w, has its answer in [lo_k, hi_k], lo_k = count(prefix
    <= k / G) and hi_k = count(prefix < (k + 1) / G), and every entry of the
    row past hi_k is > u. The cell is open (lo_k < hi_k) only when an entry
    lies strictly inside it. ``table`` holds lo_k for a closed cell, which
    is its answer, and ~s < 0 for an open one: s is the flat index of the
    first of the W = max(hi_k - lo_k) entries it searches,
    row * m + min(lo_k, m - W). That window lies inside the row and brackets the
    answer, and the entries in it before lo_k are <= k / G <= u.
    """

    def __init__(self, cum: np.ndarray):
        rows, m = cum.shape
        grid = 1 << (GUIDE_PER_STATE * m - 1).bit_length()
        grid = min(grid, 1 << max(0, (GUIDE_CELLS // rows).bit_length() - 1))
        offsets = (grid + 1) * np.arange(rows)[:, None]

        def counts(rounding):  # row r, k <= G: count(rounding(c G) <= k) over the prefix
            index = rounding(cum[:, :-1] * grid)  # c G is exact: G is a power of two
            index = np.minimum(index, grid, out=index).astype(np.intp)
            index += offsets
            tally = np.bincount(index.ravel(), minlength=rows * (grid + 1)).reshape(rows, grid + 1)
            return np.cumsum(tally, axis=1, out=tally)

        # c <= k / G iff ceil(c G) <= k, and c < (k + 1) / G iff floor(c G) <= k
        lo, inside = counts(np.ceil), counts(np.floor)
        inside -= lo  # hi_k - lo_k: the entries strictly inside cell k (none in the unused cell G)
        widest = int(inside.max(initial=0))
        # binary lifting steps that sum to W, each at most 1 + the sum of those after it
        # (W = 5: 2, 2, 1): every count 0..W is reached, and every probe lies in the window
        halves = [1 << e for e in reversed(range(widest.bit_length() - 1))]
        self.steps = [widest - sum(halves)] + halves if widest else []
        self.grid, self.m, self.shift = grid, m, 65 - grid.bit_length()  # cell: w >> (64 - log2 G)
        first = np.minimum(lo, m - widest)
        first += m * np.arange(rows)[:, None]
        self.table = np.invert(first, out=lo, where=inside > 0).ravel()
        self.cum = cum.ravel()

    def pick(self, rows: np.ndarray, words: np.ndarray) -> np.ndarray:
        cell = (words >> self.shift).view(np.intp)
        cell += rows * (self.grid + 1)
        state = self.table[cell]
        open_ = np.flatnonzero(state < 0)
        if open_.size:
            state[open_] = self._search(state[open_], words[open_])
        return state

    def _search(self, code, words):
        """The state of each open-cell draw: its window's start, plus the entries <= u in it.

        Those entries come first in the window, so binary lifting moves ``last``,
        the last entry known to be <= u, onto the last one that is; the flat
        index after it, modulo m, is the state.
        """
        u = (words >> 11) * 2.0 ** -53
        last = -2 - code  # ~code - 1: the entry before the window
        for step in self.steps:
            probe = last + step
            np.copyto(last, probe, where=self.cum[probe] <= u)
        last += 1
        return np.remainder(last, self.m, out=last)


def _run_blocks(fn, trials: int, workers: int):
    """Apply fn(block_index, block_size) and return results in block order."""
    blocks = [(b, min(BLOCK_TRIALS, trials - b * BLOCK_TRIALS))
              for b in range(-(-trials // BLOCK_TRIALS))]
    if workers <= 1 or len(blocks) <= 1:
        return [fn(b, sz) for b, sz in blocks]
    # imported here: it loads threading, queue and logging, which one worker never needs
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(lambda args: fn(*args), blocks))


def first_visit_table(chain: ChainSpec, n: int, trials: int, master_seed: int,
                      workers: int = 1, pi: StationaryDistribution | None = None) -> np.ndarray:
    """(trials, m) table of first-visit steps; n + 1 marks states unseen in n steps.

    Its type is the narrowest that holds n + 1 (module docstring): cast before
    arithmetic past n + 1. One table answers every survival query with horizon
    <= n exactly: tau_j > k iff table[trial, j] > k for any k <= n.

    Draw rule: at each 16-step boundary c, the block's generator draws one
    (min(16, n - c), k) array of words, where the k trials are those
    whose rows still hold an n + 1, in trial order; row i holds their step
    c + i + 1. A trial that has seen all m states (its cover time) stops
    drawing, since no later step could lower its row. So a horizon-n table
    is the truncation of any longer-horizon table with the same seed and
    trials, and a one-trial table reads one uniform of
    ``derive_stream(master_seed, 0)`` per step, in order, up to its cover time.
    """
    _check_at_least_one(n=n, trials=trials, workers=workers)
    dtype = _sentinel_dtype("n", n)
    m = chain.matrix.m
    inverse_cdf = _InverseCdf(_cumulative_rows(chain, pi))

    table = np.full((trials, m), n + 1, dtype=dtype)

    def run(block: int, size: int) -> None:
        rng = derive_stream(master_seed, block)
        start = block * BLOCK_TRIALS
        flat = table[start:start + size].reshape(-1)  # a view: the block writes its own rows
        unseen = np.ones(size * m, dtype=bool)  # the block's byte map, laid out as its rows
        offsets = np.arange(size) * m  # where the rows of the trials still stepping start
        states = np.full(size, m)  # the start-law row
        seen = np.zeros(size, dtype=np.intp)
        for c in range(0, n, 16):
            open_ = seen < m  # the rows that still hold an n + 1
            offsets, states, seen = offsets[open_], states[open_], seen[open_]
            if not offsets.size:
                break
            for step, words in enumerate(_words(rng, (min(16, n - c), offsets.size)), start=c + 1):
                states = inverse_cdf.pick(states, words)
                at = offsets + states  # one cell per trial row: no repeated index
                new = unseen[at]
                seen += new
                at = at.compress(new)  # first visits: write each cell once
                unseen[at] = False
                flat[at] = step
            del words  # a row of the chunk: free the chunk before the next one is drawn

    _run_blocks(run, trials, workers)
    return table


def sample_missing_mass(config: SimConfig, pi: StationaryDistribution) -> list[MissingMassSample]:
    """One missing-mass sample per trial: total pi-mass of states with tau_j > n.

    Trials with the same unseen set share one record, so a call builds at most
    min(trials, 2^m); its value is the set's first trial's row of
    ``missing_mass_values``, equal to every such trial's row bit for bit.
    """
    tau = first_visit_table(config.chain, config.n, config.trials,
                            config.master_seed, config.workers, pi)
    values = missing_mass_values(tau, pi.pi, config.n)
    unseen = tau > config.n
    # one opaque item per row: bytes compare in column order, as np.unique(axis=0) sorts rows
    packed = np.packbits(unseen, axis=1)
    _, first, which = np.unique(packed.view(np.dtype((np.void, packed.shape[1]))).ravel(),
                                return_index=True, return_inverse=True)
    records = [MissingMassSample(v, StateSet(tuple(np.flatnonzero(unseen[i]).tolist())))
               for i, v in zip(first.tolist(), values[first].tolist())]
    return list(map(records.__getitem__, which.tolist()))


def missing_mass_values(tau: np.ndarray, pi_vec: np.ndarray, n: int) -> np.ndarray:
    """Vector of missing-mass values for a horizon n <= the table's horizon."""
    return (tau > n).astype(float) @ np.asarray(pi_vec, dtype=float)


def _avoiding_kernel(rows: np.ndarray, member_mask: np.ndarray) -> np.ndarray:
    """(k, K + k) superstep kernel over the k states outside B (module docstring).

    Row i is state x = flatnonzero(~member_mask)[i]: K hit columns, then one
    column per state outside B. K = SUPERSTEP while k <= SUPERSTEP_STATES, else 1.
    """
    outside = np.flatnonzero(~member_mask)
    k = outside.size
    steps = SUPERSTEP if k <= SUPERSTEP_STATES else 1
    Q = rows[np.ix_(outside, outside)]
    kernel = np.empty((k, steps + k))
    kernel[:, 0] = rows[np.ix_(outside, np.flatnonzero(member_mask))].sum(axis=1)
    for j in range(1, steps):
        kernel[:, j] = Q @ kernel[:, j - 1]
    for _ in range(steps.bit_length() - 1):  # steps is a power of two
        Q = Q @ Q
    kernel[:, steps:] = Q
    return kernel


def hitting_time_samples(chain: ChainSpec, B: StateSet, trials: int, master_seed: int,
                         workers: int = 1, cap: int = TRAJECTORY_CAP,
                         pi: StationaryDistribution | None = None) -> np.ndarray:
    """Per-trial N_B; trajectories run until B is hit or ``cap`` steps (cap + 1 sentinel).

    Draw rule: X_1 is read off the block's first ``size`` uniforms through
    the start law, and a start in B gives N_B = 1. Then, at each superstep
    from step t, the live trials draw one uniform each, in trial order,
    through ``_avoiding_kernel``: a pick of hit column j records N_B = t + j
    (cap + 1 past the cap) and ends the trial, and a pick of state y moves
    the trial there and on to step t + K. K = SUPERSTEP steps while at most
    SUPERSTEP_STATES states lie outside B, else 1. A trial is cut once
    t >= cap, so Pr[N_B > t] is exact for every t <= cap. N_B's type is the
    narrowest that holds cap + 1 (module docstring).
    """
    _check_members(B, chain.matrix.m, "set B")
    _check_at_least_one(trials=trials, workers=workers, cap=cap)
    dtype = _sentinel_dtype("cap", cap)
    m = chain.matrix.m
    member_mask = np.zeros(m, dtype=bool)
    member_mask[B.indices()] = True
    if member_mask.all():
        return np.ones(trials, dtype=dtype)
    start = _InverseCdf(_cumulative(np.array([chain.resolved_start(pi)], dtype=float)))
    kernel = _avoiding_kernel(chain.matrix.rows, member_mask)
    rest, width = kernel.shape
    steps = width - rest
    superstep = _InverseCdf(_cumulative(kernel))
    position = np.cumsum(~member_mask) - 1  # a state's row of the kernel

    def run(block: int, size: int) -> np.ndarray:
        rng = derive_stream(master_seed, block)
        states = start.pick(np.zeros(size, dtype=np.intp), _words(rng, size))
        N = np.full(size, cap + 1, dtype=dtype)
        hit = member_mask[states]
        N[hit] = 1
        alive = np.flatnonzero(~hit)
        states = position[states[alive]]  # the kernel rows of the live trials, in trial order
        t = 1
        while alive.size and t < cap:
            column = superstep.pick(states, _words(rng, alive.size))
            hit = column < steps
            if hit.any():
                N[alive[hit]] = np.minimum(column[hit] + (t + 1), cap + 1)
                keep = ~hit
                alive, column = alive[keep], column[keep]
            states = column - steps
            t += steps
        return N

    return np.concatenate(_run_blocks(run, trials, workers))


def empirical_mgf(samples, s: float) -> float:
    """Arithmetic mean of exp(s * value) over missing-mass samples; inf past the float range."""
    values = (samples.astype(float, copy=False) if isinstance(samples, np.ndarray) else
              np.array([s.value if isinstance(s, MissingMassSample) else float(s) for s in samples]))
    if values.size == 0:
        raise ValidationError("empirical_mgf needs at least one sample")
    if not math.isfinite(s):
        raise ValidationError(f"s must be finite, got {s!r}")
    try:
        return math.fsum(map(math.exp, (s * values).tolist())) / values.size
    except OverflowError:
        return math.inf


def occupancy_frequencies(chain: ChainSpec, n: int, stream,
                          pi: StationaryDistribution | None = None) -> np.ndarray:
    """State-visit frequencies of n steps from the start law (ergodic averages).

    ``stream`` is either a derived-seed integer or a numpy Generator. Draw
    rule: WALK_LANES lanes start from the start law and each walks
    s = ceil(n / WALK_LANES) steps. At each 16-step boundary c the stream
    draws one (min(16, s - c), WALK_LANES) array of words; row i moves every
    lane to its step c + i + 1. The first n picks in step-major order (step 1
    of every lane, then step 2, ...) are counted, so the last step counts only
    its first n - (s - 1) WALK_LANES lanes. From pi the counts are those of
    stationary steps; from any other start law they carry the burn-in bias
    of WALK_LANES paths of s steps, not that of one path of n. Memory stays
    O(16 WALK_LANES + m) for any n.
    """
    _check_at_least_one(n=n)
    rng = derive_stream(stream, 0) if isinstance(stream, (int, np.integer)) else stream
    inverse_cdf = _InverseCdf(_cumulative_rows(chain, pi))
    m = inverse_cdf.m
    states = np.full(WALK_LANES, m)  # the start-law row
    counts = np.zeros(m, dtype=np.int64)
    steps = -(-n // WALK_LANES)
    for c in range(0, steps, 16):
        words = _words(rng, (min(16, steps - c), WALK_LANES))
        visits = np.empty(words.shape, dtype=np.intp)
        for i, row in enumerate(words):
            states = visits[i] = inverse_cdf.pick(states, row)
        counts += np.bincount(visits.ravel()[:n - c * WALK_LANES], minlength=m)
    return counts / n
