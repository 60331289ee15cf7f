"""Seeded, reproducible Monte Carlo for finite chains.

Trials are partitioned into fixed-size blocks; block b of a run with
master seed s draws from a Philox generator keyed by (s, b), so results
are bit-identical for any worker count. Aggregates are integer counts
plus floating sums combined in block order.

Time convention: a trajectory is X_1, ..., X_n with X_1 drawn from the
start law; tau_j = min{i >= 1 : X_i = j} and N_B = min{i >= 1 : X_i in B},
so a point-mass start inside B gives N_B = 1.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .chain import ChainSpec, StationaryDistribution, stationary
from .errors import ValidationError
from .hitting import StateSet, _check_members

BLOCK_TRIALS = 8192  # fixed: part of the reproducibility contract
TRAJECTORY_CAP = 10**6

_MASK64 = (1 << 64) - 1


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
        if self.n < 1:
            raise ValidationError(f"run length n must be >= 1, got {self.n}")
        if self.trials < 1:
            raise ValidationError(f"trials must be >= 1, got {self.trials}")
        if self.workers < 1:
            raise ValidationError(f"workers must be >= 1, got {self.workers}")


@dataclass(frozen=True)
class MissingMassSample:
    """Stationary mass of the states unseen during one n-step trajectory."""

    value: float
    unseen_set: StateSet


def _cumulative_rows(rows: np.ndarray) -> np.ndarray:
    cum = np.cumsum(rows, axis=1)
    cum[:, -1] = 1.0  # guard against round-off shortfall at the right edge
    return cum


def _cumulative_vector(dist: np.ndarray) -> np.ndarray:
    cum = np.cumsum(np.asarray(dist, dtype=float))
    cum[-1] = 1.0
    return cum


def _pick(cum: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Inverse-CDF step: smallest k with u < cum[k]; cum broadcast per row."""
    return np.sum(cum <= u[:, None], axis=1)


def _blocks(trials: int):
    full, rem = divmod(trials, BLOCK_TRIALS)
    sizes = [BLOCK_TRIALS] * full + ([rem] if rem else [])
    return list(enumerate(sizes))


def _run_blocks(fn, trials: int, workers: int):
    """Apply fn(block_index, block_size) and return results in block order."""
    blocks = _blocks(trials)
    if workers <= 1 or len(blocks) <= 1:
        return [fn(b, sz) for b, sz in blocks]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(lambda args: fn(*args), blocks))


def sample_trajectory(chain: ChainSpec, n: int, stream, pi: StationaryDistribution | None = None) -> np.ndarray:
    """Sample X_1, ..., X_n; X_1 ~ start, X_{i+1} ~ P(X_i, .).

    ``stream`` is either a derived-seed integer or a numpy Generator.
    """
    if n < 1:
        raise ValidationError(f"n must be >= 1, got {n}")
    rng = derive_stream(stream, 0) if isinstance(stream, (int, np.integer)) else stream
    start = chain.resolved_start(pi)
    cum_rows = [row.tolist() for row in _cumulative_rows(chain.matrix.rows)]
    cum_start = _cumulative_vector(start).tolist()
    us = rng.random(n).tolist()
    out = np.empty(n, dtype=np.int64)
    x = bisect_right(cum_start, us[0])
    out[0] = x
    for i in range(1, n):
        x = bisect_right(cum_rows[x], us[i])
        out[i] = x
    return out


def first_visit_table(chain: ChainSpec, n: int, trials: int, master_seed: int,
                      workers: int = 1, pi: StationaryDistribution | None = None) -> np.ndarray:
    """(trials, m) table of first-visit steps; n + 1 marks states unseen in n steps.

    One table answers every survival query with horizon <= n exactly:
    tau_j > k iff table[trial, j] > k for any k <= n.
    """
    m = chain.matrix.m
    cum = _cumulative_rows(chain.matrix.rows)
    cum_start = _cumulative_vector(chain.resolved_start(pi))

    def run(block: int, size: int) -> np.ndarray:
        rng = derive_stream(master_seed, block)
        us = rng.random((size, n))
        fv = np.full((size, m), n + 1, dtype=np.int64)
        rows_idx = np.arange(size)
        states = _pick(cum_start, us[:, 0])
        fv[rows_idx, states] = 1
        for i in range(1, n):
            states = _pick(cum[states], us[:, i])
            np.minimum.at(fv, (rows_idx, states), i + 1)
        return fv

    return np.vstack(_run_blocks(run, trials, workers))


def sample_missing_mass(config: SimConfig, pi: StationaryDistribution) -> list[MissingMassSample]:
    """One missing-mass sample per trial: total pi-mass of states with tau_j > n."""
    tau = first_visit_table(config.chain, config.n, config.trials,
                            config.master_seed, config.workers, pi)
    values = missing_mass_values(tau, pi.pi, config.n)
    return [MissingMassSample(value=v, unseen_set=StateSet(tuple(np.flatnonzero(row).tolist())))
            for v, row in zip(values.tolist(), tau > config.n)]


def missing_mass_values(tau: np.ndarray, pi_vec: np.ndarray, n: int) -> np.ndarray:
    """Vector of missing-mass values for a horizon n <= the table's horizon."""
    return (tau > n).astype(float) @ np.asarray(pi_vec, dtype=float)


def hitting_time_samples(chain: ChainSpec, B: StateSet, trials: int, master_seed: int,
                         workers: int = 1, cap: int = TRAJECTORY_CAP,
                         pi: StationaryDistribution | None = None) -> np.ndarray:
    """Per-trial N_B; trajectories run until B is hit or ``cap`` steps (cap + 1 sentinel)."""
    _check_members(B, chain.matrix.m, "set B")
    if cap < 1:
        raise ValidationError(f"cap must be >= 1, got {cap}")
    m = chain.matrix.m
    member_mask = np.zeros(m, dtype=bool)
    member_mask[B.indices()] = True
    cum = _cumulative_rows(chain.matrix.rows)
    cum_start = _cumulative_vector(chain.resolved_start(pi))

    def run(block: int, size: int) -> np.ndarray:
        rng = derive_stream(master_seed, block)
        states = _pick(cum_start, rng.random(size))
        N = np.full(size, cap + 1, dtype=np.int64)
        hit = member_mask[states]
        N[hit] = 1
        alive = np.flatnonzero(~hit)
        t = 1
        while alive.size and t < cap:
            t += 1
            nxt = _pick(cum[states[alive]], rng.random(alive.size))
            states[alive] = nxt
            hit = member_mask[nxt]
            N[alive[hit]] = t
            alive = alive[~hit]
        return N

    return np.concatenate(_run_blocks(run, trials, workers))


def empirical_mgf(samples, s: float) -> float:
    """Arithmetic mean of exp(s * value) over missing-mass samples."""
    values = _sample_values(samples)
    if values.size == 0:
        raise ValidationError("empirical_mgf needs at least one sample")
    if not math.isfinite(s):
        raise ValidationError(f"s must be finite, got {s!r}")
    return math.fsum(math.exp(s * v) for v in values) / values.size


def _sample_values(samples) -> np.ndarray:
    if isinstance(samples, np.ndarray):
        return samples.astype(float, copy=False)
    return np.array([s.value if isinstance(s, MissingMassSample) else float(s) for s in samples])


def occupancy_frequencies(chain: ChainSpec, n: int, stream,
                          pi: StationaryDistribution | None = None) -> np.ndarray:
    """State-visit frequencies over an n-step trajectory (ergodic averages)."""
    traj = sample_trajectory(chain, n, stream, pi)
    return np.bincount(traj, minlength=chain.matrix.m) / n
