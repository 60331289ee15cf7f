import math
import tracemalloc
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import binom

from mml.chain import ChainSpec, generate, point_start, stationary, validate
from mml.errors import PreconditionError, ValidationError
from mml.hitting import (
    expected_hitting_time,
    hitting_table,
    state_set,
    subset_masses,
    survival_probabilities,
    unseen_set_law,
)
from mml.simulate import (
    BLOCK_TRIALS,
    GUIDE_CELLS,
    WALK_LANES,
    SimConfig,
    _cumulative_rows,
    _InverseCdf,
    derive_stream,
    empirical_mgf,
    first_visit_table,
    hitting_time_samples,
    missing_mass_values,
    occupancy_frequencies,
    sample_missing_mass,
)
from oracles import (
    first_visit_table_by_count,
    hitting_time_samples_by_tail,
    occupancy_by_count,
    pick_by_count,
    walk_by_count,
)

DIRECTED_CYCLE3 = ChainSpec(matrix=validate([[0, 1, 0], [0, 0, 1], [1, 0, 0]]),
                            start=point_start(3, 0))
UNIFORM2 = generate("iid", mu=(0.5, 0.5))
# cumsum of row 0 reaches 1 + 2^-52 at column 1, before the last column
OVERSHOOT3 = ChainSpec(matrix=validate([[0.5, 0.5000000000000002, 0.0],
                                        [0.0, 0.0, 1.0], [0.25, 0.0, 0.75]]))
ULP_BELOW_1 = 1.0 - 2.0 ** -53


def binom_ok(hits, trials, p, z=2.576):
    lo = binom.ppf(0.005, trials, p) if p > 0 else 0
    hi = binom.ppf(0.995, trials, p) if p < 1 else trials
    return lo <= hits <= hi


WALK_CHAINS = {
    "random-dense": generate("random-dense", m=6, seed=4),  # open guide cells: picks search
    "lazy-cycle": generate("lazy-cycle", m=5, hold=0.5),  # CDF entries on grid points only
    "overshoot": OVERSHOOT3,
    "directed-cycle": DIRECTED_CYCLE3,
    "single-state": ChainSpec(matrix=validate([[1.0]])),
    "point-start": ChainSpec(matrix=generate("random-dense", m=4, seed=9).matrix, start=point_start(4, 2)),
}
WALK_SEED = 31


def walk_stream(kind: str):
    # MT19937 joins two 32-bit draws into a double, which is not its next64 >> 11
    return WALK_SEED if kind == "seed" else np.random.Generator(np.random.MT19937(WALK_SEED))


class TestLanesWalk:
    """occupancy_frequencies against the counting oracle, at every seam of its draw rule."""

    LENGTHS = {"1": 1, "L-1": WALK_LANES - 1, "L": WALK_LANES, "L+1": WALK_LANES + 1,
               "16L+3": 16 * WALK_LANES + 3}

    @pytest.mark.parametrize("name", WALK_CHAINS)
    @pytest.mark.parametrize("length", LENGTHS)
    @pytest.mark.parametrize("stream", ["seed", "mt19937"])
    def test_matches_counting_oracle(self, name, length, stream):
        chain, n = WALK_CHAINS[name], self.LENGTHS[length]
        freq = occupancy_frequencies(chain, n, walk_stream(stream))
        assert freq.tolist() == occupancy_by_count(chain, n, walk_stream(stream), WALK_LANES).tolist()

    @settings(deadline=None, max_examples=40)
    @given(family=st.sampled_from(["random-dense", "lazy-cycle"]), m=st.integers(1, 9),
           seed=st.integers(0, 2 ** 64 - 1), n=st.integers(1, 20 * WALK_LANES))
    @example(family="random-dense", m=9, seed=0, n=16 * WALK_LANES + 1)
    def test_matches_counting_oracle_over_seeds(self, family, m, seed, n):
        params = {"seed": seed % 1000} if family == "random-dense" else {"hold": 0.25}
        chain = generate(family, m=m, **params)
        assert occupancy_frequencies(chain, n, seed).tolist() == \
            occupancy_by_count(chain, n, seed, WALK_LANES).tolist()

    @pytest.mark.parametrize("chain", [generate("random-dense", m=32, seed=5),
                                       generate("lazy-cycle", m=32, hold=0.5)],
                             ids=["random-dense", "lazy-cycle"])
    def test_counts_n_picks_and_wastes_under_one_step(self, monkeypatch, chain):
        # every lane picks once a step; only the surplus lanes of the last step go uncounted
        picked = []
        pick = _InverseCdf.pick

        def counting_pick(self, states, words):
            picked.append(states.size)
            return pick(self, states, words)

        monkeypatch.setattr(_InverseCdf, "pick", counting_pick)
        n = 40 * WALK_LANES + 5
        counts = occupancy_frequencies(chain, n, 3) * n
        assert np.allclose(counts, np.rint(counts)) and np.rint(counts).sum() == n
        assert n <= sum(picked) < n + WALK_LANES


SPECIAL_CUM = [0.0, 0.125, 0.25, 0.5, 1 / 3, 0.75, ULP_BELOW_1, 1.0, 1.0 + 2.0 ** -52]


@st.composite
def cumulative_tables(draw):
    """(rows, m) tables as `_cumulative_rows` makes them: a non-decreasing prefix, then 1.0.

    Entries repeat (zero-probability states, leading zeros included) and may pass 1.
    """
    m = draw(st.integers(1, 7))
    n_rows = draw(st.integers(1, 4))
    entry = st.one_of(st.sampled_from(SPECIAL_CUM), st.floats(0.0, 1.0))
    table = np.ones((n_rows, m))
    for r in range(n_rows):
        table[r, :-1] = sorted(draw(st.lists(entry, min_size=m - 1, max_size=m - 1)))
    return table


class TestInverseCdf:
    """The guide-table kernel returns the O(m) count's state for every word a generator emits.

    A word w stands for the uniform u = (w >> 11) 2^-53 that ``random()``
    makes of it, so the draws are t = w >> 11 in [0, 2^53): each is checked
    with its low 11 bits clear and set.
    """

    @staticmethod
    def assert_matches_count(cum, draws):
        words = np.asarray(draws, dtype=np.uint64) << 11
        words = np.concatenate([words, words | 0x7FF])
        us = (words >> 11) * 2.0 ** -53
        rows = np.repeat(np.arange(cum.shape[0]), words.size)  # every (row, word) pair in one call
        words, us = np.tile(words, cum.shape[0]), np.tile(us, cum.shape[0])
        assert _InverseCdf(cum).pick(rows, words).tolist() == pick_by_count(cum[rows], us).tolist()

    @settings(deadline=None, max_examples=300)
    @given(cum=cumulative_tables(), free=st.lists(st.integers(0, 2 ** 53 - 1), max_size=20))
    @example(cum=np.array([[1.0]]), free=[])
    @example(cum=np.array([[0.0, 0.0, 0.5, 0.5, 1.0], [0.0, 0.0, 0.0, 0.0, 1.0]]), free=[])
    @example(cum=np.array([[0.5, 1.0 + 2.0 ** -52, 1.0]]), free=[])
    @example(cum=np.array([[0.25, 0.75, 1.0]]), free=[])  # every entry on a grid point
    @example(cum=np.array([[0.5, 1.0, 1.0, 1.0]]), free=[])  # a plateau at 1.0
    @example(cum=np.array([[0.3, 0.3001, 0.3002, 0.3003, 0.3004, 0.3005, 0.3006, 1.0],
                           [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.9, 1.0],
                           [0.0] * 7 + [1.0]]), free=[])  # a window that must end at its row's end
    def test_matches_brute_force_count(self, cum, free):
        grid = _InverseCdf(cum).grid
        entries = cum[cum < 1.0]
        edges = np.arange(grid + 1) / grid
        at = np.floor(np.concatenate([entries, edges]) * 2.0 ** 53).astype(np.int64)
        draws = np.concatenate([np.array(free + [0, 2 ** 53 - 1], dtype=np.int64),
                                at - 1, at, at + 1])  # an entry or a cell edge, one draw off
        self.assert_matches_count(cum, draws[(draws >= 0) & (draws < 2 ** 53)])

    @pytest.mark.parametrize("family,params", [("lazy-cycle", {"m": 32, "hold": 0.5}),
                                               ("birth-death", {"m": 20, "p": 0.25, "q": 0.25})])
    def test_entries_on_grid_points_open_no_cell(self, family, params):
        # every P entry is a multiple of 1/4: a cell opens only with an entry strictly inside it
        chain = generate(family, **params)
        m = chain.matrix.m
        kernel = _InverseCdf(_cumulative_rows(chain, stationary(chain.matrix)))
        assert (kernel.table.reshape(m + 1, kernel.grid + 1)[:m] >= 0).all()

    def test_cumulative_rows_of_an_overshooting_chain(self):
        cum = _cumulative_rows(OVERSHOOT3, None)
        assert cum[0, 1] > 1.0 and cum[0, 2] == 1.0 and cum.shape == (4, 3)
        self.assert_matches_count(cum, np.linspace(0, 2 ** 53 - 1, 4097).astype(np.int64))

    def test_table_size_is_capped(self):
        cum = _cumulative_rows(generate("random-dense", m=2000, seed=1), None)
        kernel = _InverseCdf(cum)
        assert kernel.table.size <= GUIDE_CELLS + 2001
        # every array the kernel holds but the caller's cumulative rows, summed
        held = [a for a in vars(kernel).values() if isinstance(a, np.ndarray)]
        assert sum(a.nbytes for a in held if not np.shares_memory(a, cum)) < 4 * 2 ** 20


BENCH_CHAIN = generate("random-dense", m=64, seed=1)  # the mc-sampling grid's largest m


def traced_peak(fn, *args, **kwargs):
    """fn's result and the peak of the memory tracemalloc traced while it ran."""
    tracemalloc.start()
    try:
        out = fn(*args, **kwargs)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def block_working_set(m: int) -> int:
    """Bytes first_visit_table holds at m states beside its table, with room to spare.

    One block's byte map (m bytes a trial), one 16-step draw of 64-bit words
    (each chunk is freed before the next is drawn), a dozen intp arrays of one
    entry per trial, and the guide table of m + 1 rows of 16 m + 1 cells.
    """
    return BLOCK_TRIALS * (m + 16 * 8 + 12 * 8) + (m + 1) * (16 * m + 1) * 8


@lru_cache(maxsize=None)
def bench_chain_by_count(n: int, trials: int, seed: int) -> np.ndarray:
    return first_visit_table_by_count(BENCH_CHAIN, n, trials, seed, stationary(BENCH_CHAIN.matrix))


class TestAgainstCountingSampler:
    """Bit-identity with the O(m) pick and np.minimum.at (tests/oracles.py), same streams."""

    FAMILIES = [
        ("random-dense", {"m": 6, "seed": 4}),
        ("lazy-cycle", {"m": 5, "hold": 0.5}),
        ("birth-death", {"m": 8, "p": 0.3, "q": 0.3}),
        ("iid", {"mu": (0.1, 0.2, 0.3, 0.4)}),
    ]
    TRIALS = BLOCK_TRIALS + 37

    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.parametrize("family,params", FAMILIES)
    def test_first_visit_table(self, family, params, workers):
        chain = generate(family, **params)
        pi = stationary(chain.matrix)
        fv = first_visit_table(chain, 12, self.TRIALS, 61, workers, pi)
        assert fv.dtype == np.int8  # the narrowest type that holds n + 1 = 13
        assert np.array_equal(fv, first_visit_table_by_count(chain, 12, self.TRIALS, 61, pi))

    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.parametrize("n", [37, 100])
    @pytest.mark.parametrize("family,params", FAMILIES + [("iid", {"mu": (1.0,)})])
    def test_first_visit_table_past_cover(self, family, params, n, workers):
        # several 16-step chunks: trials that have seen every state stop stepping,
        # and on iid(mu=(1.0,)) every trial has after step 1
        chain = generate(family, **params)
        pi = stationary(chain.matrix)
        fv = first_visit_table(chain, n, self.TRIALS, 63, workers, pi)
        assert np.array_equal(fv, first_visit_table_by_count(chain, n, self.TRIALS, 63, pi))

    @pytest.mark.parametrize("workers", [1, 3])
    def test_first_visit_table_no_trial_covers(self, workers):
        chain = generate("lazy-cycle", m=40, hold=0.9)
        fv = first_visit_table(chain, 100, self.TRIALS, 64, workers)
        assert (fv > 100).any(axis=1).all()
        assert np.array_equal(fv, first_visit_table_by_count(chain, 100, self.TRIALS, 64))

    @pytest.mark.parametrize("workers", [1, 3])
    def test_first_visit_table_at_the_benchmark_size(self, workers):
        # open cells with up to 3 entries inside (the steps sum to the widest),
        # and trials still stepping at n = 300 next to covered ones
        pi = stationary(BENCH_CHAIN.matrix)
        assert sum(_InverseCdf(_cumulative_rows(BENCH_CHAIN, pi)).steps) >= 2
        fv = first_visit_table(BENCH_CHAIN, 300, self.TRIALS, 71, workers, pi)
        assert 0 < (fv > 300).any(axis=1).sum() < self.TRIALS
        assert np.array_equal(fv, bench_chain_by_count(300, self.TRIALS, 71))

    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.parametrize("family,params", FAMILIES + [("lazy-cycle", {"m": 40, "hold": 0.9})])
    def test_shorter_horizon_is_a_truncation(self, family, params, workers):
        # steps 1..37 read the same uniforms at either horizon, covered trials or not
        chain = generate(family, **params)
        t100 = first_visit_table(chain, 100, self.TRIALS, 66, workers)
        t37 = first_visit_table(chain, 37, self.TRIALS, 66, workers)
        assert np.array_equal(t37, np.where(t100 <= 37, t100, 38))

    def test_covered_trials_stop_stepping(self, monkeypatch):
        rows = []
        pick = _InverseCdf.pick

        def counting_pick(self, states, u):
            rows.append(states.size)
            return pick(self, states, u)

        monkeypatch.setattr(_InverseCdf, "pick", counting_pick)
        fv = first_visit_table(UNIFORM2, 512, 1000, 65)
        assert (fv <= 512).all()
        assert sum(rows) < 0.1 * 1000 * 512

    def test_point_start_and_overshooting_row(self):
        assert np.array_equal(first_visit_table(OVERSHOOT3, 9, 500, 8),
                              first_visit_table_by_count(OVERSHOOT3, 9, 500, 8))

    def test_m500_stays_small(self):
        chain = generate("random-dense", m=500, seed=6)
        fv, peak = traced_peak(first_visit_table, chain, 4, 300, 17)
        # P's cumulative rows (2 MB) and a few arrays of their size; the guide table is 1 MB
        assert peak < 16 * 2 ** 20
        assert np.array_equal(fv, first_visit_table_by_count(chain, 4, 300, 17))


class TestAgainstTailOracle:
    """Bit-identity with the count of exact-tail values above each uniform (tests/oracles.py)."""

    TRIALS = BLOCK_TRIALS + 37
    FAMILIES = ["random-dense", "lazy-cycle", "birth-death"]

    @classmethod
    def random_case(cls, index: int):
        """A chain of 2-11 states, a random B that misses a state, and a cap in 1..200."""
        rng = np.random.default_rng(index)
        m = int(rng.integers(2, 12))
        family = cls.FAMILIES[index % 3]
        params = {"random-dense": {"seed": index}, "lazy-cycle": {"hold": 0.5},
                  "birth-death": {"p": 0.3, "q": 0.25}}[family]
        chain = generate(family, m=m, **params)
        members = np.flatnonzero(rng.random(m) < 0.3).tolist() or [int(rng.integers(m))]
        return chain, members[:m - 1], int(rng.integers(1, 201))

    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.parametrize("index", range(12))
    def test_random_cases(self, index, workers):
        chain, members, cap = self.random_case(index)
        pi = stationary(chain.matrix)
        N = hitting_time_samples(chain, state_set(members), self.TRIALS, 62 + index, workers,
                                 cap=cap, pi=pi)
        assert N.dtype == (np.int8 if cap <= 126 else np.int16)
        assert np.array_equal(N, hitting_time_samples_by_tail(chain, members, self.TRIALS,
                                                              62 + index, cap, pi))

    def test_cap_c_is_the_uncapped_array_clipped(self):
        chain = generate("lazy-cycle", m=10, hold=0.9)
        pi = stationary(chain.matrix)
        uncapped = hitting_time_samples(chain, state_set([5]), self.TRIALS, 69, pi=pi)
        assert uncapped.max() > 200
        for cap in (1, 15, 16, 17, 200):
            N = hitting_time_samples(chain, state_set([5]), self.TRIALS, 69, cap=cap, pi=pi)
            assert np.array_equal(N, np.minimum(uncapped, cap + 1)), cap

    def test_short_cap(self):
        # a hit past the cap reads cap + 1
        chain = generate("lazy-cycle", m=10, hold=0.9)
        pi = stationary(chain.matrix)
        N = hitting_time_samples(chain, state_set([5]), self.TRIALS, 69, cap=15, pi=pi)
        assert np.array_equal(N, hitting_time_samples_by_tail(chain, [5], self.TRIALS, 69, 15, pi))
        assert N.max() == 16 and (N == 15).any()

    def test_long_tail_to_the_last_trial(self):
        # the tail is stepped until it falls to the smallest uniform, not to the cap
        chain = generate("lazy-cycle", m=16, hold=0.5)
        cap = 100_000
        N = hitting_time_samples(chain, state_set([0]), 2000, 68, cap=cap)
        last = np.sort(N)[-5:]
        assert last[-1] <= cap and last[0] < last[-1]
        assert np.array_equal(N, hitting_time_samples_by_tail(chain, [0], 2000, 68, cap))

    def test_1084_states(self):
        chain = generate("random-dense", m=1084, seed=8)
        pi = stationary(chain.matrix)
        N = hitting_time_samples(chain, state_set(range(50)), 300, 70, cap=40, pi=pi)
        assert np.array_equal(N, hitting_time_samples_by_tail(chain, range(50), 300, 70, 40, pi))

    @pytest.mark.filterwarnings("error")
    def test_sparse_chain_of_1100_states_warns_nothing(self):
        # lazy-cycle(1100)'s rows are mostly zeros
        chain = generate("lazy-cycle", m=1100, hold=0.5)
        N = hitting_time_samples(chain, state_set([0]), 200, 7, cap=50)
        assert np.array_equal(N, hitting_time_samples_by_tail(chain, [0], 200, 7, 50))

    def test_point_start_and_overshooting_row(self):
        assert np.array_equal(hitting_time_samples(OVERSHOOT3, state_set([2]), 500, 8, cap=30),
                              hitting_time_samples_by_tail(OVERSHOOT3, [2], 500, 8, 30))


class TestFirstVisitTable:
    def test_matches_trajectory_path(self):
        # a one-trial table reads one uniform of derive_stream(77, 0) per step: a one-lane walk
        chain = generate("random-dense", m=5, seed=3)
        n = 40
        tau = first_visit_table(chain, n, 1, 77)
        expected = np.full(5, n + 1)
        for i, x in enumerate(walk_by_count(chain, n, 77, 1)[:, 0], start=1):
            expected[x] = min(expected[x], i)
        assert tau[0].tolist() == expected.tolist()

    def test_horizon_past_the_sentinel_range_rejected(self):
        # n + 1 marks an unseen state, and must fit an int64
        largest = 2 ** 63 - 2
        with pytest.raises(ValidationError, match=f"^n must be <= {largest} .* got {largest + 1}$"):
            first_visit_table(UNIFORM2, largest + 1, 100, 0)
        tau = first_visit_table(UNIFORM2, largest, 100, 0)  # every trial covers within a few steps
        assert tau.max() < 100

    def test_sentinel_semantics(self):
        tau = first_visit_table(DIRECTED_CYCLE3, 2, 4, 0)
        # start at 0: visits 0 at step 1, 1 at step 2, never 2 within n=2
        assert np.array_equal(tau, np.tile([1, 2, 3], (4, 1)))

    @pytest.mark.parametrize("workers", [2, 4])
    def test_worker_independence(self, workers):
        chain = generate("random-dense", m=4, seed=5)
        a = first_visit_table(chain, 8, 3 * BLOCK_TRIALS + 17, 99, workers=1)
        b = first_visit_table(chain, 8, 3 * BLOCK_TRIALS + 17, 99, workers=workers)
        assert np.array_equal(a, b)

    def test_long_horizon_draws_only_for_open_trials(self):
        # nearly every trial covers random-dense(m=4) within a few dozen steps;
        # a (trials, n) array of uniforms alone would take 31 MiB
        chain = generate("random-dense", m=4, seed=2)
        fv, peak = traced_peak(first_visit_table, chain, 2048, 2000, 18)
        assert (fv <= 2048).all()
        assert peak < 4 * 2 ** 20

    def test_blocks_fill_one_table_in_place(self):
        # sixteen blocks write their rows of the returned 8 MiB int8 table: no
        # per-block tables joined by a copy, which would hold the table twice
        chain = generate("random-dense", m=64, seed=2)
        trials = 16 * BLOCK_TRIALS
        fv, peak = traced_peak(first_visit_table, chain, 16, trials, 18)
        assert fv.shape == (trials, 64) and fv.flags.c_contiguous and fv.dtype == np.int8
        assert peak < fv.nbytes + block_working_set(64)

    @pytest.mark.parametrize("n", [32, 100])
    def test_one_word_chunk_at_a_time(self, n):
        # past one 16-step chunk, holding the last chunk while the next is drawn would
        # add 128 bytes a trial, 1 MiB a block, to the one-chunk working set
        fv, peak = traced_peak(first_visit_table, BENCH_CHAIN, n, BLOCK_TRIALS, 3)
        assert peak < fv.nbytes + block_working_set(64)

    def test_benchmark_call_peaks_at_an_int16_table(self):
        # the mc-sampling workload's largest call: its 2 MiB int16 table and one
        # block's working set, where an int64 table alone took 8 MiB
        pi = stationary(BENCH_CHAIN.matrix)
        fv, peak = traced_peak(first_visit_table, BENCH_CHAIN, 512, 2 * BLOCK_TRIALS, 3, pi=pi)
        assert fv.dtype == np.int16 and fv.nbytes == 2 * 2 ** 20
        assert peak < fv.nbytes + block_working_set(64)


# (n or cap, the type of its sentinel + 1): 127/128, 32,767/32,768, 2^31 - 1/2^31, 2^63 - 1
SENTINEL_TYPES = [(126, np.int8), (127, np.int16), (2 ** 15 - 2, np.int16), (2 ** 15 - 1, np.int32),
                  (2 ** 31 - 2, np.int32), (2 ** 31 - 1, np.int64), (2 ** 63 - 2, np.int64)]
STAY2 = ChainSpec(matrix=validate([[1, 0], [0, 1]]), start=point_start(2, 0))  # never leaves 0


class TestSentinelType:
    """Both samplers store steps in the narrowest signed integer type that holds the sentinel.

    UNIFORM2 sees both states within a few steps, so a huge n or cap costs nothing,
    and each table equals the int64 one of the counting oracles.
    """

    TRIALS = BLOCK_TRIALS + 37

    @pytest.mark.parametrize("n,dtype", SENTINEL_TYPES)
    def test_first_visit_table(self, n, dtype):
        fv = first_visit_table(UNIFORM2, n, self.TRIALS, 5, workers=2)
        assert fv.dtype == dtype
        assert np.array_equal(fv, first_visit_table_by_count(UNIFORM2, n, self.TRIALS, 5))

    @pytest.mark.parametrize("cap,dtype", SENTINEL_TYPES)
    def test_hitting_time_samples(self, cap, dtype):
        N = hitting_time_samples(UNIFORM2, state_set([1]), self.TRIALS, 5, workers=2, cap=cap)
        assert N.dtype == dtype
        assert np.array_equal(N, hitting_time_samples_by_tail(UNIFORM2, [1], self.TRIALS, 5, cap))

    @pytest.mark.parametrize("n,dtype", [(126, np.int8), (2 ** 15 - 2, np.int16)])
    def test_sentinel_is_the_type_max(self, n, dtype):
        # state 1 goes unseen and B = {1} unhit: n + 1 and cap + 1 fill the type to its max
        top = np.iinfo(dtype).max
        fv = first_visit_table(STAY2, n, 3, 5)
        assert fv.dtype == dtype and fv.tolist() == [[1, top]] * 3
        N = hitting_time_samples(STAY2, state_set([1]), 3, 5, cap=n)
        assert N.dtype == dtype and N.tolist() == [top] * 3


class TestFirstVisitAgainstExact:
    """Sampled first-visit tables against exact survival and missing-mass laws.

    The seed is fixed in advance; every estimate must fall within 6 standard
    deviations of the exact value, computed from the exact law itself.
    """

    TRIALS = 20_000
    HORIZONS = [1, 2, 4, 8, 16, 32]

    @pytest.mark.parametrize("family,params", [
        ("lazy-cycle", {"m": 5, "hold": 0.5}),
        ("birth-death", {"m": 8, "p": 0.3, "q": 0.3}),
    ])
    def test_survival_and_mean_missing_mass(self, family, params):
        chain = generate(family, **params)
        P, m = chain.matrix, chain.matrix.m
        pi = stationary(P)
        start = chain.resolved_start(pi)
        tau = first_visit_table(chain, max(self.HORIZONS), self.TRIALS, 2024, pi=pi)
        sets = [(0,), (m // 2,), (0, m - 1), tuple(range(m // 2))]
        for members, exact in zip(sets, survival_probabilities(P, start, sets, self.HORIZONS)):
            first = tau[:, list(members)].min(axis=1)
            for n, p in zip(self.HORIZONS, exact):
                hits = int((first > n).sum())
                sd = math.sqrt(self.TRIALS * p * (1 - p))
                assert abs(hits - self.TRIALS * p) <= 6 * sd + 1e-9, (members, n, hits, p)
        unseen = subset_masses(pi.pi)[::-1]
        law = unseen_set_law(P, start, self.HORIZONS)
        singles = survival_probabilities(P, start, [(j,) for j in range(m)], self.HORIZONS)
        for i, n in enumerate(self.HORIZONS):
            mean = float(law[i] @ unseen)
            # E[missing mass] = sum_j pi_j Pr[tau_j > n]
            assert mean == pytest.approx(float(pi.pi @ singles[:, i]), rel=1e-12, abs=1e-300)
            sd = math.sqrt(max(0.0, float(law[i] @ unseen ** 2) - mean ** 2) / self.TRIALS)
            sampled = float(missing_mass_values(tau, pi.pi, n).mean())
            assert abs(sampled - mean) <= 6 * sd + 1e-12, (n, sampled, mean)


class TestHittingSamplesAgainstExact:
    """Sampled hitting times N_B against exact tails Pr[N_B > t], within 6 sd as above."""

    TRIALS = 20_000

    @pytest.mark.parametrize("family,params,members", [
        ("lazy-cycle", {"m": 5, "hold": 0.5}, (2,)),
        ("lazy-cycle", {"m": 10, "hold": 0.9}, (5,)),
        ("birth-death", {"m": 8, "p": 0.3, "q": 0.3}, (0, 7)),
    ])
    def test_hitting_tail(self, family, params, members):
        chain = generate(family, **params)
        pi = stationary(chain.matrix)
        N = hitting_time_samples(chain, state_set(members), self.TRIALS, 2025, pi=pi)
        thresholds = [1, 2, 3, 5, 10, 20, 50, 100]
        exact = survival_probabilities(chain.matrix, chain.resolved_start(pi), [members],
                                       thresholds)[0]
        for t, p in zip(thresholds, exact):
            hits = int((N > t).sum())
            sd = math.sqrt(self.TRIALS * p * (1 - p))
            assert abs(hits - self.TRIALS * p) <= 6 * sd + 1e-9, (members, t, hits, p)


class TestMissingMass:
    def test_iid_n1_is_half(self):
        pi = stationary(UNIFORM2.matrix)
        samples = sample_missing_mass(SimConfig(chain=UNIFORM2, n=1, trials=500, master_seed=7), pi)
        assert all(s.value == 0.5 for s in samples)

    def test_cycle_sees_everything(self):
        pi = stationary(DIRECTED_CYCLE3.matrix)
        samples = sample_missing_mass(
            SimConfig(chain=DIRECTED_CYCLE3, n=3, trials=50, master_seed=1), pi)
        assert all(s.value == 0.0 and len(s.unseen_set) == 0 for s in samples)

    def test_single_state_chain_has_no_missing_mass(self):
        chain = ChainSpec(matrix=validate([[1.0]]))
        pi = stationary(chain.matrix)
        samples = sample_missing_mass(SimConfig(chain=chain, n=1, trials=10, master_seed=4), pi)
        assert all(s.value == 0.0 for s in samples)

    def test_iid_n2_mean(self):
        # E = sum_j pi(j) (1 - pi(j))^2 = 2 * 0.5 * 0.25 = 0.25
        pi = stationary(UNIFORM2.matrix)
        samples = sample_missing_mass(
            SimConfig(chain=UNIFORM2, n=2, trials=100_000, master_seed=13), pi)
        mean = math.fsum(s.value for s in samples) / len(samples)
        se = 0.25 / math.sqrt(len(samples))  # std bound: values in {0, 0.25ish...}
        assert abs(mean - 0.25) < 5 * se

    def test_value_recomputable_from_unseen_set(self):
        chain = generate("random-dense", m=6, seed=21)
        pi = stationary(chain.matrix)
        samples = sample_missing_mass(SimConfig(chain=chain, n=3, trials=300, master_seed=5), pi)
        for s in samples:
            recomputed = float(pi.pi[list(s.unseen_set.members)].sum())
            assert abs(s.value - recomputed) <= 1e-15

    def test_trials_share_one_set_per_unseen_row(self):
        chain = generate("random-dense", m=5, seed=8)
        pi = stationary(chain.matrix)
        samples = sample_missing_mass(SimConfig(chain=chain, n=3, trials=2000, master_seed=6), pi)
        unseen = first_visit_table(chain, 3, 2000, 6, pi=pi) > 3
        assert [s.unseen_set.members for s in samples] == [
            tuple(np.flatnonzero(row).tolist()) for row in unseen]
        by_members = {}
        for s in samples:
            assert by_members.setdefault(s.unseen_set.members, s.unseen_set) is s.unseen_set
        assert len(by_members) == len({row.tobytes() for row in unseen}) < 2000

    @pytest.mark.parametrize("chain,n", [
        (generate("random-dense", m=8, seed=8), 4),
        (generate("lazy-cycle", m=70, hold=0.5), 6),  # a packed row spans 9 bytes
    ], ids=["m8", "m70"])
    def test_groups_match_row_unique(self, chain, n):
        pi = stationary(chain.matrix)
        samples = sample_missing_mass(SimConfig(chain=chain, n=n, trials=3000, master_seed=12), pi)
        unseen = first_visit_table(chain, n, 3000, 12, pi=pi) > n
        rows, which = np.unique(unseen, axis=0, return_inverse=True)
        assert [s.unseen_set.members for s in samples] == [
            tuple(np.flatnonzero(rows[k]).tolist()) for k in which.reshape(-1)]
        assert [s.value for s in samples] == missing_mass_values(unseen, pi.pi, 0).tolist()
        by_row = {}
        for s, k in zip(samples, which.reshape(-1).tolist()):
            assert by_row.setdefault(k, s) is s  # one shared record, and so one StateSet, per row
        assert len({id(s) for s in samples}) == len({id(s.unseen_set) for s in samples}) \
            == len(rows) < 3000

    @pytest.mark.parametrize("workers", [1, 4])
    def test_records_match_rows_across_blocks(self, workers):
        trials = BLOCK_TRIALS + 100
        chain = generate("random-dense", m=7, seed=3)
        pi = stationary(chain.matrix)
        samples = sample_missing_mass(
            SimConfig(chain=chain, n=6, trials=trials, master_seed=17, workers=workers), pi)
        tau = first_visit_table(chain, 6, trials, 17, pi=pi)
        assert [s.value for s in samples] == missing_mass_values(tau, pi.pi, 6).tolist()
        assert [s.unseen_set.members for s in samples] == [
            tuple(np.flatnonzero(row).tolist()) for row in tau > 6]

    def test_batch_values_match_samples(self):
        chain = generate("random-dense", m=5, seed=8)
        pi = stationary(chain.matrix)
        cfg = SimConfig(chain=chain, n=4, trials=200, master_seed=3)
        samples = sample_missing_mass(cfg, pi)
        tau = first_visit_table(chain, 4, 200, 3)
        values = missing_mass_values(tau, pi.pi, 4)
        np.testing.assert_allclose(values, [s.value for s in samples], atol=1e-12)


class TestJointSurvival:
    """Pr[tau_J > n] counted off a first-visit table: min over J of tau_j > n."""

    @staticmethod
    def p_hat(chain, n, trials, seed, members, pi=None):
        tau = first_visit_table(chain, n, trials, seed, pi=pi)
        return float((tau[:, list(members)].min(axis=1) > n).mean())

    def test_full_space_is_zero(self):
        assert self.p_hat(UNIFORM2, 1, 200, 2, [0, 1], stationary(UNIFORM2.matrix)) == 0.0

    def test_iid_exact_law(self):
        # paper-exact: Pr[tau_J > n] = (1 - pi(J))^n = 0.125
        tau = first_visit_table(UNIFORM2, 3, 100_000, 7, pi=stationary(UNIFORM2.matrix))
        assert binom_ok(int((tau[:, 1] > 3).sum()), 100_000, 0.125)

    def test_cycle_needs_more_steps(self):
        assert self.p_hat(DIRECTED_CYCLE3, 1, 100, 3, [2]) == 1.0

    def test_empty_set(self):
        # the exact joint survival refuses an empty J as the CLI does (exit 4, in test_cli)
        with pytest.raises(PreconditionError, match="target set is empty"):
            survival_probabilities(UNIFORM2.matrix, [0.5, 0.5], [()], [1])

    def test_joint_below_singles(self):
        chain = generate("random-dense", m=6, seed=31)
        tau = first_visit_table(chain, 6, 2000, 11, pi=stationary(chain.matrix))
        joint = (tau[:, [0, 2, 4]].min(axis=1) > 6).mean()
        assert joint <= min((tau[:, j] > 6).mean() for j in (0, 2, 4))


class TestHittingTail:
    """Pr[N_B > t] counted off hitting_time_samples."""

    def test_start_inside_target(self):
        chain = ChainSpec(matrix=UNIFORM2.matrix, start=point_start(2, 1))
        N = hitting_time_samples(chain, state_set([1]), 100, 5)
        assert all((N > t).sum() == 0 for t in (1, 2, 5))

    def test_iid_geometric_tail(self):
        pi = stationary(UNIFORM2.matrix)
        N = hitting_time_samples(UNIFORM2, state_set([1]), 100_000, 23, pi=pi)
        assert binom_ok(int((N > 5).sum()), 100_000, 0.5 ** 5)

    def test_deterministic_cycle_convention(self):
        # X_1 = 0, X_2 = 1, X_3 = 2: the start state counts, so N = 3
        N = hitting_time_samples(DIRECTED_CYCLE3, state_set([2]), 50, 2)
        assert [float((N > t).mean()) for t in (1, 2, 3)] == [1.0, 1.0, 0.0]
        assert N.max() == 3  # below the cap: no trial was cut

    @pytest.mark.parametrize("cap", [3, 15, 37])
    def test_cap_is_reported(self, cap):
        # a trial cut at the cap carries the sentinel cap + 1; the tail up to the cap stays exact
        slow = generate("lazy-cycle", m=10, hold=0.9)
        pi = stationary(slow.matrix)
        trials = 100_000
        N = hitting_time_samples(slow, state_set([5]), trials, 9, cap=cap, pi=pi)
        assert N.max() == cap + 1
        thresholds = range(1, cap + 1)
        exact = survival_probabilities(slow.matrix, pi.pi, [(5,)], thresholds)[0]
        for t, p in zip(thresholds, exact):
            assert abs(int((N > t).sum()) - trials * p) <= 6 * math.sqrt(trials * p * (1 - p)), t

    def test_target_is_every_state(self):
        # every X_1 lies in B: the tail is 0 from t = 1
        chain = generate("random-dense", m=4, seed=2)
        N = hitting_time_samples(chain, state_set(range(4)), BLOCK_TRIALS + 3, 11, workers=2)
        assert N.dtype == np.int32 and N.tolist() == [1] * (BLOCK_TRIALS + 3)  # cap + 1 = 10^6 + 1

    def test_mean_on_1084_states(self):
        chain = generate("random-dense", m=1084, seed=8)
        pi = stationary(chain.matrix)
        B = state_set(range(50))
        samples = hitting_time_samples(chain, B, 4000, 12, pi=pi)
        exact = expected_hitting_time(hitting_table(chain.matrix, B), pi.pi)
        se = samples.std(ddof=1) / math.sqrt(samples.size)
        assert abs(samples.mean() - exact) < 4 * se

    def test_cap_past_the_sentinel_range_rejected(self):
        # N_B = cap + 1 marks a cut trial, and must fit an int64
        largest = 2 ** 63 - 2
        with pytest.raises(ValidationError, match=f"^cap must be <= {largest} .* got {largest + 1}$"):
            hitting_time_samples(UNIFORM2, state_set([1]), 100, 9, cap=largest + 1)
        N = hitting_time_samples(UNIFORM2, state_set([1]), 100, 9, cap=largest)
        assert N.max() < 100

    @pytest.mark.parametrize("cap", [0, -3])
    def test_cap_below_one_rejected(self, cap):
        slow = generate("lazy-cycle", m=10, hold=0.9)
        with pytest.raises(ValidationError, match=f"cap must be >= 1, got {cap}"):
            hitting_time_samples(slow, state_set([5]), 100, 9, cap=cap)

    @pytest.mark.parametrize("family,params", [
        ("lazy-cycle", {"m": 32, "hold": 0.5}),
        ("birth-death", {"m": 20, "p": 0.25, "q": 0.25}),
    ])
    def test_mean_on_the_benchmark_chains(self, family, params):
        # mc-sampling's two hitting_time_samples ops: E N_B = 1 + pi h
        chain = generate(family, **params)
        pi = stationary(chain.matrix)
        samples = hitting_time_samples(chain, state_set([0]), 16_384, 3, pi=pi)
        exact = expected_hitting_time(hitting_table(chain.matrix, state_set([0])), pi.pi)
        se = samples.std(ddof=1) / math.sqrt(samples.size)
        assert abs(samples.mean() - exact) < 6 * se

    def test_mean_matches_solver(self):
        chain = generate("random-dense", m=5, seed=41)
        pi = stationary(chain.matrix)
        samples = hitting_time_samples(chain, state_set([2]), 50_000, 19, pi=pi)
        table = hitting_table(chain.matrix, state_set([2]))
        exact = expected_hitting_time(table, pi.pi)
        se = samples.std(ddof=1) / math.sqrt(samples.size)
        assert abs(samples.mean() - exact) < 4 * se + 1e-9


class TestMgf:
    def test_s_zero_is_one(self):
        pi = stationary(UNIFORM2.matrix)
        samples = sample_missing_mass(SimConfig(chain=UNIFORM2, n=2, trials=100, master_seed=3), pi)
        assert empirical_mgf(samples, 0.0) == 1.0

    def test_constant_samples(self):
        pi = stationary(UNIFORM2.matrix)
        samples = sample_missing_mass(SimConfig(chain=UNIFORM2, n=1, trials=64, master_seed=3), pi)
        assert empirical_mgf(samples, 2.0) == pytest.approx(math.e, abs=1e-12)
        assert empirical_mgf(samples, 1.0) == pytest.approx(math.exp(0.5), abs=1e-12)

    def test_accepts_floats_and_shared_records(self):
        pi = stationary(UNIFORM2.matrix)
        samples = sample_missing_mass(SimConfig(chain=UNIFORM2, n=1, trials=8, master_seed=3), pi)
        assert len({id(s) for s in samples}) == 2  # unseen {0} or {1}, each worth 0.5
        mixed = [0.0, *samples, np.float64(0.25)]
        assert empirical_mgf(mixed, 1.0) == empirical_mgf(np.array([0.0] + [0.5] * 8 + [0.25]), 1.0)

    def test_accepts_value_array(self):
        assert empirical_mgf(np.array([0.0, 0.0]), 3.0) == 1.0

    def test_needs_samples(self):
        with pytest.raises(ValidationError):
            empirical_mgf([], 1.0)

    def test_past_the_float_range(self):
        # one term overflows; so does the sum of two that fit
        assert empirical_mgf(np.array([0.0, 1.0]), 800.0) == math.inf
        assert empirical_mgf(np.array([1.0, 1.0]), 709.7) == math.inf
        assert empirical_mgf(np.array([0.0, 1.0]), -800.0) == 0.5

    @pytest.mark.parametrize("s", [1.0, -3.7, 25.0])
    def test_same_sum_as_a_generator_of_scalars(self, s):
        # the mc-sampling benchmark's missing-mass op at seed 3: iid(m=8), n = 16, 32,768 trials
        mu = derive_stream(3_003_009, 0).dirichlet(np.ones(8))
        iid = generate("iid", mu=mu)
        config = SimConfig(chain=iid, n=16, trials=32_768, master_seed=3_003_010)
        values = np.array([x.value for x in sample_missing_mass(config, stationary(iid.matrix))])
        assert empirical_mgf(values, s) == math.fsum(math.exp(s * v) for v in values) / values.size


class TestReproducibility:
    def test_missing_mass_bitwise_reproducible(self):
        chain = generate("random-dense", m=4, seed=2)
        pi = stationary(chain.matrix)
        cfg1 = SimConfig(chain=chain, n=5, trials=BLOCK_TRIALS + 100, master_seed=42, workers=1)
        cfg4 = SimConfig(chain=chain, n=5, trials=BLOCK_TRIALS + 100, master_seed=42, workers=4)
        s1 = sample_missing_mass(cfg1, pi)
        s4 = sample_missing_mass(cfg4, pi)
        assert [s.value for s in s1] == [s.value for s in s4]
        assert [s.unseen_set.members for s in s1] == [s.unseen_set.members for s in s4]

    def test_hitting_samples_reproducible(self):
        chain = generate("random-dense", m=4, seed=2)
        a = hitting_time_samples(chain, state_set([1]), BLOCK_TRIALS * 2 + 5, 7, workers=1)
        for workers in (2, 3):
            b = hitting_time_samples(chain, state_set([1]), BLOCK_TRIALS * 2 + 5, 7, workers)
            assert np.array_equal(a, b), workers

    def test_different_seeds_differ(self):
        chain = generate("random-dense", m=4, seed=2)
        a = hitting_time_samples(chain, state_set([1]), 1000, 7)
        b = hitting_time_samples(chain, state_set([1]), 1000, 8)
        assert not np.array_equal(a, b)


class TestErgodic:
    def test_occupancy_approaches_stationary(self):
        chain = generate("random-dense", m=5, seed=77)
        pi = stationary(chain.matrix)
        freq = occupancy_frequencies(chain, 200_000, 5, pi)
        tv = 0.5 * np.abs(freq - pi.pi).sum()
        assert tv < 0.03

    def test_accepts_generator_or_seed(self):
        a = occupancy_frequencies(UNIFORM2, 3000, 5)
        b = occupancy_frequencies(UNIFORM2, 3000, derive_stream(5, 0))
        assert a.tolist() == b.tolist()

    def test_deterministic_cycle_and_single_state(self):
        # every lane walks 0, 1, 2, 0, ... from the point start
        assert occupancy_frequencies(DIRECTED_CYCLE3, 3 * WALK_LANES, 1).tolist() == [1 / 3] * 3
        assert occupancy_frequencies(ChainSpec(matrix=validate([[1.0]])), 5, 9).tolist() == [1.0]

    def test_never_holds_the_path(self):
        # a 2e6-step path alone takes 15 MiB; 16 steps of every lane at a time take 128 KiB
        chain = generate("random-dense", m=5, seed=77)
        freq, peak = traced_peak(occupancy_frequencies, chain, 2 * 10**6, 5)
        assert peak < 4 * 2 ** 20
        assert freq.sum() == pytest.approx(1.0)


class TestSimConfig:
    @pytest.mark.parametrize("kwargs", [
        dict(n=0, trials=1, master_seed=0),
        dict(n=1, trials=0, master_seed=0),
        dict(n=1, trials=1, master_seed=0, workers=0),
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValidationError):
            SimConfig(chain=UNIFORM2, **kwargs)

    @pytest.mark.parametrize("name,n,trials,workers", [
        ("n", 0, 10, 1), ("trials", 4, 0, 1), ("workers", 4, 10, 0), ("trials", 4, -2, 1),
    ])
    def test_sampler_arguments_below_one(self, name, n, trials, workers):
        value = {"n": n, "trials": trials, "workers": workers}[name]
        with pytest.raises(ValidationError, match=f"^{name} must be >= 1, got {value}$"):
            first_visit_table(UNIFORM2, n, trials, 0, workers)
        if name != "n":
            with pytest.raises(ValidationError, match=f"^{name} must be >= 1, got {value}$"):
                hitting_time_samples(UNIFORM2, state_set([1]), trials, 0, workers)
