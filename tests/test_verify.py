"""The shared pieces of the verify suites: horizons, index sets, pairs, vacuous rows."""

import numpy as np
import pytest

from mml import verify
from mml.chain import stationary
from mml.cli import parse_descriptor
from mml.errors import InsufficientTrialsError
from mml.hitting import _mask_members, subset_hitting_times, t_large
from mml.verify import (
    IID_HORIZONS,
    VerifyOptions,
    _disjoint_pairs,
    _iid_chain_set,
    binom_region_99,
    derive_seed,
    run_suite,
)

LAZY4 = "lazy-cycle:m=4;hold=0.5"  # T(0.5) = 4
TWO_STATE = "two-state:p=0.1;q=0.2"  # T(0.5) = 5.000000000000001
SLOW = "two-state:p=0.01;q=0.01"  # T(0.5) = 99.99999999999991


def _rows(suite, descriptor, n_grid=None, j_sets=((0,),)):
    opts = VerifyOptions(chains=[parse_descriptor(descriptor)], j_sets=list(j_sets),
                         n_grid=n_grid)
    return run_suite(suite, opts)[0]


def _horizons(suite, descriptor, n_grid=None):
    name, key = {"thm1": ("thm1-joint-survival", "n"), "cor1": ("cor1-upper-tail", "n"),
                 "cor3": ("cor3-explicit-tail", "t")}[suite]
    return sorted({r.metadata[key] for r in _rows(suite, descriptor, n_grid) if r.name == name})


class TestHorizonRule:
    def test_thm1_powers_of_two_to_128_plus_ceil_t(self):
        assert _horizons("thm1", TWO_STATE) == [6, 8, 16, 32, 64, 128]
        assert _horizons("thm1", SLOW) == [100, 128]

    def test_cor1_powers_of_two_to_64_plus_ceil_t(self):
        assert _horizons("cor1", TWO_STATE) == [6, 8, 16, 32, 64]
        # nothing at or below the cap: falls back to ceil T(0.5)
        assert _horizons("cor1", SLOW) == [100]

    def test_cor3_multiples_of_t_capped_at_512(self):
        assert _horizons("cor3", TWO_STATE) == [6, 11, 16, 26, 41, 61]
        assert _horizons("cor3", SLOW) == [100, 200, 300, 500]

    def test_cor3_override_above_512_dropped(self):
        assert _horizons("cor3", LAZY4, n_grid=[8, 600]) == [8]

    def test_thm1_cor1_overrides_not_capped(self):
        assert _horizons("thm1", LAZY4, n_grid=[8, 200]) == [8, 200]
        assert _horizons("cor1", LAZY4, n_grid=[8, 100]) == [8, 100]

    @pytest.mark.parametrize("suite", ["thm1", "cor1", "cor3"])
    def test_override_filtered_to_t_half(self, suite):
        assert _horizons(suite, LAZY4, n_grid=[1, 2, 6, 9]) == [6, 9]
        assert _horizons(suite, LAZY4, n_grid=[1, 2]) == [4]


class TestJSets:
    @pytest.mark.parametrize("suite", ["thm1", "cor3"])
    def test_repeated_state_counts_once(self, suite):
        twice = _rows(suite, LAZY4, n_grid=[4, 8], j_sets=[[1, 1]])
        once = _rows(suite, LAZY4, n_grid=[4, 8], j_sets=[[1]])
        assert [r.csv_cells() for r in twice] == [r.csv_cells() for r in once]

    @pytest.mark.parametrize("suite", ["thm1", "cor3"])
    def test_every_state(self, suite):
        # pi of this chain sums to 1.0000000000000002
        rows = _rows(suite, "random-dense:m=5;seed=4", n_grid=[8, 16],
                     j_sets=[[0], [0, 1, 2, 3, 4]])
        every = [r for r in rows if r.metadata.get("J", r.metadata.get("A")) == (0, 1, 2, 3, 4)]
        assert [r.value for r in every] == [0.0, 0.0]


class TestSingleStateChain:
    # T(0.5) = 0: every bound is vacuous, and nothing constrains c
    def test_cor3_rows_vacuous(self):
        rows = _rows("cor3", "iid:mu=1")
        assert rows and all(r.vacuous and r.holds for r in rows)

    def test_cor1_rows_vacuous(self):
        rows = _rows("cor1", "iid:mu=1")
        assert rows and all(r.vacuous and r.holds for r in rows)

    def test_thm1_cannot_calibrate(self):
        with pytest.raises(InsufficientTrialsError, match="no instance constrains c"):
            _rows("thm1", "iid:mu=1")


@pytest.mark.parametrize("m", range(1, 9))
def test_disjoint_pairs_in_bitmask_order(m):
    keys = [_mask_members(mask) for mask in range(1, 1 << m)]
    expected = [[a, b] for a in range(len(keys)) for b in range(len(keys))
                if not set(keys[a]) & set(keys[b])]
    assert _disjoint_pairs(m).tolist() == expected


@pytest.mark.parametrize("seed", [3, 42])
def test_lemma2_t_half_is_t_large(monkeypatch, seed):
    # the suite reads T(0.5) off the subset array, filtering with pi.mass; t_large
    # solves the minimal sets, filtering with subset_masses: the values agree bitwise
    chains = []

    def spy(P):
        chains.append(P)
        return subset_hitting_times(P)

    monkeypatch.setattr(verify, "subset_hitting_times", spy)
    reports, _ = run_suite("lemma2", VerifyOptions(seed=seed))
    t_half = {r.metadata["chain_id"]: r.metadata["t_half"] for r in reports}
    assert len(chains) == len(t_half) == VerifyOptions().lemma2_chains
    assert list(t_half.values()) == [t_large(P, stationary(P), 0.5).value for P in chains]


def _iid_suite_probabilities(seeds) -> list[float]:
    """Every exact survival p = (1 - pi(J))^n the iid suite checks at these master seeds."""
    ps = set()
    for seed in seeds:
        for _, _, mu, sets in _iid_chain_set(derive_seed(seed, 3)):
            for members in sets:
                mass = float(mu[list(members)].sum())
                ps.update(max(0.0, 1.0 - mass) ** n for n in IID_HORIZONS)
    return sorted(ps)


class TestBinomRegion:
    """The quantiles equal scipy's ``binom.ppf`` (the smallest k with cdf(k) >= q)."""

    @staticmethod
    def _check(trials, ps):
        from scipy.stats import binom

        expected = binom.ppf([0.005, 0.995], trials, np.asarray(ps)[:, None]).astype(int)
        got = np.array([binom_region_99(trials, p) for p in ps])
        assert got.tolist() == expected.tolist()

    def test_iid_suite_probabilities_at_seeds_0_to_49(self):
        self._check(VerifyOptions().trials, _iid_suite_probabilities(range(50)))

    @pytest.mark.parametrize("trials", [2_000, 20_000, 100_000])
    def test_log_uniform_grid_and_ends(self, trials):
        grid = np.geomspace(1e-12, 1.0, 1500, endpoint=False).tolist()
        self._check(trials, grid + [0.0, 1e-300, 1.0 - 1e-16, 1.0])
