"""The shared pieces of the verify suites: horizons, index sets, pairs, vacuous rows,
and the power of the iid suite's test."""

import pytest

from mml import verify
from mml.chain import generate, stationary
from mml.cli import parse_descriptor
from mml.errors import InsufficientTrialsError
from mml.hitting import _mask_members, subset_hitting_times, t_large
from mml.report import render_reports_csv
from mml.verify import VerifyOptions, _disjoint_pairs, run_suite

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
        assert render_reports_csv(twice) == render_reports_csv(once)

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


class TestIidPower:
    """suite_iid at the default trials on its first chain (m = 2) flags a wrong sampler.

    With one chain the row count K, and so the threshold log(2K / delta), is smaller
    than in the full suite; the full suite's power is recorded in CHANGES.md.
    """

    @pytest.fixture(autouse=True)
    def first_chain(self, monkeypatch):
        real = verify._iid_chain_set
        monkeypatch.setattr(verify, "_iid_chain_set", lambda seed: real(seed)[:1])

    @staticmethod
    def _flagged():
        reports, summary = verify.suite_iid(VerifyOptions())
        assert len(summary.violations) == sum(not r.holds for r in reports)
        return [r for r in reports if not r.holds and r.name == "iid-exact-survival"]

    def test_survivals_read_one_step_late(self, monkeypatch):
        # a table drawn to n + 1 steps and shifted by one: tau > n reads Pr[tau_J > n + 1]
        real = verify.first_visit_table
        monkeypatch.setattr(verify, "first_visit_table",
                            lambda chain, n, *args: real(chain, n + 1, *args) - 1)
        assert self._flagged()

    def test_sampler_mu0_times_1_05(self, monkeypatch):
        real = verify._iid_chain_set

        def skewed(seed):
            chain_id, _, mu, sets = real(seed)[0]
            nu = mu.copy()
            nu[0] *= 1.05
            return [(chain_id, generate("iid", mu=nu / nu.sum()), mu, sets)]

        monkeypatch.setattr(verify, "_iid_chain_set", skewed)
        assert self._flagged()
