"""The shared pieces of the verify suites: horizons, index sets, pairs, vacuous rows,
the power of the iid suite's test, and the pinned report bodies."""

import hashlib
import json
from itertools import groupby

import numpy as np
import pytest

from mml import verify
from mml.chain import generate, stationary
from mml.cli import main, parse_descriptor
from mml.errors import InsufficientTrialsError
from mml.hitting import StateSet, _mask_members, check_lemma1, subset_hitting_times_stack, t_large
from mml.report import Labels, ReportBlock, csv_body, render_reports_csv
from mml.simulate import derive_stream
from mml.verify import VerifyOptions, _disjoint_pairs, _pair_count, derive_seed, run_suite

from oracles import disjoint_pairs_by_enumeration

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
    assert disjoint_pairs_by_enumeration(m).tolist() == expected
    assert _disjoint_pairs(m, np.arange(_pair_count(m))).tolist() == expected


@pytest.mark.parametrize("m", range(2, 13))
def test_unranked_pairs_equal_the_listed_sample(m):
    listed = disjoint_pairs_by_enumeration(m)
    assert len(listed) == _pair_count(m)
    for seed in range(4):
        ranks = np.sort(derive_stream(seed, 0).choice(len(listed), size=min(500, len(listed)),
                                                      replace=False))
        assert np.array_equal(_disjoint_pairs(m, ranks), listed[ranks])


def _chain_rows(reports):
    """(m, the chain's rows) per chain of a lemma suite, in order."""
    for chain_id, rows in groupby(reports, key=lambda r: r.metadata["chain_id"]):
        yield int(chain_id.split("m=")[1].split(",")[0]), list(rows)


def test_lemma1_takes_every_pair_when_they_fit():
    opts = VerifyOptions(lemma1_chains=6, lemma1_m_max=5, lemma1_max_pairs=_pair_count(5))
    chains = list(_chain_rows(run_suite("lemma1", opts)[0]))
    assert len(chains) == 6
    for m, rows in chains:
        sets = [_mask_members(mask) for mask in range(1, 1 << m)]
        assert [(r.metadata["A"], r.metadata["B"]) for r in rows] == \
            [(sets[a], sets[b]) for a, b in disjoint_pairs_by_enumeration(m).tolist()]


def test_lemma1_past_twelve_states():
    # at seed 10 the two chains have 5 and 13 states
    reports, summary = run_suite("lemma1", VerifyOptions(seed=10, lemma1_chains=2,
                                                         lemma1_m_max=13))
    assert [(m, len(rows)) for m, rows in _chain_rows(reports)] == [(5, 180), (13, 500)]
    assert summary.ok
    rows = list(reports)[180:]
    P = generate("random-dense", m=13, alpha=1.0, seed=derive_seed(derive_seed(10, 1), 2)).matrix
    pi = stationary(P)
    singles = [check_lemma1(P, pi, StateSet(r.metadata["A"]), StateSet(r.metadata["B"]))
               for r in rows[::50]]
    for single, row in zip(singles, rows[::50]):
        single.chain_id = Labels(single.chain_id.codes, [row.metadata["chain_id"]])
    assert render_reports_csv(ReportBlock.concat(singles)) == \
        render_reports_csv(ReportBlock.concat([reports], np.arange(180, len(reports), 50)))


@pytest.mark.parametrize("suite", ["lemma1", "lemma2"])
def test_chains_past_one_group_give_the_same_block(monkeypatch, suite):
    opts = VerifyOptions(lemma1_chains=12, lemma1_m_max=5, lemma2_chains=12, lemma2_m_max=5)
    reports = run_suite(suite, opts)[0]
    # the groups go by m; the rows come back chain by chain
    numbers = [int(r.metadata["chain_id"].split("#=")[1][:-1]) for r in reports]
    assert numbers == sorted(numbers) and set(numbers) == set(range(12))
    whole = render_reports_csv(reports)
    stacks = []

    def spy(chains):
        stacks.append(len(chains))
        return subset_hitting_times_stack(chains)

    monkeypatch.setattr(verify, "subset_hitting_times_stack", spy)
    # 2 chains of m = 2, 1 of m = 3 or more, per group
    monkeypatch.setattr(verify, "GROUP_ENTRIES", 12)
    assert render_reports_csv(run_suite(suite, opts)[0]) == whole
    assert sum(stacks) == 12 and len(stacks) > 4


@pytest.mark.parametrize("seed", [3, 42])
def test_lemma2_t_half_is_t_large(monkeypatch, seed):
    # the suite reads T(0.5) off the subset array, filtering with the member masses;
    # t_large solves the minimal sets, filtering with subset_masses: the values agree bitwise
    chains = []

    def spy(Ps):
        chains.extend(Ps)
        return subset_hitting_times_stack(Ps)

    monkeypatch.setattr(verify, "subset_hitting_times_stack", spy)
    reports, _ = run_suite("lemma2", VerifyOptions(seed=seed))
    t_half = {r.metadata["chain_id"]: r.metadata["t_half"] for r in reports}
    assert len(chains) == len(t_half) == VerifyOptions().lemma2_chains
    # the spy sees the chains grouped by m; each id names its m and its number
    chains.sort(key=lambda P: P.m)
    by_id = sorted(t_half, key=lambda c: (int(c.split("m=")[1].split(",")[0]),
                                          int(c.split("#=")[1][:-1])))
    assert [t_half[c] for c in by_id] == [t_large(P, stationary(P), 0.5).value for P in chains]


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


def _body_sha256(path) -> str:
    return hashlib.sha256(csv_body(path.read_text()).encode()).hexdigest()


# sha256 of the CSV bodies that `verify all` writes: the exact suites and the summary,
# with the certified c, may change only with a change that means to change results
PINNED_BODIES = {
    3: {"prop1": "9b9c45bea66297e53b2781ab7d5a219dc8893780888f475bef92cea1aed34676",
        "thm1": "be9228704e4da9fd9d7cfa58bc995c3e4bf05c93798e53fd19a5cbc4c541f08e",
        "cor1": "2996102fa1d5fa7088b797cafbaa32ac6761211ec961356e5492d090e44af7d3",
        "cor3": "8652b5195225d2e88df13e27e11e7057a5d333715139f4be91999924856ff6de",
        "summary": "26081b4dd8f3c0a9d3eeb6362e8e3f41d93b4e305e544b70def77c9bbf38ba05"},
    42: {"prop1": "9811f33d61619cebd0d837410ddbfee47a895c1bc2850d6a84ca84e1b30a09c5",
         "thm1": "2c770e43a83855df004a449b1491c7dee5124a0324a8877e125bc6542db07b90",
         "cor1": "a23121ebef3b72fd0c78b8833dcfcc5f864af9221c69a7db0dc0c73b4508bfdc",
         "cor3": "527e47003ccb154cf02365d9feb38ce385efd08632f94030604794add0452033",
         "summary": "134d39a8cc2e8846718c0b5e51c02554178d2152eb675518f1bc79d7e2e07d2b"},
}


@pytest.mark.parametrize("seed", sorted(PINNED_BODIES))
def test_report_bodies_are_pinned(tmp_path, capsys, seed):
    assert main(["verify", "all", "--seed", str(seed), "--out", str(tmp_path)]) == 0
    assert {name: _body_sha256(tmp_path / f"{name}.csv") for name in PINNED_BODIES[seed]} == \
        PINNED_BODIES[seed]


@pytest.mark.parametrize("suite,sha256", [
    # the two-state chain still gets its MGF rows
    ("thm1", "ff270e444bdd1561391b0ed3a20e9310d85eb046327195c34fc9fe12a5c5d91a"),
    ("cor3", "0ac5fe7869daa3c569113a175d7b694aa2c19ec969455d3830c22693739ca36e"),
])
def test_chain_that_fits_no_j_set(tmp_path, capsys, suite, sha256):
    # both sets name state 2 or 3, which the two-state chain lacks
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"chains": [TWO_STATE, LAZY4], "j_sets": [[3], [0, 2]],
                               "n_grid": [2, 4, 8]}))
    assert main(["verify", suite, "--config", str(cfg), "--out", str(tmp_path / "r")]) == 0
    assert _body_sha256(tmp_path / "r" / f"{suite}.csv") == sha256
