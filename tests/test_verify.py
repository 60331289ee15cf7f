"""The shared pieces of the verify suites: horizons, index sets, pairs, vacuous rows,
the power of the iid suite's test, and the pinned report bodies."""

import csv
import hashlib
import json
import re
from dataclasses import replace
from itertools import groupby

import numpy as np
import pytest

from mml import simulate, verify
from mml.chain import generate, parse_descriptor, stationary
from mml.cli import main
from mml.errors import InsufficientTrialsError, ValidationError
from mml.hitting import StateSet, subset_hitting_times_stack, subset_members, t_large
from mml.report import ReportBlock, csv_body, render_reports_csv
from mml.simulate import derive_stream
from mml.verify import VerifyOptions, _disjoint_pairs, _pair_count, check_lemma1, derive_seed, run_suite

from oracles import disjoint_pairs_by_enumeration, mask_members

LAZY4 = "lazy-cycle:m=4;hold=0.5"  # T(0.5) = 4
TWO_STATE = "two-state:p=0.1;q=0.2"  # T(0.5) = 5.000000000000001
SLOW = "two-state:p=0.01;q=0.01"  # T(0.5) = 99.99999999999991


def _rows(suite, descriptor, n_grid=None, j_sets=((0,),)):
    # cor1 reads no j_sets, and rejects them
    j_sets = list(j_sets) if suite in verify.OVERRIDE_READERS["j_sets"] else None
    opts = VerifyOptions(chains=[parse_descriptor(descriptor)], j_sets=j_sets, n_grid=n_grid)
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
    keys = [mask_members(mask) for mask in range(1, 1 << m)]
    expected = [[a, b] for a in range(len(keys)) for b in range(len(keys))
                if not set(keys[a]) & set(keys[b])]
    assert disjoint_pairs_by_enumeration(m).tolist() == expected
    assert _disjoint_pairs(subset_members(m), np.arange(_pair_count(m))).tolist() == expected


@pytest.mark.parametrize("m", range(2, 13))
def test_unranked_pairs_equal_the_listed_sample(m):
    listed = disjoint_pairs_by_enumeration(m)
    assert len(listed) == _pair_count(m)
    for seed in range(4):
        ranks = np.sort(derive_stream(seed, 0).choice(len(listed), size=min(500, len(listed)),
                                                      replace=False))
        assert np.array_equal(_disjoint_pairs(subset_members(m), ranks), listed[ranks])


def _chain_rows(reports):
    """(m, the chain's rows) per chain of a lemma suite, in order."""
    for chain_id, rows in groupby(reports, key=lambda r: r.metadata["chain_id"]):
        yield int(chain_id.split("m=")[1].split(";")[0]), list(rows)


def test_lemma1_takes_every_pair_when_they_fit():
    opts = VerifyOptions(lemma1_chains=6, lemma1_m_max=5, lemma1_max_pairs=_pair_count(5))
    chains = list(_chain_rows(run_suite("lemma1", opts)[0]))
    assert len(chains) == 6
    for m, rows in chains:
        sets = [mask_members(mask) for mask in range(1, 1 << m)]
        assert [(r.metadata["A"], r.metadata["B"]) for r in rows] == \
            [(sets[a], sets[b]) for a, b in disjoint_pairs_by_enumeration(m).tolist()]


def test_lemma1_past_twelve_states():
    # at seed 10 the two chains have 5 and 13 states
    reports, summary = run_suite("lemma1", VerifyOptions(seed=10, lemma1_chains=2,
                                                         lemma1_m_max=13))
    assert [(m, len(rows)) for m, rows in _chain_rows(reports)] == [(5, 180), (13, 500)]
    assert summary.ok
    rows = list(reports)[180:]
    # the second chain's id names its seed, and rebuilds it
    chain_id = f"random-dense:m=13;seed={derive_seed(derive_seed(10, 1), 2)}"
    assert {r.metadata["chain_id"] for r in rows} == {chain_id}
    P = parse_descriptor(chain_id)[1].matrix
    pi = stationary(P)
    singles = [check_lemma1(P, pi, StateSet(r.metadata["A"]), StateSet(r.metadata["B"]), chain_id)
               for r in rows[::50]]
    assert render_reports_csv(ReportBlock.concat(singles)) == \
        render_reports_csv(ReportBlock.concat([reports], np.arange(180, len(reports), 50)))


def test_lemma1_labels_only_the_sets_of_its_rows():
    # the chain of 13 states has 8,191 subsets, of which its 500 pairs name at most 1,000
    reports = run_suite("lemma1", VerifyOptions(seed=10, lemma1_chains=2, lemma1_m_max=13))[0]
    for key in ("A", "B"):
        assert len(reports.params[key].labels) <= len(reports) == 680


@pytest.mark.parametrize("suite", ["lemma1", "lemma2"])
def test_chains_past_one_group_give_the_same_block(monkeypatch, suite):
    opts = VerifyOptions(lemma1_chains=12, lemma1_m_max=5, lemma2_chains=12, lemma2_m_max=5)
    reports = run_suite(suite, opts)[0]
    # the groups go by m; the rows come back chain by chain, chain i drawn from seed i + 1
    suite_seed = derive_seed(opts.seed, {"lemma1": 1, "lemma2": 2}[suite])
    seeds = [int(chain_id.split("seed=")[1]) for chain_id, _ in
             groupby(r.metadata["chain_id"] for r in reports)]
    assert seeds == [derive_seed(suite_seed, i + 1) for i in range(12)]
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
def test_lemma2_t_half_is_t_large(seed):
    # the suite reads T(0.5) off the subset array, filtering with the member masses;
    # t_large solves the minimal sets, filtering with subset_masses: the values agree bitwise
    reports, _ = run_suite("lemma2", VerifyOptions(seed=seed))
    t_half = {r.metadata["chain_id"]: r.metadata["t_half"] for r in reports}
    assert len(t_half) == VerifyOptions().lemma2_chains
    # each id rebuilds its chain
    Ps = [parse_descriptor(chain_id)[1].matrix for chain_id in t_half]
    assert list(t_half.values()) == [t_large(P, stationary(P), 0.5).value for P in Ps]


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


def test_ergodic_flags_a_walk_on_a_perturbed_P(monkeypatch):
    # a fifth of each row's mass on state 0 moves to state 1; the start law (pi) stays
    real = simulate._cumulative_rows

    def perturbed(chain, pi):
        cum = real(chain, pi)
        cum[:-1, 0] *= 0.8
        return cum

    monkeypatch.setattr(simulate, "_cumulative_rows", perturbed)
    reports, summary = verify.suite_ergodic(VerifyOptions())
    assert [r.holds for r in reports] == [False] and len(summary.violations) == 1


def _body_sha256(path) -> str:
    return hashlib.sha256(csv_body(path.read_text()).encode()).hexdigest()


# sha256 of the CSV bodies that `verify all` writes: the lemma and exact suites and the
# summary, with the certified c, may change only with a change that means to change results
PINNED_BODIES = {
    3: {"lemma1": "f2a4959d24f76af0f91934cd63a7aeff6f97a4d38cb7cf3956f6991765946457",
        "lemma2": "c79fcebe921a2f57de043248b6aa0ddef9f8af5c1d4bac498575742d94cb4549",
        "prop1": "c2fe64ce6915cf816bccfa00d97c2c68814bc2b7d0bb85d87b2a10f3991feb3a",
        "thm1": "96ccf7e9e2b7f39f0f03445297970af20a8929c725d05dfa802fe313d2d7492b",
        "cor1": "2dba527f59190a81a325c1d0d603733f5731317e68ac5de61cd7a3bf32db35f3",
        "cor3": "ef4e838cfe535d6c9cf56a17fa793871faa5a5fbba36b4957dba9a73e93a52db",
        "summary": "26081b4dd8f3c0a9d3eeb6362e8e3f41d93b4e305e544b70def77c9bbf38ba05"},
    42: {"lemma1": "694abef051573302abaae44e67067a42566f4193e58c7fe6e6cab9afd146f60c",
         "lemma2": "40500cfa3224ddaa448118958c3df703c93da53126d8efc5eea1762b9fc419b6",
         "prop1": "0d8cb01fe1335e70631258741b390803ee98f92df6de786abf99f66d1feb082f",
         "thm1": "e95c68114583ddd7447e40f7048fefc785d643ee02b0cb1ed0938a339c6195b6",
         "cor1": "3cdc4285eff9c0aed678f51b1748aa39f27814c02be5fafbc80b91f518208582",
         "cor3": "d43aefdf282828e26a534a493798c2b2ad0e7089983bddd3d4d76ddc7d7423d5",
         "summary": "134d39a8cc2e8846718c0b5e51c02554178d2152eb675518f1bc79d7e2e07d2b"},
}


@pytest.mark.parametrize("seed", sorted(PINNED_BODIES))
def test_report_bodies_are_pinned(tmp_path, capsys, seed):
    assert main(["verify", "all", "--seed", str(seed), "--out", str(tmp_path)]) == 0
    assert {name: _body_sha256(tmp_path / f"{name}.csv") for name in PINNED_BODIES[seed]} == \
        PINNED_BODIES[seed]


@pytest.mark.parametrize("suite,sha256", [
    # the two-state chain still gets its MGF rows
    ("thm1", "7be5ee52455592fbcd9b9b9866ae4cd1818fbd2533295760b26a62ec325c5b5d"),
    ("cor3", "5dcd0cdb4edd0b4446d1a6d026ebf67998d8dac7b0338ffc3d78994a0374c26e"),
])
def test_chain_that_fits_no_j_set(tmp_path, capsys, suite, sha256):
    # both sets name state 2 or 3, which the two-state chain lacks
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"chains": [TWO_STATE, LAZY4], "j_sets": [[3], [0, 2]],
                               "n_grid": [2, 4, 8]}))
    assert main(["verify", suite, "--config", str(cfg), "--out", str(tmp_path / "r")]) == 0
    assert _body_sha256(tmp_path / "r" / f"{suite}.csv") == sha256


@pytest.mark.parametrize("suite,override", [("prop1", {"j_sets": [[0]]}),
                                            ("prop1", {"n_grid": [8]}), ("cor1", {"j_sets": [[0]]})])
def test_overrides_a_suite_is_not_listed_for_change_nothing(suite, override):
    # so OVERRIDE_READERS may reject them: the suite's rows are the same with and without
    base = VerifyOptions(chains=[parse_descriptor(LAZY4)])
    assert suite not in verify.OVERRIDE_READERS[next(iter(override))]
    given = replace(base, **override)
    suite_fn = verify.SUITES[suite]
    assert render_reports_csv(suite_fn(base)[0]) == render_reports_csv(suite_fn(given)[0])
    with pytest.raises(ValidationError, match="would check nothing"):
        run_suite(suite, given)


@pytest.mark.parametrize("options,message", [
    (dict(trials=1.5), "trials must be an integer, got 1.5"),
    (dict(c=True), "c must be a number, got True"),
    (dict(c2=0), "c2 must be > 0 and finite, got 0"),
    (dict(n_grid=[0, 4]), "n_grid must be a non-empty list of integers >= 1, got [0, 4]"),
])
@pytest.mark.parametrize("suite", ["iid", "cor1"])
def test_python_api_checks_options_before_any_suite(monkeypatch, options, message, suite):
    # direct callers get the checks the CLI gets: type and range, before any suite runs
    for name in verify.SUITE_ORDER:
        monkeypatch.setitem(verify.SUITES, name, lambda opts: pytest.fail("a suite ran"))
    with pytest.raises(ValidationError, match=re.escape(message)):
        run_suite(suite, VerifyOptions(**options))
    with pytest.raises(ValidationError, match=re.escape(message)):
        verify.run_all(VerifyOptions(**options))


# --- every row replays from its own cells ----------------------------------------

# a small `verify all`: few lemma chains, the default thm1/cor1/cor3 chains, and 12 prop1
# chains, so both random chains and every prop1 family appear
SMALL_RUN = ["--seed", "3", "--lemma1-chains", "3", "--lemma1-m-max", "5", "--lemma1-max-pairs", "20",
             "--lemma2-chains", "3", "--lemma2-m-max", "4", "--prop1-chains", "12",
             "--trials", "200"]


def _small_run(out) -> dict:
    """The body lines of each suite of SMALL_RUN written to ``out``, header first."""
    assert main(["verify", "all", *SMALL_RUN, "--out", str(out)]) == 0
    return {name: csv_body((out / f"{name}.csv").read_text()).splitlines()
            for name in verify.SUITE_ORDER}


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    return _small_run(tmp_path_factory.mktemp("small-run"))


def _cells(lines) -> list[dict]:
    """Each row as its chain_id, name, value and params (a dict of the params cell)."""
    return [{**row, "params": dict(kv.split("=", 1) for kv in row["params"].split(";"))}
            for row in csv.DictReader(lines)]


def _printed(capsys, argv) -> str:
    assert main(argv) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("suite,sets", [("lemma1", ("A", "B")), ("lemma2", ("A",))])
def test_hit_reprints_every_lemma_row(small_run, capsys, suite, sets):
    header, *lines = small_run[suite]
    assert lines
    for line, row in zip(lines, _cells([header, *lines])):
        flags = [x for key in sets for x in ("--" + key, row["params"][key])]
        out = _printed(capsys, ["hit", suite, "--chain", row["chain_id"], *flags])
        assert csv_body(out).splitlines() == [header, line]


@pytest.mark.parametrize("suite,name,keys", [("thm1", "thm1-joint-survival", ("J", "n")),
                                             ("cor3", "cor3-explicit-tail", ("A", "t")),
                                             ("prop1", "prop1-tail", ("B", "t"))])
def test_hit_survival_reprints_every_survival(small_run, capsys, suite, name, keys):
    rows = [r for r in _cells(small_run[suite]) if r["name"] == name]
    assert rows
    by_set = {}
    for r in rows:
        by_set.setdefault((r["chain_id"], r["params"][keys[0]]), {})[r["params"][keys[1]]] = r["value"]
    for (chain_id, members), values in by_set.items():
        out = _printed(capsys, ["hit", "survival", "--chain", chain_id,
                                "--B", members, "--t", ",".join(values)])
        assert dict(line.split(",") for line in csv_body(out).splitlines()[1:]) == values


@pytest.mark.parametrize("suite,name,keys", [("thm1", "thm1-joint-survival", ("J", "n")),
                                             ("cor3", "cor3-explicit-tail", ("A", "t"))])
def test_jointbound_reprints_every_survival_bound(small_run, capsys, suite, name, keys):
    # the suites take each bound from joint_survival_bound, pi(J) summed by
    # StationaryDistribution.mass, so the bounds command prints the cell as written
    rows = [r for r in _cells(small_run[suite]) if r["name"] == name]
    assert rows
    for r in rows:
        p = r["params"]
        out = _printed(capsys, ["bounds", "jointbound", "--chain", r["chain_id"], "--J", p[keys[0]],
                                "--n", p[keys[1]], "--c", p["c"], "--T", p["t_half"]])
        assert out == r["bound"] + "\n", r


def test_iidsurv_reprints_every_exact_survival(small_run, capsys):
    rows = [r for r in _cells(small_run["iid"]) if r["name"] == "iid-exact-survival"]
    assert rows
    for r in rows:
        out = _printed(capsys, ["bounds", "iidsurv", "--pi", r["chain_id"].removeprefix("iid:mu="),
                                "--J", r["params"]["J"], "--n", r["params"]["n"]])
        assert out == r["params"]["exact"] + "\n", r


def _verdicts(reports: ReportBlock, name: str, tol: float) -> np.ndarray:
    """value <= bound + tol, and for lemma1 also value * t_minus <= t_plus + tol."""
    holds = reports.value <= reports.bound + tol
    if name == "lemma1":
        holds &= reports.value * reports.params["t_minus"] <= reports.params["t_plus"] + tol
    return holds


@pytest.mark.parametrize("tol", [verify.INEQUALITY_TOL, -np.inf])
def test_one_verdict_decides_every_row(monkeypatch, tol):
    # every suite's holds comes from its (value, bound) cells and lemma1's product form alone:
    # at -inf no row holds, so a suite that compares by its own rule fails one of the two
    monkeypatch.setattr(verify, "INEQUALITY_TOL", tol)
    opts = VerifyOptions(seed=3) if tol == verify.INEQUALITY_TOL else VerifyOptions(
        seed=3, lemma1_chains=3, lemma2_chains=3, prop1_chains=12, trials=200)
    results = verify.run_all(opts)
    assert [name for name, *_ in results] == list(verify.SUITE_ORDER)
    for name, reports, _ in results:
        assert len(reports)
        assert np.array_equal(reports.holds, _verdicts(reports, name, tol)), name


def test_every_chain_id_is_a_chain_source(small_run, capsys):
    ids = {r["chain_id"] for lines in small_run.values() for r in csv.DictReader(lines)}
    # 3 + 3 lemma chains, 3 iid, 12 prop1 (3 of them thm1's), thm1's 3 random chains, the
    # random chain of cor1 and of cor3, each drawn from its suite's seed, and 1 ergodic
    assert len(ids) == 27
    for chain_id in ids:
        assert _printed(capsys, ["chain", "validate", "--chain", chain_id]).startswith("ok m=")


def test_default_chains_read_no_file(small_run, tmp_path, monkeypatch):
    # a file named like each default chain's id, in the working directory, changes nothing
    monkeypatch.chdir(tmp_path)
    ids = {r["chain_id"] for lines in small_run.values() for r in csv.DictReader(lines)}
    for chain_id in ids:
        (tmp_path / chain_id).write_text("not a chain file")
    assert _small_run(tmp_path / "r") == small_run
