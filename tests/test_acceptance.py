"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``. Every criterion is
checked at its stated tolerance on seeded, fully reproducible sweeps;
the heavyweight simulation suites are shared across criteria through
module-scoped fixtures.
"""

import hashlib
import math
import re
import time

import numpy as np
import pytest

from mml.chain import generate, stationary
from mml.cli import main
from mml.hitting import StateSet, expected_hitting_time, hitting_table
from mml.report import csv_body
from mml.verify import VerifyOptions, run_suite

from oracles import survival_sum_expected, survival_sum_table

ACCEPT_SEED = 3  # the default master seed


def report(num, desc, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" [{detail}]" if detail else ""
    print(f"ACCEPTANCE {num:02d} {status} {desc}{suffix}")
    assert ok, f"criterion {num} failed: {desc}{suffix}"


@pytest.fixture(scope="module")
def opts():
    return VerifyOptions(seed=ACCEPT_SEED)


@pytest.fixture(scope="module")
def iid_run(opts):
    return run_suite("iid", opts)


@pytest.fixture(scope="module")
def thm1_run(opts):
    return run_suite("thm1", opts)


def test_criterion_01_lemma1_sweep(opts):
    t0 = time.time()
    reports, summary = run_suite("lemma1", opts)
    elapsed = time.time() - t0
    pair_counts = {}
    for r in reports:
        pair_counts[r.metadata["chain_id"]] = pair_counts.get(r.metadata["chain_id"], 0) + 1
    ok = (summary.checks > 0 and not summary.violations
          and len(pair_counts) == 200 and max(pair_counts.values()) <= 500)
    report(1, "mass-ratio bound on 200 random chains, all disjoint pairs (<=500/chain)",
           ok, f"checks={summary.checks} violations={len(summary.violations)} "
               f"elapsed={elapsed:.1f}s (target 60s)")


def test_criterion_02_lemma2_sweep(opts):
    t0 = time.time()
    reports, summary = run_suite("lemma2", opts)
    elapsed = time.time() - t0
    chains = {r.metadata["chain_id"] for r in reports}
    ok = not summary.violations and len(chains) == 50
    report(2, "T(A) <= 2 T(0.5)/pi(A) on 50 random chains, every non-empty A",
           ok, f"checks={summary.checks} violations={len(summary.violations)} "
               f"elapsed={elapsed:.1f}s (target 300s)")


def test_criterion_03_solver_vs_survival_oracle():
    t0 = time.time()
    rng = np.random.default_rng(ACCEPT_SEED)
    worst = 0.0
    for i in range(50):
        m = int(rng.integers(2, 9))
        chain = generate("random-dense", m=m, alpha=1.0, seed=1000 + i)
        k = int(rng.integers(1, m))
        members = tuple(sorted(rng.choice(m, size=k, replace=False).tolist()))
        table = hitting_table(chain.matrix, StateSet(members))
        h_oracle = survival_sum_table(chain.matrix.rows, members)
        scale = np.maximum(np.abs(h_oracle), 1e-30)
        rel = float(np.max(np.abs(table.h - h_oracle) / scale))
        pi = stationary(chain.matrix)
        e_solver = expected_hitting_time(table, pi.pi)
        e_oracle = survival_sum_expected(chain.matrix.rows, members, pi.pi)
        rel = max(rel, abs(e_solver - e_oracle) / e_oracle)
        worst = max(worst, rel)
    elapsed = time.time() - t0
    report(3, "linear-solve hitting times match truncated survival-sum oracle (rel 1e-6)",
           worst <= 1e-6, f"50 chains, worst rel err={worst:.2e} "
                          f"elapsed={elapsed:.1f}s (target 30s)")


def test_criterion_04_iid_exactness(iid_run):
    reports, _ = iid_run
    survival = [r for r in reports if r.name == "iid-exact-survival"]
    bad = [r for r in survival if not r.holds]
    # singletons plus 20 random sets per chain, deduplicated (m=2 and m=4
    # have tiny subset universes, so fewer than 20 distinct draws survive)
    sets_tested = {(r.metadata["chain_id"], r.metadata["J"]) for r in survival}
    ok = not bad and len(survival) >= 200 and len(sets_tested) >= 30
    report(4, "empirical Pr[tau_J > n] passes the family-wise Chernoff-KL test (delta = 1e-3) "
              "against (1-mu(J))^n, 1e5 trials",
           ok, f"points={len(survival)} sets={len(sets_tested)} misses={len(bad)}")


def test_criterion_05_missing_mass_mean(iid_run):
    reports, _ = iid_run
    means = [r for r in reports if r.name == "iid-mm-mean"]
    bad = [r for r in means if not r.holds]
    report(5, "Monte Carlo missing-mass mean passes the family-wise Chernoff-KL test "
              "(delta = 1e-3) against sum_j pi_j (1-pi_j)^n, 1e5 trials",
           bool(means) and not bad, f"points={len(means)} misses={len(bad)}")


def test_criterion_06_hitting_tail_bound(opts):
    reports, summary = run_suite("prop1", opts)
    chains = {}
    for r in reports:
        chains.setdefault(r.metadata["chain_id"], []).append(r)
    exact = all(r.ci == 0.0 for r in reports)
    # each chain's thresholds reach 50 E N_B
    reach = all(max(r.metadata["t"] for r in rows) == math.ceil(50 * rows[0].metadata["expected"])
                for rows in chains.values())
    ok = not summary.violations and len(chains) == 20 and exact and reach
    report(6, "exact Pr[N_B > t] <= exp(-floor(t/ceil(e E N_B))), t <= 50 E N_B",
           ok, f"chains={len(chains)} checks={summary.checks} "
               f"violations={len(summary.violations)} exact={exact} reaches_50E={reach}")


def test_criterion_07_joint_survival_default_constants(thm1_run):
    reports, summary = thm1_run
    joint = [r for r in reports if r.name == "thm1-joint-survival"]
    bad = [r for r in joint if not r.holds]
    certified = summary.extras.get("certified_c")
    ok = (bool(joint) and not bad and certified is not None
          and certified > 1.0 / (2.0 * math.e))
    report(7, "Pr[tau_J > n] <= exp(-n pi(J) / (2e T(0.5))) + CI on the family suite",
           ok, f"points={len(joint)} misses={len(bad)} certified_c={certified}")


def test_criterion_08_mgf_domination(thm1_run):
    reports, _ = thm1_run
    mgf = [r for r in reports if r.name.startswith("thm1-mgf-")]
    forms = {r.name for r in mgf}
    bad = [r for r in mgf if not r.holds]
    ok = forms == {"thm1-mgf-eq3form", "thm1-mgf-cor1form"} and not bad
    report(8, "empirical missing-mass MGF <= Bernoulli-product MGF at s in {0.5,1,2}",
           ok, f"points={len(mgf)} misses={len(bad)} forms={sorted(forms)}")


def test_criterion_09_ergodic_sanity(opts):
    reports, summary = run_suite("ergodic", opts)
    tv = reports[0].value
    report(9, "occupancy frequencies at n=1e6 within TV 0.01 of pi (5-state chain)",
           not summary.violations and reports[0].metadata["steps"] == 10**6,
           f"tv={tv:.4f}")


def test_criterion_10_determinism(tmp_path):
    dirs = [tmp_path / "run1", tmp_path / "run2"]
    codes = [main(["verify", "all", "--seed", "42", "--out", str(d)]) for d in dirs]
    names = sorted(p.name for p in dirs[0].glob("*.csv"))
    identical = bool(names) and codes == [0, 0] and all(
        csv_body((dirs[0] / n).read_text()) == csv_body((dirs[1] / n).read_text())
        for n in names)
    report(10, "two runs of `verify all --seed 42` exit 0 and yield byte-identical CSV bodies",
           identical, f"files={len(names)} exit={codes}")


def test_criterion_11_falsifiability(tmp_path, capsys):
    rc = main(["verify", "thm1", "--seed", str(ACCEPT_SEED), "--c", "100",
               "--out", str(tmp_path)])
    rows = (tmp_path / "violations.csv").read_text().splitlines()
    capsys.readouterr()
    report(11, "`verify thm1 --c 100` reports violations and exits nonzero",
           rc != 0 and len(rows) > 1, f"exit={rc} violations={len(rows) - 1}")


@pytest.mark.parametrize("suite,count,sha256", [
    ("thm1", 571, "1e32f6489ab702447015a1844d2c5e5214070b34c9a11c242291680fc92e8c30"),
    ("cor3", 255, "e55fcc651efedac35eb60940451faa18d040c04a4801d659750fdbd58c61c01a"),
], ids=["thm1", "cor3"])
def test_violations_keep_their_coordinates(tmp_path, capsys, suite, count, sha256):
    # every violation names its set and horizon as the report rows do: n=4, J=0|1
    assert main(["verify", suite, "--seed", str(ACCEPT_SEED), "--c", "100",
                 "--out", str(tmp_path)]) == 1
    text = (tmp_path / "violations.csv").read_text()
    assert len(text.splitlines()) - 1 == count
    assert re.search(r",[JA]=\d+\|\d+(\|\d+)*;", text)
    assert re.search(r";[nt]=4;", text)
    assert hashlib.sha256(text.encode()).hexdigest() == sha256
