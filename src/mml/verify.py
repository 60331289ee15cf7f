"""Inequality verification sweeps.

Each suite checks one family of bounds on a seeded collection of chains
and returns per-check reports plus a summary. Suites are deterministic
functions of their options: the seed schedule for ``run_all`` is derived
from the master seed with a fixed counter, so two runs with the same
seed produce byte-identical CSV bodies.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from . import bounds as bnd
from .chain import generate, stationary
from .errors import ValidationError
from .hitting import (
    ENUMERATION_MAX_STATES,
    INEQUALITY_TOL,
    StateSet,
    _mask_members,
    expected_hitting_time,
    hitting_table,
    lemma1_reports,
    lemma2_reports,
    subset_hitting_times,
    subset_masses,
    survival_probabilities,
    t_large,
    unseen_set_law,
)
from .report import BoundReport, ReportBlock
from .simulate import derive_stream, first_visit_table, missing_mass_values, occupancy_frequencies

# run lengths n of the iid suite's survival and missing-mass checks
IID_HORIZONS = (1, 2, 4, 8, 16, 32, 64)
# family-wise false-alarm rate of the iid suite: a run flags a correct sampler with
# probability at most this
IID_DELTA = 1e-3

SUITE_ORDER = ("lemma1", "lemma2", "iid", "prop1", "thm1", "cor1", "cor3", "ergodic")


def derive_seed(master_seed: int, index: int) -> int:
    """Stable sub-seed for suite/chain number ``index``."""
    return int(derive_stream(master_seed, 0x5EED0000 + index).integers(0, 2**63))


@dataclass
class VerifyOptions:
    """Suite sizes and constants; defaults match the acceptance sweep.

    prop1, thm1, cor1 and cor3 compare the bounds with exact survival
    probabilities and exact missing-mass laws, so they do not depend on
    ``trials``, which sizes only the iid Monte Carlo suite.
    The CLI reads its config keys, and the flags named like a field, from
    these fields; a value must have the type of the field's default.
    """

    seed: int = 3
    workers: int = 1
    trials: int = 100_000
    lemma1_chains: int = 200
    lemma1_m_max: int = 8
    lemma1_max_pairs: int = 500
    lemma2_chains: int = 50
    lemma2_m_max: int = 10
    prop1_chains: int = 20
    c: float = bnd.DEFAULT_C
    c2: float = bnd.DEFAULT_C2
    epsilon: float = 0.5
    ergodic_steps: int = 1_000_000
    # optional overrides for the chain-family suites (prop1/thm1/cor1/cor3):
    # explicit chains as (chain_id, ChainSpec), explicit J-families, and an
    # explicit n-grid (still filtered to n >= T(0.5) per chain; cor3 drops n > 512)
    chains: list | None = None
    j_sets: list | None = None
    n_grid: list | None = None


@dataclass
class VerificationSummary:
    """Pass/fail counts plus reproduction coordinates for every violation."""

    suite: str
    seed: int
    checks: int = 0
    passed: int = 0
    vacuous: int = 0
    violations: list[dict] = field(default_factory=list)
    extras: dict = field(default_factory=dict)

    @classmethod
    def from_reports(cls, suite: str, seed: int, reports: ReportBlock,
                     extras=None) -> "VerificationSummary":
        """Counts from the block's ``holds`` and ``vacuous`` columns; a row passes when it
        holds or is vacuous, and every other row is a violation."""
        passed = reports.holds | reports.vacuous
        violations = []
        for i in np.flatnonzero(~passed).tolist():
            r = reports[i]
            coords = {"suite": suite, "seed": seed, "name": r.name,
                      "bound": r.bound_value, "value": r.value, "ci": r.ci}
            coords.update(r.metadata)
            violations.append(coords)
        return cls(suite=suite, seed=seed, checks=len(reports), passed=int(passed.sum()),
                   vacuous=int(reports.vacuous.sum()), violations=violations,
                   extras=dict(extras or {}))

    @property
    def ok(self) -> bool:
        return not self.violations


def _result(suite: str, opts: VerifyOptions, reports: ReportBlock, extras=None):
    """A suite's (reports, summary)."""
    return reports, VerificationSummary.from_reports(suite, opts.seed, reports, extras)


def _random_subset(rng, m: int, size_hi: int) -> tuple[int, ...]:
    k = int(rng.integers(1, size_hi + 1))
    return tuple(sorted(int(x) for x in rng.choice(m, size=k, replace=False)))


def _index_sets(rng, m: int, extra: int, size_hi: int) -> list[tuple[int, ...]]:
    """Every singleton, then ``extra`` random sets of 1..size_hi states, repeats dropped."""
    sets = [(j,) for j in range(m)]
    for _ in range(extra):
        members = _random_subset(rng, m, size_hi)
        if members not in sets:
            sets.append(members)
    return sets


# --- analytic suites --------------------------------------------------------


def _random_chains(seed: int, count: int, m_max: int, picker):
    """(chain_id, pi, sets, h) of the lemma suites' random chains; row k of h targets sets[k].

    Draws each m from ``picker`` only when its chain is reached, so the
    caller can draw from the same picker between chains. Chains with the
    same m share one ``sets`` list, so a report block formats each set once.
    """
    sets_of: dict[int, list] = {}
    for i in range(count):
        m = int(picker.integers(2, m_max + 1))
        P = generate("random-dense", m=m, alpha=1.0, seed=derive_seed(seed, i + 1)).matrix
        if m not in sets_of:
            sets_of[m] = [_mask_members(mask) for mask in range(1, 1 << m)]
        yield f"random-dense(m={m},#={i})", stationary(P), sets_of[m], subset_hitting_times(P)


def suite_lemma1(opts: VerifyOptions) -> tuple[ReportBlock, VerificationSummary]:
    """Mass-vs-commute ratio bound on random chains, all disjoint set pairs."""
    seed = derive_seed(opts.seed, 1)
    picker = derive_stream(seed, 0)
    blocks = []
    for chain_id, pi, sets, h in _random_chains(seed, opts.lemma1_chains,
                                                opts.lemma1_m_max, picker):
        pairs = _disjoint_pairs(h.shape[1])
        if len(pairs) > opts.lemma1_max_pairs:
            keep = picker.choice(len(pairs), size=opts.lemma1_max_pairs, replace=False)
            pairs = pairs[np.sort(keep)]
        blocks.append(lemma1_reports(pi, sets, h, pairs, chain_id))
    return _result("lemma1", opts, ReportBlock.concat(blocks))


def _disjoint_pairs(m: int) -> np.ndarray:
    """Index pairs (a, b) of disjoint subsets, index k being bitmask k + 1, ordered by a then b."""
    masks = np.arange(1, 1 << m)
    # row by row, so memory stays near the size of the output
    b = [np.flatnonzero((masks & mask) == 0) for mask in masks.tolist()]
    a = np.repeat(np.arange(masks.size), [row.size for row in b])
    return np.column_stack((a, np.concatenate(b)))


def suite_lemma2(opts: VerifyOptions) -> tuple[ReportBlock, VerificationSummary]:
    """T(A) <= 2 T(0.5) / pi(A) for every non-empty A, exhaustive T(0.5)."""
    seed = derive_seed(opts.seed, 2)
    blocks = []
    for chain_id, pi, sets, h in _random_chains(seed, opts.lemma2_chains, opts.lemma2_m_max,
                                                derive_stream(seed, 0)):
        # every subset is solved anyway; T(0.5) falls out of the same array
        masses = np.array([pi.mass(members) for members in sets])
        t_half = float(h[masses >= 0.5 - 1e-12].max(initial=0.0))
        blocks.append(lemma2_reports(masses, sets, h, t_half, chain_id))
    return _result("lemma2", opts, ReportBlock.concat(blocks))


# --- simulation suites ------------------------------------------------------


def _iid_chain_set(seed: int, ms=(2, 4, 8), random_sets: int = 20):
    """Seeded IID chains with their tested index-set families."""
    out = []
    for k, m in enumerate(ms):
        rng = derive_stream(seed, 100 + k)
        mu = rng.dirichlet(np.full(m, 1.0))
        out.append((f"iid(m={m})", generate("iid", mu=mu), mu, _index_sets(rng, m, random_sets, m)))
    return out


def suite_iid(opts: VerifyOptions) -> tuple[ReportBlock, VerificationSummary]:
    """Exact memory-less ground truth: empirical survivals and missing-mass means."""
    seed = derive_seed(opts.seed, 3)
    n_max = max(IID_HORIZONS)
    chains = _iid_chain_set(seed)
    # the row count K is fixed before sampling, so the union bound over the 2K tails holds
    rows = len(IID_HORIZONS) * sum(len(sets) + 1 for *_, sets in chains)
    threshold = math.log(2 * rows / IID_DELTA)
    reports: list[BoundReport] = []
    for idx, (chain_id, chain, mu, sets) in enumerate(chains):
        pi = stationary(chain.matrix)
        tau = first_visit_table(chain, n_max, opts.trials, derive_seed(seed, idx + 1),
                                opts.workers, pi)
        for members in sets:
            cols = tau[:, list(members)].min(axis=1)
            mass = float(mu[list(members)].sum())
            for n in IID_HORIZONS:
                hits = int((cols > n).sum())
                reports.append(_iid_row("iid-exact-survival", hits / opts.trials,
                                        max(0.0, 1.0 - mass) ** n, opts.trials, threshold,
                                        chain_id=chain_id, J=members, n=n, hits=hits))
        for n in IID_HORIZONS:
            reports.append(_iid_row("iid-mm-mean", float(missing_mass_values(tau, mu, n).mean()),
                                    float(np.sum(mu * (1.0 - mu) ** n)), opts.trials, threshold,
                                    chain_id=chain_id, n=n))
    return _result("iid", opts, ReportBlock.from_reports(reports))


def _iid_row(name: str, estimate: float, exact: float, trials: int, threshold: float,
             **metadata) -> BoundReport:
    """Chernoff-KL test of ``estimate``, a mean of ``trials`` iid draws in [0, 1], against
    its ``exact`` mean: flagged iff trials * kl(estimate || exact) > ``threshold``.

    Hoeffding's bound Pr[trials * kl > x] <= 2 exp(-x) covers both tails. ``ci`` is
    sqrt(threshold / 2 trials): by Pinsker, no accepted estimate is further from ``exact``.
    """
    rep = BoundReport.from_check(name, threshold, trials * bnd.kl_divergence(estimate, exact),
                                 metadata=dict(metadata, estimate=estimate, exact=exact))
    rep.ci = math.sqrt(threshold / (2 * trials))
    return rep


def _prop1_chain_set(seed: int, count: int):
    """Mixed random/family chains for the hitting-tail suite."""
    picker = derive_stream(seed, 0)
    chains = []
    k = 0
    while len(chains) < max(0, count - 10):
        m = int(picker.integers(3, 11))
        chains.append((f"random-dense(m={m},#={k})",
                       generate("random-dense", m=m, alpha=1.0, seed=derive_seed(seed, 200 + k))))
        k += 1
    rng = derive_stream(seed, 1)
    families = [
        ("lazy-cycle(m=5,hold=0.5)", generate("lazy-cycle", m=5, hold=0.5)),
        ("lazy-cycle(m=8,hold=0.3)", generate("lazy-cycle", m=8, hold=0.3)),
        ("lazy-cycle(m=10,hold=0.5)", generate("lazy-cycle", m=10, hold=0.5)),
        ("birth-death(m=8,p=0.3,q=0.3)", generate("birth-death", m=8, p=0.3, q=0.3)),
        ("birth-death(m=6,p=0.25,q=0.25)", generate("birth-death", m=6, p=0.25, q=0.25)),
        ("birth-death(m=8,p=0.35,q=0.25)", generate("birth-death", m=8, p=0.35, q=0.25)),
        ("two-state(p=0.1,q=0.2)", generate("two-state", p=0.1, q=0.2)),
        ("two-state(p=0.5,q=0.5)", generate("two-state", p=0.5, q=0.5)),
        ("iid(m=4,random)", generate("iid", mu=rng.dirichlet(np.full(4, 1.0)))),
        ("iid(m=8,random)", generate("iid", mu=rng.dirichlet(np.full(8, 1.0)))),
    ]
    return (chains + families)[:count]


def suite_prop1(opts: VerifyOptions) -> tuple[ReportBlock, VerificationSummary]:
    """Chunked exponential tail of hitting times vs exact tails Pr[N_B > t]."""
    seed = derive_seed(opts.seed, 4)
    rng = derive_stream(seed, 2)
    reports: list[BoundReport] = []
    for chain_id, chain in opts.chains or _prop1_chain_set(seed, opts.prop1_chains):
        m = chain.matrix.m
        start = chain.resolved_start(stationary(chain.matrix))
        members = _random_subset(rng, m, max(1, m // 3))
        expected = expected_hitting_time(hitting_table(chain.matrix, StateSet(members)), start)
        thresholds = sorted({math.ceil(k * expected) for k in (1, 2, 3, 5, 8, 12, 20, 35, 50)})
        survival = survival_probabilities(chain.matrix, start, members, thresholds)
        for t, p in zip(thresholds, survival.tolist()):
            reports.append(BoundReport.from_check(
                "prop1-tail", bnd.hitting_tail_bound(expected, t), p, tol=INEQUALITY_TOL,
                metadata={"chain_id": chain_id, "B": members, "t": t, "expected": expected}))
    return _result("prop1", opts, ReportBlock.from_reports(reports))


# --- exact chain-family suites ---------------------------------------------


def _family_suite(opts: VerifyOptions, suite: str) -> list:
    """The (chain_id, ChainSpec) pairs of thm1, cor1 or cor3: the configured chains,
    else the suite's picks of lazy cycles, birth-death and random chains."""
    if opts.chains:
        return opts.chains
    index, picks = {"thm1": (5, range(6)), "cor1": (6, (0, 2, 4)), "cor3": (7, (0, 1, 2, 4))}[suite]
    seed = derive_seed(opts.seed, index)
    family = [
        ("lazy-cycle(m=5,hold=0.5)", generate("lazy-cycle", m=5, hold=0.5)),
        ("lazy-cycle(m=10,hold=0.5)", generate("lazy-cycle", m=10, hold=0.5)),
        ("birth-death(m=8,p=0.3,q=0.3)", generate("birth-death", m=8, p=0.3, q=0.3)),
        ("random-dense(m=6)", generate("random-dense", m=6, alpha=1.0, seed=derive_seed(seed, 400))),
        ("random-dense(m=8)", generate("random-dense", m=8, alpha=1.0, seed=derive_seed(seed, 401))),
        ("random-dense(m=10)", generate("random-dense", m=10, alpha=1.0, seed=derive_seed(seed, 402))),
    ]
    return [family[i] for i in picks]


_ExactChain = namedtuple("_ExactChain", "chain_id P pi start t_half")


def _exact_chains(opts: VerifyOptions, chains):
    """Per-chain setup of thm1, cor1 and cor3 for (chain_id, ChainSpec) pairs:
    pi, the start law and T(eps)."""
    for chain_id, chain in chains:
        pi = stationary(chain.matrix)
        yield _ExactChain(chain_id, chain.matrix, pi, chain.resolved_start(pi),
                          t_large(chain.matrix, pi, opts.epsilon).value)


def _horizons(t_half: float, override, defaults, cap: float = math.inf) -> list[int]:
    """Horizons n with T(0.5) <= n <= cap among the configured n-grid, else the
    suite's defaults (rounded up to integers >= 1); [ceil T(0.5)] if none is left."""
    grid = {n for n in (max(1, math.ceil(x)) for x in override or defaults) if t_half <= n <= cap}
    return sorted(grid) or [max(1, math.ceil(t_half))]


def _j_families(opts: VerifyOptions, rng, m: int, extra: int) -> list[tuple[int, ...]]:
    """Tested index sets: config override (the entries that fit this chain),
    or singletons plus random sets."""
    if opts.j_sets:
        # a set, not a list: a repeated state would count twice in pi(J)
        return [tuple(sorted({int(x) for x in js})) for js in opts.j_sets
                if js and max(js) < m]
    return _index_sets(rng, m, extra, max(1, m - 1))


def _survivals(ch: _ExactChain, sets, grid):
    """Exact Pr[tau_J > n] for each set J and horizon n, as calibration instances."""
    for members in sets:
        mass = ch.pi.mass(members)
        survival = survival_probabilities(ch.P, ch.start, members, grid)
        for n, p in zip(grid, survival.tolist()):
            yield bnd.CalibrationInstance(ch.chain_id, members, n, mass, ch.t_half, p)


def _survival_check(name: str, keys: tuple[str, str], point, c: float) -> BoundReport:
    """``point`` against exp(-c n pi(J) / T(0.5)), with J and n under ``keys``. T(0.5) = 0
    only on a single-state chain, where the bound is 0 and vacuous."""
    bound = bnd.explicit_hitting_tail(point.mass, point.t_half, point.n, c) if point.t_half else 0.0
    return BoundReport.from_check(
        name, bound, point.p_hat, tol=INEQUALITY_TOL, vacuous=not point.t_half,
        metadata={"chain_id": point.chain_id, keys[0]: point.members, keys[1]: point.n,
                  "c": c, "t_half": point.t_half})


def suite_thm1(opts: VerifyOptions) -> tuple[ReportBlock, VerificationSummary]:
    """Joint-survival product bound with c = 1/(2e); publishes the certified c."""
    seed = derive_seed(opts.seed, 5)
    reports: list[BoundReport] = []
    instances: list[bnd.CalibrationInstance] = []
    for idx, ch in enumerate(_exact_chains(opts, _family_suite(opts, "thm1"))):
        grid = _horizons(ch.t_half, opts.n_grid, [ch.t_half] + [2 ** k for k in range(8)])
        sets = _j_families(opts, derive_stream(seed, 500 + idx), ch.P.m, extra=10)
        points = list(_survivals(ch, sets, grid))
        instances += points
        reports += [_survival_check("thm1-joint-survival", ("J", "n"), p, opts.c) for p in points]
        # MGF domination by the independent-surrogate product, both normalizations
        # of the comparison weights (with and without the factor n) recorded.
        unseen = subset_masses(ch.pi.pi)[::-1]
        for n, law in zip(grid, unseen_set_law(ch.P, ch.start, grid)):
            params = bnd.BoundParams(c=opts.c, T=ch.t_half, n=n, pi=ch.pi)
            q = bnd.q_probabilities(params)
            for s in (0.5, 1.0, 2.0):
                mgf = float(law @ np.exp(s * unseen))
                for form, weights in (("eq3", n * ch.pi.pi), ("cor1", ch.pi.pi)):
                    bound = bnd.bernoulli_product_mgf(weights, q, s)
                    reports.append(BoundReport.from_check(
                        f"thm1-mgf-{form}form", bound, mgf, tol=INEQUALITY_TOL,
                        vacuous=params.vacuous,
                        metadata={"chain_id": ch.chain_id, "n": n, "s": s,
                                  "c": opts.c, "t_half": ch.t_half}))
    cal = bnd.calibrate_c(instances)
    extras = {
        "certified_c": cal.certified_c,
        "certified_c_raw": cal.certified_c_raw,
        "c_used": opts.c,
    }
    return _result("thm1", opts, ReportBlock.from_reports(reports), extras)


def suite_cor1(opts: VerifyOptions) -> tuple[ReportBlock, VerificationSummary]:
    """Missing-mass deviation bound (upper tail; lower tail out of scope)."""
    reports: list[BoundReport] = []
    for ch in _exact_chains(opts, _family_suite(opts, "cor1")):
        grid = _horizons(ch.t_half, opts.n_grid, [ch.t_half] + [2 ** k for k in range(7)])
        unseen = subset_masses(ch.pi.pi)[::-1]
        for n, law in zip(grid, unseen_set_law(ch.P, ch.start, grid)):
            params = bnd.BoundParams(c=opts.c, T=ch.t_half, n=n, pi=ch.pi)
            for eps in (0.05, 0.1, 0.2):
                tail = bnd.missing_mass_tail_bound(params, eps, c2=opts.c2)
                p = float(law[unseen > tail.threshold].sum())
                reports.append(BoundReport.from_check(
                    "cor1-upper-tail", tail.failure_bound, p, tol=INEQUALITY_TOL,
                    vacuous=params.vacuous,
                    metadata={"chain_id": ch.chain_id, "n": n, "eps": eps,
                              "threshold": tail.threshold, "mean_term": tail.mean_term,
                              "c2": opts.c2, "lower_tail": "out-of-scope"}))
    return _result("cor1", opts, ReportBlock.from_reports(reports))


def suite_cor3(opts: VerifyOptions) -> tuple[ReportBlock, VerificationSummary]:
    """Smooth explicit tail exp(-c t pi(A)/T(0.5)) vs exact set-hitting tails."""
    seed = derive_seed(opts.seed, 7)
    reports: list[BoundReport] = []
    for idx, ch in enumerate(_exact_chains(opts, _family_suite(opts, "cor3"))):
        grid = _horizons(ch.t_half, opts.n_grid, (k * ch.t_half for k in (1, 2, 3, 5, 8, 12)), 512)
        sets = _j_families(opts, derive_stream(seed, 800 + idx), ch.P.m, extra=5)
        reports += [_survival_check("cor3-explicit-tail", ("A", "t"), p, opts.c)
                    for p in _survivals(ch, sets, grid)]
    return _result("cor3", opts, ReportBlock.from_reports(reports))


def suite_ergodic(opts: VerifyOptions) -> tuple[ReportBlock, VerificationSummary]:
    """Occupancy frequencies of one long run vs the stationary law (TV <= 0.01)."""
    seed = derive_seed(opts.seed, 8)
    chain = generate("random-dense", m=5, alpha=1.0, seed=derive_seed(seed, 0))
    pi = stationary(chain.matrix)
    freq = occupancy_frequencies(chain, opts.ergodic_steps, derive_stream(seed, 1), pi)
    tv = 0.5 * float(np.abs(freq - pi.pi).sum())
    rep = BoundReport.from_check(
        "ergodic-tv", 0.01, tv,
        metadata={"chain_id": "random-dense(m=5)", "steps": opts.ergodic_steps})
    return _result("ergodic", opts, ReportBlock.from_reports([rep]))


SUITES = {
    "lemma1": suite_lemma1,
    "lemma2": suite_lemma2,
    "iid": suite_iid,
    "prop1": suite_prop1,
    "thm1": suite_thm1,
    "cor1": suite_cor1,
    "cor3": suite_cor3,
    "ergodic": suite_ergodic,
}


OPTION_MINIMUMS = {"workers": 1, "trials": 1, "lemma1_chains": 1, "lemma1_m_max": 2,
                   "lemma1_max_pairs": 1, "lemma2_chains": 1, "lemma2_m_max": 2,
                   "prop1_chains": 1, "ergodic_steps": 1}
# the exhaustive sweeps' largest chains: lemma1 lists all 3^m disjoint pairs before it
# subsamples them (21 MiB at m = 12), and lemma2 solves every subset
OPTION_MAXIMUMS = {"lemma1_m_max": 12, "lemma2_m_max": ENUMERATION_MAX_STATES}


def _check_options(opts: VerifyOptions, suites) -> None:
    """Reject an out-of-range option, naming it, before any of ``suites`` runs."""
    checks = [(name, getattr(opts, name) >= low, f">= {low}") for name, low in OPTION_MINIMUMS.items()]
    checks += [(name, getattr(opts, name) <= high, f"<= {high}")
               for name, high in OPTION_MAXIMUMS.items()]
    checks += [("c", opts.c > 0, "> 0"), ("c2", opts.c2 > 0, "> 0"),
               ("epsilon", 0 < opts.epsilon <= 1, "in (0, 1]")]
    for name, ok, what in checks:
        if not ok:  # NaN fails too
            raise ValidationError(f"{name} must be {what}, got {getattr(opts, name)!r}")
    # a J set that fits none of a suite's chains would be skipped on each and check nothing
    for suite in ("thm1", "cor3"):
        if opts.j_sets and suite in suites:
            m_max = max(chain.matrix.m for _, chain in _family_suite(opts, suite))
            for js in opts.j_sets:
                if not js or max(js) >= m_max:
                    raise ValidationError(f"j_sets entry {list(js)} fits none of the suite's "
                                          f"chains: it must name states 0..{m_max - 1}")


def run_suite(name: str, opts: VerifyOptions):
    if name not in SUITES:
        raise ValidationError(f"unknown suite {name!r}; known: {sorted(SUITES)}")
    _check_options(opts, [name])
    return SUITES[name](opts)


def run_all(opts: VerifyOptions):
    """All suites in fixed order; returns [(name, reports, summary), ...]."""
    _check_options(opts, SUITE_ORDER)
    return [(name, *SUITES[name](opts)) for name in SUITE_ORDER]
