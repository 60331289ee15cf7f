"""Inequality verification sweeps.

Each suite checks one family of bounds on a seeded collection of chains
and returns per-check reports plus a summary. Suites are deterministic
functions of their options: the seed schedule for ``run_all`` is derived
from the master seed with a fixed counter, so two runs with the same
seed produce byte-identical CSV bodies.

Every chain, default or configured, is built from its id: a descriptor
such as ``lazy-cycle:m=5;hold=0.5``, ``random-dense:m=7;seed=<derived seed>``
or ``iid:mu=<repr of each entry>`` (``parse_descriptor``), or a configured
chain file. So a row's own cells replay it: ``mml hit lemma1|lemma2|survival
--chain <chain_id>`` with its sets and horizons. A row holds no cell that its
other cells determine.
"""

from __future__ import annotations

import math
import numbers
from collections import namedtuple
from dataclasses import dataclass, field, fields

import numpy as np

from . import bounds as bnd
from .chain import ChainSpec, StationaryDistribution, TransitionMatrix, parse_descriptor, stationary
from .errors import ValidationError
from .hitting import (ENUMERATION_MAX_STATES, MASS_FILTER_TOL, StateSet, _check_members,
                      expected_hitting_time, hitting_table, member_masses, row_members,
                      subset_hitting_times_stack, subset_masses, subset_members,
                      survival_probabilities, t_large, unseen_set_law)
from .report import Labels, ReportBlock
from .simulate import derive_stream, first_visit_table, missing_mass_values, occupancy_frequencies

# run lengths n of the iid suite's survival and missing-mass checks
IID_HORIZONS = (1, 2, 4, 8, 16, 32, 64)
# family-wise false-alarm rate of the iid suite: a run flags a correct sampler with
# probability at most this
IID_DELTA = 1e-3

# slack of every check: a row holds when value <= bound + INEQUALITY_TOL (``_check``)
INEQUALITY_TOL = 1e-9


def derive_seed(master_seed: int, index: int) -> int:
    """Stable sub-seed for suite/chain number ``index``."""
    return int(derive_stream(master_seed, 0x5EED0000 + index).integers(0, 2**63))


def _random_dense(m: int, seed: int) -> str:
    """The descriptor of the random-dense chain of m states drawn from ``seed``."""
    return f"random-dense:m={m};seed={seed}"


def _iid(mu: np.ndarray) -> str:
    """The descriptor of the iid chain of law ``mu``; each entry reads back bit for bit."""
    return "iid:mu=" + ",".join(map(repr, mu.tolist()))


@dataclass
class VerifyOptions:
    """Suite sizes and constants; defaults match the acceptance sweep.

    prop1, thm1, cor1 and cor3 compare the bounds with exact survival
    probabilities and exact missing-mass laws, so they do not depend on
    ``trials``, which sizes only the iid Monte Carlo suite.

    Each field is a top-level key of the CLI's config, and each int or float field
    the flag ``--`` + its name with dashes. Before any suite runs, every value must
    have its default's type and pass its rule in ``OPTION_RULES``, however it was set.
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
    ergodic_steps: int = 1_000_000
    # optional overrides, each read by the suites OVERRIDE_READERS names: explicit
    # chains as (chain_id, ChainSpec), with no start law where thm1, cor1 or cor3 run,
    # explicit J-families, and an explicit n-grid (still filtered to n >= T(0.5) per
    # chain; cor3 drops n > 512)
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


def _check(name, chain_id, bound, value, vacuous, params, also=()) -> ReportBlock:
    """Rows of checks, as ``ReportBlock.of_check`` takes them; the one verdict of every
    suite and one-row check: a row holds when value <= bound + INEQUALITY_TOL, and so
    does each further (value, bound) pair of columns in ``also`` (lemma1's product form)."""
    holds = np.logical_and.reduce([np.asarray(v, dtype=float) <= np.asarray(b, dtype=float)
                                   + INEQUALITY_TOL for v, b in ((value, bound), *also)])
    return ReportBlock.of_check(name, chain_id, bound, value, holds, vacuous, params)


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


# the lemma suites solve their chains of equal m together, in groups of at most this
# many hitting times: one m = 20 chain's, so memory does not grow with the chain count
GROUP_ENTRIES = ((1 << ENUMERATION_MAX_STATES) - 1) * ENUMERATION_MAX_STATES

_ChainGroup = namedtuple("_ChainGroup", "index chain_ids inside masses h")


def _random_chains(seed: int, ms: list[int]):
    """The lemma suites' random chains, chain i having ms[i] states, in groups of equal m.

    Yields one ``_ChainGroup`` per group: ``index`` holds the group's chain
    numbers, ascending, and ``chain_ids`` the descriptors of all the chains,
    chain i drawn from derive_seed(seed, i + 1), so the rows of the group's
    c-th chain are labelled Labels(index[c], chain_ids).
    Row k of ``inside`` marks the members of bitmask k + 1 (``subset_members``);
    masses[c, k] is that set's stationary mass on chain index[c] and h[c, k]
    its hitting times. Groups come in order of m, so the rows of all groups
    are put back in chain order at the end (``_in_chain_order``).
    """
    chain_ids = [_random_dense(m, derive_seed(seed, i + 1)) for i, m in enumerate(ms)]
    ms = np.asarray(ms)
    for m in np.unique(ms).tolist():
        inside = subset_members(m)
        chains = np.flatnonzero(ms == m)
        size = max(1, GROUP_ENTRIES // inside.size)
        for lo in range(0, chains.size, size):
            index = chains[lo:lo + size]
            Ps = [parse_descriptor(chain_ids[i])[1].matrix for i in index.tolist()]
            masses = member_masses([stationary(P) for P in Ps], inside)
            yield _ChainGroup(index, chain_ids, inside, masses, subset_hitting_times_stack(Ps))


def _in_chain_order(blocks) -> ReportBlock:
    """The rows of the groups' blocks, chain by chain; each chain's rows keep their order.
    Every group labels its rows by chain number (``_random_chains``)."""
    chains = np.concatenate([block.chain_id.codes for block in blocks])
    return ReportBlock.concat(blocks, np.argsort(chains, kind="stable"))


def suite_lemma1(opts: VerifyOptions) -> tuple[ReportBlock, VerificationSummary]:
    """Mass-vs-commute ratio bound on random chains, up to lemma1_max_pairs disjoint set
    pairs per chain, drawn from all of them."""
    seed = derive_seed(opts.seed, 1)
    picker = derive_stream(seed, 0)
    # the picker draws each chain's m, then the ranks of its pairs, chain by chain
    ms, ranks = [], []
    for _ in range(opts.lemma1_chains):
        ms.append(int(picker.integers(2, opts.lemma1_m_max + 1)))
        total = _pair_count(ms[-1])
        ranks.append(np.sort(picker.choice(total, size=opts.lemma1_max_pairs, replace=False))
                     if total > opts.lemma1_max_pairs else np.arange(total))
    blocks = []
    for g in _random_chains(seed, ms):
        picked = [ranks[i] for i in g.index.tolist()]
        chain = np.repeat(np.arange(g.index.size), [r.size for r in picked])
        pairs = _disjoint_pairs(g.inside, np.concatenate(picked))
        blocks.append(lemma1_stack_reports(g.masses, g.inside, g.h, chain, pairs,
                                           Labels(g.index[chain], g.chain_ids)))
    return _result("lemma1", opts, _in_chain_order(blocks))


def _pair_count(m: int) -> int:
    """Ordered pairs of disjoint non-empty subsets of m states: 3^m - 2^(m+1) + 1."""
    return 3 ** m - 2 ** (m + 1) + 1


def _disjoint_pairs(inside: np.ndarray, ranks: np.ndarray) -> np.ndarray:
    """Index pairs (a, b) of disjoint subsets of m states, row k of ``inside`` marking the
    members of bitmask k + 1 (``subset_members``): those at ``ranks`` in the list of all of
    them ordered by a then b, without building it.

    Set a has 2^(m - |a|) - 1 partners, so the pairs of a start at the sum of
    the counts before it. The partner of rank r among them is the r + 1-th
    non-empty subset of the complement of a in bitmask order: r + 1 with its
    bits deposited, low to high, into the complement's bits.
    """
    partners = (1 << (inside.shape[1] - inside.sum(axis=1))) - 1
    first = np.cumsum(partners) - partners
    ranks = np.asarray(ranks, dtype=np.int64)
    a = np.searchsorted(first, ranks, side="right") - 1
    bits = ranks - first[a] + 1
    b = np.zeros_like(ranks)
    for j, is_free in enumerate((~inside[a].T).astype(np.int64)):
        b |= (bits & is_free) << j
        bits >>= is_free
    return np.column_stack((a, b - 1))


def suite_lemma2(opts: VerifyOptions) -> tuple[ReportBlock, VerificationSummary]:
    """T(A) <= 2 T(0.5) / pi(A) for every non-empty A, exhaustive T(0.5)."""
    seed = derive_seed(opts.seed, 2)
    picker = derive_stream(seed, 0)
    ms = [int(picker.integers(2, opts.lemma2_m_max + 1)) for _ in range(opts.lemma2_chains)]
    blocks = []
    for g in _random_chains(seed, ms):
        # every subset is solved anyway; T(0.5) falls out of the same array
        t_half = np.where(g.masses >= 0.5 - MASS_FILTER_TOL, g.h.max(axis=2), 0.0).max(axis=1)
        blocks.append(lemma2_stack_reports(g.masses, g.inside, g.h, t_half,
                                           Labels(np.repeat(g.index, len(g.inside)), g.chain_ids)))
    return _result("lemma2", opts, _in_chain_order(blocks))


def check_lemma1(P: TransitionMatrix, pi: StationaryDistribution, A: StateSet, B: StateSet,
                 chain_id: str = "") -> ReportBlock:
    """Check Lemma 1 for one pair of sets, as a one-row block labelled ``chain_id``; see
    ``lemma1_stack_reports``."""
    _check_members(A, P.m, "set A")
    _check_members(B, P.m, "set B")
    inside = np.array([np.isin(np.arange(P.m), S.members) for S in (A, B)])
    h = np.stack([hitting_table(P, S).h for S in (A, B)])
    return lemma1_stack_reports(np.array([[pi.mass(S.members) for S in (A, B)]]), inside,
                                h[None], np.zeros(1, dtype=np.intp), np.array([[0, 1]]), chain_id)


def lemma1_stack_reports(masses: np.ndarray, inside: np.ndarray, h: np.ndarray,
                         chain: np.ndarray, pairs: np.ndarray, chain_id) -> ReportBlock:
    """Lemma 1's rows on a stack of chains: row i checks pi(A) <= T+(A,B) / (T+(A,B) + T-(B,A))
    for the sets A and B that rows a and b of ``inside`` mark, on chain c, where
    (a, b) = pairs[i] and c = chain[i]; the A and B columns list the member tuples
    of just the sets they name. masses[c, k] is the stationary mass of set k on
    chain c, h[c, k] holds its hitting times, and ``chain_id`` labels the rows as
    in ``ReportBlock.of_check``.

    Overlapping A and B make T-(B,A) = 0 and the inequality trivial; such
    checks are reported with vacuous=true rather than rejected. A row holds only
    if the product form pi(A) * T-(B,A) <= T+(A,B) holds too, that is
    value * t_minus <= t_plus, which its cells give bit for bit.
    """
    a, b = pairs.T
    tp = np.where(inside[a], h[chain, b], -np.inf).max(axis=1)
    tm = np.where(inside[b], h[chain, a], np.inf).min(axis=1)
    lhs = masses[chain, a]
    denom = tp + tm
    rhs = np.divide(tp, denom, out=np.ones_like(tp), where=denom > 0)
    A, B = (Labels(codes, row_members(inside[used]))
            for used, codes in (np.unique(k, return_inverse=True) for k in (a, b)))
    return _check("lemma1", chain_id, rhs, lhs, (inside[a] & inside[b]).any(axis=1),
                  {"A": A, "B": B, "t_plus": tp, "t_minus": tm}, [(lhs * tm, tp)])


def check_lemma2(P: TransitionMatrix, pi: StationaryDistribution, A: StateSet,
                 chain_id: str = "") -> ReportBlock:
    """Check Lemma 2 for one set, as a one-row block labelled ``chain_id``; needs exact
    T(0.5), so m <= 20. See ``lemma2_stack_reports``."""
    _check_members(A, P.m, "set A")
    t_half = t_large(P, pi, 0.5).value
    return lemma2_stack_reports(np.array([[pi.mass(A.members)]]),
                                np.isin(np.arange(P.m), A.members)[None],
                                hitting_table(P, A).h[None, None], np.array([t_half]), chain_id)


def lemma2_stack_reports(masses: np.ndarray, inside: np.ndarray, h: np.ndarray,
                         t_half: np.ndarray, chain_id) -> ReportBlock:
    """Lemma 2's rows on a stack of C chains, chain by chain: T(A) <= 2 T(0.5) / pi(A) for
    each set A that row k of ``inside`` marks, on chain c, whose mass is masses[c, k],
    whose hitting times are h[c, k] and whose T(0.5) is t_half[c]; ``chain_id`` labels
    the rows as in ``ReportBlock.of_check``. A row's smallest constant kappa with
    T(A) <= kappa * T(0.5) / pi(A) is value * mass / t_half, from its own cells.
    """
    t_a = h.max(axis=2).ravel()
    masses = masses.ravel()
    t_half = np.repeat(t_half, len(inside))
    bound = 2.0 * t_half / masses
    return _check(
        "lemma2", chain_id, bound, t_a, t_half == 0.0,
        {"A": Labels(np.tile(np.arange(len(inside)), h.shape[0]), row_members(inside)),
         "t_half": t_half, "mass": masses})


# --- one-row checks of the bound formulas -----------------------------------


def product_inequality_check(pi: StationaryDistribution, J: StateSet) -> ReportBlock:
    """Check 1 - pi(J) <= prod_{j in J} (1 - pi(j)); a one-row block."""
    _check_members(J, pi.pi.size, "set J")
    mass = pi.mass(J.members)
    rhs = float(np.prod(1.0 - pi.pi[J.indices()]))
    return _check("product-inequality", "", [rhs], [1.0 - mass], False,
                  {"J": J.members, "mass": mass})


def pinsker_check(p: float, q: float) -> ReportBlock:
    """Check D(p || q) >= 2 (p - q)^2; a one-row block."""
    d = bnd.kl_divergence(p, q)
    lower = 2.0 * (p - q) ** 2
    return _check("pinsker", "", [d], [lower], False, {"p": p, "q": q})


# --- simulation suites ------------------------------------------------------


def _iid_chain_set(seed: int, ms=(2, 4, 8), random_sets: int = 20):
    """Seeded IID chains as (chain_id, ChainSpec, mu, tested index sets)."""
    out = []
    for k, m in enumerate(ms):
        rng = derive_stream(seed, 100 + k)
        mu = rng.dirichlet(np.full(m, 1.0))
        out.append((*parse_descriptor(_iid(mu)), mu, _index_sets(rng, m, random_sets, m)))
    return out


def suite_iid(opts: VerifyOptions) -> tuple[ReportBlock, VerificationSummary]:
    """Exact memory-less ground truth: empirical survivals and missing-mass means."""
    seed = derive_seed(opts.seed, 3)
    n_max = max(IID_HORIZONS)
    chains = _iid_chain_set(seed)
    # the row count K is fixed before sampling, so the union bound over the 2K tails holds
    rows = len(IID_HORIZONS) * sum(len(sets) + 1 for *_, sets in chains)
    threshold = math.log(2 * rows / IID_DELTA)

    def check(name, chain_id, estimate, exact, params) -> ReportBlock:
        """Chernoff-KL test of each estimate, a mean of ``trials`` iid draws in [0, 1],
        against its exact mean: flagged iff trials * kl(estimate || exact) > threshold.
        Hoeffding's bound Pr[trials * kl > x] <= 2 exp(-x) covers both tails."""
        kl = np.array([opts.trials * bnd.kl_divergence(e, x) for e, x in zip(estimate, exact)])
        params.update(estimate=np.array(estimate), exact=np.array(exact))
        return _check(name, chain_id, np.full(kl.size, threshold), kl, False, params)

    after = np.add(IID_HORIZONS, 1)
    blocks = []
    for idx, (chain_id, chain, mu, sets) in enumerate(chains):
        pi = stationary(chain.matrix)
        law = StationaryDistribution(mu, 0.0)  # an iid chain's law, bit for bit
        tau = first_visit_table(chain, n_max, opts.trials, derive_seed(seed, idx + 1),
                                opts.workers, pi)
        by_state = np.ascontiguousarray(tau.T)  # a state's first visits, contiguous
        hits, exact = [], []
        for members in sets:
            first = by_state[list(members)].min(axis=0)  # tau_J, n_max + 1 if J went unseen
            # tau_J > n for the trials counted at n + 1 and past
            hits += np.cumsum(np.bincount(first, minlength=n_max + 2)[::-1])[::-1][after].tolist()
            exact += [bnd.iid_exact_survival(law, StateSet(members), n) for n in IID_HORIZONS]
        J = Labels(np.repeat(np.arange(len(sets)), len(IID_HORIZONS)), sets)
        blocks += [
            check("iid-exact-survival", chain_id, [h / opts.trials for h in hits], exact,
                  {"J": J, "n": np.tile(IID_HORIZONS, len(sets)), "hits": np.array(hits)}),
            check("iid-mm-mean", chain_id,
                  [float(missing_mass_values(tau, mu, n).mean()) for n in IID_HORIZONS],
                  [float(np.sum(mu * (1.0 - mu) ** n)) for n in IID_HORIZONS],
                  {"n": np.array(IID_HORIZONS)})]
    block = ReportBlock.concat(blocks)
    # by Pinsker, no estimate that its test accepts is further than this from its exact mean
    block.ci[:] = math.sqrt(threshold / (2 * opts.trials))
    return _result("iid", opts, block)


def _prop1_chain_set(seed: int, count: int):
    """Mixed random/family chains for the hitting-tail suite."""
    picker = derive_stream(seed, 0)
    ids = [_random_dense(int(picker.integers(3, 11)), derive_seed(seed, 200 + k))
           for k in range(count - 10)]
    rng = derive_stream(seed, 1)
    ids += ["lazy-cycle:m=5;hold=0.5", "lazy-cycle:m=8;hold=0.3", "lazy-cycle:m=10;hold=0.5",
            "birth-death:m=8;p=0.3;q=0.3", "birth-death:m=6;p=0.25;q=0.25",
            "birth-death:m=8;p=0.35;q=0.25", "two-state:p=0.1;q=0.2", "two-state:p=0.5;q=0.5",
            _iid(rng.dirichlet(np.full(4, 1.0))), _iid(rng.dirichlet(np.full(8, 1.0)))]
    return [parse_descriptor(text) for text in ids[:count]]


def suite_prop1(opts: VerifyOptions) -> tuple[ReportBlock, VerificationSummary]:
    """Chunked exponential tail of hitting times vs exact tails Pr[N_B > t]."""
    seed = derive_seed(opts.seed, 4)
    rng = derive_stream(seed, 2)
    blocks = []
    for chain_id, chain in opts.chains or _prop1_chain_set(seed, opts.prop1_chains):
        m = chain.matrix.m
        start = chain.resolved_start(stationary(chain.matrix))
        members = _random_subset(rng, m, max(1, m // 3))
        expected = expected_hitting_time(hitting_table(chain.matrix, StateSet(members)), start)
        thresholds = sorted({math.ceil(k * expected) for k in (1, 2, 3, 5, 8, 12, 20, 35, 50)})
        survival = survival_probabilities(chain.matrix, start, [members], thresholds)[0]
        bound = np.array([bnd.hitting_tail_bound(expected, t) for t in thresholds])
        blocks.append(_check("prop1-tail", chain_id, bound, survival, False,
                             {"B": members, "t": np.array(thresholds), "expected": expected}))
    return _result("prop1", opts, ReportBlock.concat(blocks))


# --- exact chain-family suites ---------------------------------------------


def _family_suite(opts: VerifyOptions, seed: int, picks) -> list:
    """The (chain_id, ChainSpec) pairs of thm1, cor1 or cor3: the configured chains, else
    the suite's ``picks`` of lazy cycles, birth-death and random chains, the random
    chains drawn from the suite's ``seed``."""
    if opts.chains:
        return opts.chains
    family = ["lazy-cycle:m=5;hold=0.5", "lazy-cycle:m=10;hold=0.5", "birth-death:m=8;p=0.3;q=0.3",
              *(_random_dense(m, derive_seed(seed, 400 + k)) for k, m in enumerate((6, 8, 10)))]
    return [parse_descriptor(family[i]) for i in picks]


_ExactChain = namedtuple("_ExactChain", "chain_id P pi t_half")


def _exact_chains(chains):
    """Per-chain setup of thm1, cor1 and cor3 for (chain_id, ChainSpec) pairs: pi and
    T(0.5). These suites start every chain from pi (``_check_options``)."""
    for chain_id, chain in chains:
        pi = stationary(chain.matrix)
        yield _ExactChain(chain_id, chain.matrix, pi, t_large(chain.matrix, pi, 0.5).value)


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


def _survival_block(name: str, keys: tuple[str, str], ch: _ExactChain, sets, grid,
                    c: float) -> tuple[ReportBlock, np.ndarray]:
    """Exact Pr[tau_J > n] for each set J and horizon n, X_1 ~ pi, against its
    ``joint_survival_bound`` exp(-c n pi(J) / T(0.5)), with J and n under ``keys``; also the
    rows' pi(J). T(0.5) = 0 only on a single-state chain, where the bound is 0 and vacuous."""
    p = survival_probabilities(ch.P, ch.pi.pi, sets, grid).reshape(-1)
    mass = np.repeat([ch.pi.mass(members) for members in sets], len(grid))
    n = np.tile(grid, len(sets))
    params = [bnd.BoundParams(c=c, T=ch.t_half, n=t, pi=ch.pi) for t in grid]
    bound = np.array([bnd.joint_survival_bound(q, J) for J in map(StateSet, sets) for q in params])
    block = _check(name, ch.chain_id, bound, p, not ch.t_half,
                   {keys[0]: Labels(np.repeat(np.arange(len(sets)), len(grid)), sets), keys[1]: n,
                    "c": c, "t_half": ch.t_half})
    return block, mass


def suite_thm1(opts: VerifyOptions) -> tuple[ReportBlock, VerificationSummary]:
    """Joint-survival product bound with c = 1/(2e); publishes the certified c."""
    seed = derive_seed(opts.seed, 5)
    blocks, survivals = [], []
    for idx, ch in enumerate(_exact_chains(_family_suite(opts, seed, range(6)))):
        grid = _horizons(ch.t_half, opts.n_grid, [ch.t_half] + [2 ** k for k in range(8)])
        sets = _j_families(opts, derive_stream(seed, 500 + idx), ch.P.m, extra=10)
        block, mass = _survival_block("thm1-joint-survival", ("J", "n"), ch, sets, grid, opts.c)
        survivals.append((block.value, block.params["n"], mass, np.full(len(mass), ch.t_half)))
        # MGF domination by the independent-surrogate product, both normalizations
        # of the comparison weights (with and without the factor n) recorded.
        unseen = subset_masses(ch.pi.pi)[::-1]
        rows = []
        for n, law in zip(grid, unseen_set_law(ch.P, ch.pi.pi, grid)):
            params = bnd.BoundParams(c=opts.c, T=ch.t_half, n=n, pi=ch.pi)
            q = bnd.q_probabilities(params)
            for s in (0.5, 1.0, 2.0):
                mgf = float(law @ np.exp(s * unseen))
                rows += [(n, s, bnd.bernoulli_product_mgf(weights, q, s), mgf)
                         for weights in (n * ch.pi.pi, ch.pi.pi)]
        n, s, bound, mgf = map(np.array, zip(*rows))
        forms = Labels(np.arange(len(rows)) % 2, ["thm1-mgf-eq3form", "thm1-mgf-cor1form"])
        blocks += [block, _check(forms, ch.chain_id, bound, mgf, not ch.t_half,
                                 {"n": n, "s": s, "c": opts.c, "t_half": ch.t_half})]
    certified, raw = bnd.calibrate_c(*map(np.concatenate, zip(*survivals)))
    extras = {"certified_c": certified, "certified_c_raw": raw, "c_used": opts.c}
    return _result("thm1", opts, ReportBlock.concat(blocks), extras)


def suite_cor1(opts: VerifyOptions) -> tuple[ReportBlock, VerificationSummary]:
    """Missing-mass deviation bound (upper tail; lower tail out of scope)."""
    blocks = []
    for ch in _exact_chains(_family_suite(opts, derive_seed(opts.seed, 6), (0, 2, 4))):
        grid = _horizons(ch.t_half, opts.n_grid, [ch.t_half] + [2 ** k for k in range(7)])
        unseen = subset_masses(ch.pi.pi)[::-1]
        rows = []
        for n, law in zip(grid, unseen_set_law(ch.P, ch.pi.pi, grid)):
            params = bnd.BoundParams(c=opts.c, T=ch.t_half, n=n, pi=ch.pi)
            for eps in (0.05, 0.1, 0.2):
                tail = bnd.missing_mass_tail_bound(params, eps, c2=opts.c2)
                rows.append((n, eps, tail.threshold, tail.mean_term, tail.failure_bound,
                             float(law[unseen > tail.threshold].sum())))
        n, eps, threshold, mean_term, bound, p = map(np.array, zip(*rows))
        blocks.append(_check(
            "cor1-upper-tail", ch.chain_id, bound, p, not ch.t_half,
            {"n": n, "eps": eps, "threshold": threshold, "mean_term": mean_term, "c2": opts.c2,
             "lower_tail": "out-of-scope"}))
    return _result("cor1", opts, ReportBlock.concat(blocks))


def suite_cor3(opts: VerifyOptions) -> tuple[ReportBlock, VerificationSummary]:
    """Smooth explicit tail exp(-c t pi(A)/T(0.5)) vs exact set-hitting tails."""
    seed = derive_seed(opts.seed, 7)
    blocks = []
    for idx, ch in enumerate(_exact_chains(_family_suite(opts, seed, (0, 1, 2, 4)))):
        grid = _horizons(ch.t_half, opts.n_grid, (k * ch.t_half for k in (1, 2, 3, 5, 8, 12)), 512)
        sets = _j_families(opts, derive_stream(seed, 800 + idx), ch.P.m, extra=5)
        blocks.append(_survival_block("cor3-explicit-tail", ("A", "t"), ch, sets, grid, opts.c)[0])
    return _result("cor3", opts, ReportBlock.concat(blocks))


def suite_ergodic(opts: VerifyOptions) -> tuple[ReportBlock, VerificationSummary]:
    """Occupancy frequencies of ergodic_steps steps from pi vs the stationary law (TV <= 0.01)."""
    seed = derive_seed(opts.seed, 8)
    chain_id, chain = parse_descriptor(_random_dense(5, derive_seed(seed, 0)))
    pi = stationary(chain.matrix)
    freq = occupancy_frequencies(chain, opts.ergodic_steps, derive_stream(seed, 1), pi)
    tv = 0.5 * float(np.abs(freq - pi.pi).sum())
    return _result("ergodic", opts, _check("ergodic-tv", chain_id, [0.01], [tv], False,
                                           {"steps": opts.ergodic_steps}))


SUITES = {"lemma1": suite_lemma1, "lemma2": suite_lemma2, "iid": suite_iid, "prop1": suite_prop1,
          "thm1": suite_thm1, "cor1": suite_cor1, "cor3": suite_cor3, "ergodic": suite_ergodic}
# the order of run_all
SUITE_ORDER = tuple(SUITES)


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


# an override is None (none) or a non-empty list: an empty one would be read as none
def _override(item_ok):
    return lambda v: v is None or isinstance(v, list) and len(v) > 0 and all(map(item_ok, v))


# what a value must be, by the type of its field's default: a bool is no number, and an int
# is a valid float; the overrides, None by default, are typed by their rules
DEFAULT_TYPES = {int: (_is_int, "an integer"), type(None): (lambda v: True, ""),
                 float: (lambda v: isinstance(v, numbers.Real) and not isinstance(v, bool),
                         "a number")}
_ONE = (lambda v: v >= 1, ">= 1")
_POSITIVE = (lambda v: 0 < v < math.inf, "> 0 and finite")
# both lemma sweeps solve every subset; lemma1 draws its pairs by rank, never listing 3^m
_M_MAX = (lambda v: 2 <= v <= ENUMERATION_MAX_STATES, f"in 2..{ENUMERATION_MAX_STATES}")
# each option's rule: a test of its value, which NaN fails, and the phrase an error names
OPTION_RULES = {
    "seed": (lambda v: True, "any integer"), "workers": _ONE, "trials": _ONE,
    "lemma1_chains": _ONE, "lemma1_m_max": _M_MAX, "lemma1_max_pairs": _ONE,
    "lemma2_chains": _ONE, "lemma2_m_max": _M_MAX, "prop1_chains": _ONE,
    "c": _POSITIVE, "c2": _POSITIVE, "ergodic_steps": _ONE,
    "chains": (_override(lambda p: isinstance(p, (tuple, list)) and len(p) == 2
                         and isinstance(p[1], ChainSpec)),
               "a non-empty list of (chain_id, ChainSpec) pairs"),
    "j_sets": (_override(lambda js: isinstance(js, (list, tuple))
                         and all(_is_int(x) and x >= 0 for x in js)),
               "a non-empty list of sets of state indices >= 0"),
    "n_grid": (_override(lambda n: _is_int(n) and n >= 1), "a non-empty list of integers >= 1"),
}


# the suites that read each override: one that none of the suites to run reads checks nothing
OVERRIDE_READERS = {"chains": ("prop1", "thm1", "cor1", "cor3"), "j_sets": ("thm1", "cor3"),
                    "n_grid": ("thm1", "cor1", "cor3")}


def _check_options(opts: VerifyOptions, suites) -> None:
    """Reject an ill-typed or out-of-range option, or an override that none of ``suites``
    reads, naming it, before any of them runs."""
    for f in fields(VerifyOptions):
        for ok, what in (DEFAULT_TYPES[type(f.default)], OPTION_RULES[f.name]):
            if not ok(getattr(opts, f.name)):
                raise ValidationError(f"{f.name} must be {what}, got {getattr(opts, f.name)!r}")
    for name, readers in OVERRIDE_READERS.items():
        if getattr(opts, name) is not None and not set(readers) & set(suites):
            raise ValidationError(f"{name} is read only by {', '.join(readers)}, so "
                                  f"{', '.join(suites)} would check nothing with it")
    # the abstract states no start law for Thm 1 and its corollaries, and from a point
    # start a chain can break them at short horizons: they are checked from pi alone, and
    # a configured start is rejected, not ignored
    from_pi = [s for s in ("thm1", "cor1", "cor3") if s in suites]
    for chain_id, chain in opts.chains or []:
        if from_pi and chain.start is not None:
            raise ValidationError(f"chain {chain_id!r} sets a start law, but X_1 ~ pi in "
                                  f"{', '.join(from_pi)}: drop its 'start'")
    # a J set that fits none of a suite's chains would be skipped on each and check nothing;
    # thm1 tests every default chain, cor3 the largest too, and no size depends on the seed
    if opts.j_sets:
        m_max = max(chain.matrix.m for _, chain in _family_suite(opts, opts.seed, range(6)))
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
