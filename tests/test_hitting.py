import itertools
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mml import hitting, solve
from mml.chain import (
    generate,
    is_irreducible,
    parse_descriptor,
    point_start,
    stationary,
    validate,
)
from mml.errors import PreconditionError, SingularSystemError, ValidationError
from mml.hitting import (
    BRACKET_CHUNK,
    BRACKET_FEW,
    BRACKET_HEAD,
    MASS_FILTER_TOL,
    StateSet,
    _bracket_step,
    _head,
    _lex_smallest,
    _minimal_qualifying_sets,
    _outside,
    expected_hitting_time,
    hitting_table,
    member_masses,
    row_members,
    state_set,
    subset_hitting_times_stack,
    subset_masses,
    subset_members,
    survival_probabilities,
    t_large,
    unseen_set_law,
)
from mml.report import ReportBlock, render_reports_csv
from mml.solve import (
    POWER_MIN_STATES,
    SOLVE_BATCH,
    STATIONARY_RESIDUAL_TOL,
    _arc_hitting,
    _hitting_iteration,
    _power_iteration,
    hitting_times,
)
from mml.verify import check_lemma1, check_lemma2, lemma1_stack_reports, lemma2_stack_reports

from oracles import (
    brute_force_t_large,
    direct_solve_table,
    exact_hitting_table,
    gth_hitting_exact,
    gth_stationary_exact,
    mask_members,
    max_rel_err,
    minimal_sets_by_reshape,
    survival_by_q_stack,
    survival_exact,
    survival_sum_expected,
    stationary_by_eye,
    subset_masses_by_concatenation,
    unpruned_t_large,
    survival_sum_table,
    trajectory_survival,
    trajectory_visit_law,
)

UNIFORM2 = validate([[0.5, 0.5], [0.5, 0.5]])
CYCLE3 = validate([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
# pi(0) = 1.9e-7, so h reaches 1.3e7: an accurate solve leaves an absolute residual of 1.9e-9
STIFF_BIRTH_DEATH = "birth-death:m=8;p=0.45;q=0.05"


def random_chain(m, seed):
    return generate("random-dense", m=m, seed=seed).matrix


def family_chain(family, m):
    if family == "random-dense":
        return random_chain(m, 400 + m)
    if family == "lazy-cycle":
        return generate("lazy-cycle", m=m, hold=0.5).matrix
    if family == "birth-death":
        return generate("birth-death", m=m, p=0.35, q=0.25).matrix
    return generate("iid", mu=np.random.default_rng(m).dirichlet(np.ones(m))).matrix


def drawn_chain(family, m, seed):
    """A chain of m states of ``family`` with parameters drawn from ``seed``: random-dense,
    a lazy cycle or a birth-death chain, or "sparse", about 70% of its entries 0 and the
    cycle x -> x + 1 keeping it irreducible."""
    rng = np.random.default_rng(seed)
    if family == "random-dense":
        return random_chain(m, seed)
    if family == "lazy-cycle":
        return generate("lazy-cycle", m=m, hold=float(rng.uniform(0.1, 0.9))).matrix
    if family == "birth-death":
        p, q = rng.uniform(0.2, 0.4, size=2).tolist()
        return generate("birth-death", m=m, p=p, q=q).matrix
    rows = rng.dirichlet(np.ones(m), size=m) * (rng.random((m, m)) < 0.3)
    rows[np.arange(m), (np.arange(m) + 1) % m] += 0.05
    return validate(rows / rows.sum(axis=1, keepdims=True))


@st.composite
def stochastic_rows(draw, max_states=8):
    """Random transition matrix of at most ``max_states`` states whose entries are all at
    least 0.05 / (1.05 m).

    The floor keeps hitting times below a few hundred steps, so solver
    rounding stays far below the 1e-9 tolerance of the monotonicity check.
    """
    m = draw(st.integers(1, max_states))
    weights = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=m * m, max_size=m * m)))
    rows = weights.reshape(m, m) + 0.05
    return rows / rows.sum(axis=1, keepdims=True)


class TestStateSet:
    def test_normalizes_sorted_unique(self):
        assert StateSet((2, 0, 2, 1)).members == (0, 1, 2)

    def test_rejects_negative(self):
        with pytest.raises(ValidationError):
            StateSet((-1, 0))


class TestHittingTable:
    def test_uniform_two_state(self):
        # h(0) = 1 + 0.5 h(0)  =>  h(0) = 2
        table = hitting_table(UNIFORM2, state_set([1]))
        np.testing.assert_allclose(table.h, [2.0, 0.0], atol=1e-9)
        assert table.t_plus_all == pytest.approx(2.0, abs=1e-9)

    def test_full_target_is_zero(self):
        table = hitting_table(CYCLE3, state_set([0, 1, 2]))
        assert np.array_equal(table.h, np.zeros(3))
        assert table.t_plus_all == 0.0

    def test_deterministic_cycle(self):
        table = hitting_table(CYCLE3, state_set([2]))
        np.testing.assert_allclose(table.h, [2.0, 1.0, 0.0], atol=1e-9)

    def test_empty_target(self):
        with pytest.raises(PreconditionError, match="is empty"):
            hitting_table(UNIFORM2, StateSet(()))

    def test_single_state_chain(self):
        table = hitting_table(validate([[1.0]]), state_set([0]))
        assert table.h.tolist() == [0.0]
        assert table.t_plus_all == 0.0

    def test_out_of_range(self):
        with pytest.raises(ValidationError):
            hitting_table(UNIFORM2, state_set([5]))

    def test_unreachable_target_names_the_set(self):
        # state 0 never leaves, so h(0) = 1 + h(0) has no solution
        P = validate([[1.0, 0.0, 0.0], [0.0, 0.5, 0.5], [0.0, 0.5, 0.5]])
        with pytest.raises(SingularSystemError, match=r"target \(1, 2\)"):
            hitting_table(P, state_set([1, 2]))

    @pytest.mark.parametrize("seed", range(10))
    def test_residual_and_floor(self, seed):
        P = random_chain(6, seed)
        members = (seed % 5,)
        table = hitting_table(P, StateSet(members))
        assert table.residual <= 1e-9
        off_target = [x for x in range(6) if x not in members]
        assert all(table.h[x] >= 1 - 1e-9 for x in off_target)

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_survival_sum_oracle(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(2, 9))
        P = random_chain(m, seed + 100)
        k = int(rng.integers(1, m))
        members = tuple(sorted(rng.choice(m, size=k, replace=False).tolist()))
        h = hitting_table(P, StateSet(members)).h
        h_oracle = survival_sum_table(P.rows, members)
        np.testing.assert_allclose(h, h_oracle, rtol=1e-6)

    @pytest.mark.parametrize("seed", range(6))
    def test_monotone_in_target(self, seed):
        P = random_chain(7, seed + 30)
        rng = np.random.default_rng(seed)
        small = tuple(sorted(rng.choice(7, size=2, replace=False).tolist()))
        big = tuple(sorted(set(small) | {int(rng.integers(0, 7))}))
        h_small = hitting_table(P, StateSet(small)).h
        h_big = hitting_table(P, StateSet(big)).h
        assert np.all(h_big <= h_small + 1e-9)

    @settings(deadline=None)
    @given(rows=stochastic_rows(), data=st.data())
    def test_monotone_in_target_property(self, rows, data):
        m = rows.shape[0]
        small = data.draw(st.sets(st.integers(0, m - 1), min_size=1))
        big = small | data.draw(st.sets(st.integers(0, m - 1)))
        P = validate(rows)
        h_small = hitting_table(P, StateSet(tuple(small))).h
        h_big = hitting_table(P, StateSet(tuple(big))).h
        assert np.all(h_big <= h_small + 1e-9)

    def test_iid_closed_form(self):
        mu = np.array([0.1, 0.2, 0.3, 0.4])
        P = generate("iid", mu=mu).matrix
        for j in range(4):
            h = hitting_table(P, state_set([j])).h
            for x in range(4):
                expected = 0.0 if x == j else 1.0 / mu[j]
                assert h[x] == pytest.approx(expected, rel=1e-9)


class TestScaledResidual:
    """A system passes when its residual is at most SYSTEM_RESIDUAL_TOL * max(1, max h)."""

    def test_stiff_birth_death_is_accurate(self):
        P = parse_descriptor(STIFF_BIRTH_DEATH)[1].matrix
        table = hitting_table(P, state_set([0]))
        assert table.t_plus_all > 1e7 and table.residual > solve.SYSTEM_RESIDUAL_TOL
        # backward stable: the residual is an ulp of h; I - Q has a condition number near
        # 1e7, so h itself is within about 1e-10 of the exact solution
        assert table.residual < 1e-15 * table.t_plus_all
        np.testing.assert_allclose(table.h, exact_hitting_table(P.rows, [0]), rtol=1e-9, atol=0)

    def test_stiff_birth_death_every_subset_and_lemma2(self):
        P = parse_descriptor(STIFF_BIRTH_DEATH)[1].matrix
        h = subset_hitting_times_stack([P])[0]
        assert h[0].tolist() == hitting_table(P, state_set([0])).h.tolist()
        rep = check_lemma2(P, stationary(P), state_set([0]))[0]
        assert rep.holds and rep.value == h[0].max()

    @staticmethod
    def _perturbed_solve(monkeypatch, rel):
        solve = np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve", lambda A, b: solve(A, b) * (1.0 + rel))

    def test_inaccurate_solve_raises(self, monkeypatch):
        # h off by a relative 1e-6 leaves a residual of 1e-6 on B^c, far above 1e-9 * max h
        P = random_chain(6, 3)
        self._perturbed_solve(monkeypatch, 1e-6)
        with pytest.raises(SingularSystemError, match=r"^hitting system residual \d(\.\d+)?e-0[67] "
                                                      r"exceeds tolerance for target \(0,\)$"):
            hitting_table(P, state_set([0]))
        with pytest.raises(SingularSystemError, match="exceeds tolerance for target"):
            subset_hitting_times_stack([P])

    def test_inaccurate_stiff_solve_raises(self, monkeypatch):
        # the tolerance scales with max h = 1.3e7: 1e-9 * 1.3e7 = 0.013 lets through an h off
        # by a relative 1e-2, and not one off by 0.1
        P = parse_descriptor(STIFF_BIRTH_DEATH)[1].matrix
        self._perturbed_solve(monkeypatch, 1e-2)
        hitting_table(P, state_set([0]))
        self._perturbed_solve(monkeypatch, 0.1)
        with pytest.raises(SingularSystemError, match="exceeds tolerance for target \\(0,\\)"):
            hitting_table(P, state_set([0]))


class TestSubsetHittingTables:
    @pytest.mark.parametrize("family", ["random-dense", "lazy-cycle", "birth-death", "iid"])
    @pytest.mark.parametrize("m", range(1, 7))
    def test_every_subset_matches_single_solves(self, family, m):
        P = family_chain(family, m) if m > 1 else validate([[1.0]])
        h = subset_hitting_times_stack([P])[0]
        assert h.shape == ((1 << m) - 1, m)
        for mask, row in enumerate(h, start=1):
            members = mask_members(mask)
            single = hitting_table(P, StateSet(members))
            assert np.array_equal(row, single.h)
            assert row.max() == single.t_plus_all
            assert single.residual <= 1e-9
            np.testing.assert_allclose(row, direct_solve_table(P.rows, members),
                                       rtol=1e-12, atol=0)

    def test_keys_in_bitmask_order(self):
        # h is 0 exactly on its target, so each row's zeros name the set it targets
        targets = [tuple(np.flatnonzero(row == 0).tolist())
                   for row in subset_hitting_times_stack([CYCLE3])[0]]
        assert targets == [(0,), (1,), (0, 1), (2,), (0, 2), (1, 2), (0, 1, 2)]

    def test_too_many_states(self):
        P = generate("lazy-cycle", m=21, hold=0.5).matrix
        with pytest.raises(PreconditionError, match="exceeds the enumeration cap 20"):
            subset_hitting_times_stack([P])

    @pytest.mark.parametrize("batch", [SOLVE_BATCH, 1, 5])
    @pytest.mark.parametrize("m", [1, 3, 6])
    def test_stack_equals_each_chain_alone(self, monkeypatch, batch, m):
        chains = [random_chain(m, 1000 + 10 * m + k) if m > 1 else validate([[1.0]])
                  for k in range(4)]
        alone = [subset_hitting_times_stack([P])[0] for P in chains]
        # a small batch makes the solver's stacks straddle chains
        monkeypatch.setattr(solve, "SOLVE_BATCH", batch)
        stack = subset_hitting_times_stack(chains)
        assert stack.shape == (4, (1 << m) - 1, m)
        for h, single in zip(stack, alone):
            assert np.array_equal(h, single)

    def test_reducible_chain_is_singular(self):
        # the stacked solve has no reachability search of its own: on this chain it
        # returned h up to 9.7e15 for target (0,), and raised nothing
        with pytest.raises(SingularSystemError,
                           match=r"^hitting system singular for target \(0,\)$"):
            subset_hitting_times_stack([random_chain(12, 0), singular_witness()])

    def test_irreducible_chains_are_not_searched(self, monkeypatch):
        monkeypatch.setattr(hitting, "hitting_table", None)
        h = subset_hitting_times_stack([random_chain(6, 1), family_chain("lazy-cycle", 6)])
        assert h.shape == (2, 63, 6)


class TestMemberTable:
    @pytest.mark.parametrize("m", range(1, 13))
    def test_members_in_bitmask_order(self, m):
        inside = subset_members(m)
        sets = [mask_members(mask) for mask in range(1, 1 << m)]
        assert row_members(inside) == sets
        assert [tuple(np.flatnonzero(row).tolist()) for row in inside] == sets

    @settings(deadline=None)
    @given(m=st.integers(1, 70), data=st.data())
    def test_row_members_of_any_rows(self, m, data):
        # past 64 states no row fits one integer; rows may repeat or be empty
        rows = data.draw(st.lists(st.lists(st.booleans(), min_size=m, max_size=m), max_size=8))
        inside = np.array(rows, dtype=bool).reshape(len(rows), m)
        expected = [mask_members(sum(1 << j for j, x in enumerate(row) if x)) for row in rows]
        assert row_members(inside) == expected

    @pytest.mark.parametrize("m", range(2, 13))
    def test_masses_equal_pi_mass_bitwise(self, m):
        # from m = 8 on, some sets have 8 or more members, which numpy sums pairwise
        pis = [stationary(generate("random-dense", m=m, alpha=alpha, seed=50 * m + k).matrix)
               for k, alpha in enumerate((1.0, 0.2, 5.0))]
        inside = subset_members(m)
        masses = member_masses(pis, inside)
        expected = np.array([[pi.mass(mask_members(mask)) for mask in range(1, 1 << m)]
                             for pi in pis])
        assert masses.view(np.uint64).tolist() == expected.view(np.uint64).tolist()

    def test_masses_on_a_skewed_law_equal_pi_mass_bitwise_at_every_set(self):
        # pi spans about three orders of magnitude, so the order of the additions shows
        pi = stationary(generate("birth-death", m=14, p=0.35, q=0.2).matrix)
        assert pi.pi.max() / pi.pi.min() > 500
        masses = member_masses([pi], subset_members(14))[0]
        expected = np.array([pi.mass(mask_members(mask)) for mask in range(1, 1 << 14)])
        assert masses.view(np.uint64).tolist() == expected.view(np.uint64).tolist()

    def test_masses_at_20_states_equal_pi_mass_bitwise_on_a_sample(self):
        # sets of 16 or more members take a second stride of eight terms
        pis = [stationary(random_chain(20, 2020))]
        inside = subset_members(20)
        masses = member_masses(pis, inside)[0]
        ks = np.random.default_rng(20).choice(len(inside), size=4000, replace=False)
        ks = np.concatenate([ks, np.flatnonzero(inside.sum(axis=1) >= 16)])
        expected = np.array([pis[0].mass(mask_members(k + 1)) for k in ks.tolist()])
        assert masses[ks].view(np.uint64).tolist() == expected.view(np.uint64).tolist()


@st.composite
def solver_chains(draw, min_m=1, max_m=60):
    """A random chain of min_m-max_m states, dense or with about 80% of its entries
    exactly 0; the cycle x -> x + 1 keeps weight, so the chain is irreducible."""
    m = draw(st.integers(min_m, max_m))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    rows = rng.dirichlet(np.full(m, draw(st.sampled_from([0.5, 1.0, 5.0]))), size=m)
    if draw(st.booleans()):
        rows *= rng.random((m, m)) < 0.2
    rows[np.arange(m), (np.arange(m) + 1) % m] += 0.05
    return validate(rows / rows.sum(axis=1, keepdims=True))


def _bits(a) -> list[int]:
    return np.asarray(a, dtype=float).view(np.uint64).tolist()


class TestSolverBuilds:
    """``stationary``'s direct solve and ``hitting_times`` build their matrices in place;
    they must solve, bit for bit, the systems of the plain constructions in ``oracles``."""

    @settings(deadline=None, max_examples=60)
    @given(P=solver_chains(), data=st.data())
    def test_single_targets_equal_plain_solves(self, P, data):
        if P.m < POWER_MIN_STATES:  # larger chains may take power iteration: TestPowerPath
            assert _bits(stationary(P).pi) == _bits(stationary_by_eye(P.rows))
        members = data.draw(st.sets(st.integers(0, P.m - 1), min_size=1))
        table = hitting_table(P, StateSet(tuple(members)))
        h = table.h
        if P.m < POWER_MIN_STATES:  # larger chains may take the iteration: TestHittingIteration
            assert _bits(h) == _bits(direct_solve_table(P.rows, members))
        # the residual is max |h - 1 - Q h| on B^c, up to the order of the sums in Q h
        rest = np.setdiff1d(np.arange(P.m), list(members))
        expected = np.abs(h[rest] - 1.0 - P.rows[np.ix_(rest, rest)] @ h[rest]).max(initial=0.0)
        assert abs(table.residual - expected) <= 1e-12 * (1.0 + h.max())

    def test_stacked_batch_equals_plain_solves(self):
        # 4 chains of 10 states: 4,092 systems, the stacks of one size straddling chains
        chains = [random_chain(10, 3000 + k) for k in range(4)]
        stack = subset_hitting_times_stack(chains)
        sets = [mask_members(mask) for mask in range(1, 1 << 10)]
        for P, h in zip(chains, stack):
            expected = [direct_solve_table(P.rows, members) for members in sets]
            assert _bits(h) == _bits(expected)

    def test_two_state_with_a_tiny_flip(self):
        P = generate("two-state", p=1e-12, q=0.5).matrix
        assert _bits(stationary(P).pi) == _bits(stationary_by_eye(P.rows))
        for members in ([0], [1]):
            assert (_bits(hitting_table(P, state_set(members)).h)
                    == _bits(direct_solve_table(P.rows, members)))

    def test_stiff_birth_death_still_underflows(self):
        # the plain solve loses the smallest entry to cancellation too
        P = generate("birth-death", m=20, p=0.1, q=0.8).matrix
        assert stationary_by_eye(P.rows).min() == 0.0
        with pytest.raises(SingularSystemError,
                           match="stationary entry underflowed to zero on an irreducible chain"):
            stationary(P)

    # stationary and hitting_table take their iterations on the random chain, and the arc
    # solve on the lazy cycle; each holds a few vectors and no matrix
    @pytest.mark.parametrize("descriptor,solve,matrices", [
        ("random-dense:m=1000;seed=1000", lambda P: stationary(P), 0.1),
        ("random-dense:m=1000;seed=1000", lambda P: hitting_table(P, state_set([0])), 0.1),
        ("lazy-cycle:m=1000;hold=0.5", lambda P: hitting_table(P, state_set([0])), 0.1),
        ("lazy-cycle:m=1000;hold=0.5", lambda P: hitting_table(P, state_set(range(P.m // 10))),
         0.1)],
        ids=["stationary", "hitting_table-iteration", "hitting_table", "hitting_table-tenth"])
    def test_one_traced_matrix_beside_P(self, descriptor, solve, matrices):
        # numpy reports its arrays to tracemalloc; LAPACK's own copy of A is not traced
        P = parse_descriptor(descriptor)[1].matrix
        m = P.m
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            solve(P)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < matrices * m * m * 8


class TestPowerPath:
    """From POWER_MIN_STATES states on, ``stationary`` reduces a band chain and tries power
    iteration first on any other, falling back to the direct solve where the iteration
    does not halve its residual."""

    @settings(deadline=None, max_examples=60)
    @given(P=solver_chains(POWER_MIN_STATES, 120))
    # stopping at the first residual within m * eps * max x would leave 2.5e-16 here,
    # above the plain solve's 2.1e-17
    @example(P=random_chain(32, 9))
    def test_agrees_with_the_plain_solve(self, P):
        pi, by_eye = stationary(P), stationary_by_eye(P.rows)
        assert np.max(np.abs(pi.pi - by_eye) / by_eye) <= 1e-10
        assert pi.residual == np.max(np.abs(pi.pi @ P.rows - pi.pi))
        assert pi.residual <= np.max(np.abs(by_eye @ P.rows - by_eye))

    def test_the_floor_is_32_states(self):
        P = random_chain(32, 9)
        assert _bits(stationary(P).pi) == _bits(_power_iteration(P.rows)[0])

    @pytest.mark.parametrize("m", [64, 300])
    def test_iid_returns_mu(self, m):
        mu = np.random.default_rng(m).dirichlet(np.ones(m))
        mu /= mu.sum()
        pi = stationary(generate("iid", mu=mu).matrix)
        assert np.max(np.abs(pi.pi - mu) / mu) <= 1e-14

    @pytest.mark.parametrize("descriptor", ["birth-death:m=64;p=0.3;q=0.7",
                                            "birth-death:m=500;p=0.26;q=0.25"])
    def test_oscillating_and_slow_chains_are_exact(self, descriptor):
        # the first is close to period 2 and the second mixes slowly, so neither's power
        # iteration contracts; both are band chains, which the reduction solves to rounding
        P = parse_descriptor(descriptor)[1].matrix
        assert max_rel_err(stationary(P).pi, gth_stationary_exact(P.rows)) <= 1e-13

    @settings(deadline=None, max_examples=20)
    @given(P=solver_chains(31, 31))
    def test_below_the_floor_takes_the_direct_solve(self, P):
        assert _bits(stationary(P).pi) == _bits(stationary_by_eye(P.rows))

    def test_lazy_cycle_returns_the_uniform_law(self):
        pi = stationary(generate("lazy-cycle", m=1000, hold=0.5).matrix)
        assert max_rel_err(pi.pi, [Fraction(1, 1000)] * 1000) <= 1e-13

    @pytest.mark.parametrize("descriptor,found", [
        ("birth-death:m=64;p=0.3;q=0.7", False), ("birth-death:m=500;p=0.26;q=0.25", False),
        ("random-dense:m=500;seed=7", True), ("lazy-cycle:m=1000;hold=0.5", True)])
    def test_an_attempt_stops_within_60_products(self, descriptor, found):
        P = parse_descriptor(descriptor)[1].matrix
        rows = _CountedRows(P.rows)
        assert (_power_iteration(rows) is not None) == found
        assert 1 <= rows.products <= 60


@st.composite
def chain_targets(draw, min_m, max_m):
    """A ``solver_chains`` chain and a non-empty target set of its states."""
    P = draw(solver_chains(min_m, max_m))
    return P, tuple(sorted(draw(st.sets(st.integers(0, P.m - 1), min_size=1))))


def _sure_entry_chain(m, seed):
    """A dense chain whose states 1-5 step into state 0 with probability 1: their hitting
    times of {0} are exactly 1."""
    rng = np.random.default_rng(seed)
    rows = rng.dirichlet(np.ones(m), size=m)
    rows[np.arange(m), (np.arange(m) + 1) % m] += 0.05
    rows[1:6] = 0.0
    rows[1:6, 0] = 1.0
    return validate(rows / rows.sum(axis=1, keepdims=True))


class TestHittingIteration:
    """From POWER_MIN_STATES states on, ``hitting_table`` tries a deflated fixed-point
    iteration first and falls back to the direct solve where it does not halve its residual."""

    @settings(deadline=None, max_examples=60)
    @given(case=chain_targets(POWER_MIN_STATES, 120))
    # without the clamp at 1, states 1-5 come out a few ulps below 1
    @example(case=(_sure_entry_chain(32, 0), (0,)))
    def test_agrees_with_the_plain_solve(self, case):
        P, members = case
        outside = ~np.isin(np.arange(P.m), members)
        table, plain = hitting_table(P, StateSet(members)), direct_solve_table(P.rows, members)
        h = table.h
        assert np.max(np.abs(h - plain) / np.maximum(plain, 1.0)) <= 1e-12
        assert np.all(h[~outside] == 0.0) and np.all(h[outside] >= 1.0)
        if _hitting_iteration(P.rows, outside) is None:
            assert _bits(h) == _bits(plain)
            return
        # the residual is the returned h's own, and as small as the plain solve's or rounding
        def residual(x):
            return np.max(np.abs(1.0 + (P.rows @ x)[outside] - x[outside]))
        assert table.residual == residual(h)
        rounding = np.count_nonzero(outside) * np.finfo(float).eps * max(1.0, h.max())
        assert table.residual <= max(residual(plain), rounding)

    @settings(deadline=None, max_examples=30)
    @given(case=chain_targets(POWER_MIN_STATES, 120))
    def test_an_attempt_stops_within_60_products(self, case):
        P, members = case
        rows = _CountedRows(P.rows)
        _hitting_iteration(rows, ~np.isin(np.arange(P.m), members))
        assert 1 <= rows.products <= 60

    @pytest.mark.parametrize("descriptor,found", [
        ("random-dense:m=500;seed=7", True), ("lazy-cycle:m=1000;hold=0.5", False),
        ("birth-death:m=500;p=0.26;q=0.25", False), ("birth-death:m=64;p=0.3;q=0.7", False)])
    def test_products_on_the_benchmark_chains(self, descriptor, found):
        P = parse_descriptor(descriptor)[1].matrix
        rows = _CountedRows(P.rows)
        outside = np.arange(P.m) != 0
        assert (_hitting_iteration(rows, outside) is not None) == found
        assert 1 <= rows.products <= 60

    def test_every_state_a_target_gives_zero(self):
        P = random_chain(40, 4)
        table = hitting_table(P, state_set(range(40)))
        assert np.array_equal(table.h, np.zeros(40)) and table.t_plus_all == 0.0

    @pytest.mark.parametrize("descriptor", ["lazy-cycle:m=1000;hold=0.5",
                                            "birth-death:m=500;p=0.26;q=0.25",
                                            "birth-death:m=64;p=0.3;q=0.7"])
    def test_slow_and_oscillating_chains_are_exact(self, descriptor):
        # the iteration does not contract on these band chains; the arc solve is exact
        P = parse_descriptor(descriptor)[1].matrix
        h = hitting_table(P, state_set([0])).h
        assert max_rel_err(h, gth_hitting_exact(P.rows, [0])) <= 1e-13

    @settings(deadline=None, max_examples=20)
    @given(case=chain_targets(31, 31))
    def test_below_the_floor_takes_the_direct_solve(self, case):
        P, members = case
        table = hitting_table(P, StateSet(members))
        assert _bits(table.h) == _bits(direct_solve_table(P.rows, members))

    def test_the_floor_is_32_states(self):
        P = random_chain(32, 9)
        found = _hitting_iteration(P.rows, np.arange(32) != 0)
        table = hitting_table(P, state_set([0]))
        assert _bits(table.h) == _bits(found[0]) and table.residual == found[1]

    # {1} is entered from every state but 0, so the iteration runs and stops; from the one
    # state off the second target nothing enters it (S = 0), so no iteration starts
    @pytest.mark.parametrize("members,named", [((1,), r"\(1,\)"),
                                               (tuple(range(1, 40)), r"\(1, 2, ")])
    def test_unreachable_target_names_the_set(self, members, named):
        # state 0 never leaves, so h(0) = 1 + h(0) has no solution
        rows = random_chain(40, 5).rows.copy()
        rows[0] = point_start(40, 0)
        P = validate(rows)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SingularSystemError,
                               match="hitting system singular for target " + named):
                hitting_table(P, StateSet(members))

    def test_the_iteration_passes_the_same_residual_check(self, monkeypatch):
        P = random_chain(40, 6)
        found = _hitting_iteration(P.rows, np.arange(40) != 0)
        monkeypatch.setattr(solve, "_hitting_iteration", lambda rows, outside: (found[0], 1e-6))
        with pytest.raises(SingularSystemError, match=r"^hitting system residual 1e-06 exceeds "
                                                      r"tolerance for target \(0,\)$"):
            hitting_table(P, state_set([0]))


@st.composite
def band_targets(draw, min_m=POWER_MIN_STATES, max_m=300):
    """A band chain of min_m-max_m states and a target of 1-5 of its states. Each up and down
    rate is k 2^-11 with log k uniform on [0, log 1000], so one rate is up to 1000 times
    its partner and every entry, the diagonal too, is exact. A birth-death chain has no
    wrap links; a cycle has them all, and a one-way cycle loses some down links."""
    m = draw(st.integers(min_m, max_m))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    up, down = (np.round(1000.0 ** rng.random((2, m))) * 2.0 ** -11)
    kind = draw(st.sampled_from(["birth-death", "cycle", "one-way"]))
    if kind == "birth-death":
        up[-1] = down[0] = 0.0
    elif kind == "one-way":
        down[rng.random(m) < 0.3] = 0.0
    x = np.arange(m)
    rows = np.zeros((m, m))
    rows[x, (x + 1) % m], rows[x, x - 1], rows[x, x] = up, down, 1.0 - up - down
    members = rng.choice(m, size=draw(st.integers(1, 5)), replace=False)
    return validate(rows), tuple(sorted(members.tolist()))


class TestBandPath:
    """From POWER_MIN_STATES states on, a chain whose support lies in the cyclic tridiagonal
    band takes GTH reduction for pi and the arc solve for h, exact to rounding."""

    @settings(deadline=None, max_examples=60)
    @given(case=band_targets())
    def test_reduction_matches_exact_rationals(self, case):
        P, members = case
        assert P.structure.band is not None
        pi = stationary(P)
        assert pi.residual <= STATIONARY_RESIDUAL_TOL
        assert max_rel_err(pi.pi, gth_stationary_exact(P.rows)) <= 1e-13
        table = hitting_table(P, StateSet(members))
        outside = ~np.isin(np.arange(P.m), members)
        assert _bits(table.h) == _bits(_arc_hitting(P.rows, *P.structure.band, outside)[0])
        assert table.residual <= solve.SYSTEM_RESIDUAL_TOL * max(1.0, table.t_plus_all)
        assert max_rel_err(table.h, gth_hitting_exact(P.rows, members)) <= 1e-13
        every = hitting_table(P, state_set(range(P.m)))
        assert not every.h.any() and every.residual == 0.0

    def test_stiff_birth_death_keeps_its_smallest_entries(self):
        # pi_k is proportional to 8^-k, down to 1e-180; LAPACK loses the smallest entries of
        # this chain already at 20 states
        P = generate("birth-death", m=200, p=0.1, q=0.8).matrix
        pi = stationary(P)
        assert pi.pi.min() < 1e-150
        assert max_rel_err(pi.pi, gth_stationary_exact(P.rows)) <= 1e-13

    @pytest.mark.parametrize("members,named", [((0,), r"\(0,\)"), ((0, 3), r"\(0, 3\)")])
    def test_unreachable_target_is_singular(self, members, named):
        # states 10 and up never step below 10, so the target is out of their reach: the arc
        # solve meets a zero pivot (LAPACK, given the same system, returns h near 1e15)
        rows = generate("birth-death", m=40, p=0.3, q=0.3).matrix.rows.copy()
        rows[10, 10] += rows[10, 9]
        rows[10, 9] = 0.0
        with pytest.raises(SingularSystemError,
                           match="^hitting system singular for target " + named + "$"):
            hitting_table(validate(rows), state_set(members))


def singular_witness():
    """birth-death(12, 0.3, 0.3) with P(5, 4) moved onto the diagonal: states 5-11 never
    step below 5, so they cannot reach state 0."""
    rows = generate("birth-death", m=12, p=0.3, q=0.3).matrix.rows.copy()
    rows[5, 5] += rows[5, 4]
    rows[5, 4] = 0.0
    return validate(rows)


class TestSolverLayer:
    """``solve`` reads each matrix's structure once, and on a reducible chain names a target
    that some state cannot reach before any path runs."""

    def test_unreachable_target_below_the_floor_is_singular(self):
        # this system goes to LAPACK, whose LU meets a pivot of rounding size, not 0: it
        # returned h up to 9.7e15 with residual 2.0, which the scaled check let through
        with pytest.raises(SingularSystemError,
                           match=r"^hitting system singular for target \(0,\)$"):
            hitting_table(singular_witness(), state_set([0]))

    @pytest.mark.parametrize("seed", [0, 2])
    def test_unreachable_target_off_the_band_is_singular(self, seed):
        # states 20-39 never leave 20-39; the iteration does not contract, and LAPACK
        # returned h near 7.5e17 (seed 0) or failed the residual check (seed 2)
        rng = np.random.default_rng(seed)
        rows = rng.dirichlet(np.ones(40), size=40)
        rows[20:, :20] = 0.0
        P = validate(rows / rows.sum(axis=1, keepdims=True))
        assert P.structure.band is None and not P.structure.irreducible
        with pytest.raises(SingularSystemError,
                           match=r"^hitting system singular for target \(0,\)$"):
            hitting_table(P, state_set([0]))

    @pytest.mark.parametrize("m", [6, 40])
    def test_reachable_target_on_a_reducible_chain_is_solved(self, m):
        # state 0 is transient: nothing enters it, and every state reaches {1}
        rows = random_chain(m, 7).rows.copy()
        rows[:, 0] = 0.0
        P = validate(rows / rows.sum(axis=1, keepdims=True))
        assert not P.structure.irreducible
        np.testing.assert_allclose(hitting_table(P, state_set([1])).h,
                                   direct_solve_table(P.rows, [1]), rtol=1e-12, atol=0)

    def test_the_band_is_read_once_per_matrix(self, monkeypatch):
        calls = []

        def counting(rows):
            calls.append(rows.shape)
            return band_links(rows)

        band_links = solve._band_links
        monkeypatch.setattr(solve, "_band_links", counting)
        P = parse_descriptor("lazy-cycle:m=1000;hold=0.5")[1].matrix
        assert is_irreducible(P)
        stationary(P)
        for members in ([0], [0, 500], range(100)):
            hitting_table(P, state_set(members))
        assert calls == [(1000, 1000)]

    @pytest.mark.parametrize("fn,module", [
        (stationary, "mml.chain"), (is_irreducible, "mml.chain"),
        (hitting_table, "mml.hitting"), (t_large, "mml.hitting"),
        (subset_hitting_times_stack, "mml.hitting"), (survival_probabilities, "mml.hitting")])
    def test_traced_entry_points_keep_their_modules(self, fn, module):
        # bench/tracer.py wraps only the public functions defined in one of its LAYERS, and
        # solve is not one of them: an entry point moved there would silently read 0 in its
        # per-layer metrics, such as chain.stationary.calls
        assert fn.__module__ == module


class _CountedRows(np.ndarray):
    """P's rows, counting the products x @ rows taken with them."""

    def __new__(cls, rows):
        out = np.array(rows).view(cls)
        out.products = 0
        return out

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.matmul:
            self.products += 1
        return getattr(ufunc, method)(*(np.asarray(a) for a in inputs), **kwargs)


def _t_plus_minus(P, A, B):
    """T+(A,B) = max_{x in A} E_x tau_B from Lemma 1's row for (A, B), and
    T-(A,B) = min_{x in A} E_x tau_B from its row for (B, A)."""
    pi = stationary(P)
    A, B = state_set(A), state_set(B)
    return (check_lemma1(P, pi, A, B)[0].metadata["t_plus"],
            check_lemma1(P, pi, B, A)[0].metadata["t_minus"])


class TestTPlusMinus:
    """T+ and T- come from Lemma 1's rows, the one place that computes them."""

    def test_uniform(self):
        assert _t_plus_minus(UNIFORM2, [0], [1]) == pytest.approx((2.0, 2.0), abs=1e-9)

    def test_start_inside_target(self):
        assert _t_plus_minus(CYCLE3, [1], [0, 1])[0] == 0.0

    def test_cycle(self):
        assert _t_plus_minus(CYCLE3, [0, 1], [2]) == pytest.approx((2.0, 1.0), abs=1e-9)

    def test_empty_start_set(self):
        with pytest.raises(PreconditionError, match="set A is empty"):
            _t_plus_minus(UNIFORM2, [], [1])

    @pytest.mark.parametrize("seed", range(4))
    def test_cells_are_the_table_extremes(self, seed):
        # each cell is the max or min of one hitting table over the other set, bit for bit
        P = random_chain(5, 600 + seed)
        rng = np.random.default_rng(seed)
        for _ in range(10):
            members = rng.permutation(5).tolist()
            A, B = sorted(members[:2]), sorted(members[2:2 + int(rng.integers(1, 4))])
            h = hitting_table(P, state_set(B)).h
            assert _t_plus_minus(P, A, B) == (h[A].max(), h[A].min())


class TestExpectedHittingTime:
    def test_uniform_from_outside(self):
        table = hitting_table(UNIFORM2, state_set([1]))
        assert expected_hitting_time(table, np.array([1.0, 0.0])) == pytest.approx(3.0)

    def test_start_inside_target_is_one(self):
        table = hitting_table(UNIFORM2, state_set([1]))
        assert expected_hitting_time(table, np.array([0.0, 1.0])) == pytest.approx(1.0)

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_survival_oracle(self, seed):
        P = random_chain(6, seed + 60)
        pi = stationary(P)
        members = (0, 3)
        table = hitting_table(P, StateSet(members))
        lhs = expected_hitting_time(table, pi.pi)
        rhs = survival_sum_expected(P.rows, members, pi.pi)
        assert lhs == pytest.approx(rhs, rel=1e-6)


class TestTLarge:
    def test_uniform_half(self):
        pi = stationary(UNIFORM2)
        res = t_large(UNIFORM2, pi, 0.5)
        assert res.value == pytest.approx(2.0, abs=1e-9)
        assert res.argmax_set.members == (0,)  # lexicographic tie-break

    def test_only_full_space_qualifies(self):
        pi = stationary(UNIFORM2)
        res = t_large(UNIFORM2, pi, 1.0)
        assert res.value == 0.0
        assert res.argmax_set.members == (0, 1)

    def test_deterministic_cycle(self):
        # every 2-subset is reached in one step from its single outside state
        pi = stationary(CYCLE3)
        res = t_large(CYCLE3, pi, 0.5)
        assert res.value == pytest.approx(1.0, abs=1e-9)
        assert res.argmax_set.members == (0, 1)

    def test_witness_value_recomputed(self):
        P = random_chain(6, 5)
        pi = stationary(P)
        res = t_large(P, pi, 0.4)
        assert pi.mass(res.argmax_set.members) >= 0.4 - 1e-12
        assert hitting_table(P, res.argmax_set).t_plus_all == res.value

    @pytest.mark.parametrize("seed,eps", [(0, 0.3), (1, 0.5), (2, 0.5), (3, 0.7)])
    def test_against_brute_force(self, seed, eps):
        P = random_chain(4, seed + 200)
        pi = stationary(P)
        res = t_large(P, pi, eps)
        val, _ = brute_force_t_large(P.rows, pi.pi, eps)
        assert res.value == pytest.approx(val, rel=1e-6)

    @pytest.mark.parametrize("family", ["random-dense", "lazy-cycle", "birth-death", "iid"])
    @pytest.mark.parametrize("m", range(2, 11))
    def test_matches_full_enumeration(self, family, m):
        P = family_chain(family, m)
        pi = stationary(P)
        for eps in (0.1, 0.3, 0.5, 0.7, 1.0):
            res = t_large(P, pi, eps)
            val, _ = brute_force_t_large(P.rows, pi.pi, eps, table=direct_solve_table)
            assert res.value == pytest.approx(val, rel=1e-12)
            # the witness is a minimal qualifying set that attains the value
            members = res.argmax_set.members
            assert pi.mass(members) >= eps - MASS_FILTER_TOL
            for x in members:
                assert pi.mass(set(members) - {x}) < eps - MASS_FILTER_TOL
            assert direct_solve_table(P.rows, members).max() == pytest.approx(val, rel=1e-12)
            # the batched solve gives the witness the bits of its own table
            assert res.value == hitting_table(P, res.argmax_set).t_plus_all

    @pytest.mark.parametrize("eps", [0.5, 1.0])
    def test_single_state_chain(self, eps):
        P = validate([[1.0]])
        res = t_large(P, stationary(P), eps)
        assert res.value == 0.0
        assert res.argmax_set.members == (0,)

    def test_too_many_states(self):
        P = generate("lazy-cycle", m=21, hold=0.5).matrix
        with pytest.raises(PreconditionError, match="exceeds the enumeration cap 20"):
            t_large(P, stationary(P), 0.5)

    @settings(deadline=None)
    @given(weights=st.lists(st.floats(1e-3, 1.0), min_size=1, max_size=8),
           eps=st.floats(1e-3, 1.0))
    def test_minimal_sets_match_definition(self, weights, eps):
        pi_vec = np.array(weights) / sum(weights)
        m = pi_vec.size

        def qualifies(members):
            # accumulate in ascending state order, as subset_masses does
            return len(members) > 0 and sum(pi_vec[j] for j in members) >= eps - MASS_FILTER_TOL

        expected = []
        for k in range(1, m + 1):
            for combo in itertools.combinations(range(m), k):
                if qualifies(combo) and not any(
                        qualifies(combo[:i] + combo[i + 1:]) for i in range(k)):
                    expected.append(sum(1 << j for j in combo))
        assert sorted(_minimal_qualifying_sets(pi_vec, eps).tolist()) == sorted(expected)

    @settings(deadline=None, max_examples=60)
    @given(m=st.integers(1, 14), seed=st.integers(0, 2**32 - 1),
           family=st.sampled_from(["random-dense", "lazy-cycle", "birth-death", "sparse"]),
           data=st.data())
    def test_packed_search_equals_the_reshape(self, m, seed, family, data):
        # eps at one of the chain's own subset masses, or a tolerance either side of it,
        # where a set sits on the qualifying line and a slip by one bit would show
        pi_vec = stationary(drawn_chain(family, m, seed)).pi
        mass = data.draw(st.sampled_from(subset_masses_by_concatenation(pi_vec).tolist()))
        eps = mass + data.draw(st.sampled_from([-MASS_FILTER_TOL, 0.0, MASS_FILTER_TOL]))
        got = _minimal_qualifying_sets(pi_vec, eps)
        assert got.dtype == np.intp
        assert np.array_equal(got, minimal_sets_by_reshape(pi_vec, eps))

    def test_packed_search_at_20_states(self):
        pi_vec = stationary(random_chain(20, 5)).pi
        masses = subset_masses_by_concatenation(pi_vec)
        for eps in (0.3, 0.5, 0.5 + 1e-13, 0.7, masses[0xABCDE], masses[0xABCDE] + MASS_FILTER_TOL):
            assert np.array_equal(_minimal_qualifying_sets(pi_vec, eps),
                                  minimal_sets_by_reshape(pi_vec, eps))

    @settings(deadline=None)
    @given(weights=st.lists(st.floats(1e-3, 1.0), max_size=14))
    def test_subset_masses_equal_the_concatenation_build(self, weights):
        pi_vec = np.array(weights) / max(sum(weights), 1e-3)
        assert subset_masses(pi_vec).tobytes() == subset_masses_by_concatenation(pi_vec).tobytes()

    @settings(deadline=None)
    @given(k=st.integers(1, 20), x=st.lists(st.sampled_from([0.0, 0.5, 1.0, 3.0]), max_size=48))
    @example(k=16, x=[1.0] * 15)
    @example(k=16, x=[1.0] * 16)
    @example(k=16, x=[0.5, 1.0] * 8 + [1.0])
    def test_head_equals_the_stable_argsort(self, k, x):
        # few distinct values, so ties straddle the cut at the k-th largest
        x = np.array(x)
        assert np.array_equal(_head(x, k), np.argsort(-x, kind="stable")[:k])

    def test_tie_break_uniform_iid(self):
        # all C(12, 6) = 924 minimal sets of the uniform law tie
        P = generate("iid", mu=np.full(12, 1 / 12)).matrix
        pi = stationary(P)
        masks = _minimal_qualifying_sets(pi.pi, 0.5)
        assert masks.size == 924
        expected = min(mask_members(int(mask)) for mask in masks)
        assert _lex_smallest(masks, 12) == expected == tuple(range(6))
        assert t_large(P, pi, 0.5).argmax_set.members == expected

    @settings(deadline=None)
    @given(m=st.integers(1, 10), data=st.data())
    def test_lex_smallest_matches_tuple_order(self, m, data):
        # sets of one size form an antichain, as tied minimal sets do
        k = data.draw(st.integers(1, m))
        combos = list(itertools.combinations(range(m), k))
        chosen = data.draw(st.lists(st.sampled_from(combos), min_size=1, unique=True))
        masks = np.array([sum(1 << j for j in combo) for combo in chosen])
        assert _lex_smallest(masks, m) == min(chosen)
        # a set alone is the smallest of its own list
        assert _lex_smallest(masks[-1:], m) == chosen[-1]

    @settings(deadline=None, max_examples=30)
    @given(m=st.integers(2, 12), seed=st.integers(0, 2**32 - 1),
           eps=st.sampled_from([0.3, 0.5, 0.7]))
    def test_ranked_equals_unpruned_below_one_batch(self, m, seed, eps):
        # every minimal set is solved outright or stepped in the first chunk
        P = random_chain(m, seed)
        pi = stationary(P)
        assert _minimal_qualifying_sets(pi.pi, eps).size <= BRACKET_CHUNK
        res = t_large(P, pi, eps)
        assert (res.value, res.argmax_set.members) == unpruned_t_large(P.rows, pi.pi, eps)

    @settings(deadline=None, max_examples=12)
    @given(m=st.integers(13, 16), seed=st.integers(0, 2**32 - 1),
           family=st.sampled_from(["random-dense", "lazy-cycle", "birth-death", "sparse"]),
           eps=st.sampled_from([0.3, 0.5, 0.7]))
    def test_pruned_equals_unpruned(self, m, seed, family, eps):
        # the bracket rules out sets on cycles and birth-death chains too, where nearly
        # every one-step bound is infinite
        P = drawn_chain(family, m, seed)
        pi = stationary(P)
        res = t_large(P, pi, eps)
        assert (res.value, res.argmax_set.members) == unpruned_t_large(P.rows, pi.pi, eps)

    @pytest.mark.parametrize("family", ["random-dense", "lazy-cycle", "birth-death", "sparse"])
    def test_chunks_share_the_largest_solved(self, family, monkeypatch):
        # 886 to 3,432 minimal sets in chunks of 256: the chunks after the first step
        # against the largest T(B) the ones before them solved
        monkeypatch.setattr(hitting, "BRACKET_CHUNK", 256)
        P = drawn_chain(family, 14, 7)
        pi = stationary(P)
        assert _minimal_qualifying_sets(pi.pi, 0.5).size > 3 * 256
        res = t_large(P, pi, 0.5)
        assert (res.value, res.argmax_set.members) == unpruned_t_large(P.rows, pi.pi, 0.5)

    @pytest.mark.parametrize("sixteenths,argmax", [((1, 2, 2, 3, 4, 4), (4,)),
                                                   ((1, 2, 4, 2, 4, 3), (1, 3))])
    def test_slack_keeps_sets_that_tie_the_head(self, sixteenths, argmax, monkeypatch):
        # an iid chain's bracket is tight, T(B) = 1 / mu(B): four minimal sets of mass 1/4
        # share the largest L_2, the head solves the one of smallest bitmask, and a set
        # whose solve lands an ulp above it or ties it with a smaller member list survives
        # the step only by BOUND_SLACK
        monkeypatch.setattr(hitting, "BRACKET_HEAD", 1)
        monkeypatch.setattr(hitting, "BRACKET_FEW", 1)
        P = generate("iid", mu=np.array(sixteenths) / 16).matrix
        pi = stationary(P)
        res = t_large(P, pi, 0.25)
        assert (res.value, res.argmax_set.members) == unpruned_t_large(P.rows, pi.pi, 0.25)
        assert res.argmax_set.members == argmax

    @pytest.mark.parametrize("family", ["random-dense", "lazy-cycle", "birth-death", "iid"])
    @pytest.mark.parametrize("m", [2, 5, 9, 13])
    def test_one_step_bound_holds(self, family, m):
        # the k-step bracket L_k <= T(B) <= upper_k, whose upper side at k = 1 is the
        # one-step bound 1 / min_{z not in B} P(z, B)
        P = family_chain(family, m)
        pi = stationary(P)
        for eps in (0.3, 0.5, 0.7, 1.0):
            masks = _minimal_qualifying_sets(pi.pi, eps)
            t = hitting_times(P.rows[None], _outside(masks, m))[0][0].max(axis=1)
            s = outside = _outside(masks, m).T.astype(float)
            total = np.zeros_like(s)
            for k in range(1, 6):
                s, lower, upper = _bracket_step(P.rows, outside, s, total)
                if k == 1:
                    enter = np.where(outside > 0, P.rows @ (1.0 - outside), np.inf).min(axis=0)
                    with np.errstate(divide="ignore"):
                        np.testing.assert_allclose(upper, 1.0 / enter, rtol=1e-12)
                if k in (1, 2, 5):
                    # an iid chain's T(B) is its bound, so the two may round apart by an ulp
                    assert np.all(lower <= t * (1 + 1e-12))
                    assert np.all(t <= upper * (1 + 1e-12))

    def test_bound_rules_out_most_sets(self, monkeypatch):
        solved = []

        def counting(rows, outside):
            solved.append(outside.shape[0])
            return hitting_times(rows, outside)

        monkeypatch.setattr(hitting, "hitting_times", counting)
        # 10,656 of lazy-cycle(16)'s 12,870 one-step bounds are infinite
        for P in (family_chain("lazy-cycle", 16), random_chain(16, 0)):
            pi = stationary(P)
            solved.clear()
            res = t_large(P, pi, 0.5)
            assert sum(solved) < 0.02 * _minimal_qualifying_sets(pi.pi, 0.5).size
            assert (res.value, res.argmax_set.members) == unpruned_t_large(P.rows, pi.pi, 0.5)

    def test_few_sets_are_solved_outright(self, monkeypatch):
        monkeypatch.setattr(hitting, "_bracket_step", None)
        for P in (random_chain(9, 3), family_chain("birth-death", 12)):
            pi = stationary(P)
            assert BRACKET_HEAD < _minimal_qualifying_sets(pi.pi, 0.5).size <= BRACKET_FEW
            res = t_large(P, pi, 0.5)
            assert (res.value, res.argmax_set.members) == unpruned_t_large(P.rows, pi.pi, 0.5)

    def test_lazy_cycle_of_20_states(self):
        # the 10-sets are the minimal ones; B^c one arc of 10 states is the slowest, where
        # a walk from the middle needs floor(11^2 / 4) = 30 moves, at 1 / (1 - hold) = 2
        # steps a move
        P = generate("lazy-cycle", m=20, hold=0.5).matrix
        pi = stationary(P)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            res = t_large(P, pi, 0.5)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert res.value == pytest.approx(60.0, rel=1e-12, abs=0)
        assert peak < 24 * 2**20

    @pytest.mark.parametrize("m,eps,size", [(14, 0.5, 7), (16, 0.6, 10)])
    def test_tie_break_across_solves(self, m, eps, size):
        # every minimal set of the uniform law ties at its bound, so none is ruled out and
        # the head's solve is followed by another; at m = 16 the solved T(B) rounds above
        # the bound
        P = generate("iid", mu=np.full(m, 1 / m)).matrix
        pi = stationary(P)
        assert _minimal_qualifying_sets(pi.pi, eps).size > BRACKET_FEW
        res = t_large(P, pi, eps)
        assert (res.value, res.argmax_set.members) == unpruned_t_large(P.rows, pi.pi, eps)
        assert res.argmax_set.members == tuple(range(size))

    def test_subset_masses(self):
        masses = subset_masses(np.array([0.25, 0.75]))
        assert masses.tolist() == [0.0, 0.25, 0.75, 1.0]


class TestExactSurvival:
    @pytest.mark.parametrize("m", [2, 3, 4])
    @pytest.mark.parametrize("n", [1, 2, 6])
    def test_against_trajectory_sum(self, m, n):
        P = random_chain(m, 600 + m)
        start = np.random.default_rng(10 * m + n).dirichlet(np.ones(m))
        expected = np.zeros(1 << m)
        for visited, p in trajectory_visit_law(P.rows, start, n).items():
            expected[sum(1 << j for j in visited)] = p
        np.testing.assert_allclose(unseen_set_law(P, start, [n])[0], expected, rtol=1e-12, atol=0)
        sets = [c for k in range(1, m + 1) for c in itertools.combinations(range(m), k)]
        for members, got in zip(sets, survival_probabilities(P, start, sets, [n])[:, 0]):
            assert got == pytest.approx(trajectory_survival(P.rows, start, members, n),
                                        rel=1e-12, abs=0)

    @pytest.mark.parametrize("m", [2, 5, 9])
    def test_iid_closed_forms(self, m):
        mu = np.random.default_rng(m).dirichlet(np.ones(m))
        P = generate("iid", mu=mu).matrix
        horizons = [1, 2, 5, 16, 64]
        unseen = subset_masses(mu)[::-1]
        mean = unseen_set_law(P, mu, horizons) @ unseen
        np.testing.assert_allclose(mean, [np.sum(mu * (1 - mu) ** n) for n in horizons], rtol=1e-12)
        sets = [(0,), (m - 1,), tuple(range(0, m, 2))]
        mass = np.array([mu[list(members)].sum() for members in sets])
        np.testing.assert_allclose(survival_probabilities(P, mu, sets, horizons),
                                   (1 - mass[:, None]) ** np.array(horizons), rtol=1e-12)

    def test_horizons_in_any_order(self):
        P = random_chain(5, 7)
        start = stationary(P).pi
        horizons = [8, 1, 3, 3, 20]
        surv = survival_probabilities(P, start, [(1, 3)], horizons)[0]
        law = unseen_set_law(P, start, horizons)
        for i, n in enumerate(horizons):
            assert surv[i] == survival_probabilities(P, start, [(1, 3)], [n])[0, 0]
            assert np.array_equal(law[i], unseen_set_law(P, start, [n])[0])

    @settings(deadline=None, max_examples=50)
    @given(rows=stochastic_rows(), data=st.data())
    def test_stacked_rows_match_one_set_calls_and_the_law(self, rows, data):
        # sets of mixed sizes, repeats and the full state set in one stack
        m = rows.shape[0]
        P = validate(rows)
        weights = np.array(data.draw(st.lists(st.floats(1e-3, 1.0), min_size=m, max_size=m)))
        start = weights / weights.sum()
        sets = data.draw(st.lists(st.sets(st.integers(0, m - 1), min_size=1), min_size=1,
                                  max_size=8))
        sets = [tuple(sorted(S)) for S in sets] + data.draw(st.lists(st.sampled_from(
            [tuple(sorted(S)) for S in sets]), max_size=3))
        horizons = data.draw(st.lists(st.integers(1, 40), min_size=1, max_size=5))
        law = unseen_set_law(P, start, horizons)
        np.testing.assert_allclose(law.sum(axis=1), 1.0, rtol=0, atol=1e-12)
        surv = survival_probabilities(P, start, sets, horizons)
        assert surv.shape == (len(sets), len(horizons))
        for members, row in zip(sets, surv):
            assert np.array_equal(row, survival_probabilities(P, start, [members], horizons)[0])
            target = sum(1 << j for j in members)
            avoiding = [S for S in range(1 << m) if not S & target]
            np.testing.assert_allclose(row, law[:, avoiding].sum(axis=1), rtol=1e-12, atol=1e-300)

    @settings(deadline=None, max_examples=40)
    @given(family=st.sampled_from(["random-dense", "lazy-cycle", "birth-death", "sparse"]),
           m=st.integers(1, 64), seed=st.integers(0, 2**32 - 1), data=st.data())
    @example(family="sparse", m=8, seed=0, data=None)
    def test_mask_step_equals_the_q_stack(self, family, m, seed, data):
        # P, then B's entries zeroed, equals v @ Q on a stack of Qs bit for bit: stacks up to
        # every subset at m <= 8, one set up to 64 states, horizons up to 200
        P = drawn_chain(family, m, seed)
        start = np.random.default_rng(seed).dirichlet(np.ones(m))
        if data is None or (m <= 8 and data.draw(st.booleans())):
            sets = [mask_members(k) for k in range(1, 1 << m)]
        else:
            sets = [tuple(sorted(S)) for S in data.draw(st.lists(st.sets(
                st.integers(0, m - 1), min_size=1), min_size=1, max_size=8 if m <= 8 else 1))]
        horizons = [200, 1, 37] if data is None else data.draw(
            st.lists(st.integers(1, 200), min_size=1, max_size=4))
        surv = survival_probabilities(P, start, sets, horizons)
        assert np.array_equal(surv, survival_by_q_stack(P.rows, start, sets, horizons))
        for members, row in zip(sets, surv):
            assert np.array_equal(row, survival_probabilities(P, start, [members], horizons)[0])

    def test_every_singleton_of_256_states_builds_no_stack_of_qs(self):
        # the (256, 256, 256) stack of P with each singleton's column zeroed alone is 128 MiB
        P = parse_descriptor("lazy-cycle:m=256;hold=0.5")[1].matrix
        start = np.full(256, 1 / 256)
        sets = [(x,) for x in range(256)]
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            surv = survival_probabilities(P, start, sets, [1, 2, 3, 4])
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20
        assert (surv[:, 0] == 255 / 256).all()
        np.testing.assert_allclose(surv, np.broadcast_to(surv[0], surv.shape), rtol=1e-14)

    @settings(deadline=None, max_examples=100)
    @given(rows=stochastic_rows(max_states=6), data=st.data())
    def test_long_horizons_keep_relative_accuracy(self, rows, data):
        # tails as small as ~1e-124 at t = 60, each within 1e-13 of start Q^(t-1) 1 in rationals
        m = rows.shape[0]
        P = validate(rows)
        weights = np.array(data.draw(st.lists(st.floats(1e-3, 1.0), min_size=m, max_size=m)))
        start = weights / weights.sum()
        sets = [tuple(sorted(S)) for S in data.draw(st.lists(
            st.sets(st.integers(0, m - 1), min_size=1), min_size=1, max_size=8))]
        horizons = data.draw(st.lists(st.integers(1, 60), min_size=1, max_size=3))
        surv = survival_probabilities(P, start, sets, horizons)
        for members, row in zip(sets, surv):
            exact = [survival_exact(P.rows, start, members, n) for n in horizons]
            assert max_rel_err(row, exact) <= 1e-13

    def test_empty_stack_and_full_set(self):
        P = random_chain(4, 2)
        start = stationary(P).pi
        assert survival_probabilities(P, start, [], [1, 5, 9]).shape == (0, 3)
        surv = survival_probabilities(P, start, [(0, 1, 2, 3), (3, 1, 0, 2), (1,)], [1, 5])
        assert surv[:2].tolist() == [[0.0, 0.0], [0.0, 0.0]] and (surv[2] > 0).all()

    def test_rejects_bad_input(self):
        P = random_chain(3, 1)
        start = stationary(P).pi
        with pytest.raises(ValidationError):
            survival_probabilities(P, start, [(0,)], [0, 4])
        with pytest.raises(ValidationError):
            unseen_set_law(P, start, [0])
        with pytest.raises(PreconditionError, match="is empty"):
            survival_probabilities(P, start, [(1,), ()], [1])
        with pytest.raises(ValidationError, match="index 3 out of range"):
            survival_probabilities(P, start, [(0,), (1, 3)], [1])
        big = generate("lazy-cycle", m=21, hold=0.5).matrix
        with pytest.raises(PreconditionError, match="exceeds the enumeration cap 20"):
            unseen_set_law(big, np.full(21, 1 / 21), [1])


class TestLemma1:
    def test_uniform_tight(self):
        pi = stationary(UNIFORM2)
        rep = check_lemma1(UNIFORM2, pi, state_set([0]), state_set([1]))[0]
        assert rep.value == pytest.approx(0.5, abs=1e-12)
        assert rep.bound_value == pytest.approx(0.5, abs=1e-12)
        assert rep.holds and not rep.vacuous

    def test_cycle_tight(self):
        pi = stationary(CYCLE3)
        rep = check_lemma1(CYCLE3, pi, state_set([0]), state_set([1]))[0]
        assert rep.metadata["t_plus"] == pytest.approx(1.0, abs=1e-9)
        assert rep.metadata["t_minus"] == pytest.approx(2.0, abs=1e-9)
        assert rep.bound_value == pytest.approx(1 / 3, abs=1e-9)
        assert rep.value == pytest.approx(1 / 3, abs=1e-9)
        assert rep.holds

    def test_overlap_is_vacuous(self):
        pi = stationary(UNIFORM2)
        rep = check_lemma1(UNIFORM2, pi, state_set([0]), state_set([0]))[0]
        assert rep.vacuous

    def test_product_form_follows_from_the_row(self):
        # pi(A) * T-(B,A) <= T+(A,B): value * t_minus <= t_plus, from the row's own cells
        pi = stationary(CYCLE3)
        rep = check_lemma1(CYCLE3, pi, state_set([0]), state_set([1]))[0]
        assert rep.value * rep.metadata["t_minus"] <= rep.metadata["t_plus"] + 1e-9

    @pytest.mark.parametrize("seed", range(10))
    def test_random_chains_random_pairs(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(2, 7))
        P = random_chain(m, seed + 300)
        pi = stationary(P)
        for _ in range(20):
            members = rng.permutation(m)
            cut = int(rng.integers(1, m)) if m > 1 else 1
            a = tuple(sorted(members[:cut].tolist()))
            rest = members[cut:]
            if rest.size == 0:
                continue
            k = int(rng.integers(1, rest.size + 1))
            b = tuple(sorted(rest[:k].tolist()))
            rep = check_lemma1(P, pi, StateSet(a), StateSet(b))[0]
            assert rep.holds, (a, b, rep)


def _one_chain(P):
    """pi, every non-empty subset of P's states in bitmask order, then the stack kernels'
    inputs for those sets on a stack of one chain: inside, masses and h."""
    pi = stationary(P)
    sets = [mask_members(mask) for mask in range(1, 1 << P.m)]
    inside = np.array([[j in members for j in range(P.m)] for members in sets])
    masses = np.array([[pi.mass(members) for members in sets]])
    return pi, sets, inside, masses, subset_hitting_times_stack([P])


def _lemma1_rows(P, pairs):
    """lemma1_stack_reports on the index pairs of P's subsets."""
    _, _, inside, masses, h = _one_chain(P)
    pairs = np.asarray(pairs, dtype=int).reshape(-1, 2)
    return lemma1_stack_reports(masses, inside, h, np.zeros(len(pairs), dtype=np.intp), pairs, "")


class TestLemmaKernels:
    """The suites' array kernels against nested loops over one dense solve per set."""

    @pytest.mark.parametrize("m", range(2, 7))
    def test_lemma1_every_disjoint_pair_matches_oracle(self, m):
        P = random_chain(m, 700 + m)
        pi, sets, *_ = _one_chain(P)
        oracle = [direct_solve_table(P.rows, members) for members in sets]
        pairs = [(a, b) for a in range(len(sets)) for b in range(len(sets))
                 if not set(sets[a]) & set(sets[b])]
        reports = _lemma1_rows(P, pairs)
        assert len(reports) == len(pairs) == 3 ** m - 2 ** (m + 1) + 1
        for (a, b), rep in zip(pairs, reports):
            A, B = sets[a], sets[b]
            tp = max(oracle[b][x] for x in A)
            tm = min(oracle[a][x] for x in B)
            assert (rep.metadata["A"], rep.metadata["B"]) == (A, B)
            assert rep.metadata["t_plus"] == pytest.approx(tp, rel=1e-12)
            assert rep.metadata["t_minus"] == pytest.approx(tm, rel=1e-12)
            assert rep.value == pi.mass(A)
            assert rep.bound_value == pytest.approx(tp / (tp + tm), rel=1e-12)
            assert rep.holds and not rep.vacuous and rep.value * tm <= tp + 1e-9

    @pytest.mark.parametrize("m", range(2, 7))
    def test_lemma2_every_set_matches_oracle(self, m):
        P = random_chain(m, 800 + m)
        pi, sets, inside, masses, h = _one_chain(P)
        t_half, _ = brute_force_t_large(P.rows, pi.pi, 0.5, table=direct_solve_table)
        reports = lemma2_stack_reports(masses, inside, h, np.array([t_large(P, pi, 0.5).value]),
                                       "")
        assert len(reports) == len(sets)
        for members, rep in zip(sets, reports):
            t_a = direct_solve_table(P.rows, members).max()
            assert rep.metadata["A"] == members
            assert rep.value == pytest.approx(t_a, rel=1e-12)
            assert rep.metadata["t_half"] == pytest.approx(t_half, rel=1e-12)
            assert rep.bound_value == pytest.approx(2 * t_half / pi.mass(members), rel=1e-12)
            assert rep.metadata["mass"] == pi.mass(members)
            assert rep.holds and not rep.vacuous

    @pytest.mark.parametrize("m", range(2, 6))
    def test_one_pair_checks_equal_the_suite_rows(self, m):
        P = random_chain(m, 900 + m)
        pi, sets, inside, masses, h = _one_chain(P)
        pairs = [(a, b) for a in range(len(sets)) for b in range(len(sets))]
        singles = [check_lemma1(P, pi, StateSet(sets[a]), StateSet(sets[b])) for a, b in pairs]
        assert render_reports_csv(ReportBlock.concat(singles)) == \
            render_reports_csv(_lemma1_rows(P, pairs))
        t_half = np.array([t_large(P, pi, 0.5).value])
        singles = [check_lemma2(P, pi, StateSet(members)) for members in sets]
        assert render_reports_csv(ReportBlock.concat(singles)) == \
            render_reports_csv(lemma2_stack_reports(masses, inside, h, t_half, ""))

    def test_overlapping_pairs_vacuous(self):
        P = random_chain(4, 950)
        _, sets, *_ = _one_chain(P)
        pairs = [(a, b) for a in range(len(sets)) for b in range(len(sets))
                 if set(sets[a]) & set(sets[b])]
        reports = _lemma1_rows(P, pairs)
        assert any(set(sets[a]) <= set(sets[b]) for a, b in pairs)  # T+ = T- = 0 among them
        for rep in reports:
            assert rep.vacuous and rep.holds
            assert rep.metadata["t_minus"] == 0.0
            assert rep.bound_value == 1.0


class TestLemma2:
    def test_uniform(self):
        pi = stationary(UNIFORM2)
        rep = check_lemma2(UNIFORM2, pi, state_set([0]))[0]
        assert rep.value == pytest.approx(2.0, abs=1e-9)
        assert rep.bound_value == pytest.approx(8.0, abs=1e-9)
        assert rep.holds

    def test_full_space(self):
        pi = stationary(CYCLE3)
        rep = check_lemma2(CYCLE3, pi, state_set([0, 1, 2]))[0]
        assert rep.value == 0.0
        assert rep.holds

    def test_cycle_singleton(self):
        # T({0}) = 2 and T(0.5) = 1, so the bound is 2 * 1 / (1/3) = 6
        pi = stationary(CYCLE3)
        rep = check_lemma2(CYCLE3, pi, state_set([0]))[0]
        assert rep.value == pytest.approx(2.0, abs=1e-9)
        assert rep.bound_value == pytest.approx(6.0, abs=1e-9)
        assert rep.holds

    def test_single_state_vacuous(self):
        P = validate([[1.0]])
        rep = check_lemma2(P, stationary(P), state_set([0]))[0]
        assert rep.vacuous and rep.holds

    def test_too_many_states(self):
        P = generate("lazy-cycle", m=21, hold=0.5).matrix
        with pytest.raises(PreconditionError, match="exceeds the enumeration cap 20"):
            check_lemma2(P, stationary(P), state_set([0]))

    @pytest.mark.parametrize("seed", range(5))
    def test_random_chains_all_sets(self, seed):
        m = 5
        P = random_chain(m, seed + 400)
        pi = stationary(P)
        for mask in range(1, 1 << m):
            members = tuple(j for j in range(m) if mask >> j & 1)
            rep = check_lemma2(P, pi, StateSet(members))[0]
            assert rep.holds, (members, rep)
            # the smallest constant kappa with T(A) <= kappa T(0.5) / pi(A)
            kappa = rep.value * rep.metadata["mass"] / rep.metadata["t_half"]
            assert kappa <= 2.0 + 1e-9
