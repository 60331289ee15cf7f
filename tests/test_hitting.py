import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mml import hitting
from mml.chain import generate, stationary, validate
from mml.errors import EmptySetError, SingularSystemError, TooManyStatesError, ValidationError
from mml.hitting import (
    MASS_FILTER_TOL,
    StateSet,
    _lex_smallest,
    _minimal_qualifying_sets,
    expected_hitting_time,
    hitting_table,
    member_masses,
    row_members,
    state_set,
    subset_hitting_times,
    subset_hitting_times_stack,
    subset_masses,
    subset_members,
    survival_probabilities,
    t_large,
    t_minus,
    t_plus,
    unseen_set_law,
)
from mml.report import ReportBlock, render_reports_csv
from mml.verify import check_lemma1, check_lemma2, lemma1_stack_reports, lemma2_stack_reports

from oracles import (
    brute_force_t_large,
    direct_solve_table,
    mask_members,
    survival_sum_expected,
    stationary_by_eye,
    survival_sum_table,
    trajectory_survival,
    trajectory_visit_law,
)

UNIFORM2 = validate([[0.5, 0.5], [0.5, 0.5]])
CYCLE3 = validate([[0, 1, 0], [0, 0, 1], [1, 0, 0]])


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


@st.composite
def stochastic_rows(draw):
    """Random transition matrix whose entries are all at least 0.05 / (1.05 m).

    The floor keeps hitting times below a few hundred steps, so solver
    rounding stays far below the 1e-9 tolerance of the monotonicity check.
    """
    m = draw(st.integers(1, 8))
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
        with pytest.raises(EmptySetError):
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


class TestSubsetHittingTables:
    @pytest.mark.parametrize("family", ["random-dense", "lazy-cycle", "birth-death", "iid"])
    @pytest.mark.parametrize("m", range(1, 7))
    def test_every_subset_matches_single_solves(self, family, m):
        P = family_chain(family, m) if m > 1 else validate([[1.0]])
        h = subset_hitting_times(P)
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
        targets = [tuple(np.flatnonzero(row == 0).tolist()) for row in subset_hitting_times(CYCLE3)]
        assert targets == [(0,), (1,), (0, 1), (2,), (0, 2), (1, 2), (0, 1, 2)]

    def test_too_many_states(self):
        P = generate("lazy-cycle", m=21, hold=0.5).matrix
        with pytest.raises(TooManyStatesError):
            subset_hitting_times(P)

    @pytest.mark.parametrize("batch", [hitting.SOLVE_BATCH, 1, 5])
    @pytest.mark.parametrize("m", [1, 3, 6])
    def test_stack_equals_each_chain_alone(self, monkeypatch, batch, m):
        chains = [random_chain(m, 1000 + 10 * m + k) if m > 1 else validate([[1.0]])
                  for k in range(4)]
        alone = [subset_hitting_times(P) for P in chains]
        # a small batch makes the solver's stacks straddle chains
        monkeypatch.setattr(hitting, "SOLVE_BATCH", batch)
        stack = subset_hitting_times_stack(chains)
        assert stack.shape == (4, (1 << m) - 1, m)
        for h, single in zip(stack, alone):
            assert np.array_equal(h, single)


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
def solver_chains(draw):
    """A random chain of 1-60 states, dense or with about 80% of its entries exactly 0;
    the cycle x -> x + 1 keeps weight, so the chain is irreducible."""
    m = draw(st.integers(1, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    rows = rng.dirichlet(np.full(m, draw(st.sampled_from([0.5, 1.0, 5.0]))), size=m)
    if draw(st.booleans()):
        rows *= rng.random((m, m)) < 0.2
    rows[np.arange(m), (np.arange(m) + 1) % m] += 0.05
    return validate(rows / rows.sum(axis=1, keepdims=True))


def _bits(a) -> list[int]:
    return np.asarray(a, dtype=float).view(np.uint64).tolist()


class TestSolverBuilds:
    """``stationary`` and ``_hitting_times`` build their matrices in place; they must
    solve, bit for bit, the systems of the plain constructions in ``oracles``."""

    @settings(deadline=None, max_examples=60)
    @given(P=solver_chains(), data=st.data())
    def test_single_targets_equal_plain_solves(self, P, data):
        assert _bits(stationary(P).pi) == _bits(stationary_by_eye(P.rows))
        members = data.draw(st.sets(st.integers(0, P.m - 1), min_size=1))
        table = hitting_table(P, StateSet(tuple(members)))
        h = direct_solve_table(P.rows, members)
        assert _bits(table.h) == _bits(h)
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

    @pytest.mark.parametrize("solve", [lambda P: stationary(P),
                                       lambda P: hitting_table(P, state_set([0]))],
                             ids=["stationary", "hitting_table"])
    def test_one_traced_matrix_beside_P(self, solve):
        # numpy reports its arrays to tracemalloc; LAPACK's own copy of A is not traced
        m = 1000
        P = random_chain(m, 1000)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            solve(P)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * m * m * 8


class TestTPlusMinus:
    def test_uniform(self):
        A, B = state_set([0]), state_set([1])
        assert t_plus(UNIFORM2, A, B) == pytest.approx(2.0, abs=1e-9)
        assert t_minus(UNIFORM2, A, B) == pytest.approx(2.0, abs=1e-9)

    def test_start_inside_target(self):
        assert t_plus(CYCLE3, state_set([1]), state_set([0, 1])) == 0.0

    def test_cycle(self):
        A, B = state_set([0, 1]), state_set([2])
        assert t_plus(CYCLE3, A, B) == pytest.approx(2.0, abs=1e-9)
        assert t_minus(CYCLE3, A, B) == pytest.approx(1.0, abs=1e-9)

    def test_empty_start_set(self):
        with pytest.raises(EmptySetError):
            t_plus(UNIFORM2, StateSet(()), state_set([1]))


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
        with pytest.raises(TooManyStatesError):
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
        with pytest.raises(EmptySetError):
            survival_probabilities(P, start, [(1,), ()], [1])
        with pytest.raises(ValidationError, match="index 3 out of range"):
            survival_probabilities(P, start, [(0,), (1, 3)], [1])
        big = generate("lazy-cycle", m=21, hold=0.5).matrix
        with pytest.raises(TooManyStatesError):
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

    def test_product_form_recorded(self):
        pi = stationary(CYCLE3)
        rep = check_lemma1(CYCLE3, pi, state_set([0]), state_set([1]))[0]
        assert rep.metadata["product_holds"]
        assert rep.metadata["product_lhs"] <= rep.metadata["t_plus"] + 1e-9

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
    return pi, sets, inside, masses, subset_hitting_times(P)[None]


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
            assert rep.holds and not rep.vacuous and rep.metadata["product_holds"]

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
            assert rep.metadata["tight_constant"] == pytest.approx(
                t_a * pi.mass(members) / t_half, rel=1e-12)
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
        with pytest.raises(TooManyStatesError):
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
            assert rep.metadata["tight_constant"] <= 2.0 + 1e-9
