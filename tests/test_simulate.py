import math

import numpy as np
import pytest
from scipy.stats import binom

from mml.chain import ChainSpec, generate, point_start, stationary, validate
from mml.errors import EmptySetError, ValidationError
from mml.hitting import (
    StateSet,
    expected_hitting_time,
    hitting_table,
    state_set,
    subset_masses,
    survival_probabilities,
    unseen_set_law,
)
from mml.simulate import (
    BLOCK_TRIALS,
    EmpiricalTail,
    SimConfig,
    derive_stream,
    dump_samples_csv,
    empirical_hitting_tail,
    empirical_joint_survival,
    empirical_mgf,
    first_visit_table,
    hitting_time_samples,
    missing_mass_values,
    occupancy_frequencies,
    sample_missing_mass,
    sample_trajectory,
)

DIRECTED_CYCLE3 = ChainSpec(matrix=validate([[0, 1, 0], [0, 0, 1], [1, 0, 0]]),
                            start=point_start(3, 0))
UNIFORM2 = generate("iid", mu=(0.5, 0.5))


def binom_ok(hits, trials, p, z=2.576):
    lo = binom.ppf(0.005, trials, p) if p > 0 else 0
    hi = binom.ppf(0.995, trials, p) if p < 1 else trials
    return lo <= hits <= hi


class TestSampleTrajectory:
    def test_deterministic_cycle(self):
        traj = sample_trajectory(DIRECTED_CYCLE3, 4, 1)
        assert traj.tolist() == [0, 1, 2, 0]

    def test_single_state(self):
        chain = ChainSpec(matrix=validate([[1.0]]))
        assert sample_trajectory(chain, 5, 9).tolist() == [0] * 5

    def test_law_of_large_numbers(self):
        traj = sample_trajectory(UNIFORM2, 100_000, 17)
        freq = np.mean(traj == 0)
        assert abs(freq - 0.5) < 0.01

    def test_accepts_generator_or_seed(self):
        a = sample_trajectory(UNIFORM2, 10, 5)
        b = sample_trajectory(UNIFORM2, 10, derive_stream(5, 0))
        assert a.tolist() == b.tolist()


class TestFirstVisitTable:
    def test_matches_trajectory_path(self):
        # trial 0 of the table must replay the same stream as sample_trajectory
        chain = generate("random-dense", m=5, seed=3)
        n = 12
        tau = first_visit_table(chain, n, 1, 77)
        traj = sample_trajectory(chain, n, derive_stream(77, 0))
        expected = np.full(5, n + 1)
        for i, x in enumerate(traj, start=1):
            expected[x] = min(expected[x], i)
        assert tau[0].tolist() == expected.tolist()

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
        for members in [(0,), (m // 2,), (0, m - 1), tuple(range(m // 2))]:
            first = tau[:, list(members)].min(axis=1)
            exact = survival_probabilities(P, start, members, self.HORIZONS)
            for n, p in zip(self.HORIZONS, exact):
                hits = int((first > n).sum())
                sd = math.sqrt(self.TRIALS * p * (1 - p))
                assert abs(hits - self.TRIALS * p) <= 6 * sd + 1e-9, (members, n, hits, p)
        unseen = subset_masses(pi.pi)[::-1]
        law = unseen_set_law(P, start, self.HORIZONS)
        singles = np.array([survival_probabilities(P, start, (j,), self.HORIZONS)
                            for j in range(m)])
        for i, n in enumerate(self.HORIZONS):
            mean = float(law[i] @ unseen)
            # E[missing mass] = sum_j pi_j Pr[tau_j > n]
            assert mean == pytest.approx(float(pi.pi @ singles[:, i]), rel=1e-12, abs=1e-300)
            sd = math.sqrt(max(0.0, float(law[i] @ unseen ** 2) - mean ** 2) / self.TRIALS)
            sampled = float(missing_mass_values(tau, pi.pi, n).mean())
            assert abs(sampled - mean) <= 6 * sd + 1e-12, (n, sampled, mean)


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

    def test_batch_values_match_samples(self):
        chain = generate("random-dense", m=5, seed=8)
        pi = stationary(chain.matrix)
        cfg = SimConfig(chain=chain, n=4, trials=200, master_seed=3)
        samples = sample_missing_mass(cfg, pi)
        tau = first_visit_table(chain, 4, 200, 3)
        values = missing_mass_values(tau, pi.pi, 4)
        np.testing.assert_allclose(values, [s.value for s in samples], atol=1e-12)

    def test_dump_csv(self, tmp_path):
        pi = stationary(UNIFORM2.matrix)
        samples = sample_missing_mass(SimConfig(chain=UNIFORM2, n=1, trials=3, master_seed=7), pi)
        path = tmp_path / "dump.csv"
        dump_samples_csv(samples, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "trial,value,unseen_set"
        assert len(lines) == 4
        assert lines[1].startswith("0,0.5,")


class TestJointSurvival:
    def test_full_space_is_zero(self):
        pi = stationary(UNIFORM2.matrix)
        tail = empirical_joint_survival(
            SimConfig(chain=UNIFORM2, n=1, trials=200, master_seed=2), state_set([0, 1]), pi)
        assert tail.p_hat == 0.0

    def test_iid_exact_law(self):
        # paper-exact: Pr[tau_J > n] = (1 - pi(J))^n = 0.125
        pi = stationary(UNIFORM2.matrix)
        tail = empirical_joint_survival(
            SimConfig(chain=UNIFORM2, n=3, trials=100_000, master_seed=7), state_set([1]), pi)
        assert binom_ok(tail.hits, tail.trials, 0.125)

    def test_cycle_needs_more_steps(self):
        pi = stationary(DIRECTED_CYCLE3.matrix)
        tail = empirical_joint_survival(
            SimConfig(chain=DIRECTED_CYCLE3, n=1, trials=100, master_seed=3), state_set([2]), pi)
        assert tail.p_hat == 1.0

    def test_empty_set(self):
        with pytest.raises(EmptySetError):
            empirical_joint_survival(
                SimConfig(chain=UNIFORM2, n=1, trials=10, master_seed=1), StateSet(()))

    def test_joint_below_singles(self):
        chain = generate("random-dense", m=6, seed=31)
        pi = stationary(chain.matrix)
        tau = first_visit_table(chain, 6, 2000, 11)
        cfg = SimConfig(chain=chain, n=6, trials=2000, master_seed=11)
        joint = empirical_joint_survival(cfg, state_set([0, 2, 4]), pi, tau=tau)
        singles = [empirical_joint_survival(cfg, state_set([j]), pi, tau=tau) for j in (0, 2, 4)]
        assert joint.p_hat <= min(s.p_hat for s in singles)


class TestHittingTail:
    def test_start_inside_target(self):
        chain = ChainSpec(matrix=UNIFORM2.matrix, start=point_start(2, 1))
        res = empirical_hitting_tail(
            SimConfig(chain=chain, n=1, trials=100, master_seed=5), state_set([1]), [1, 2, 5])
        assert all(t.p_hat == 0.0 for t in res.tails)

    def test_iid_geometric_tail(self):
        pi = stationary(UNIFORM2.matrix)
        res = empirical_hitting_tail(
            SimConfig(chain=UNIFORM2, n=1, trials=100_000, master_seed=23),
            state_set([1]), [5], pi)
        assert binom_ok(res.tails[0].hits, 100_000, 0.5 ** 5)

    def test_deterministic_cycle_convention(self):
        # X_1 = 0, X_2 = 1, X_3 = 2: the start state counts, so N = 3
        res = empirical_hitting_tail(
            SimConfig(chain=DIRECTED_CYCLE3, n=1, trials=50, master_seed=2),
            state_set([2]), [1, 2, 3])
        assert [t.p_hat for t in res.tails] == [1.0, 1.0, 0.0]
        assert res.cap_hits == 0

    def test_cap_is_reported(self):
        slow = generate("lazy-cycle", m=10, hold=0.9)
        pi = stationary(slow.matrix)
        res = empirical_hitting_tail(
            SimConfig(chain=slow, n=1, trials=200, master_seed=9),
            state_set([5]), [1, 2], pi, cap=3)
        assert res.cap_hits > 0
        assert res.cap == 3

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

    def test_accepts_value_array(self):
        assert empirical_mgf(np.array([0.0, 0.0]), 3.0) == 1.0

    def test_needs_samples(self):
        with pytest.raises(ValidationError):
            empirical_mgf([], 1.0)


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
        b = hitting_time_samples(chain, state_set([1]), BLOCK_TRIALS * 2 + 5, 7, workers=3)
        assert np.array_equal(a, b)

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


class TestSimConfig:
    @pytest.mark.parametrize("kwargs", [
        dict(n=0, trials=1, master_seed=0),
        dict(n=1, trials=0, master_seed=0),
        dict(n=1, trials=1, master_seed=0, workers=0),
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValidationError):
            SimConfig(chain=UNIFORM2, **kwargs)

    def test_empirical_tail_ci(self):
        tail = EmpiricalTail.from_counts("e", 250, 1000)
        assert tail.p_hat == 0.25
        assert tail.ci95_halfwidth == pytest.approx(1.96 * math.sqrt(0.25 * 0.75 / 1000))
        assert tail.ci_halfwidth(2.576) == pytest.approx(2.576 * math.sqrt(0.25 * 0.75 / 1000))
