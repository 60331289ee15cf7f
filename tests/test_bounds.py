import math

import numpy as np
import pytest

from mml.bounds import (
    DEFAULT_C,
    BoundParams,
    bernoulli_product_mgf,
    calibrate_c,
    explicit_hitting_tail,
    hitting_tail_bound,
    iid_exact_survival,
    joint_survival_bound,
    kl_divergence,
    missing_mass_tail_bound,
    q_probabilities,
)
from mml.chain import StationaryDistribution, generate, stationary, validate
from mml.errors import (
    InsufficientTrialsError,
    PreconditionError,
    ValidationError,
)
from mml.hitting import StateSet, state_set, t_large
from mml.simulate import SimConfig, empirical_mgf, sample_missing_mass
from mml.verify import pinsker_check, product_inequality_check

from oracles import kl_highprec


def dist(*values):
    return StationaryDistribution(pi=np.array(values, dtype=float), residual=0.0)


class TestQProbabilities:
    def test_direct_evaluation(self):
        params = BoundParams(c=1.0, T=1.0, n=10, pi=dist(0.1, 0.9))
        assert q_probabilities(params)[0] == pytest.approx(math.exp(-1.0), rel=1e-15)

    def test_second_example(self):
        params = BoundParams(c=1.0, T=2.0, n=20, pi=dist(0.5, 0.5))
        q = q_probabilities(params)
        assert q[0] == pytest.approx(math.exp(-5.0), rel=1e-15)
        assert q[0] == pytest.approx(6.7379e-3, rel=1e-4)

    def test_iid_mode(self):
        params = BoundParams(c=1.0, T=1.0, n=3, pi=dist(0.25, 0.75))
        q = q_probabilities(params, iid_exact=True)
        np.testing.assert_allclose(q, [0.75 ** 3, 0.25 ** 3], rtol=1e-15)

    def test_single_state_vacuous(self):
        params = BoundParams(c=1.0, T=0.0, n=5, pi=dist(1.0))
        assert params.vacuous
        assert q_probabilities(params).tolist() == [0.0]

    @pytest.mark.parametrize("kwargs", [
        dict(c=0.0, T=1.0, n=1),
        dict(c=1.0, T=-1.0, n=1),
        dict(c=1.0, T=0.0, n=1),  # T=0 with m=2 is illegal
        dict(c=1.0, T=1.0, n=0),
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValidationError):
            BoundParams(pi=dist(0.5, 0.5), **kwargs)


class TestJointSurvivalBound:
    def test_singleton_equals_q(self):
        params = BoundParams(c=1.0, T=1.0, n=10, pi=dist(0.1, 0.9))
        assert joint_survival_bound(params, state_set([0])) == pytest.approx(
            q_probabilities(params)[0], rel=1e-15)

    def test_two_state_full_set(self):
        params = BoundParams(c=1.0, T=1.0, n=3, pi=dist(0.5, 0.5))
        assert joint_survival_bound(params, state_set([0, 1])) == pytest.approx(
            math.exp(-3.0), rel=1e-14)

    @pytest.mark.parametrize("seed", range(6))
    def test_product_equals_exp_of_sum(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(2, 9))
        pi = dist(*rng.dirichlet(np.full(m, 1.0)))
        params = BoundParams(c=0.7, T=3.0, n=5, pi=pi)
        k = int(rng.integers(1, m + 1))
        J = StateSet(tuple(rng.choice(m, size=k, replace=False).tolist()))
        q = q_probabilities(params)
        prod = float(np.prod(q[J.indices()]))
        assert joint_survival_bound(params, J) == pytest.approx(prod, rel=1e-13)

    def test_empty_set(self):
        params = BoundParams(c=1.0, T=1.0, n=1, pi=dist(0.5, 0.5))
        with pytest.raises(PreconditionError, match="set J is empty"):
            joint_survival_bound(params, StateSet(()))

    @pytest.mark.parametrize("pi,J,n,c,T", [
        ((0.1, 0.9), (0,), 10, DEFAULT_C, 1.0),
        ((0.2, 0.3, 0.5), (0, 2), 7, 0.7, 3.5),
        ((0.25, 0.25, 0.25, 0.25), (0, 1, 2, 3), 64, 1.0, 2.0),
        ((0.05, 0.15, 0.3, 0.5), (1, 3), 1, 0.25, 0.3),
    ])
    def test_equals_explicit_tail_at_t_n(self, pi, J, n, c, T):
        # one formula: Thm. 1's product collapses to Cor. 3's smooth tail, bit for bit, with
        # pi(J) summed by StationaryDistribution.mass, as the verify suites sum it
        params = BoundParams(c=c, T=T, n=n, pi=dist(*pi))
        mass = params.pi.mass(J)
        assert joint_survival_bound(params, StateSet(J)) == explicit_hitting_tail(mass, T, n, c) \
            == math.exp(-c * n * mass / T)


class TestIidExactSurvival:
    def test_half_cubed(self):
        assert iid_exact_survival(dist(0.5, 0.5), state_set([0]), 3) == 0.125

    def test_full_mass(self):
        assert iid_exact_survival(dist(0.5, 0.5), state_set([0, 1]), 1) == 0.0

    def test_quarter_squared(self):
        assert iid_exact_survival(dist(0.25, 0.75), state_set([0]), 2) == 0.5625

    @pytest.mark.parametrize("seed", range(6))
    def test_sums_pi_of_j_by_mass(self, seed):
        # the pi(J) of the verify suites' rows, bit for bit: an fsum differs on some sets
        rng = np.random.default_rng(seed)
        pi = dist(*rng.dirichlet(np.full(8, 1.0)))
        for mask in range(1, 1 << 8):
            members = tuple(j for j in range(8) if mask >> j & 1)
            assert iid_exact_survival(pi, StateSet(members), 5) == max(0.0, 1.0 - pi.mass(members)) ** 5

    @pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
    def test_dominated_by_product_exhaustively(self, m):
        for pi_vec in (np.full(m, 1 / m), np.random.default_rng(m).dirichlet(np.full(m, 1.0))):
            pi = dist(*pi_vec)
            for mask in range(1, 1 << m):
                members = tuple(j for j in range(m) if mask >> j & 1)
                joint = iid_exact_survival(pi, StateSet(members), 3)
                prod = np.prod([iid_exact_survival(pi, state_set([j]), 3) for j in members])
                assert joint <= prod + 1e-12


class TestProductInequality:
    def test_two_halves(self):
        rep = product_inequality_check(dist(0.5, 0.5), state_set([0, 1]))[0]
        assert rep.value == 0.0
        assert rep.bound_value == pytest.approx(0.25)
        assert rep.holds

    def test_singleton_equality(self):
        rep = product_inequality_check(dist(0.3, 0.7), state_set([0]))[0]
        assert rep.bound_value - rep.value == pytest.approx(0.0, abs=1e-15)
        assert rep.holds

    def test_ten_tenths(self):
        pi = dist(*([0.1] * 10))
        rep = product_inequality_check(pi, StateSet(tuple(range(10))))[0]
        assert rep.value == pytest.approx(0.0, abs=1e-12)
        assert rep.bound_value == pytest.approx(0.9 ** 10, rel=1e-12)
        assert rep.bound_value == pytest.approx(0.34867844, rel=1e-7)


class TestHittingTailBound:
    def test_bracket_reading(self):
        # window = ceil(2e) = 6, exponent = floor(20/6) = 3
        assert hitting_tail_bound(2.0, 20) == pytest.approx(math.exp(-3.0), rel=1e-15)

    def test_vacuous_below_one_window(self):
        assert hitting_tail_bound(2.0, 5) == 1.0

    def test_unit_expectation(self):
        # window = ceil(e) = 3, exponent = floor(11/3) = 3
        assert hitting_tail_bound(1.0, 11) == pytest.approx(math.exp(-3.0), rel=1e-15)

    def test_dominates_exact_geometric_tail(self):
        for t in range(0, 60):
            assert 0.5 ** t <= hitting_tail_bound(2.0, t) + 1e-15

    def test_monotone_in_t(self):
        vals = [hitting_tail_bound(3.0, t) for t in range(0, 200)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_monotone_in_expected(self):
        vals = [hitting_tail_bound(e, 50) for e in (1.0, 2.0, 3.0, 5.0, 8.0)]
        assert all(a <= b for a, b in zip(vals, vals[1:]))

    def test_window_past_the_float_range_is_vacuous(self):
        # e * E N_B overflows, so no window fits in any finite t
        assert hitting_tail_bound(1e308, 1) == hitting_tail_bound(1e308, 1e300) == 1.0
        assert hitting_tail_bound(6e307, 1e300) == 1.0  # e * 6e307 still fits

    def test_validation(self):
        with pytest.raises(ValidationError):
            hitting_tail_bound(0.0, 5)
        with pytest.raises(ValidationError):
            hitting_tail_bound(1.0, -1)


class TestExplicitHittingTail:
    def test_t_zero(self):
        assert explicit_hitting_tail(0.5, 2.0, 0) == 1.0

    def test_sixteen_e(self):
        t = 16 * math.e
        assert explicit_hitting_tail(0.5, 2.0, t) == pytest.approx(math.exp(-2.0), rel=1e-12)

    def test_iid_two_state(self):
        bound = explicit_hitting_tail(0.5, 2.0, 40)
        assert bound == pytest.approx(math.exp(-5 / math.e), rel=1e-12)
        assert bound == pytest.approx(0.158913, rel=1e-5)
        assert 0.5 ** 40 <= bound

    def test_validation(self):
        with pytest.raises(ValidationError):
            explicit_hitting_tail(0.0, 1.0, 1)
        with pytest.raises(ValidationError):
            explicit_hitting_tail(0.5, 0.0, 1)


class TestMissingMassTailBound:
    def test_large_epsilon_kills_failure_probability(self):
        params = BoundParams(c=1.0, T=1.0, n=10, pi=dist(0.5, 0.5))
        assert missing_mass_tail_bound(params, 100.0).failure_bound < 1e-300

    @pytest.mark.parametrize("eps,n", [(1e155, 3), (1e154, 10)])
    def test_epsilon_whose_square_overflows(self, eps, n):
        # eps^2, or c2 n eps^2, passes the float range, but eps^2 / T = (eps / 1e154)^2
        params = BoundParams(c=1.0, T=1e308, n=n, pi=dist(0.5, 0.5))
        expected = math.exp(-0.5 * n * (eps / 1e154) ** 2)
        assert missing_mass_tail_bound(params, eps, c2=0.5).failure_bound == \
            pytest.approx(expected, rel=1e-12)
        assert expected > 0

    def test_uniform_four_states(self):
        params = BoundParams(c=1.0, T=1.0, n=4, pi=dist(0.25, 0.25, 0.25, 0.25))
        tail = missing_mass_tail_bound(params, 0.1)
        assert tail.mean_term == pytest.approx(math.exp(-1.0), rel=1e-12)
        assert tail.mean_term == pytest.approx(0.36788, rel=1e-4)
        assert tail.threshold == pytest.approx(math.exp(-1.0) + 0.1, rel=1e-12)

    def test_iid_mode_mean_is_exact_expectation(self):
        mu = np.array([0.1, 0.2, 0.3, 0.4])
        params = BoundParams(c=1.0, T=1.0, n=6, pi=dist(*mu))
        tail = missing_mass_tail_bound(params, 0.05, iid_exact=True)
        assert tail.mean_term == pytest.approx(float(np.sum(mu * (1 - mu) ** 6)), rel=1e-12)

    def test_iid_mode_mean_matches_monte_carlo(self):
        chain = generate("iid", mu=(0.1, 0.2, 0.3, 0.4))
        pi = stationary(chain.matrix)
        params = BoundParams(c=1.0, T=1.0, n=6, pi=pi)
        tail = missing_mass_tail_bound(params, 0.05, iid_exact=True)
        samples = sample_missing_mass(SimConfig(chain=chain, n=6, trials=40_000, master_seed=5), pi)
        mean = math.fsum(s.value for s in samples) / len(samples)
        se = np.std([s.value for s in samples], ddof=1) / math.sqrt(len(samples))
        assert abs(mean - tail.mean_term) <= 3.5 * se

    @pytest.mark.parametrize("c2", [0.0, -1.0, math.inf, math.nan])
    def test_c2_must_be_positive_and_finite(self, c2):
        # c2 = inf would certify a failure probability of exp(-inf) = 0
        params = BoundParams(c=1.0, T=2.0, n=8, pi=dist(0.5, 0.5))
        with pytest.raises(ValidationError, match=f"c2 must be > 0 and finite, got {c2!r}"):
            missing_mass_tail_bound(params, 0.25, c2=c2)

    def test_failure_bound_formula(self):
        params = BoundParams(c=1.0, T=2.0, n=8, pi=dist(0.5, 0.5))
        tail = missing_mass_tail_bound(params, 0.25, c2=0.5)
        assert tail.failure_bound == pytest.approx(math.exp(-0.5 * 8 * 0.0625 / 2.0), rel=1e-12)


class TestKlPinsker:
    def test_identical_distributions(self):
        assert kl_divergence(0.3, 0.3) == 0.0
        rep = pinsker_check(0.3, 0.3)[0]
        assert rep.holds and rep.bound_value == rep.value

    def test_half_vs_quarter(self):
        d = kl_divergence(0.5, 0.25)
        assert d == pytest.approx(kl_highprec(0.5, 0.25), rel=1e-12)
        assert d == pytest.approx(0.14384, rel=1e-4)
        assert d >= 2 * 0.25 ** 2

    def test_nine_tenths_vs_tenth(self):
        d = kl_divergence(0.9, 0.1)
        assert d == pytest.approx(kl_highprec(0.9, 0.1), rel=1e-12)
        assert d == pytest.approx(1.7578, rel=1e-4)
        assert d >= 1.28

    @pytest.mark.parametrize("p", [-0.1, 1.1, -math.inf, math.nan])
    def test_domain_errors(self, p):
        with pytest.raises(PreconditionError, match="p, q must lie in"):
            kl_divergence(p, 0.5)
        with pytest.raises(PreconditionError, match="p, q must lie in"):
            kl_divergence(0.5, p)

    @pytest.mark.parametrize("q", [1e-12, 0.25, 0.5, 0.9, 1 - 1e-12])
    def test_endpoints_closed_form(self, q):
        assert kl_divergence(0.0, q) == pytest.approx(-math.log1p(-q), rel=1e-12)
        assert kl_divergence(1.0, q) == pytest.approx(-math.log(q), rel=1e-12)

    def test_degenerate_endpoints(self):
        # 0 log 0 = 0: equal endpoints are 0 apart, a mass the other side lacks is infinitely far
        assert kl_divergence(0.0, 0.0) == 0.0
        assert kl_divergence(1.0, 1.0) == 0.0
        assert kl_divergence(0.3, 0.0) == kl_divergence(0.3, 1.0) == math.inf
        assert kl_divergence(1.0, 0.0) == kl_divergence(0.0, 1.0) == math.inf

    def test_grid_nonnegative_and_pinsker(self):
        grid = np.linspace(0.01, 0.99, 100)
        for p in grid:
            for q in grid:
                d = kl_divergence(p, q)
                assert d >= -1e-15
                assert d >= 2 * (p - q) ** 2 - 1e-12
                if abs(p - q) > 1e-3:
                    assert d > 1e-12

    def test_zero_iff_equal(self):
        assert kl_divergence(0.4, 0.4) <= 1e-12
        assert kl_divergence(0.4, 0.41) > 1e-12


class TestBernoulliProductMgf:
    def test_s_zero(self):
        assert bernoulli_product_mgf([0.5, 0.5], [0.3, 0.7], 0.0) == pytest.approx(1.0)

    def test_single_factor(self):
        got = bernoulli_product_mgf([2.0], [0.25], 1.5)
        assert got == pytest.approx(1 - 0.25 + 0.25 * math.exp(3.0), rel=1e-12)

    def test_factor_past_the_float_range(self):
        # e^1000 overflows: log(1 - q + q e^1000) = 1000 + log(q + (1 - q) e^-1000)
        assert bernoulli_product_mgf([1000.0], [0.5], 1.0) == math.inf
        # 1e-300 e^1000 = e^(1000 - 300 log 10) is back inside the float range
        assert bernoulli_product_mgf([1000.0], [1e-300], 1.0) == \
            pytest.approx(math.exp(1000.0 - 300.0 * math.log(10.0)), rel=1e-12)

    def test_zero_q_factor_is_one_at_any_weight(self):
        assert bernoulli_product_mgf([1000.0], [0.0], 1.0) == 1.0
        assert bernoulli_product_mgf([1000.0, 2.0], [0.0, 0.25], 1.5) == \
            bernoulli_product_mgf([2.0], [0.25], 1.5)

    def test_product_past_the_float_range(self):
        # each factor is finite (about e^400 / 2); their product is not
        assert bernoulli_product_mgf([400.0], [0.5], 1.0) == pytest.approx(0.5 * math.exp(400.0))
        assert bernoulli_product_mgf([400.0, 400.0], [0.5, 0.5], 1.0) == math.inf

    def test_mgf_domination_iid(self):
        # independent-surrogate product dominates the empirical missing-mass MGF
        mu = np.array([0.1, 0.2, 0.3, 0.4])
        chain = generate("iid", mu=mu)
        pi = stationary(chain.matrix)
        n = 4
        samples = sample_missing_mass(SimConfig(chain=chain, n=n, trials=30_000, master_seed=8), pi)
        q = (1 - mu) ** n
        for s in (0.5, 1.0, 2.0):
            emp = empirical_mgf(samples, s)
            assert emp <= bernoulli_product_mgf(mu, q, s) * (1 + 5e-2)
            assert emp <= bernoulli_product_mgf(n * mu, q, s) * (1 + 5e-2)


# exact tails Pr[tau_{0} > n] = 0.5^n of the uniform IID 2-state chain, T(0.5) = 2
UNIFORM2_SURVIVALS = dict(p=[0.25, 0.0625, 0.00390625], n=[2, 4, 8], mass=[0.5] * 3,
                          t_half=[2.0] * 3)


class TestCalibrateC:
    def test_uniform2_certifies_at_least_one(self):
        certified, raw = calibrate_c(**UNIFORM2_SURVIVALS)
        assert certified >= 1.0
        # exact tails: certified c should be close to 4 ln 2
        assert raw == pytest.approx(4 * math.log(2), rel=0.05)

    def test_exact_instances_leave_no_uncertainty(self):
        certified, raw = calibrate_c(**UNIFORM2_SURVIVALS)
        assert raw == pytest.approx(4 * math.log(2), rel=1e-12)
        assert certified == 2.75  # 4 ln 2 = 2.77 floored to a multiple of 0.25

    def test_exact_zero_survivals_constrain_nothing(self):
        with pytest.raises(InsufficientTrialsError, match="no instance constrains c"):
            calibrate_c(p=[0.0], n=[4], mass=[0.5], t_half=[2.0])

    def test_subnormal_survivals_constrain_nothing(self):
        # a residue such as 4.4e-323 is round-off of a tail that underflowed: as a real
        # survival at n = 20000 it would certify a far smaller c than the row it joins
        rows = dict(n=[4, 20000], mass=[0.5] * 2, t_half=[2.0] * 2)
        assert calibrate_c(p=[0.0625, 4.4e-323], **rows) == calibrate_c(
            p=[0.0625], n=[4], mass=[0.5], t_half=[2.0])
        with pytest.raises(InsufficientTrialsError, match="below the smallest normal double"):
            calibrate_c(p=[4.4e-323], n=[20000], mass=[0.5], t_half=[2.0])
        # the smallest normal double itself is a real survival
        assert calibrate_c(p=[np.finfo(float).tiny], **{k: v[1:] for k, v in rows.items()})[1] > 0

    def test_survival_above_one_reads_as_one(self):
        # a survival that rounds above 1 would certify a c below 0; read as 1, it gives
        # 0.0 for both, and not -0.0
        certified, raw = calibrate_c([1.0000000000000002, 0.5], [2, 4], [0.5, 0.5], [1.0, 1.0])
        assert (certified, raw) == (0.0, 0.0)
        assert math.copysign(1.0, certified) == math.copysign(1.0, raw) == 1.0

    def test_empty_suite(self):
        with pytest.raises(ValidationError):
            calibrate_c(p=[], n=[], mass=[], t_half=[])

    def test_inclusion_filter(self):
        with pytest.raises(ValidationError):
            calibrate_c(p=[0.5], n=[1], mass=[0.5], t_half=[3.0])


class TestCalibrationFilterExample:
    def test_short_horizon_cycle_excluded(self):
        # deterministic 3-cycle at n = 0 < T(0.5) would force c = 0, as its survival is 1;
        # the inclusion filter drops it, and the other row alone sets c
        P = validate([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
        t_half = t_large(P, stationary(P), 0.5).value
        _, raw = calibrate_c(p=[1.0, 0.0625], n=[0, 4], mass=[1 / 3, 0.5],
                             t_half=[t_half + 1, 2.0])
        assert raw == pytest.approx(4 * math.log(2), rel=1e-12)


def test_calibration_skips_single_state_chains():
    # T(0.5) = 0 only on a single-state chain, whose bounds are vacuous
    with pytest.raises(InsufficientTrialsError, match="no instance constrains c"):
        calibrate_c(p=[0.5], n=[1], mass=[1.0], t_half=[0.0])
