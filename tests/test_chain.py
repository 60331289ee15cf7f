import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mml
import mml.simulate
from mml.chain import (
    CHAIN_FAMILIES,
    FAMILY_BUILDERS,
    ChainSpec,
    chain_from_dict,
    derive_stream,
    generate,
    is_irreducible,
    load_chain,
    point_start,
    save_chain,
    stationary,
    validate,
)
from mml.errors import (
    ChainFileError,
    MMLError,
    PreconditionError,
    SingularSystemError,
    ValidationError,
)
from mml.solve import POWER_MIN_STATES, _band_links, _reaches_all

from oracles import validate_by_passes

DIRECTED_3CYCLE = [[0, 1, 0], [0, 0, 1], [1, 0, 0]]
# values an entry is set to: each side of the 1e-15 clamps, non-finite, plainly out of [0, 1]
EDGE_VALUES = [0.0, -0.0, -5e-16, -1e-15, -2e-15, -0.25, 1.0, 1.0 + 5e-16, 1.0 + 1e-15,
               1.0 + 2e-15, 1.25, np.nan, np.inf, -np.inf]
# and offsets added to one: each side of the clamps and of the 1e-12 row-sum tolerance
EDGE_OFFSETS = [-2e-12, -5e-13, -2e-15, -5e-16, 5e-16, 2e-15, 5e-13, 2e-12]


class TestValidate:
    def test_uniform_two_state(self):
        P = validate([[0.5, 0.5], [0.5, 0.5]])
        assert P.m == 2
        assert np.array_equal(P.rows, [[0.5, 0.5], [0.5, 0.5]])

    def test_single_absorbing_state(self):
        assert validate([[1.0]]).m == 1

    def test_non_stochastic_row(self):
        with pytest.raises(ValidationError, match="row 0"):
            validate([[0.6, 0.5], [0.5, 0.5]])

    def test_negative_entry(self):
        with pytest.raises(ValidationError, match=r"^P\[0\]\[1\] = -0\.1 is negative$"):
            validate([[1.1, -0.1], [0.5, 0.5]])

    def test_non_square(self):
        with pytest.raises(ValidationError, match=r"expected a square matrix, got shape \(1, 2\)"):
            validate([[0.5, 0.5]])

    def test_non_finite(self):
        with pytest.raises(ValidationError):
            validate([[np.nan, 1.0], [0.5, 0.5]])

    def test_clamps_roundtrip_noise(self):
        P = validate([[1.0 + 5e-16, -5e-16], [0.5, 0.5]])
        assert P.rows[0, 0] == 1.0
        assert P.rows[0, 1] == 0.0

    @settings(deadline=None, max_examples=300)
    @given(m=st.integers(1, 4), data=st.data())
    def test_matches_a_pass_per_check(self, m, data):
        rows = []
        for _ in range(m):
            weights = np.array(data.draw(st.lists(st.sampled_from([0.0, 0.25, 1.0, 3.0]),
                                                  min_size=m, max_size=m)))
            rows.append(weights / weights.sum() if weights.any() else np.eye(m)[0])
        raw = np.array(rows)
        for _ in range(data.draw(st.integers(0, 3))):
            i, j = data.draw(st.integers(0, m - 1)), data.draw(st.integers(0, m - 1))
            if data.draw(st.booleans()):
                raw[i, j] = data.draw(st.sampled_from(EDGE_VALUES))
            else:
                raw[i, j] += data.draw(st.sampled_from(EDGE_OFFSETS))
        try:
            expected = validate_by_passes(raw)
        except MMLError as e:
            with pytest.raises(MMLError) as got:
                validate(raw)
            assert (type(got.value), str(got.value)) == (type(e), str(e))
        else:
            assert validate(raw).rows.tobytes() == expected.tobytes()

    def test_rows_frozen(self):
        P = validate([[0.5, 0.5], [0.5, 0.5]])
        with pytest.raises(ValueError):
            P.rows[0, 0] = 0.9


class TestIrreducible:
    def test_complete_support(self):
        assert is_irreducible(validate([[0.5, 0.5], [0.5, 0.5]]))

    def test_absorbing_state(self):
        assert not is_irreducible(validate([[1, 0], [0.5, 0.5]]))

    def test_deterministic_cycle(self):
        assert is_irreducible(validate(DIRECTED_3CYCLE))

    def test_single_state(self):
        assert is_irreducible(validate([[1.0]]))

    @settings(deadline=None, max_examples=300)
    @given(m=st.integers(1, 12), data=st.data())
    def test_matches_transitive_closure(self, m, data):
        # every row gets one edge, so it can carry mass; with m to 4m more
        # edges about a third of the supports are strongly connected
        state = st.integers(0, m - 1)
        support = np.zeros((m, m), dtype=bool)
        support[np.arange(m), data.draw(st.lists(state, min_size=m, max_size=m))] = True
        for x, y in data.draw(st.lists(st.tuples(state, state), min_size=m, max_size=4 * m)):
            support[x, y] = True
        P = validate(support / support.sum(axis=1, keepdims=True))
        assert is_irreducible(P) == _strongly_connected(support)

    def test_large_irreducible_families(self):
        assert is_irreducible(generate("lazy-cycle", m=1000, hold=0.5).matrix)
        assert is_irreducible(generate("random-dense", m=2000, seed=1).matrix)

    @pytest.mark.parametrize("link", [(0, 500), (500, 0)])
    def test_two_blocks_with_a_one_way_link(self, link):
        # forward search from state 0 reaches every state for (0, 500) and
        # the backward search does for (500, 0); both chains are reducible
        block = generate("lazy-cycle", m=500, hold=0.5).matrix.rows
        rows = np.zeros((1000, 1000))
        rows[:500, :500] = rows[500:, 500:] = block
        x, y = link
        rows[x, x] -= 0.25
        rows[x, y] += 0.25
        assert not is_irreducible(validate(rows))


class TestBandIrreducibility:
    """From POWER_MIN_STATES states on, a chain whose support lies in the cyclic tridiagonal
    band is decided from its up and down links instead of by search."""

    @settings(deadline=None, max_examples=300)
    @given(m=st.integers(POWER_MIN_STATES, 80), data=st.data())
    def test_matches_the_search(self, m, data):
        # link x joins x and x+1; up[x] = 0 breaks it upward and down[x + 1] = 0 downward.
        # A few broken links each way, at the same link or not, or one way broken everywhere
        link = st.integers(0, m - 1)
        no_up = data.draw(st.sets(link, max_size=3))
        no_down = no_up if data.draw(st.booleans()) else data.draw(st.sets(link, max_size=3))
        one_way = data.draw(st.sampled_from([None, "up", "down"]))
        no_up = set(range(m)) if one_way == "up" else no_up
        no_down = set(range(m)) if one_way == "down" else no_down
        x = np.arange(m)
        up = np.where(np.isin(x, list(no_up)), 0.0, 0.25)
        down = np.where(np.isin((x - 1) % m, list(no_down)), 0.0, 0.25)
        rows = np.zeros((m, m))
        rows[x, (x + 1) % m], rows[x, x - 1], rows[x, x] = up, down, 1.0 - up - down
        P = validate(rows)
        assert P.structure.band is not None
        assert is_irreducible(P) == (_reaches_all(P.rows, [0]) and _reaches_all(P.rows.T, [0]))

    def test_a_dense_chain_is_rejected_after_one_row(self):
        rows = _ReadCounted(generate("random-dense", m=2000, seed=1).matrix.rows)
        assert _band_links(rows) is None
        assert 0 < rows.read <= 2000

    @pytest.mark.parametrize("m", [2, 3, POWER_MIN_STATES - 1])
    def test_below_the_floor_no_chain_is_a_band_chain(self, m):
        assert generate("lazy-cycle", m=m, hold=0.5).matrix.structure.band is None


class _ReadCounted(np.ndarray):
    """P's rows, counting the entries read through indexing."""

    def __new__(cls, rows):
        out = np.array(rows).view(cls)
        out.read = 0
        return out

    def __getitem__(self, key):
        part = np.asarray(self)[key]
        self.read += np.size(part)
        return part


def _strongly_connected(support: np.ndarray) -> bool:
    """Brute force: Warshall's transitive closure of the support graph is full."""
    reach = support | np.eye(len(support), dtype=bool)
    for k in range(len(support)):
        reach |= reach[:, [k]] & reach[[k], :]
    return bool(reach.all())


class TestStationary:
    def test_symmetric_rows(self):
        pi = stationary(validate([[0.5, 0.5], [0.5, 0.5]]))
        np.testing.assert_allclose(pi.pi, [0.5, 0.5], atol=1e-12)

    def test_two_state(self):
        # detailed balance: 0.1 pi0 = 0.2 pi1  =>  pi = (2/3, 1/3)
        pi = stationary(validate([[0.9, 0.1], [0.2, 0.8]]))
        np.testing.assert_allclose(pi.pi, [2 / 3, 1 / 3], atol=1e-12)

    def test_periodic_cycle(self):
        pi = stationary(validate(DIRECTED_3CYCLE))
        np.testing.assert_allclose(pi.pi, [1 / 3, 1 / 3, 1 / 3], atol=1e-12)

    def test_residual_is_recomputed(self):
        P = validate([[0.9, 0.1], [0.2, 0.8]])
        pi = stationary(P)
        assert pi.residual == np.max(np.abs(pi.pi @ P.rows - pi.pi))
        assert pi.residual <= 1e-10

    def test_not_irreducible(self):
        with pytest.raises(PreconditionError, match="chain is not irreducible"):
            stationary(validate([[1, 0], [0.5, 0.5]]))

    def test_single_state(self):
        pi = stationary(validate([[1.0]]))
        assert pi.pi.tolist() == [1.0]

    @pytest.mark.parametrize("seed", range(8))
    def test_relabeling_permutes_pi(self, seed):
        chain = generate("random-dense", m=6, seed=seed)
        pi = stationary(chain.matrix)
        rng = np.random.default_rng(seed)
        perm = rng.permutation(6)
        relabeled = validate(chain.matrix.rows[np.ix_(perm, perm)])
        pi2 = stationary(relabeled)
        np.testing.assert_allclose(pi2.pi, pi.pi[perm], atol=1e-10)

    def test_failed_solve_raises(self, monkeypatch):
        def singular(A, b):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(np.linalg, "solve", singular)
        with pytest.raises(SingularSystemError, match="stationary solve failed: Singular matrix"):
            stationary(validate([[0.9, 0.1], [0.2, 0.8]]))

    def test_non_finite_solve_raises(self, monkeypatch):
        # a NaN residual compares false with any tolerance: it must still fail
        monkeypatch.setattr(np.linalg, "solve", lambda A, b: np.full(len(b), np.nan))
        with pytest.raises(SingularSystemError, match="stationary solve residual nan exceeds"):
            stationary(validate([[0.9, 0.1], [0.2, 0.8]]))


FAMILY_CASES = [
    ("iid", dict(mu=(0.5, 0.5))),
    ("iid", dict(mu=(0.2, 0.3, 0.5))),
    ("two-state", dict(p=0.1, q=0.2)),
    ("lazy-cycle", dict(m=1, hold=0.0)),
    ("lazy-cycle", dict(m=2, hold=0.5)),
    ("lazy-cycle", dict(m=4, hold=0.5)),
    ("lazy-cycle", dict(m=6, hold=0.0)),
    ("birth-death", dict(m=5, p=0.3, q=0.3)),
    ("birth-death", dict(m=8, p=0.35, q=0.25)),
    ("random-dense", dict(m=7, alpha=0.5)),
    ("random-dense", dict(m=3, alpha=2.0)),
]


class TestGenerate:
    def test_iid_rows_identical(self):
        chain = generate("iid", mu=(0.5, 0.5))
        assert np.array_equal(chain.matrix.rows, [[0.5, 0.5], [0.5, 0.5]])

    def test_two_state_matrix(self):
        chain = generate("two-state", p=0.1, q=0.2)
        np.testing.assert_allclose(chain.matrix.rows, [[0.9, 0.1], [0.2, 0.8]], atol=1e-15)

    def test_lazy_cycle_rows(self):
        chain = generate("lazy-cycle", m=4, hold=0.5)
        expected = np.array([
            [0.5, 0.25, 0.0, 0.25],
            [0.25, 0.5, 0.25, 0.0],
            [0.0, 0.25, 0.5, 0.25],
            [0.25, 0.0, 0.25, 0.5],
        ])
        np.testing.assert_allclose(chain.matrix.rows, expected, atol=1e-15)

    @pytest.mark.parametrize("family,params", FAMILY_CASES)
    def test_families_validate_and_are_irreducible(self, family, params):
        m = params.pop("m", None)
        seed = {"seed": 11} if family == "random-dense" else {}
        chain = generate(family, m=m, **params, **seed)
        assert is_irreducible(chain.matrix)
        # re-validating the produced rows must succeed
        validate(chain.matrix.rows)

    def test_seed_is_read_by_random_dense_alone(self):
        for family, params in [("iid", dict(mu=(0.5, 0.5))), ("two-state", dict(p=0.1, q=0.2)),
                               ("lazy-cycle", dict(m=4, hold=0.5)),
                               ("birth-death", dict(m=5, p=0.3, q=0.3))]:
            with pytest.raises(ValidationError, match=r"unused parameters .*\['seed'\]"):
                generate(family, seed=9, **params)
        assert np.array_equal(generate("random-dense", m=4).matrix.rows,
                              generate("random-dense", m=4, seed=0).matrix.rows)

    def test_families_are_the_builder_table(self):
        # one table dispatches generate and names the families, in the order errors list them
        assert CHAIN_FAMILIES == tuple(FAMILY_BUILDERS) == (
            "iid", "two-state", "lazy-cycle", "birth-death", "random-dense")
        assert {family for family, _ in FAMILY_CASES} == set(CHAIN_FAMILIES)
        with pytest.raises(ValidationError, match=re.escape(
                f"unknown chain family 'ring'; known: {CHAIN_FAMILIES}")):
            generate("ring", m=4)

    def test_generate_is_deterministic(self):
        a = generate("random-dense", m=5, seed=123)
        b = generate("random-dense", m=5, seed=123)
        assert np.array_equal(a.matrix.rows, b.matrix.rows)

    def test_iid_stationary_is_mu(self):
        mu = np.array([0.1, 0.2, 0.3, 0.4])
        pi = stationary(generate("iid", mu=mu).matrix)
        assert np.max(np.abs(pi.pi - mu)) <= 1e-10

    @pytest.mark.parametrize("family,params", [
        ("iid", dict(mu=(0.5, 0.6))),
        ("iid", dict(mu=(1.0, 0.0))),
        ("two-state", dict(p=0.0, q=0.5)),
        ("lazy-cycle", dict(m=4, hold=1.0)),
        ("birth-death", dict(m=4, p=0.6, q=0.6)),
        ("birth-death", dict(m=4, p=0.0, q=0.5)),
        ("random-dense", dict(m=4, alpha=0.0)),
        ("no-such-family", dict()),
    ])
    def test_bad_params(self, family, params):
        m = params.pop("m", None)
        with pytest.raises(ValidationError):
            generate(family, m=m, **params)

    @pytest.mark.parametrize("family,params,name", [
        ("random-dense", dict(m=3, alpha=math.nan), "alpha"),
        ("random-dense", dict(m=3, alpha=math.inf), "alpha"),
        ("birth-death", dict(m=3, p=math.nan, q=0.2), "p"),
        ("birth-death", dict(m=3, p=0.2, q=math.nan), "q"),
        ("iid", dict(mu=(0.5, math.nan)), "mu"),
        ("iid", dict(mu=(math.nan, 0.5)), "mu"),
    ])
    def test_non_finite_params_name_the_parameter(self, family, params, name):
        # NaN fails no comparison, so a check written as "reject if bad" would let it through
        m = params.pop("m", None)
        with pytest.raises(ValidationError, match=rf"\b{name}\b"):
            generate(family, m=m, **params)

    @pytest.mark.parametrize("family,params,size", [("iid", dict(mu=(0.5, 0.5)), 2),
                                                    ("iid", dict(mu=(0.2, 0.3, 0.5)), 3),
                                                    ("two-state", dict(p=0.1, q=0.2), 2)])
    def test_m_must_match_the_implied_size(self, family, params, size):
        assert generate(family, m=size, **params).matrix.m == size
        for m in (size - 1, size + 3):
            with pytest.raises(ValidationError, match=f"has {size} states, got m={m}"):
                generate(family, m=m, **params)


class TestChainSpec:
    def test_start_must_be_distribution(self):
        P = validate([[0.5, 0.5], [0.5, 0.5]])
        with pytest.raises(ValidationError, match=r"^start sums to 1\.2, expected 1$"):
            ChainSpec(matrix=P, start=np.array([0.6, 0.6]))
        with pytest.raises(ValidationError):
            ChainSpec(matrix=P, start=np.array([1.2, -0.2]))

    @pytest.mark.parametrize("start,entry", [([math.nan, 1.0], "start[0] is not finite: nan"),
                                             ([0.0, math.inf], "start[1] is not finite: inf"),
                                             ([-math.inf, 1.0], "start[0] is not finite: -inf")])
    def test_start_must_be_finite(self, start, entry):
        # a NaN entry once passed the sign and sum checks, and broke the samplers later
        P = generate("two-state", p=0.5, q=0.5).matrix
        with pytest.raises(ValidationError, match=re.escape(entry)):
            ChainSpec(matrix=P, start=start)

    def test_default_start_is_stationary(self):
        chain = generate("two-state", p=0.1, q=0.2)
        np.testing.assert_allclose(chain.resolved_start(), [2 / 3, 1 / 3], atol=1e-12)

    def test_point_start(self):
        assert point_start(3, 1).tolist() == [0.0, 1.0, 0.0]


class TestChainFiles:
    def test_round_trip(self, tmp_path):
        chain = ChainSpec(matrix=validate([[0.9, 0.1], [0.2, 0.8]], labels=("a", "b")),
                          start=np.array([1.0, 0.0]))
        path = tmp_path / "c.json"
        save_chain(chain, path)
        back = load_chain(path)
        assert np.array_equal(back.matrix.rows, chain.matrix.rows)
        assert back.matrix.labels == ("a", "b")
        assert np.array_equal(back.start, chain.start)

    def test_absent_start_means_stationary(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text('{"m": 2, "P": [[0.5, 0.5], [0.5, 0.5]]}')
        assert load_chain(path).start is None

    def test_missing_file(self, tmp_path):
        with pytest.raises(ChainFileError):
            load_chain(tmp_path / "nope.json")

    def test_parse_error_reports_line(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"m": 2,\n "P": [[0.5, 0.5],\n')
        with pytest.raises(ChainFileError, match="line 3"):
            load_chain(path)

    @pytest.mark.parametrize("obj,field", [
        ([1, 2], "top level"),
        ({"P": [[1.0]]}, "'m'"),
        ({"m": 0, "P": []}, "'m'"),
        ({"m": 2}, "'P'"),
        ({"m": 2, "P": [[0.5, 0.5]]}, "'P'"),
        ({"m": 2, "P": [[0.5, 0.5], [0.5]]}, r"P\[1\]"),
        ({"m": 2, "P": [[0.5, 0.5], [0.5, "x"]]}, r"P\[1\]\[1\]"),
        ({"m": 2, "P": [[0.5, 0.5], [0.5, 0.5]], "start": [1.0]}, "'start'"),
        ({"m": 2, "P": [[0.5, 0.5], [0.5, 0.5]], "labels": ["a"]}, "'labels'"),
        ({"m": 2, "P": [[0.5, 0.5], [0.5, 0.5]], "bogus": 1}, "bogus"),
    ])
    def test_schema_errors_are_field_precise(self, obj, field):
        with pytest.raises(ChainFileError, match=field):
            chain_from_dict(obj)

    def test_validation_error_from_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"m": 2, "P": [[0.6, 0.5], [0.5, 0.5]]}))
        with pytest.raises(ValidationError, match="row 0"):
            load_chain(path)


def test_derive_stream_keys_philox_by_seed_and_index_mod_2_64():
    # one function, defined beside the generator that reads it, and reached through simulate
    assert mml.derive_stream is mml.simulate.derive_stream is derive_stream
    for seed, index in ((3, 1), (-1, 0), (2**64 + 3, -2), (np.int64(-7), np.uint32(9))):
        key = np.array([int(seed) & (2**64 - 1), int(index) & (2**64 - 1)], dtype=np.uint64)
        expected = np.random.Generator(np.random.Philox(key=key)).integers(0, 2**63, 4)
        assert derive_stream(seed, index).integers(0, 2**63, 4).tolist() == expected.tolist()
