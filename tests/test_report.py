import csv
import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mml.report import (
    CSV_COLUMNS,
    RENDER_CHUNK,
    Labels,
    ReportBlock,
    _fmt,
    csv_body,
    format_params,
    render_reports_csv,
    render_reports_json,
)
from mml.verify import VerificationSummary

from oracles import render_rows_csv, summary_by_rows


def _check(name, bound, value, chain_id="", vacuous=False, **params) -> ReportBlock:
    """The one-row block of the check value <= bound."""
    return ReportBlock.of_check(name, chain_id, [bound], [value], value <= bound, vacuous, params)


def _csv(blocks, header_meta=None) -> str:
    return render_reports_csv(ReportBlock.concat(blocks), header_meta)


def test_of_check_columns_and_scalars():
    block = ReportBlock.of_check("x", "c", [1.0, 0.4], [0.4, 0.6], True, False,
                                 {"t_half": 2.5, "J": (0, 2), "n": np.array([3, 4])})
    rep = block[0]
    assert rep.margin == 0.6
    assert rep.holds and rep.ci == 0.0
    assert block.margin.tolist() == [1.0 - 0.4, 0.4 - 0.6]
    assert block.ci.tolist() == [0.0, 0.0]
    # one holds or vacuous flag, and one value of a key, stand for every row
    assert block.holds.tolist() == [True, True] and block.vacuous.tolist() == [False, False]
    full = ReportBlock.of_check("x", Labels(np.zeros(2, dtype=np.intp), ["c"]),
                                np.array([1.0, 0.4]), np.array([0.4, 0.6]), np.ones(2, bool),
                                np.zeros(2, bool),
                                {"t_half": np.full(2, 2.5), "n": np.array([3, 4]),
                                 "J": Labels(np.zeros(2, dtype=np.intp), [(0, 2)])})
    assert render_reports_csv(block) == render_reports_csv(full)
    assert [r.metadata for r in block] == [r.metadata for r in full]


def test_csv_layout_and_formatting():
    block = _check("check", np.float64(0.5), 0.25, chain_id="two-state", J=(0, 2), n=3,
                   flag=True)
    block.ci[:] = 0.01
    text = _csv([block], header_meta={"seed": 7})
    lines = text.splitlines()
    assert lines[0] == "# seed=7"
    assert lines[1] == "name,chain_id,params,bound,value,ci,margin,holds,vacuous"
    assert lines[2] == "check,two-state,J=0|2;flag=true;n=3,0.5,0.25,0.01,0.25,true,false"


def test_numpy_scalars_render_as_plain_floats():
    block = _check("n", np.float64(1.5), np.float64(0.5), v=np.float64(2.0))
    row = csv_body(_csv([block])).splitlines()[1]
    assert "np.float64" not in row
    assert "v=2.0" in row


def test_numpy_bools_render_like_bools():
    assert _fmt(np.bool_(True)) == _fmt(True) == "true"
    assert _fmt(np.bool_(False)) == _fmt(False) == "false"
    assert _fmt((np.bool_(True), 1)) == "true|1"
    assert "flag=true" in _csv([_check("b", 1.0, 0.5, flag=np.bool_(True))])


def test_cells_with_commas_are_quoted():
    blocks = [_check("lemma1", 0.5, 0.25, chain_id="random-dense(m=6,#=0)", A=(0, 1)),
              _check("cor1", 1.0, 0.5, chain_id="lazy-cycle(m=5,hold=0.5)", n=4)]
    lines = csv_body(_csv(blocks, {"seed": 3})).splitlines()
    assert lines[1] == 'lemma1,"random-dense(m=6,#=0)",A=0|1,0.5,0.25,0.0,0.25,true,false'
    rows = list(csv.reader(lines))
    assert [len(row) for row in rows] == [9, 9, 9]
    assert [row[1] for row in rows[1:]] == ["random-dense(m=6,#=0)", "lazy-cycle(m=5,hold=0.5)"]


# free text, rich in the characters csv.writer quotes on
_TEXT = st.text(st.one_of(st.sampled_from(',"\r\n'), st.characters()))


def _csv_line(cells) -> str:
    """One row as csv.writer's default dialect writes it, less its \\r\\n ending.
    That dialect quotes a cell holding a comma, a quote, \\r or \\n."""
    buf = io.StringIO()
    csv.writer(buf).writerow(cells)
    return buf.getvalue()[:-2]


@settings(deadline=None)
@given(chain_id=_TEXT, params=_TEXT)
def test_rows_match_csv_writer(chain_id, params):
    block = _check("x", 0.5, 0.25, chain_id=chain_id, p=params)
    row = ["x", chain_id, f"p={params}", "0.5", "0.25", "0.0", "0.25", "true", "false"]
    assert _csv([block]) == _csv_line(CSV_COLUMNS) + "\n" + _csv_line(row) + "\n"


# --- the column renderer against the row-by-row renderer ---------------------------

_FLOATS = st.one_of(st.floats(),
                    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324]))
_VALUES = st.one_of(
    st.lists(st.integers(0, 20), max_size=4).map(tuple),
    st.integers(),
    st.booleans(),
    st.booleans().map(np.bool_),
    st.integers(-2**63, 2**63 - 1).map(np.int64),
    _FLOATS.map(np.float64),
    _FLOATS,
    _TEXT,
)
# a few shared keys, so that rows of one block hold different subsets of them
_KEYS = st.one_of(st.sampled_from(["A", "B", "J", "n", "t_half"]),
                  _TEXT.filter(lambda k: k != "chain_id"))


@st.composite
def _scalar_blocks(draw):
    """Blocks whose name, chain id, flags, ci and params are each one value for every row,
    as the iid and ergodic suites and the one-row checks build them."""
    n = draw(st.integers(0, 3))
    floats = st.lists(_FLOATS, min_size=n, max_size=n)
    block = ReportBlock.of_check(
        draw(st.sampled_from(["lemma1", "thm1-mgf-eq3form", "x"])),
        draw(st.one_of(st.sampled_from(["", "c0", "lazy-cycle(m=5,hold=0.5)"]), _TEXT)),
        draw(floats), draw(floats), draw(st.booleans()), draw(st.booleans()),
        draw(st.dictionaries(_KEYS, _VALUES, max_size=4)))
    block.ci[:] = draw(_FLOATS)
    return block


@pytest.mark.filterwarnings("ignore:invalid value encountered in subtract:RuntimeWarning")
@settings(deadline=None)
@given(blocks=st.lists(_scalar_blocks(), min_size=1, max_size=4),
       header=st.dictionaries(st.sampled_from(["seed", "c", "suite"]), _VALUES, max_size=3))
def test_scalar_blocks_render_as_rows(blocks, header):
    # scalar params are one-label Labels columns, which concat joins across differing keys
    joined = ReportBlock.concat(blocks)
    assert len(joined) == sum(map(len, blocks))
    assert render_reports_csv(joined, header) == \
        render_rows_csv([r for b in blocks for r in b], header)


@st.composite
def _array_blocks(draw, key):
    """Blocks as the exact suites build them: array params, member sets as Labels, and a
    name per row or one for the block. ``key`` is free text: quotes come from keys as well
    as values. A block may lack any key, as thm1's survival rows lack ``s``."""
    n = draw(st.integers(0, 6))
    floats = st.lists(_FLOATS, min_size=n, max_size=n).map(lambda v: np.array(v, dtype=float))
    bools = st.lists(st.booleans(), min_size=n, max_size=n).map(lambda v: np.array(v, dtype=bool))
    sets = draw(st.lists(st.lists(st.integers(0, 9), min_size=1, max_size=4).map(tuple),
                         min_size=1, max_size=5))
    codes = st.lists(st.integers(0, len(sets) - 1), min_size=n, max_size=n).map(
        lambda v: np.array(v, dtype=np.intp))
    params = {"A": Labels(draw(codes), sets), key: draw(floats), "ok": draw(bools),
              "t": np.array(draw(st.lists(st.integers(-10**6, 10**6), min_size=n, max_size=n)),
                            dtype=np.int64)}
    params = {k: v for k, v in params.items() if draw(st.booleans())}
    forms = st.lists(st.integers(0, 1), min_size=n, max_size=n).map(
        lambda v: Labels(np.array(v, dtype=np.intp), ["thm1-mgf-eq3form", "thm1-mgf-cor1form"]))
    return ReportBlock.of_check(draw(st.one_of(st.sampled_from(["lemma1", "lemma2"]), forms)),
                                draw(st.one_of(st.just("random-dense(m=3,#=0)"), _TEXT)),
                                draw(floats), draw(floats), draw(bools), draw(bools), params)


@pytest.mark.filterwarnings("ignore:invalid value encountered in subtract:RuntimeWarning")
@settings(deadline=None)
@given(blocks=_KEYS.filter(lambda k: k not in ("A", "ok", "t")).flatmap(
    lambda key: st.lists(_array_blocks(key), min_size=1, max_size=3)))
def test_array_blocks_render_as_rows(blocks):
    for block in blocks:
        assert render_reports_csv(block) == render_rows_csv(list(block))
    # chain ids differ between the concatenated blocks
    joined = ReportBlock.concat(blocks)
    assert render_reports_csv(joined) == render_rows_csv([r for b in blocks for r in b])


def test_rows_beyond_one_chunk():
    n = 2 * RENDER_CHUNK + 3
    block = ReportBlock.of_check("x", "c,1", np.arange(n) / 7, np.arange(n) / 3,
                                 np.arange(n) % 2 == 0, np.arange(n) % 3 == 0,
                                 {"k": np.arange(n) * 1.5, "A": Labels(np.arange(n) % 2,
                                                                       [(0,), (1, 2)])})
    text = render_reports_csv(block)
    assert text == render_rows_csv(list(block))
    assert len(csv_body(text).splitlines()) == n + 1


def test_each_distinct_float_renders_as_its_repr():
    # every float column is formatted from its distinct values; -0.0 beside 0.0 keeps its sign
    special = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324, 0.1, 1e16]
    values = np.array(special * 3 + [0.1, 0.0, -0.0, 2.5] * 5, dtype=float)
    n = len(values)
    block = ReportBlock.of_check("x", "c", values, values[::-1].copy(), np.arange(n) % 2 == 0,
                                 np.zeros(n, dtype=bool),
                                 {"v": values, "w": -values, "k": np.arange(n) % 3,
                                  "A": Labels(np.arange(n) % 2, [(0,), (1, 2)])})
    assert render_reports_csv(block) == render_rows_csv(list(block))
    # reordered through concat, as the lemma suites put their chains back in order
    order = np.arange(2 * n)[::-1]
    assert render_reports_csv(ReportBlock.concat([block, block], order)) == \
        render_rows_csv(list(block)[::-1] * 2)


def test_concat_shares_labels_lists():
    sets = [(0,), (1,), (0, 1)]
    parts = [ReportBlock.of_check("lemma2", f"c{i}", np.ones(3), np.zeros(3), np.ones(3, bool),
                                  np.zeros(3, bool), {"A": Labels(np.arange(3), sets)})
             for i in range(4)]
    joined = ReportBlock.concat(parts)
    assert joined.params["A"].labels == sets
    assert [r.metadata["A"] for r in joined] == sets * 4
    assert [r.metadata["chain_id"] for r in joined] == [f"c{i}" for i in range(4) for _ in sets]


# --- summary counts from the boolean columns ---------------------------------------

def test_summary_counts_match_per_row_rule():
    block = ReportBlock.concat([
        _check("ok", 1.0, 0.5, chain_id="c", J=(0,), n=4),
        _check("bad", 0.5, 1.0, chain_id="c", J=(0, 1), n=8),
        _check("vac", 1.0, 0.5, chain_id="d", vacuous=True, s=1.0),
        _check("vac-bad", 0.5, 1.0, chain_id="d", vacuous=True),
        _check("bad2", 0.0, 2.0, flag=True, t=3),
    ])
    s = VerificationSummary.from_reports("thm1", 7, block)
    checks, passed, vacuous, violations = summary_by_rows("thm1", 7, list(block))
    assert (s.checks, s.passed, s.vacuous) == (checks, passed, vacuous) == (5, 3, 2)
    assert [v["name"] for v in s.violations] == ["bad", "bad2"]
    # the flagged rows' dicts carry their params; a row without a chain id reads ""
    assert s.violations[0] == violations[0]
    assert s.violations[0]["J"] == (0, 1) and s.violations[0]["n"] == 8
    assert s.violations[1] == dict(violations[1], chain_id="")
    assert not s.ok


def test_violation_coordinates_format_like_params():
    assert format_params({"J": (0, 1), "n": 4, "bound": 0.5, "flag": np.bool_(False)}) == \
        "J=0|1;bound=0.5;flag=false;n=4"
    assert format_params({"J": (0,)}) == "J=0"


def test_csv_body_strips_comments():
    text = "# a=1\nh1,h2\n1,2\n"
    assert csv_body(text) == "h1,h2\n1,2\n"


def test_json_rendering_round_trips():
    payload = json.loads(render_reports_json(_check("x", 1.0, 0.5, J=(1, 2)), {"seed": 3}))
    assert payload["meta"]["seed"] == 3
    assert payload["reports"][0]["metadata"]["J"] == [1, 2]
    assert payload["reports"][0]["holds"] is True
    # a check of no chain has no chain id to report
    assert "chain_id" not in payload["reports"][0]["metadata"]
