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
    BoundReport,
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


def _csv(reports, header_meta=None) -> str:
    return render_reports_csv(ReportBlock.from_reports(reports), header_meta)


def test_from_check_derives_margin_and_holds():
    rep = BoundReport.from_check("x", 1.0, 0.4)
    assert rep.margin == 0.6
    assert rep.holds and rep.ci == 0.0
    rep2 = BoundReport.from_check("x", 0.4, 0.6)
    assert not rep2.holds
    assert BoundReport.from_check("x", 0.4, 0.6, tol=0.2).holds


def test_csv_layout_and_formatting():
    rep = BoundReport.from_check(
        "check", np.float64(0.5), 0.25,
        metadata={"chain_id": "two-state", "J": (0, 2), "n": 3, "flag": True})
    rep.ci = 0.01
    text = _csv([rep], header_meta={"seed": 7})
    lines = text.splitlines()
    assert lines[0] == "# seed=7"
    assert lines[1] == "name,chain_id,params,bound,value,ci,margin,holds,vacuous"
    assert lines[2] == "check,two-state,J=0|2;flag=true;n=3,0.5,0.25,0.01,0.25,true,false"


def test_numpy_scalars_render_as_plain_floats():
    rep = BoundReport.from_check("n", np.float64(1.5), np.float64(0.5),
                                 metadata={"v": np.float64(2.0)})
    row = csv_body(_csv([rep])).splitlines()[1]
    assert "np.float64" not in row
    assert "v=2.0" in row


def test_numpy_bools_render_like_bools():
    assert _fmt(np.bool_(True)) == _fmt(True) == "true"
    assert _fmt(np.bool_(False)) == _fmt(False) == "false"
    assert _fmt((np.bool_(True), 1)) == "true|1"
    rep = BoundReport.from_check("b", 1.0, 0.5, metadata={"flag": np.bool_(True)})
    assert "flag=true" in _csv([rep])


def test_cells_with_commas_are_quoted():
    reps = [BoundReport.from_check("lemma1", 0.5, 0.25,
                                   metadata={"chain_id": "random-dense(m=6,#=0)", "A": (0, 1)}),
            BoundReport.from_check("cor1", 1.0, 0.5,
                                   metadata={"chain_id": "lazy-cycle(m=5,hold=0.5)", "n": 4})]
    lines = csv_body(_csv(reps, {"seed": 3})).splitlines()
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
    rep = BoundReport.from_check("x", 0.5, 0.25, metadata={"chain_id": chain_id, "p": params})
    row = ["x", chain_id, f"p={params}", "0.5", "0.25", "0.0", "0.25", "true", "false"]
    assert _csv([rep]) == _csv_line(CSV_COLUMNS) + "\n" + _csv_line(row) + "\n"


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
def _reports(draw):
    metadata = draw(st.dictionaries(_KEYS, _VALUES, max_size=4))
    chain_id = draw(st.one_of(st.none(), st.sampled_from(["c0", "lazy-cycle(m=5,hold=0.5)"]),
                              _TEXT))
    if chain_id is not None:
        metadata["chain_id"] = chain_id
    return BoundReport(name=draw(st.sampled_from(["lemma1", "thm1-mgf-eq3form", "x"])),
                       bound_value=draw(_FLOATS), value=draw(_FLOATS), margin=draw(_FLOATS),
                       holds=draw(st.booleans()), vacuous=draw(st.booleans()),
                       ci=draw(_FLOATS), metadata=metadata)


@settings(deadline=None)
@given(reports=st.lists(_reports(), max_size=8),
       header=st.dictionaries(st.sampled_from(["seed", "c", "suite"]), _VALUES, max_size=3))
def test_block_of_reports_renders_as_rows(reports, header):
    block = ReportBlock.from_reports(reports)
    assert len(block) == len(reports)
    assert render_reports_csv(block, header) == render_rows_csv(reports, header)
    twice = ReportBlock.concat([block, ReportBlock.from_reports(reports)])
    assert render_reports_csv(twice, header) == render_rows_csv(reports * 2, header)


@st.composite
def _array_blocks(draw, key):
    """Blocks as the lemma kernels build them: array params, member sets as Labels.
    ``key`` is free text: quotes come from keys as well as values."""
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
    return ReportBlock.of_check(draw(st.sampled_from(["lemma1", "lemma2"])),
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
    reports = [
        BoundReport.from_check("ok", 1.0, 0.5, metadata={"chain_id": "c", "J": (0,), "n": 4}),
        BoundReport.from_check("bad", 0.5, 1.0, metadata={"chain_id": "c", "J": (0, 1), "n": 8}),
        BoundReport.from_check("vac", 1.0, 0.5, vacuous=True, metadata={"chain_id": "d", "s": 1.0}),
        BoundReport.from_check("vac-bad", 0.5, 1.0, vacuous=True, metadata={"chain_id": "d"}),
        BoundReport.from_check("bad2", 0.0, 2.0, metadata={"flag": True, "t": 3}),
    ]
    s = VerificationSummary.from_reports("thm1", 7, ReportBlock.from_reports(reports))
    checks, passed, vacuous, violations = summary_by_rows("thm1", 7, reports)
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
    reports = [BoundReport.from_check("x", 1.0, 0.5, metadata={"J": (1, 2)})]
    for given_reports in (reports, ReportBlock.from_reports(reports)):
        payload = json.loads(render_reports_json(given_reports, {"seed": 3}))
        assert payload["meta"]["seed"] == 3
        assert payload["reports"][0]["metadata"]["J"] == [1, 2]
        assert payload["reports"][0]["holds"] is True
