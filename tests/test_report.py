import csv
import io
import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from mml.report import CSV_COLUMNS, BoundReport, csv_body, render_reports_csv, render_reports_json


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
    text = render_reports_csv([rep], header_meta={"seed": 7})
    lines = text.splitlines()
    assert lines[0] == "# seed=7"
    assert lines[1] == "name,chain_id,params,bound,value,ci,margin,holds,vacuous"
    assert lines[2] == "check,two-state,J=0|2;flag=true;n=3,0.5,0.25,0.01,0.25,true,false"


def test_numpy_scalars_render_as_plain_floats():
    rep = BoundReport.from_check("n", np.float64(1.5), np.float64(0.5),
                                 metadata={"v": np.float64(2.0)})
    row = ",".join(rep.csv_cells())
    assert "np.float64" not in row
    assert "v=2.0" in row


def test_cells_with_commas_are_quoted():
    reps = [BoundReport.from_check("lemma1", 0.5, 0.25,
                                   metadata={"chain_id": "random-dense(m=6,#=0)", "A": (0, 1)}),
            BoundReport.from_check("cor1", 1.0, 0.5,
                                   metadata={"chain_id": "lazy-cycle(m=5,hold=0.5)", "n": 4})]
    lines = csv_body(render_reports_csv(reps, {"seed": 3})).splitlines()
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
    assert render_reports_csv([rep]) == _csv_line(CSV_COLUMNS) + "\n" + _csv_line(row) + "\n"


def test_csv_body_strips_comments():
    text = "# a=1\nh1,h2\n1,2\n"
    assert csv_body(text) == "h1,h2\n1,2\n"


def test_json_rendering_round_trips():
    rep = BoundReport.from_check("x", 1.0, 0.5, metadata={"J": (1, 2)})
    payload = json.loads(render_reports_json([rep], {"seed": 3}))
    assert payload["meta"]["seed"] == 3
    assert payload["reports"][0]["metadata"]["J"] == [1, 2]
    assert payload["reports"][0]["holds"] is True
