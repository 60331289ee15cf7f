"""The report-body comparator: float cells that move are reported, verdicts and
coordinates that change fail."""

import pytest

from body_diff import main

HEADER = "name,chain_id,params,bound,value,ci,holds,vacuous\n"
ROWS = ["prop1-tail,lazy-cycle:m=5;hold=0.5,B=0|2;expected=4.5;t=5,1.0,0.25,0.0,true,false\n",
        "prop1-tail,lazy-cycle:m=5;hold=0.5,B=0|2;expected=4.5;t=9,0.5,0.0625,0.0,true,false\n"]
SUMMARY = "suite,checks,passed,vacuous,violations,extras\nprop1,2,2,0,0,\n"


def _write(directory, rows=ROWS, summary=SUMMARY, meta="# seed=3\n"):
    directory.mkdir()
    (directory / "prop1.csv").write_text(meta + HEADER + "".join(rows))
    (directory / "summary.csv").write_text(meta + summary)
    return str(directory)


def _run(tmp_path, capsys, **b):
    rc = main([_write(tmp_path / "a"), _write(tmp_path / "b", **b)])
    return rc, capsys.readouterr().out


def test_identical_bodies_pass_whatever_the_metadata(tmp_path, capsys):
    rc, out = _run(tmp_path, capsys, meta="# seed=42\n")
    assert rc == 0
    assert out.splitlines() == ["prop1.csv: identical (2 rows)", "summary.csv: identical (1 rows)",
                                "summary.csv equal"]


@pytest.mark.parametrize("old,new,column,move", [
    ("0.25", repr(0.25 + 2 ** -54), "value", "2.22e-16"),
    ("4.5", repr(4.5 + 2 ** -50), "params", "1.97e-16"),  # expected=, a float in a k=v cell
])
def test_a_float_that_moves_is_reported_not_failed(tmp_path, capsys, old, new, column, move):
    rc, out = _run(tmp_path, capsys, rows=[ROWS[0].replace(old, new), ROWS[1]])
    assert rc == 0
    assert f"prop1.csv: 1 of 2 rows moved; cells by column: {column} 1; largest relative move " \
           f"of a float {move}" in out
    assert "no verdict or coordinate cell changed" in out and "summary.csv equal" in out


@pytest.mark.parametrize("old,new,cell", [
    ("true,false\n", "false,false\n", "holds 'true' -> 'false'"),
    ("true,false\n", "true,true\n", "vacuous 'false' -> 'true'"),
    ("t=9", "t=10", "params 'B=0|2;expected=4.5;t=9' -> 'B=0|2;expected=4.5;t=10'"),
    ("B=0|2", "B=0|3", "params 'B=0|2;expected=4.5;t=9' -> 'B=0|3;expected=4.5;t=9'"),
    ("5;hold", "6;hold", "chain_id 'lazy-cycle:m=5;hold=0.5' -> 'lazy-cycle:m=6;hold=0.5'"),
])
def test_a_verdict_or_coordinate_that_changes_fails(tmp_path, capsys, old, new, cell):
    rc, out = _run(tmp_path, capsys, rows=[ROWS[0], ROWS[1].replace(old, new)])
    assert rc == 1
    assert f"  row 2 (prop1-tail): {cell}" in out


def test_a_changed_summary_count_fails_and_says_so(tmp_path, capsys):
    rc, out = _run(tmp_path, capsys, summary=SUMMARY.replace("prop1,2,2,0,0", "prop1,2,1,0,1"))
    assert rc == 1
    assert "  row 1 (prop1): passed '2' -> '1'" in out and out.endswith("summary.csv differs\n")


def test_a_missing_file_or_row_fails(tmp_path, capsys):
    rc, out = _run(tmp_path, capsys, rows=ROWS[:1])
    assert rc == 1 and "prop1.csv: header or row count differs (2 rows against 1)" in out
    (tmp_path / "b" / "prop1.csv").unlink()
    assert main([str(tmp_path / "a"), str(tmp_path / "b")]) == 1
    assert "prop1.csv: only in " in capsys.readouterr().out


def test_usage(capsys):
    assert main(["one"]) == 2
    assert "usage" in capsys.readouterr().err
