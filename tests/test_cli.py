import argparse
import csv
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mml
import mml.cli
from mml.bounds import DEFAULT_C, BoundParams, explicit_hitting_tail, missing_mass_tail_bound
from mml.chain import StationaryDistribution
from mml.cli import (
    _options_from_args,
    build_parser,
    main,
    parse_descriptor,
    parse_grid,
    parse_index_set,
)
from mml.errors import MMLError, ValidationError
from mml.report import csv_body
from mml.verify import SUITE_ORDER, SUITES


@pytest.fixture
def two_state(tmp_path):
    path = tmp_path / "two_state.json"
    path.write_text(json.dumps({"m": 2, "P": [[0.9, 0.1], [0.2, 0.8]]}))
    return str(path)


@pytest.fixture
def cycle3(tmp_path):
    path = tmp_path / "cycle3.json"
    path.write_text(json.dumps({"m": 3, "P": [[0, 1, 0], [0, 0, 1], [1, 0, 0]],
                                "start": [1, 0, 0]}))
    return str(path)


class TestArgHelpers:
    def test_parse_index_set(self):
        assert parse_index_set("2,0,1").members == (0, 1, 2)
        with pytest.raises(ValidationError):
            parse_index_set("a,b")

    def test_parse_grid(self):
        assert parse_grid("1..4") == [1, 2, 3, 4]
        assert parse_grid("1,2,8") == [1, 2, 8]


class TestChainCommands:
    def test_stationary_prints_pi(self, two_state, capsys):
        assert main(["chain", "stationary", "--in", two_state]) == 0
        out = capsys.readouterr().out
        assert "0.666667" in out and "0.333333" in out

    def test_generate_writes_iid_file(self, tmp_path, capsys):
        out_file = tmp_path / "c.json"
        rc = main(["chain", "generate", "--family", "iid", "--mu", "0.5,0.5",
                   "--out", str(out_file)])
        assert rc == 0
        obj = json.loads(out_file.read_text())
        assert obj["P"][0] == obj["P"][1] == [0.5, 0.5]

    def test_validate_bad_rows_exits_3(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"m": 2, "P": [[0.6, 0.5], [0.5, 0.5]]}))
        assert main(["chain", "validate", "--in", str(bad)]) == 3
        assert "row 0" in capsys.readouterr().err

    def test_missing_file_exits_2(self, tmp_path, capsys):
        assert main(["chain", "validate", "--in", str(tmp_path / "nope.json")]) == 2

    def test_malformed_json_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"m": 2,')
        assert main(["chain", "validate", "--in", str(bad)]) == 2
        assert "line" in capsys.readouterr().err

    def test_stationary_not_irreducible_exits_4(self, tmp_path, capsys):
        bad = tmp_path / "red.json"
        bad.write_text(json.dumps({"m": 2, "P": [[1.0, 0.0], [0.5, 0.5]]}))
        assert main(["chain", "stationary", "--in", str(bad)]) == 4

    def test_validate_valid_file(self, two_state, cycle3, capsys):
        assert main(["chain", "validate", "--in", two_state]) == 0
        assert main(["chain", "validate", "--in", cycle3]) == 0
        assert capsys.readouterr().out == "ok m=2 irreducible=true\nok m=3 irreducible=true\n"

    def test_stationary_json(self, two_state, capsys):
        assert main(["chain", "stationary", "--in", two_state, "--format", "json"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["pi"] == pytest.approx([2 / 3, 1 / 3], abs=1e-12)
        assert 0 <= out["residual"] <= 1e-10

    def test_generate_to_stdout(self, capsys):
        assert main(["chain", "generate", "--family", "two-state", "--p", "0.1", "--q", "0.2"]) == 0
        assert json.loads(capsys.readouterr().out) == {"m": 2, "P": [[0.9, 0.1], [0.2, 0.8]]}

    @pytest.mark.parametrize("flags", [["--family", "iid", "--mu", "0.5,0.5", "--m", "5"],
                                       ["--family", "two-state", "--p", "0.1", "--q", "0.2",
                                        "--m", "3"]])
    def test_generate_m_the_family_ignores_exits_3(self, capsys, flags):
        assert main(["chain", "stationary", *flags]) == 3
        assert f"has 2 states, got m={flags[-1]}" in capsys.readouterr().err

    @pytest.mark.parametrize("descriptor", ["iid:mu=0.5,0.5;m=3", "two-state:p=0.1;q=0.2;m=4"])
    def test_descriptor_m_the_family_ignores_exits_3(self, tmp_path, capsys, descriptor):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"chains": [descriptor]}))
        rc = main(["verify", "cor1", "--config", str(path), "--out", str(tmp_path / "r")])
        assert rc == 3
        assert f"has 2 states, got m={descriptor[-1]}" in capsys.readouterr().err

    def test_unclassified_library_error_exits_3(self, two_state, capsys, monkeypatch):
        def fail(P):
            raise MMLError("no exit code of its own")

        monkeypatch.setattr(mml.cli, "stationary", fail)
        assert main(["chain", "stationary", "--in", two_state]) == 3
        assert capsys.readouterr().err == "error: no exit code of its own\n"


class TestHitCommands:
    def test_table_cycle(self, cycle3, capsys):
        assert main(["hit", "table", "--in", cycle3, "--B", "2"]) == 0
        out = capsys.readouterr().out
        assert "0,2.0" in out and "1,1.0" in out and "2,0.0" in out

    def test_table_headers_tell_hold_values_apart(self, capsys):
        headers = []
        for hold in ("0.5", "0.9"):
            assert main(["hit", "table", "--family", "lazy-cycle", "--m", "4", "--hold", hold,
                         "--B", "0"]) == 0
            headers.append(capsys.readouterr().out.splitlines()[0])
        assert headers == ["# chain=lazy-cycle(m=4,hold=0.5)", "# chain=lazy-cycle(m=4,hold=0.9)"]

    @pytest.mark.parametrize("flags,label", [
        ("--family birth-death --m 8 --p 0.3 --q 0.3", "birth-death(m=8,p=0.3,q=0.3)"),
        ("--family two-state --p 0.1 --q 0.2", "two-state(p=0.1,q=0.2)"),
        ("--family iid --mu 0.25,0.75", "iid(mu=0.25|0.75)"),
        ("--family random-dense --m 4 --gen-seed 7", "random-dense(m=4,seed=7)"),
    ])
    def test_label_names_every_chain_parameter(self, capsys, flags, label):
        assert main(["hit", "table", *flags.split(), "--B", "0"]) == 0
        assert capsys.readouterr().out.splitlines()[0] == f"# chain={label}"
        assert main(["simulate", "mm", *flags.split(), "--n", "2", "--trials", "10"]) == 0
        assert f"# chain={label}" in capsys.readouterr().out.splitlines()
        assert main(["hit", "lemma1", *flags.split(), "--A", "0", "--B", "1"]) == 0
        rows = list(csv.reader(csv_body(capsys.readouterr().out).splitlines()))
        assert rows[1][1] == label  # chain_id

    def test_tlarge_uniform(self, capsys):
        rc = main(["hit", "tlarge", "--family", "iid", "--mu", "0.5,0.5", "--eps", "0.5"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "T(0.5)=2.0" in out and "witness={0}" in out

    def test_lemma1_uniform(self, capsys):
        rc = main(["hit", "lemma1", "--family", "iid", "--mu", "0.5,0.5",
                   "--A", "0", "--B", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "lemma1" in out
        row = [l for l in out.splitlines() if l.startswith("lemma1")][0]
        cells = row.split(",")
        assert cells[3] == "0.5" and cells[4] == "0.5"  # bound, value
        assert cells[7] == "true"

    def test_tplus(self, cycle3, capsys):
        assert main(["hit", "tplus", "--in", cycle3, "--A", "0,1", "--B", "2"]) == 0
        assert capsys.readouterr().out.strip() == "2.0"

    def test_tlarge_too_many_states_exits_4(self, capsys):
        rc = main(["hit", "tlarge", "--family", "lazy-cycle", "--m", "21",
                   "--hold", "0.5", "--eps", "0.5"])
        assert rc == 4

    def test_empty_set_exits_4(self, cycle3):
        assert main(["hit", "table", "--in", cycle3, "--B", ""]) == 4

    def test_table_json(self, cycle3, capsys):
        assert main(["hit", "table", "--in", cycle3, "--B", "2", "--format", "json"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert (out["B"], out["h"]) == ([2], [2.0, 1.0, 0.0])
        assert out["t_plus_all"] == 2.0

    def test_tlarge_json(self, capsys):
        rc = main(["hit", "tlarge", "--family", "iid", "--mu", "0.5,0.5", "--format", "json"])
        assert rc == 0
        assert json.loads(capsys.readouterr().out) == {"epsilon": 0.5, "value": 2.0,
                                                       "witness": [0]}


class TestSimulateCommands:
    def test_mm_mean_exactly_half(self, capsys):
        rc = main(["simulate", "mm", "--family", "iid", "--mu", "0.5,0.5",
                   "--n", "1", "--trials", "1000", "--seed", "7"])
        assert rc == 0
        body = csv_body(capsys.readouterr().out)
        assert body.splitlines()[1].split(",")[2] == "0.5"

    def test_jointtail_iid(self, capsys):
        rc = main(["simulate", "jointtail", "--family", "iid", "--mu", "0.5,0.5",
                   "--J", "1", "--n", "3", "--trials", "20000", "--seed", "7"])
        assert rc == 0
        body = csv_body(capsys.readouterr().out)
        p_hat = float(body.splitlines()[1].split(",")[3])
        assert abs(p_hat - 0.125) < 0.01

    def test_mgf_s_zero(self, capsys):
        rc = main(["simulate", "mgf", "--family", "iid", "--mu", "0.5,0.5",
                   "--s", "0", "--n", "2", "--trials", "100", "--seed", "3"])
        assert rc == 0
        body = csv_body(capsys.readouterr().out)
        assert body.splitlines()[1].split(",")[1] == "1.0"

    def test_hittail_deterministic(self, cycle3, capsys):
        rc = main(["simulate", "hittail", "--in", cycle3, "--B", "2", "--t", "1,2,3",
                   "--trials", "20", "--seed", "5"])
        assert rc == 0
        body = csv_body(capsys.readouterr().out)
        p_hats = [float(line.split(",")[3]) for line in body.splitlines()[1:]]
        assert p_hats == [1.0, 1.0, 0.0]

    def test_mm_dump(self, tmp_path, capsys):
        dump = tmp_path / "raw.csv"
        rc = main(["simulate", "mm", "--family", "iid", "--mu", "0.5,0.5",
                   "--n", "1", "--trials", "5", "--seed", "7", "--dump", str(dump)])
        assert rc == 0
        lines = dump.read_text().splitlines()
        assert lines[0] == "trial,value,unseen_set"
        # one state seen in one step: the other, of mass 0.5, is unseen
        assert len(lines) == 6
        assert all(line.startswith(f"{i},0.5,") and line.split(",")[2] in ("0", "1")
                   for i, line in enumerate(lines[1:]))

    def test_mm_dump_rows_match_samples(self, tmp_path, capsys):
        dump = tmp_path / "raw.csv"
        argv = ["simulate", "mm", "--family", "random-dense", "--m", "6", "--n", "3",
                "--trials", "300", "--seed", "5"]
        assert main([*argv, "--dump", str(dump)]) == 0
        _, chain = parse_descriptor("random-dense:m=6")
        config = mml.SimConfig(chain=chain, n=3, trials=300, master_seed=5)
        samples = mml.sample_missing_mass(config, mml.stationary(chain.matrix))
        rows = [line.split(",") for line in dump.read_text().splitlines()[1:]]
        assert [int(r[0]) for r in rows] == list(range(300))
        assert [float(r[1]) for r in rows] == [s.value for s in samples]
        assert [r[2] for r in rows] == ["|".join(map(str, s.unseen_set.members)) for s in samples]
        body = csv_body(capsys.readouterr().out).splitlines()
        mean = float(body[1].split(",")[2])
        assert mean == pytest.approx(np.mean([s.value for s in samples]), rel=1e-12)

    def test_tail_ci99_halfwidth(self, capsys):
        rc = main(["simulate", "jointtail", "--family", "iid", "--mu", "0.5,0.5",
                   "--J", "1", "--n", "2", "--trials", "1000", "--seed", "7"])
        assert rc == 0
        header, row = csv_body(capsys.readouterr().out).splitlines()
        assert header == "event,hits,trials,p_hat,ci99_halfwidth"
        event, hits, trials, p_hat, ci = row.split(",")
        assert event == "tau_J>n J=1 n=2" and trials == "1000"
        p = int(hits) / 1000
        assert float(p_hat) == p
        assert float(ci) == 2.576 * np.sqrt(p * (1 - p) / 1000)

    def test_jointtail_full_space_is_zero(self, capsys):
        rc = main(["simulate", "jointtail", "--family", "iid", "--mu", "0.5,0.5",
                   "--J", "0,1", "--n", "1", "--trials", "200", "--seed", "2"])
        assert rc == 0
        row = csv_body(capsys.readouterr().out).splitlines()[1]
        assert row.split(",")[1:4] == ["0", "200", "0.0"]

    def test_jointtail_cycle_needs_more_steps(self, cycle3, capsys):
        rc = main(["simulate", "jointtail", "--in", cycle3, "--J", "2", "--n", "2",
                   "--trials", "100", "--seed", "3", "--format", "json"])
        assert rc == 0
        tail = json.loads(capsys.readouterr().out)["tails"][0]
        assert (tail["hits"], tail["p_hat"], tail["ci99_halfwidth"]) == (100, 1.0, 0.0)

    @pytest.mark.parametrize("J", ["", "3"])
    def test_jointtail_bad_set(self, cycle3, capsys, J):
        rc = main(["simulate", "jointtail", "--in", cycle3, "--J", J, "--n", "2"])
        assert rc == (4 if J == "" else 3)
        assert "set J" in capsys.readouterr().err

    def test_hittail_cap_is_reported(self, capsys):
        rc = main(["simulate", "hittail", "--family", "lazy-cycle", "--m", "10", "--hold", "0.9",
                   "--B", "5", "--t", "1,2,3", "--trials", "200", "--seed", "9", "--cap", "3"])
        assert rc == 0
        out = capsys.readouterr().out
        cap_hits = int(out.split("# cap_hits=")[1].split()[0])
        last = csv_body(out).splitlines()[-1].split(",")
        # every trial cut at the cap is still unhit at t = 3
        assert cap_hits > 0 and last[0].endswith("t=3") and int(last[1]) == cap_hits

    @pytest.mark.parametrize("cap,t,message", [
        ("0", "1", "--cap must be >= 1, got 0"),
        ("-2", "1", "--cap must be >= 1, got -2"),
        ("3", "3,4,50", "threshold t=4 is outside 0..3"),
        ("3", "-1", "threshold t=-1 is outside 0..3"),
    ])
    def test_hittail_beyond_cap_exits_3(self, capsys, cap, t, message):
        # p_hat beyond the cap is unknown: a cut trial may be hit at any later step
        rc = main(["simulate", "hittail", "--family", "lazy-cycle", "--m", "10", "--hold", "0.9",
                   "--B", "5", "--t", t, "--trials", "200", "--seed", "9", "--cap", cap])
        assert rc == 3
        assert f"error: {message}" in capsys.readouterr().err


class TestBoundsCommands:
    def test_kl(self, capsys):
        assert main(["bounds", "kl", "--p", "0.5", "--q", "0.25"]) == 0
        assert abs(float(capsys.readouterr().out) - 0.14384103622589042) < 1e-12
        # the closed interval: kl(0 || 1/2) = log 2
        assert main(["bounds", "kl", "--p", "0", "--q", "0.5"]) == 0
        assert float(capsys.readouterr().out) == pytest.approx(math.log(2), rel=1e-15)

    def test_kl_domain_error_exits_4(self, capsys):
        assert main(["bounds", "kl", "--p", "-0.1", "--q", "0.25"]) == 4
        assert "must lie in [0, 1]" in capsys.readouterr().err

    def test_hittailbound(self, capsys):
        assert main(["bounds", "hittailbound", "--expected", "2", "--t", "20"]) == 0
        assert abs(float(capsys.readouterr().out) - 0.049787068367863944) < 1e-15

    def test_jointbound(self, capsys):
        rc = main(["bounds", "jointbound", "--pi", "0.5,0.5", "--J", "0,1",
                   "--n", "3", "--c", "1", "--T", "1"])
        assert rc == 0
        assert abs(float(capsys.readouterr().out) - 0.049787068367863944) < 1e-15

    @pytest.mark.parametrize("command", [["qprob"], ["jointbound", "--J", "0"]])
    @pytest.mark.parametrize("flag", ["--c", "--T"])
    def test_iid_rejects_c_and_t(self, capsys, command, flag):
        # the --iid surrogate (1 - pi(j))^n reads neither, so a value would be ignored
        argv = ["bounds", *command, "--pi", "0.25,0.75", "--n", "3"]
        assert main(argv + ["--iid", flag, "5"]) == 3
        assert f"error: {flag} has no effect with --iid" in capsys.readouterr().err
        assert main(argv + ["--iid"]) == 0
        iid = capsys.readouterr().out
        assert main(argv + [flag, "5"]) == 0
        assert capsys.readouterr().out != iid

    def test_pinsker(self, capsys):
        assert main(["bounds", "pinsker", "--p", "0.9", "--q", "0.1"]) == 0
        assert ",true," in capsys.readouterr().out

    def test_mmtail_flags_unpinned_constant(self, capsys):
        rc = main(["bounds", "mmtail", "--pi", "0.25,0.25,0.25,0.25", "--n", "4",
                   "--c", "1", "--T", "1", "--eps", "0.1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "unspecified" in out and "threshold=" in out

    def test_mmtail_iid(self, capsys):
        argv = ["bounds", "mmtail", "--pi", "0.25,0.75", "--n", "3", "--c", "0.5", "--T", "2",
                "--eps", "0.1"]
        pi = StationaryDistribution(pi=np.array([0.25, 0.75]), residual=0.0)
        params = BoundParams(c=0.5, T=2.0, n=3, pi=pi)
        thresholds = []
        for iid in (False, True):
            assert main(argv + ["--iid"] * iid) == 0
            tail = missing_mass_tail_bound(params, 0.1, iid_exact=iid)
            out = capsys.readouterr().out
            assert out.startswith(f"threshold={tail.threshold!r} failure_bound="
                                  f"{tail.failure_bound!r} mean_term={tail.mean_term!r} ")
            thresholds.append(tail.threshold)
        # the IID mean term is the exact expected missing mass sum_j pi(j) (1 - pi(j))^n
        assert thresholds[1] == pytest.approx(0.25 * 0.75 ** 3 + 0.75 * 0.25 ** 3 + 0.1)
        assert thresholds[0] != thresholds[1]

    def test_qprob(self, capsys):
        base = ["bounds", "qprob", "--pi", "0.25,0.75", "--n", "2"]
        assert main([*base, "--c", "1", "--T", "1"]) == 0
        q = [float(x) for x in capsys.readouterr().out.split(",")]
        assert q == pytest.approx([math.exp(-0.5), math.exp(-1.5)], rel=1e-15)
        assert main([*base, "--iid"]) == 0
        assert capsys.readouterr().out == "0.5625,0.0625\n"

    def test_iidsurv(self, capsys):
        assert main(["bounds", "iidsurv", "--pi", "0.25,0.25,0.5", "--J", "0,2", "--n", "3"]) == 0
        assert capsys.readouterr().out == "0.015625\n"

    def test_explicittail(self, capsys):
        argv = ["bounds", "explicittail", "--pi-a", "0.3", "--t-half", "4", "--t", "50"]
        for c in (DEFAULT_C, 0.7):
            assert main([*argv, "--c", repr(c)]) == 0
            expected = explicit_hitting_tail(0.3, 4.0, 50.0, c)
            assert capsys.readouterr().out == f"{expected!r}\n"

    def test_product_csv_and_json(self, capsys):
        argv = ["bounds", "product", "--pi", "0.25,0.25,0.5", "--J", "0,2"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == f"# tool=mml {mml.__version__}"
        row = next(csv.DictReader(csv_body(out).splitlines()))
        assert (row["name"], row["params"]) == ("product-inequality", "J=0|2;mass=0.75")
        assert (row["bound"], row["value"], row["holds"]) == ("0.375", "0.25", "true")
        assert main([*argv, "--format", "json"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["meta"] == {"tool": f"mml {mml.__version__}"}
        (report,) = out["reports"]
        assert (report["bound"], report["value"], report["holds"]) == (0.375, 0.25, True)
        assert report["metadata"] == {"J": [0, 2], "mass": 0.75}

    @pytest.mark.parametrize("command,J,rc,out,err", [
        (["product"], "0,5", 3, "", "error: set J index 5 out of range for m=2"),
        (["jointbound", "--n", "3"], "0,5", 3, "", "error: set J index 5 out of range for m=2"),
        (["iidsurv", "--n", "3"], "0,5", 3, "", "error: set J index 5 out of range for m=2"),
        # an empty J has no product to bound, and survives every run surely
        (["product"], "", 4, "", "error: set J is empty"),
        (["jointbound", "--n", "3"], "", 4, "", "error: set J is empty"),
        (["iidsurv", "--n", "3"], "", 0, "1.0\n", ""),
    ])
    def test_set_j_is_checked(self, capsys, command, J, rc, out, err):
        assert main(["bounds", *command, "--pi", "0.5,0.5", "--J", J]) == rc
        captured = capsys.readouterr()
        assert captured.out == out and err in captured.err

    @pytest.mark.parametrize("argv", [
        ["hittailbound", "--expected", "2", "--t", "nan"],
        ["hittailbound", "--expected", "2", "--t", "inf"],
        ["hittailbound", "--expected", "nan", "--t", "3"],
        ["hittailbound", "--expected", "inf", "--t", "3"],
        ["explicittail", "--pi-a", "0.3", "--t-half", "nan", "--t", "5"],
        ["explicittail", "--pi-a", "0.3", "--t-half", "4", "--t", "nan"],
        ["explicittail", "--pi-a", "0.3", "--t-half", "4", "--t", "5", "--c", "nan"],
        ["mmtail", "--pi", "0.5,0.5", "--n", "3", "--eps", "nan"],
        ["mmtail", "--pi", "0.5,0.5", "--n", "3", "--eps", "0.1", "--c2", "nan"],
        ["qprob", "--pi", "0.5,0.5", "--n", "3", "--c", "nan"],
        ["qprob", "--pi", "0.5,0.5", "--n", "3", "--T", "nan"],
        ["product", "--pi", "nan,1", "--J", "0"],
    ], ids=" ".join)
    def test_nan_arguments_exit_3(self, capsys, argv):
        assert main(["bounds", *argv]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and "must be" in captured.err

    def test_chain_from_family(self, capsys):
        # a chain given by --family yields the same bound as its stationary law given by --pi
        tail = ["--J", "0", "--n", "2", "--c", "1", "--T", "1"]
        assert main(["bounds", "jointbound", "--family", "iid", "--mu", "0.25,0.75", *tail]) == 0
        by_family = capsys.readouterr().out
        assert main(["bounds", "jointbound", "--pi", "0.25,0.75", *tail]) == 0
        assert by_family == capsys.readouterr().out == f"{math.exp(-0.5)!r}\n"


class TestVerifyCommand:
    SMALL = ["--trials", "1500", "--chains", "8", "--ergodic-steps", "40000"]

    def test_verify_lemma1_small(self, tmp_path, capsys):
        rc = main(["verify", "lemma1", "--seed", "1", "--chains", "10",
                   "--out", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "lemma1.csv").exists()
        assert (tmp_path / "summary.csv").exists()
        assert "violations=0" in capsys.readouterr().out

    def test_verify_thm1_huge_c_fails(self, tmp_path, capsys):
        rc = main(["verify", "thm1", "--seed", "1", "--c", "100", "--trials", "1500",
                   "--out", str(tmp_path)])
        assert rc == 1
        violations = (tmp_path / "violations.csv").read_text().splitlines()
        assert len(violations) > 1

    def test_violation_rows_parse_as_csv(self, tmp_path):
        rc = main(["verify", "thm1", "--seed", "1", "--c", "100", "--out", str(tmp_path)])
        assert rc == 1
        with open(tmp_path / "violations.csv", newline="") as f:
            rows = list(csv.reader(f))
        assert len(rows) > 1 and all(len(row) == 5 for row in rows)
        assert any("J=0|1" in row[4] for row in rows[1:])
        with open(tmp_path / "thm1.csv", newline="") as f:
            rows = list(csv.reader(line for line in f if not line.startswith("#")))
        assert all(len(row) == 9 for row in rows)
        assert "lazy-cycle(m=5,hold=0.5)" in {row[1] for row in rows}

    def test_verify_all_deterministic(self, tmp_path):
        d1, d2 = tmp_path / "r1", tmp_path / "r2"
        codes = [main(["verify", "all", "--seed", "42", *self.SMALL, "--out", str(d)])
                 for d in (d1, d2)]
        assert codes[0] == codes[1]
        names = sorted(p.name for p in d1.glob("*.csv"))
        assert names == sorted(p.name for p in d2.glob("*.csv")) and names
        for name in names:
            assert csv_body((d1 / name).read_text()) == csv_body((d2 / name).read_text()), name

    def test_verify_workers_do_not_change_results(self, tmp_path):
        d1, d2 = tmp_path / "w1", tmp_path / "w2"
        main(["verify", "iid", "--seed", "3", "--trials", "2000", "--workers", "1",
              "--out", str(d1)])
        main(["verify", "iid", "--seed", "3", "--trials", "2000", "--workers", "4",
              "--out", str(d2)])
        assert csv_body((d1 / "iid.csv").read_text()) == csv_body((d2 / "iid.csv").read_text())

    def test_config_file(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 5, "trials": 1200,
                                   "constants": {"c": 0.2}}))
        rc = main(["verify", "thm1", "--config", str(cfg), "--out", str(tmp_path / "r")])
        assert rc == 0
        text = (tmp_path / "r" / "thm1.csv").read_text()
        assert "c=0.2" in text

    def test_flags_override_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 5}))
        rc = main(["verify", "cor1", "--config", str(cfg), "--seed", "7",
                   "--out", str(tmp_path / "r")])
        assert rc == 0
        assert "# seed=7\n" in (tmp_path / "r" / "cor1.csv").read_text()

    def test_option_precedence(self, tmp_path, monkeypatch):
        # defaults, then MML_WORKERS, then the config, then explicit flags
        def opts(*argv):
            return _options_from_args(build_parser().parse_args(["verify", "cor1", *argv]))

        monkeypatch.setenv("MML_WORKERS", "3")
        assert (opts().seed, opts().workers) == (3, 3)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 5, "workers": 2}))
        o = opts("--config", str(cfg))
        assert (o.seed, o.workers) == (5, 2)
        o = opts("--config", str(cfg), "--seed", "7", "--workers", "1")
        assert (o.seed, o.workers) == (7, 1)
        # a bad MML_WORKERS is an error, not 1, even under a config or flag that overrides it
        for value in ("abc", "0"):
            monkeypatch.setenv("MML_WORKERS", value)
            with pytest.raises(ValidationError, match="MML_WORKERS"):
                opts("--config", str(cfg), "--workers", "1")

    @pytest.mark.parametrize("value", ["abc", "0", "-2", ""])
    @pytest.mark.parametrize("argv", [
        ["verify", "ergodic", "--ergodic-steps", "10"],
        ["verify", "ergodic", "--ergodic-steps", "10", "--workers", "2"],
        ["simulate", "mm", "--family", "iid", "--mu", "0.5,0.5", "--trials", "10"],
        ["simulate", "mm", "--family", "iid", "--mu", "0.5,0.5", "--trials", "10",
         "--workers", "2"],
    ])
    def test_bad_mml_workers_exits_3(self, tmp_path, monkeypatch, capsys, value, argv):
        monkeypatch.setenv("MML_WORKERS", value)
        assert main([*argv, "--out", str(tmp_path / "r")]) == 3
        assert f"MML_WORKERS must be an integer >= 1, got {value!r}" in capsys.readouterr().err

    def test_config_accepts_every_option(self, tmp_path):
        values = {"seed": 5, "workers": 2, "trials": 1000, "lemma1_chains": 4,
                  "lemma1_m_max": 3, "lemma1_max_pairs": 5, "lemma2_chains": 6,
                  "lemma2_m_max": 4, "prop1_chains": 7, "ergodic_steps": 1000}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**values, "chains": ["lazy-cycle:m=4;hold=0.5"],
                                   "j_sets": [[0, 1]], "n_grid": "4..6",
                                   "constants": {"c": 0.2, "c2": 2.0, "eps": 0.4}}))
        o = _options_from_args(build_parser().parse_args(["verify", "cor1", "--config", str(cfg)]))
        assert {k: getattr(o, k) for k in values} == values
        assert [cid for cid, _ in o.chains] == ["lazy-cycle:m=4;hold=0.5"]
        assert (o.j_sets, o.n_grid) == ([(0, 1)], [4, 5, 6])
        assert (o.c, o.c2, o.epsilon) == (0.2, 2.0, 0.4)

    @pytest.mark.parametrize("cfg,key", [({"lemma1_chain": 3}, "'lemma1_chain'"),
                                         ({"c": 0.2}, "'c'"),
                                         ({"constants": {"epsilon": 0.4}}, "'constants.epsilon'")])
    def test_unknown_config_key_exits_3(self, tmp_path, capsys, cfg, key):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        rc = main(["verify", "cor1", "--config", str(path), "--out", str(tmp_path / "r")])
        assert rc == 3
        assert f"unknown config key {key}" in capsys.readouterr().err

    def test_config_custom_chains_and_grid(self, two_state, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "seed": 5, "trials": 1500,
            "chains": [two_state, "lazy-cycle:m=4;hold=0.5"],
            "j_sets": [[0], [1]],
            "n_grid": "4..16",
        }))
        rc = main(["verify", "thm1", "--config", str(cfg), "--out", str(tmp_path / "r")])
        assert rc == 0
        text = (tmp_path / "r" / "thm1.csv").read_text()
        assert "lazy-cycle:m=4;hold=0.5" in text
        assert two_state in text

    def test_exact_calibration_ignores_trials(self, tmp_path, capsys):
        # thm1 certifies c from exact survivals: a tiny trial budget does not matter
        rc = main(["verify", "thm1", "--seed", "1", "--trials", "300", "--out", str(tmp_path)])
        assert rc == 0

    def test_all_survivals_zero_exits_5(self, tmp_path, capsys):
        # the deterministic flip chain has left every singleton by step 2
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"chains": ["two-state:p=1;q=1"], "n_grid": [2, 4, 8]}))
        rc = main(["verify", "thm1", "--config", str(cfg), "--out", str(tmp_path / "r")])
        assert rc == 5
        assert "no instance constrains c" in capsys.readouterr().err

    @pytest.mark.parametrize("cfg,key", [({"seed": "abc"}, "'seed'"),
                                         ({"seed": True}, "'seed'"),
                                         ({"trials": 1.5}, "'trials'"),
                                         ({"j_sets": [5]}, "'j_sets'"),
                                         ({"j_sets": [[0, -1]]}, "'j_sets'"),
                                         ({"n_grid": ["x"]}, "'n_grid'"),
                                         ({"n_grid": "a..b"}, "'n_grid'"),
                                         ({"chains": [3]}, "'chains'"),
                                         ({"constants": {"c": "x"}}, "'constants.c'")])
    def test_ill_typed_config_value_exits_3(self, tmp_path, capsys, cfg, key):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        rc = main(["verify", "cor1", "--config", str(path), "--out", str(tmp_path / "r")])
        assert rc == 3
        assert f"config key {key} must be" in capsys.readouterr().err

    @pytest.mark.parametrize("descriptor,param", [("lazy-cycle:m=x", "'m'"),
                                                  ("lazy-cycle:m=4;hold=q", "'hold'"),
                                                  ("iid:mu=0.5,a", "'mu'")])
    def test_bad_descriptor_value_exits_3(self, tmp_path, capsys, descriptor, param):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"chains": [descriptor]}))
        rc = main(["verify", "cor1", "--config", str(path), "--out", str(tmp_path / "r")])
        assert rc == 3
        err = capsys.readouterr().err
        assert f"descriptor {descriptor!r}: parameter {param} must be" in err

    @pytest.mark.parametrize("suite", ["thm1", "cor3"])
    @pytest.mark.parametrize("j_sets", [[[7]], [[0], []]])
    def test_j_set_fitting_no_chain_exits_3(self, tmp_path, capsys, suite, j_sets):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"chains": ["lazy-cycle:m=4;hold=0.5"], "j_sets": j_sets}))
        rc = main(["verify", suite, "--config", str(path), "--out", str(tmp_path / "r")])
        assert rc == 3
        assert "j_sets entry" in capsys.readouterr().err

    def test_j_set_fitting_some_chains_skipped_on_the_others(self, tmp_path):
        small, large = "lazy-cycle:m=4;hold=0.5", "lazy-cycle:m=8;hold=0.5"
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"chains": [small, large], "j_sets": [[0], [6]]}))
        rc = main(["verify", "cor3", "--config", str(path), "--out", str(tmp_path / "r")])
        assert rc == 0
        rows = csv.DictReader(csv_body((tmp_path / "r" / "cor3.csv").read_text()).splitlines())
        tested = {(row["chain_id"], row["params"].split(";")[0]) for row in rows}
        assert tested == {(small, "A=0"), (large, "A=0"), (large, "A=6")}

    @pytest.mark.parametrize("flags", [["--c", "0"], ["--c", "-1"]])
    def test_cor3_nonpositive_c_exits_3(self, tmp_path, capsys, flags):
        # a bound of exp(0) = 1 would let every survival pass
        rc = main(["verify", "cor3", *flags, "--out", str(tmp_path)])
        assert rc == 3
        assert "c must be > 0" in capsys.readouterr().err

    @pytest.mark.parametrize("flags,cfg,option", [
        ([], {"j_sets": [[50]]}, "j_sets entry [50]"),
        (["--trials", "0"], None, "trials must be >= 1"),
        (["--trials", "-5"], None, "trials must be >= 1"),
        ([], {"lemma1_m_max": 21}, "lemma1_m_max must be <= 20"),
        (["--m-max", "1"], None, "lemma1_m_max must be >= 2"),
        ([], {"lemma2_m_max": 1}, "lemma2_m_max must be >= 2"),
        (["--chains", "-1"], None, "lemma1_chains must be >= 1"),
        ([], {"prop1_chains": 0}, "prop1_chains must be >= 1"),
        (["--max-pairs", "0"], None, "lemma1_max_pairs must be >= 1"),
        (["--workers", "0"], None, "workers must be >= 1"),
        (["--ergodic-steps", "0"], None, "ergodic_steps must be >= 1"),
        (["--c", "-0.5"], None, "c must be > 0"),
        ([], {"constants": {"c2": 0}}, "c2 must be > 0"),
        (["--eps", "0"], None, "epsilon must be in (0, 1]"),
        (["--eps", "1.5"], None, "epsilon must be in (0, 1]"),
        ([], {"lemma1_m_max": 64}, "lemma1_m_max must be <= 20"),
        ([], {"lemma2_m_max": 21}, "lemma2_m_max must be <= 20"),
    ])
    def test_out_of_range_option_exits_3_before_any_suite(self, tmp_path, capsys, monkeypatch,
                                                          flags, cfg, option):
        for name in SUITE_ORDER:
            monkeypatch.setitem(SUITES, name, lambda opts: pytest.fail("a suite ran"))
        if cfg is not None:
            (tmp_path / "cfg.json").write_text(json.dumps(cfg))
            flags = [*flags, "--config", str(tmp_path / "cfg.json")]
        assert main(["verify", "all", *flags, "--out", str(tmp_path / "r")]) == 3
        assert f"error: {option}" in capsys.readouterr().err

    def test_config_int_is_a_valid_float(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"constants": {"c": 1, "eps": 0.5}}))
        o = _options_from_args(build_parser().parse_args(["verify", "cor1", "--config", str(cfg)]))
        assert (o.c, o.epsilon) == (1, 0.5)

    def test_c_resolution_is_gone(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"constants": {"c_resolution": 0.25}}))
        rc = main(["verify", "cor1", "--config", str(cfg), "--out", str(tmp_path / "r")])
        assert rc == 3
        assert "unknown config key 'constants.c_resolution'" in capsys.readouterr().err
        with pytest.raises(SystemExit):
            build_parser().parse_args(["verify", "thm1", "--c-resolution", "0.25"])

    def test_prop1_trials_is_gone(self, tmp_path, capsys):
        # prop1 reads exact survivals: it has no trial count
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"prop1_trials": 100}))
        rc = main(["verify", "prop1", "--config", str(cfg), "--out", str(tmp_path / "r")])
        assert rc == 3
        assert "unknown config key 'prop1_trials'" in capsys.readouterr().err
        with pytest.raises(SystemExit):
            build_parser().parse_args(["verify", "prop1", "--prop1-trials", "100"])

    def test_option_flags_set_their_fields(self):
        args = build_parser().parse_args(
            ["verify", "cor1", "--seed", "4", "--workers", "2", "--trials", "5",
             "--c", "0.3", "--c2", "2", "--ergodic-steps", "7",
             "--eps", "0.4", "--max-pairs", "8", "--chains", "30", "--m-max", "9"])
        o = _options_from_args(args)
        assert (o.seed, o.workers, o.trials, o.ergodic_steps) == (4, 2, 5, 7)
        assert (o.c, o.c2, o.epsilon, o.lemma1_max_pairs) == (0.3, 2.0, 0.4, 8)
        assert (o.lemma1_chains, o.lemma2_chains, o.prop1_chains) == (30, 30, 20)
        assert (o.lemma1_m_max, o.lemma2_m_max) == (8, 9)

    def test_single_state_chain(self, tmp_path, capsys):
        # T(0.5) = 0: cor3's rows are vacuous, and no thm1 instance constrains c
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"chains": ["iid:mu=1"]}))
        rc = main(["verify", "cor3", "--config", str(cfg), "--out", str(tmp_path / "r")])
        assert rc == 0
        assert "vacuous=1 violations=0" in capsys.readouterr().out
        rc = main(["verify", "thm1", "--config", str(cfg), "--out", str(tmp_path / "r")])
        assert rc == 5
        assert "no instance constrains c" in capsys.readouterr().err


def test_runtime_imports_no_scipy():
    # scipy is a test-only dependency: the library and the CLI must run without it
    src = str(Path(mml.__file__).resolve().parents[1])
    code = ("import sys, mml, mml.cli\n"
            "from mml.verify import VerifyOptions, suite_iid\n"
            "mml.stationary(mml.generate('lazy-cycle', m=5, hold=0.5).matrix)\n"
            "suite_iid(VerifyOptions(trials=200))\n"
            "print(sorted(name for name in sys.modules if name.split('.')[0] == 'scipy'))\n")
    out = subprocess.run([sys.executable, "-c", code], cwd=src, capture_output=True, text=True,
                         check=True, timeout=60).stdout
    assert out.strip() == "[]"


SOURCE = {"--in", "--family", "--m", "--mu", "--p", "--q", "--hold", "--alpha", "--gen-seed"}
SIM = {"--trials", "--seed", "--workers"}
BOUND = {"--pi", "--n", "--c", "--T", "--iid"}
# every leaf subcommand's flags: --format only where a command has both a CSV and a JSON form
COMMAND_FLAGS = {
    "chain validate": {"--in"},
    "chain stationary": SOURCE | {"--out", "--format"},
    "chain generate": SOURCE | {"--out"},
    "hit table": SOURCE | {"--out", "--format", "--B"},
    "hit tplus": SOURCE | {"--out", "--A", "--B"},
    "hit tminus": SOURCE | {"--out", "--A", "--B"},
    "hit tlarge": SOURCE | {"--out", "--format", "--eps"},
    "hit lemma1": SOURCE | {"--out", "--format", "--A", "--B"},
    "hit lemma2": SOURCE | {"--out", "--format", "--A"},
    "simulate mm": SOURCE | SIM | {"--out", "--n", "--dump"},
    "simulate hittail": SOURCE | SIM | {"--out", "--format", "--B", "--t", "--cap"},
    "simulate jointtail": SOURCE | SIM | {"--out", "--format", "--n", "--J"},
    "simulate mgf": SOURCE | SIM | {"--out", "--n", "--s"},
    "bounds qprob": SOURCE | BOUND | {"--out"},
    "bounds jointbound": SOURCE | BOUND | {"--out", "--J"},
    "bounds iidsurv": SOURCE | {"--out", "--pi", "--n", "--J"},
    "bounds product": SOURCE | {"--out", "--format", "--pi", "--J"},
    "bounds mmtail": SOURCE | BOUND | {"--out", "--eps", "--c2"},
    "bounds hittailbound": {"--out", "--expected", "--t"},
    "bounds explicittail": {"--out", "--pi-a", "--t-half", "--t", "--c"},
    "bounds kl": {"--out", "--p", "--q"},
    "bounds pinsker": {"--out", "--format", "--p", "--q"},
    "verify": {"--seed", "--workers", "--trials", "--c", "--c2", "--ergodic-steps", "--out",
               "--config", "--chains", "--m-max", "--max-pairs", "--eps"},
}


def _leaf_flags(parser, path=()):
    subparsers = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subparsers:
        yield " ".join(path), {flag for a in parser._actions
                               if not isinstance(a, argparse._HelpAction)
                               for flag in a.option_strings}
    for action in subparsers:
        for name, sub in action.choices.items():
            yield from _leaf_flags(sub, (*path, name))


def test_each_command_has_exactly_the_flags_it_reads():
    flags = dict(_leaf_flags(build_parser()))
    assert flags == COMMAND_FLAGS
    assert sum(map(len, flags.values())) == 259


CHAIN = ["--family", "lazy-cycle", "--m", "5", "--hold", "0.5"]
SIM_ARGS = ["--trials", "300", "--seed", "4"]
# one invocation of every command that prints its output, that is, every one with --out but verify
OUT_COMMANDS = [
    ["chain", "stationary", *CHAIN],
    ["chain", "generate", *CHAIN],
    ["hit", "table", *CHAIN, "--B", "1,2", "--format", "json"],
    ["hit", "tplus", *CHAIN, "--A", "0", "--B", "2"],
    ["hit", "tminus", *CHAIN, "--A", "0", "--B", "2"],
    ["hit", "tlarge", *CHAIN],
    ["hit", "lemma1", *CHAIN, "--A", "0", "--B", "2"],
    ["hit", "lemma2", *CHAIN, "--A", "0,1", "--format", "json"],
    ["simulate", "mm", *CHAIN, *SIM_ARGS, "--n", "6"],
    ["simulate", "hittail", *CHAIN, *SIM_ARGS, "--B", "2", "--t", "1..4", "--cap", "50"],
    ["simulate", "jointtail", *CHAIN, *SIM_ARGS, "--n", "6", "--J", "0,2"],
    ["simulate", "mgf", *CHAIN, *SIM_ARGS, "--n", "6", "--s", "1.5"],
    ["bounds", "qprob", "--pi", "0.25,0.75", "--n", "3"],
    ["bounds", "jointbound", *CHAIN, "--J", "0,2", "--n", "3", "--iid"],
    ["bounds", "iidsurv", "--pi", "0.25,0.75", "--J", "1", "--n", "3"],
    ["bounds", "product", "--pi", "0.25,0.75", "--J", "0,1", "--format", "json"],
    ["bounds", "mmtail", *CHAIN, "--n", "4", "--eps", "0.1"],
    ["bounds", "hittailbound", "--expected", "2", "--t", "20"],
    ["bounds", "explicittail", "--pi-a", "0.3", "--t-half", "4", "--t", "50"],
    ["bounds", "kl", "--p", "0.5", "--q", "0.25"],
    ["bounds", "pinsker", "--p", "0.9", "--q", "0.1"],
]


def test_out_commands_cover_every_printing_command():
    covered = {" ".join(argv[:2]) for argv in OUT_COMMANDS}
    assert covered == {cmd for cmd, flags in COMMAND_FLAGS.items() if "--out" in flags} - {"verify"}


@pytest.mark.parametrize("argv", OUT_COMMANDS, ids=lambda argv: " ".join(argv[:2]))
def test_out_writes_what_the_command_prints(tmp_path, capsys, argv):
    assert main(argv) == 0
    printed = capsys.readouterr().out
    out = tmp_path / "out.txt"
    assert main([*argv, "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert printed and out.read_text(encoding="utf-8") == printed
