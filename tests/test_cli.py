import argparse
import csv
import json
import math
import re
import subprocess
import sys
from dataclasses import fields
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
    parse_grid,
    parse_index_set,
)
from mml.chain import generate, stationary, validate
from mml.errors import MMLError, PreconditionError, ValidationError
from mml.hitting import StateSet, hitting_table, survival_probabilities, t_large
from mml.report import csv_body
from mml.verify import OPTION_RULES, SUITE_ORDER, SUITES, VerifyOptions


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
        assert parse_index_set("2|0").members == (0, 2)
        with pytest.raises(ValidationError):
            parse_index_set("a,b")

    def test_parse_grid(self):
        assert parse_grid("1..4") == [1, 2, 3, 4]
        assert parse_grid("1,2,8") == [1, 2, 8]


class TestChainCommands:
    def test_stationary_prints_pi(self, two_state, capsys):
        assert main(["chain", "stationary", "--chain", two_state]) == 0
        out = capsys.readouterr().out
        assert "0.666667" in out and "0.333333" in out

    def test_stationary_prints_a_tiny_entry(self, capsys):
        # pi is about (1 - 2e-12, 2e-12): six significant digits, not six decimals that read 0
        assert main(["chain", "stationary", "--chain", "two-state:p=1e-12;q=0.5"]) == 0
        line = capsys.readouterr().out.splitlines()[0]
        first, second = map(float, line.removeprefix("pi = (").removesuffix(")").split(", "))
        assert first == 1 and second > 0

    def test_generate_writes_iid_file(self, tmp_path, capsys):
        out_file = tmp_path / "c.json"
        rc = main(["chain", "generate", "--chain", "iid:mu=0.5,0.5", "--out", str(out_file)])
        assert rc == 0
        obj = json.loads(out_file.read_text())
        assert obj["P"][0] == obj["P"][1] == [0.5, 0.5]

    def test_validate_bad_rows_exits_3(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"m": 2, "P": [[0.6, 0.5], [0.5, 0.5]]}))
        assert main(["chain", "validate", "--chain", str(bad)]) == 3
        assert "row 0" in capsys.readouterr().err

    def test_missing_file_exits_2(self, tmp_path, capsys):
        assert main(["chain", "validate", "--chain", str(tmp_path / "nope.json")]) == 2

    def test_malformed_json_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"m": 2,')
        assert main(["chain", "validate", "--chain", str(bad)]) == 2
        assert "line" in capsys.readouterr().err

    def test_stationary_not_irreducible_exits_4(self, tmp_path, capsys):
        bad = tmp_path / "red.json"
        bad.write_text(json.dumps({"m": 2, "P": [[1.0, 0.0], [0.5, 0.5]]}))
        assert main(["chain", "stationary", "--chain", str(bad)]) == 4

    def test_validate_valid_file(self, two_state, cycle3, capsys):
        assert main(["chain", "validate", "--chain", two_state]) == 0
        assert main(["chain", "validate", "--chain", cycle3]) == 0
        assert capsys.readouterr().out == "ok m=2 irreducible=true\nok m=3 irreducible=true\n"

    def test_stationary_json(self, two_state, capsys):
        assert main(["chain", "stationary", "--chain", two_state, "--format", "json"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["pi"] == pytest.approx([2 / 3, 1 / 3], abs=1e-12)
        assert 0 <= out["residual"] <= 1e-10

    def test_generate_to_stdout(self, capsys):
        assert main(["chain", "generate", "--chain", "two-state:p=0.1;q=0.2"]) == 0
        assert json.loads(capsys.readouterr().out) == {"m": 2, "P": [[0.9, 0.1], [0.2, 0.8]]}

    @pytest.mark.parametrize("argv,rc,message", [
        ([], 3, "error: no chain given: use --chain FILE|DESCRIPTOR"),
        # no .json suffix and no such file: a descriptor of an unknown family
        (["--chain", "nope"], 3, "error: unknown chain family 'nope'"),
    ])
    def test_chain_source_errors(self, tmp_path, monkeypatch, capsys, argv, rc, message):
        monkeypatch.chdir(tmp_path)
        assert main(["chain", "validate", *argv]) == rc
        assert message in capsys.readouterr().err

    def test_descriptor_validates_its_chain(self, capsys):
        assert main(["chain", "validate", "--chain", "lazy-cycle:m=5;hold=0.5"]) == 0
        assert capsys.readouterr().out == "ok m=5 irreducible=true\n"

    @pytest.mark.parametrize("source,message", [
        ("lazy-cycle:m=4;hold=0.5;hold=0.9", "parameter 'hold' is given twice"),
        ("random-dense:m=4;seed=1;seed=2", "parameter 'seed' is given twice"),
        # a family reads only its own parameters: a seed is read by random-dense alone
        ("lazy-cycle:m=4;hold=0.5;seed=9", "unused parameters for family 'lazy-cycle': ['seed']"),
        ("lazy-cycle:m=4;hold=0.5;family=3",
         "unused parameters for family 'lazy-cycle': ['family']"),
        # a family of fixed size reads m only to check it
        ("iid:mu=0.5,0.5;m=3", "has 2 states, got m=3"),
        ("two-state:p=0.1;q=0.2;m=4", "has 2 states, got m=4"),
    ])
    def test_descriptor_parameter_read_once_exits_3(self, tmp_path, capsys, source, message):
        assert main(["hit", "table", "--chain", source, "--B", "0"]) == 3
        assert message in capsys.readouterr().err
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"chains": [source]}))
        assert main(["verify", "cor1", "--config", str(path), "--out", str(tmp_path / "r")]) == 3
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("flag,value", [
        ("--in", "c.json"), ("--family", "lazy-cycle"), ("--m", "5"), ("--mu", "0.5,0.5"),
        ("--p", "0.1"), ("--q", "0.2"), ("--hold", "0.5"), ("--alpha", "1"), ("--gen-seed", "7")])
    @pytest.mark.parametrize("command", [
        ["hit", "table", "--chain", "lazy-cycle:m=5;hold=0.5", "--B", "0"],
        # a flag is matched whole: --p is not read as a prefix of --pi
        ["bounds", "iidsurv", "--pi", "0.5,0.5", "--J", "0", "--n", "3"]], ids=lambda c: c[1])
    def test_removed_chain_flags_exit_2(self, capsys, command, flag, value):
        with pytest.raises(SystemExit) as e:
            main([*command, flag, value])
        assert e.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    def test_descriptor_longer_than_a_file_name(self, capsys):
        # 64 entries make the text longer than the 255 bytes a file name may hold
        source = "iid:mu=" + ",".join(["0.015625"] * 64)
        assert len(source) > 255
        assert main(["chain", "stationary", "--chain", source]) == 0
        assert capsys.readouterr().out.startswith("pi = (0.015625, ")

    def test_generated_file_names_the_same_chain(self, tmp_path, capsys):
        source, path = "random-dense:m=6;seed=7", str(tmp_path / "f.json")
        assert main(["chain", "generate", "--chain", source, "--out", path]) == 0
        outs = []
        for chain in (source, path):
            assert main(["hit", "table", "--chain", chain, "--B", "0,3"]) == 0
            outs.append(capsys.readouterr().out)
        assert [out.splitlines()[0] for out in outs] == [f"# chain={source}", f"# chain={path}"]
        assert csv_body(outs[0]) == csv_body(outs[1])

    def test_unclassified_library_error_exits_3(self, two_state, capsys, monkeypatch):
        def fail(P):
            raise MMLError("no exit code of its own")

        monkeypatch.setattr(mml.cli, "stationary", fail)
        assert main(["chain", "stationary", "--chain", two_state]) == 3
        assert capsys.readouterr().err == "error: no exit code of its own\n"


class TestHitCommands:
    def test_table_cycle(self, cycle3, capsys):
        assert main(["hit", "table", "--chain", cycle3, "--B", "2"]) == 0
        out = capsys.readouterr().out
        assert "0,2.0" in out and "1,1.0" in out and "2,0.0" in out

    def test_table_headers_tell_hold_values_apart(self, capsys):
        headers, ids = [], []
        for source in ("lazy-cycle:m=4;hold=0.5", "lazy-cycle:m=4;hold=0.9"):
            assert main(["hit", "table", "--chain", source, "--B", "0"]) == 0
            headers.append(capsys.readouterr().out.splitlines()[0])
            assert main(["hit", "lemma1", "--chain", source, "--A", "0", "--B", "1"]) == 0
            body = csv_body(capsys.readouterr().out).splitlines()
            ids.append(next(csv.DictReader(body))["chain_id"])
        assert headers == ["# chain=lazy-cycle:m=4;hold=0.5", "# chain=lazy-cycle:m=4;hold=0.9"]
        assert ids == ["lazy-cycle:m=4;hold=0.5", "lazy-cycle:m=4;hold=0.9"]

    @pytest.mark.parametrize("source,cell", [
        ("birth-death:m=8;p=0.3;q=0.3", "birth-death:m=8;p=0.3;q=0.3"),
        ("two-state:p=0.1;q=0.2", "two-state:p=0.1;q=0.2"),
        ("iid:mu=0.25,0.75", '"iid:mu=0.25,0.75"'),  # a CSV cell holding a comma is quoted
        ("random-dense:m=4;seed=7", "random-dense:m=4;seed=7"),
    ])
    def test_label_names_every_chain_parameter(self, capsys, source, cell):
        # the chain id is the SOURCE text, which names every value that picks the chain
        assert main(["hit", "table", "--chain", source, "--B", "0"]) == 0
        assert capsys.readouterr().out.splitlines()[0] == f"# chain={source}"
        assert main(["simulate", "mm", "--chain", source, "--n", "2", "--trials", "10"]) == 0
        assert f"# chain={source}" in capsys.readouterr().out.splitlines()
        for argv in (["lemma1", "--A", "0", "--B", "1"], ["lemma2", "--A", "0"]):
            assert main(["hit", argv[0], "--chain", source, *argv[1:]]) == 0
            row = csv_body(capsys.readouterr().out).splitlines()[1]
            assert row.startswith(f"{argv[0]},{cell},")
            assert next(csv.reader([row]))[1] == source  # chain_id

    def test_tlarge_uniform(self, capsys):
        rc = main(["hit", "tlarge", "--chain", "iid:mu=0.5,0.5", "--eps", "0.5"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "T(0.5)=2.0" in out and "witness={0}" in out

    def test_bar_separated_set_prints_the_comma_separated_row(self, capsys):
        # '|' separates a set's members in a report's params cell
        outs = []
        for A in ("0|2", "0,2"):
            assert main(["hit", "lemma1", "--chain", "lazy-cycle:m=5;hold=0.5",
                         "--A", A, "--B", "3"]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]
        assert "A=0|2;B=3" in outs[0]

    def test_lemma1_uniform(self, capsys):
        rc = main(["hit", "lemma1", "--chain", "iid:mu=0.5,0.5",
                   "--A", "0", "--B", "1"])
        assert rc == 0
        (row,) = csv.DictReader(csv_body(capsys.readouterr().out).splitlines())
        assert row["name"] == "lemma1"
        assert (row["bound"], row["value"], row["holds"]) == ("0.5", "0.5", "true")

    def test_tplus(self, cycle3, capsys):
        # T+(A,B) is lemma1's t_plus cell, and T-(A,B) the t_minus cell with A and B swapped
        cells = []
        for A, B in (("0,1", "2"), ("2", "0,1")):
            assert main(["hit", "lemma1", "--chain", cycle3, "--A", A, "--B", B]) == 0
            (row,) = csv.DictReader(csv_body(capsys.readouterr().out).splitlines())
            cells.append(dict(kv.split("=", 1) for kv in row["params"].split(";")))
        assert (cells[0]["t_plus"], cells[1]["t_minus"]) == ("2.0", "1.0")

    @pytest.mark.parametrize("command", ["tplus", "tminus"])
    def test_tplus_and_tminus_are_gone(self, cycle3, capsys, command):
        # hit lemma1 prints both in its row; the one-value commands are rejected, not aliased
        with pytest.raises(SystemExit) as exc:
            main(["hit", command, "--chain", cycle3, "--A", "0", "--B", "2"])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["table", "--B", "0"], ["lemma2", "--A", "0"]])
    def test_stiff_birth_death_exits_0(self, capsys, argv):
        # h reaches 1.3e7, so an accurate solve leaves an absolute residual of 1.9e-9
        assert main(["hit", argv[0], "--chain", "birth-death:m=8;p=0.45;q=0.05", *argv[1:]]) == 0
        assert capsys.readouterr().err == ""

    def test_inaccurate_solve_exits_4(self, capsys, monkeypatch):
        solve = np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve", lambda A, b: solve(A, b) * (1.0 + 1e-6))
        assert main(["hit", "table", "--chain", "random-dense:m=6;seed=3", "--B", "0"]) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: hitting system residual ") and "np.float64" not in err

    def test_tlarge_too_many_states_exits_4(self, capsys):
        rc = main(["hit", "tlarge", "--chain", "lazy-cycle:m=21;hold=0.5", "--eps", "0.5"])
        assert rc == 4

    def test_empty_set_exits_4(self, cycle3):
        assert main(["hit", "table", "--chain", cycle3, "--B", ""]) == 4

    def test_table_json(self, cycle3, capsys):
        assert main(["hit", "table", "--chain", cycle3, "--B", "2", "--format", "json"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert (out["B"], out["h"]) == ([2], [2.0, 1.0, 0.0])
        assert out["t_plus_all"] == 2.0

    def test_survival_equals_the_engine(self, capsys):
        source = "birth-death:m=8;p=0.35;q=0.25"
        assert main(["hit", "survival", "--chain", source, "--B", "6,1", "--t", "9,1,2,3"]) == 0
        out = capsys.readouterr().out
        chain = mml.generate("birth-death", m=8, p=0.35, q=0.25)
        exact = survival_probabilities(chain.matrix, mml.stationary(chain.matrix).pi, [(1, 6)],
                                       [9, 1, 2, 3])[0]
        assert out.splitlines()[:2] == [f"# chain={source}", "# B=1|6"]
        assert csv_body(out).splitlines() == ["t,survival"] + [
            f"{t},{p!r}" for t, p in zip([9, 1, 2, 3], exact.tolist())]
        assert main(["hit", "survival", "--chain", source, "--B", "1,6", "--t", "9,1,2,3",
                     "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out) == {
            "chain": source, "B": [1, 6], "t": [9, 1, 2, 3], "survival": exact.tolist()}

    def test_bar_separated_horizons_are_the_comma_separated_ones(self, capsys):
        # --t splits its list as --B does
        outs = []
        for t in ("1|2", "1,2"):
            assert main(["hit", "survival", "--chain", "lazy-cycle:m=5;hold=0.5", "--B", "2",
                         "--t", t]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1] and len(csv_body(outs[0]).splitlines()) == 3

    def test_survival_counts_the_start_state(self, cycle3, capsys):
        # X_1 = 0, X_2 = 1, X_3 = 2 from the file's start law: N_B = 3
        assert main(["hit", "survival", "--chain", cycle3, "--B", "2", "--t", "1..3"]) == 0
        assert csv_body(capsys.readouterr().out).splitlines()[1:] == ["1,1.0", "2,1.0", "3,0.0"]

    def test_survival_of_the_full_state_set_is_zero(self, capsys):
        assert main(["hit", "survival", "--chain", "iid:mu=0.5,0.5", "--B", "0,1", "--t", "1"]) == 0
        assert csv_body(capsys.readouterr().out).splitlines()[1:] == ["1,0.0"]

    @pytest.mark.parametrize("B,t,code,message", [
        ("2", "5..3", 3, "--t '5..3' names no horizon"),
        ("2", ",", 3, "--t ',' names no horizon"),
        ("2", "0..4", 3, "horizons must be >= 1, got 0"),
        ("2", "3,-1", 3, "horizons must be >= 1, got -1"),
        ("3", "1", 3, "target set index 3 out of range"),
        ("", "1", 4, "target set is empty"),
    ])
    def test_survival_bad_input(self, cycle3, capsys, B, t, code, message):
        assert main(["hit", "survival", "--chain", cycle3, "--B", B, "--t", t]) == code
        captured = capsys.readouterr()
        assert captured.out == "" and f"error: {message}" in captured.err

    def test_tlarge_json(self, capsys):
        rc = main(["hit", "tlarge", "--chain", "iid:mu=0.5,0.5", "--format", "json"])
        assert rc == 0
        assert json.loads(capsys.readouterr().out) == {"epsilon": 0.5, "value": 2.0,
                                                       "witness": [0]}


class TestSimulateCommands:
    def test_mm_mean_exactly_half(self, capsys):
        rc = main(["simulate", "mm", "--chain", "iid:mu=0.5,0.5",
                   "--n", "1", "--trials", "1000", "--seed", "7"])
        assert rc == 0
        body = csv_body(capsys.readouterr().out)
        assert body.splitlines()[1].split(",")[2] == "0.5"

    def test_mgf_s_zero(self, capsys):
        rc = main(["simulate", "mgf", "--chain", "iid:mu=0.5,0.5",
                   "--s", "0", "--n", "2", "--trials", "100", "--seed", "3"])
        assert rc == 0
        body = csv_body(capsys.readouterr().out)
        assert body.splitlines()[1].split(",")[1] == "1.0"

    def test_mgf_past_the_float_range(self, capsys):
        # a missing mass of 1/2 makes exp(5000 / 2) overflow
        rc = main(["simulate", "mgf", "--chain", "two-state:p=0.1;q=0.1",
                   "--trials", "100", "--n", "3", "--s", "5000"])
        assert rc == 0
        assert csv_body(capsys.readouterr().out).splitlines()[1] == "5000.0,inf,100"

    def test_mm_dump(self, tmp_path, capsys):
        dump = tmp_path / "raw.csv"
        rc = main(["simulate", "mm", "--chain", "iid:mu=0.5,0.5",
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
        argv = ["simulate", "mm", "--chain", "random-dense:m=6", "--n", "3",
                "--trials", "300", "--seed", "5"]
        assert main([*argv, "--dump", str(dump)]) == 0
        chain = mml.generate("random-dense", m=6)
        config = mml.SimConfig(chain=chain, n=3, trials=300, master_seed=5)
        samples = mml.sample_missing_mass(config, mml.stationary(chain.matrix))
        rows = [line.split(",") for line in dump.read_text().splitlines()[1:]]
        assert [int(r[0]) for r in rows] == list(range(300))
        assert [float(r[1]) for r in rows] == [s.value for s in samples]
        assert [r[2] for r in rows] == ["|".join(map(str, s.unseen_set.members)) for s in samples]
        body = csv_body(capsys.readouterr().out).splitlines()
        mean = float(body[1].split(",")[2])
        assert mean == pytest.approx(np.mean([s.value for s in samples]), rel=1e-12)

    def test_sentinel_past_int64_exits_3(self, capsys):
        # n + 1, the sentinel of an unseen state, must fit an int64
        rc = main(["simulate", "mm", "--chain", "random-dense:m=4", "--trials", "10",
                   "--n", str(2 ** 63 - 1)])
        assert rc == 3
        err = capsys.readouterr().err
        assert f"error: n must be <= {2 ** 63 - 2}" in err and "Traceback" not in err

    @pytest.mark.parametrize("command", ["hittail", "jointtail"])
    def test_monte_carlo_tail_commands_are_gone(self, capsys, command):
        # hit survival prints the exact Pr[N_B > t]; the estimators are rejected, not aliased
        with pytest.raises(SystemExit) as exc:
            main(["simulate", command, "--chain", "iid:mu=0.5,0.5", "--B", "1", "--t", "3"])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err


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

    def test_hittailbound_past_the_float_range(self, capsys):
        # e * 1e308 overflows: no window fits, so the bound is vacuous
        assert main(["bounds", "hittailbound", "--expected", "1e308", "--t", "1"]) == 0
        assert capsys.readouterr().out == "1.0\n"

    def test_mmtail_epsilon_past_the_float_range(self, capsys):
        assert main(["bounds", "mmtail", "--pi", "0.5,0.5", "--n", "3", "--T", "1",
                     "--eps", "1e200"]) == 0
        assert " failure_bound=0.0 " in capsys.readouterr().out

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
        # without --iid the surrogates exp(-c n pi(j) / T) read T, which --pi needs given
        assert main(argv + [flag, "5"] + (["--T", "1"] if flag == "--c" else [])) == 0
        assert capsys.readouterr().out != iid

    def test_mmtail_iid_rejects_c_but_reads_t(self, capsys):
        # the surrogates (1 - pi(j))^n ignore c; the failure bound exp(-c2 n eps^2 / T) reads T
        argv = ["bounds", "mmtail", "--pi", "0.25,0.75", "--n", "3", "--eps", "0.1", "--iid"]
        assert main(argv + ["--c", "5"]) == 3
        assert "error: --c has no effect with --iid" in capsys.readouterr().err
        failures = []
        for T in ("1", "4"):
            assert main(argv + ["--T", T]) == 0
            failures.append(capsys.readouterr().out.split(" failure_bound=")[1].split()[0])
        assert failures[0] != failures[1]

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
        argv = ["bounds", "mmtail", "--pi", "0.25,0.75", "--n", "3", "--T", "2", "--eps", "0.1"]
        pi = StationaryDistribution(pi=np.array([0.25, 0.75]), residual=0.0)
        params = BoundParams(c=0.5, T=2.0, n=3, pi=pi)
        thresholds = []
        for iid in (False, True):
            assert main(argv + (["--iid"] if iid else ["--c", "0.5"])) == 0
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
        (["jointbound", "--n", "3", "--T", "1"], "0,5", 3, "", "error: set J index 5 out of range for m=2"),
        (["iidsurv", "--n", "3"], "0,5", 3, "", "error: set J index 5 out of range for m=2"),
        # an empty J has no product to bound, and survives every run surely
        (["product"], "", 4, "", "error: set J is empty"),
        (["jointbound", "--n", "3", "--T", "1"], "", 4, "", "error: set J is empty"),
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
        ["explicittail", "--pi-a", "0.3", "--t-half", "inf", "--t", "inf"],
        ["explicittail", "--pi-a", "0.3", "--t-half", "4", "--t", "inf"],
        ["explicittail", "--pi-a", "0.3", "--t-half", "4", "--t", "5", "--c", "inf"],
        ["mmtail", "--pi", "0.5,0.5", "--n", "3", "--T", "1", "--eps", "nan"],
        ["mmtail", "--pi", "0.5,0.5", "--n", "3", "--T", "1", "--eps", "0.1", "--c2", "nan"],
        ["mmtail", "--pi", "0.5,0.5", "--n", "3", "--T", "1", "--eps", "0.1", "--c2", "inf"],
        ["qprob", "--pi", "0.5,0.5", "--n", "3", "--T", "1", "--c", "nan"],
        ["qprob", "--pi", "0.5,0.5", "--n", "3", "--T", "nan"],
        ["qprob", "--pi", "0.5,0.5", "--n", "3", "--T", "inf", "--c", "inf"],
        ["qprob", "--pi", "0.5,0.5", "--n", "3", "--T", "inf"],
        ["qprob", "--pi", "0.5,0.5", "--n", "3", "--T", "1", "--c", "inf"],
        ["jointbound", "--pi", "0.5,0.5", "--J", "0", "--n", "3", "--T", "inf", "--c", "inf"],
        ["mmtail", "--pi", "0.5,0.5", "--n", "3", "--eps", "0.1", "--T", "inf", "--c", "inf"],
        ["product", "--pi", "nan,1", "--J", "0"],
    ], ids=" ".join)
    def test_nan_arguments_exit_3(self, capsys, argv):
        assert main(["bounds", *argv]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and "must be" in captured.err

    @pytest.mark.parametrize("offset,rc", [(0.9e-12, 0), (-0.9e-12, 0), (2e-12, 3), (-2e-12, 3),
                                           (5e-10, 3)])
    @pytest.mark.parametrize("command", [["iidsurv", "--n", "1"],
                                         ["jointbound", "--n", "1", "--T", "1"], ["product"]],
                             ids=lambda c: c[0])
    def test_pi_sums_to_one_as_a_start_law_does(self, capsys, command, offset, rc):
        # --pi passes the rule of a chain's start law, |sum - 1| <= ROW_SUM_TOL, so a vector
        # it accepts is one every formula reads, J = every state included
        pi = f"0.5,{0.5 + offset!r}"
        assert main(["bounds", *command, "--pi", pi, "--J", "0,1"]) == rc
        err = capsys.readouterr().err
        assert err == ("" if rc == 0 else "error: --pi must be a probability vector\n")

    def test_t_defaults_to_the_chains_t_half(self, capsys):
        # T(0.5) = 300 here; a default of 1 printed 0.3986..., below Pr[N_{0} > 100] = 0.745...
        chain = ["--chain", "lazy-cycle:m=20;hold=0.9"]
        argv = ["bounds", "jointbound", *chain, "--J", "0", "--n", "100"]
        assert main(argv) == 0
        assert capsys.readouterr().out == "0.9969390323337016\n"
        assert main(["hit", "tlarge", *chain]) == 0
        t_half = capsys.readouterr().out.split("=")[1].split()[0]
        assert main([*argv, "--T", t_half]) == 0
        assert capsys.readouterr().out == "0.9969390323337016\n"
        assert main(["hit", "survival", *chain, "--B", "0", "--t", "100"]) == 0
        assert float(capsys.readouterr().out.splitlines()[-1].split(",")[1]) <= 0.9969390323337016

    @pytest.mark.parametrize("argv", [["qprob", "--n", "3"], ["jointbound", "--J", "0", "--n", "3"],
                                      ["mmtail", "--n", "3", "--eps", "0.1"],
                                      ["mmtail", "--n", "3", "--eps", "0.1", "--iid"]],
                             ids=" ".join)
    def test_pi_without_t_exits_3_where_t_is_read(self, capsys, argv):
        assert main(["bounds", *argv, "--pi", "0.5,0.5"]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and "error: --T is needed with --pi" in captured.err
        assert main(["bounds", *argv, "--pi", "0.5,0.5", "--T", "1"]) == 0

    @pytest.mark.parametrize("argv", [["qprob", "--n", "3"], ["jointbound", "--J", "0", "--n", "3"]],
                             ids=lambda a: a[0])
    def test_iid_computes_no_t(self, capsys, argv):
        # the surrogates (1 - pi(j))^n read no T: neither --pi nor a chain past T's cap needs one
        assert main(["bounds", *argv, "--pi", "0.5,0.5", "--iid"]) == 0
        assert main(["bounds", *argv, "--chain", "lazy-cycle:m=21;hold=0.5", "--iid"]) == 0
        assert main(["bounds", *argv, "--chain", "lazy-cycle:m=21;hold=0.5"]) == 4
        assert "exceeds the enumeration cap 20 of T(eps)" in capsys.readouterr().err

    def test_chain_from_family(self, capsys):
        # a chain given by --chain yields the same bound as its stationary law given by --pi
        tail = ["--J", "0", "--n", "2", "--c", "1", "--T", "1"]
        assert main(["bounds", "jointbound", "--chain", "iid:mu=0.25,0.75", *tail]) == 0
        by_chain = capsys.readouterr().out
        assert main(["bounds", "jointbound", "--pi", "0.25,0.75", *tail]) == 0
        assert by_chain == capsys.readouterr().out == f"{math.exp(-0.5)!r}\n"

    @pytest.mark.parametrize("argv", [["qprob", "--n", "3"], ["jointbound", "--J", "0", "--n", "3"],
                                      ["iidsurv", "--J", "0", "--n", "3"], ["product", "--J", "0"],
                                      ["mmtail", "--n", "3", "--eps", "0.1"]], ids=lambda a: a[0])
    def test_chain_and_pi_exit_3(self, capsys, argv):
        # either names the stationary law: one would be dropped without a word
        rc = main(["bounds", *argv, "--pi", "0.5,0.5", "--chain", "lazy-cycle:m=5;hold=0.5"])
        assert rc == 3
        captured = capsys.readouterr()
        assert captured.out == "" and "error: give --chain or --pi, not both" in captured.err


# the 4-state chain whose point start in state 2 breaks Thm 1 and Cor. 3 at short horizons:
# from there, thm1 found 1 violation (certified_c = 0.0) and cor3 found 2; from pi, none
START_LAW_WITNESS = [[0.30535, 0.68954, 0.00254, 0.00257],
                     [0.61773, 0.00252, 0.01806, 0.36169],
                     [0.99246, 0.00252, 0.00252, 0.00250],
                     [0.67662, 0.00250, 0.06735, 0.25353]]


@pytest.fixture
def witness(tmp_path):
    """A config for the start-law witness: its chain file with "start" = state 2 if asked."""
    def config(suite: str, start: bool) -> str:
        rows = [[x / sum(row) for x in row] for row in START_LAW_WITNESS]
        chain = tmp_path / f"witness-{start}.json"
        chain.write_text(json.dumps({"m": 4, "P": rows, **({"start": [0, 0, 1, 0]} if start else {})}))
        cfg = tmp_path / f"{suite}-{start}.json"
        # cor1 reads no J-family
        cfg.write_text(json.dumps({"chains": [str(chain)],
                                   **({} if suite == "cor1" else {"j_sets": [[3]]})}))
        return str(cfg)
    return config


@pytest.mark.parametrize("suite", ["thm1", "cor1", "cor3", "all"])
def test_start_law_is_rejected_where_the_suites_assume_pi(tmp_path, capsys, witness, suite):
    rc = main(["verify", suite, "--config", witness(suite, True), "--out", str(tmp_path / "a")])
    assert rc == 3
    err = capsys.readouterr().err
    assert "witness-True.json' sets a start law, but X_1 ~ pi in" in err and "Traceback" not in err
    assert not (tmp_path / "a" / f"{suite}.csv").exists()
    if suite != "all":  # all also runs the suites that read no chains
        rc = main(["verify", suite, "--config", witness(suite, False), "--out", str(tmp_path / "b")])
        assert rc == 0
        assert "violations=0 ok" in capsys.readouterr().out


def test_prop1_keeps_the_start_law(tmp_path, capsys, witness):
    # Prop. 1 bounds the tail from any start: the chains-only config of cor1 runs
    assert main(["verify", "prop1", "--config", witness("cor1", True), "--out", str(tmp_path)]) == 0
    assert "witness-True.json" in (tmp_path / "prop1.csv").read_text()


class TestVerifyCommand:
    SMALL = ["--trials", "1500", "--lemma1-chains", "8", "--lemma2-chains", "8",
             "--prop1-chains", "8", "--ergodic-steps", "40000"]

    def test_verify_lemma1_small(self, tmp_path, capsys):
        rc = main(["verify", "lemma1", "--seed", "1", "--lemma1-chains", "10",
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
        assert all(len(row) == 8 for row in rows)
        assert "lazy-cycle:m=5;hold=0.5" in {row[1] for row in rows}

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
        cfg.write_text(json.dumps({"seed": 5, "trials": 1200, "c": 0.2}))
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

    def test_option_precedence(self, tmp_path):
        # defaults, then the config, then explicit flags
        def opts(*argv):
            return _options_from_args(build_parser().parse_args(["verify", "cor1", *argv]))

        assert (opts().seed, opts().workers) == (3, 1)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 5, "workers": 2}))
        o = opts("--config", str(cfg))
        assert (o.seed, o.workers) == (5, 2)
        o = opts("--config", str(cfg), "--seed", "7", "--workers", "1")
        assert (o.seed, o.workers) == (7, 1)

    @pytest.mark.parametrize("value", ["3", "abc", "0", ""])
    @pytest.mark.parametrize("argv", [
        ["verify", "ergodic", "--ergodic-steps", "10"],
        ["verify", "ergodic", "--ergodic-steps", "10", "--workers", "2"],
        ["simulate", "mm", "--chain", "iid:mu=0.5,0.5", "--trials", "10"],
        ["simulate", "mm", "--chain", "iid:mu=0.5,0.5", "--trials", "10",
         "--workers", "2"],
    ])
    def test_mml_workers_changes_nothing(self, tmp_path, monkeypatch, capsys, value, argv):
        # no environment variable sets the worker count: --workers does, and it defaults to 1
        runs = []
        for env in (None, value):
            if env is None:
                monkeypatch.delenv("MML_WORKERS", raising=False)
            else:
                monkeypatch.setenv("MML_WORKERS", env)
            out = tmp_path / f"r{len(runs)}"
            rc = main([*argv, "--out", str(out)])
            files = sorted(out.iterdir()) if out.is_dir() else [out]
            runs.append((rc, capsys.readouterr(), [f.read_text() for f in files]))
        assert runs[0] == runs[1]

    def test_config_accepts_every_option(self, tmp_path):
        values = {"seed": 5, "workers": 2, "trials": 1000, "lemma1_chains": 4,
                  "lemma1_m_max": 3, "lemma1_max_pairs": 5, "lemma2_chains": 6,
                  "lemma2_m_max": 4, "prop1_chains": 7, "c": 0.2, "c2": 2.0,
                  "ergodic_steps": 1000}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**values, "chains": ["lazy-cycle:m=4;hold=0.5"],
                                   "j_sets": [[0, 1]], "n_grid": "4..6"}))
        o = _options_from_args(build_parser().parse_args(["verify", "cor1", "--config", str(cfg)]))
        assert {k: getattr(o, k) for k in values} == values
        assert [cid for cid, _ in o.chains] == ["lazy-cycle:m=4;hold=0.5"]
        assert (o.j_sets, o.n_grid) == ([(0, 1)], [4, 5, 6])

    @pytest.mark.parametrize("cfg,key", [({"lemma1_chain": 3}, "'lemma1_chain'"),
                                         ({"epsilon": 0.4}, "'epsilon'"),
                                         ({"constants": {"c": 0.2}}, "'constants'"),
                                         ({"constants": {"eps": 0.4}}, "'constants'"),
                                         # T is T(0.5) in every suite: eps is no option
                                         ({"eps": 0.5}, "'eps'")])
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

    def test_mgf_bound_past_the_float_range(self, tmp_path, capsys):
        # at n = 2000 the weights n pi_j = 500 put e^{2 n pi_j} past the float range: the bound
        # is inf, as on the default chains at n = 1e5 (a run of about 40 s, made in CI)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"chains": ["lazy-cycle:m=4;hold=0.5"], "n_grid": [2000]}))
        rc = main(["verify", "thm1", "--config", str(cfg), "--out", str(tmp_path / "r")])
        assert rc == 0
        assert ",inf," in (tmp_path / "r" / "thm1.csv").read_text()

    def test_long_horizon_residues_constrain_nothing(self, tmp_path, capsys):
        # every singleton survival of lazy-cycle(4) at n = 20000 is a round-off residue
        # (4.4e-323 for {0}) that must not certify c: [2000, 20000] certifies what [2000] does
        certified = []
        for grid in ([2000], [2000, 20000]):
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"chains": ["lazy-cycle:m=4;hold=0.5"], "n_grid": grid}))
            assert main(["verify", "thm1", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 0
            certified.append(re.search(r"certified_c=(\S+)", capsys.readouterr().out).group(1))
        assert certified == ["2.25", "2.25"]
        cfg.write_text(json.dumps({"chains": ["lazy-cycle:m=4;hold=0.5"], "n_grid": [20000]}))
        assert main(["verify", "thm1", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 5
        assert "no instance constrains c" in capsys.readouterr().err

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

    @pytest.mark.parametrize("cfg,message", [
        ({"seed": "abc"}, "seed must be an integer, got 'abc'"),
        ({"seed": True}, "seed must be an integer, got True"),
        ({"trials": 1.5}, "trials must be an integer, got 1.5"),
        ({"j_sets": [5]}, "config key 'j_sets': expected a list of lists of state indices"),
        ({"j_sets": [[0, -1]]}, "j_sets must be a non-empty list of sets of state indices >= 0"),
        ({"n_grid": ["x"]}, "n_grid must be a non-empty list of integers >= 1, got ['x']"),
        ({"n_grid": "a..b"}, "config key 'n_grid': bad grid 'a..b'"),
        ({"chains": [3]}, "config key 'chains': expected a list of chain descriptors"),
        ({"c": "x"}, "c must be a number, got 'x'"),
        ({"c": True}, "c must be a number, got True")])
    def test_ill_typed_config_value_exits_3(self, tmp_path, capsys, cfg, message):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        rc = main(["verify", "cor1", "--config", str(path), "--out", str(tmp_path / "r")])
        assert rc == 3
        assert message in capsys.readouterr().err

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

    @pytest.mark.parametrize("suite,cfg,message", [
        ("prop1", {"j_sets": [[0]], "n_grid": [8]}, "j_sets is read only by thm1, cor3, so prop1"),
        ("cor1", {"j_sets": [[0]]}, "j_sets is read only by thm1, cor3, so cor1"),
        ("prop1", {"n_grid": [8]}, "n_grid is read only by thm1, cor1, cor3, so prop1"),
        ("iid", {"chains": ["lazy-cycle:m=4;hold=0.5"]},
         "chains is read only by prop1, thm1, cor1, cor3, so iid"),
    ])
    def test_override_no_suite_to_run_reads_exits_3(self, tmp_path, capsys, monkeypatch, suite,
                                                     cfg, message):
        for name in SUITE_ORDER:
            monkeypatch.setitem(SUITES, name, lambda opts: pytest.fail("a suite ran"))
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        rc = main(["verify", suite, "--config", str(path), "--out", str(tmp_path / "r")])
        assert rc == 3
        assert f"error: {message} would check nothing with it" in capsys.readouterr().err

    def test_every_override_is_read_under_all(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"chains": ["lazy-cycle:m=4;hold=0.5"], "j_sets": [[0]],
                                    "n_grid": [8]}))
        args = build_parser().parse_args(["verify", "all", "--config", str(path)])
        mml.verify._check_options(_options_from_args(args), SUITE_ORDER)

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
        ([], {"lemma1_m_max": 21}, "lemma1_m_max must be in 2..20"),
        (["--lemma1-m-max", "1"], None, "lemma1_m_max must be in 2..20"),
        ([], {"lemma2_m_max": 1}, "lemma2_m_max must be in 2..20"),
        (["--lemma1-chains", "-1"], None, "lemma1_chains must be >= 1"),
        ([], {"prop1_chains": 0}, "prop1_chains must be >= 1"),
        (["--lemma1-max-pairs", "0"], None, "lemma1_max_pairs must be >= 1"),
        (["--workers", "0"], None, "workers must be >= 1"),
        (["--ergodic-steps", "0"], None, "ergodic_steps must be >= 1"),
        (["--c", "-0.5"], None, "c must be > 0"),
        ([], {"c2": 0}, "c2 must be > 0"),
        (["--c", "inf"], None, "c must be > 0 and finite, got inf"),
        (["--c2", "inf"], None, "c2 must be > 0 and finite, got inf"),
        ([], {"n_grid": "9..3"}, "n_grid must be a non-empty list of integers >= 1, got []"),
        ([], {"n_grid": []}, "n_grid must be a non-empty list of integers >= 1, got []"),
        ([], {"n_grid": ","}, "n_grid must be a non-empty list of integers >= 1, got []"),
        # a grid that names horizon 0 is rejected in each of its three forms
        ([], {"n_grid": "0"}, "n_grid must be a non-empty list of integers >= 1, got [0]"),
        ([], {"n_grid": "0..3"}, "n_grid must be a non-empty list of integers >= 1, got [0, 1,"),
        ([], {"n_grid": [0]}, "n_grid must be a non-empty list of integers >= 1, got [0]"),
        ([], {"chains": []}, "chains must be a non-empty list of (chain_id, ChainSpec) pairs"),
        ([], {"j_sets": []}, "j_sets must be a non-empty list of sets of state indices >= 0"),
        ([], {"lemma1_m_max": 64}, "lemma1_m_max must be in 2..20"),
        ([], {"lemma2_m_max": 21}, "lemma2_m_max must be in 2..20"),
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
        cfg.write_text(json.dumps({"c": 1, "c2": 2}))
        o = _options_from_args(build_parser().parse_args(["verify", "cor1", "--config", str(cfg)]))
        assert (o.c, o.c2) == (1, 2)

    def test_c_resolution_is_gone(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"c_resolution": 0.25}))
        rc = main(["verify", "cor1", "--config", str(cfg), "--out", str(tmp_path / "r")])
        assert rc == 3
        assert "unknown config key 'c_resolution'" in capsys.readouterr().err
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
             "--lemma1-max-pairs", "8", "--lemma1-chains", "30", "--lemma2-chains", "30",
             "--prop1-chains", "20", "--lemma1-m-max", "8", "--lemma2-m-max", "9"])
        o = _options_from_args(args)
        assert (o.seed, o.workers, o.trials, o.ergodic_steps) == (4, 2, 5, 7)
        assert (o.c, o.c2, o.lemma1_max_pairs) == (0.3, 2.0, 8)
        assert (o.lemma1_chains, o.lemma2_chains, o.prop1_chains) == (30, 30, 20)
        assert (o.lemma1_m_max, o.lemma2_m_max) == (8, 9)

    def test_every_option_is_declared_once(self, tmp_path):
        # each VerifyOptions field is one top-level config key and has one rule; each int or
        # float field is also one flag, its name with dashes, typed by its default
        names = [f.name for f in fields(VerifyOptions)]
        assert sorted(OPTION_RULES) == sorted(names)
        verify = next(a for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction)).choices["verify"]
        flags = {a.option_strings[0]: a for a in verify._actions if a.option_strings}
        scalars = {f.name: type(f.default) for f in fields(VerifyOptions)
                   if type(f.default) in (int, float)}
        assert set(flags) - {"-h", "--out", "--config"} == {
            "--" + name.replace("_", "-") for name in scalars}
        for name, typ in scalars.items():
            action = flags["--" + name.replace("_", "-")]
            assert (action.dest, action.type) == (name, typ)
        defaults = {name: getattr(VerifyOptions(), name) for name in scalars}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**defaults, "chains": ["iid:mu=1"], "j_sets": [[0]],
                                   "n_grid": [1]}))
        o = _options_from_args(build_parser().parse_args(["verify", "cor1", "--config", str(cfg)]))
        assert {name: getattr(o, name) for name in scalars} == defaults
        assert (len(o.chains), o.j_sets, o.n_grid) == (1, [(0,)], [1])

    @pytest.mark.parametrize("flags", [["--chains", "8"], ["--m-max", "4"],
                                       ["--max-pairs", "8"], ["--eps", "0.4"]])
    def test_removed_flags_exit_2(self, tmp_path, flags):
        with pytest.raises(SystemExit) as e:
            main(["verify", "lemma1", *flags, "--out", str(tmp_path / "r")])
        assert e.value.code == 2

    def test_constants_section_exits_3(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"constants": {"c": 0.2}}))
        assert main(["verify", "thm1", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 3
        assert "unknown config key 'constants'" in capsys.readouterr().err

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


def test_import_loads_no_thread_pool():
    # the pool's import (threading, queue, logging) is paid only by a run with workers > 1
    src = str(Path(mml.__file__).resolve().parents[1])
    code = "import sys, mml.cli\nprint('concurrent.futures' in sys.modules)\n"
    out = subprocess.run([sys.executable, "-c", code], cwd=src, capture_output=True, text=True,
                         check=True, timeout=60).stdout
    assert out.strip() == "False"


NEGATIVE = [[1.5, -0.5], [0.5, 0.5]]
ROW_OVER = [[0.6, 0.5], [0.5, 0.5]]
REDUCIBLE = [[1.0, 0.0], [0.5, 0.5]]
# the raise sites of the eight subclasses that ValidationError and PreconditionError used to
# have: the library call, the class it raises, its message, and a command that reaches it
# (FILE is a chain file of the given rows; no command reaches a non-square matrix, since a
# chain file's rows are checked first)
FORMER_SUBCLASSES = {
    "NonSquareError": (lambda: validate([[0.5, 0.5]]), ValidationError,
                       "expected a square matrix, got shape (1, 2)", None, None),
    "NegativeEntryError": (lambda: validate(NEGATIVE), ValidationError,
                           "P[0][1] = -0.5 is negative",
                           ["chain", "validate"], NEGATIVE),
    "NonStochasticRowError": (lambda: validate(ROW_OVER), ValidationError,
                              "row 0 sums to 1.1, expected 1",
                              ["chain", "validate"], ROW_OVER),
    "BadParamsError": (lambda: generate("lazy-cycle", m=0, hold=0.5), ValidationError,
                       "lazy-cycle needs m >= 1",
                       ["chain", "validate", "--chain", "lazy-cycle:m=0;hold=0.5"], None),
    "NotIrreducibleError": (lambda: stationary(validate(REDUCIBLE)), PreconditionError,
                            "chain is not irreducible", ["chain", "stationary"], REDUCIBLE),
    "EmptySetError": (lambda: hitting_table(validate(REDUCIBLE), StateSet(())),
                      PreconditionError, "target set is empty",
                      ["hit", "table", "--chain", "lazy-cycle:m=5;hold=0.5", "--B", ""], None),
    "TooManyStatesError": (lambda: t_large(validate(np.eye(21)), None, 0.5), PreconditionError,
                           "m=21 exceeds the enumeration cap 20 of T(eps)",
                           ["hit", "tlarge", "--chain", "lazy-cycle:m=21;hold=0.5"], None),
    "DomainError": (lambda: mml.kl_divergence(-0.1, 0.25), PreconditionError,
                    "p, q must lie in [0, 1], got p=-0.1, q=0.25",
                    ["bounds", "kl", "--p", "-0.1", "--q", "0.25"], None),
}


@pytest.mark.parametrize("kind", FORMER_SUBCLASSES)
def test_former_subclass_raises_its_parent(tmp_path, capsys, monkeypatch, kind):
    call, parent, message, argv, rows = FORMER_SUBCLASSES[kind]
    with pytest.raises(MMLError) as exc:
        call()
    assert type(exc.value) is parent and str(exc.value) == message
    code = {ValidationError: 3, PreconditionError: 4}[parent]
    if argv is not None:
        if rows is not None:
            path = tmp_path / "chain.json"
            path.write_text(json.dumps({"m": len(rows), "P": rows}))
            argv = [*argv, "--chain", str(path)]
        assert main(argv) == code
        assert capsys.readouterr().err == f"error: {message}\n"
    # every raise site, one a command reaches or not, exits with its class's code
    monkeypatch.setattr(mml.cli, "cmd_bounds_kl", lambda args: call())
    assert main(["bounds", "kl", "--p", "0.5", "--q", "0.5"]) == code
    assert capsys.readouterr().err == f"error: {message}\n"


SOURCE = {"--chain"}
SIM = {"--trials", "--seed", "--workers"}
BOUND = {"--pi", "--n", "--c", "--T", "--iid"}
# every leaf subcommand's flags: --format only where a command has both a CSV and a JSON form
COMMAND_FLAGS = {
    "chain validate": SOURCE,
    "chain stationary": SOURCE | {"--out", "--format"},
    "chain generate": SOURCE | {"--out"},
    "hit table": SOURCE | {"--out", "--format", "--B"},
    "hit tlarge": SOURCE | {"--out", "--format", "--eps"},
    "hit lemma1": SOURCE | {"--out", "--format", "--A", "--B"},
    "hit lemma2": SOURCE | {"--out", "--format", "--A"},
    "hit survival": SOURCE | {"--out", "--format", "--B", "--t"},
    "simulate mm": SOURCE | SIM | {"--out", "--n", "--dump"},
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
    "verify": {"--seed", "--workers", "--trials", "--lemma1-chains", "--lemma1-m-max",
               "--lemma1-max-pairs", "--lemma2-chains", "--lemma2-m-max", "--prop1-chains",
               "--c", "--c2", "--ergodic-steps", "--out", "--config"},
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
    assert sum(map(len, flags.values())) == 105


CHAIN = ["--chain", "lazy-cycle:m=5;hold=0.5"]
SIM_ARGS = ["--trials", "300", "--seed", "4"]
# one invocation of every command that prints its output, that is, every one with --out but verify
OUT_COMMANDS = [
    ["chain", "stationary", *CHAIN],
    ["chain", "generate", *CHAIN],
    ["hit", "table", *CHAIN, "--B", "1,2", "--format", "json"],
    ["hit", "tlarge", *CHAIN],
    ["hit", "lemma1", *CHAIN, "--A", "0", "--B", "2"],
    ["hit", "lemma2", *CHAIN, "--A", "0,1", "--format", "json"],
    ["hit", "survival", *CHAIN, "--B", "0,2", "--t", "1..6"],
    ["simulate", "mm", *CHAIN, *SIM_ARGS, "--n", "6"],
    ["simulate", "mgf", *CHAIN, *SIM_ARGS, "--n", "6", "--s", "1.5"],
    ["bounds", "qprob", "--pi", "0.25,0.75", "--n", "3", "--T", "1"],
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
