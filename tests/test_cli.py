import json

import numpy as np
import pytest

from mml.cli import main, parse_grid, parse_index_set
from mml.errors import ValidationError
from mml.report import csv_body


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


class TestHitCommands:
    def test_table_cycle(self, cycle3, capsys):
        assert main(["hit", "table", "--in", cycle3, "--B", "2"]) == 0
        out = capsys.readouterr().out
        assert "0,2.0" in out and "1,1.0" in out and "2,0.0" in out

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
        assert dump.read_text().splitlines()[0] == "trial,value,unseen_set"


class TestBoundsCommands:
    def test_kl(self, capsys):
        assert main(["bounds", "kl", "--p", "0.5", "--q", "0.25"]) == 0
        assert abs(float(capsys.readouterr().out) - 0.14384103622589042) < 1e-12

    def test_kl_domain_error_exits_4(self, capsys):
        assert main(["bounds", "kl", "--p", "0.0", "--q", "0.25"]) == 4

    def test_hittailbound(self, capsys):
        assert main(["bounds", "hittailbound", "--expected", "2", "--t", "20"]) == 0
        assert abs(float(capsys.readouterr().out) - 0.049787068367863944) < 1e-15

    def test_jointbound(self, capsys):
        rc = main(["bounds", "jointbound", "--pi", "0.5,0.5", "--J", "0,1",
                   "--n", "3", "--c", "1", "--T", "1"])
        assert rc == 0
        assert abs(float(capsys.readouterr().out) - 0.049787068367863944) < 1e-15

    def test_pinsker(self, capsys):
        assert main(["bounds", "pinsker", "--p", "0.9", "--q", "0.1"]) == 0
        assert ",true," in capsys.readouterr().out

    def test_mmtail_flags_unpinned_constant(self, capsys):
        rc = main(["bounds", "mmtail", "--pi", "0.25,0.25,0.25,0.25", "--n", "4",
                   "--c", "1", "--T", "1", "--eps", "0.1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "unspecified" in out and "threshold=" in out


class TestVerifyCommand:
    SMALL = ["--trials", "1500", "--chains", "8", "--prop1-trials", "1200",
             "--ergodic-steps", "40000", "--c-resolution", "2.0"]

    def test_verify_lemma1_small(self, tmp_path, capsys):
        rc = main(["verify", "lemma1", "--seed", "1", "--chains", "10",
                   "--out", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "lemma1.csv").exists()
        assert (tmp_path / "summary.csv").exists()
        assert "violations=0" in capsys.readouterr().out

    def test_verify_thm1_huge_c_fails(self, tmp_path, capsys):
        rc = main(["verify", "thm1", "--seed", "1", "--c", "100", "--trials", "1500",
                   "--c-resolution", "1000", "--out", str(tmp_path)])
        assert rc == 1
        violations = (tmp_path / "violations.csv").read_text().splitlines()
        assert len(violations) > 1

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
                                   "constants": {"c": 0.2, "c_resolution": 5.0}}))
        rc = main(["verify", "thm1", "--config", str(cfg), "--out", str(tmp_path / "r")])
        assert rc == 0
        text = (tmp_path / "r" / "thm1.csv").read_text()
        assert "c=0.2" in text

    def test_config_custom_chains_and_grid(self, two_state, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "seed": 5, "trials": 1500,
            "chains": [two_state, "lazy-cycle:m=4;hold=0.5"],
            "j_sets": [[0], [1]],
            "n_grid": "4..16",
            "constants": {"c_resolution": 5.0},
        }))
        rc = main(["verify", "thm1", "--config", str(cfg), "--out", str(tmp_path / "r")])
        assert rc == 0
        text = (tmp_path / "r" / "thm1.csv").read_text()
        assert "lazy-cycle:m=4;hold=0.5" in text
        assert two_state in text

    def test_exact_calibration_ignores_trials(self, tmp_path, capsys):
        # thm1 certifies c from exact survivals: a tiny trial budget and a fine
        # resolution leave no uncertainty
        rc = main(["verify", "thm1", "--seed", "1", "--trials", "300",
                   "--c-resolution", "0.0001", "--out", str(tmp_path)])
        assert rc == 0
        assert "c_uncertainty=0.0" in capsys.readouterr().out
        assert "c_uncertainty=0.0;" in (tmp_path / "summary.csv").read_text()

    def test_all_survivals_zero_exits_5(self, tmp_path, capsys):
        # the deterministic flip chain has left every singleton by step 2
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"chains": ["two-state:p=1;q=1"], "n_grid": [2, 4, 8]}))
        rc = main(["verify", "thm1", "--config", str(cfg), "--out", str(tmp_path / "r")])
        assert rc == 5
        assert "no instance constrains c" in capsys.readouterr().err
