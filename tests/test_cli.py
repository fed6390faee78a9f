"""Tests for the `rcint` command-line interface."""

import csv
import io
import json

import pytest

from rcint.cli import EXIT_CONFIG, EXIT_NUMERICAL, EXIT_OK, SUITES, main
from rcint.reports import CheckReport


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestListSuites:
    def test_all_suites_listed_with_anchors(self, capsys):
        code, out, _ = _run(capsys, "list-suites")
        assert code == EXIT_OK
        for name in SUITES:
            assert name in out
        # spec'd anchor lines
        assert "gbc" in out and "Cor. 1.8" in out
        assert "cgb" in out and "Eq. (1.1)" in out
        assert "ambient-ricci" in out and "Lemma 3.1" in out


class TestRvol:
    def test_h4(self, capsys):
        code, out, _ = _run(capsys, "rvol", "--n", "4")
        assert code == EXIT_OK
        assert "V(H^4) = 4/3 * pi^2 = 13.15947253" in out

    def test_h6(self, capsys):
        code, out, _ = _run(capsys, "rvol", "--n", "6")
        assert code == EXIT_OK
        assert "-8/15 * pi^3" in out

    def test_odd_n_is_config_error(self, capsys):
        code, _, err = _run(capsys, "rvol", "--n", "5")
        assert code == EXIT_CONFIG


class TestVerify:
    def test_kronecker_passes(self, capsys):
        code, out, _ = _run(capsys, "verify", "kronecker")
        assert code == EXIT_OK
        assert "1/1 checks passed" in out

    def test_cgb_restricted_manifold(self, capsys):
        code, out, _ = _run(capsys, "verify", "cgb", "--manifold", "S2xS2")
        assert code == EXIT_OK
        assert "PASS" in out

    def test_impossible_tolerance_fails_numerically(self, capsys):
        code, out, err = _run(capsys, "verify", "cgb", "--manifold", "S2xS2",
                              "--tol", "1e-30")
        assert code == EXIT_NUMERICAL
        assert "FAIL" in out
        assert "numerical failure in:" in err

    def test_json_output_is_json_lines(self, capsys):
        code, out, _ = _run(capsys, "verify", "rvol", "--format", "json")
        assert code == EXIT_OK
        lines = [l for l in out.splitlines() if l.startswith("{")]
        assert lines
        for line in lines:
            doc = json.loads(line)
            assert doc["passed"] is True

    def test_json_output_depends_only_on_seed(self, capsys):
        _, out1, _ = _run(capsys, "verify", "pfaffian-identities", "--n", "4",
                          "--samples", "20", "--seed", "5", "--format", "json")
        _, out2, _ = _run(capsys, "verify", "pfaffian-identities", "--n", "4",
                          "--samples", "20", "--seed", "5", "--format", "json")
        json1 = [l for l in out1.splitlines() if l.startswith("{")]
        json2 = [l for l in out2.splitlines() if l.startswith("{")]
        assert json1 == json2

    def test_csv_output(self, capsys):
        code, out, _ = _run(capsys, "verify", "rvol", "--format", "csv")
        assert code == EXIT_OK
        header_on = out[:out.index("\n== summary ==")]
        rows = list(csv.DictReader(io.StringIO(header_on)))
        assert rows and all(r["passed"] == "True" for r in rows)

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "reports.jsonl"
        code, out, _ = _run(capsys, "verify", "kronecker", "--format", "json",
                            "--out", str(path))
        assert code == EXIT_OK
        lines = path.read_text().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["check_id"] == "kronecker-recursion"
        # summary still goes to stdout
        assert "checks passed" in out

    def test_failing_suite_keeps_other_reports(self, capsys, monkeypatch):
        anchor, desc, _ = SUITES["kronecker"]

        def breaks(cfg):
            yield CheckReport.compare("before-break", anchor, 1.0, 1.0, 1e-12)
            raise RuntimeError("suite broke")

        monkeypatch.setitem(SUITES, "kronecker", (anchor, desc, breaks))
        code, out, err = _run(capsys, "verify", "rvol", "kronecker",
                              "einstein-pfaffian", "--manifold", "S4",
                              "--format", "json")
        assert code == EXIT_NUMERICAL
        docs = {d["check_id"]: d for d in
                map(json.loads, out.splitlines()[:5])}
        assert list(docs) == ["rvol-H4", "rvol-H6", "before-break",
                              "kronecker/error", "einstein-pfaffian-S4"]
        error = docs["kronecker/error"]
        assert (error["passed"], error["criterion"]) == (False, "error")
        assert error["lhs"] == error["rhs"] == 0.0
        assert docs["einstein-pfaffian-S4"]["passed"]
        assert "RuntimeError: suite broke" in err
        assert "numerical failure in: kronecker/error" in err


class TestConfigErrors:
    def test_unknown_suite(self, capsys):
        code, _, err = _run(capsys, "verify", "nonsense")
        assert code == EXIT_CONFIG

    def test_unknown_manifold(self, capsys):
        code, _, _ = _run(capsys, "verify", "cgb", "--manifold", "K3")
        assert code == EXIT_CONFIG

    def test_bad_tol(self, capsys):
        code, _, _ = _run(capsys, "verify", "kronecker", "--tol", "-1")
        assert code == EXIT_CONFIG

    def test_bad_n(self, capsys):
        code, _, _ = _run(capsys, "verify", "pfaffian-identities", "--n", "7")
        assert code == EXIT_CONFIG

    def test_bad_jet_order(self, capsys):
        # argparse rejects the unknown flag with exit 2
        with pytest.raises(SystemExit) as exc:
            main(["verify", "kronecker", "--jet-order", "1"])
        assert exc.value.code == EXIT_CONFIG

    def test_n_without_a_suite_that_reads_it(self, capsys):
        code, out, err = _run(capsys, "verify", "kronecker", "--n", "8")
        assert code == EXIT_CONFIG
        assert out == "" and "--n" in err

    def test_unwritable_out_rejected_before_computation(self, capsys,
                                                         tmp_path):
        path = tmp_path / "missing" / "x.jsonl"
        code, out, err = _run(capsys, "verify", "rvol", "--out", str(path))
        assert code == EXIT_CONFIG
        assert out == "" and "--out" in err

    def test_no_suites(self, capsys):
        code, _, _ = _run(capsys, "verify")
        assert code == EXIT_CONFIG


class TestConfigFile:
    def test_config_file_supplies_suites(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"suites": ["kronecker"], "tol": 1e-12}))
        code, out, _ = _run(capsys, "verify", "--config", str(cfg))
        assert code == EXIT_OK
        assert "kronecker-recursion" in out

    def test_flags_win_over_config(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"suites": ["rvol"], "manifold": "K3"}))
        # explicit positional suite overrides config suites; the bad
        # manifold from the config still triggers validation
        code, _, _ = _run(capsys, "verify", "kronecker", "--config", str(cfg))
        assert code == EXIT_CONFIG

    def test_unknown_key_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bogus": 1}))
        code, _, _ = _run(capsys, "verify", "kronecker", "--config", str(cfg))
        assert code == EXIT_CONFIG

    def test_jet_order_key_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"jet_order": 4}))
        code, _, err = _run(capsys, "verify", "kronecker", "--config",
                            str(cfg))
        assert code == EXIT_CONFIG
        assert "unknown config key 'jet_order'" in err

    def test_config_n_without_a_suite_that_reads_it(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 6}))
        code, out, _ = _run(capsys, "verify", "kronecker", "--config",
                            str(cfg))
        assert code == EXIT_CONFIG
        assert out == ""

    def test_malformed_json_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{not json")
        code, _, _ = _run(capsys, "verify", "kronecker", "--config", str(cfg))
        assert code == EXIT_CONFIG

    def test_config_format_applies(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"format": "csv"}))
        code, out, _ = _run(capsys, "verify", "rvol", "--config", str(cfg))
        assert code == EXIT_OK
        assert out.splitlines()[0].startswith("check_id,anchor")

    @pytest.mark.parametrize("seed", ["7", "0"])
    def test_explicit_seed_wins_over_config(self, capsys, tmp_path, seed):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 3}))
        argv = ("verify", "pfaffian-identities", "--n", "4", "--samples", "2",
                "--seed", seed)
        _, with_cfg, _ = _run(capsys, *argv, "--config", str(cfg))
        _, without, _ = _run(capsys, *argv)
        _, cfg_seed, _ = _run(capsys, *argv[:-1], "3")
        assert with_cfg == without != cfg_seed

    @pytest.mark.parametrize("doc", [
        {"seed": "x"}, {"seed": True}, {"tol": "a"}, {"samples": 2.5},
        {"format": "xml"}, {"suites": "pfaffian-identities"}, {"suites": 5},
        {"suites": ["pfaffian-identities", 1]},
    ])
    def test_wrong_config_types_rejected(self, capsys, tmp_path, doc):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        argv = [] if "suites" in doc else ["pfaffian-identities", "--n", "4"]
        code, out, _ = _run(capsys, "verify", *argv, "--config", str(cfg))
        assert code == EXIT_CONFIG
        assert out == ""


class TestRejectedBeforeComputation:
    @pytest.mark.parametrize("flags", [("--samples", "-3"),
                                       ("--samples", "0"),
                                       ("--seed", "-1")])
    def test_out_of_range_values(self, capsys, flags):
        code, out, _ = _run(capsys, "verify", "pfaffian-identities",
                            "--n", "4", *flags)
        assert code == EXIT_CONFIG
        assert out == ""
