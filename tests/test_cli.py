"""Tests for the `rcint` command-line interface."""

import csv
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import rcint.cli as cli
from rcint.cli import EXIT_CONFIG, EXIT_NUMERICAL, EXIT_OK, SUITES, main
from rcint.geometry import MODEL_NAMES
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

    def test_readme_suite_table_names_every_suite(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        table = readme.split("### Suites", 1)[1].split("\n\n", 2)[1]
        names = [name for row in table.splitlines()[2:]
                 for name in re.findall(r"`([^`]+)`", row.split("|")[1])]
        assert names == list(SUITES)


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

    def test_tol_applies_to_every_check(self, capsys):
        code, out, _ = _run(capsys, "verify", "worked-examples", "--manifold",
                            "perturbed-S4", "--tol", "1e-3", "--format", "csv")
        assert code == EXIT_OK
        rows = list(csv.DictReader(io.StringIO(
            out[:out.index("\n== summary ==")])))
        assert [r["check_id"] for r in rows] == ["ibp-nablaW-perturbed-S4",
                                                 "ibp-u-perturbed-S4"]
        assert all(float(r["tol"]) == 1e-3 for r in rows)

    def test_brute_oracle_sees_every_sample(self, capsys, monkeypatch):
        rows, brute = [], cli.pf_ell_brute

        def counted(W, ell):
            rows.append(len(W))
            return brute(W, ell)

        monkeypatch.setattr(cli, "pf_ell_brute", counted)
        code, out, _ = _run(capsys, "verify", "pfaffian-identities",
                            "--samples", "30")
        assert code == EXIT_OK and rows == [30, 30, 30, 30]
        ids = [json.loads(l)["check_id"] for l in out.splitlines()
               if l.startswith("{")]
        assert ids == [
            "pfaffian-weyl-basis-d4-l2", "pfaffian-brute-d4-l2",
            "pfaffian-weyl-basis-d5-l2", "pfaffian-brute-d5-l2",
            "pfaffian-weyl-basis-d6-l2", "pfaffian-weyl-basis-d6-l3",
            "pfaffian-brute-d6-l2", "pfaffian-brute-d6-l3",
            "pfaffian-weyl-basis-d8-l2", "pfaffian-weyl-basis-d8-l3",
            "pfaffian-weyl-basis-d8-l4"]

    def test_route_values_shared_by_gbc_and_route_equivalence(
            self, capsys, monkeypatch):
        # Both suites read P_{l,n} at the base point from one cache: the
        # ambient and Einstein routes of S2xS2 (l = 2) and S2xS2xS2
        # (l = 2, 3) run once each, and the reports match separate runs.
        import rcint.ambient as amb
        import rcint.integrate as integ
        calls = []
        for name in ("p_ell_n_ambient", "p_ell_n_einstein"):
            def counted(*args, _route=getattr(amb, name), **kwargs):
                calls.append(_route)
                return _route(*args, **kwargs)
            for module in (amb, integ):
                monkeypatch.setattr(module, name, counted)

        def reports(*suites):
            monkeypatch.setattr(integ, "_P_ELL_CACHE", {})
            code, out, _ = _run(capsys, "verify", *suites, "--format", "json")
            assert code == EXIT_OK
            return [l for l in out.splitlines() if l.startswith("{")]

        both = reports("gbc", "route-equivalence")
        assert len(calls) == 10
        assert both == reports("gbc") + reports("route-equivalence")
        assert len(calls) == 10 + 10 + 6

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
        # --tol re-judges every yielded report, and the error report fails
        # at every tolerance
        for tol in ([], ["--tol", "1"]):
            code, out, err = _run(capsys, "verify", "rvol", "kronecker",
                                  "einstein-pfaffian", "--manifold", "S4",
                                  "--format", "json", *tol)
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

    def test_declared_models_and_tol(self, capsys, monkeypatch):
        # a check that passes no tolerance still reports --tol
        monkeypatch.setattr(cli, "SUITES", dict(SUITES))
        monkeypatch.setattr(cli, "_DECLARED", dict(cli._DECLARED))
        seen = []

        @cli._suite("stub", "anchor", "stub suite", needs=("compact",),
                    models=("S4", "S2xS2"))
        def stub(cfg, model):
            seen.append(model.name)
            yield CheckReport.compare(f"stub-{model.name}", "anchor", 1.0,
                                      1.0 + 1e-6, 1e-9)

        def ran(*argv):
            seen.clear()
            code, out, _ = _run(capsys, "verify", "stub", "--format", "csv",
                                *argv)
            rows = list(csv.DictReader(io.StringIO(
                out[:out.index("\n== summary ==")])))
            return code, list(seen), rows

        code, models, rows = ran()
        assert (code, models) == (EXIT_NUMERICAL, ["S4", "S2xS2"])
        assert [float(r["tol"]) for r in rows] == [1e-9, 1e-9]
        assert ran("--manifold", "CP2")[:2] == (EXIT_NUMERICAL, ["CP2"])
        code, models, rows = ran("--tol", "1e-3")
        assert (code, models) == (EXIT_OK, ["S4", "S2xS2"])
        assert [(float(r["tol"]), r["criterion"]) for r in rows] == [
            (1e-3, "abs"), (1e-3, "abs")]


class TestConfigErrors:
    def test_unknown_suite(self, capsys):
        code, _, err = _run(capsys, "verify", "nonsense")
        assert code == EXIT_CONFIG

    def test_unknown_manifold(self, capsys):
        code, _, _ = _run(capsys, "verify", "cgb", "--manifold", "K3")
        assert code == EXIT_CONFIG

    def test_unknown_manifold_message_is_unquoted(self, capsys):
        # the message of the catalog's KeyError, not its repr
        code, out, err = _run(capsys, "verify", "cgb", "--manifold", "s4")
        assert code == EXIT_CONFIG and out == ""
        assert err == (f"error: unknown model 's4'; available: "
                       f"{', '.join(sorted(MODEL_NAMES))}\n")
        assert '"' not in err

    def test_bad_tol(self, capsys):
        code, _, _ = _run(capsys, "verify", "kronecker", "--tol", "-1")
        assert code == EXIT_CONFIG

    def test_non_finite_tol(self, capsys, tmp_path):
        for tol in ("inf", "nan"):
            code, out, err = _run(capsys, "verify", "rvol", "--tol", tol)
            assert code == EXIT_CONFIG and out == ""
            assert "--tol must be positive and finite" in err
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"tol": math.inf}))
        code, out, err = _run(capsys, "verify", "rvol", "--config", str(cfg))
        assert code == EXIT_CONFIG and out == ""
        assert "--tol must be positive and finite" in err

    @pytest.mark.parametrize("flags", [("--dim", "4"), ("--man", "S4"),
                                       ("--to", "1e-3")])
    def test_one_spelling_per_setting(self, capsys, flags):
        # no alias and no abbreviation: the flags mirror the config keys
        with pytest.raises(SystemExit) as exc:
            main(["verify", "pfaffian-identities", "cgb", *flags])
        assert exc.value.code == EXIT_CONFIG
        assert capsys.readouterr().out == ""

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


#: (suite, manifold) pairs the suite cannot take: each reached computation
#: and failed there, or ran no check, before `_validate` rejected it; the
#: worked examples integrate over a slice, which H4 and H6 do not declare
_UNTAKEABLE = [
    ("einstein-pfaffian", "S2"), ("einstein-pfaffian", "perturbed-S4"),
    ("cgb", "H4"), ("cgb", "H6"),
    ("gbc", "perturbed-S4"), ("gbc", "H4"), ("gbc", "H6"),
    ("ambient-ricci", "perturbed-S4"),
    ("ambient-curvature", "S2"), ("ambient-curvature", "perturbed-S4"),
    ("ambient-christoffel", "perturbed-S4"),
    ("ambient-laplacian", "S2"), ("ambient-laplacian", "perturbed-S4"),
    ("straightenable", "S2"), ("straightenable", "perturbed-S4"),
    ("route-equivalence", "S2"), ("route-equivalence", "perturbed-S4"),
    ("main-theorem", "S2"), ("main-theorem", "perturbed-S4"),
    ("main-theorem", "H4"), ("main-theorem", "H6"),
    ("worked-examples", "S2"), ("worked-examples", "H4"),
    ("worked-examples", "H6"),
]


class TestManifoldNeeds:
    @pytest.mark.parametrize("suite,manifold", _UNTAKEABLE)
    def test_untakeable_manifold_is_config_error(self, capsys, suite,
                                                 manifold):
        code, out, err = _run(capsys, "verify", "rvol", suite,
                              "--manifold", manifold)
        assert code == EXIT_CONFIG
        assert out == ""
        assert suite in err and manifold in err

    def test_every_other_pair_is_accepted(self, capsys, monkeypatch):
        # a suite that reads no --manifold rejects every one
        _stub_runners(monkeypatch)
        for suite in SUITES:
            for manifold in MODEL_NAMES:
                code, out, _ = _run(capsys, "verify", suite,
                                    "--manifold", manifold)
                rejected = ((suite, manifold) in _UNTAKEABLE
                            or suite not in _READ_BY["--manifold"])
                assert code == (EXIT_CONFIG if rejected else EXIT_OK)


def _stub_runners(monkeypatch):
    for name, (anchor, desc, _) in list(SUITES.items()):
        monkeypatch.setitem(SUITES, name, (anchor, desc, lambda cfg: ()))


#: flag -> the suites whose runners read it
_READ_BY = {
    "--seed": {"kronecker", "pfaffian-identities", "ambient-ricci",
               "ambient-curvature", "ambient-christoffel",
               "ambient-laplacian"},
    "--samples": {"kronecker", "pfaffian-identities"},
    "--n": {"pfaffian-identities"},
    "--manifold": set(SUITES) - {"kronecker", "pfaffian-identities",
                                 "divergence", "rvol"},
}
_FLAG_VALUES = {"--seed": "3", "--samples": "4", "--n": "4",
                "--manifold": "S2xS2"}


class TestSettingsNoSuiteReads:
    @pytest.mark.parametrize("flag", sorted(_READ_BY))
    def test_flag_needs_a_selected_reader(self, capsys, monkeypatch, flag):
        _stub_runners(monkeypatch)
        for suite in SUITES:
            code, out, err = _run(capsys, "verify", suite, flag,
                                  _FLAG_VALUES[flag])
            if suite in _READ_BY[flag]:
                assert code == EXIT_OK
            else:
                assert code == EXIT_CONFIG and out == "" and flag in err

    @pytest.mark.parametrize("flag", sorted(_READ_BY))
    def test_config_key_needs_a_selected_reader(self, capsys, tmp_path,
                                                flag):
        cfg = tmp_path / "cfg.json"
        value = _FLAG_VALUES[flag]
        cfg.write_text(json.dumps(
            {flag[2:]: value if flag == "--manifold" else int(value)}))
        code, out, _ = _run(capsys, "verify", "rvol", "--config", str(cfg))
        assert code == EXIT_CONFIG and out == ""

    def test_ignored_seed_and_samples_rejected(self, capsys):
        code, out, err = _run(capsys, "verify", "rvol", "cgb", "--seed", "3",
                              "--samples", "4")
        assert code == EXIT_CONFIG and out == ""
        assert "--seed" in err

    def test_one_selected_reader_is_enough(self, capsys):
        code, out, _ = _run(capsys, "verify", "rvol", "kronecker", "--seed",
                            "3", "--samples", "4")
        assert code == EXIT_OK and "3/3 checks passed" in out
        code, out, _ = _run(capsys, "verify", "pfaffian-identities", "--n",
                            "4", "--samples", "2", "--seed", "3")
        assert code == EXIT_OK


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

    def test_empty_config_path_rejected(self, capsys):
        code, out, _ = _run(capsys, "verify", "rvol", "--config", "")
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

    @pytest.mark.parametrize("suite,setting", [("cgb", "manifold"),
                                               ("rvol", "out")])
    def test_empty_value_is_a_given_value(self, capsys, tmp_path, suite,
                                          setting):
        # "" names no manifold and no file, by flag or by config key
        code, out, _ = _run(capsys, "verify", suite, f"--{setting}", "")
        assert code == EXIT_CONFIG
        assert out == ""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({setting: ""}))
        code, out, _ = _run(capsys, "verify", suite, "--config", str(cfg))
        assert code == EXIT_CONFIG
        assert out == ""


def test_verify_leaves_numpy_ma_unimported():
    # numpy.ma is imported lazily, e.g. by a bare np.unique; importing it
    # costs a fresh `rcint verify` about 10 ms and 1.2 MB
    src = str(Path(cli.__file__).resolve().parents[1])
    script = ("import os, sys, rcint.cli as c; "
              "code = c.main(['verify', 'einstein-pfaffian', 'cgb', "
              "'--out', os.devnull]); "
              "print(code, 'numpy.ma' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=src)
    res = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, timeout=120)
    assert res.stdout.splitlines()[-1].split() == ["0", "False"], res.stderr
