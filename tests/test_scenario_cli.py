import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import condrisk
from condrisk import ScenarioError, parse_scenario
from condrisk.cli import main
from conftest import CANONICAL

CANONICAL_DOC = {
    "atoms": {"labels": ["w0", "w1"], "probs": [0.5, 0.5]},
    "sigma_g": [[0, 1]],
    "agents": [
        {"kind": "exponential", "alpha": 1.0},
        {"kind": "exponential", "alpha": 1.0},
    ],
    "x": [[1.0, -1.0], [0.0, 0.0]],
    "b": [-2.0, -2.0],
    "clusters": [[0, 1]],
}


@pytest.fixture
def canonical_file(tmp_path):
    path = tmp_path / "canonical.json"
    path.write_text(json.dumps(CANONICAL_DOC))
    return str(path)


def write_doc(tmp_path, name, **overrides):
    doc = json.loads(json.dumps(CANONICAL_DOC))
    doc.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


# Edits of a document, for the tables of malformed and non-finite input
def _without(key):
    return lambda doc: {k: v for k, v in doc.items() if k != key}


def _with(**changes):
    return lambda doc: {**doc, **changes}


EXP = {"kind": "exponential", "alpha": 1.0}


class TestParsing:
    def test_canonical_roundtrip(self, canonical_file):
        sc = parse_scenario(canonical_file)
        assert sc.spec.nagents == 2
        assert sc.sigma_h is None
        np.testing.assert_allclose(sc.spec.x, CANONICAL_DOC["x"])

    def test_schema_error_reports_field_path(self, tmp_path):
        path = write_doc(tmp_path, "bad.json",
                         agents=[{"kind": "quadratic"}])
        with pytest.raises(ScenarioError, match="agents/0/kind"):
            parse_scenario(path)

    def test_missing_parameter(self, tmp_path):
        path = write_doc(tmp_path, "bad.json",
                         agents=[{"kind": "exponential"},
                                 {"kind": "exponential", "alpha": 1.0}])
        with pytest.raises(ScenarioError, match="alpha"):
            parse_scenario(path)

    def test_invalid_json_reports_line(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{ not json")
        with pytest.raises(ScenarioError, match="line"):
            parse_scenario(str(path))

    def test_ragged_matrix_rejected(self, tmp_path):
        path = write_doc(tmp_path, "ragged.json", x=[[1.0, -1.0], [0.0]])
        with pytest.raises(ScenarioError, match="rectangular"):
            parse_scenario(path)

    def test_lambda_and_sigma_h(self, tmp_path):
        path = write_doc(
            tmp_path, "full.json",
            sigma_h=[[0, 1]],
            sigma_g=[[0], [1]],
            b=[-2.0, -2.0],
            **{"lambda": {"kind": "composite",
                          "u": {"kind": "exponential", "alpha": 1.0,
                                "shifted": True},
                          "weights": [0.5, 0.5]}})
        sc = parse_scenario(path)
        assert sc.sigma_h is not None
        assert not sc.spec.aggregator.separable

    def test_tolerances(self, tmp_path):
        path = write_doc(tmp_path, "tol.json",
                         tolerances={"kkt_tol": 1e-8, "max_iter": 50})
        sc = parse_scenario(path)
        assert sc.spec.kkt_tol == 1e-8 and sc.spec.max_iter == 50

    def test_integral_float_max_iter(self, tmp_path, capsys):
        # JSON Schema's integer admits 200.0; the solver needs an int
        reports = []
        for value in (200, 200.0):
            path = write_doc(tmp_path, f"tol{value}.json",
                             tolerances={"max_iter": value})
            assert main(["risk", path]) == 0
            reports.append(capsys.readouterr().out)
        assert reports[0] == reports[1]


class TestCliCommands:
    def test_risk_report(self, canonical_file, capsys):
        assert main(["risk", canonical_file]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["pass"] is True
        assert report["rho"]["block0"] == "0.240229013917"
        assert report["axioms"]["passed"] is True

    def test_dual_report(self, canonical_file, capsys):
        assert main(["dual", canonical_file]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["in_q1"] is True
        assert report["alpha1"]["block0"] == "0.221888143343"
        assert abs(float(report["gap"]["block0"])) <= 5e-9

    def test_expcheck_report(self, canonical_file, capsys):
        assert main(["expcheck", canonical_file]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["pass"] is True
        assert float(report["deltas"]["rho_max_rel"]) <= 1e-6

    def test_msorte_report(self, canonical_file, capsys):
        assert main(["msorte", canonical_file]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["pass"] is True
        assert report["pi_value"]["block0"] == "-2"

    def test_consistency_report(self, tmp_path, capsys):
        path = write_doc(tmp_path, "chain.json",
                         atoms={"labels": ["a", "b", "c", "d"],
                                "probs": [0.25, 0.25, 0.25, 0.25]},
                         sigma_g=[[0, 1], [2, 3]],
                         sigma_h=[[0, 1, 2, 3]],
                         x=[[0.5, -0.5, 1.0, 0.0], [0.0, 0.2, -0.4, 0.3]],
                         b=[-2.0, -2.0, -2.0, -2.0])
        assert main(["consistency", str(path)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["pass"] is True
        assert report["closed_form"]["passed"] is True
        assert report["solver"]["passed"] is True

    @pytest.mark.parametrize("argv, tolerances, expected", [
        ([], None, (1e-9, 200)),
        (["--tol", "1e-7"], None, (1e-7, 200)),
        ([], {"kkt_tol": 1e-8, "max_iter": 150}, (1e-8, 150)),
    ])
    def test_consistency_solver_tolerances(self, tmp_path, capsys,
                                           monkeypatch, argv, tolerances,
                                           expected):
        import condrisk.consistency as cons
        seen, real = [], cons.solve_rho

        def recording(spec):
            seen.append((spec.kkt_tol, spec.max_iter))
            return real(spec)

        monkeypatch.setattr(cons, "solve_rho", recording)
        extra = {} if tolerances is None else {"tolerances": tolerances}
        path = write_doc(tmp_path, "chain.json",
                         atoms={"labels": ["a", "b", "c", "d"],
                                "probs": [0.25, 0.25, 0.25, 0.25]},
                         sigma_g=[[0, 1], [2, 3]],
                         sigma_h=[[0, 1, 2, 3]],
                         x=[[0.5, -0.5, 1.0, 0.0], [0.0, 0.2, -0.4, 0.3]],
                         b=[-2.0, -2.0, -2.0, -2.0], **extra)
        assert main(["consistency", path] + argv) == 0
        capsys.readouterr()
        assert seen and set(seen) == {expected}

    def test_consistency_requires_sigma_h(self, canonical_file, capsys):
        assert main(["consistency", canonical_file]) == 2

    def test_oracle_report(self, canonical_file, capsys):
        assert main(["oracle", canonical_file, "--step", "0.005"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["pass"] is True
        assert float(report["max_dev_rho"]) <= 0.01

    def test_expcheck_rejects_nonexponential(self, tmp_path, capsys):
        path = write_doc(tmp_path, "rp.json",
                         agents=[{"kind": "rational_power", "p": 2.0},
                                 {"kind": "rational_power", "p": 2.0}],
                         b=[-3.0, -3.0])
        assert main(["expcheck", str(path)]) == 2


class TestCompositeScenario:
    def test_dual_closes_the_gap(self, capsys):
        # a wide block with an interdependence term on which an inexact
        # gradient inversion left a duality gap of about 1
        scenarios = Path(__file__).resolve().parents[1] / "scenarios"
        assert main(["dual", str(scenarios / "composite.json")]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["pass"] is True
        assert abs(float(report["gap"]["block0"])) <= 5e-9


class TestCliErrors:
    def test_schema_error_exit_code(self, tmp_path, capsys):
        path = write_doc(tmp_path, "bad.json",
                         agents=[{"kind": "quadratic"}])
        assert main(["risk", str(path)]) == 1
        assert "scenario error" in capsys.readouterr().err

    def test_invariant_violation_exit_code(self, tmp_path, capsys):
        path = write_doc(tmp_path, "posb.json", b=[1.0, 1.0])
        assert main(["risk", str(path)]) == 2
        err = capsys.readouterr().err
        assert "supremum" in err

    @pytest.mark.parametrize("edit, message", [
        (_with(atoms={"labels": ["w0", "w1"], "probs": [math.nan, 0.5]}),
         "non-finite atom probabilities"),
        (_with(agents=[{**EXP, "alpha": math.nan}, EXP]),
         "alpha must be finite"),
        (_with(**{"lambda": {"kind": "composite", "weights": [0.5, math.inf],
                             "u": {**EXP, "shifted": True}}}),
         "lambda weights must be finite"),
        (_with(x=[[1.0, math.nan], [0.0, 0.0]]), "non-finite"),
    ], ids=["probs", "alpha", "weights", "x"])
    def test_non_finite_input_exit_code(self, tmp_path, capsys, edit,
                                        message):
        path = tmp_path / "nonfinite.json"
        # json writes NaN and Infinity, and reads them back
        path.write_text(json.dumps(edit(CANONICAL_DOC)))
        assert main(["risk", str(path)]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("agent", [
        {"kind": "exponential", "alpha": 2 ** 64},
        {"kind": "rational_power", "p": 2 ** 64},
        {"kind": "arctan_power", "p": 2 ** 64},
    ], ids=["alpha", "rational_power", "arctan_power"])
    def test_integer_beyond_int64_exit_code(self, tmp_path, capsys, agent):
        # json reads 2**64 as a Python int that numpy holds only as an
        # object; the CLI must still end with one of its exit codes, and
        # the bracket search of the start may overflow without a warning
        path = write_doc(tmp_path, "bigint.json", agents=[agent, EXP])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["risk", str(path)]) in (2, 3)
        assert capsys.readouterr().err.startswith(
            ("invariant violation", "convergence failure"))

    BEYOND_FLOAT = int("9" * 401)

    @pytest.mark.parametrize("edit, message", [
        (_with(b=[-BEYOND_FLOAT, -BEYOND_FLOAT]),
         "threshold contains non-finite"),
        (_with(x=[[BEYOND_FLOAT, -1.0], [0.0, 0.0]]),
         "positions contains non-finite"),
        (_with(atoms={"labels": ["w0", "w1"], "probs": [BEYOND_FLOAT, 0.5]}),
         "non-finite atom probabilities"),
        (_with(agents=[{**EXP, "alpha": BEYOND_FLOAT}, EXP]),
         "alpha must be finite"),
        (_with(agents=[{"kind": "rational_power", "p": BEYOND_FLOAT}, EXP]),
         "p must be finite"),
        (_with(**{"lambda": {"kind": "composite",
                             "weights": [0.5, BEYOND_FLOAT],
                             "u": {**EXP, "shifted": True}}}),
         "lambda weights must be finite"),
    ], ids=["b", "x", "probs", "alpha", "p", "weights"])
    def test_integer_beyond_float_range_exit_code(self, tmp_path, capsys,
                                                  edit, message):
        # json reads such an integer exactly; as a float it is infinite
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(edit(CANONICAL_DOC)))
        assert main(["risk", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("invariant violation") and message in err

    def test_unmeasurable_threshold_exit_code(self, tmp_path):
        path = write_doc(tmp_path, "umb.json", b=[-2.0, -1.0])
        assert main(["risk", str(path)]) == 2

    @pytest.mark.parametrize("tol", ["inf", "nan", "-1", "0"])
    def test_bad_tolerance_exit_code(self, canonical_file, capsys, tol):
        assert main(["risk", canonical_file, "--tol", tol]) == 2
        assert "kkt_tol" in capsys.readouterr().err

    def test_convergence_failure_exit_code(self, canonical_file, monkeypatch,
                                           capsys):
        from condrisk.primal import ConvergenceError
        import condrisk.cli as cli

        def boom(spec, start=None):
            raise ConvergenceError("stalled", residual=1.0)

        monkeypatch.setattr(cli, "solve_rho", boom)
        assert main(["risk", canonical_file]) == 3
        assert "convergence failure" in capsys.readouterr().err

    def test_inversion_failure_exit_code(self, canonical_file, monkeypatch,
                                         capsys):
        from condrisk import InversionError
        import condrisk.cli as cli

        def boom(sol, spec):
            raise InversionError("multiplier root find stopped on a jump")

        monkeypatch.setattr(cli, "extract_dual_optimizer", boom)
        assert main(["dual", canonical_file]) == 3
        assert "convergence failure" in capsys.readouterr().err


# One structural violation per document: (edit of the canonical document,
# field the error names); an accepted variant names None instead and must
# give the canonical report.
DOCUMENT_TABLE = {
    "root_not_object": (lambda doc: [doc], "<root>"),
    "unknown_root_key": (_with(extra=1), "<root>"),
    "missing_b": (_without("b"), "<root>"),
    "missing_probs": (_with(atoms={"labels": ["w0", "w1"]}), "atoms"),
    "label_not_string": (_with(atoms={"labels": [0, "w1"],
                                      "probs": [0.5, 0.5]}),
                         "atoms/labels/0"),
    "probability_string": (_with(atoms={"labels": ["w0", "w1"],
                                        "probs": ["0.5", 0.5]}),
                           "atoms/probs/0"),
    "boolean_in_x": (_with(x=[[1.0, -1.0], [0.0, True]]), "x/1/1"),
    "fractional_block_index": (_with(sigma_g=[[0, 1.5]]), "sigma_g/0/1"),
    "ragged_x": (_with(x=[[1.0, -1.0], [0.0]]), "x"),
    "no_agents": (_with(agents=[]), "agents"),
    "unknown_kind": (_with(agents=[EXP, {"kind": "quadratic"}]),
                     "agents/1/kind"),
    "alpha_string": (_with(agents=[{"kind": "exponential", "alpha": "1"},
                                   EXP]), "agents/0/alpha"),
    "shifted_not_boolean": (_with(agents=[EXP, {**EXP, "shifted": 1}]),
                            "agents/1/shifted"),
    "lambda_kind": (_with(**{"lambda": {"kind": "linear"}}), "lambda/kind"),
    "lambda_extra_key": (_with(**{"lambda": {"kind": "zero", "beta": 1}}),
                         "lambda"),
    "kkt_tol_zero": (_with(tolerances={"kkt_tol": 0}), "tolerances/kkt_tol"),
    "max_iter_zero": (_with(tolerances={"max_iter": 0}),
                      "tolerances/max_iter"),
    "max_iter_string": (_with(tolerances={"max_iter": "5"}),
                        "tolerances/max_iter"),
    "integral_float_blocks": (_with(sigma_g=[[0.0, 1.0]]), None),
    "integral_float_clusters": (_with(clusters=[[0.0, 1]]), None),
}


@pytest.mark.parametrize("name", sorted(DOCUMENT_TABLE))
def test_document_table(tmp_path, capsys, name):
    edit, field = DOCUMENT_TABLE[name]
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(edit(json.loads(json.dumps(CANONICAL_DOC)))))
    code = main(["risk", str(path)])
    out, err = capsys.readouterr()
    if field is None:
        assert code == 0
        assert main(["risk", write_doc(tmp_path, "canonical.json")]) == 0
        assert out == capsys.readouterr().out
    else:
        assert code == 1
        assert f"field '{field}'" in err


class TestDeterminism:
    def test_reports_byte_identical(self, canonical_file, tmp_path):
        out1 = tmp_path / "r1.json"
        out2 = tmp_path / "r2.json"
        assert main(["dual", canonical_file, "--out", str(out1)]) == 0
        assert main(["dual", canonical_file, "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_thread_count_does_not_change_results(self, tmp_path,
                                                  monkeypatch):
        doc = json.loads(json.dumps(CANONICAL_DOC))
        doc["atoms"] = {"labels": ["a", "b", "c", "d"],
                        "probs": [0.1, 0.2, 0.3, 0.4]}
        doc["sigma_g"] = [[0, 1], [2, 3]]
        doc["x"] = [[0.5, -0.5, 1.0, 0.0], [0.0, 0.2, -0.4, 0.3]]
        doc["b"] = [-2.0, -2.0, -1.5, -1.5]
        path = tmp_path / "multi.json"
        path.write_text(json.dumps(doc))
        serial = tmp_path / "serial.json"
        threaded = tmp_path / "threaded.json"
        monkeypatch.delenv("CONDRISK_THREADS", raising=False)
        assert main(["risk", str(path), "--out", str(serial)]) == 0
        monkeypatch.setenv("CONDRISK_THREADS", "4")
        assert main(["risk", str(path), "--out", str(threaded)]) == 0
        assert serial.read_bytes() == threaded.read_bytes()

    def test_twelve_significant_digits(self, canonical_file, capsys):
        assert main(["risk", canonical_file]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["rho"]["block0"] == "%.12g" % CANONICAL["rho"]


def test_import_loads_no_scipy():
    """numpy is the only runtime dependency: importing the package and its
    CLI loads no top-level module outside the standard library but numpy
    and condrisk itself (scipy, for one, is a test dependency only)."""
    src = Path(condrisk.__file__).resolve().parent.parent
    # modules the interpreter loaded at start-up (a site hook, say) are
    # not the package's
    code = ("import sys; before = set(sys.modules)\n"
            "import condrisk, condrisk.cli\n"
            "print(sorted({m.split('.')[0] for m in set(sys.modules) - before}"
            " - set(sys.stdlib_module_names) - {'numpy', 'condrisk'}))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, timeout=120,
                         env={**os.environ, "PYTHONPATH": str(src)})
    assert out.stdout.strip() == "[]"
