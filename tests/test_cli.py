import dataclasses
import json
import random
from pathlib import Path

import pytest

from superproj import thomas
from superproj.cli import (
    CHECK_HANDLERS,
    emit_report,
    emit_scenario,
    main,
    parse_scenario,
    run_checks,
)
from superproj.errors import ParseError, ValidationError

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

MINIMAL = '{"dimension": {"n": 1, "m": 1}}'

DARBOUX = """{
  "dimension": {"n": 1, "m": 1},
  "tensors": {"S": {"parity": "odd", "components": {"1,2": "1"}}},
  "projective_classes": {"Pi0": {}},
  "triples": {"T": {"s": "S", "gamma": {}, "theta": "0",
                    "parity": "odd", "weight": "0"}},
  "volume_forms": {"rho": "1"},
  "checks": [
    {"check": "bv_check", "tensor": "S", "projective_class": "Pi0"},
    {"check": "density_jacobi", "triple": "T"}
  ]
}"""

MIXED_SINGULAR = """{
  "dimension": {"n": 1, "m": 2},
  "connections": {"Gamma": {"1,1,1": "x1"}},
  "tensors": {"S": {"parity": "odd", "components": {"1,2": "1"}}},
  "triples": {"T": {"s": "S", "gamma": {}, "theta": "0",
                    "parity": "odd", "weight": "0"}},
  "checks": [
    {"check": "projective_class", "connection": "Gamma"},
    {"check": "density_jacobi", "triple": "T"},
    {"check": "canonical_operator", "triple": "T"}
  ]
}"""


class TestParseScenario:
    def test_minimal(self):
        s = parse_scenario(MINIMAL)
        assert s.dim.n == 1 and s.dim.m == 1
        assert not s.checks

    def test_graded_symmetry_violation_names_indices(self):
        doc = """{
          "dimension": {"n": 2, "m": 0},
          "connections": {"G": {"1,1,2": "x1", "1,2,1": "x2"}}
        }"""
        with pytest.raises(ValidationError) as err:
            parse_scenario(doc)
        assert "graded symmetry" in str(err.value)

    def test_symmetric_mirror_autofilled(self):
        doc = """{
          "dimension": {"n": 2, "m": 0},
          "connections": {"G": {"1,1,2": "x1"}}
        }"""
        s = parse_scenario(doc)
        g = s.connections["G"]
        assert g.component(0, 1, 0) == g.component(0, 0, 1)

    def test_bad_json_carries_position(self):
        with pytest.raises(ParseError) as err:
            parse_scenario("{\n  \"dimension\": }")
        assert err.value.line == 2

    def test_unresolved_name(self):
        doc = """{
          "dimension": {"n": 1, "m": 1},
          "checks": [{"check": "projective_class", "connection": "nope"}]
        }"""
        with pytest.raises(ValidationError) as err:
            parse_scenario(doc)
        assert "unresolved" in str(err.value)

    def test_unknown_check(self):
        doc = """{
          "dimension": {"n": 1, "m": 1},
          "checks": [{"check": "fly_to_the_moon"}]
        }"""
        with pytest.raises(ValidationError):
            parse_scenario(doc)

    def test_bad_expression_names_location(self):
        doc = """{
          "dimension": {"n": 1, "m": 1},
          "expressions": {"f": "x1 + ("}
        }"""
        with pytest.raises(ValidationError) as err:
            parse_scenario(doc)
        assert "expressions.f" in str(err.value)

    @pytest.mark.parametrize("fields, where", [
        ({"dimension": {"n": "a", "m": 1}}, "dimension.n"),
        ({"dimension": {"n": -1, "m": 1}}, "dimension.n"),
        ({"expressions": ["x1"]}, "expressions"),
        ({"tensors": {"S": "x1"}}, "tensors.S"),
        ({"connections": {"G": {}},
          "checks": [{"check": "projective_class", "connection": ["G"]}]},
         "connection"),
        ({"tensors": {"S": {}}, "projective_classes": {"Pi": {}},
          "checks": [{"check": "extension_consistency", "tensor": "S",
                      "projective_class": "Pi", "weight": [1]}]},
         "checks[0] (extension_consistency): weight"),
        ({"tensors": {"S": {"parity": ["odd"]}}}, "tensors.S"),
        ({"tensors": {"S": {}}, "triples": {"T": {"s": "S", "parity": {"odd": 1}}}},
         "triples.T"),
        ({"tensors": {"S": {}}, "triples": {"T": {"s": ["S"]}}}, "triples.T"),
        ({"checks": [{"check": ["bv_check"]}]}, "checks[0]"),
    ])
    def test_malformed_field_is_named(self, fields, where):
        doc = {"dimension": {"n": 1, "m": 1}, **fields}
        with pytest.raises(ValidationError) as err:
            parse_scenario(json.dumps(doc))
        assert where in str(err.value)


class TestRoundTrip:
    def test_emit_reparse_equal(self):
        s1 = parse_scenario(DARBOUX)
        s2 = parse_scenario(emit_scenario(s1))
        assert s1 == s2

    def test_random_scenarios_round_trip(self):
        rng = random.Random(81)
        for _ in range(5):
            n, m = rng.choice([(1, 1), (2, 0), (2, 2)])
            doc = {
                "dimension": {"n": n, "m": m},
                "expressions": {"f": "x1^2 + 1"},
                "connections": {"G": {"1,1,1": "x1"}},
                "checks": [
                    {"check": "projective_class", "connection": "G"},
                ],
            }
            if m:
                doc["tensors"] = {
                    "S": {"parity": "odd", "components": {"1," + str(n + 1): "1"}}}
            s1 = parse_scenario(json.dumps(doc))
            assert parse_scenario(emit_scenario(s1)) == s1


class TestRunChecks:
    def test_error_isolation(self):
        s = parse_scenario(MIXED_SINGULAR)
        report = run_checks(s)
        verdicts = {e["check"]: e["verdict"] for e in report.checks}
        assert verdicts["projective_class"] == "error"
        assert verdicts["density_jacobi"] == "pass"
        assert verdicts["canonical_operator"] == "pass"
        first = report.checks[0]
        assert "SingularDimension" in first["error"]

    def test_declaration_order_preserved(self):
        s = parse_scenario(MIXED_SINGULAR)
        report = run_checks(s)
        assert [e["check"] for e in report.checks] == [
            "projective_class", "density_jacobi", "canonical_operator"]

    def test_only_filter(self):
        s = parse_scenario(MIXED_SINGULAR)
        report = run_checks(s, only={"density_jacobi"})
        assert [e["check"] for e in report.checks] == ["density_jacobi"]

    def test_pass_records_components(self):
        doc = """{
          "dimension": {"n": 2, "m": 0},
          "connections": {"G": {}},
          "checks": [{"check": "projective_class", "connection": "G"}]
        }"""
        report = run_checks(parse_scenario(doc))
        assert report.checks[0]["verdict"] == "pass"
        assert report.checks[0]["info"]["components"] == {}

    def test_any_exception_is_isolated(self, monkeypatch):
        s = parse_scenario((SCENARIOS / "error_isolation.json").read_text())

        def boom(scenario, chk):
            raise ZeroDivisionError("planted")

        monkeypatch.setitem(CHECK_HANDLERS, "density_jacobi", dataclasses.replace(
            CHECK_HANDLERS["density_jacobi"], run=boom))
        report = run_checks(s)
        verdicts = [(e["check"], e["verdict"]) for e in report.checks]
        assert verdicts == [("projective_class", "error"),
                            ("density_jacobi", "error"),
                            ("canonical_operator", "pass")]
        assert report.checks[1]["error"] == "ZeroDivisionError: planted"

    def test_extension_consistency_computes_tilde_ricci_once(self, monkeypatch):
        s = parse_scenario((SCENARIOS / "thomas_2_2.json").read_text())
        calls = []
        real = thomas.tilde_ricci

        def counting(pi):
            calls.append(pi)
            return real(pi)

        monkeypatch.setattr(thomas, "tilde_ricci", counting)
        report = run_checks(s, only={"extension_consistency"})
        assert [e["verdict"] for e in report.checks] == ["pass"]
        assert len(calls) == len(report.checks)


class TestEmitReport:
    def _strip_durations(self, text):
        doc = json.loads(text)
        for entry in doc["checks"]:
            entry.pop("duration_ms", None)
        return json.dumps(doc, sort_keys=True)

    def test_json_deterministic(self):
        s = parse_scenario(DARBOUX)
        r1 = self._strip_durations(emit_report(run_checks(s), "json"))
        r2 = self._strip_durations(emit_report(run_checks(s), "json"))
        assert r1 == r2

    def test_json_round_trip_structure(self):
        s = parse_scenario(DARBOUX)
        doc = json.loads(emit_report(run_checks(s), "json"))
        assert doc["dimension"] == "1|1"
        assert all("verdict" in e for e in doc["checks"])

    def test_text_contains_residuals(self):
        doc = """{
          "dimension": {"n": 2, "m": 0},
          "connections": {
            "G": {},
            "H": {"1,1,2": "x1", "1,2,1": "x1"}
          },
          "checks": [{"check": "projectively_equivalent",
                      "left": "G", "right": "H"}]
        }"""
        report = run_checks(parse_scenario(doc))
        text = emit_report(report, "text")
        assert "[FAIL]" in text and "residual" in text

    def test_empty_report_header_only(self):
        s = parse_scenario(MINIMAL)
        text = emit_report(run_checks(s), "text")
        assert text.startswith("scenario dimension 1|1")
        assert "(no checks)" in text


class TestMain:
    def test_exit_codes(self, tmp_path, capsys):
        good = tmp_path / "good.json"
        good.write_text(DARBOUX)
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        invalid = tmp_path / "invalid.json"
        invalid.write_text('{"dimension": {"n": 1}}')
        assert main(["run", str(good), "--format", "json"]) == 0
        capsys.readouterr()
        assert main(["validate", str(good)]) == 0
        capsys.readouterr()
        assert main(["run", str(bad)]) == 1
        assert main(["run", str(invalid)]) == 1
        assert main(["run", str(tmp_path / "missing.json")]) == 1
        capsys.readouterr()
        assert main(["grammar"]) == 0

    def test_singular_check_still_exits_zero(self, tmp_path, capsys):
        path = tmp_path / "mixed.json"
        path.write_text(MIXED_SINGULAR)
        assert main(["run", str(path)]) == 0
        out = capsys.readouterr().out
        assert "[ERROR]" in out and "[PASS]" in out
