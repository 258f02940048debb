import copy
import dataclasses
import decimal
import inspect
import json
import random
import re
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from superproj import cli, geometry, poisson_bv, thomas
from superproj.cli import (
    CHECK_HANDLERS,
    _intertwining_conditions,
    _residual_map,
    emit_report,
    emit_scenario,
    main,
    parse_scenario,
    run_checks,
)
from superproj.densities import (
    DensityElement,
    DensityOperator,
    canonical_operator,
    density_test_family,
    formal_adjoint,
    generated_bracket,
    projective_laplacian,
)
from superproj.errors import ParseError, ValidationError
from superproj.expressions import MAX_TERMS, parse_expression
from superproj.geometry import (
    Connection,
    CoordinateChange,
    ProjectiveClass,
    Sym2Upper,
    new_chart_partial,
    projective_class,
    schwarzian_defect,
    transform_connection,
    transform_sym2cov,
    transform_upper2,
)
from superproj.graded_algebra import Dimension, Substitution, SuperFunction

from helpers import (
    product_of_term_pairs,
    rand_connection,
    rand_linear_change,
    rand_moebius_change,
    rand_projective_class,
    rand_super,
    rand_triangular_change,
    rand_triple,
    rand_upper,
)

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
        # an odd-odd key takes the mirror sign: S^{32} = -S^{23} at 1|2
        doc = """{
          "dimension": {"n": 1, "m": 2},
          "tensors": {"S": {"components": {"2,3": "x1"}}}
        }"""
        s = parse_scenario(doc).tensors["S"]
        assert s.component(2, 1) == -s.component(1, 2)
        assert s.component(2, 1) == parse_expression(s.dim, "-x1")
        # an odd diagonal key is its own mirror, so a nonzero one is refused
        for parity, text in (("even", "x1"), ("odd", "th2")):
            doc = f"""{{
              "dimension": {{"n": 1, "m": 2}},
              "tensors": {{"S": {{"parity": "{parity}",
                                 "components": {{"2,2": "{text}"}}}}}}
            }}"""
            with pytest.raises(ValidationError) as err:
                parse_scenario(doc)
            assert str(err.value) == "tensors.S: graded symmetry fails at (1,1)"

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

    def test_unknown_argument(self, tmp_path, capsys):
        doc = json.dumps({
            "dimension": {"n": 1, "m": 0},
            "connections": {"G": {"1,1,1": "x1"}},
            "changes": {"c": {"forward": ["2*x1"], "inverse": ["x1/2"]}},
            "checks": [{"check": "schwarzian_defect", "change": "c",
                        "conection": "G"}]})
        message = ("checks[0] (schwarzian_defect): unknown argument "
                   "'conection'; known: change, connection")
        with pytest.raises(ValidationError, match=re.escape(message)):
            parse_scenario(doc)
        path = tmp_path / "typo.json"
        path.write_text(doc)
        for command in ("validate", "run"):
            assert main([command, str(path)]) == 1
            assert message in capsys.readouterr().err

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

    @pytest.mark.parametrize("fields, message", [
        ({"changes": {"c": {"forward": "x1", "inverse": ["x1", "th1"]}}},
         "changes.c: forward must list 2 expressions"),
        ({"changes": {"c": {}}}, "changes.c: forward must list 2 expressions"),
        ({"changes": {"c": {"forward": ["x1"]}}},
         "changes.c: forward must list 2 expressions"),
        ({"changes": {"c": {"forward": ["x1", "th1"], "inverse": "x1"}}},
         "changes.c: inverse must list 2 expressions"),
        ({"changes": {"c": {"forward": ["x1", "th1"],
                            "inverse": ["x1", "th1", "x1"]}}},
         "changes.c: inverse must list 2 expressions"),
        ({"changes": {"c": {"forward": ["x1 +", "th1"]}}},
         "changes.c.forward: unexpected token '' (line 1, column 4)"),
        ({"changes": {"c": {"forward": [1, "th1"]}}},
         "changes.c.forward: expected an expression string"),
        ({"changes": {"c": {"forward": ["x1", "th1"], "inverse": ["x1", "y"]}}},
         "changes.c.inverse: unknown coordinate 'y' (line 1, column 0)"),
        ({"changes": {"c": {"forward": "x1", "inverse": 3}}},
         "changes.c: forward must list 2 expressions"),
        ({"changes": {"c": {"forward": ["x1", "("], "inverse": ["(", "th1"]}}},
         "changes.c.forward: unexpected token '' (line 1, column 1)"),
        ({"changes": {"c": {"forward": ["x1", "("], "inverse": "x1"}}},
         "changes.c.forward: unexpected token '' (line 1, column 1)"),
        ({"tensors": {"S": {}}, "triples": {"T": {"s": "S", "gamma": ["x1"]}}},
         "triples.T.gamma: expected a JSON object"),
        ({"tensors": {"S": {}}, "triples": {"T": {"s": "S", "gamma": {"3": "x1"}}}},
         "triples.T.gamma: key '3' has index '3' out of range 1..2"),
        ({"tensors": {"S": {}},
          "triples": {"T": {"s": "S", "gamma": {"1,1": "x1"}}}},
         "triples.T.gamma: key '1,1' must have 1 indices"),
        ({"tensors": {"S": {}},
          "triples": {"T": {"s": "S", "gamma": {"2": "x1 *"}}}},
         "triples.T.gamma[2]: unexpected token '' (line 1, column 4)"),
    ], ids=["forward_not_list", "forward_missing", "forward_short",
            "inverse_not_list", "inverse_long", "forward_bad_expression",
            "forward_not_string", "inverse_bad_expression", "both_malformed",
            "both_bad_expressions", "forward_expression_first",
            "gamma_not_object", "gamma_bad_key", "gamma_key_arity",
            "gamma_bad_expression"])
    def test_change_and_gamma_messages(self, fields, message):
        doc = {"dimension": {"n": 1, "m": 1}, **fields}
        with pytest.raises(ValidationError) as err:
            parse_scenario(json.dumps(doc))
        assert str(err.value) == message


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


SECTIONED = {
    "dimension": {"n": 1, "m": 1},
    "expressions": {"f": "x1^2 + 1"},
    "tensors": {"S": {"parity": "odd", "components": {"1,2": "1"}},
                "Z": {"parity": "even", "components": {}}},
    "changes": {"c": {"forward": ["2*x1", "th1"], "inverse": ["x1/2", "th1"]}},
    "triples": {"T": {"s": "S", "gamma": {}, "theta": "0",
                      "parity": "odd", "weight": "0"}},
}


class TestScenarioEquality:
    def test_same_document_equal(self):
        text = json.dumps(SECTIONED)
        assert parse_scenario(text) == parse_scenario(text)

    @pytest.mark.parametrize("path, value", [
        (("expressions", "f"), "x1^2 + 2"),
        (("tensors", "Z", "parity"), "odd"),
        (("changes", "c", "inverse"), None),
        (("triples", "T", "weight"), "1/2"),
    ])
    def test_one_section_differs(self, path, value):
        doc = copy.deepcopy(SECTIONED)
        *head, last = path
        node = doc
        for key in head:
            node = node[key]
        node[last] = value
        assert parse_scenario(json.dumps(doc)) != parse_scenario(
            json.dumps(SECTIONED))


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

        def boom(*arguments):
            raise ZeroDivisionError("planted")

        monkeypatch.setitem(CHECK_HANDLERS, "density_jacobi", dataclasses.replace(
            CHECK_HANDLERS["density_jacobi"], run=boom))
        report = run_checks(s)
        verdicts = [(e["check"], e["verdict"]) for e in report.checks]
        assert verdicts == [("projective_class", "error"),
                            ("density_jacobi", "error"),
                            ("canonical_operator", "pass")]
        assert report.checks[1]["error"] == "ZeroDivisionError: planted"

    def test_kernel_objects_stay_out_of_info(self, monkeypatch):
        s = parse_scenario(DARBOUX)
        one = SuperFunction.one(s.dim)

        def planted(*arguments):
            return {"zero": SuperFunction.zero(s.dim)}, {
                "witness": (DensityElement.of(one),), "flag": True,
                "order": 2, "name": "x", "table": {"1": "x1"},
                "function": one}

        monkeypatch.setitem(CHECK_HANDLERS, "density_jacobi", dataclasses.replace(
            CHECK_HANDLERS["density_jacobi"], run=planted))
        entry = run_checks(s, only={"density_jacobi"}).checks[0]
        assert entry["verdict"] == "pass" and "residuals" not in entry
        assert entry["info"] == {"flag": True, "order": 2, "name": "x",
                                 "table": {"1": "x1"}}
        json.dumps(entry)

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

    def test_check_weight_is_parsed_once(self, monkeypatch):
        calls = []
        real = cli._parse_fraction

        def counting(text, where):
            calls.append(where)
            return real(text, where)

        monkeypatch.setattr(cli, "_parse_fraction", counting)
        s = parse_scenario((SCENARIOS / "thomas_2_2.json").read_text())
        before = len(calls)
        entry = run_checks(s, only={"extension_consistency"}).checks[0]
        assert entry["verdict"] == "pass" and entry["weight"] == "1/2"
        assert len(calls) == before
        assert [w for w in calls if "extension_consistency" in w] == [
            "checks[3] (extension_consistency): weight"]
        assert_resolved(s)
        assert s.checks[3][1][2] == Fraction(1, 2)

    @pytest.mark.parametrize("n, m, inverse, error", [
        (1, 1, None, "NotInvertible: coordinate change lacks an explicit "
                     "inverse map"),
        (1, 2, ["x1/2", "th1", "th2 - th1"],
         "SingularDimension: n - m = -1: trace projection undefined"),
        (1, 2, None, "NotInvertible: coordinate change lacks an explicit "
                     "inverse map"),
    ])
    @pytest.mark.parametrize("connection", [None, {"1,1,1": "x1"}])
    def test_schwarzian_defect_error_precedence(self, n, m, inverse, error,
                                                connection):
        forward = ["2*x1", "th1", "th1 + th2"][:n + m]
        change = {"forward": forward}
        if inverse is not None:
            change["inverse"] = inverse
        check = {"check": "schwarzian_defect", "change": "c"}
        doc = {"dimension": {"n": n, "m": m}, "changes": {"c": change},
               "checks": [check]}
        if connection is not None:
            doc["connections"] = {"G": connection}
            check["connection"] = "G"
        entry = run_checks(parse_scenario(json.dumps(doc))).checks[0]
        assert (entry["verdict"], entry["error"]) == ("error", error)

    @pytest.mark.parametrize("n, m, inverse, error", [
        (1, 1, None, "NotInvertible: coordinate change lacks an explicit "
                     "inverse map"),
        (1, 2, ["x1/2", "th1", "th2 - th1"],
         "SingularDimension: n - m = -1: projective Laplacian undefined"),
        (1, 2, None,
         "SingularDimension: n - m = -1: projective Laplacian undefined"),
        (0, 3, ["th1", "th2 - th1", "th3"],
         "SingularDimension: n - m = -3: projective Laplacian undefined"),
        (0, 3, None,
         "SingularDimension: n - m = -3: projective Laplacian undefined"),
    ])
    def test_laplacian_invariance_error_precedence(self, n, m, inverse, error):
        forward = (["2*x1"] * n + ["th1", "th1 + th2", "th3"])[:n + m]
        change = {"forward": forward}
        if inverse is not None:
            change["inverse"] = inverse
        doc = {"dimension": {"n": n, "m": m}, "changes": {"c": change},
               "tensors": {"S": {"components": {}}},
               "projective_classes": {"P": {}},
               "checks": [{"check": "laplacian_invariance", "tensor": "S",
                           "projective_class": "P", "change": "c"}]}
        entry = run_checks(parse_scenario(json.dumps(doc))).checks[0]
        assert (entry["verdict"], entry["error"]) == ("error", error)

    def test_handler_parameters_match_arguments(self):
        # run(*arguments) takes the requires, then the optional arguments,
        # and has defaults on exactly the optional ones, of which a kind has
        # at most one
        for kind, handler in CHECK_HANDLERS.items():
            params = inspect.signature(handler.run).parameters.values()
            assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in params), kind
            assert [p.default is not p.empty for p in params] == (
                [False] * len(handler.requires)
                + [True] * len(handler.optional)), kind
            assert len(handler.optional) <= 1, kind

    @pytest.mark.parametrize("kind, name", [
        ("bv_check", "bv_check"), ("density_jacobi", "density_jacobi_check"),
        ("symplectic_canonical", "symplectic_canonical_check"),
        ("projective_poisson", "projective_poisson_check")])
    def test_poisson_bv_checks_are_looked_up_per_call(self, monkeypatch,
                                                       kind, name):
        s = parse_scenario((SCENARIOS / "bv_darboux_1_1.json").read_text())
        calls = []

        def planted(*arguments):
            calls.append(arguments)
            return {}, {"planted": True}

        monkeypatch.setattr(poisson_bv, name, planted)
        entry = run_checks(s, only={kind}).checks[0]
        assert entry["verdict"] == "pass" and entry["info"] == {"planted": True}
        assert calls == [next(arguments for items, arguments in s.checks
                              if dict(items)["check"] == kind)]


def assert_resolved(s):
    """Each check's resolved arguments are the scenario's own objects for
    its named arguments and Fractions for its rational ones, in the order
    of the handler's requires and optional arguments."""
    for items, arguments in s.checks:
        chk = dict(items)
        handler = CHECK_HANDLERS[chk["check"]]
        given = [(arg, pool) for arg, pool in
                 {**handler.requires, **handler.optional}.items() if arg in chk]
        assert len(arguments) == len(given)
        for (arg, pool), value in zip(given, arguments):
            if pool is None:
                assert type(value) is Fraction
            else:
                assert value is getattr(s, pool)[chk[arg]]


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

    @pytest.mark.parametrize("command", ["run", "validate"])
    def test_scenario_not_utf8(self, tmp_path, capsys, command):
        path = tmp_path / "utf16.json"
        path.write_bytes(b"\xff\xfe" + DARBOUX.encode("utf-16-le"))
        assert main([command, str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "cannot read scenario: 'utf-8' codec can't decode byte 0xff in "
            "position 0: invalid start byte\n")

    def test_unknown_only_kind(self, tmp_path, capsys):
        path = tmp_path / "darboux.json"
        path.write_text(DARBOUX)
        assert main(["run", str(path), "--only", "bv_check",
                     "--only", "bv_chek"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("--only: unknown check 'bv_chek'; known: "
                                + ", ".join(sorted(CHECK_HANDLERS)) + "\n")

    @pytest.mark.parametrize("exponent, code", [(16, 0), (17, 1)])
    def test_validate_exponent_limit(self, tmp_path, capsys, exponent, code):
        path = tmp_path / "power.json"
        path.write_text('{"dimension": {"n": 1, "m": 0},\n'
                        f' "expressions": {{"f": "2*x1^{exponent}"}}}}')
        assert main(["validate", str(path)]) == code
        err = capsys.readouterr().err
        if code:
            assert ("expressions.f: exponent 17 exceeds the limit 16 "
                    "(line 1, column 5)") in err

    @pytest.mark.parametrize("n, expression, column", [
        (6, "((x1+x2+x3+x4+x5+x6)^16)^2", 20),  # C(21, 16) = 20,349 terms
        (2, "(((x1+x2+1)^16)^16)^16", 15),
        (4, product_of_term_pairs(MAX_TERMS + 1), None),
    ], ids=["nested_power_6_0", "nested_power_2_0", "product_just_over"])
    def test_validate_term_limit_fails_fast(self, tmp_path, capsys, n,
                                            expression, column):
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"dimension": {"n": n, "m": 0},
                                    "expressions": {"f": expression},
                                    "checks": []}))
        start = time.perf_counter()
        assert main(["validate", str(path)]) == 1
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert f"terms, over the limit {MAX_TERMS} (line 1, column" in err
        if column is not None:
            assert f"column {column})" in err

    @pytest.mark.parametrize("n, code", [(6, 0), (7, 1)])
    def test_validate_dimension_limit(self, tmp_path, capsys, n, code):
        path = tmp_path / "wide.json"
        path.write_text(f'{{"dimension": {{"n": {n}, "m": 6}}}}')
        assert main(["validate", str(path)]) == code
        err = capsys.readouterr().err
        if code:
            assert "dimension: n + m = 13 exceeds the limit 12" in err

    def test_singular_check_still_exits_zero(self, tmp_path, capsys):
        path = tmp_path / "mixed.json"
        path.write_text(MIXED_SINGULAR)
        assert main(["run", str(path)]) == 0
        out = capsys.readouterr().out
        assert "[ERROR]" in out and "[PASS]" in out


class TestMalformedInput:
    """Malformed documents exit 1 with a located message, no traceback."""

    @staticmethod
    def run(tmp_path, capsys, text):
        path = tmp_path / "doc.json"
        path.write_text(text, encoding="utf-8")
        code = main(["run", str(path)])
        err = capsys.readouterr().err
        assert "Traceback" not in err
        return code, err

    @pytest.mark.parametrize("fields, key", [
        ({"connections": {"G": {"1,\u00b2,1": "x1"}}}, "1,\u00b2,1"),
        ({"projective_classes": {"P": {"\u00b2,1,1": "x1"}}}, "\u00b2,1,1"),
        ({"tensors": {"S": {"components": {"1,\u00b2": "x1"}}}}, "1,\u00b2"),
        ({"tensors": {"S": {"components": {"1,\u0662": "x1"}}}}, "1,\u0662"),
        ({"tensors": {"S": {}},
          "triples": {"T": {"s": "S", "gamma": {"\u00b2": "x1"}}}}, "\u00b2"),
    ], ids=["connection", "class", "tensor", "arabic_indic", "gamma"])
    def test_non_ascii_index_digit(self, tmp_path, capsys, fields, key):
        doc = {"dimension": {"n": 2, "m": 0}, **fields}
        code, err = self.run(tmp_path, capsys, json.dumps(doc))
        assert code == 1
        assert f"key {key!r} has index" in err

    @pytest.mark.parametrize("kind", ["json", "parentheses", "minus_signs"])
    def test_deep_nesting(self, tmp_path, capsys, kind):
        depth = sys.getrecursionlimit()
        text = {
            "json": "[" * depth + "]" * depth,
            "parentheses": json.dumps({"dimension": {"n": 1, "m": 0}, "expressions": {
                "f": "(" * depth + "x1" + ")" * depth}}),
            "minus_signs": json.dumps({"dimension": {"n": 1, "m": 0}, "expressions": {
                "f": "-" * depth + "x1"}}),
        }[kind]
        code, err = self.run(tmp_path, capsys, text)
        assert code == 1
        assert "nested too deeply (line 1, column " in err
        if kind != "json":
            assert "expressions.f: expression nested too deeply" in err

    @pytest.mark.parametrize("command", ["run", "validate"])
    @pytest.mark.parametrize("text, message", [
        ('{"dimension": {"n": 1, "m": 0}, "expressions": {"f": "2*%s*x1"}}',
         "expressions.f: integer literal of 5000 digits is too long "
         "(line 1, column 2)"),
        ('{"dimension": {"n": %s, "m": 0}}',
         "invalid JSON: integer literal of 5000 digits is too long "
         "(line 1, column 21)"),
    ], ids=["expression", "dimension"])
    def test_oversized_integer_literal(self, tmp_path, capsys, command, text,
                                       message):
        # 5,000 digits: over the interpreter's int <-> str conversion limit
        path = tmp_path / "doc.json"
        path.write_text(text % ("1" * 5000), encoding="utf-8")
        assert main([command, str(path)]) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err and message in err

    # 10^315644 has 1,048,547 bits; the bound (digits + |exponent|) * 3.322
    # + 1 on a literal's integers first exceeds MAX_BITS = 2^20 at 315645
    @pytest.mark.parametrize("literal, refused", [
        ("1e315644", False), ("1e315645", True), ("-1E-315645", True),
        ("1e10000000", True), ("1e+0000000000000000000001", False),
        ("1" * 315646, True)], ids=["under", "over", "negative", "huge",
                                    "zeros", "digits"])
    @pytest.mark.parametrize("where", ["triples.T.weight",
                                       "checks[0] (extension_consistency): weight"])
    def test_weight_literal_bound(self, tmp_path, capsys, where, literal, refused):
        doc = copy.deepcopy(SECTIONED)
        if where.startswith("triples"):
            doc["triples"]["T"]["weight"] = literal
        else:
            doc["projective_classes"] = {"Pi": {}}
            doc["checks"] = [{"check": "extension_consistency", "tensor": "S",
                              "projective_class": "Pi", "weight": literal}]
        start = time.perf_counter()
        code, err = self.run(tmp_path, capsys, json.dumps(doc))
        assert time.perf_counter() - start < 5
        if refused:
            assert code == 1
            assert (f"{where}: rational literal may give integers of over "
                    "1048576 bits") in err
        else:
            assert "rational" not in err

    @pytest.mark.parametrize("literal, value", [
        ("1/2", Fraction(1, 2)), ("0.5", Fraction(1, 2)), ("1e3", 1000),
        (" -2.5E-1 ", Fraction(-1, 4)), ("1_000", 1000), (0.5, Fraction(1, 2)),
        (3, 3), (1e-07, Fraction(1, 10**7))])
    def test_weight_literals_accepted(self, literal, value):
        doc = copy.deepcopy(SECTIONED)
        doc["triples"]["T"]["weight"] = literal
        doc["projective_classes"] = {"Pi": {}}
        doc["checks"] = [{"check": "extension_consistency", "tensor": "S",
                          "projective_class": "Pi", "weight": literal}]
        s = parse_scenario(json.dumps(doc))
        assert s.triples["T"].weight == value
        assert s.checks[0][1][2] == value
        assert_resolved(s)
        assert json.loads(emit_scenario(s))["checks"][0]["weight"] == literal


def test_oversized_result_coefficient_is_printed():
    # every literal is under the interpreter's 4,300-digit conversion limit,
    # but the residual's coefficients are not: N^2 has 5,000 digits
    doc = json.loads((SCENARIOS / "rational_1_1.json").read_text(encoding="utf-8"))
    big = "7" * 2500
    doc["volume_forms"]["rho"] = f"1/(3 - ({big}*x1)^2)"
    report = json.loads(emit_report(run_checks(parse_scenario(json.dumps(doc))), "json"))
    entry = next(e for e in report["checks"] if e["check"] == "projective_poisson")
    assert entry["verdict"] == "fail" and "error" not in entry
    square = decimal.Context(prec=6000).create_decimal(int(big) ** 2)
    assert len(str(square)) == 5000
    assert f"/({square}*x1^4 - " in entry["residuals"]["volume_flatness^2"]


# ---------------------------------------------------------------------------
# schwarzian_defect: checked in the source chart, printed in the new one
# ---------------------------------------------------------------------------

def new_chart_defect(gamma, change):
    """The defect by the route that transforms both sides into the new
    chart, with the module's current super_schwarzian."""
    lhs = projective_class(transform_connection(gamma, change))
    return lhs - (transform_sym2cov(projective_class(gamma), change)
                  + geometry.super_schwarzian(change.inverted()))


DEFECT_CASES = (st.integers(0, 10**6), st.sampled_from([(1, 1), (2, 1), (2, 2)]),
                st.sampled_from([rand_linear_change, rand_triangular_change,
                                 rand_moebius_change]))


class TestSchwarzianDefect:
    @settings(max_examples=15, deadline=None)
    @given(*DEFECT_CASES)
    def test_equals_the_new_chart_route(self, seed, dims, make_change):
        rng = random.Random(seed)
        dim = Dimension.of(*dims)
        gamma, change = rand_connection(rng, dim), make_change(rng, dim)
        got = schwarzian_defect(gamma, change)
        assert got == new_chart_defect(gamma, change)
        assert got.is_zero()

    @settings(max_examples=15, deadline=None)
    @given(*DEFECT_CASES)
    def test_failing_residuals_print_as_the_new_chart_route(self, seed, dims,
                                                           make_change):
        # a super_schwarzian off by a nonzero trace-free term: the check
        # fails, and its residuals are the new-chart route's, byte for byte
        rng = random.Random(seed)
        dim = Dimension.of(*dims)
        gamma, change = rand_connection(rng, dim), make_change(rng, dim)
        extra = rand_projective_class(rng, dim)
        assume(not extra.is_zero())
        real = geometry.super_schwarzian
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(geometry, "super_schwarzian", lambda c: real(c) + extra)
            conditions, info = CHECK_HANDLERS["schwarzian_defect"].run(change, gamma)
            want = _residual_map(cli._table3(new_chart_defect(gamma, change)).items())
        got = _residual_map(conditions.items())
        assert got and info == {}
        assert list(got.items()) == list(want.items())


# ---------------------------------------------------------------------------
# laplacian_invariance: checked in the source chart, as the new-chart route
# ---------------------------------------------------------------------------

# nonlinear changes (forward, inverse), polynomial or rational
SHEARS = {
    (2, 2): (("x1 + th1*th2", "x2 + x1^2", "th1", "th2 + x1*th1"),
             ("x1 - th1*th2", "x2 - x1^2 + 2*x1*th1*th2", "th1", "th2 - x1*th1")),
    (2, 1): (("x1 + x2^2", "x2", "th1"), ("x1 - x2^2", "x2", "th1")),
    (1, 1): (("x1", "(1 + x1)*th1"), ("x1", "th1/(1 + x1)")),
}


def shear(dim):
    fwd, inv = SHEARS[dim.n, dim.m]
    return CoordinateChange(dim, tuple(parse_expression(dim, e) for e in fwd),
                            tuple(parse_expression(dim, e) for e in inv))


def upper_sum(a, b):
    return Sym2Upper(a.dim, {key: a.component(*key) + b.component(*key)
                             for key in set(a.comps) | set(b.comps)}, a.parity)


def pulled_upper(change, s):
    return Sym2Upper(s.dim, {key: change.pullback(v) for key, v in s.comps.items()},
                     s.parity)


def pulled_class(change, pc):
    return ProjectiveClass(pc.dim, {key: change.pullback(v)
                                    for key, v in pc.comps.items()})


def pulled_operator(change, op):
    """The operator of op's coefficients pulled back by the change."""
    return DensityOperator(op.dim, {key: change.pullback(f)
                                    for key, f in op.terms.items()})


def new_chart_laplacian(s, pc, change):
    """The target Laplacian by the route through the new chart."""
    return projective_laplacian(transform_upper2(s, change),
                                projective_class(transform_connection(pc, change)))


def family_defects(change, op_src, op_tgt):
    """The new-chart route's defect on each element of the test family, for
    a target op_tgt over the new chart, keyed as the check keys it."""
    family = density_test_family(change.dim, weights=(Fraction(0),), max_degree=3)
    return {f"family[{idx}]":
            op_src(DensityElement.of(change.pullback(phi.slice(0))))
            - DensityElement.of(change.pullback(op_tgt(phi).slice(0)))
            for idx, phi in enumerate(family)}


def laplacian_case(seed, dims, eps):
    """(change, S, Pi): a linear change, most often followed by a shear."""
    rng = random.Random(seed)
    dim = Dimension.of(*dims)
    change = rand_linear_change(rng, dim)
    if rng.random() < 0.7:
        change = change.then(shear(dim))
    return change, rand_upper(rng, dim, eps), rand_projective_class(rng, dim), rng


LAPLACIAN_TARGETS = ["transformed", "untransformed", "perturbed",
                     "first_order", "second_order"]


def laplacian_targets(seed, dims, eps, target):
    """(change, source Laplacian, target Laplacian over the new chart); the
    target is the transformed one, the untransformed source one, or the
    transformed one with a random tensor added to S, or with a random term
    f d_i or f d_i d_j added: the coordinates see the first and only the
    brackets see the second."""
    change, s, pc, rng = laplacian_case(seed, dims, eps)
    dim = change.dim
    op_src = projective_laplacian(s, pc)
    if target == "untransformed":
        return change, op_src, op_src
    s_new = transform_upper2(s, change)
    if target == "perturbed":
        s_new = upper_sum(s_new, rand_upper(rng, dim, eps))
    pc_new = projective_class(transform_connection(pc, change))
    op_tgt = projective_laplacian(s_new, pc_new)
    if target in ("first_order", "second_order"):
        derivs = [rng.randrange(dim.size)]
        if target == "second_order":
            derivs.append(rng.choice([j for j in range(dim.size)
                                      if j != derivs[0] or not dim.parity(j)]))
        f = rand_super(rng, dim, (eps + sum(map(dim.parity, derivs))) % 2)
        op_tgt = op_tgt + DensityOperator.from_written(DensityElement.of(f), derivs)
    return change, op_src, op_tgt


LAPLACIAN_DIMS = [(1, 1), (2, 1), (2, 2)]


class TestLaplacianInvarianceBasis:
    @settings(max_examples=36, deadline=None)
    @given(st.integers(0, 10**6), st.sampled_from(LAPLACIAN_DIMS),
           st.integers(0, 1), st.sampled_from(LAPLACIAN_TARGETS))
    def test_basis_verdict_equals_family_verdict(self, seed, dims, eps, target):
        # the reduced test of the coordinates and brackets decides as the
        # new-chart route does on the whole test family
        change, op_src, op_tgt = laplacian_targets(seed, dims, eps, target)
        reduced = cli._intertwines(change, op_src, pulled_operator(change, op_tgt))
        family = _residual_map(family_defects(change, op_src, op_tgt).items())
        assert reduced == (not family)

    @pytest.mark.parametrize("dims", LAPLACIAN_DIMS)
    @pytest.mark.parametrize("eps", [0, 1])
    def test_each_second_order_slot_is_seen(self, dims, eps):
        # f d_i d_j added to the transformed target, for each slot i <= j:
        # the coordinates cannot see it, the bracket of x^i and x^j does
        change, op_src, op_tgt = laplacian_targets(3, dims, eps, "transformed")
        dim = change.dim
        odd = SuperFunction.coordinate(dim, dim.n)
        for i in range(dim.size):
            for j in range(i, dim.size):
                if i == j and dim.parity(i):
                    continue
                parity = (eps + dim.parity(i) + dim.parity(j)) % 2
                f = odd if parity else SuperFunction.one(dim)
                wrong = op_tgt + DensityOperator.from_written(
                    DensityElement.of(f), [i, j])
                assert not cli._intertwines(change, op_src,
                                            pulled_operator(change, wrong))
                assert _residual_map(family_defects(change, op_src, wrong).items())

    @pytest.mark.parametrize("dims", LAPLACIAN_DIMS)
    @pytest.mark.parametrize("eps", [0, 1])
    @settings(max_examples=3, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_source_chart_operator_is_the_pulled_back_target(self, dims, eps,
                                                             seed):
        change, s, pc, _ = laplacian_case(seed, dims, eps)
        op_bar = projective_laplacian(
            transform_upper2(s, change, pulled_back=True),
            projective_class(transform_connection(pc, change, pulled_back=True)),
            new_chart_partial(change))
        assert op_bar == pulled_operator(change, new_chart_laplacian(s, pc, change))
        conditions, info = CHECK_HANDLERS["laplacian_invariance"].run(s, pc, change)
        assert conditions == {} and info == {}

    def test_failure_keeps_family_residuals(self):
        for dims in LAPLACIAN_DIMS:
            change, op_src, op_tgt = laplacian_targets(7, dims, 0, "untransformed")
            got = _residual_map(_intertwining_conditions(
                change, op_src, pulled_operator(change, op_tgt)).items())
            want = _residual_map(family_defects(change, op_src, op_tgt).items())
            assert got and list(got.items()) == list(want.items())
            assert all(key.startswith("family[") for key in got)

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 10**6), st.sampled_from(LAPLACIAN_DIMS),
           st.integers(0, 1), st.sampled_from(["tensor", "class"]),
           st.sampled_from([rand_linear_change, rand_triangular_change,
                            rand_moebius_change]))
    def test_failing_residuals_print_as_the_new_chart_route(self, seed, dims, eps,
                                                           patched, make_change):
        # the raw law of S or of Pi off by a nonzero term, the pullback of a
        # new-chart E: the check fails, and its residuals are those of the
        # new-chart route with E added, byte for byte
        rng = random.Random(seed)
        dim = Dimension.of(*dims)
        change = make_change(rng, dim)
        s, pc = rand_upper(rng, dim, eps), rand_projective_class(rng, dim)
        s_new = transform_upper2(s, change)
        pc_new = projective_class(transform_connection(pc, change))
        with pytest.MonkeyPatch.context() as patch:
            if patched == "tensor":
                extra = rand_upper(rng, dim, eps)
                real = cli.transform_upper2
                patch.setattr(cli, "transform_upper2", lambda s, c, pulled_back: (
                    upper_sum(real(s, c, pulled_back), pulled_upper(c, extra))))
                s_new = upper_sum(s_new, extra)
            else:
                # a trace-free extra passes the class's projection unchanged
                extra = rand_projective_class(rng, dim)
                real = cli.transform_connection
                patch.setattr(cli, "transform_connection", lambda g, c, pulled_back: (
                    Connection(dim, (real(g, c, pulled_back)
                                     + pulled_class(c, extra)).comps)))
                pc_new = ProjectiveClass(dim, (pc_new + extra).comps)
            assume(not extra.is_zero())
            conditions, info = CHECK_HANDLERS["laplacian_invariance"].run(
                s, pc, change)
        got = _residual_map(conditions.items())
        op_tgt = projective_laplacian(s_new, pc_new)
        want = _residual_map(family_defects(
            change, projective_laplacian(s, pc), op_tgt).items())
        assert info == {} and list(got.items()) == list(want.items())
        if not s.is_zero() or patched == "tensor":
            assert got

    @pytest.mark.parametrize("dims", LAPLACIAN_DIMS)
    @pytest.mark.parametrize("make_change", [rand_moebius_change, None])
    def test_passing_check_maps_nothing_back(self, monkeypatch, dims, make_change):
        rng = random.Random(31)
        dim = Dimension.of(*dims)
        change = make_change(rng, dim) if make_change else shear(dim)
        s, pc = rand_upper(rng, dim, 1), rand_projective_class(rng, dim)
        inverse = change.require_inverse()
        calls = []
        real = Substitution.__call__

        def counting(plan, f):
            if plan is inverse:
                calls.append(f)
            return real(plan, f)

        monkeypatch.setattr(Substitution, "__call__", counting)
        conditions, _ = CHECK_HANDLERS["laplacian_invariance"].run(s, pc, change)
        assert conditions == {} and calls == []
        new_chart_laplacian(s, pc, change)  # the count sees the reference route
        assert calls


def triple_scenario(n, m):
    """A scenario holding one odd weight-0 triple T (constant S^{x1 th1} = 1)
    and its canonical_operator check."""
    return parse_scenario(json.dumps({
        "dimension": {"n": n, "m": m},
        "tensors": {"S": {"parity": "odd", "components": {f"1,{n + 1}": "1"}}},
        "triples": {"T": {"s": "S", "gamma": {}, "theta": "0",
                          "parity": "odd", "weight": "0"}},
        "checks": [{"check": "canonical_operator", "triple": "T"}],
    }))


def all_pairs_residuals(triple, delta):
    """The canonical_operator residuals, with every ordered pair (i, j)
    evaluated by `generated_bracket`."""
    dim = triple.dim
    one = DensityElement.of(SuperFunction.one(dim))
    gens = [DensityElement.of(SuperFunction.coordinate(dim, i))
            for i in range(dim.size)]
    vol = DensityElement.volume(dim)
    want = {"Delta(1)": delta(one)}
    if formal_adjoint(delta) != delta:
        want["self_adjoint"] = SuperFunction.one(dim)
    for i in range(dim.size):
        for j in range(dim.size):
            want[f"generates_S^{i + 1}{j + 1}"] = (
                generated_bracket(delta, gens[i], gens[j])
                - DensityElement(dim, {triple.weight: triple.s.component(i, j)}))
    for i in range(dim.size):
        want[f"generates_gamma^{i + 1}"] = (
            generated_bracket(delta, gens[i], vol)
            - DensityElement(dim, {triple.weight + 1: triple.gamma_component(i)}))
    want["generates_theta"] = (
        generated_bracket(delta, vol, vol)
        - DensityElement(dim, {triple.weight + 2: triple.theta}))
    return _residual_map(want.items())


class TestCanonicalOperatorCheck:
    @pytest.mark.parametrize("n, m", [(1, 1), (2, 1), (2, 2)])
    def test_symmetric_pairs_evaluated_once(self, monkeypatch, n, m):
        # delta is applied once to 1, once to each generator x^1 .. x^{n+m},
        # |Dx| and once to each product of a sorted pair of them
        calls = []
        real = DensityOperator.__call__

        def counting(op, phi):
            calls.append(phi)
            return real(op, phi)

        monkeypatch.setattr(DensityOperator, "__call__", counting)
        report = run_checks(triple_scenario(n, m))
        assert report.checks[0]["verdict"] == "pass"
        gens = n + m + 1
        assert len(calls) == 1 + gens + gens * (gens + 1) // 2

    def test_fail_report_equals_all_pairs_reference(self, monkeypatch):
        scenario = triple_scenario(2, 2)
        triple = scenario.triples["T"]
        perturbed = rand_triple(random.Random(5), scenario.dim, 1, 0)
        assert not perturbed.s.component(2, 3).is_zero()  # an odd-odd pair
        delta = canonical_operator(perturbed)
        monkeypatch.setattr(cli, "canonical_operator", lambda t: delta)
        entry = run_checks(scenario).checks[0]
        want = all_pairs_residuals(triple, delta)
        assert entry["verdict"] == "fail"
        assert list(entry["residuals"].items()) == list(want.items())
