import json
import types

import jsonschema
import pytest

from newton_gauge.criteria import THEOREM_TAGS, analyze
from newton_gauge.oracle import kronecker_factor, verify_certificate
from newton_gauge.polynomial import AnalysisInput, parse_polynomial
from newton_gauge.report import (
    SCHEMA_VERSION,
    analysis_report,
    certificate_dict,
    load_schema,
    render_analysis_text,
    render_sweep_text,
    sweep_report,
    verification_dict,
)
from newton_gauge.sweeps import sweep, sweep_family


def _analysis(text, p):
    return analyze(AnalysisInput(parse_polynomial(text), p))


def _verified_report(text, p):
    analysis = _analysis(text, p)
    f = analysis.input.poly
    witness = kronecker_factor(f)
    outcome = verify_certificate(f, p, analysis.certificate, witness)
    return analysis_report(analysis, verification_dict(witness, outcome))


def test_report_slopes_are_exact_fractions():
    table = analysis_report(_analysis("64x^4+4x^3+128x+1", 2))["slope_table"]
    assert [e["slope"] for e in table["entries"]] == ["3/2", "-1/3", "4"]
    assert table["newton_index"] == "4"


def test_analysis_report_content():
    report = analysis_report(_analysis("x^6+2x^3+8", 2))
    assert report["schema_version"] == SCHEMA_VERSION
    assert report["kind"] == "analysis"
    assert report["input"] == {"polynomial": "x^6+2*x^3+8", "prime": 2}
    assert report["valuation_points"] == [[0, 3], [3, 1], [6, 0]]
    assert report["polygon_vertices"] == [[0, 3], [3, 1], [6, 0]]
    table = report["slope_table"]
    assert table["degree"] == 6
    assert table["leading_valuation"] == 0
    assert table["entries"] == [
        {"index": 0, "valuation": 3, "slope": "-1/2"},
        {"index": 3, "valuation": 1, "slope": "-1/3"},
    ]
    assert table["newton_index"] == "-1/3"
    assert table["index_of_max"] == [3]
    assert table["dominant_index"] == 3
    cert = report["certificate"]
    assert cert["theorem"] == "TB"
    assert cert["theorem_b"] and not cert["theorem_a"]
    assert cert["parameters"] == {
        "n": 6, "s": 3, "c_s": -1, "c_n": -3, "d": 1, "u": 3, "modulus": 3,
    }
    assert cert["clauses"] == [
        {"kind": "Irreducible"},
        {"kind": "DegreeZeroFactor"},
        {"kind": "FactorDegreeMultipleOf", "modulus": 3},
        {"kind": "AlphaSplit", "modulus": 3, "total": 3},
    ]
    assert cert["notes"] == []
    assert report["dumas_degree_pairs"] == [[0, 6], [3, 3]]
    assert "verification" not in report


def test_none_certificate_report():
    report = analysis_report(_analysis("x^2+3x+9", 3))
    cert = report["certificate"]
    assert cert["theorem"] == "none"
    assert cert["parameters"] is None
    assert cert["clauses"] == []
    assert cert["notes"] == ["no-strict-dominant-index: max slope -1 at indices 0,1"]
    assert report["slope_table"]["dominant_index"] is None


def test_verification_section():
    report = _verified_report("x^12+4x^4+16", 2)
    section = report["verification"]
    assert section["passed"]
    assert section["witness"]["factors"] == ["x^4+2", "x^8-2*x^4+8"]
    assert section["factor_degrees"] == [4, 8]
    assert section["bipartitions"] == [
        {"degrees": [4, 8], "satisfied": ["FactorDegreeMultipleOf", "AlphaSplit"]}
    ]
    assert section["no_split_clauses"] == []
    assert section["content_valuation"] == 0


def test_reports_are_json_native():
    for report in (
        analysis_report(_analysis("x^6+2x^3+8", 2)),
        _verified_report("x^2+2", 2),
        sweep_report(sweep(2, 1, [2])),
        sweep_report(sweep_family("example2", [2], [2])),
    ):
        assert json.loads(json.dumps(report)) == report


def test_the_schema_names_the_certificate_tags_in_report_order():
    definitions = json.dumps(load_schema())
    assert THEOREM_TAGS == ("T1", "TA", "T2", "TB", "Dumas-s0", "none")
    assert json.dumps(list(THEOREM_TAGS)) in definitions
    assert list(sweep_report(sweep(2, 1, [2], verify=False))["certificates"]) == list(THEOREM_TAGS)


def test_reports_validate_against_schema():
    schema = load_schema()
    jsonschema.validate(analysis_report(_analysis("x^6+2x^3+8", 2)), schema)
    jsonschema.validate(analysis_report(_analysis("x^2+3x+9", 3)), schema)
    jsonschema.validate(_verified_report("x^2+2", 2), schema)
    jsonschema.validate(_verified_report("x^12+4x^4+16", 2), schema)
    skipped = analysis_report(
        _analysis("x^2+3x+9", 3), {"skipped": "no certificate to verify"}
    )
    jsonschema.validate(skipped, schema)
    jsonschema.validate(sweep_report(sweep(2, 1, [2, 3])), schema)
    jsonschema.validate(sweep_report(sweep_family("example1", [5], [2])), schema)


def test_schema_rejects_corrupt_reports():
    schema = load_schema()
    report = analysis_report(_analysis("x^2+2", 2))
    bad = json.loads(json.dumps(report))
    bad["slope_table"]["newton_index"] = "-0.5"
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(bad, schema)
    bad = json.loads(json.dumps(report))
    bad["kind"] = "bogus"
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(bad, schema)
    bad = json.loads(json.dumps(report))
    bad["certificate"]["theorem"] = "T9"
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(bad, schema)


def test_serialization_is_deterministic():
    a = json.dumps(analysis_report(_analysis("x^6+2x^3+8", 2)), sort_keys=True)
    b = json.dumps(analysis_report(_analysis("x^6+2x^3+8", 2)), sort_keys=True)
    assert a == b
    s1 = json.dumps(sweep_report(sweep(2, 1, [2])), sort_keys=True)
    s2 = json.dumps(sweep_report(sweep(2, 1, [2])), sort_keys=True)
    assert s1 == s2


def test_certificate_dict_round_trips_notes():
    cert = _analysis("512x^5+512x^2+2x+1", 2).certificate
    d = certificate_dict(cert)
    assert d["theorem"] == "T1"
    assert d["clauses"][2] == {"kind": "FactorDegreeMultipleOf", "modulus": 1}


def test_render_analysis_text():
    text = render_analysis_text(analysis_report(_analysis("x^6+2x^3+8", 2)))
    assert "polynomial        x^6+2*x^3+8" in text
    assert "prime             2" in text
    assert "valuation points  (0,3) (3,1) (6,0)" in text
    assert "  m_0 = -1/2" in text
    assert "newton index      -1/3 (attained at 3)" in text
    assert "certificate       TB" in text
    assert "s=3 c_s=-1 c_n=-3 d=1 u=3 modulus=3" in text
    assert "any factorization satisfies one of:" in text
    assert "a1 + a2 = 3" in text
    assert "degree pairs      (0,6) (3,3)" in text
    assert "verification" not in text


def test_render_verification_text():
    text = render_analysis_text(_verified_report("x^2+2", 2))
    assert "verification      PASS" in text
    assert "no proper split: Irreducible" in text

    text = render_analysis_text(_verified_report("x^4+4x^2+4", 2))
    assert "verification      PASS" in text
    assert "split (2, 2)" in text

    text = render_analysis_text(
        analysis_report(_analysis("x^2+3x+9", 3), {"skipped": "no certificate to verify"})
    )
    assert "verification      skipped (no certificate to verify)" in text
    assert "note: no-strict-dominant-index" in text


def test_render_sweep_text():
    report = sweep_report(sweep(2, 1, [2, 3]))
    text = render_sweep_text(report)
    assert "analyzed          24" in text
    assert "certificates      T1:" in text
    assert "result            PASS" in text

    family = sweep_report(sweep_family("example2", [2], [2]))
    text = render_sweep_text(family)
    assert "family rows" in text
    assert '"theorem": "TB"' in text
    assert "result            PASS" in text


def test_a_sweep_report_with_every_violation_kind(monkeypatch):
    from newton_gauge import families, newton, oracle, sweeps
    from newton_gauge.oracle import BipartitionCheck, FactorizationWitness, VerificationReport

    # Every check fails: the certificate refuses a split, the degree pairs
    # miss one, the factors' index differs, and the witness, which every
    # check above ignores, multiplies back to x^2-1, so each spot check
    # (all of them, by a crc32 of 0) finds a wrong product.
    failed = VerificationReport(
        passed=False,
        content_valuation=0,
        factor_degrees=(1, 1),
        bipartitions=(BipartitionCheck((1, 1), ()),),
        no_split_clauses=(),
    )
    witness = FactorizationWitness(1, 1, (parse_polynomial("x+1"), parse_polynomial("x-1")))
    monkeypatch.setattr(oracle, "kronecker_factor", lambda f, budget=None: witness)
    monkeypatch.setattr(oracle, "verify_certificate", lambda *args: failed)
    monkeypatch.setattr(oracle, "check_dumas_consistency", lambda pairs, w: [(1, 1)])
    monkeypatch.setattr(newton, "newton_index", lambda g, p: (7, 2))
    monkeypatch.setattr(sweeps, "zlib", types.SimpleNamespace(crc32=lambda data: 0))
    real = families.example1_expected
    monkeypatch.setattr(families, "example1_expected", lambda n: {**real(n), "m_0": (1, 1)})
    summary = sweep(2, 1, [2])
    family = sweep_family("example1", [5], [2, 3], verify=False)
    summary.violations.extend(family.violations)
    summary.family_rows.extend(family.family_rows)
    report = sweep_report(summary)

    kinds = {v["kind"] for v in report["violations"]}
    assert kinds == {
        "certificate", "dumas", "index-multiplicativity",
        "irreducibility-spot-check", "family-parameters",
    }
    jsonschema.validate(report, load_schema())
    assert json.loads(json.dumps(report)) == report
    text = render_sweep_text(report)
    assert f"violations        {len(report['violations'])}" in text
    assert "result            FAIL" in text
    for violation in report["violations"]:
        assert "  " + json.dumps(violation, sort_keys=True) in text.splitlines()
