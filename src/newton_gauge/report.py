"""Report construction and rendering.

A report is a plain dict with JSON-native leaves only (strings, ints,
bools, lists, dicts), so `json.loads(json.dumps(report)) == report`
holds by construction.  Slopes, (rise, width) integer pairs in the
analysis, are serialized exactly as lowest-term strings "p/q" (or "p"
for integers), never as floats.  The same dict feeds both the JSON and
the aligned text renderers, and validates against the schema shipped as
report.schema.json.
"""

from __future__ import annotations

import json
from importlib import resources
from typing import TYPE_CHECKING, Optional, get_args

from .criteria import Analysis, Certificate, Clause, find_dominant_index
from .valuation import format_slope

if TYPE_CHECKING:
    from .oracle import FactorizationWitness, VerificationReport
    from .sweeps import SweepSummary

__all__ = [
    "SCHEMA_VERSION",
    "certificate_dict",
    "verification_dict",
    "analysis_report",
    "sweep_report",
    "render_analysis_text",
    "render_sweep_text",
    "load_schema",
]

SCHEMA_VERSION = 1


def _clause_dict(clause) -> dict:
    return {"kind": clause.kind, **{name: getattr(clause, name) for name in clause._fields}}


def certificate_dict(cert: Certificate) -> dict:
    return {
        "theorem": cert.theorem,
        "theorem_a": cert.theorem == "TA",
        "theorem_b": cert.theorem == "TB",
        "parameters": None if cert.params is None else cert.params.as_dict(),
        "clauses": [_clause_dict(c) for c in cert.clauses],
        "notes": list(cert.notes),
    }


def verification_dict(
    witness: FactorizationWitness, outcome: VerificationReport
) -> dict:
    return {
        "witness": {
            "sign": witness.sign,
            "content": witness.content,
            "factors": [str(g) for g in witness.factors],
        },
        "content_valuation": outcome.content_valuation,
        "factor_degrees": list(outcome.factor_degrees),
        "bipartitions": [
            {"degrees": list(b.degrees), "satisfied": list(b.satisfied)}
            for b in outcome.bipartitions
        ],
        "no_split_clauses": list(outcome.no_split_clauses),
        "passed": outcome.passed,
    }


def analysis_report(
    analysis: Analysis, verification: Optional[dict] = None
) -> dict:
    """Full analysis report; pass a verification section to embed it."""
    table = analysis.table
    n, vn = table.degree, table.leading_valuation
    dominant = find_dominant_index(table)
    report = {
        "schema_version": SCHEMA_VERSION,
        "kind": "analysis",
        "input": {
            "polynomial": str(analysis.input.poly),
            "prime": analysis.input.prime,
        },
        "valuation_points": [list(pt) for pt in analysis.polygon.points],
        "polygon_vertices": [list(pt) for pt in analysis.polygon.vertices],
        "slope_table": {
            "degree": n,
            "leading_valuation": vn,
            "entries": [
                {"index": i, "valuation": v, "slope": format_slope(vn - v, n - i)}
                for i, v in table.entries
            ],
            "newton_index": format_slope(*table.newton_index),
            "index_of_max": list(table.index_of_max),
            "dominant_index": dominant,
        },
        "certificate": certificate_dict(analysis.certificate),
        "dumas_degree_pairs": [list(pair) for pair in analysis.dumas_pairs],
    }
    if verification is not None:
        report["verification"] = verification
    return report


def sweep_report(summary: SweepSummary) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "sweep",
        "corpus": summary.corpus,
        "total": summary.total,
        "certificates": dict(summary.certificates),
        "verified": summary.verified,
        "budget_errors": summary.budget_errors,
        "spot_checks": summary.spot_checks,
        "violations": [{"kind": v.kind, **v.detail} for v in summary.violations],
        "family_rows": list(summary.family_rows),
        "passed": summary.passed,
    }


def load_schema() -> dict:
    """The JSON schema every report validates against."""
    text = resources.files("newton_gauge").joinpath("report.schema.json").read_text()
    return json.loads(text)


# ---------------------------------------------------------------------------
# Text rendering (same dict as the JSON output)

_CLAUSE_TEXT = {c.kind: c.text for c in get_args(Clause)}


def _clause_text(clause: dict) -> str:
    return _CLAUSE_TEXT.get(clause["kind"], clause["kind"]).format_map(clause)


def _points_line(points: list) -> str:
    return " ".join(f"({i},{v})" for i, v in points)


def render_analysis_text(report: dict) -> str:
    lines = []
    add = lines.append
    add(f"polynomial        {report['input']['polynomial']}")
    add(f"prime             {report['input']['prime']}")
    add(f"valuation points  {_points_line(report['valuation_points'])}")
    add(f"polygon vertices  {_points_line(report['polygon_vertices'])}")
    table = report["slope_table"]
    add("slopes")
    for entry in table["entries"]:
        add(f"  m_{entry['index']} = {entry['slope']}")
    attained = ",".join(str(i) for i in table["index_of_max"])
    add(f"newton index      {table['newton_index']} (attained at {attained})")
    cert = report["certificate"]
    add(f"certificate       {cert['theorem']}")
    if cert["parameters"] is not None:
        p = cert["parameters"]
        add(
            f"  s={p['s']} c_s={p['c_s']} c_n={p['c_n']}"
            f" d={p['d']} u={p['u']} modulus={p['modulus']}"
        )
    if cert["clauses"]:
        add("  any factorization satisfies one of:")
        for clause in cert["clauses"]:
            add(f"    - {_clause_text(clause)}")
    for note in cert["notes"]:
        add(f"  note: {note}")
    pairs = " ".join(f"({a},{b})" for a, b in report["dumas_degree_pairs"])
    add(f"degree pairs      {pairs}")
    verification = report.get("verification")
    if verification is not None:
        if "skipped" in verification:
            add(f"verification      skipped ({verification['skipped']})")
        else:
            add(f"verification      {'PASS' if verification['passed'] else 'FAIL'}")
            w = verification["witness"]
            factors = "  ".join(w["factors"])
            add(f"  witness         sign {w['sign']}, content {w['content']}")
            add(f"  factors         {factors}")
            add(f"  content v_p     {verification['content_valuation']}")
            for b in verification["bipartitions"]:
                deg = tuple(b["degrees"])
                how = ", ".join(b["satisfied"]) if b["satisfied"] else "UNSATISFIED"
                add(f"  split {deg}      {how}")
            if verification["no_split_clauses"]:
                add(f"  no proper split: {', '.join(verification['no_split_clauses'])}")
    return "\n".join(lines)


def render_sweep_text(report: dict) -> str:
    lines = []
    add = lines.append
    add(f"corpus            {json.dumps(report['corpus'], sort_keys=True)}")
    add(f"analyzed          {report['total']}")
    certs = report["certificates"]
    add("certificates      " + "  ".join(f"{k}:{v}" for k, v in certs.items()))
    add(f"verified          {report['verified']}")
    add(f"budget errors     {report['budget_errors']}")
    add(f"spot checks       {report['spot_checks']}")
    if report["family_rows"]:
        add("family rows")
        for row in report["family_rows"]:
            add("  " + json.dumps(row, sort_keys=True))
    add(f"violations        {len(report['violations'])}")
    for violation in report["violations"]:
        add("  " + json.dumps(violation, sort_keys=True))
    add(f"result            {'PASS' if report['passed'] else 'FAIL'}")
    return "\n".join(lines)
