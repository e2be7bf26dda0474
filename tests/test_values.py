"""Value semantics of the package's record classes.

Each class keeps what its former frozen dataclass gave: positional and
keyword construction with the same defaults, equality and hashing over
its fields within one type, a ``Name(field=value, ...)`` repr, and no
assignment or deletion (``SweepSummary`` alone stays mutable).
"""

import ast
import copy
import pickle
from pathlib import Path

import pytest

from newton_gauge.criteria import (
    THEOREM_TAGS,
    AlphaSplit,
    Analysis,
    Certificate,
    CriteriaParameters,
    DegreeZeroFactor,
    FactorDegreeMultipleOf,
    Irreducible,
    analyze,
)
from newton_gauge.newton import NewtonPolygon, SlopeTable
from newton_gauge.oracle import (
    BipartitionCheck,
    FactorizationWitness,
    VerificationReport,
)
from newton_gauge.polynomial import AnalysisInput, Polynomial
from newton_gauge.sweeps import SweepSummary, Violation

_F = Polynomial((8, 0, 0, 2, 0, 0, 1))
_INPUT = AnalysisInput(_F, 2)
_ANALYSIS = analyze(_INPUT)
_PARAMS = _ANALYSIS.certificate.params
_P0, _P3, _P6 = (0, 3), (3, 1), (6, 0)

# (class, field names in order, one value, a value that differs in one field)
_CASES = [
    (AnalysisInput, ("poly", "prime"), (_F, 2), (_F, 3)),
    (
        NewtonPolygon,
        ("points", "vertices"),
        ((_P0, _P3, _P6), (_P0, _P3, _P6)),
        ((_P0, _P6), (_P0, _P6)),
    ),
    (
        SlopeTable,
        ("degree", "leading_valuation", "entries"),
        (6, 0, (_P0,)),
        (6, 0, (_P0, _P3)),
    ),
    (
        CriteriaParameters,
        ("n", "s", "c_s", "c_n", "d", "u", "modulus"),
        (6, 3, -1, -3, 1, 3, 3),
        (6, 3, -2, -3, 1, 3, 3),
    ),
    (Irreducible, (), (), None),
    (DegreeZeroFactor, (), (), None),
    (FactorDegreeMultipleOf, ("modulus",), (3,), (2,)),
    (AlphaSplit, ("modulus", "total"), (3, 3), (3, 4)),
    (
        Certificate,
        ("theorem", "params", "clauses", "notes"),
        ("TB", _PARAMS, (Irreducible(), AlphaSplit(3, 3)), ()),
        ("TB", _PARAMS, (Irreducible(), AlphaSplit(3, 3)), ("note",)),
    ),
    (
        Analysis,
        ("input", "table", "polygon", "certificate", "dumas_pairs"),
        (_INPUT, _ANALYSIS.table, _ANALYSIS.polygon, _ANALYSIS.certificate, ((0, 6),)),
        (_INPUT, _ANALYSIS.table, _ANALYSIS.polygon, _ANALYSIS.certificate, ()),
    ),
    (FactorizationWitness, ("sign", "content", "factors"), (1, 2, (_F,)), (-1, 2, (_F,))),
    (BipartitionCheck, ("degrees", "satisfied"), ((3, 3), ("AlphaSplit",)), ((3, 3), ())),
    (
        VerificationReport,
        ("passed", "content_valuation", "factor_degrees", "bipartitions", "no_split_clauses"),
        (True, 0, (3, 3), (BipartitionCheck((3, 3), ("AlphaSplit",)),), ()),
        (False, 0, (3, 3), (BipartitionCheck((3, 3), ("AlphaSplit",)),), ()),
    ),
    (Violation, ("kind", "detail"), ("dumas", {"missing_pairs": [[1, 5]]}), ("certificate", {"missing_pairs": [[1, 5]]})),
    (
        SweepSummary,
        (
            "corpus", "total", "certificates", "verified", "budget_errors",
            "spot_checks", "violations", "family_rows",
        ),
        ({"mode": "exhaustive"}, 2, {"T1": 2}, 1, 0, 0, [], []),
        ({"mode": "exhaustive"}, 3, {"T1": 2}, 1, 0, 0, [], []),
    ),
]
_IDS = [case[0].__name__ for case in _CASES]
# A dict field makes the value unhashable, as it did the dataclass.
_UNHASHABLE = {Violation, SweepSummary}


@pytest.mark.parametrize("cls, names, values, other", _CASES, ids=_IDS)
def test_equal_fields_give_equal_values(cls, names, values, other):
    a, b = cls(*values), cls(**dict(zip(names, values)))
    assert a == b and not a != b
    assert tuple(getattr(a, name) for name in names) == values
    if cls not in _UNHASHABLE:
        assert hash(a) == hash(b)
    if other is not None:
        assert a != cls(*other)


@pytest.mark.parametrize("cls, names, values, other", _CASES, ids=_IDS)
def test_repr_has_the_dataclass_form(cls, names, values, other):
    fields = ", ".join(f"{name}={value!r}" for name, value in zip(names, values))
    assert repr(cls(*values)) == f"{cls.__name__}({fields})"


@pytest.mark.parametrize("cls, names, values, other", _CASES, ids=_IDS)
def test_copies_and_pickles_are_equal(cls, names, values, other):
    a = cls(*values)
    assert copy.copy(a) == a
    assert copy.deepcopy(a) == a
    assert pickle.loads(pickle.dumps(a)) == a


@pytest.mark.parametrize(
    "cls, names, values, other",
    [case for case in _CASES if case[0] is not SweepSummary],
    ids=[name for name in _IDS if name != "SweepSummary"],
)
def test_fields_can_be_neither_assigned_nor_deleted(cls, names, values, other):
    a = cls(*values)
    for name in names or ("kind",):
        with pytest.raises(AttributeError):
            setattr(a, name, None)
        with pytest.raises(AttributeError):
            delattr(a, name)
    with pytest.raises(AttributeError):
        a.extra = 1
    assert a == cls(*values)


def test_values_of_different_types_are_unequal():
    assert Irreducible() != DegreeZeroFactor()
    assert Irreducible() == Irreducible()
    assert FactorDegreeMultipleOf(3) != AlphaSplit(3, 3)
    assert (Irreducible(), DegreeZeroFactor()) != (DegreeZeroFactor(), Irreducible())
    assert AnalysisInput(_F, 2) != (_F, 2)
    assert len({Irreducible(), DegreeZeroFactor(), Irreducible()}) == 2


def test_defaults_and_kinds():
    assert Certificate("none", None, ()).notes == ()
    with pytest.raises(TypeError):
        Analysis(_INPUT, _ANALYSIS.table, _ANALYSIS.polygon, _ANALYSIS.certificate)
    summary = SweepSummary({})
    assert summary.certificates == {"T1": 0, "TA": 0, "T2": 0, "TB": 0, "Dumas-s0": 0, "none": 0}
    assert tuple(summary.certificates) == THEOREM_TAGS
    assert (summary.total, summary.verified, summary.budget_errors, summary.spot_checks) == (0, 0, 0, 0)
    assert summary.violations == [] and summary.family_rows == []
    # mutable defaults are not shared between summaries
    summary.violations.append(Violation("k", {}))
    summary.certificates["T1"] += 1
    assert SweepSummary({}).violations == []
    assert SweepSummary({}).certificates["T1"] == 0
    for cls in (Irreducible, DegreeZeroFactor, FactorDegreeMultipleOf, AlphaSplit):
        assert cls.kind == cls.__name__


def test_sweep_summary_stays_mutable_and_unhashable():
    summary = SweepSummary({})
    summary.total += 1
    summary.corpus = {"mode": "sample"}
    assert (summary.total, summary.corpus) == (1, {"mode": "sample"})
    with pytest.raises(TypeError):
        hash(summary)


def test_witness_derives_its_product_and_degree_pairs_when_built():
    x1, x2 = Polynomial((1, 1)), Polynomial((1, 0, 1))
    witness = FactorizationWitness(-1, 2, (x1, x1, x2))
    assert witness._product == Polynomial.constant(-2) * x1 * x1 * x2
    assert witness._degree_pairs == ((2, 2), (1, 3))
    # Rebuilt through __init__, so a copy derives them again.
    for clone in (copy.copy(witness), pickle.loads(pickle.dumps(witness))):
        assert (clone._product, clone._degree_pairs) == (witness._product, witness._degree_pairs)


def _bind_calls_outside_init(path):
    tree = ast.parse(path.read_text())
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if (
                isinstance(child, ast.Call)
                and isinstance(child.func, ast.Name)
                and child.func.id == "_bind"
                and function != "__init__"
            ):
                found.append((path.name, child.lineno))
            visit(child, function)

    visit(tree, None)
    return found


def test_values_are_bound_only_by_their_own_init():
    package = Path(__file__).resolve().parent.parent / "src" / "newton_gauge"
    found = [hit for path in sorted(package.glob("*.py")) for hit in _bind_calls_outside_init(path)]
    assert found == []
