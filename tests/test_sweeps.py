"""The memo a sweep keeps for its analyses.

``criteria.analyze`` with a memo derives the polygon, the certificate
and the degree pairs once per slope table and reuses them for every
equal table.  These tests hold it to the analysis without a memo, to
the life of one sweep call and to its room, and count the work it saves
by wrapping the functions, not by timing.
"""

import json

import pytest

from newton_gauge import criteria, families, newton
from newton_gauge.criteria import Analysis, AnalysisMemo, analyze
from newton_gauge.polynomial import AnalysisInput, Polynomial
from newton_gauge.report import sweep_report
from newton_gauge.sweeps import exhaustive_polynomials, sampled_polynomials, sweep, sweep_family


def _calls(monkeypatch, module, name):
    """Wrap module.name so that each call appends its arguments to the returned list."""
    calls = []
    real = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def _acceptance_inputs():
    return [
        AnalysisInput(f, p)
        for seed in (1, 2, 3)
        for f in sampled_polynomials(5, 3, 200, seed)
        for p in (2, 3)
    ]


def _wide_inputs():
    return [
        AnalysisInput(f, p)
        for f in sampled_polynomials(12, 50, 300, seed=5, min_degree=6)
        for p in (2, 3, 5, 7)
    ]


def _family_inputs():
    example1 = [
        AnalysisInput(f, p)
        for n in (6, 7, 8)
        for p in (2, 3, 5)
        for f in families.example1_instances(n, p)
    ]
    example2 = [
        AnalysisInput(families.example2_polynomial(d, p), p) for d in (2, 3, 4) for p in (2, 3, 5)
    ]
    return example1 + example2


@pytest.mark.parametrize("inputs_of", [_acceptance_inputs, _wide_inputs, _family_inputs])
def test_a_memoized_analysis_equals_the_analysis_without_a_memo(inputs_of):
    inputs = inputs_of()
    memo = AnalysisMemo()
    for inp in inputs:
        got, want = analyze(inp, memo), analyze(inp)
        for name in Analysis._fields:
            assert getattr(got, name) == getattr(want, name), (name, inp)
    # Equal tables recur, so the memo was read as well as filled.
    assert len(memo) < len(inputs)


def test_a_sweep_leaves_no_state_behind(monkeypatch):
    hulls = _calls(monkeypatch, newton, "lower_convex_hull")
    runs = []
    for _ in range(2):
        before = len(hulls)
        report = sweep_report(sweep(5, 3, [2, 3], sample=100, seed=7))
        runs.append((json.dumps(report), len(hulls) - before))
    assert runs[0] == runs[1]
    assert 0 < runs[0][1] < 200
    # Every (n, p) cell of example1 has one slope table: one hull per call.
    for _ in range(2):
        before = len(hulls)
        summary = sweep_family("example1", [6], [3], verify=False)
        assert summary.passed and summary.total == 16
        assert len(hulls) - before == 1


def _stored(memo):
    """The polygon points and degree pairs a memo holds."""
    return sum(len(polygon.points) + len(pairs) for polygon, _, pairs in memo.values())


def test_the_memo_stores_no_more_than_its_room(monkeypatch):
    want = sweep_report(sweep(5, 3, [2, 3], sample=100, seed=7))
    monkeypatch.setattr(criteria, "_MEMO_ROOM", 20)
    sizes = []
    real = criteria.analyze

    def analyze_and_measure(inp, memo=None):
        analysis = real(inp, memo)
        sizes.append((len(memo), _stored(memo), memo.room))
        return analysis

    monkeypatch.setattr(criteria, "analyze", analyze_and_measure)
    assert sweep_report(sweep(5, 3, [2, 3], sample=100, seed=7)) == want
    assert len(sizes) == 200
    assert all(stored == 20 - room and stored <= 20 for _, stored, room in sizes)
    # The room ran out: tables were stored, then later ones were not.
    assert 1 < sizes[-1][0] < 20 and sizes[-1][2] < 3


def test_a_table_larger_than_the_room_is_not_stored(monkeypatch):
    assert criteria._MEMO_ROOM == 8192
    memos = []
    real = criteria.analyze
    monkeypatch.setattr(criteria, "analyze", lambda inp, memo: memos.append(memo) or real(inp, memo))
    # Dense degree 9,000 tables: 9,001 polygon points each.
    summary = sweep(9000, 3, [2, 3], min_degree=9000, sample=3, seed=1, verify=False)
    assert summary.passed and summary.total == len(memos) == 6
    memo = memos[0]
    assert all(m is memo for m in memos) and len(memo) == 0 and memo.room == 8192
    # x^20000 + 1 at p = 3: two points, but 10,001 degree pairs.
    memo = AnalysisMemo()
    analyze(AnalysisInput(Polynomial([1] + [0] * 19999 + [1]), 3), memo)
    assert len(memo) == 0 and memo.room == 8192
    # A smaller dense table fits, and the room shrinks by its size.
    analyze(AnalysisInput(Polynomial([1] * 2001), 3), memo)
    assert len(memo) == 1 and memo.room == 8192 - _stored(memo) < 8192 - 2001


def test_an_exhaustive_sweep_builds_one_hull_per_distinct_slope_table(monkeypatch):
    primes = [2, 3]
    tables = {
        newton.slope_table(AnalysisInput(f, p)) for f in exhaustive_polynomials(4, 2) for p in primes
    }
    hulls = _calls(monkeypatch, newton, "lower_convex_hull")
    analyses = _calls(monkeypatch, criteria, "analyze")
    summary = sweep(4, 2, primes)
    assert summary.passed
    assert len(analyses) == summary.total == 2 * (80 + 400 + 2000)
    assert len(hulls) == len(tables)
