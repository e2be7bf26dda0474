import json
import os
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import jsonschema
import pytest

import newton_gauge
from newton_gauge.cli import (
    EXIT_BAD_INPUT,
    EXIT_BROKEN_PIPE,
    EXIT_BUDGET,
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_VIOLATION,
    build_parser,
    main,
)
from newton_gauge.oracle import (
    BUDGET_ENV_VAR,
    BipartitionCheck,
    FactorizationWitness,
    VerificationReport,
)
from newton_gauge.polynomial import Polynomial
from newton_gauge.report import load_schema


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _run_json(capsys, *argv):
    code, out, err = _run(capsys, *argv)
    report = json.loads(out)
    jsonschema.validate(report, load_schema())
    return code, report, err


# ---------------------------------------------------------------------------
# analyze


def test_analyze_text(capsys):
    code, out, err = _run(capsys, "analyze", "--poly", "x^6+2*x^3+8", "--prime", "2")
    assert code == EXIT_OK
    assert "certificate       TB" in out
    assert "newton index      -1/3 (attained at 3)" in out
    assert err == ""


def test_analyze_json(capsys):
    code, report, _ = _run_json(
        capsys, "analyze", "--poly", "x^6+2*x^3+8", "--prime", "2", "--json"
    )
    assert code == EXIT_OK
    assert report["certificate"]["theorem"] == "TB"
    assert report["certificate"]["parameters"]["modulus"] == 3
    assert "verification" not in report


def test_analyze_with_verification(capsys):
    code, report, _ = _run_json(
        capsys, "analyze", "--poly", "x^2+2", "--prime", "2", "--verify", "--json"
    )
    assert code == EXIT_OK
    assert report["verification"]["passed"] is True
    assert report["verification"]["no_split_clauses"] == ["Irreducible"]


def test_analyze_none_certificate_is_success(capsys):
    code, out, _ = _run(capsys, "analyze", "--poly", "x^2+3x+9", "--prime", "3")
    assert code == EXIT_OK
    assert "certificate       none" in out
    assert "note: no-strict-dominant-index" in out


# ---------------------------------------------------------------------------
# verify


def test_verify_factorable_input(capsys):
    code, out, _ = _run(capsys, "verify", "--poly", "(x-1)*(x+1)", "--prime", "2")
    assert code == EXIT_OK
    assert "verification      PASS" in out


def test_verify_skips_when_no_certificate(capsys):
    code, report, _ = _run_json(
        capsys, "verify", "--poly", "x^2+3x+9", "--prime", "3", "--json"
    )
    assert code == EXIT_OK
    assert report["verification"] == {"skipped": "no certificate to verify"}


def test_verify_budget_exhaustion_exits_3(capsys, monkeypatch):
    monkeypatch.setenv(BUDGET_ENV_VAR, "1")
    code, out, err = _run(capsys, "verify", "--poly", "x^4+1", "--prime", "2")
    assert code == EXIT_BUDGET
    assert "oracle out of budget" in err
    # without verification the oracle never runs, so the budget is moot
    code, _, _ = _run(capsys, "analyze", "--poly", "x^4+1", "--prime", "2")
    assert code == EXIT_OK


def test_invalid_budget_env_is_bad_input(capsys, monkeypatch):
    monkeypatch.setenv(BUDGET_ENV_VAR, "abc")
    code, _, err = _run(capsys, "verify", "--poly", "x^4+1", "--prime", "2")
    assert code == EXIT_BAD_INPUT
    assert "must be a positive integer" in err


def test_verification_failure_exits_4(capsys, monkeypatch):
    failing = VerificationReport(
        passed=False,
        content_valuation=0,
        factor_degrees=(1, 1),
        bipartitions=(BipartitionCheck(degrees=(1, 1), satisfied=()),),
        no_split_clauses=(),
    )
    # cli imports the oracle's functions when it calls them
    monkeypatch.setattr(
        "newton_gauge.oracle.verify_certificate", lambda *a, **k: failing
    )
    code, out, _ = _run(capsys, "verify", "--poly", "(x-1)*(x+1)", "--prime", "2")
    assert code == EXIT_VIOLATION
    assert "verification      FAIL" in out


def test_internal_error_exits_5(capsys, monkeypatch):
    # x+1 does not multiply back to x^2+2: a broken oracle, not bad input
    monkeypatch.setattr(
        "newton_gauge.oracle.kronecker_factor",
        lambda f: FactorizationWitness(1, 1, (Polynomial([1, 1]),)),
    )
    code, out, err = _run(capsys, "verify", "--poly", "x^2+2", "--prime", "2")
    assert code == EXIT_INTERNAL
    assert out == ""
    assert err.startswith("internal error: witness does not multiply back to x^2+2")


def test_non_dividing_oracle_factor_exits_5(capsys, monkeypatch):
    # a search whose factor and cofactor do not multiply back to f
    h = Polynomial([1, 1, 1])
    monkeypatch.setattr("newton_gauge.oracle._factor_of_degree", lambda f, k, budget: (h, h))
    code, out, err = _run(capsys, "verify", "--poly", "x^4+4x^2+4", "--prime", "2")
    assert code == EXIT_INTERNAL
    assert out == ""
    assert err.startswith("internal error: witness for x^4+4*x^2+4 does not multiply back")
    # a root whose one division fails
    monkeypatch.setattr("newton_gauge.oracle.exact_divide", lambda f, g: None)
    code, out, err = _run(capsys, "verify", "--poly", "x^2-1", "--prime", "2")
    assert code == EXIT_INTERNAL
    assert out == ""
    assert err.startswith("internal error: the oracle's factor x-1 does not divide x^2-1")


def test_a_root_reaching_the_split_search_exits_5(capsys, monkeypatch):
    # With the root search patched to find nothing, x^4-1 would factor as
    # (x^2-1)(x^2+1), which multiplies back: only the search's guard sees it.
    monkeypatch.setattr("newton_gauge.oracle._rational_root_factor", lambda f, budget: None)
    code, out, err = _run(capsys, "verify", "--poly", "x^4-1", "--prime", "2")
    assert code == EXIT_INTERNAL
    assert out == ""
    assert err == "internal error: the degree-2 search of x^4-1 met an integer root\n"


def test_stray_value_error_exits_5(capsys, monkeypatch):
    def broken(inp):
        raise ValueError("a defect, not bad input")

    monkeypatch.setattr("newton_gauge.cli.analyze", broken)
    code, out, err = _run(capsys, "analyze", "--poly", "x^2+2", "--prime", "2")
    assert code == EXIT_INTERNAL
    assert out == ""
    assert err == "internal error: a defect, not bad input\n"


@pytest.mark.parametrize("command", ["analyze", "verify"])
def test_poly_value_may_start_with_a_minus(capsys, command):
    joined = _run(capsys, command, "--poly=-x^7+2", "--prime", "2")
    separate = _run(capsys, command, "--poly", "-x^7+2", "--prime", "2")
    assert joined[0] == EXIT_OK
    assert separate == joined
    assert "polynomial        -x^7+2" in separate[1]


@pytest.mark.parametrize("command", ["analyze", "verify"])
def test_poly_value_may_start_with_a_double_minus(capsys, command):
    joined = _run(capsys, command, "--poly=--x^7+2", "--prime", "2")
    separate = _run(capsys, command, "--poly", "--x^7+2", "--prime", "2")
    assert joined[0] == EXIT_OK
    assert separate == joined
    assert "polynomial        x^7+2" in separate[1]


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "--prime", "2", "--poly"],
        ["analyze", "--poly", "--prime", "2"],
        ["analyze", "--poly", "--prime=2"],
        ["verify", "--poly", "--json", "--prime", "2"],
    ],
)
def test_missing_poly_value_is_still_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == EXIT_BAD_INPUT
    assert "argument --poly: expected one argument" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "--pol", "x^7+2", "--prime", "2"],
        ["analyze", "--pol", "-x^7+2", "--prime", "2"],
        ["verify", "--poly", "x^7+2", "--prim", "2"],
        ["analyze", "--poly", "x^7+2", "--prime", "2", "--verif"],
        ["sweep", "--prim", "2"],
        ["--hel"],
    ],
)
def test_flags_must_be_spelled_in_full(capsys, argv):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == EXIT_BAD_INPUT
    assert capsys.readouterr().err.startswith("usage: ")


def test_a_flag_prefix_after_poly_is_polynomial_text(capsys):
    # --verif is no flag, so it is the text of --poly, and a bad one
    code, out, err = _run(capsys, "analyze", "--prime", "2", "--poly", "--verif")
    assert code == EXIT_BAD_INPUT
    assert out == ""
    assert err.startswith("--poly: unknown variable 'v'")


def test_one_parser_serves_every_call_in_a_process(capsys):
    assert build_parser() is build_parser()
    code, report, _ = _run_json(
        capsys, "analyze", "--poly", "x^6+2*x^3+8", "--prime", "2", "--json"
    )
    assert code == EXIT_OK
    assert report["certificate"]["theorem"] == "TB"
    with pytest.raises(SystemExit) as info:
        main(["verify", "--poly", "x^2+2"])
    assert info.value.code == EXIT_BAD_INPUT
    assert "the following arguments are required: --prime" in capsys.readouterr().err
    code, out, _ = _run(capsys, "verify", "--poly", "(x-1)*(x+1)", "--prime", "2")
    assert code == EXIT_OK
    assert "verification      PASS" in out


# ---------------------------------------------------------------------------
# bad inputs


def test_composite_prime_is_rejected(capsys):
    code, _, err = _run(capsys, "analyze", "--poly", "x^2+2", "--prime", "4")
    assert code == EXIT_BAD_INPUT
    assert "4 is not prime" in err


def test_large_primes_are_checked_or_rejected(capsys):
    code, _, err = _run(capsys, "analyze", "--poly", "x^2+x+1", "--prime", "10000000000000061")
    assert code == EXIT_OK, err
    code, _, err = _run(capsys, "analyze", "--poly", "x^2+x+1", "--prime", "10000000000000063")
    assert code == EXIT_BAD_INPUT
    assert "10000000000000063 is not prime" in err
    code, _, err = _run(capsys, "analyze", "--poly", "x^2+x+1", "--prime", str(2**64 + 1))
    assert code == EXIT_BAD_INPUT
    assert "is not a valid prime candidate (need p < 2^64)" in err


def test_oversized_parsed_polynomials_are_rejected(capsys):
    code, _, err = _run(capsys, "analyze", "--poly", "x^2+x+2^20000", "--prime", "2")
    assert code == EXIT_BAD_INPUT
    assert "limit of 4000 digits at position 7" in err
    code, _, err = _run(capsys, "analyze", "--poly", "(x^1000)^2000+1", "--prime", "2")
    assert code == EXIT_BAD_INPUT
    assert "degree 2000000 exceeds the limit" in err


def test_parse_error_is_rejected(capsys):
    code, _, err = _run(capsys, "analyze", "--poly", "x^^2", "--prime", "2")
    assert code == EXIT_BAD_INPUT
    assert "at position" in err


def test_non_ascii_digits_are_rejected_with_a_position(capsys):
    code, _, err = _run(capsys, "analyze", "--poly", "x²+1", "--prime", "2")
    assert code == EXIT_BAD_INPUT
    assert "unexpected character '²' at position 1" in err
    code, out, err = _run(capsys, "analyze", "--poly", "x^2+٣", "--prime", "2")
    assert code == EXIT_BAD_INPUT
    assert out == ""
    assert "unexpected character '٣' at position 4" in err


def test_precondition_violations_are_rejected(capsys):
    code, _, err = _run(capsys, "analyze", "--poly", "x+1", "--prime", "2")
    assert code == EXIT_BAD_INPUT
    assert "degree >= 2" in err
    code, _, err = _run(capsys, "analyze", "--poly", "x^2+x", "--prime", "2")
    assert code == EXIT_BAD_INPUT
    assert "nonzero constant term" in err


# ---------------------------------------------------------------------------
# sweep


def test_sweep_exhaustive(capsys):
    code, report, _ = _run_json(
        capsys,
        "sweep", "--max-degree", "2", "--coeff-bound", "1",
        "--primes", "2,3", "--exhaustive", "--json",
    )
    assert code == EXIT_OK
    assert report["total"] == 24
    assert report["passed"] is True
    assert report["violations"] == []


def test_sweep_sampled(capsys):
    code, report, _ = _run_json(
        capsys,
        "sweep", "--max-degree", "4", "--coeff-bound", "3",
        "--sample", "20", "--seed", "3", "--json",
    )
    assert code == EXIT_OK
    assert report["total"] == 40  # 20 polynomials under the default primes 2,3
    assert report["corpus"]["seed"] == 3


def test_sweep_family_example2(capsys):
    code, report, _ = _run_json(
        capsys,
        "sweep", "--family", "example2", "--d", "2", "--primes", "2", "--json",
    )
    assert code == EXIT_OK
    assert report["family_rows"][0]["theorem"] == "TB"
    assert report["family_rows"][0]["matches_closed_form"] is True


def test_sweep_family_example1_no_verify(capsys):
    code, out, _ = _run(
        capsys,
        "sweep", "--family", "example1", "--n", "5,6", "--primes", "2,3", "--no-verify",
    )
    assert code == EXIT_OK
    assert "result            PASS" in out


def test_sweep_family_past_the_int_str_limit(capsys):
    code, out, err = _run(
        capsys, "sweep", "--family", "example1", "--n", "130", "--primes", "2", "--no-verify",
    )
    assert code == EXIT_OK, err
    assert "result            PASS" in out


def test_sweep_family_values_past_their_bound_are_bad_input(capsys):
    code, out, err = _run(capsys, "sweep", "--family", "example2", "--d", "1000", "--primes", "2")
    assert (code, out) == (EXIT_BAD_INPUT, "")
    assert err == (
        "--d: d = 1000 gives degree 1001000, more than the parser's degree limit 1000000\n"
    )
    code, out, err = _run(capsys, "sweep", "--family", "example1", "--n", "143", "--primes", "2")
    assert (code, out) == (EXIT_BAD_INPUT, "")
    assert err == "--n/--primes: n = 143 at p = 2 gives a top coefficient of more than 20000 bits\n"


def test_sweep_family_values_below_their_minimum_are_bad_input(capsys):
    code, _, err = _run(capsys, "sweep", "--family", "example1", "--n", "3", "--primes", "2")
    assert code == EXIT_BAD_INPUT
    assert "example1 needs n >= 5" in err
    code, _, err = _run(capsys, "sweep", "--family", "example2", "--d", "1", "--primes", "2")
    assert code == EXIT_BAD_INPUT
    assert "example2 needs d >= 2" in err


def test_sweep_family_rejects_an_oversized_corpus_before_enumerating(capsys, monkeypatch):
    def enumerated(n, p):
        raise AssertionError("the corpus was enumerated")

    monkeypatch.setattr("newton_gauge.families.example1_instances", enumerated)
    code, out, err = _run(capsys, "sweep", "--family", "example1", "--n", "5", "--primes", "101")
    assert code == EXIT_BAD_INPUT
    assert out == ""
    assert "the example1 corpus holds 100000000 polynomials, more than 1000000" in err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["--primes", "2,2"], "--primes"),
        (["--primes", "2,3,2", "--sample", "3"], "--primes"),
        (["--family", "example2", "--d", "2,2", "--primes", "2"], "--d"),
        (["--family", "example1", "--n", "5,5", "--primes", "2"], "--n"),
        (["--family", "example2", "--d", "2", "--primes", "3,3"], "--primes"),
    ],
)
def test_sweep_refuses_a_repeated_prime_or_family_value(capsys, argv, flag):
    code, out, err = _run(capsys, "sweep", *argv)
    assert code == EXIT_BAD_INPUT
    assert out == ""
    assert err.startswith(f"{flag}: ") and "must not repeat a value" in err


def test_sweep_family_requires_values(capsys):
    code, _, err = _run(capsys, "sweep", "--family", "example1", "--primes", "2")
    assert code == EXIT_BAD_INPUT
    assert "requires --n" in err
    code, _, err = _run(capsys, "sweep", "--family", "example2", "--primes", "2")
    assert code == EXIT_BAD_INPUT
    assert "requires --d" in err


def test_sweep_validates_primes(capsys):
    code, _, err = _run(capsys, "sweep", "--max-degree", "2", "--primes", "2,4")
    assert code == EXIT_BAD_INPUT
    assert "4 is not prime" in err
    code, _, err = _run(capsys, "sweep", "--primes", "")
    assert code == EXIT_BAD_INPUT
    assert "must not be empty" in err
    code, _, err = _run(capsys, "sweep", "--primes", "2;3")
    assert code == EXIT_BAD_INPUT
    assert "comma-separated" in err


def test_sweep_rejects_empty_corpus_arguments(capsys):
    code, _, err = _run(capsys, "sweep", "--min-degree", "5", "--max-degree", "3")
    assert code == EXIT_BAD_INPUT
    assert "min_degree (5) must not exceed max_degree (3)" in err
    code, _, err = _run(capsys, "sweep", "--min-degree", "0", "--max-degree", "1")
    assert code == EXIT_BAD_INPUT
    assert "min_degree must be at least 2" in err
    code, _, err = _run(capsys, "sweep", "--coeff-bound", "0")
    assert code == EXIT_BAD_INPUT
    assert "coeff_bound must be at least 1" in err
    code, _, err = _run(capsys, "sweep", "--sample", "0")
    assert code == EXIT_BAD_INPUT
    assert "sample must be at least 1" in err


def test_a_sample_sweep_past_the_parsers_degree_limit_is_refused(capsys, monkeypatch):
    def draw(*args):
        raise AssertionError("a refused sample must not be drawn")

    # Drawing one polynomial of degree 10^9 would take hours and hundreds of GB.
    monkeypatch.setattr("newton_gauge.sweeps.sampled_polynomials", draw)
    for degree in ("1000001", "1000000000"):
        code, out, err = _run(
            capsys, "sweep", "--sample", "1", "--min-degree", degree, "--max-degree", degree
        )
        assert (code, out) == (EXIT_BAD_INPUT, "")
        assert err == (
            "--max-degree: max_degree must not exceed 1000000, the parser's degree"
            f" limit, got {degree}\n"
        )


def test_sweep_rejects_an_oversized_exhaustive_corpus(capsys):
    code, _, err = _run(capsys, "sweep", "--max-degree", "7", "--no-verify")
    assert code == EXIT_BAD_INPUT
    assert "holds more than 1000000 polynomials; use --sample" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["analyze", "--poly", "x^2+", "--prime", "2"],
         "--poly: unexpected end of input at position 4"),
        (["verify", "--poly", "x+1", "--prime", "2"],
         "--poly: polynomial must have degree >= 2, got degree 1"),
        (["analyze", "--poly", "x^2+x", "--prime", "2"],
         "--poly: polynomial must have a nonzero constant term"),
        (["analyze", "--poly", "x^2+1", "--prime", "4"], "--prime: 4 is not prime"),
        (["verify", "--poly", "x^2+1", "--prime", "1"],
         "--prime: 1 is not a valid prime candidate (need p >= 2)"),
        (["sweep", "--primes", "2,4"], "--primes: 4 is not prime"),
        (["sweep", "--sample", "0"], "--sample: sample must be at least 1, got 0"),
        (["sweep", "--min-degree", "1"],
         "--min-degree: min_degree must be at least 2, got 1"),
        (["sweep", "--min-degree", "5", "--max-degree", "3"],
         "--min-degree/--max-degree: min_degree (5) must not exceed max_degree (3)"),
        (["sweep", "--coeff-bound", "0"],
         "--coeff-bound: coeff_bound must be at least 1, got 0"),
        (["sweep", "--max-degree", "7"],
         "--max-degree/--coeff-bound: the exhaustive corpus of degrees 2-7 with"
         " coeff_bound 3 holds more than 1000000 polynomials; use --sample to"
         " draw a random subset"),
        (["sweep", "--family", "example1", "--n", "3", "--primes", "2"],
         "--n: example1 needs n >= 5"),
        (["sweep", "--family", "example2", "--d", "1", "--primes", "2"],
         "--d: example2 needs d >= 2"),
        (["sweep", "--family", "example1", "--n", "5", "--primes", "101"],
         "--n/--primes: the example1 corpus holds 100000000 polynomials, more"
         " than 1000000; pass fewer values or smaller primes"),
        (["sweep", "--family", "example2", "--d", "2", "--primes", "1"],
         "--primes: 1 is not a valid prime candidate (need p >= 2)"),
    ],
)
def test_bad_input_messages_name_their_flag(capsys, argv, message):
    code, out, err = _run(capsys, *argv)
    assert code == EXIT_BAD_INPUT
    assert out == ""
    assert err == message + "\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["sweep", "--n", "5", "--primes", "2"], "--n is only for --family example1"),
        (["sweep", "--family", "example2", "--d", "2", "--n", "5"],
         "--n is only for --family example1"),
        (["sweep", "--family", "example1", "--n", "5", "--d", "3"],
         "--d is only for --family example2"),
        (["sweep", "--d", "3", "--max-degree", "2", "--no-verify"],
         "--d is only for --family example2"),
    ],
)
def test_family_flags_without_their_family_are_refused(capsys, argv, message):
    code, out, err = _run(capsys, *argv)
    assert code == EXIT_BAD_INPUT
    assert out == ""
    assert err == message + "\n"


@pytest.mark.parametrize(
    "flags, named",
    [
        (["--sample", "5", "--seed", "9", "--max-degree", "3"], "--max-degree/--sample/--seed"),
        (["--seed", "0"], "--seed"),  # a given default is still refused
        (["--min-degree", "2"], "--min-degree"),
        (["--coeff-bound", "3"], "--coeff-bound"),
        (["--exhaustive"], "--exhaustive"),
        (["--sample", "1"], "--sample"),
    ],
)
def test_corpus_flags_with_a_family_are_refused(capsys, flags, named):
    code, out, err = _run(
        capsys, "sweep", "--family", "example2", "--d", "2", "--primes", "2", *flags
    )
    assert code == EXIT_BAD_INPUT
    assert out == ""
    assert err == f"{named}: not used by a --family sweep\n"


@pytest.mark.parametrize(
    "flags, expected",
    [
        ([], (4, 3, 2, None, 0)),
        (["--exhaustive"], (4, 3, 2, None, 0)),
        (["--max-degree", "5", "--min-degree", "3", "--coeff-bound", "2"], (5, 2, 3, None, 0)),
        (["--sample", "7", "--seed", "11"], (4, 3, 2, 7, 11)),
    ],
)
def test_corpus_sweeps_keep_their_defaults(capsys, monkeypatch, flags, expected):
    from newton_gauge.sweeps import SweepSummary

    calls = []

    def recording(max_degree, coeff_bound, primes, *, min_degree, sample, seed, verify):
        calls.append((max_degree, coeff_bound, min_degree, sample, seed))
        return SweepSummary(corpus={"mode": "exhaustive"})

    monkeypatch.setattr("newton_gauge.sweeps.sweep", recording)
    code, _, _ = _run(capsys, "sweep", "--no-verify", *flags)
    assert code == EXIT_OK
    assert calls == [expected]


def test_sweep_violations_exit_4(capsys, monkeypatch):
    from newton_gauge.sweeps import SweepSummary, Violation

    broken = SweepSummary(corpus={"mode": "exhaustive"})
    broken.total = 1
    broken.violations.append(Violation("certificate", {"polynomial": "x^2+2"}))
    monkeypatch.setattr("newton_gauge.sweeps.sweep", lambda *a, **k: broken)
    code, out, _ = _run(capsys, "sweep", "--max-degree", "2")
    assert code == EXIT_VIOLATION
    assert "result            FAIL" in out


def test_exhaustive_and_sample_are_exclusive():
    with pytest.raises(SystemExit):
        main(["sweep", "--exhaustive", "--sample", "10"])


# ---------------------------------------------------------------------------
# process-level entry points


def test_module_invocation_round_trip():
    proc = subprocess.run(
        [sys.executable, "-m", "newton_gauge",
         "analyze", "--poly", "x^6+2*x^3+8", "--prime", "2", "--json"],
        capture_output=True, text=True,
    )
    assert proc.returncode == EXIT_OK
    report = json.loads(proc.stdout)
    assert report["certificate"]["theorem"] == "TB"

    proc = subprocess.run(
        [sys.executable, "-m", "newton_gauge",
         "analyze", "--poly", "x^2+2", "--prime", "4"],
        capture_output=True, text=True,
    )
    assert proc.returncode == EXIT_BAD_INPUT
    assert "4 is not prime" in proc.stderr


def _child_env():
    """Environment for a child that imports the same newton_gauge as this test."""
    package_root = Path(newton_gauge.__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(package_root), env.get("PYTHONPATH")])
    )
    return env


# Runs verify through cli.main, then reports whether the oracle's divisor
# enumeration ran and whether sympy was ever imported.
_NO_SYMPY_CHILD = """\
import json, sys
from newton_gauge import cli, oracle
code = cli.main(sys.argv[1:])
print(json.dumps({"code": code, "divisor_calls": oracle._divisors.cache_info().misses,
                  "sympy": "sympy" in sys.modules}))
"""


def test_verify_runs_without_importing_sympy():
    env = _child_env()
    proc = subprocess.run(
        [sys.executable, "-c", _NO_SYMPY_CHILD,
         "verify", "--poly", "4*x^4+2*x^3-6*x+2", "--prime", "2"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    *report, status = proc.stdout.splitlines()
    assert "verification      PASS" in report
    status = json.loads(status)
    assert status["code"] == EXIT_OK
    assert status["divisor_calls"] > 0
    assert status["sympy"] is False


# Runs cli.main, then reports every module that was ever loaded.
_LOADED_MODULES_CHILD = """\
import json, sys
from newton_gauge import cli
code = cli.main(sys.argv[1:])
print(json.dumps({"code": code, "modules": sorted(sys.modules)}))
"""
# `import dataclasses` loads these; the package imports none of them.
_DATACLASS_IMPORTS = {"dataclasses", "inspect", "dis", "ast", "tokenize"}


def _loaded_modules(*argv):
    proc = subprocess.run(
        [sys.executable, "-c", _LOADED_MODULES_CHILD, *argv],
        capture_output=True, text=True, env=_child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    status = json.loads(proc.stdout.splitlines()[-1])
    assert status["code"] == EXIT_OK
    return status["modules"]


def test_analyze_never_loads_the_oracle():
    modules = _loaded_modules("analyze", "--poly", "x^6+2*x^3+8", "--prime", "2", "--json")
    assert "newton_gauge.report" in modules
    assert "newton_gauge.oracle" not in modules
    assert "newton_gauge.sweeps" not in modules
    assert "newton_gauge.families" not in modules
    assert _DATACLASS_IMPORTS.isdisjoint(modules)
    # A cold verify compiles the oracle it runs and nothing of the sweeps.
    modules = _loaded_modules("verify", "--poly", "x^6+2*x^3+8", "--prime", "2")
    assert "newton_gauge.oracle" in modules
    assert "newton_gauge.sweeps" not in modules
    assert "newton_gauge.families" not in modules
    assert _DATACLASS_IMPORTS.isdisjoint(modules)


# Runs sweep(3, 3, [2, 3]), then reports its totals and every module loaded.
_SWEEP_MODULES_CHILD = """\
import json, sys
from newton_gauge import sweep
summary = sweep(3, 3, [2, 3])
print(json.dumps({"passed": summary.passed, "total": summary.total,
                  "modules": sorted(sys.modules)}))
"""


def test_a_sample_sweep_loads_the_sweeps_but_not_the_families():
    modules = _loaded_modules("sweep", "--sample", "5", "--primes", "2")
    assert "newton_gauge.sweeps" in modules
    assert "newton_gauge.families" not in modules


def test_the_sweep_names_resolve_through_the_sweeps_module(monkeypatch):
    from newton_gauge import oracle, sweeps

    # The submodule is not named `sweep`: importing it would rebind the
    # package's `sweep` to the module.
    assert newton_gauge.sweep is sweeps.sweep
    assert oracle.sweep is sweeps.sweep
    assert "sweep" not in vars(oracle) and "sweep" not in vars(newton_gauge)
    # Every access reads the current binding, as a tracer needs.
    monkeypatch.setattr(sweeps, "sweep", lambda *args, **kwargs: None)
    assert oracle.sweep is sweeps.sweep is newton_gauge.sweep
    with pytest.raises(AttributeError, match="sweep_family"):
        oracle.sweep_family


def test_analyze_and_sweep_never_load_fractions_or_decimal():
    # Slopes are integer pairs from the valuations to the report's text;
    # importing fractions would also load decimal.
    rationals = {"fractions", "decimal"}
    modules = _loaded_modules("analyze", "--poly", "x^6+2*x^3+8", "--prime", "2", "--json")
    assert rationals.isdisjoint(modules)
    proc = subprocess.run(
        [sys.executable, "-c", _SWEEP_MODULES_CHILD],
        capture_output=True, text=True, env=_child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    status = json.loads(proc.stdout)
    assert status["passed"] and status["total"] == 2 * (6 * 6 * 7 + 6 * 6 * 7 * 7)
    assert "newton_gauge.oracle" in status["modules"]
    assert rationals.isdisjoint(status["modules"])


def _compile_peak_bytes(path):
    source = path.read_bytes()
    tracemalloc.start()
    try:
        compile(source, str(path), "exec", dont_inherit=True)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.skipif(
    sys.implementation.name != "cpython" or sys.version_info[:2] != (3, 11),
    reason="the compiler's peak memory is pinned on CPython 3.11",
)
def test_compiling_every_module_stays_below_3_mib():
    # A cold child compiles each module it imports from source.  CPython
    # 3.11's compiler peak steps from about 2.7 to over 3.2 MiB once a
    # module grows by a few hundred bytes of code (comments barely count),
    # and that step showed in a cold child's peak RSS when oracle.py held
    # the sweeps.
    paths = sorted(Path(newton_gauge.__file__).parent.glob("*.py"))
    assert {"oracle.py", "sweeps.py", "polynomial.py"} <= {path.name for path in paths}
    for path in paths:
        peaks = {_compile_peak_bytes(path) for _ in range(3)}
        assert len(peaks) == 1, path.name
        assert peaks.pop() <= 3 * 2**20, path.name


def test_budget_exhaustion_exits_3_in_a_fresh_process():
    # nothing imported the oracle before cli.main maps its budget error
    env = _child_env()
    env[BUDGET_ENV_VAR] = "1"
    proc = subprocess.run(
        [sys.executable, "-m", "newton_gauge", "verify", "--poly", "x^4+1", "--prime", "2"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == EXIT_BUDGET
    assert "oracle out of budget" in proc.stderr


def test_closed_stdout_exits_1_quietly():
    # The report (~77 KB) overflows the pipe buffer, so the child meets the
    # closed pipe however early or late it writes.
    poly = "x^20+" + "+".join(f"{'9' * 3999}*x^{i}" for i in range(1, 20)) + "+1"
    proc = subprocess.Popen(
        [sys.executable, "-m", "newton_gauge", "analyze", "--poly", poly, "--prime", "2"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_child_env(),
    )
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == EXIT_BROKEN_PIPE
    assert err == b""


def test_oracle_names_resolve_lazily_from_the_package():
    from newton_gauge import kronecker_factor
    from newton_gauge import oracle

    assert kronecker_factor is oracle.kronecker_factor
    for name in newton_gauge.__all__:
        assert getattr(newton_gauge, name) is not None, name
    assert newton_gauge.OracleBudgetError is oracle.OracleBudgetError
    with pytest.raises(AttributeError, match="no_such_name"):
        newton_gauge.no_such_name


_SCRIPT_ARGS = ["verify", "--poly", "x^2+2", "--prime", "2"]

# What pip's generated launcher does: import the declared function, name the
# program after the script, and exit with whatever the function returns.
_LAUNCHER = """\
import importlib, sys
module_name, func_name = sys.argv[1], sys.argv[2]
func = getattr(importlib.import_module(module_name), func_name)
sys.argv[0:3] = ["newton-gauge"]
sys.exit(func())
"""


def _assert_verify_passes(proc):
    assert proc.returncode == EXIT_OK, proc.stderr
    assert "verification      PASS" in proc.stdout, proc.stderr


def test_console_script():
    """The declared ``newton-gauge`` script runs, launched as pip would."""
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["newton-gauge"]
    module_name, func_name = target.split(":")

    env = _child_env()
    proc = subprocess.run(
        [sys.executable, "-c", _LAUNCHER, module_name, func_name, *_SCRIPT_ARGS],
        capture_output=True, text=True, env=env,
    )
    _assert_verify_passes(proc)


@pytest.mark.skipif(
    shutil.which("newton-gauge") is None,
    reason="no installed newton-gauge launcher on PATH",
)
def test_installed_console_script():
    proc = subprocess.run(
        [shutil.which("newton-gauge"), *_SCRIPT_ARGS],
        capture_output=True, text=True,
    )
    _assert_verify_passes(proc)
