"""Command-line interface.

Three subcommands:

* analyze: parse a polynomial, run the criteria, print the report
  (add --verify to also run the factorization oracle).
* verify: analyze, factor with the oracle, and check the certificate.
* sweep: run a corpus or family sweep and summarize the outcome.

Exit codes: 0 success (a "none" certificate still counts), 1 stdout
closed by its reader before the report was written, 2 bad input (a
ParseError or InvalidInputError), 3 oracle out of budget when
verification was requested, 4 verification failure or sweep
violations, 5 internal error (a broken invariant of this program, or
any other ValueError: never the input's fault).  A bad-input message
names the flag it concerns, in front of the library's message when the
library raised it (``--prime: 4 is not prime``).  --json switches any
subcommand from the aligned text rendering to the JSON report; both
come from the same report dict.

Only verification and sweeps need the factorization oracle, so
``oracle`` is imported inside those paths, and ``sweeps`` only inside
the sweep path: a plain ``analyze`` loads the parser, the Newton
polygon, the criteria and the report modules, and nothing else from the
package, and ``verify`` adds the oracle alone.

``--poly TEXT`` may start with a minus (``--poly -x^7+2``, or
``--poly --x+3``, a double minus): ``main`` passes it to argparse as
``--poly=TEXT``, which argparse would otherwise read as an option,
unless TEXT is one of the parser's own long flags.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from typing import Optional, Sequence

from .criteria import analyze
from .polynomial import (
    AnalysisInput,
    InternalError,
    InvalidInputError,
    OracleBudgetError,
    ParseError,
    parse_polynomial,
)
from .report import (
    analysis_report,
    render_analysis_text,
    render_sweep_text,
    sweep_report,
    verification_dict,
)

EXIT_OK = 0
EXIT_BROKEN_PIPE = 1
EXIT_BAD_INPUT = 2
EXIT_BUDGET = 3
EXIT_VIOLATION = 4
EXIT_INTERNAL = 5


def _csv_ints(text: str, what: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise InvalidInputError(f"{what} must be a comma-separated list of integers: {text!r}")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="newton-gauge",
        description="Polygon-based factor-degree certificates for integer"
        " polynomials under a p-adic valuation.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    analyze_p = sub.add_parser(
        "analyze", help="analyze one polynomial and print the certificate", allow_abbrev=False
    )
    analyze_p.add_argument("--poly", required=True, help='polynomial in x, e.g. "x^6+2*x^3+8"')
    analyze_p.add_argument("--prime", required=True, type=int, help="prime defining the valuation")
    analyze_p.add_argument(
        "--verify", action="store_true", help="also factor with the oracle and verify"
    )
    analyze_p.add_argument("--json", action="store_true", help="emit the JSON report")

    verify_p = sub.add_parser(
        "verify", help="analyze, factor with the oracle, and check the certificate",
        allow_abbrev=False,
    )
    verify_p.add_argument("--poly", required=True)
    verify_p.add_argument("--prime", required=True, type=int)
    verify_p.add_argument("--json", action="store_true")

    sweep_p = sub.add_parser("sweep", help="run a corpus or family sweep", allow_abbrev=False)
    # The corpus flags default to None, so that a --family sweep can tell
    # a given flag from a default and refuse it; _run_sweep fills them in.
    sweep_p.add_argument("--max-degree", type=int, help="default 4")
    sweep_p.add_argument("--min-degree", type=int, help="default 2")
    sweep_p.add_argument("--coeff-bound", type=int, help="default 3")
    sweep_p.add_argument("--primes", default="2,3", help="comma-separated primes")
    mode = sweep_p.add_mutually_exclusive_group()
    mode.add_argument(
        "--exhaustive", action="store_true", default=None,
        help="enumerate the whole corpus (the default)",
    )
    mode.add_argument("--sample", type=int, help="draw this many random polynomials")
    sweep_p.add_argument("--seed", type=int, help="seed for --sample (default 0)")
    sweep_p.add_argument(
        "--family", choices=["example1", "example2"],
        help="sweep a built-in family instead of a coefficient corpus",
    )
    sweep_p.add_argument("--n", help="comma-separated n values for --family example1")
    sweep_p.add_argument("--d", help="comma-separated d values for --family example2")
    sweep_p.add_argument(
        "--no-verify", action="store_true",
        help="skip the factorization oracle (parameter checks only)",
    )
    sweep_p.add_argument("--json", action="store_true")
    return parser


def _emit(report: dict, as_json: bool) -> None:
    if as_json:
        print(json.dumps(report, sort_keys=True))
    elif report["kind"] == "analysis":
        print(render_analysis_text(report))
    else:
        print(render_sweep_text(report))


def _run_analysis(args: argparse.Namespace, with_verify: bool) -> int:
    poly = parse_polynomial(args.poly)
    inp = AnalysisInput(poly, args.prime)
    analysis = analyze(inp)
    verification: Optional[dict] = None
    failed = False
    if with_verify:
        if not analysis.certificate.applies:
            verification = {"skipped": "no certificate to verify"}
        else:
            from .oracle import kronecker_factor, verify_certificate

            witness = kronecker_factor(poly)
            outcome = verify_certificate(poly, args.prime, analysis.certificate, witness)
            verification = verification_dict(witness, outcome)
            failed = not outcome.passed
    _emit(analysis_report(analysis, verification), args.json)
    return EXIT_VIOLATION if failed else EXIT_OK


def _run_sweep(args: argparse.Namespace) -> int:
    from .sweeps import sweep, sweep_family

    if args.n is not None and args.family != "example1":
        raise InvalidInputError("--n is only for --family example1")
    if args.d is not None and args.family != "example2":
        raise InvalidInputError("--d is only for --family example2")
    corpus = {
        "max_degree": 4, "min_degree": 2, "coeff_bound": 3, "exhaustive": None,
        "sample": None, "seed": 0,
    }
    given = [name for name in corpus if getattr(args, name) is not None]
    if args.family and given:
        raise InvalidInputError("not used by a --family sweep", *given)
    corpus.update((name, getattr(args, name)) for name in given)
    primes = _csv_ints(args.primes, "--primes")
    if args.family:
        name = "n" if args.family == "example1" else "d"
        if not getattr(args, name):
            raise InvalidInputError(f"--family {args.family} requires --{name}")
        values = _csv_ints(getattr(args, name), f"--{name}")
        summary = sweep_family(
            args.family, values, primes, verify=not args.no_verify
        )
    else:
        summary = sweep(
            corpus["max_degree"],
            corpus["coeff_bound"],
            primes,
            min_degree=corpus["min_degree"],
            sample=corpus["sample"],
            seed=corpus["seed"],
            verify=not args.no_verify,
        )
    _emit(sweep_report(summary), args.json)
    return EXIT_OK if summary.passed else EXIT_VIOLATION


def _bad_input_message(exc: ValueError) -> str:
    """The message of a ParseError or InvalidInputError, after the flags it names."""
    # --poly is the only text the CLI parses
    names = ("poly",) if isinstance(exc, ParseError) else exc.arguments
    flags = "/".join("--" + name.replace("_", "-") for name in names)
    return f"{flags}: {exc}" if flags else str(exc)


@functools.cache
def _long_flags() -> frozenset[str]:
    """The long flags of every subcommand that :func:`build_parser` defines."""
    (commands,) = build_parser()._subparsers._group_actions
    return frozenset(
        flag
        for sub in commands.choices.values()
        for flag in sub._option_string_actions
        if flag.startswith("--")
    )


def _attach_poly_values(argv: Sequence[str]) -> list[str]:
    """Rewrite ``--poly -TEXT`` as ``--poly=-TEXT``.

    argparse reads a separate token that starts with "-" as an option,
    so ``--poly -x^7+2`` or ``--poly --x+3`` would fail with "expected
    one argument".  One of :func:`_long_flags`, alone or with ``=value``,
    is left alone: it is the next option, and a missing value is
    reported as before (``--poly --prime 2``).
    """
    out: list[str] = []
    for token in argv:
        after_poly = out and out[-1] == "--poly"
        if after_poly and token.startswith("-") and token.partition("=")[0] not in _long_flags():
            out[-1] = f"--poly={token}"
        else:
            out.append(token)
    return out


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(_attach_poly_values(sys.argv[1:] if argv is None else argv))
    try:
        if args.command == "analyze":
            return _run_analysis(args, with_verify=args.verify)
        if args.command == "verify":
            return _run_analysis(args, with_verify=True)
        return _run_sweep(args)
    except OracleBudgetError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_BUDGET
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except (ParseError, InvalidInputError) as exc:
        print(_bad_input_message(exc), file=sys.stderr)
        return EXIT_BAD_INPUT
    except ValueError as exc:
        # Input errors are raised as ParseError or InvalidInputError; any
        # other ValueError is a defect here, not the input's fault.
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def entry_point() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader of stdout is gone.  Point stdout at devnull so that
        # the interpreter's own flush at exit cannot fail a second time.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        code = EXIT_BROKEN_PIPE
    sys.exit(code)


if __name__ == "__main__":
    entry_point()
