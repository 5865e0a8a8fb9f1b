"""Command-line front end.

Subcommands: construct, verify, check, sweep.  All payload output is JSON
or CSV on stdout (or --out); logs go to stderr.  Exit codes: 0 success or
pass, 1 verification failure, 2 infeasible construction, 3 indeterminate
certification, 64 usage error, 65 unreadable input data.

The certified-arithmetic precision floor is 2^-E with E from the
EQUISUM_PRECISION_FLOOR environment variable (default 200, at most 4096).
`sweep --jobs` is at most 256, and a sweep runs no more worker processes
than there are CPUs or than half its pairs.  `construct` takes a + b of at
most 1000: the set has a + b + 1 points of a + b coordinates, and at the
bound construct then verify took 0.5 s and 1.7 s with peak RSS of 112 MB
and 102 MB (a = 1, 2 CPUs).  Values out of range are usage errors (exit 64).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import time
from fractions import Fraction

from .constructions import InfeasibleConstructionError, construct
from .feasibility import FeasibilityVerdict, VerdictKind, classify, lemma_applies
from .mixednorm import (
    DEFAULT_REL_TOL,
    pointset_from_json,
    pointset_to_json,
    verify_equilateral,
)
from .realnum import DEFAULT_EPS_FLOOR
from .sweep import emit_report_csv, emit_report_json, fraction_to_decimal_str, run_sweep

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_INFEASIBLE = 2
EXIT_INDETERMINATE = 3
EXIT_USAGE = 64
EXIT_DATA = 65

ENV_PRECISION_FLOOR = "EQUISUM_PRECISION_FLOOR"
# 2^-4096 is far below any decision this package reaches (they resolve near
# 2^-23); the bound keeps 2**E from being asked for a huge integer.
MAX_PRECISION_FLOOR_EXP = 4096
MAX_JOBS = 256
# construct's a + b: the set is (a+b+1) x (a+b) floats, up to 25 bytes each
# as JSON, and verify's time grows as (a+b)^3.
MAX_CONSTRUCT_DIM = 1000


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags; route through the documented code instead
    def error(self, message: str):
        raise _UsageError(message)


def _eps_floor_from_env() -> Fraction:
    raw = os.environ.get(ENV_PRECISION_FLOOR)
    if raw is None:
        return DEFAULT_EPS_FLOOR
    try:
        exp = int(raw)
        if not 1 <= exp <= MAX_PRECISION_FLOOR_EXP:
            raise ValueError
    except ValueError:
        raise _UsageError(
            f"{ENV_PRECISION_FLOOR} must be an integer exponent in "
            f"[1, {MAX_PRECISION_FLOOR_EXP}], got {raw!r}"
        ) from None
    return Fraction(1, 2**exp)


def _write_output(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _verdict_jsonable(v: FeasibilityVerdict) -> dict:
    obj: dict = {"kind": v.kind.value}
    if v.params is not None:
        obj.update(c=v.params.c, alpha=v.params.alpha, beta=v.params.beta)
    if v.margin is not None:
        obj["margin_lo"] = fraction_to_decimal_str(v.margin.lo)
        obj["margin_hi"] = fraction_to_decimal_str(v.margin.hi)
    return obj


def cmd_construct(args: argparse.Namespace, eps_floor: Fraction) -> int:
    if args.a < 1 or args.b < 1:
        raise _UsageError("construct: --a and --b must be >= 1")
    if args.a + args.b > MAX_CONSTRUCT_DIM:
        raise _UsageError(f"construct: --a plus --b must be at most {MAX_CONSTRUCT_DIM}")
    try:
        result = construct(args.a, args.b, eps_floor)
    except InfeasibleConstructionError as exc:
        body = {"error": "InfeasibleConstruction", "a": args.a, "b": args.b}
        body["verdict"] = _verdict_jsonable(exc.verdict)
        _write_output(json.dumps(body, indent=2) + "\n", args.out)
        if exc.verdict.kind is VerdictKind.INDETERMINATE:
            return EXIT_INDETERMINATE
        return EXIT_INFEASIBLE
    _write_output(pointset_to_json(result.point_set), args.out)
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    if not 0 < args.rel_tol < math.inf:
        raise _UsageError("verify: --rel-tol must be positive and finite")
    try:
        with open(args.in_path, "r", encoding="utf-8") as fh:
            text = fh.read()
        point_set = pointset_from_json(text)
    except (OSError, ValueError) as exc:
        print(f"verify: cannot read point set: {exc}", file=sys.stderr)
        return EXIT_DATA
    report = verify_equilateral(point_set, args.rel_tol)
    body = {
        "n_points": report.n_points,
        "n_pairs": report.n_pairs,
        "lambda": report.lam,
        "rel_tol": report.rel_tol,
        "max_abs_deviation": report.max_abs_deviation,
        "worst_pair": list(report.worst_pair) if report.worst_pair else None,
        "pass": report.passed,
    }
    _write_output(json.dumps(body, indent=2) + "\n", args.out)
    return EXIT_OK if report.passed else EXIT_VERIFY_FAIL


def cmd_check(args: argparse.Namespace, eps_floor: Fraction) -> int:
    if args.a < 1 or args.b < 1:
        raise _UsageError("check: --a and --b must be >= 1")
    verdict = classify(args.a, args.b, eps_floor)
    body = {"a": args.a, "b": args.b}
    body.update(_verdict_jsonable(verdict))
    effective = verdict
    if verdict.kind is VerdictKind.SWAP_AND_RECURSE:
        effective = classify(args.b, args.a, eps_floor)
        body["resolved"] = _verdict_jsonable(effective)
    lo, hi = sorted((args.a, args.b))
    body["lemma_covered"] = bool(hi > lo >= 2 and lemma_applies(lo, hi))
    _write_output(json.dumps(body, indent=2) + "\n", args.out)
    return EXIT_OK if effective.conclusive else EXIT_INDETERMINATE


def cmd_sweep(args: argparse.Namespace, eps_floor: Fraction) -> int:
    if args.a_min < 2 or args.a_min > args.a_max:
        raise _UsageError("sweep: need 2 <= a-min <= a-max")
    if args.b_max is not None and args.b_max < 2:
        raise _UsageError("sweep: --b-max must be >= 2")
    if not 1 <= args.jobs <= MAX_JOBS:
        raise _UsageError(f"sweep: --jobs must be in [1, {MAX_JOBS}]")
    t0 = time.perf_counter()
    report = run_sweep(args.a_min, args.a_max, b_max=args.b_max, eps_floor=eps_floor, jobs=args.jobs)
    text = emit_report_csv(report) if args.format == "csv" else emit_report_json(report)
    _write_output(text, args.out)
    print(
        f"sweep: {len(report.records)} pairs, {len(report.failing_pairs)} failing, "
        f"{time.perf_counter() - t0:.2f}s",
        file=sys.stderr,
    )
    return EXIT_OK if report.conclusive else EXIT_INDETERMINATE


@functools.cache
def _build_parser() -> _Parser:
    # built once per process: parse_args returns a fresh Namespace and
    # error() raises, so no state carries from one main() call to the next
    parser = _Parser(prog="equisum", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_construct = sub.add_parser("construct", help="emit an equilateral point set as JSON")
    p_construct.add_argument("--a", type=int, required=True)
    p_construct.add_argument("--b", type=int, required=True)
    p_construct.add_argument("--out", default=None)

    p_verify = sub.add_parser("verify", help="check a point set file for equilaterality")
    p_verify.add_argument("--in", dest="in_path", required=True)
    p_verify.add_argument("--rel-tol", type=float, default=DEFAULT_REL_TOL)
    p_verify.add_argument("--out", default=None)

    p_check = sub.add_parser("check", help="certified feasibility verdict for one pair")
    p_check.add_argument("--a", type=int, required=True)
    p_check.add_argument("--b", type=int, required=True)
    p_check.add_argument("--out", default=None)

    p_sweep = sub.add_parser("sweep", help="classify a range of pairs and emit a report")
    p_sweep.add_argument("--a-min", type=int, required=True)
    p_sweep.add_argument("--a-max", type=int, required=True)
    p_sweep.add_argument("--b-max", type=int, default=None,
                         help="scan b up to this bound instead of the lemma threshold")
    p_sweep.add_argument("--format", choices=("json", "csv"), default="json")
    p_sweep.add_argument("--jobs", type=int, default=1)
    p_sweep.add_argument("--out", default=None)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        eps_floor = _eps_floor_from_env()
        if args.command == "construct":
            return cmd_construct(args, eps_floor)
        if args.command == "verify":
            return cmd_verify(args)
        if args.command == "check":
            return cmd_check(args, eps_floor)
        return cmd_sweep(args, eps_floor)
    except _UsageError as exc:
        print(f"equisum: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
