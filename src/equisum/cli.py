"""Command-line front end.

Subcommands: construct, verify, check, sweep.  All payload output is JSON
or CSV on stdout (or --out); logs go to stderr.  Exit codes: 0 success or
pass, 1 verification failure, 2 infeasible construction, 3 indeterminate
certification, 64 usage error, 65 unreadable input data, 73 output that
cannot be written (--out in a missing directory, say).

`sweep --jobs` is at most 256, and a sweep runs no more worker processes
than there are CPUs or than half its pairs.  A sweep makes at most
MAX_SWEEP_RECORDS = 400,000 records (a-max <= 105 without --b-max); the
sweep counts them as it builds the range and raises ValueError past the
bound, which exits 64 before any pair is decided or --out is opened.
A sweep opens its output before it decides the first pair, so an --out that
cannot be written exits 73 having decided none.
Each task, a range of b for one a of at most a^2 - 1 rows (and never more
than 4,096), is rendered as soon as it is made, so a sweep holds O(a^2)
records at once.  CSV is written task by task, and a sweep stopped partway
leaves the rows already written in --out; JSON puts its summary before the
records, so it holds their text, not the records, until the last task.
`construct` takes a + b of at most 1000: the set has a + b + 1 points of
a + b coordinates, and at the bound construct took 0.12 s with peak RSS of
79 MB (a = 1, 2 CPUs, in a fresh process); verify took 1.23 s and
peaked at 78 MB.  The parse converts each distinct number once, so the rows
of that set share five floats; the 25 MB text is dropped once parsed, and
the distances need O(n (a+b)) memory plus one cache-sized block and one
chunk's distances, which cuts a band row of 500 x 999 differences along k.
Values out of range are usage errors (exit 64).
`verify` takes a file of at most 32 MiB and a set of at most 1001 points,
the most construct emits (25 MB as JSON at a = 1, b = 999).  A larger file
is rejected as input data (exit 65) before it is parsed, and a larger set
before any distance is computed; so are JSON nested too deep to parse, an
a or b above MAX_DIMENSION = 2^24, a coordinate that is a boolean, and a
coordinate that is NaN or above MAX_COORDINATE = 1e150 in magnitude, a
bound that keeps every distance finite and the report strict JSON.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import sys
import time

from .constructions import InfeasibleConstructionError, construct
from .feasibility import FeasibilityVerdict, VerdictKind, classify, lemma_applies
from .mixednorm import (
    DEFAULT_REL_TOL,
    pointset_from_json,
    pointset_to_json,
    verify_equilateral,
)
from .sweep import Sweep, emit, margin_strings

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_INFEASIBLE = 2
EXIT_INDETERMINATE = 3
EXIT_USAGE = 64
EXIT_DATA = 65
EXIT_CANTCREAT = 73

MAX_JOBS = 256
# construct's a + b: the set is (a+b+1) x (a+b) floats, up to 25 bytes each
# as JSON, and verify's time grows as (a+b)^3.
MAX_CONSTRUCT_DIM = 1000
# verify's input file: the largest set construct emits is 24,993,135 bytes
MAX_VERIFY_BYTES = 32 * 2**20


class _UsageError(Exception):
    pass


class _DataError(Exception):
    """Input data that cannot be used: exit 65, with this message."""


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags; route through the documented code instead
    def error(self, message: str):
        raise _UsageError(message)


def _verdict_jsonable(v: FeasibilityVerdict) -> dict:
    obj: dict = {"kind": v.kind.value}
    if v.params is not None:
        obj.update(c=v.params.c, alpha=v.params.alpha, beta=v.params.beta)
    if v.margin is not None:
        obj["margin_lo"], obj["margin_hi"] = margin_strings(v.margin)
    return obj


# Each command checks its arguments and input, or raises _UsageError or
# _DataError, before it opens its output through _output, so an input that
# exits 64 or 65 never creates or truncates --out.  It then writes its payload
# and returns its exit code; an OSError from opening or writing exits 73.
def _output(args: argparse.Namespace):
    """stdout, or --out opened for writing; a context manager either way, and
    only --out is closed at its end."""
    return contextlib.nullcontext(sys.stdout) if args.out is None else open(args.out, "w", encoding="utf-8")


def cmd_construct(args: argparse.Namespace) -> int:
    if args.a < 1 or args.b < 1:
        raise _UsageError("construct: --a and --b must be >= 1")
    if args.a + args.b > MAX_CONSTRUCT_DIM:
        raise _UsageError(f"construct: --a plus --b must be at most {MAX_CONSTRUCT_DIM}")
    try:
        text, code = pointset_to_json(construct(args.a, args.b).point_set), EXIT_OK
    except InfeasibleConstructionError as exc:
        body = {"error": "InfeasibleConstruction", "a": args.a, "b": args.b}
        body["verdict"] = _verdict_jsonable(exc.verdict)
        text = json.dumps(body, indent=2) + "\n"
        code = EXIT_INDETERMINATE if exc.verdict.kind is VerdictKind.INDETERMINATE else EXIT_INFEASIBLE
    with _output(args) as fh:
        fh.write(text)
    return code


def cmd_verify(args: argparse.Namespace) -> int:
    if not 0 < args.rel_tol < math.inf:
        raise _UsageError("verify: --rel-tol must be positive and finite")
    try:
        with open(args.in_path, "rb") as fh:
            # sized from fstat, so a small file does not allocate a buffer of
            # the bound; a file that grew, or a pipe (size 0), reads on to it
            size = os.fstat(fh.fileno()).st_size
            data = fh.read(min(size, MAX_VERIFY_BYTES) + 1)
            if len(data) > size:
                data += fh.read(MAX_VERIFY_BYTES + 1 - len(data))
        if len(data) > MAX_VERIFY_BYTES:
            raise ValueError(f"file larger than {MAX_VERIFY_BYTES} bytes")
        text = data.decode("utf-8")
        del data  # else the bytes stay alive, and count in peak memory, through the parse
        point_set = pointset_from_json(text)
        del text  # the set holds what the distances need
    except (OSError, ValueError) as exc:
        raise _DataError(f"verify: cannot read point set: {exc}") from None
    if len(point_set) > MAX_CONSTRUCT_DIM + 1:
        raise _DataError(f"verify: {len(point_set)} points, at most {MAX_CONSTRUCT_DIM + 1} allowed")
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
    with _output(args) as fh:
        fh.write(json.dumps(body, indent=2) + "\n")
    return EXIT_OK if report.passed else EXIT_VERIFY_FAIL


def cmd_check(args: argparse.Namespace) -> int:
    if args.a < 1 or args.b < 1:
        raise _UsageError("check: --a and --b must be >= 1")
    verdict = classify(args.a, args.b)
    body = {"a": args.a, "b": args.b}
    body.update(_verdict_jsonable(verdict))
    effective = verdict
    if verdict.kind is VerdictKind.SWAP_AND_RECURSE:
        effective = classify(args.b, args.a)
        body["resolved"] = _verdict_jsonable(effective)
    lo, hi = sorted((args.a, args.b))
    body["lemma_covered"] = bool(hi > lo >= 2 and lemma_applies(lo, hi))
    with _output(args) as fh:
        fh.write(json.dumps(body, indent=2) + "\n")
    return EXIT_OK if effective.conclusive else EXIT_INDETERMINATE


def cmd_sweep(args: argparse.Namespace) -> int:
    if not 1 <= args.jobs <= MAX_JOBS:
        raise _UsageError(f"sweep: --jobs must be in [1, {MAX_JOBS}]")
    try:  # the range and its record count are checked before any pair is decided
        sweep = Sweep(args.a_min, args.a_max, b_max=args.b_max, jobs=args.jobs)
    except ValueError as exc:
        raise _UsageError(f"sweep: {exc}") from None
    t0 = time.perf_counter()
    with _output(args) as fh:
        fh.writelines(emit(sweep, sweep.chunks(), args.format))
    elapsed = time.perf_counter() - t0
    print(f"sweep: {sweep.pairs} pairs, {len(sweep.failing_pairs)} failing, {elapsed:.2f}s", file=sys.stderr)
    return EXIT_OK if sweep.conclusive else EXIT_INDETERMINATE


@functools.cache
def _build_parser() -> _Parser:
    # built once per process: parse_args returns a fresh Namespace and
    # error() raises, so no state carries from one main() call to the next
    # the help names the subcommands, channels and exit codes: the
    # docstring's second paragraph, not its notes on bounds and costs
    parser = _Parser(prog="equisum", description=__doc__.split("\n\n")[1])
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


_COMMANDS = {"construct": cmd_construct, "verify": cmd_verify, "check": cmd_check, "sweep": cmd_sweep}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        print(f"equisum: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except _DataError as exc:
        print(exc, file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"equisum: cannot write output: {exc}", file=sys.stderr)
        return EXIT_CANTCREAT


if __name__ == "__main__":
    sys.exit(main())
