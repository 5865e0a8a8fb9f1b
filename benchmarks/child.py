"""One round of a workload in a fresh interpreter; started by run.py.

The child imports equisum from the checkout's src/, builds the round's
command lines, and notes the CLOCK_MONOTONIC time at which it is ready, so
the runner can take set-up time from its own spawn time.  It then runs the
workload body through `cli.main` and prints one JSON line: ready time, body
wall and CPU seconds, its own peak RSS, the time of every construct->verify
pair and every exit code.  With --trace the public functions are wrapped by
a SpanRecorder first and the spans are written to the work directory.

A round trip captures what construct and verify print.  The body's times
are those of the cli.main calls alone: saving the set between the two
calls, and the outputs for the runner's checks, is not timed.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

import workloads


def run_cli(cli, argv: list[str]) -> int:
    """cli.main(argv); an exception fails this step only, with exit code -1."""
    try:
        return cli.main(argv)
    except Exception:
        traceback.print_exc()
        return -1


def run_captured(cli, argv: list[str]) -> tuple[int, str, float, float]:
    """run_cli with stdout captured: exit code, output, wall and CPU seconds."""
    out = io.StringIO()
    t = time.perf_counter()
    c = time.process_time()
    with contextlib.redirect_stdout(out):
        rc = run_cli(cli, argv)
    return rc, out.getvalue(), time.perf_counter() - t, time.process_time() - c


def save(path: Path, text: str) -> None:
    """Write text over path without truncating it to zero first.  ext4
    flushes a file that is truncated to zero and rewritten when it is
    closed, which costs more than the calls being timed."""
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o644), "wb") as fh:
        fh.write(text.encode("utf-8"))
        fh.truncate()


def round_trip(cli, work: Path, a: int, b: int) -> tuple[list[int | None], float, float, str, str]:
    """construct then verify (a, b) through cli.main: the exit codes, the
    wall and CPU seconds of the two calls, the printed set and the report.
    Saving the set for verify is the benchmark's own file I/O and is not
    timed."""
    construct, verify = workloads.pair_argvs(work, a, b)
    rc_construct, set_text, wall_s, cpu_s = run_captured(cli, construct)
    rc_verify, report = None, ""
    if rc_construct == 0:
        save(work / workloads.SET_FILE, set_text)
        rc_verify, report, verify_wall_s, verify_cpu_s = run_captured(cli, verify)
        wall_s += verify_wall_s
        cpu_s += verify_cpu_s
    return [rc_construct, rc_verify], wall_s, cpu_s, set_text, report


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    import numpy

    import equisum
    from equisum import cli

    work: Path = args.work
    work.mkdir(parents=True, exist_ok=True)
    sweep = args.workload == workloads.SWEEP
    pairs = [] if sweep else workloads.pairs(args.workload)
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    recorder = None
    if args.trace:
        import spans

        recorder = spans.SpanRecorder()
        recorder.install(equisum)

    exit_codes: list[list[int | None]] = []
    pair_s: list[float] = []
    if sweep:
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        exit_codes.append([run_cli(cli, workloads.sweep_argv(work)), None])
        wall_s = time.perf_counter() - t0
        cpu_s = time.process_time() - cpu0
    else:
        wall_s = cpu_s = 0.0
        # one JSON line [set, report] per pair, for the runner's checks
        with open(work / workloads.OUTPUTS_FILE, "w", encoding="utf-8") as outputs:
            for a, b in pairs:
                codes, pair_wall_s, pair_cpu_s, set_text, report = round_trip(cli, work, a, b)
                exit_codes.append(codes)
                pair_s.append(pair_wall_s)
                wall_s += pair_wall_s
                cpu_s += pair_cpu_s
                outputs.write(json.dumps([set_text, report]) + "\n")

    usage = resource.getrusage(resource.RUSAGE_SELF)
    result = {
        "ready": ready,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": usage.ru_maxrss / 1024,
        "user_s": usage.ru_utime,
        "sys_s": usage.ru_stime,
        "minor_faults": usage.ru_minflt,
        "pair_s": pair_s,
        "exit_codes": exit_codes,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }
    if recorder is not None:
        recorder.read_caches(equisum)
        recorder.dump(work / "spans.bin")
        result["counters"] = recorder.counters
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
