"""Run one benchmark workload and print its metrics as one JSON line.

    python3 benchmarks/run.py --workload sweep-60 --seed 1 --seconds 25 --trace 0

Run from the root of a checkout.  Every round of the workload runs in a
fresh child interpreter (child.py) while this process waits, so at most
two processes are alive and one is busy.  Rounds repeat until --seconds
have passed; every round's outputs are checked by checks.py, which never
imports equisum.  The last line of stdout is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics (medians over rounds; set-up time
also over SETUP_PROBES children that only set up).  --trace 1 alternates an
untraced and a traced round and reports the per-layer metrics of
spans.PER_LAYER, medians over the traced rounds, with the tracing overhead.
Results and the last traced round's spans are kept in benchmarks/out/.
--seed is recorded only: every workload is a fixed enumeration.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
WORK = HERE / "work"
OUT = HERE / "out"

SETUP_PROBES = 9
CHILD_TIMEOUT_S = 150

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("pairs_per_s", "1/s"),
    ("pair_p50_ms", "ms"),
)


# per-round figures kept in the environment record
ROUND_FIGURES = (
    "traced", "setup_s", "wall_s", "cpu_s", "peak_rss_mb", "user_s", "sys_s", "minor_faults", "steal_s"
)


class BenchError(Exception):
    """A round could not be run; the run ends without a result."""


def steal_seconds() -> float | None:
    """CPU time the hypervisor took from this machine so far (all CPUs)."""
    try:
        with open("/proc/stat") as fh:
            return int(fh.readline().split()[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def spawn(workload: str, work: Path, *flags: str) -> dict:
    """Run child.py once and return its JSON line, plus its set-up time and
    the steal time of the machine while it ran."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("EQUISUM_PRECISION_FLOOR", None)  # the workloads use the default floor
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # set-up loads cached bytecode, as an install does
    cmd = [sys.executable, str(CHILD), "--workload", workload, "--work", str(work), *flags]
    steal = steal_seconds()
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT, env=env
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} round exceeded {CHILD_TIMEOUT_S} s") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{workload} round exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    result = json.loads(proc.stdout.splitlines()[-1])
    result["setup_s"] = result["ready"] - spawned
    steal_after = steal_seconds()
    result["steal_s"] = None if steal is None or steal_after is None else steal_after - steal
    return result


class OutputCheck:
    """Checks every round's outputs; a byte-identical repeat of an output
    that already passed is not checked again."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.errors = checks.Errors()
        self._passed: dict[bytes, int] = {}

    def round(self, work: Path, exit_codes: list[list[int | None]]) -> int:
        """Check one round; return the number of pairs that failed."""
        if self.workload == workloads.SWEEP:
            return self._sweep(work, exit_codes[0][0])
        failed = 0
        with open(work / workloads.OUTPUTS_FILE, encoding="utf-8") as fh:
            outputs = fh.read().splitlines()
        for (a, b), (rc_construct, rc_verify), line in zip(workloads.pairs(self.workload), exit_codes, outputs):
            if rc_construct != 0 or rc_verify != 0:
                failed += 1
                continue
            set_text, report = json.loads(line)
            key = hashlib.sha256(f"{a},{b}\0{set_text}\0{report}".encode()).digest()
            if key in self._passed:
                continue
            before = self.errors.count
            checks.check_point_set(set_text, a, b, self.errors)
            checks.check_verify_report(report, a, b, self.errors)
            if self.errors.count == before:
                self._passed[key] = 0
        return failed

    def _sweep(self, work: Path, exit_code: int) -> int:
        csv = work / workloads.SWEEP_CSV
        if exit_code not in (0, 3) or not csv.is_file():  # 3: some pair Indeterminate
            return workloads.sweep_pair_count()
        text = csv.read_bytes()
        key = hashlib.sha256(text).digest()
        if key in self._passed:
            return self._passed[key]
        before = self.errors.count
        failed = checks.check_sweep_csv(
            text.decode(), workloads.SWEEP_A_MIN, workloads.SWEEP_A_MAX, self.errors
        )
        if self.errors.count == before:
            self._passed[key] = failed
        return failed


def run_rounds(workload: str, seconds: int, trace: bool, work: Path) -> list[dict]:
    """Whole rounds until `seconds` have passed; with trace, untraced and
    traced rounds alternate, starting untraced."""
    rounds: list[dict] = []
    t0 = time.monotonic()
    while not rounds or time.monotonic() - t0 < seconds:
        for traced in (False, True) if trace else (False,):
            round_dir = work / f"round-{len(rounds)}"
            result = spawn(workload, round_dir, *(["--trace"] if traced else []))
            result["traced"] = traced
            result["dir"] = round_dir
            rounds.append(result)
    return rounds


def end_to_end(workload: str, probes: list[dict], rounds: list[dict]) -> dict[str, float]:
    n = workloads.pairs_per_round(workload)
    wall = [r["wall_s"] for r in rounds]
    if workload == workloads.SWEEP:
        # one call decides every pair: the per-pair time is the round's mean
        pair_ms = [1e3 * w / n for w in wall]
    else:
        pair_ms = [1e3 * t for r in rounds for t in r["pair_s"]]
    median = statistics.median
    return {
        "setup_s": median([r["setup_s"] for r in probes + rounds]),
        "wall_s": median(wall),
        "cpu_s": median([r["cpu_s"] for r in rounds]),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in rounds]),
        "pairs_per_s": median([n / w for w in wall]),
        "pair_p50_ms": median(pair_ms),
    }


def per_layer(workload: str, rounds: list[dict]) -> dict[str, float]:
    traced = [r for r in rounds if r["traced"]]
    plain = [r for r in rounds if not r["traced"]]
    per_round = []
    for r in traced:
        stats = spans.aggregate(*spans.load(r["dir"] / "spans.bin"))
        per_round.append(spans.layer_metrics(stats, r["counters"]))
    OUT.mkdir(exist_ok=True)
    shutil.copyfile(traced[-1]["dir"] / "spans.bin", OUT / f"{workload}.spans.bin")
    # median_low keeps a count a count when there are two traced rounds
    metrics = {name: statistics.median_low(m[name] for m in per_round) for name in per_round[0]}
    metrics[spans.OVERHEAD] = statistics.median(r["wall_s"] for r in traced) - statistics.median(
        r["wall_s"] for r in plain
    )
    return metrics


def git_commit() -> str:
    """The checkout's commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if not (ROOT / "src" / "equisum" / "__init__.py").is_file():
        print(f"run.py: no equisum sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    load_start = os.getloadavg()
    try:
        probes = []
        if not args.trace:
            probes = [spawn(args.workload, work / "probe", "--setup-only") for _ in range(SETUP_PROBES)]
        rounds = run_rounds(args.workload, args.seconds, bool(args.trace), work)
        check = OutputCheck(args.workload)
        failed = sum(check.round(r["dir"], r["exit_codes"]) for r in rounds)
        if args.trace:
            units = {name: unit for name, unit, _better in spans.PER_LAYER}
            values = per_layer(args.workload, rounds)
        else:
            units = dict(END_TO_END)
            values = end_to_end(args.workload, probes, rounds)
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for message in check.errors.messages:
        print(f"check: {message}", file=sys.stderr)
    env = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "rounds": len(rounds),
        "setup_probes": len(probes),
        "python": rounds[0]["python"],
        "numpy": rounds[0]["numpy"],
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
        "platform": platform.platform(),
        "loadavg_start": load_start,
        "loadavg_end": os.getloadavg(),
        "check_errors": check.errors.count,
        "round_figures": [
            {k: r[k] for k in ROUND_FIGURES} for r in rounds
        ],
    }
    result = {
        "correct": not check.errors,
        "attempted": workloads.pairs_per_round(args.workload) * len(rounds),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    OUT.mkdir(exist_ok=True)
    suffix = ".trace" if args.trace else ""
    (OUT / f"{args.workload}{suffix}.json").write_text(json.dumps({"env": env, "result": result}, indent=1))
    print(json.dumps({"env": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
