"""The benchmark's workloads: fixed enumerations of (a, b) pairs.

Shared by the runner and the child process.  Nothing here imports
equisum, so the runner can use it to build its expectations apart from the
program.  The inputs need no seed: every workload is a fixed enumeration.
"""

from __future__ import annotations

from pathlib import Path

SWEEP = "sweep-60"
ROUNDTRIP = "roundtrip-60"
WIDE = "wide-sets"
WORKLOADS = (SWEEP, ROUNDTRIP, WIDE)

SWEEP_A_MIN = 2
SWEEP_A_MAX = 60
ROUNDTRIP_MAX_SUM = 60

# a + b near 300.  Theorem main case twice (beta = 3 and beta = 16), the
# beta = 0 branch, the swap of a theorem set, the cross-polytope (a = b),
# and the a = 1 simplex with its swap.  (10, 300) and (300, 10) set the
# peak: verify_equilateral's n x n x (a+b) float64 tensor is about 230 MB.
WIDE_PAIRS = (
    (10, 300),
    (300, 10),
    (150, 150),
    (25, 250),
    (19, 280),
    (1, 300),
    (300, 1),
)

SWEEP_CSV = "sweep.csv"


def sweep_pair_count(a_min: int = SWEEP_A_MIN, a_max: int = SWEEP_A_MAX) -> int:
    """Records of a sweep that stops below the lemma line: sum of a^2 - 1."""
    return sum(a * a - 1 for a in range(a_min, a_max + 1))


def pairs(workload: str) -> list[tuple[int, int]]:
    """The constructed-and-verified pairs of a round-trip workload."""
    if workload == ROUNDTRIP:
        # every a, b >= 1 with a + b <= ROUNDTRIP_MAX_SUM, by a + b then a
        return [(a, s - a) for s in range(2, ROUNDTRIP_MAX_SUM + 1) for a in range(1, s)]
    if workload == WIDE:
        return list(WIDE_PAIRS)
    raise ValueError(f"{workload} has no construct/verify pairs")


def pairs_per_round(workload: str) -> int:
    if workload == SWEEP:
        return sweep_pair_count()
    return len(pairs(workload))


def sweep_argv(work: Path) -> list[str]:
    return [
        "sweep",
        "--a-min", str(SWEEP_A_MIN),
        "--a-max", str(SWEEP_A_MAX),
        "--format", "csv",
        "--out", str(work / SWEEP_CSV),
    ]


SET_FILE = "set.json"
OUTPUTS_FILE = "outputs.jsonl"


def pair_argvs(work: Path, a: int, b: int) -> tuple[list[str], list[str]]:
    """The construct and verify command lines of one round trip.  Both
    print to stdout; verify reads the set that construct printed from
    work/SET_FILE, where the child saves it."""
    construct = ["construct", "--a", str(a), "--b", str(b)]
    verify = ["verify", "--in", str(work / SET_FILE)]
    return construct, verify
