"""Scan (a, b) ranges and reproduce the feasibility boundary table.

Every pair is an independent pure computation, so the scan may run across
processes; results are merged by (a, b) and the emitted artifacts are
byte-identical regardless of worker count.  Pairs at or beyond the
threshold b >= a^2 + a are covered by the certified lemma rather than
re-decided; the lemma certificate itself is spot-checked once per a.
"""

from __future__ import annotations

import decimal
import json
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction

from . import feasibility
from .feasibility import VerdictKind, derive_parameters, lemma_applies, lemma_certificate
from .realnum import DEFAULT_EPS_FLOOR, Enclosure

MARGIN_DIGITS = 30


def fraction_to_decimal_str(q: Fraction, digits: int = MARGIN_DIGITS) -> str:
    """Render an exact rational to `digits` significant decimal digits."""
    with decimal.localcontext() as ctx:
        ctx.prec = digits
        return str(decimal.Decimal(q.numerator) / decimal.Decimal(q.denominator))


@dataclass(frozen=True)
class SweepRecord:
    a: int
    b: int
    c: int
    alpha: int
    beta: int
    verdict: str
    margin_lo: str | None
    margin_hi: str | None
    lemma_covered: bool


@dataclass
class SweepReport:
    records: list[SweepRecord]
    failing_pairs: list[tuple[int, int]]
    config: dict
    lemma_certified: list[int]
    conclusive: bool
    # wall-clock seconds; informational only, excluded from equality and
    # from the emitted artifacts so that reruns are byte-identical
    timing_seconds: float | None = field(default=None, compare=False)


def _margin_strings(margin: Enclosure | None) -> tuple[str | None, str | None]:
    if margin is None:
        return None, None
    return (
        fraction_to_decimal_str(margin.lo),
        fraction_to_decimal_str(margin.hi),
    )


def evaluate_pair(a: int, b: int, eps_floor: Fraction = DEFAULT_EPS_FLOOR) -> SweepRecord:
    """Classify one pair b > a >= 2 into a sweep record."""
    p = derive_parameters(a, b)
    covered = lemma_applies(a, b)
    if p.beta in (0, 1, a):
        kind, margin = VerdictKind.BETA_TRIVIAL, None
    elif covered:
        # certified once per a by the lemma certificate; not re-decided here
        kind, margin = VerdictKind.INEQUALITY_HOLDS, None
    else:
        verdict = feasibility.check_inequality(p, eps_floor)
        kind, margin = verdict.kind, verdict.margin
    lo, hi = _margin_strings(margin)
    return SweepRecord(
        a=a,
        b=b,
        c=p.c,
        alpha=p.alpha,
        beta=p.beta,
        verdict=kind.value,
        margin_lo=lo,
        margin_hi=hi,
        lemma_covered=covered,
    )


def _evaluate_chunk(args: tuple[list[tuple[int, int]], Fraction]) -> list[SweepRecord]:
    pairs, eps_floor = args
    return [evaluate_pair(a, b, eps_floor) for a, b in pairs]


def run_sweep(
    a_min: int,
    a_max: int,
    b_max: int | None = None,
    eps_floor: Fraction = DEFAULT_EPS_FLOOR,
    jobs: int = 1,
) -> SweepReport:
    """Scan all pairs with a in [a_min, a_max] and a < b <= B.

    B is a^2 + a - 1 when b_max is None (everything beyond is covered by the
    lemma and needs no records) or b_max when given explicitly.  At most
    `jobs` worker processes run, and never more than the CPU count or half
    the number of pairs.  The merge is keyed on (a, b), so worker count never
    changes the report.
    """
    if not 2 <= a_min <= a_max:
        raise ValueError(f"run_sweep requires 2 <= a_min <= a_max, got [{a_min}, {a_max}]")
    if jobs < 1:
        raise ValueError(f"run_sweep: jobs must be >= 1, got {jobs}")
    t0 = time.perf_counter()

    pairs: list[tuple[int, int]] = []
    lemma_relied: list[int] = []
    for a in range(a_min, a_max + 1):
        top = a * a + a - 1 if b_max is None else b_max
        pairs.extend((a, b) for b in range(a + 1, top + 1))
        if b_max is None or b_max >= a * a + a:
            lemma_relied.append(a)

    # a worker gets at least two pairs, or the pool costs more than it saves
    workers = min(jobs, os.cpu_count() or 1, len(pairs) // 2)
    if workers <= 1:
        records = [evaluate_pair(a, b, eps_floor) for a, b in pairs]
    else:
        chunks = [(pairs[i::workers], eps_floor) for i in range(workers)]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(_evaluate_chunk, chunks))
        records = [rec for part in parts for rec in part]
        records.sort(key=lambda r: (r.a, r.b))

    lemma_certified = [a for a in lemma_relied if lemma_certificate(a, eps_floor)]
    failing = sorted((r.a, r.b) for r in records if r.verdict == VerdictKind.INEQUALITY_FAILS.value)
    conclusive = (
        all(r.verdict != VerdictKind.INDETERMINATE.value for r in records)
        and lemma_certified == lemma_relied
    )
    config = {
        "a_min": a_min,
        "a_max": a_max,
        "b_policy": "UpToLemma" if b_max is None else "Explicit",
        "b_max": b_max,
        "eps_floor": str(Fraction(eps_floor)),
    }
    return SweepReport(
        records=records,
        failing_pairs=failing,
        config=config,
        lemma_certified=lemma_certified,
        conclusive=conclusive,
        timing_seconds=time.perf_counter() - t0,
    )


CSV_HEADER = "a,b,c,alpha,beta,verdict,margin_lo,margin_hi,lemma_covered"


def emit_report_csv(report: SweepReport) -> str:
    lines = [CSV_HEADER]
    for r in report.records:
        lines.append(
            f"{r.a},{r.b},{r.c},{r.alpha},{r.beta},{r.verdict},"
            f"{r.margin_lo or ''},{r.margin_hi or ''},"
            f"{'true' if r.lemma_covered else 'false'}"
        )
    return "\n".join(lines) + "\n"


def emit_report_json(report: SweepReport) -> str:
    obj = {
        "config": report.config,
        "lemma_certified": report.lemma_certified,
        "conclusive": report.conclusive,
        "failing_pairs": [list(p) for p in report.failing_pairs],
        "records": [
            {
                "a": r.a,
                "b": r.b,
                "c": r.c,
                "alpha": r.alpha,
                "beta": r.beta,
                "verdict": r.verdict,
                "margin_lo": r.margin_lo,
                "margin_hi": r.margin_hi,
                "lemma_covered": r.lemma_covered,
            }
            for r in report.records
        ],
    }
    return json.dumps(obj, indent=2) + "\n"


def parse_report_json(text: str) -> SweepReport:
    """Parse the emit_report_json format.  Raises ValueError when the text
    is not a JSON object or a field is missing or unknown (the message names
    it) or has the wrong shape."""
    obj = json.loads(text)
    if not isinstance(obj, dict):
        raise ValueError("sweep report JSON must be an object")
    try:
        return SweepReport(
            records=[SweepRecord(**rec) for rec in obj["records"]],
            failing_pairs=[tuple(p) for p in obj["failing_pairs"]],
            config=obj["config"],
            lemma_certified=list(obj["lemma_certified"]),
            conclusive=bool(obj["conclusive"]),
        )
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed sweep report JSON: {exc!r}") from exc
