"""Scan (a, b) ranges and reproduce the feasibility boundary table.

Every pair is an independent pure computation, so the scan may run across
processes; results are merged by (a, b) and the emitted artifacts are
byte-identical regardless of worker count.  Pairs at or beyond the
threshold b >= a^2 + a are covered by the certified lemma rather than
re-decided; the lemma certificate itself is spot-checked once per a.

A report is emitted as CSV or JSON, one record per pair with the fields of
`SweepRecord` in declaration order; nothing in the package reads a report
back.  A pair's margin is decided and rendered from the integers (lo, hi, D)
of its deciding enclosure: each endpoint lo/D, hi/D is divided out, unreduced,
to MARGIN_DIGITS significant digits.
"""

from __future__ import annotations

import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from decimal import Context, Decimal
from fractions import Fraction

from .feasibility import VerdictKind, decide_inequality, derive_parameters, lemma_applies, lemma_certificate
from .realnum import DEFAULT_EPS_FLOOR

MARGIN_DIGITS = 30
_MARGIN_CONTEXT = Context(prec=MARGIN_DIGITS)


def _decimal_str(num: int, den: int) -> str:
    """num/den (den > 0) to MARGIN_DIGITS significant decimal digits,
    correctly rounded (half to even).  The ideal exponent of an integer
    quotient is 0, so a factor common to num and den changes nothing."""
    return str(_MARGIN_CONTEXT.divide(Decimal(num), Decimal(den)))


def fraction_to_decimal_str(q: Fraction) -> str:
    """`_decimal_str` of an exact rational."""
    return _decimal_str(q.numerator, q.denominator)


@dataclass  # not frozen: frozen sets each field through object.__setattr__, 2 us a pair
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


def evaluate_pair(a: int, b: int) -> SweepRecord:
    """Classify one pair b > a >= 2 into a sweep record."""
    p = derive_parameters(a, b)
    covered = lemma_applies(a, b)
    lo = hi = None
    if p.beta in (0, 1, a):
        kind = VerdictKind.BETA_TRIVIAL
    elif covered:
        # certified once per a by the lemma certificate; not re-decided here
        kind = VerdictKind.INEQUALITY_HOLDS
    else:
        kind, lo_num, hi_num, den = decide_inequality(p)
        lo, hi = _decimal_str(lo_num, den), _decimal_str(hi_num, den)
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


def _evaluate_chunk(pairs: list[tuple[int, int]]) -> list[SweepRecord]:
    return [evaluate_pair(a, b) for a, b in pairs]


def run_sweep(
    a_min: int,
    a_max: int,
    b_max: int | None = None,
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
        records = [evaluate_pair(a, b) for a, b in pairs]
    else:
        chunks = [pairs[i::workers] for i in range(workers)]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(_evaluate_chunk, chunks))
        records = [rec for part in parts for rec in part]
        records.sort(key=lambda r: (r.a, r.b))

    lemma_certified = [a for a in lemma_relied if lemma_certificate(a)]
    fails, undecided = VerdictKind.INEQUALITY_FAILS.value, VerdictKind.INDETERMINATE.value
    failing = sorted((r.a, r.b) for r in records if r.verdict == fails)
    conclusive = all(r.verdict != undecided for r in records) and lemma_certified == lemma_relied
    config = {
        "a_min": a_min,
        "a_max": a_max,
        "b_policy": "UpToLemma" if b_max is None else "Explicit",
        "b_max": b_max,
        "eps_floor": str(DEFAULT_EPS_FLOOR),
    }
    return SweepReport(
        records=records,
        failing_pairs=failing,
        config=config,
        lemma_certified=lemma_certified,
        conclusive=conclusive,
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
        "records": [vars(r) for r in report.records],
    }
    return json.dumps(obj, indent=2) + "\n"
