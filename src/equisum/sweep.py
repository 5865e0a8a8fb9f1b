"""Scan (a, b) ranges and reproduce the feasibility boundary table.

Every pair is an independent pure computation.  A `Sweep` checks, counts
and splits a range; one row builder, `_rows`, makes the records of a
contiguous range of b for one a, and `Sweep.chunks` maps it over one task
list in input order, serially or through a process pool, so the emitted
artifacts are byte-identical regardless of worker count.  A task's pairs
are decided by one run of `feasibility.decide`, the rule `check` and
`construct` use for a run of one pair, and `_rows` only renders the verdicts:
pairs at or beyond the threshold b >= a^2 + a are answered by the lemma,
whose certificate each process computes once per a, rather than re-decided.

A record is a `SweepRecord`, a NamedTuple row.  A report is emitted as CSV
or JSON, one record per pair with its fields in declaration order; nothing
in the package reads a report back.  `Sweep.chunks` yields each task's
records as they are made and tallies them, a task of at most a^2 - 1 rows
and never more than _TASK_ROWS, and `emit` renders each chunk through
`csv_rows` or `json_rows`.  CSV is written chunk by chunk; JSON, whose
summary comes before its records, holds each chunk's text until the tally
is set.  `run_sweep` holds every record.  A pair's margin is rendered from
the integers (lo, hi, D) of the verdict `check_inequality` returns: each
endpoint lo/D, hi/D is divided out, unreduced, to MARGIN_DIGITS significant
digits.  `check` renders the same way, through `margin_strings`.
"""

from __future__ import annotations

import contextlib
import json
import os
from concurrent.futures import ProcessPoolExecutor
from decimal import Context
from fractions import Fraction
from typing import Iterable, Iterator, NamedTuple

from .feasibility import Margin, VerdictKind, decide, lemma_certificate
from .realnum import DEFAULT_EPS_FLOOR

MARGIN_DIGITS = 30
_MARGIN_CONTEXT = Context(prec=MARGIN_DIGITS)
# records of one sweep, so a JSON sweep, which holds its records' text (277
# bytes each) until the tally is set, stays near 150 MB: at a in [2, 105]
# (391,300 records) it wrote 108.6 MB and peaked at 140 MB RSS.  CSV is written
# one task at a time.  Without b_max the bound admits a_max <= 105.
MAX_SWEEP_RECORDS = 400_000
# rows of one task, so a CSV sweep holds at most this many records at once
# even when --b-max makes one a's range of b far longer than a^2
_TASK_ROWS = 4096
# tasks submitted to each worker at once, so a pool feeding a slow reader
# holds at most this many finished tasks per worker
_TASKS_PER_WORKER = 4


def margin_strings(margin: Margin) -> tuple[str, str]:
    """lo/D and hi/D of a margin (lo, hi, D), D > 0, each to MARGIN_DIGITS
    significant decimal digits, correctly rounded (half to even).  The ideal
    exponent of an integer quotient is 0, so a factor common to an endpoint
    and D changes nothing: the unreduced quotient rounds as the reduced one."""
    lo, hi, den = margin
    divide = _MARGIN_CONTEXT.divide  # converts each int exactly, at exponent 0
    return str(divide(lo, den)), str(divide(hi, den))


# fraction_to_decimal_str renders nothing in the package: benchmarks/spans.py
# traces its name and the tests render the Fraction reference with it.
def fraction_to_decimal_str(q: Fraction) -> str:
    """An exact rational rendered as `margin_strings` renders an endpoint."""
    return str(_MARGIN_CONTEXT.divide(q.numerator, q.denominator))


class SweepRecord(NamedTuple):
    a: int
    b: int
    c: int
    alpha: int
    beta: int
    verdict: str
    margin_lo: str | None
    margin_hi: str | None
    lemma_covered: bool


def _rows(task: tuple[int, int, int]) -> list[SweepRecord]:
    """The records of the pairs (a, b) of a task (a, b_lo, b_hi), a < b_lo <= b
    <= b_hi, rendered from the verdicts `decide` yields for the run."""
    new = tuple.__new__  # a NamedTuple without the Python frame of its __new__
    line = task[0] * task[0] + task[0]
    rows = []
    for kind, (a, b, c, alpha, beta), margin in decide(*task):
        lo, hi = (None, None) if margin is None else margin_strings(margin)
        # kind._value_, not the value property, a Python-level call
        rows.append(new(SweepRecord, (a, b, c, alpha, beta, kind._value_, lo, hi, b >= line)))
    return rows


def evaluate_pair(a: int, b: int) -> SweepRecord:
    """Classify one pair b > a >= 2 into a sweep record."""
    if not (b > a >= 2):
        raise ValueError(f"evaluate_pair requires b > a >= 2, got a={a} b={b}")
    return _rows((a, b, b))[0]


class Sweep:
    """One sweep: its range, checked, counted and split into tasks when it is
    made, and the tally of its verdicts.

    `chunks` yields each task's records in input order, so a caller that
    writes each chunk and drops it holds one task's records at a time.  Once
    the last chunk has passed, `failing_pairs`, `lemma_certified` and
    `conclusive` hold the tally; `run_sweep` also sets `records`.
    """

    def __init__(self, a_min: int, a_max: int, b_max: int | None = None, jobs: int = 1) -> None:
        if not 2 <= a_min <= a_max:
            raise ValueError(f"need 2 <= a_min <= a_max, got [{a_min}, {a_max}]")
        if b_max is not None and b_max < 2:
            raise ValueError(f"need b_max >= 2, got {b_max}")
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")

        # (a, b_lo, b_hi) for each a with records, counted as they are built
        segments, pairs = [], 0
        for a in range(a_min, a_max + 1 if b_max is None else min(a_max + 1, b_max)):
            b_hi = a * a + a - 1 if b_max is None else b_max
            pairs += b_hi - a
            if pairs > MAX_SWEEP_RECORDS:
                raise ValueError(f"the range holds more than {MAX_SWEEP_RECORDS} pairs")
            segments.append((a, a + 1, b_hi))
        self.pairs = pairs
        self._lemma_relied = [a for a, _, _ in segments if b_max is None or b_max >= a * a + a]

        # a worker gets at least two pairs, or the pool costs more than it saves;
        # one worker's share is every pair, so then each a is one task unless
        # it has more than _TASK_ROWS pairs
        self._workers = max(1, min(jobs, os.cpu_count() or 1, pairs // 2))
        share = min(-(-pairs // self._workers), _TASK_ROWS)  # the longest task
        self._tasks = [(a, lo, min(lo + share - 1, hi)) for a, b, hi in segments for lo in range(b, hi + 1, share)]
        self.config = {
            "a_min": a_min,
            "a_max": a_max,
            "b_policy": "UpToLemma" if b_max is None else "Explicit",
            "b_max": b_max,
            "eps_floor": str(DEFAULT_EPS_FLOOR),
        }

    def chunks(self) -> Iterator[list[SweepRecord]]:
        """The records of each task, in input order, tallied as they pass."""
        fails, undecided = VerdictKind.INEQUALITY_FAILS.value, VerdictKind.INDETERMINATE.value
        failing, decided = [], True
        window = _TASKS_PER_WORKER * self._workers
        with ProcessPoolExecutor(self._workers) if self._workers > 1 else contextlib.nullcontext() as pool:
            mapper = pool.map if pool else map
            # one window of tasks in flight at a time, in input order; a consumer
            # that stops early closes pool.map, which cancels the tasks not begun
            for start in range(0, len(self._tasks), window):
                for rows in mapper(_rows, self._tasks[start : start + window]):
                    failing += [(r.a, r.b) for r in rows if r.verdict == fails]
                    decided = decided and all(r.verdict != undecided for r in rows)
                    yield rows
        self.failing_pairs = sorted(failing)
        self.lemma_certified = [a for a in self._lemma_relied if lemma_certificate(a)]
        self.conclusive = decided


def run_sweep(
    a_min: int,
    a_max: int,
    b_max: int | None = None,
    jobs: int = 1,
) -> Sweep:
    """Scan all pairs with a in [a_min, a_max] and a < b <= B.

    B is a^2 + a - 1 when b_max is None (everything beyond is covered by the
    lemma and needs no records) or b_max when given explicitly; an a >= b_max
    has no records and is not visited.  The records are counted as the range
    is built, and more than MAX_SWEEP_RECORDS raise ValueError before any
    pair is decided.  At most `jobs` worker processes run, and never more
    than the CPU count or half the number of pairs.  Records come back in
    input order, so worker count never changes the report.
    """
    sweep = Sweep(a_min, a_max, b_max, jobs)
    sweep.records = [row for chunk in sweep.chunks() for row in chunk]
    return sweep


CSV_HEADER = "a,b,c,alpha,beta,verdict,margin_lo,margin_hi,lemma_covered"


def csv_rows(records: Iterable[SweepRecord]) -> str:
    """The CSV lines of records, each ended by a newline."""
    return "".join([
        f"{a},{b},{c},{alpha},{beta},{verdict},{lo or ''},{hi or ''},{'true' if covered else 'false'}\n"
        for a, b, c, alpha, beta, verdict, lo, hi, covered in records
    ])


def json_rows(records: Iterable[SweepRecord]) -> str:
    """The objects of records as `json.dumps(..., indent=2)` writes them in a report's
    "records" list, each after its separating comma.  Every field is an int, None, a bool
    or an ASCII string made of a verdict name or decimal digits, so none needs escaping."""
    quote = '"{}"'.format
    return "".join([
        f',\n    {{\n      "a": {a},\n      "b": {b},\n      "c": {c},\n      "alpha": {alpha},\n      "beta": {beta},\n'
        f'      "verdict": "{verdict}",\n      "margin_lo": {"null" if lo is None else quote(lo)},\n'
        f'      "margin_hi": {"null" if hi is None else quote(hi)},\n'
        f'      "lemma_covered": {"true" if covered else "false"}\n    }}'
        for a, b, c, alpha, beta, verdict, lo, hi, covered in records
    ])


def emit(summary: Sweep, chunks: Iterable[list[SweepRecord]], fmt: str) -> Iterator[str]:
    """The text of a sweep report in fmt, "csv" or "json", one piece at a time.  The
    tally of summary is read once every chunk has passed: CSV writes each chunk as it
    comes, and JSON, whose summary comes first, holds each chunk's text until then."""
    if fmt == "csv":
        yield CSV_HEADER + "\n"
        yield from map(csv_rows, chunks)
        return
    held = [json_rows(chunk) for chunk in chunks if chunk]
    head = {"config": summary.config, "lemma_certified": summary.lemma_certified, "conclusive": summary.conclusive}
    text = json.dumps({**head, "failing_pairs": [list(p) for p in summary.failing_pairs], "records": []}, indent=2)
    if held:  # text ends in '[]\n}': open the list there, and drop the first record's comma
        yield text[:-3] + held[0][1:]
        yield from held[1:]
        text = "\n  ]\n}"
    yield text + "\n"


def _slices(records: list[SweepRecord]) -> Iterator[list[SweepRecord]]:
    """records in slices of at most _TASK_ROWS, so emit renders no more at once."""
    return (records[i : i + _TASK_ROWS] for i in range(0, len(records), _TASK_ROWS))


def emit_report_csv(report: Sweep) -> str:
    return "".join(emit(report, _slices(report.records), "csv"))


def emit_report_json(report: Sweep) -> str:
    return "".join(emit(report, _slices(report.records), "json"))
