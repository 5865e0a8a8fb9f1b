"""Checks of the program's outputs, computed apart from the program.

Nothing here imports equisum.  The sweep check recomputes the block
parameters and evaluates every feasibility margin with mpmath at 50
digits; the point-set check parses each set with the standard json module
and recomputes every pairwise l2 + l2 distance with math.dist.  None of
them compares against a stored copy of earlier output.
"""

from __future__ import annotations

import json
import math
from decimal import Decimal, InvalidOperation, localcontext

import mpmath

import workloads

CSV_HEADER = "a,b,c,alpha,beta,verdict,margin_lo,margin_hi,lemma_covered"

# The paper's boundary: the inequality fails exactly here for a <= 30.
PAPER_FAILING = frozenset(
    [(28, 40)] + [(29, b) for b in range(39, 45)] + [(30, b) for b in range(40, 48)]
)
PAPER_TABLE_A_MAX = 30
ALWAYS_HOLDS_A_MAX = 27

MARGIN_DIGITS = 30  # significant digits of the rendered margin endpoints
ORACLE_DPS = 50
REL_TOL = 1e-9
MAX_ERRORS = 20

HOLDS = "InequalityHolds"
FAILS = "InequalityFails"
BETA_TRIVIAL = "BetaTrivial"


class Errors:
    """The first MAX_ERRORS messages of a check, and how many there were."""

    def __init__(self) -> None:
        self.messages: list[str] = []
        self.count = 0

    def add(self, message: str) -> None:
        self.count += 1
        if len(self.messages) < MAX_ERRORS:
            self.messages.append(message)

    def __bool__(self) -> bool:
        return self.count > 0


class MarginOracle:
    """g(c)^2 - d_{alpha-1}^2 f(c-1)^2 - d_{beta-1}^2 f(c)^2 at 50 digits."""

    def __init__(self) -> None:
        self.ctx = mpmath.MPContext()
        self.ctx.dps = ORACLE_DPS
        self._f: dict[int, object] = {}
        self._g: dict[int, object] = {}

    def f_sq(self, n: int):
        if n not in self._f:
            ctx = self.ctx
            self._f[n] = (1 - ctx.sqrt(ctx.mpf(n) / (n + 1))) ** 2
        return self._f[n]

    def g_sq(self, c: int):
        if c not in self._g:
            ctx = self.ctx
            radicand = (ctx.mpf(c - 1) / c + ctx.mpf(c) / (c + 1)) / 2
            self._g[c] = (1 - ctx.sqrt(radicand)) ** 2
        return self._g[c]

    def d_sq(self, m: int):
        # squared circumradius of a unit regular m-simplex; m = 0 is a point
        # and m = -1 the empty simplex of a beta = 0 block
        return self.ctx.mpf(m) / (2 * m + 2) if m > 0 else 0

    def margin(self, c: int, alpha: int, beta: int) -> Decimal:
        m = (
            self.g_sq(c)
            - self.d_sq(alpha - 1) * self.f_sq(c - 1)
            - self.d_sq(beta - 1) * self.f_sq(c)
        )
        return Decimal(self.ctx.nstr(m, ORACLE_DPS))


def block_parameters(a: int, b: int) -> tuple[int, int, int]:
    """(c, alpha, beta) of a pair b > a >= 2."""
    beta = b % (a + 1)
    return 1 + b // (a + 1), a + 1 - beta, beta


def sweep_pairs(a_min: int, a_max: int) -> list[tuple[int, int]]:
    """The pairs a sweep below the lemma line must report, in order."""
    return [(a, b) for a in range(a_min, a_max + 1) for b in range(a + 1, a * a + a)]


def _rendering_allowance(s: Decimal) -> Decimal:
    # one unit in the last of MARGIN_DIGITS significant digits
    return Decimal(1).scaleb(s.adjusted() - (MARGIN_DIGITS - 1))


def check_sweep_csv(text: str, a_min: int, a_max: int, errors: Errors) -> int:
    """Check a sweep CSV report; return the number of pairs not decided.

    A pair is not decided when its record is missing or its verdict is
    Indeterminate.  Every other record must carry the recomputed block
    parameters and the verdict whose sign the 50-digit margin has, and its
    margin enclosure must contain that margin.
    """
    expected = sweep_pairs(a_min, a_max)
    lines = text.split("\n")
    if lines[0] != CSV_HEADER:
        errors.add(f"header {lines[0]!r}")
    if lines[-1] == "":
        lines.pop()
    rows = lines[1:]
    record_count = workloads.sweep_pair_count(a_min, a_max)
    if len(rows) != record_count:
        errors.add(f"{len(rows)} records, expected {record_count}")

    oracle = MarginOracle()
    failing: set[tuple[int, int]] = set()
    decided = 0
    seen: set[tuple[int, int]] = set()
    with localcontext() as dctx:
        dctx.prec = 2 * ORACLE_DPS
        for line in rows:
            fields = line.split(",")
            try:
                a, b, c, alpha, beta = (int(v) for v in fields[:5])
                verdict, lo, hi, covered = fields[5:]
            except ValueError:
                errors.add(f"malformed record {line!r}")
                continue
            if (a, b) in seen:
                errors.add(f"duplicate record ({a},{b})")
                continue
            seen.add((a, b))
            if (c, alpha, beta) != block_parameters(a, b):
                errors.add(f"({a},{b}) parameters {(c, alpha, beta)}")
            if covered != "false":
                errors.add(f"({a},{b}) lemma_covered {covered} below b = a^2 + a")
            if beta in (0, 1, a):
                if (verdict, lo, hi) != (BETA_TRIVIAL, "", ""):
                    errors.add(f"({a},{b}) beta={beta}: {verdict} {lo} {hi}")
                decided += 1
                continue
            if verdict not in (HOLDS, FAILS):
                if verdict != "Indeterminate":
                    errors.add(f"({a},{b}) verdict {verdict!r}")
                continue
            try:
                lo_d, hi_d = Decimal(lo), Decimal(hi)
            except InvalidOperation:
                errors.add(f"({a},{b}) margins {lo!r}, {hi!r}")
                continue
            decided += 1
            m = oracle.margin(c, alpha, beta)
            if verdict == HOLDS and not (m > 0 and lo_d > 0):
                errors.add(f"({a},{b}) {verdict} but margin {m:.3e}, lo {lo}")
            if verdict == FAILS:
                failing.add((a, b))
                if not (m < 0 and hi_d < 0):
                    errors.add(f"({a},{b}) {verdict} but margin {m:.3e}, hi {hi}")
            if not lo_d - _rendering_allowance(lo_d) <= m <= hi_d + _rendering_allowance(hi_d):
                errors.add(f"({a},{b}) margin {m:.6e} outside [{lo}, {hi}]")

    if seen != set(expected):
        missing = len(set(expected) - seen)
        extra = len(seen - set(expected))
        errors.add(f"record set differs: {missing} missing, {extra} unexpected")
    elif [tuple(int(v) for v in line.split(",")[:2]) for line in rows] != expected:
        errors.add("records are not in (a, b) order")
    if a_min <= PAPER_TABLE_A_MAX <= a_max:
        table = {p for p in failing if p[0] <= PAPER_TABLE_A_MAX}
        if table != PAPER_FAILING:
            errors.add(f"failing pairs with a <= 30: {sorted(table)}")
    early = sorted(p for p in failing if p[0] <= ALWAYS_HOLDS_A_MAX)
    if early:
        errors.add(f"failing pairs with a <= 27: {early}")
    return len(expected) - decided


def _finite_vector(v: object, dim: int) -> bool:
    return (
        isinstance(v, list)
        and len(v) == dim
        and all(isinstance(t, (int, float)) and not isinstance(t, bool) and math.isfinite(t) for t in v)
    )


def check_point_set(text: str, a: int, b: int, errors: Errors) -> None:
    """An emitted set for (a, b): a + b + 1 finite points, all at distance lambda.

    Distances are ||x_i - x_j||_2 + ||y_i - y_j||_2 from math.dist, and
    each must lie within REL_TOL * lambda of lambda.
    """
    where = f"set ({a},{b})"
    try:
        obj = json.loads(text)
    except ValueError as exc:
        errors.add(f"{where}: not JSON: {exc}")
        return
    if not isinstance(obj, dict) or obj.get("a") != a or obj.get("b") != b:
        errors.add(f"{where}: header does not name ({a},{b})")
        return
    lam = obj.get("lambda")
    if isinstance(lam, bool) or not isinstance(lam, (int, float)) or not math.isfinite(lam) or lam <= 0:
        errors.add(f"{where}: lambda {lam!r} is not finite and positive")
        return
    points = obj.get("points")
    if not isinstance(points, list) or len(points) != a + b + 1:
        errors.add(f"{where}: expected {a + b + 1} points")
        return
    xs, ys = [], []
    for k, p in enumerate(points):
        if not (isinstance(p, dict) and _finite_vector(p.get("x"), a) and _finite_vector(p.get("y"), b)):
            errors.add(f"{where}: point {k} is not a finite ({a},{b}) pair")
            return
        xs.append(p["x"])
        ys.append(p["y"])
    tol = REL_TOL * lam
    dist = math.dist
    n = len(points)
    for i in range(n):
        xi, yi = xs[i], ys[i]
        for j in range(i + 1, n):
            d = dist(xi, xs[j]) + dist(yi, ys[j])
            if not abs(d - lam) <= tol:
                errors.add(f"{where}: |d({i},{j}) - lambda| = {abs(d - lam):.3e}")
                return


def check_verify_report(text: str, a: int, b: int, errors: Errors) -> None:
    """The program's own verify report must pass every pair of a + b + 1 points."""
    n = a + b + 1
    try:
        obj = json.loads(text)
    except ValueError as exc:
        errors.add(f"report ({a},{b}): not JSON: {exc}")
        return
    if not (
        isinstance(obj, dict)
        and obj.get("pass") is True
        and obj.get("n_points") == n
        and obj.get("n_pairs") == n * (n - 1) // 2
    ):
        errors.add(f"report ({a},{b}): does not pass all {n * (n - 1) // 2} pairs")
