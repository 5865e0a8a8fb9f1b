"""Shared fixtures."""

import hashlib
from dataclasses import dataclass

import pytest

from equisum import cli
from equisum.mixednorm import pointset_from_json, pointset_to_json


@dataclass
class RoundTrips:
    """Each pair (a, b) in `pairs` run once through construct, then verify,
    by `cli.main` with --out: the exit codes, whether each set parses and
    re-emits to the same bytes, and sha256 over the concatenated sets and
    over the concatenated reports, in pair order."""

    pairs: list[tuple[int, int]]
    construct_codes: list[int]
    verify_codes: list[int]
    reemits_identical: list[bool]
    construct_sha256: str
    verify_sha256: str


@pytest.fixture(scope="session")
def round_trips_up_to_sixty(tmp_path_factory) -> RoundTrips:
    """Every pair with a + b <= 60, by increasing a + b, then a."""
    pairs = [(a, s - a) for s in range(2, 61) for a in range(1, s)]
    tmp = tmp_path_factory.mktemp("round_trips")
    set_path, report_path = tmp / "set.json", tmp / "report.json"
    trips = RoundTrips(pairs, [], [], [], "", "")
    constructed, verified = hashlib.sha256(), hashlib.sha256()
    for a, b in pairs:
        trips.construct_codes.append(
            cli.main(["construct", "--a", str(a), "--b", str(b), "--out", str(set_path)])
        )
        text = set_path.read_text(encoding="utf-8")
        constructed.update(text.encode())
        trips.reemits_identical.append(pointset_to_json(pointset_from_json(text)) == text)
        trips.verify_codes.append(
            cli.main(["verify", "--in", str(set_path), "--out", str(report_path)])
        )
        if report_path.exists():  # verify writes nothing on unreadable input
            verified.update(report_path.read_bytes())
        # new files each time: rewriting a truncated file costs a flush on close
        set_path.unlink()
        report_path.unlink(missing_ok=True)
    trips.construct_sha256 = constructed.hexdigest()
    trips.verify_sha256 = verified.hexdigest()
    return trips
