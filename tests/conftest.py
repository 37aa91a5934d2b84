from __future__ import annotations

from pathlib import Path

import pytest

from aakit import ARITH, LATTICE, AssociativeArray, from_triples

DATA_DIR = Path(__file__).parent / "data"
GOLDEN_DIR = DATA_DIR / "golden"

# The worked example table: four songs by their metadata columns.
SONG_TRIPLES = [
    ("053013ktnA1", "Artist", "Bandayde"),
    ("053013ktnA1", "Date", "2013-05-30"),
    ("053013ktnA1", "Duration", "5:14"),
    ("053013ktnA1", "Genre", "Electronic"),
    ("053013ktnA2", "Artist", "Kastle"),
    ("053013ktnA2", "Date", "2013-05-30"),
    ("053013ktnA2", "Duration", "3:07"),
    ("053013ktnA2", "Genre", "Electronic"),
    ("063012ktnA1", "Artist", "Kitten"),
    ("063012ktnA1", "Date", "2010-06-30"),
    ("063012ktnA1", "Duration", "4:38"),
    ("063012ktnA1", "Genre", "Rock"),
    ("082812ktnA1", "Artist", "Kitten"),
    ("082812ktnA1", "Date", "2012-08-28"),
    ("082812ktnA1", "Duration", "3:25"),
    ("082812ktnA1", "Genre", "Pop"),
]

# Genre-to-artist relationship counts derived from the same table.
GENRE_ARTIST_TRIPLES = [
    ("Electronic", "Bandayde", 1.0),
    ("Electronic", "Kastle", 1.0),
    ("Rock", "Kitten", 1.0),
    ("Pop", "Kitten", 1.0),
]


@pytest.fixture
def songs():
    return from_triples(SONG_TRIPLES, LATTICE)


@pytest.fixture
def genre_artist():
    return from_triples(GENRE_ARTIST_TRIPLES, ARITH)


@pytest.fixture
def cleans(monkeypatch):
    """The rows passed to each ``AssociativeArray._from_clean`` call, which sorts and screens them, in call order."""
    calls = []
    clean = AssociativeArray._from_clean
    monkeypatch.setattr(AssociativeArray, "_from_clean",
                        staticmethod(lambda rows, *rest, **kwargs: calls.append(rows) or clean(rows, *rest, **kwargs)))
    return calls


# -- acceptance checklist ----------------------------------------------------
#
# Tests marked @pytest.mark.criterion(num, label) get one PASS/FAIL line in
# a terminal-summary section, so an acceptance run reads as a checklist even
# under output capture.

_criteria_seen: dict[str, tuple[int, str, str]] = {}


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "criterion(num, label): one acceptance checklist line")


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    marker = item.get_closest_marker("criterion")
    if marker is None:
        return
    record = report.when == "call" or (
        report.when == "setup" and report.outcome != "passed")
    if record:
        num, label = marker.args
        _criteria_seen[item.nodeid] = (num, label, report.outcome)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _criteria_seen:
        return
    terminalreporter.section("acceptance criteria")
    for num, label, outcome in sorted(_criteria_seen.values()):
        verdict = "PASS" if outcome == "passed" else "FAIL"
        terminalreporter.write_line(f"criterion {num:2d} {verdict}  {label}")
