"""Golden CLI corpus: every subcommand's report and exit code, byte for byte.

``golden/cases.json`` lists one ``cli.run`` call per entry: the command, a
template file and an optional instance file from ``golden/``, the flags, and
the expected report and exit code.  The corpus covers every subcommand,
``consistency`` on all four bases with both outcomes, and one-line input
errors.  A change that alters a report on purpose updates the entry.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from orbitcsp.cli import run

GOLDEN = Path(__file__).parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text(encoding="utf-8"))


def case_id(case):
    files = [case["template"]] + ([case["instance"]] if case["instance"] else [])
    return " ".join([case["command"], *files, *case["flags"]])


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_report_matches_golden(case):
    argv = [case["command"], str(GOLDEN / case["template"])]
    if case["instance"]:
        argv.append(str(GOLDEN / case["instance"]))
    report, code = run(argv + case["flags"])
    assert (report, code) == (case["report"], case["exit"])
