"""Shared pytest plumbing.

Collects pass/fail results for the acceptance tests and prints a one
line verdict per criterion at the end of the run.
"""

import re

_CRITERION = re.compile(r"test_acceptance\.py::test_criterion_(\d+)")

_LABELS = {
    1: "base cases: one-row and one-column formulas vs oracle, n <= 12",
    2: "two-row formula vs oracle, n <= 12",
    3: "two-column formula vs oracle, n <= 12",
    4: "hook formulas (both variants) vs oracle, n <= 12",
    5: "closed depth-one corollaries vs parent formulas, n <= 12",
    6: "classification table vs parent closed formulas over all labels, n <= 12",
    7: "omega duality between the two inner shapes, |nu| <= 11",
    8: "dimension identity and spot totals",
    9: "nonnegativity of every emitted multiplicity",
    10: "induced products match Littlewood-Richardson recombination",
    11: "performance envelope (n <= 6 under 60s, full run under 600s)",
    12: "Brion monotonicity: formulas |nu| <= 11, oracle |nu| <= 10",
    13: "principal specialisation of the formulas, no oracle or LR, |nu| <= 13",
    14: "Littlewood's p_2 identity: abacus and lr_coefficient vs formulas, |nu| <= 9",
}

_results: dict[int, dict[str, int]] = {}


def pytest_runtest_logreport(report):
    if report.when != "call":
        return
    m = _CRITERION.search(report.nodeid)
    if not m:
        return
    crit = int(m.group(1))
    bucket = _results.setdefault(crit, {"passed": 0, "failed": 0, "skipped": 0})
    if report.passed:
        bucket["passed"] += 1
    elif report.failed:
        bucket["failed"] += 1
    else:
        bucket["skipped"] += 1


def pytest_terminal_summary(terminalreporter):
    if not _results:
        return
    terminalreporter.section("acceptance criteria")
    for crit in sorted(_results):
        bucket = _results[crit]
        verdict = "FAIL" if bucket["failed"] else "PASS"
        counts = f"{bucket['passed']} passed"
        if bucket["failed"]:
            counts += f", {bucket['failed']} failed"
        if bucket["skipped"]:
            counts += f", {bucket['skipped']} skipped"
        terminalreporter.write_line(
            f"criterion {crit:2d}: {verdict}  ({counts})  {_LABELS.get(crit, '')}"
        )
