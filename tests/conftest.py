"""Test-suite hooks: the suite's time per test file, printed after a run."""

import collections


def pytest_terminal_summary(terminalreporter):
    """One line per test file with the sum of its tests' setup, call and
    teardown durations, and their total; the sums say where the suite's
    time goes, test by test ids alone do not."""
    sums = collections.Counter()
    for reports in terminalreporter.stats.values():
        for rep in reports:
            if getattr(rep, "when", None) in ("setup", "call", "teardown"):
                sums[rep.nodeid.split("::")[0]] += rep.duration
    if not sums:
        return
    terminalreporter.write_sep("=", "durations per test file")
    for path, seconds in sorted(sums.items()):
        terminalreporter.write_line(f"{seconds:7.2f}s {path}")
    terminalreporter.write_line(f"{sum(sums.values()):7.2f}s total")
