"""Shared pytest plumbing.

Loads one hypothesis profile before any test module is imported: every
``@given`` test draws its examples from a fixed seed and keeps no example
database, so two runs on any machine try the same examples. Each test still
sets its own ``max_examples``.

Collects the one-line [PASS]/[FAIL] verdicts emitted by the acceptance
tests and replays them in the terminal summary, so the verdict lines are
visible even when pytest captures per-test stdout.
"""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")

CRITERION_LINES = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if CRITERION_LINES:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in CRITERION_LINES:
            terminalreporter.write_line(line)
