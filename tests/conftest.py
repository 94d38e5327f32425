"""Shared pytest wiring: per-criterion pass/fail lines for the acceptance run,
the Hypothesis profile that the mutation check loads, and the one that runs
the command properties longer."""

import re

from hypothesis import Phase, settings

# Loaded only by tools/mutants.py (--hypothesis-profile mutants): a mutant
# is killed by the first failing example, so shrinking it (and explaining
# the shrunk one) is wasted time there. The suite itself keeps the default.
settings.register_profile("mutants", phases=(Phase.explicit, Phase.reuse, Phase.generate,
                                             Phase.target))

# The properties of whole commands (test_command_properties.py) take a few
# examples in Tier-1, and this profile's budget when it is loaded, as CI does:
#     pytest --hypothesis-profile deep tests/test_command_properties.py
settings.register_profile("deep", deadline=None, max_examples=150)

_ACCEPTANCE_RESULTS = {}
_ACCEPTANCE_PATTERN = re.compile(r"test_c(\d+)_(\w+)")


def pytest_runtest_logreport(report):
    if report.when != "call" or "test_acceptance" not in report.nodeid:
        return
    match = _ACCEPTANCE_PATTERN.search(report.nodeid)
    if match:
        number = int(match.group(1))
        title = match.group(2).replace("_", " ")
        _ACCEPTANCE_RESULTS[number] = (title, report.outcome)


def pytest_terminal_summary(terminalreporter):
    if not _ACCEPTANCE_RESULTS:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for number in sorted(_ACCEPTANCE_RESULTS):
        title, outcome = _ACCEPTANCE_RESULTS[number]
        verdict = "PASS" if outcome == "passed" else outcome.upper()
        terminalreporter.write_line(f"criterion {number:02d}  {title:<55} {verdict}")
