import re

import pytest

from bjlevel import l1, l2, linf, lp_space, polyhedral_space

from ._util import HEXAGON_VERTICES

_CRITERION_PATTERN = re.compile(r"test_criterion_(\w+?)_")
_criterion_outcomes: dict[str, str] = {}


def pytest_runtest_logreport(report):
    if report.when != "call":
        return
    match = _CRITERION_PATTERN.search(report.nodeid)
    if match:
        label = match.group(1)
        outcome = "PASS" if report.passed else "FAIL"
        if _criterion_outcomes.get(label) != "FAIL":
            _criterion_outcomes[label] = outcome


def pytest_terminal_summary(terminalreporter):
    if not _criterion_outcomes:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for label in sorted(_criterion_outcomes, key=lambda s: (len(s), s)):
        terminalreporter.write_line(f"criterion {label}: {_criterion_outcomes[label]}")


@pytest.fixture(scope="session")
def l1_3():
    return l1(3)


@pytest.fixture(scope="session")
def l1_2():
    return l1(2)


@pytest.fixture(scope="session")
def linf_3():
    return linf(3)


@pytest.fixture(scope="session")
def linf_2():
    return linf(2)


@pytest.fixture(scope="session")
def l2_3():
    return l2(3)


@pytest.fixture(scope="session")
def l3_3():
    return lp_space(3, 3)


@pytest.fixture(scope="session")
def hexagon():
    return polyhedral_space(HEXAGON_VERTICES)
