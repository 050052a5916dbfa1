"""Shared fixtures plus the acceptance-criteria summary printer."""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from corpus import CORPUS_ROOT
from symbiosis_kit.parser import parse_file
from symbiosis_kit.validator import validate


@pytest.fixture(scope="session")
def corpus() -> Path:
    return CORPUS_ROOT


@pytest.fixture(scope="session")
def repo_root(corpus: Path) -> Path:
    return corpus.parent


def _load(path: Path):
    model, diags = parse_file(path)
    diags = diags + validate(model)
    assert not any(d.is_error for d in diags), f"{path} has errors:\n" + "\n".join(
        d.render() for d in diags
    )
    return model


@pytest.fixture(scope="session")
def jpmorgan(corpus: Path):
    return _load(corpus / "jpmorgan.sym")


@pytest.fixture(scope="session")
def anthem(corpus: Path):
    return _load(corpus / "anthem.sym")


@pytest.fixture(scope="session")
def jpmorgan_logs(corpus: Path) -> list[str]:
    # Months 01..09 plus 11; the quarterly report goldens use 01..09 only.
    return sorted(str(p) for p in (corpus / "logs").glob("jpmorgan_2014-*.jsonl"))


# -- acceptance summary --------------------------------------------------------
# Tests named test_criterion_<n>_<slug> get one PASS/FAIL line in the terminal
# summary so a full run shows each criterion's outcome at a glance.

_CRITERION_RE = re.compile(r"test_criterion_(\d+)_(\w+)")
_criterion_outcomes: dict[int, tuple[str, str]] = {}


def pytest_runtest_logreport(report):
    if report.when != "call":
        return
    m = _CRITERION_RE.search(report.nodeid)
    if not m:
        return
    number = int(m.group(1))
    label = m.group(2).replace("_", " ")
    outcome = "PASS" if report.passed else "FAIL"
    _criterion_outcomes[number] = (outcome, label)


def pytest_terminal_summary(terminalreporter):
    if not _criterion_outcomes:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for number in sorted(_criterion_outcomes):
        outcome, label = _criterion_outcomes[number]
        terminalreporter.write_line(f"criterion {number}: {outcome} - {label}")
