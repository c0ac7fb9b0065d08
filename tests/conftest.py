"""Emit one "[criterion N] PASS|FAIL" line per acceptance test, and make
property tests deterministic.

The reporting hook runs outside output capture, so the gate lines are
visible in every pytest invocation, not only with -s.  Hypothesis draws
its examples from a fixed seed, with no deadline and no example database,
so every run tests the same inputs.  Its one remaining cache, of constants
read from the source files, goes to the system temporary directory, so a
run leaves no `.hypothesis/` in the checkout.
"""

import re
import tempfile
from pathlib import Path

from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

settings.register_profile("vknot", derandomize=True, deadline=None, database=None)
settings.load_profile("vknot")
set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "vknot-hypothesis")

_ACCEPTANCE = re.compile(r"test_acceptance\.py::test_criterion_(\d+)_(\w+)")


def pytest_runtest_logreport(report):
    m = _ACCEPTANCE.search(report.nodeid)
    if m and report.when == "call":
        num, slug = m.group(1), m.group(2).replace("_", " ")
        verdict = "PASS" if report.passed else "FAIL"
        print(f"\n[criterion {num}] {verdict}: {slug}", end="")
