"""The benchmark's correctness checks, run as part of the test suite.

`benchmarks/run.py` runs `checks.run_checks` before timing and fails a run
whose checks fail. Running them here as well catches a change that drops a
name the checks import, or that moves the train-n7 loss trajectory past
its 1e-6 tolerance, before any benchmark is taken.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))

import checks  # noqa: E402


@pytest.mark.parametrize("seed", [2001, 2201])
def test_benchmark_checks_pass(seed):
    results = checks.run_checks(seed)
    assert set(results) == {name for name, _ in checks.CHECKS}
    assert all(not failures for failures in results.values()), results
