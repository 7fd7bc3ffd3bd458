"""Acceptance gate: one test per criterion of ``lensshrinker.checks``, each
printing its PASS/FAIL line; ``lensshrinker verify`` runs the same code.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the measured
numbers.  The tolerances live in ``checks``; this module pins the contract
values, so that a loosened bound shows up here, and the runtime budgets,
which stay out of ``verify``'s output.
"""

import time

from lensshrinker import checks
from lensshrinker.shooting import PipelineConfig

BUDGET_S = {checks.criterion_1_circle_regression: 1.0,
            checks.criterion_2_junction_located: 30.0,
            checks.criterion_3_small_height_asymptotics: 5.0}


def test_contract_values():
    assert (checks.CIRCLE_TOL, checks.JUNCTION_TOL, checks.CURVATURE_TOL,
            checks.MONITOR_SLACK_TOL, checks.ORACLE_TOL) \
        == (1e-8, 1e-9, 1e-8, -1e-9, 1e-8)


def _gate(criterion):
    def test():
        t0 = time.perf_counter()
        result = criterion(PipelineConfig())
        elapsed = time.perf_counter() - t0
        print(f"{result.line()}, runtime={elapsed:.2f}s")
        assert result.passed, result.line()
        assert elapsed < BUDGET_S.get(criterion, float("inf"))
    return test


# one test per criterion, named test_<criterion function>, so that each
# criterion keeps its test id as criteria are added
for _criterion in checks.CRITERIA:
    globals()["test_" + _criterion.__name__] = _gate(_criterion)
