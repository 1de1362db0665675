import os
import time

import pytest

from gtvv.experiment import ExperimentConfig, run_experiment

_ACCEPTANCE_RESULTS = {}


def record_acceptance(criterion: int, ok: bool, detail: str):
    """Collect one pass/fail line per acceptance criterion for the summary."""
    _ACCEPTANCE_RESULTS[criterion] = (ok, detail)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE_RESULTS:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for criterion in sorted(_ACCEPTANCE_RESULTS):
        ok, detail = _ACCEPTANCE_RESULTS[criterion]
        status = "PASS" if ok else "FAIL"
        terminalreporter.write_line(
            f"criterion {criterion}: {status} — {detail}")


@pytest.fixture(scope="session")
def full_sweep():
    """The complete 5-scene x 2-rt60 x 4-order evaluation, shared across
    the acceptance tests that consume the aggregated tables. More workers
    than cores would only slow it down."""
    cfg = ExperimentConfig(workers=min(4, os.cpu_count() or 1))
    start = time.monotonic()
    table, records = run_experiment(cfg)
    elapsed = time.monotonic() - start
    return cfg, table, records, elapsed
