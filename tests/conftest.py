"""Fixtures shared across test modules."""

import time

import pytest

from nvecho.config import load_packaged_scenario
from nvecho.scenarios import run_scenario


@pytest.fixture(scope="session")
def protection_runs(tmp_path_factory):
    """fig4 and s5 as packaged, each run once per session (they are the
    slowest scenarios): name -> (config, result, seconds the run took)."""
    runs = {}
    for name in ("fig4", "s5"):
        config = load_packaged_scenario(name)
        started = time.perf_counter()
        result = run_scenario(config, out_dir=tmp_path_factory.mktemp(name), deterministic=True)
        runs[name] = (config, result, time.perf_counter() - started)
    return runs
