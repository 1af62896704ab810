import concurrent.futures
import functools
import os
from pathlib import Path

import hypothesis
import pytest

hypothesis.settings.register_profile(
    "cslab", deadline=None, max_examples=50, derandomize=True
)
hypothesis.settings.load_profile("cslab")


def note_worker(directory):
    """Pool initializer: leave a file named by this worker's pid in ``directory``."""
    (Path(directory) / str(os.getpid())).touch()


@pytest.fixture
def started_workers(monkeypatch, tmp_path):
    """Have every process pool note the workers it starts; the fixture's value
    returns the pids noted so far.  ``run_sweep`` imports the pool class from
    ``concurrent.futures`` when it starts a pool, so it takes the patched one."""
    noted = tmp_path / "started_workers"
    noted.mkdir()
    pool = functools.partial(concurrent.futures.ProcessPoolExecutor,
                             initializer=note_worker, initargs=(str(noted),))
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", pool)
    return lambda: {path.name for path in noted.iterdir()}
