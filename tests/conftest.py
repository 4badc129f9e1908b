import os
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

sys.path.insert(0, str(Path(__file__).parent))

settings.register_profile(
    "default", deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
settings.load_profile("default")


@pytest.fixture()
def writer(monkeypatch):
    """Set the CPUs and batch size the container writer sees; it returns the list of forks.

    The writer forks one worker per CPU when a sequence of graphs makes at
    least two batches, so ``writer(1)`` keeps it serial.  After the test no
    child process may remain.
    """
    import lsprune.container as container

    forks = []
    real_fork = os.fork

    def fork():
        pid = real_fork()
        if pid:
            forks.append(pid)
        return pid

    def use(cpus, batch=container._BATCH):
        monkeypatch.setattr(os, "fork", fork)
        monkeypatch.setattr(os, "sched_getaffinity", lambda _pid: set(range(cpus)))
        monkeypatch.setattr(container, "_BATCH", batch)
        forks.clear()
        return forks

    yield use
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)

