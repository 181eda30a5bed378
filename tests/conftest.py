import os
import signal

import pytest

from stub_ale_server import running, started


@pytest.fixture(autouse=True)
def stub_pids(tmp_path_factory, monkeypatch):
    """The file every stub server a test starts records its PID in, whether
    the test, a CLI subprocess or a pool worker starts it. A server still
    running once the test is over fails the test, and is killed."""
    pids = tmp_path_factory.mktemp("stub") / "pids"
    monkeypatch.setenv("STUB_PIDS", str(pids))
    yield pids
    left = [pid for pid in started(pids) if running(pid)]
    for pid in left:
        os.kill(pid, signal.SIGKILL)
    if left:
        pytest.fail(f"stub servers outlived the test: {left}")
