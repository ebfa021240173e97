"""Plain helpers of the cluster suite, importable by name.

Not in ``conftest.py``: ``from conftest import ...`` resolves to whichever
test directory's conftest was imported last, so it breaks as soon as one
pytest invocation names two directories.
"""

import time
from pathlib import Path


def release(backend):
    """Open a :class:`FileGatedBackend`'s gate."""
    Path(backend.gate_path).touch()


def wait_for(predicate, timeout=15.0, interval=0.02, message="condition"):
    """Poll ``predicate`` until true; fail the test on timeout."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(interval)
    raise AssertionError(f"timed out waiting for {message}")


def stopped(pid):
    """Whether process ``pid`` is stopped (``T`` in ``/proc/<pid>/stat``):
    a ``SIGSTOP`` is delivered asynchronously, so a test that needs the
    process stopped waits for it."""
    stat = Path(f"/proc/{pid}/stat").read_text()
    return stat[stat.rindex(")") + 2] == "T"


def started_handle(cluster, directory):
    """The handle of a shard whose process wrote a ``started-<pid>`` marker
    (a ``FileGatedBackend`` with ``touch=True``) into ``directory``."""
    wait_for(lambda: any(directory.glob("started-*")), message="a shard to start executing")
    pids = {int(path.name.split("-", 1)[1]) for path in directory.glob("started-*")}
    return next(handle for handle in cluster._handles if handle.process.pid in pids)
