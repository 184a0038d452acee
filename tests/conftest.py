"""A per-test time limit: a test that runs longer than ``TEST_TIMEOUT_S``
seconds fails with ``TimeoutError`` instead of stalling the whole run.
The slowest test takes about 20 s.  Where ``signal.SIGALRM`` does not
exist (Windows) the limit is off."""
import signal

import pytest

TEST_TIMEOUT_S = 300


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    if not hasattr(signal, "SIGALRM"):
        yield
        return

    def expire(signum, frame):
        raise TimeoutError(f"{item.nodeid} ran longer than {TEST_TIMEOUT_S} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(TEST_TIMEOUT_S)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
