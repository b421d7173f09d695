"""A time bound on every test, without a plugin.

An interval timer is armed around each test.  A test still running after
TIME_BOUND seconds fails under its own node id, so a hang (a simplex that
cycles, say) becomes one named failure instead of a stopped suite.  The
bound sits far above the slowest test, which takes a few seconds.  The
failure carries no traceback (pytrace=False): it is raised from a signal
handler at whatever line was running, and formatting a traceback through
such a frame can crash pytest's reporting, which would lose the node id.
"""

import signal

import pytest

TIME_BOUND = 30


@pytest.fixture(autouse=True)
def time_bound(request):
    def expire(signum, frame):
        pytest.fail(f"{request.node.nodeid} ran past {TIME_BOUND} s", pytrace=False)

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, TIME_BOUND)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
