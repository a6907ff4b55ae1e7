import signal

import pytest

from wpvol.taucalc import TauCalculator

#: seconds any one test may run; the slowest test takes under a second, and
#: a wrong exact-arithmetic kernel tends to blow up bit lengths and hang
TEST_TIME_LIMIT_S = 60


@pytest.fixture(scope="session")
def calc():
    """One shared correlator memo for the whole run; values are pure."""
    return TauCalculator()


@pytest.fixture(autouse=True)
def time_limit():
    """Fail a test that runs longer than TEST_TIME_LIMIT_S instead of hanging."""

    def expired(signum, frame):
        pytest.fail(f"test ran longer than {TEST_TIME_LIMIT_S} s")

    previous = signal.signal(signal.SIGALRM, expired)
    signal.alarm(TEST_TIME_LIMIT_S)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
