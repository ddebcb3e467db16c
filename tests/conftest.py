"""Suite-wide settings: every test runs under a time limit.

A fault that keeps a loop from ending would otherwise hang the whole run
and report nothing; under the limit it fails its own test.  The limit uses
the standard library's interval timer, so it needs SIGALRM and is off on a
platform without it.
"""

import signal

import pytest

LIMIT_S = 60  # the slowest test takes about 3 s


@pytest.fixture(autouse=True)
def time_limit():
    """Fail the test at ``LIMIT_S`` seconds; restore the handler and the
    timer that were there before."""
    if not hasattr(signal, "SIGALRM"):
        yield
        return

    def expire(signum, frame):
        pytest.fail(f"the test ran past its {LIMIT_S} s limit", pytrace=False)

    handler = signal.signal(signal.SIGALRM, expire)
    timer = signal.setitimer(signal.ITIMER_REAL, LIMIT_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, *timer)
        signal.signal(signal.SIGALRM, handler)
