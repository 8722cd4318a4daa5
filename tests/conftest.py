import signal
from contextlib import contextmanager

import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "exact",
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("exact")


class _Expired(Exception):
    pass


@pytest.fixture
def deadline():
    """deadline(seconds, what) is a context manager that fails the test when
    its block runs past the seconds, by SIGALRM.  The failure carries no
    traceback: pytest can fail to render one raised by a signal handler
    (a frame without a line number), which ends the whole session."""

    @contextmanager
    def within(seconds: int, what: str):
        def expired(signum, frame):
            raise _Expired

        previous = signal.signal(signal.SIGALRM, expired)
        signal.alarm(seconds)
        try:
            yield
        except _Expired:
            pytest.fail(f"{what} did not return in {seconds} s", pytrace=False)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)

    return within
