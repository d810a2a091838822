"""Tier-1 guards on process-wide state a test could leave behind.

numpy's BLAS thread count is process-wide, so a test that leaves it changed
would change every later test's BLAS calls. The toolkit's helper threads
(named ``specopt-...``) live only as long as the call that starts them, so
one still alive after a test is a thread the toolkit failed to join. A
lane's ``with`` block sets dense.helper() for the code inside it, so a lane
left open would send a later test's work to a thread that is gone.
"""

import threading

import pytest

from specopt.dense import blas_threads, helper


@pytest.fixture(autouse=True)
def blas_thread_count_is_kept():
    before = blas_threads()
    yield
    assert blas_threads() == before, "the test left numpy's BLAS thread count changed"


@pytest.fixture(autouse=True)
def no_helper_thread_outlives_the_test():
    yield
    alive = [t.name for t in threading.enumerate() if t.name.startswith("specopt-")]
    assert not alive, f"the test left helper threads running: {alive}"


@pytest.fixture(autouse=True)
def no_lane_is_left_open():
    yield
    assert helper() is None, "the test left a lane open as dense.helper()"
