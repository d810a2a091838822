"""Tier-1 guard: numpy's BLAS thread count is process-wide, so a test that
leaves it changed would change every later test's BLAS calls."""

import pytest

from specopt.dense import blas_threads


@pytest.fixture(autouse=True)
def blas_thread_count_is_kept():
    before = blas_threads()
    yield
    assert blas_threads() == before, "the test left numpy's BLAS thread count changed"
