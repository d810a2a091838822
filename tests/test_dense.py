"""Dense matrix helpers, the plain-text matrix format and the lane primitive."""

import contextlib
import functools
import os
import sys
import threading
import time

import numpy as np
import pytest

from specopt import dense
from specopt.dense import (
    Lane,
    as_matrix,
    blas_threads,
    format_matrix,
    frobenius_norm,
    gram,
    one_blas_thread,
    parse_matrix,
    read_matrix,
    write_matrix,
)
from specopt.errors import MatrixFormatError, NonFiniteError, ShapeError
from specopt.synth import random_orthogonal


def test_gram_orthonormal_columns_give_identity():
    q = random_orthogonal(np.random.default_rng(2), 6)[:, :4]
    assert np.allclose(gram(q), np.eye(4), atol=1e-14)


def test_gram_diagonal_square():
    assert np.array_equal(gram(np.diag([3.0, 2.0])), np.diag([9.0, 4.0]))


def test_gram_is_o_transpose_o_of_any_shape():
    # The side is spectral_transform's choice: it hands gram a tall matrix.
    rng = np.random.default_rng(3)
    tall = rng.standard_normal((5, 3))
    wide = rng.standard_normal((3, 5))
    assert gram(tall).shape == (3, 3)
    assert gram(wide).shape == (5, 5)
    x = wide.T.dot(wide)
    assert gram(wide).tobytes() == (0.5 * (x + x.T)).tobytes()


def test_gram_symmetric_with_nonnegative_eigenvalues():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((5, 3))
    g = gram(x)
    # bitwise symmetry, then eigenvalues from numpy's symmetric solver
    assert np.array_equal(g, g.T)
    vals = np.linalg.eigvalsh(g)
    assert np.all(vals >= -1e-10 * np.linalg.norm(g))


def test_frobenius_norm_values():
    assert frobenius_norm(np.eye(4)) == 2.0
    assert frobenius_norm(np.zeros((3, 2))) == 0.0
    assert frobenius_norm(as_matrix([[3.0, 4.0]])) == 5.0


def test_frobenius_norm_keeps_numpy_bits_and_survives_overflow():
    rng = np.random.default_rng(8)
    for a in (rng.standard_normal((7, 5)), 1e150 * rng.standard_normal((4, 3)),
              1e-160 * rng.standard_normal((3, 3)), rng.standard_normal((6, 4)).T):
        assert frobenius_norm(a) == float(np.linalg.norm(a))
    # Past about 1.3e154 the sum of squares overflows though the norm is
    # finite; tier-1 turns numpy's overflow warning into an error.
    assert frobenius_norm(np.diag([1e300, 1.0])) == 1e300
    assert frobenius_norm(np.diag([-1e300, 1e300])) == 1e300 * np.sqrt(2.0)
    assert frobenius_norm(np.full((2, 2), 1.5e308)) == np.inf
    assert frobenius_norm(np.array([[np.inf, 1.0]])) == np.inf


# Every product on the per-step path is written a.dot(b) rather than a @ b,
# relying on both reaching the same BLAS call. Each form the kernels and the
# tasks use, at the shapes they see, from single rows and columns up.
_DOT_FORMS = {
    "plain": lambda w, b, c, d: (w @ b, w.dot(b)),
    "gram-tall": lambda w, b, c, d: (w.T @ w, w.T.dot(w)),
    "gram-wide": lambda w, b, c, d: (w @ w.T, w.dot(w.T)),
    # charlm's backward pass (dz2.T @ h, dz1.T @ x) and matreg's a.T @ resid
    "lhs-transposed": lambda w, b, c, d: (w.T @ d, w.T.dot(d)),
    # charlm's forward x @ W1.T and matreg's (a.T @ resid) @ b_map.T
    "rhs-transposed": lambda w, b, c, d: (w @ c.T, w.dot(c.T)),
}
_DOT_SHAPES = [(1, 24), (24, 1), (1, 1), (16, 16), (96, 16), (16, 96), (24, 24),
               (32, 24), (96, 96), (128, 128), (96, 128), (256, 256), (512, 256)]


@pytest.mark.parametrize("form", sorted(_DOT_FORMS))
def test_dot_matches_matmul_bit_for_bit(form):
    rng = np.random.default_rng(11)
    for rows, cols in _DOT_SHAPES:
        w = rng.standard_normal((rows, cols))
        for n in (1, cols, 16):
            b = rng.standard_normal((cols, n))
            c = rng.standard_normal((n, cols))
            d = rng.standard_normal((rows, n))
            want, got = _DOT_FORMS[form](w, b, c, d)
            assert want.shape == got.shape
            assert want.tobytes() == got.tobytes(), (form, rows, cols, n)


def test_overlapping_pins_restore_the_count_when_the_last_one_exits():
    before = blas_threads()
    if before is None:
        pytest.skip("numpy's BLAS thread count cannot be read")
    first, second = one_blas_thread(), one_blas_thread()
    first.__enter__()
    second.__enter__()
    first.__exit__(None, None, None)  # as when two threads' runs overlap
    assert blas_threads() == 1
    second.__exit__(None, None, None)
    assert blas_threads() == before


def test_a_second_lane_needs_one_blas_thread_per_call(monkeypatch):
    for count, lanes in ((None, 1), (2, 1), (1, len(os.sched_getaffinity(0)))):
        monkeypatch.setattr(dense, "blas_threads", lambda: count)
        assert dense.step_lanes() == lanes, count


def lane_threads():
    return [t for t in threading.enumerate() if t.name == "specopt-test"]


@pytest.fixture
def two_lanes(monkeypatch):
    """Let a threaded lane start its thread whatever the host's CPU count."""
    monkeypatch.setattr(dense, "step_lanes", lambda: 2)


@pytest.fixture
def started(monkeypatch):
    """The names of the threads started during the test, in start order."""
    names, start = [], threading.Thread.start

    def starting(self):
        names.append(self.name)
        start(self)

    monkeypatch.setattr(threading.Thread, "start", starting)
    return names


@pytest.mark.parametrize("threaded", [False, True])
def test_a_lane_runs_its_calls_in_push_order(two_lanes, threaded):
    order = []
    with Lane("specopt-test", threaded) as lane:
        for i in range(50):
            lane.push(order.append, i)
        thread = lane.push(threading.current_thread).result()
        counted = lane.push(len, order)
    assert counted.result() == 50  # read after the join
    assert order == list(range(50))
    assert (thread.name == "specopt-test") is threaded and not lane_threads()


def test_a_lane_starts_its_thread_at_its_first_push_and_only_when_threaded(
        monkeypatch, started):
    """A lane has a thread only when it is threaded and two or more lanes
    are free, and starts it at its first push: one nobody pushes to starts
    none."""
    for lanes, threaded, threads in ((2, True, ["specopt-test"]), (3, True, ["specopt-test"]),
                                     (1, True, []), (2, False, [])):
        monkeypatch.setattr(dense, "step_lanes", lambda: lanes)
        with Lane("specopt-test", threaded):
            pass
        assert started == []
        with Lane("specopt-test", threaded) as lane:
            calls = [lane.push(abs, -i) for i in range(3)]
            assert [call.result() for call in calls] == [0, 1, 2]
        assert started == threads, (lanes, threaded)
        started.clear()


def test_helper_is_the_innermost_open_lane_and_none_on_a_lanes_thread(monkeypatch):
    """A lane is helper() inside its block only when it has a thread, and
    helper() is None on a lane's own thread, so no call pushes to the thread
    that runs it."""
    monkeypatch.setattr(dense, "step_lanes", lambda: 2)
    assert dense.helper() is None
    with Lane("specopt-test") as outer:
        assert dense.helper() is outer
        with Lane("specopt-test", threaded=False):
            assert dense.helper() is None
        assert dense.helper() is outer
        assert outer.push(dense.helper).result() is None
        with pytest.raises(RuntimeError, match="inner"):
            with Lane("specopt-test") as failing:
                assert dense.helper() is failing
                raise RuntimeError("inner")
        assert dense.helper() is outer
    monkeypatch.setattr(dense, "step_lanes", lambda: 1)
    with Lane("specopt-test"):
        assert dense.helper() is None  # one CPU: no lane has a thread
    assert dense.helper() is None and not lane_threads()


def overflow():
    return np.float64(1e300) * np.float64(1e300)


def test_the_creators_error_state_reaches_the_helper(two_lanes):
    with np.errstate(over="raise"), Lane("specopt-test") as lane:
        with pytest.raises(FloatingPointError, match="overflow"):
            lane.push(overflow).result()
    with np.errstate(over="ignore"), Lane("specopt-test") as lane:
        assert lane.push(overflow).result() == np.inf


def test_each_call_runs_in_the_error_state_it_was_pushed_in(two_lanes):
    with np.errstate(over="warn"), Lane("specopt-test") as lane:
        with np.errstate(over="raise"):
            raising = lane.push(overflow)
        with np.errstate(over="ignore"):
            ignoring = lane.push(overflow)
        assert ignoring.result() == np.inf
        with pytest.raises(FloatingPointError, match="overflow"):
            raising.result()


@pytest.mark.parametrize("threaded", [False, True])
def test_a_failure_stays_with_its_own_call(two_lanes, threaded):
    """A failed call raises from its own result(), as often as it is read;
    the calls after it still run and hand back their own values."""
    ran = []

    def fail(message):
        ran.append(message)
        raise ValueError(message)

    with Lane("specopt-test", threaded) as lane:
        before = lane.push(ran.append, "before")
        first, second = lane.push(fail, "first"), lane.push(fail, "second")
        after = lane.push(len, ran)
        assert after.result() == 3
        for call, message in ((second, "second"), (first, "first"), (first, "first")):
            with pytest.raises(ValueError, match=message):
                call.result()
        assert before.result() is None
    assert ran == ["before", "first", "second"]


def test_leaving_the_block_by_an_exception_joins_the_helper(two_lanes):
    done = []
    with pytest.raises(RuntimeError, match="caller"):
        with Lane("specopt-test") as lane:
            thread = lane.push(threading.current_thread).result()
            lane.push(time.sleep, 0.05)  # still running when the caller raises
            queued = lane.push(done.append, "queued")
            raise RuntimeError("caller")
    assert thread.name == "specopt-test" and not thread.is_alive()
    assert done == ["queued"] and queued.result() is None


def test_three_lanes_keep_order_and_counts_under_fast_thread_switches(two_lanes):
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        logs = [[], [], []]  # three helpers: more threads than a two-CPU host has CPUs
        with contextlib.ExitStack() as stack:
            lanes = [stack.enter_context(Lane("specopt-test")) for _ in logs]
            for batch in range(1, 31):
                counts = []
                for log, lane in zip(logs, lanes):
                    for i in range(20):
                        lane.push(log.append, i)
                    counts.append(lane.push(len, log))
                # A result() that returned before its call had run would read short.
                assert [count.result() for count in counts] == [20 * batch] * 3
        assert logs == [list(range(20)) * 30] * 3 and not lane_threads()
    finally:
        sys.setswitchinterval(interval)


def test_inline_and_helper_lanes_give_the_same_bits(two_lanes):
    rng = np.random.default_rng(0)
    ts = [rng.standard_normal((128, 128)) / 10 for _ in range(8)]
    products = []
    with one_blas_thread():
        for threaded in (False, True):
            x = np.eye(128)

            def fold(t):
                nonlocal x
                x = x.dot(t)
                return x

            with Lane("specopt-test", threaded) as lane:
                folds = [lane.push(fold, t) for t in ts]
                products.append(folds[-1].result())
        serial = functools.reduce(np.dot, ts, np.eye(128))
    assert products[0].tobytes() == products[1].tobytes() == serial.tobytes()


def test_as_matrix_validation():
    a = as_matrix([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    assert a.shape == (2, 3)
    assert a.dtype == np.float64
    assert as_matrix(a) is a and as_matrix(a.T).base is a  # nothing copied
    assert as_matrix([[1, 2]]).dtype == np.float64
    with pytest.raises(ShapeError):
        as_matrix([1.0, 2.0, 3.0])  # 1-D
    with pytest.raises(NonFiniteError):
        as_matrix([[1.0, np.nan]])
    with pytest.raises(NonFiniteError):
        as_matrix([[np.inf, 1.0]])
    with pytest.raises(MatrixFormatError):
        as_matrix([["a", "b"]])
    with pytest.raises(MatrixFormatError):
        as_matrix([[1.0, 2.0], [3.0]])  # ragged
    with pytest.raises(ShapeError):
        as_matrix(np.ones((0, 3)))


def test_format_round_trip_is_exact():
    rng = np.random.default_rng(6)
    a = rng.standard_normal((4, 5)) * 10.0 ** rng.integers(-200, 200, size=(4, 5))
    again = parse_matrix(format_matrix(a))
    assert np.array_equal(a, again)
    # values with short and awkward decimal expansions
    b = as_matrix([[0.1, -0.0, 1e-300], [123456789.123456789, 2.0 ** -52, -1.5]])
    assert np.array_equal(parse_matrix(format_matrix(b)), b)


def test_format_header_and_layout():
    text = format_matrix(as_matrix([[1.0, 2.5]]))
    assert text.splitlines()[0] == "1 2"
    assert text.splitlines()[1] == "1.0 2.5"


def test_parse_matrix_errors():
    with pytest.raises(MatrixFormatError):
        parse_matrix("")
    with pytest.raises(MatrixFormatError):
        parse_matrix("2\n1.0\n2.0\n")
    with pytest.raises(MatrixFormatError):
        parse_matrix("a b\n1.0 2.0\n")
    with pytest.raises(MatrixFormatError):
        parse_matrix("0 2\n")
    with pytest.raises(MatrixFormatError):
        parse_matrix("2 2\n1.0 2.0\n")  # missing a data line
    with pytest.raises(MatrixFormatError):
        parse_matrix("1 2\n1.0\n")  # short row
    with pytest.raises(MatrixFormatError):
        parse_matrix("1 2\n1.0 x\n")


def test_file_round_trip(tmp_path):
    a = np.random.default_rng(7).standard_normal((3, 3))
    path = tmp_path / "m.txt"
    write_matrix(path, a)
    assert np.array_equal(read_matrix(path), a)
