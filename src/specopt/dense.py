"""Dense float64 matrices, the plain-text matrix format, and the threads
that make BLAS calls: the one-thread pin, the lane count and Lane, the one
owner of helper threads, whose push() returns each call's own Call; kernels
and tasks find a lane with a thread through helper().

Matrices are ordinary numpy arrays: 2-D, float64, C (row-major) order.
Products on the per-step path are written ``a.dot(b)`` rather than
``a @ b``: both reach the same BLAS call (gemm, or syrk for a Gram
product) with the same operands and give the same bits, but ``dot``
skips the matmul ufunc's dispatch, about 1.2 us a product, over a third
of a 24x24 product's cost. The accumulation order is fixed by the BLAS
build and its thread count; the training harness pins one thread per
call (one_blas_thread), so identical inputs give it bit-identical outputs
on the same platform and BLAS build.
"""

from __future__ import annotations

import contextlib
import contextvars
import ctypes
import functools
import math
import os
import queue
import threading
from pathlib import Path

import numpy as np

from .errors import MatrixFormatError, NonFiniteError, ShapeError, ToolkitError

Matrix = np.ndarray
_pin_lock = threading.Lock()
_found = []  # counts found by open one_blas_thread blocks: the caller's, then 1s


def blas_threads() -> int | None:
    """Threads each BLAS call may use now, as numpy's bundled OpenBLAS
    reports it; None when numpy's BLAS is not one this can ask and set."""
    calls = _openblas_thread_calls()
    return None if calls is None else int(calls[0]())


def step_lanes() -> int:
    """How many threads may make BLAS calls at once: the CPUs this process
    may use while each BLAS call runs on one thread, else 1 (a BLAS that
    spreads each product over the CPUs leaves a second thread none to use)."""
    if blas_threads() != 1:
        return 1
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


@contextlib.contextmanager
def one_blas_thread():
    """Run the block with one thread per BLAS call, a process-wide count that
    the last open block restores on exit; a no-op where blas_threads() is None."""
    calls = _openblas_thread_calls()
    if calls is None:
        yield
        return
    get, set_ = calls
    with _pin_lock:
        _found.append(get())
        set_(1)
    try:
        yield
    finally:
        with _pin_lock:
            set_(_found.pop())


_HELPER = contextvars.ContextVar("specopt_helper", default=None)


def helper() -> Lane | None:
    """The Lane of the innermost ``with`` block open in this context if that
    lane has a thread; None outside every block, inside a lane without a
    thread, and in the calls that a lane's thread runs, so no call can push
    to the thread that runs it."""
    return _HELPER.get()


class Call:
    """The outcome of one call pushed to a Lane: result() waits until the
    call has run, then returns its value or raises its failure."""

    __slots__ = ("_value", "_error", "_ran")  # _ran: None, or held until the call ran

    def result(self):
        if self._ran is not None:
            with self._ran:
                pass
        if self._error is not None:
            raise self._error
        return self._value


def _settled(value, error, ran=None) -> Call:
    call = Call()
    call._value, call._error, call._ran = value, error, ran
    return call


# Every call run at once that returned None shares one Call: most pushes are
# folds, and this spares each an allocation (a quarter of an inline push).
_RETURNED_NONE = _settled(None, None)


class Lane(contextlib.AbstractContextManager):
    """Runs pushed calls in push order: on a helper thread named ``name``,
    each in a copy of the context it was pushed from (numpy's error state is
    a context variable), or at once on the caller's thread. push() returns
    each call's Call, the only holder of its value or failure, so a failure
    reaches no other call and stops none.

    A lane has a thread only when ``threaded`` is true and step_lanes() is
    two or more, and starts it at its first push, so a lane that nobody
    pushes to starts none. Inside its ``with`` block it is helper() if it
    has a thread. Leaving the block joins the thread on every exit, having
    run every call pushed before. run_training opens one for the whole run,
    and an inverse-root pass 128 or more wide that finds no helper() opens
    one for the call. A lane without a thread keeps no state, so INLINE
    serves every caller that runs its calls at once.
    """

    def __init__(self, name: str, threaded: bool = True):
        self._name = name
        self._threaded = threaded and step_lanes() >= 2
        self._thread = None

    def __enter__(self) -> Lane:
        self._token = _HELPER.set(self if self._threaded else None)
        return self

    def push(self, fn, *args) -> Call:
        if not self._threaded:
            try:
                value = fn(*args)
            except BaseException as exc:  # raised by call.result()
                return _settled(None, exc)
            return _RETURNED_NONE if value is None else _settled(value, None)
        if self._thread is None:
            self._calls = queue.SimpleQueue()
            self._thread = threading.Thread(target=self._serve, name=self._name)
            self._thread.start()
        call = _settled(None, None, threading.Lock())
        call._ran.acquire()
        self._calls.put((contextvars.copy_context(), call, fn, args))
        return call

    def _serve(self) -> None:
        while (item := self._calls.get()) is not None:
            context, call, fn, args = item
            context.run(_HELPER.set, None)
            try:
                call._value = context.run(fn, *args)
            except BaseException as exc:  # raised by call.result()
                call._error = exc
            call._ran.release()

    def __exit__(self, *exc_info) -> None:
        _HELPER.reset(self._token)
        if self._thread is not None:
            self._calls.put(None)
            self._thread.join()


# Runs each call at once on its caller's thread: narrow folds, a run's own step.
INLINE = Lane("specopt-inline", threaded=False)


@functools.cache
def _openblas_thread_calls():
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            set_ = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and set_ is not None:
                get.restype, get.argtypes = ctypes.c_int, []
                set_.restype, set_.argtypes = None, [ctypes.c_int]
                return get, set_
    return None


def as_matrix(data) -> Matrix:
    """``data`` as a non-empty 2-D float64 array of finite entries, the one
    matrix validator; a float64 array comes back as it is, not copied."""
    try:
        a = np.asarray(data, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise MatrixFormatError(f"cannot interpret input as a float matrix: {exc}") from exc
    if a.ndim != 2:
        raise ShapeError(f"expected a 2-D matrix, got {a.ndim}-D data of shape {a.shape}")
    if a.shape[0] < 1 or a.shape[1] < 1:
        raise ShapeError(f"matrix dimensions must be positive, got {a.shape}")
    if not np.all(np.isfinite(a)):
        raise NonFiniteError("matrix contains NaN or Inf entries")
    return a


def _require_2d(a: Matrix) -> None:
    if not isinstance(a, np.ndarray) or a.ndim != 2:
        raise ShapeError("matrix must be a 2-D array")


def gram(o: Matrix) -> Matrix:
    """O^T O of a 2-D ``o``, symmetrized exactly: the small-side Gram matrix
    of a tall ``o``, which is what spectral_transform hands its kernels.
    Averaging with the transpose removes roundoff asymmetry so downstream
    symmetric kernels see a bitwise-symmetric input.
    """
    x = o.T.dot(o)
    return 0.5 * (x + x.T)


def frobenius_norm(a: Matrix) -> float:
    """np.linalg.norm's value, bit for bit, whenever that value is finite.

    The sum of squares overflows once the norm passes about 1.3e154; only
    then is the norm taken of a / max|a| and scaled back, so a finite
    input with a finite norm never reads inf.
    """
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(a))
    if math.isinf(norm):
        scale = float(np.abs(a).max())
        if math.isfinite(scale):
            norm = scale * float(np.linalg.norm(a / scale))
    return norm


# Text format: first line "m n", then m lines of n decimals separated by
# single spaces. Values are written with repr(float), the shortest string
# that parses back to the identical float64, so a round trip is exact.

def format_matrix(a: Matrix) -> str:
    _require_2d(a)
    lines = [f"{a.shape[0]} {a.shape[1]}"]
    for row in a:
        lines.append(" ".join(repr(float(v)) for v in row))
    return "\n".join(lines) + "\n"


def parse_matrix(text: str) -> Matrix:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise MatrixFormatError("empty matrix text")
    head = lines[0].split()
    if len(head) != 2:
        raise MatrixFormatError(f"first line must be 'rows cols', got {lines[0]!r}")
    try:
        rows, cols = int(head[0]), int(head[1])
    except ValueError as exc:
        raise MatrixFormatError(f"first line must hold two integers, got {lines[0]!r}") from exc
    if rows < 1 or cols < 1:
        raise MatrixFormatError(f"dimensions must be positive, got {rows} {cols}")
    if len(lines) - 1 != rows:
        raise MatrixFormatError(f"expected {rows} data lines, found {len(lines) - 1}")
    data = []
    for i, line in enumerate(lines[1:], start=1):
        parts = line.split()
        if len(parts) != cols:
            raise MatrixFormatError(f"line {i + 1}: expected {cols} values, found {len(parts)}")
        try:
            data.append([float(p) for p in parts])
        except ValueError as exc:
            raise MatrixFormatError(f"line {i + 1}: {exc}") from exc
    return as_matrix(data)


def write_matrix(path, a: Matrix) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(format_matrix(a))


def read_matrix(path) -> Matrix:
    return parse_matrix(read_text(path, "ascii", MatrixFormatError))


def read_text(path, encoding: str, error: type[ToolkitError]) -> str:
    """The text of the file at ``path``; bytes that do not decode as
    ``encoding`` raise ``error`` with a message that names the file."""
    try:
        with open(path, "r", encoding=encoding) as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not {encoding.upper()} text ({exc.reason} at byte {exc.start})"
                    ) from None
