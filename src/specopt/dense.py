"""Dense float64 matrices, the plain-text matrix format, and the threads
that make BLAS calls: the one-thread pin, the lane count and Lane.

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

from .errors import MatrixFormatError, NonFiniteError, ShapeError

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


class Lane(contextlib.AbstractContextManager):
    """Runs pushed calls in push order: on one helper thread named ``name``,
    each in a copy of the context it was pushed from (numpy's error state is
    a context variable), or at once on the caller's when ``helper`` is false.

    wait() returns the last call's value, or re-raises the first failure
    since the previous wait() and skips the calls after it. Leaving the
    ``with`` block joins the thread on every exit; a wait() after it reads
    what the thread left. run_training opens at most one per run, a helper
    for the steps of all but its costliest matrix and the X folds of that
    matrix's inverse-root passes; a pass called outside a training step
    opens one per call, for its folds.
    """

    def __init__(self, helper: bool, name: str):
        self._value = self._error = None  # the last call's value, the first failure
        self._pending = 0  # calls pushed to the helper since the last wait()
        self._calls = queue.SimpleQueue() if helper else None
        if helper:
            self._ran = queue.SimpleQueue()  # one item per call the helper has run
            self._thread = threading.Thread(target=self._serve, name=name)
            self._thread.start()

    def push(self, fn, *args) -> None:
        if self._calls is None:
            self._run(fn, args)
        else:
            self._pending += 1
            self._calls.put((contextvars.copy_context(), fn, args))

    def wait(self):
        for _ in range(self._pending):
            self._ran.get()
        self._pending = 0
        error, self._error = self._error, None
        if error is not None:
            raise error
        return self._value

    def _run(self, fn, args) -> None:
        if self._error is None:
            try:
                self._value = fn(*args)
            except BaseException as exc:  # re-raised by wait()
                self._error = exc

    def _serve(self) -> None:
        while (call := self._calls.get()) is not None:
            context, fn, args = call
            context.run(self._run, fn, args)
            self._ran.put(None)

    def __exit__(self, *exc_info) -> None:
        if self._calls is not None:
            self._calls.put(None)
            self._thread.join()


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
    """Validate external input into a 2-D float64 C-order array of finite entries."""
    try:
        a = np.array(data, dtype=np.float64, order="C")
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
    """Reduce to the smaller-side Gram matrix, symmetrized exactly.

    Returns O^T O when rows >= cols, otherwise O O^T. Averaging with the
    transpose removes roundoff asymmetry so downstream symmetric kernels see
    a bitwise-symmetric input.
    """
    _require_2d(o)
    x = o.T.dot(o) if o.shape[0] >= o.shape[1] else o.dot(o.T)
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
    with open(path, "r", encoding="ascii") as fh:
        return parse_matrix(fh.read())
