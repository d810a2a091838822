"""Dense float64 matrices and the plain-text matrix format.

Matrices are ordinary numpy arrays: 2-D, float64, C (row-major) order.
Products delegate to numpy's matmul; the accumulation order is fixed by the
BLAS build, so identical inputs give bit-identical outputs on the same
platform, which is the determinism contract the training harness relies on.
"""

from __future__ import annotations

import numpy as np

from .errors import MatrixFormatError, NonFiniteError, ShapeError

Matrix = np.ndarray


def as_matrix(data, rows: int | None = None, cols: int | None = None) -> Matrix:
    """Validate external input into a 2-D float64 C-order array.

    Entries must all be finite. When ``rows``/``cols`` are given the data is
    reshaped to that layout (row-major) and the element count must match.
    """
    try:
        a = np.array(data, dtype=np.float64, order="C")
    except (TypeError, ValueError) as exc:
        raise MatrixFormatError(f"cannot interpret input as a float matrix: {exc}") from exc
    if rows is not None or cols is not None:
        if rows is None or cols is None or rows < 1 or cols < 1:
            raise ShapeError(f"need both positive dimensions, got rows={rows} cols={cols}")
        if a.size != rows * cols:
            raise ShapeError(f"{a.size} entries cannot fill a {rows}x{cols} matrix")
        a = a.reshape(rows, cols)
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
    x = o.T @ o if o.shape[0] >= o.shape[1] else o @ o.T
    return 0.5 * (x + x.T)


def frobenius_norm(a: Matrix) -> float:
    return float(np.linalg.norm(a))


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
