"""Dense matrix helpers and the plain-text matrix format."""

import numpy as np
import pytest

from specopt.dense import (
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
from specopt.oracle import jacobi_eigh
from specopt.synth import random_orthogonal


def test_gram_orthonormal_columns_give_identity():
    q = random_orthogonal(np.random.default_rng(2), 6)[:, :4]
    assert np.allclose(gram(q), np.eye(4), atol=1e-14)


def test_gram_diagonal_square():
    assert np.array_equal(gram(np.diag([3.0, 2.0])), np.diag([9.0, 4.0]))


def test_gram_reduces_to_smaller_side():
    rng = np.random.default_rng(3)
    tall = rng.standard_normal((5, 3))
    wide = rng.standard_normal((3, 5))
    assert gram(tall).shape == (3, 3)
    assert gram(wide).shape == (3, 3)


def test_gram_symmetric_with_nonnegative_eigenvalues():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((5, 3))
    g = gram(x)
    # bitwise symmetry, then eigenvalues checked through the oracle solver
    assert np.array_equal(g, g.T)
    vals, _ = jacobi_eigh(g)
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


def test_as_matrix_reshape_and_validation():
    a = as_matrix([1.0, 2.0, 3.0, 4.0, 5.0, 6.0], rows=2, cols=3)
    assert a.shape == (2, 3)
    assert a.dtype == np.float64
    with pytest.raises(ShapeError):
        as_matrix([1.0, 2.0, 3.0], rows=2, cols=2)
    with pytest.raises(ShapeError):
        as_matrix([1.0, 2.0, 3.0])  # 1-D without a target shape
    with pytest.raises(NonFiniteError):
        as_matrix([[1.0, np.nan]])
    with pytest.raises(NonFiniteError):
        as_matrix([[np.inf, 1.0]])
    with pytest.raises(MatrixFormatError):
        as_matrix([["a", "b"]])


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
