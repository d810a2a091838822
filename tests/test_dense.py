"""Dense matrix helpers and the plain-text matrix format."""

import numpy as np
import pytest

from specopt.dense import (
    as_matrix,
    format_matrix,
    frobenius_norm,
    gram,
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
