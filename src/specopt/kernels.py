"""Iterative matrix-root kernels built from matrix multiplications only.

Everything here approximates a spectral-power transform without forming an
SVD. The three building blocks are

* a quintic polar iteration that pushes every singular value into a fixed
  band around 1 (it oscillates inside that band rather than converging to
  exactly 1, which is the expected behaviour of its coefficients),
* a cubic polar iteration that does converge to the true polar factor,
  evaluated in coupled form for numerical stability,
* a coupled square-root iteration for symmetric positive definite input
  that returns the matrix square root together with its inverse, plus a
  two-pass variant for the quarter root.

The assembled ``spectral_transform`` keeps a matrix's singular vectors and
raises its singular values to a power in {1, 1/2, 1/4, 0}:

    p = 1    identity (no iterations),
    p = 1/2  O (O^T O)^(-1/4) via the two-pass quarter root,
    p = 1/4  the p = 1/2 transform applied twice,
    p = 0    the polar factor via the quintic (default) or cubic iteration.

All kernels internally work with at least as many rows as columns,
transposing at entry and exit when needed.

Matmul counts, with n x n products on the small side n:

    coupled pass, k updates   3k - 1 (Z_0 = I saves the first two products;
                              the last one is the final residual's Z Y)
    quintic, k steps          3k + 1 (Z^T Z, B^2 and the update per step,
                              plus the final Z^T Z)
    cubic polar               a coupled pass plus the Gram and output products
    p = 1/2                   two coupled passes plus the Gram and output
                              products: 3(k1 + k2) for k1 + k2 updates
    p = 1/4                   two p = 1/2 transforms

At the small shapes training uses (96x16, 32x24) an iteration is bound by
numpy call overhead rather than by BLAS, so each loop makes as few numpy
calls as it can while computing exactly the textbook iterates, and writes
each product as ``a.dot(b)``: the same BLAS call as ``a @ b`` with the same
bits, without the matmul ufunc's dispatch (at 24x24, 2.0 against 3.3 us a
product on one BLAS thread). From about 96 wide BLAS sets the time, and
``dot`` costs 1-2.5 % more there, because numpy zero-fills its output
before the BLAS call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .dense import Matrix, frobenius_norm, gram
from .errors import (
    DegenerateInputError,
    KernelDivergenceError,
    NonFiniteError,
    PreconditionError,
    ShapeError,
    ToolkitError,
    tagged,
)

DEFAULT_POLAR_ITERS = 5      # quintic; more iterations keep cycling the band
DEFAULT_CUBIC_ITERS = 40     # cubic polar, with early exit well before that
DEFAULT_COUPLED_ITERS = 15   # coupled square root, per pass

_CUBIC_EXIT = 1e-12
_CUBIC_RESIDUAL_CEILING = 0.5
_COUPLED_EXIT = 1e-14
_SYMMETRY_RTOL = 1e-10

# (a, b, c) of the odd quintic z -> a z + b z^3 + c z^5 that polar_quintic
# applies to every singular value.
QUINTIC_COEFFICIENTS = (3.4445, -4.7750, 2.0315)


class SpectralExponent(Enum):
    """The four supported singular-value powers."""

    ONE = "one"
    HALF = "half"
    QUARTER = "quarter"
    ZERO = "zero"

    @property
    def power(self) -> float:
        return {"one": 1.0, "half": 0.5, "quarter": 0.25, "zero": 0.0}[self.value]

    @property
    def suffix(self) -> str:
        """Optimizer-name suffix: '', 'S', 'Q' or 'Z'."""
        return {"one": "", "half": "S", "quarter": "Q", "zero": "Z"}[self.value]

    @classmethod
    def from_token(cls, token: str) -> "SpectralExponent":
        key = token.strip().lower()
        table = {
            "1": cls.ONE, "one": cls.ONE,
            "0.5": cls.HALF, "1/2": cls.HALF, "half": cls.HALF, "s": cls.HALF,
            "0.25": cls.QUARTER, "1/4": cls.QUARTER, "quarter": cls.QUARTER, "q": cls.QUARTER,
            "0": cls.ZERO, "zero": cls.ZERO, "z": cls.ZERO,
        }
        if key not in table:
            raise PreconditionError(
                f"unknown exponent token {token!r}; use one of 1, 0.5, 0.25, 0 "
                "(or one/half/quarter/zero)"
            )
        return table[key]


@dataclass
class KernelDiagnostics:
    """Run log of one kernel invocation.

    scale_alpha is the first Frobenius normalizer: the divisor of the input
    for the quintic and coupled iterations, and the multiplier applied to
    the Gram matrix (1 / ||M^T M||_F) for the cubic iteration. scale_beta is
    the second-pass normalizer of the quarter root when one ran.
    residual_per_iter holds one entry per iteration actually performed:
    ||Z_k Y_k - I||_F for coupled runs and the orthogonality defect
    ||P_k^T P_k - I||_F for polar runs. pass_residuals holds the final
    ||Z Y - I||_F of each coupled pass in order (one for the cubic polar and
    the square root, two per half transform, none for the quintic), so a
    pass that stopped short of convergence shows even when a later pass
    ends with a small residual.
    """

    iterations_run: int
    scale_alpha: float
    scale_beta: float | None = None
    residual_per_iter: list[float] = field(default_factory=list)
    pass_residuals: list[float] = field(default_factory=list)


def _validate_input(m, name: str = "input") -> np.ndarray:
    a = np.asarray(m, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
        raise ShapeError(f"{name} must be a non-empty 2-D matrix, got shape {a.shape}")
    # Reject garbage up front: a NaN or Inf entry would otherwise surface
    # iterations later as a bogus divergence report.
    if not np.all(np.isfinite(a)):
        raise NonFiniteError(f"{name} contains NaN or Inf entries")
    return a


def polar_quintic(m: Matrix, iters: int = DEFAULT_POLAR_ITERS) -> tuple[Matrix, KernelDiagnostics]:
    """Quintic orthogonalizer: repeated odd-quintic applied to the spectrum.

    Normalizes the input by its Frobenius norm, then iterates
    Z <- a Z + b Z Z^T Z + c (Z Z^T)^2 Z. With QUINTIC_COEFFICIENTS the
    singular values land in a band around 1 instead of converging to 1, so
    the output is the polar factor up to that band. The output is not
    rescaled after the initial normalization.
    """
    a = _validate_input(m)
    if iters < 1:
        raise PreconditionError(f"iteration count must be >= 1, got {iters}")
    alpha = frobenius_norm(a)
    if alpha == 0.0:
        raise DegenerateInputError("zero matrix has no polar factor")
    transposed = a.shape[0] < a.shape[1]
    z = (a.T if transposed else a) / alpha
    n = z.shape[1]
    eye = np.eye(n)
    qa, qb, qc = QUINTIC_COEFFICIENTS
    a_eye = qa * eye
    residuals: list[float] = []
    b = z.T.dot(z)
    for k in range(1, iters + 1):
        # Z Z^T Z = Z (Z^T Z) keeps every product on the small side.
        z = z.dot(a_eye + qb * b + qc * b.dot(b))
        b = z.T.dot(z)
        _residual(b, eye, "quintic", k, alpha, residuals)
    diag = KernelDiagnostics(iters, alpha, None, residuals)
    return (z.T.copy() if transposed else z), diag


def polar_cubic(m: Matrix, iters: int = DEFAULT_CUBIC_ITERS) -> tuple[Matrix, KernelDiagnostics]:
    """Cubic polar factor via the inverse-root iteration on the Gram matrix.

    Scales A = M^T M to unit Frobenius norm and drives Z towards A^(-1/2)
    with the cubic update Z <- Z (3 I - A Z^2) / 2, then returns M A^(-1/2)
    rescaled, which is the true polar factor U V^T. The update is evaluated
    in its coupled arrangement (carrying Y = A Z alongside Z with the shared
    correction 3 I - Z Y): the iterates are identical in exact arithmetic,
    but the one-sided form amplifies rounding noise between converged stiff
    modes and slow modes, which wrecks it well below the condition numbers
    this kernel must handle.

    Requires full column rank: a rank-deficient input leaves the residual
    stuck above the acceptance ceiling and raises KernelDivergenceError.
    """
    a_in = _validate_input(m)
    if iters < 1:
        raise PreconditionError(f"iteration count must be >= 1, got {iters}")
    transposed = a_in.shape[0] < a_in.shape[1]
    work = a_in.T if transposed else a_in
    if frobenius_norm(work) == 0.0:
        raise DegenerateInputError("zero matrix has no polar factor")
    x = gram(work)
    try:
        _, z, xnorm, residuals, updates = _coupled_core(x, iters, _CUBIC_EXIT, "cubic polar")
    except KernelDivergenceError as exc:
        if exc.diagnostics is not None:
            # Cubic diagnostics report the multiplier applied to M^T M.
            exc.diagnostics.scale_alpha = 1.0 / exc.diagnostics.scale_alpha
        raise
    diag = KernelDiagnostics(updates, 1.0 / xnorm, None, residuals, [residuals[-1]])
    if residuals[-1] > _CUBIC_RESIDUAL_CEILING:
        raise KernelDivergenceError(
            f"cubic polar residual stuck at {residuals[-1]:.3e} after "
            f"{updates} iterations; the input is rank deficient "
            "or needs more iterations",
            diagnostics=diag,
        )
    polar = work.dot(z) / np.sqrt(xnorm)
    return (polar.T.copy() if transposed else polar), diag


def _residual(
    prod: np.ndarray, eye: np.ndarray, label: str, updates: int, alpha: float,
    residuals: list[float],
) -> float:
    """Append ||prod - I||_F, evaluated exactly as np.linalg.norm evaluates it.

    prod is a product of the current iterates (Z^T Z, or Z Y), and a
    non-finite iterate always makes it non-finite, so this check stands in
    for scanning the iterates after every update.
    """
    d = (prod - eye).ravel()
    res = math.sqrt(d.dot(d))
    if not math.isfinite(res):
        raise KernelDivergenceError(
            f"{label} iteration {updates} produced non-finite values",
            diagnostics=KernelDiagnostics(updates, alpha, None, residuals),
        )
    residuals.append(res)
    return res


def _coupled_core(
    x: np.ndarray, iters: int, exit_tol: float, label: str
) -> tuple[np.ndarray, np.ndarray, float, list[float], int]:
    """One coupled square-root pass on an exactly symmetric matrix.

    Callers validate and symmetrize ``x`` and ensure ``iters >= 1``.
    Returns the unscaled iterates (Y_K, Z_K), the normalizer alpha, the
    residual history and the number of updates performed. Callers fold the
    normalizer back: sqrt(alpha) Y_K estimates X^(1/2) and Z_K / sqrt(alpha)
    estimates X^(-1/2).

    Each update is Y <- Y T, Z <- T Z with T = 3/2 I - 1/2 Z Y, which is
    bit for bit the textbook (Y T', T' Z) / 2 with T' = 3 I - Z Y. Z starts
    at I, so the first update needs one product (Z_1 = T) and k updates cost
    3k - 1 matmuls, counting the final Z Y behind the last residual.
    """
    alpha = frobenius_norm(x)
    if alpha == 0.0:
        raise DegenerateInputError(f"{label}: zero matrix has no square root")
    eye = np.eye(x.shape[0])
    eye_3_2 = 1.5 * eye
    y = x / alpha
    t = eye_3_2 - 0.5 * y
    y = y.dot(t)
    z = t
    updates = 1
    residuals: list[float] = []
    while True:
        prod = z.dot(y)
        res = _residual(prod, eye, label, updates, alpha, residuals)
        if updates >= iters or res <= exit_tol:
            return y, z, alpha, residuals, updates
        # The product spectrum stays in (0, 1]; growth means blow-up.
        if res > residuals[0] * 2.0 + 10.0:
            raise KernelDivergenceError(
                f"{label}: residual grew to {res:.3e}",
                diagnostics=KernelDiagnostics(updates, alpha, None, residuals),
            )
        t = eye_3_2 - 0.5 * prod
        y = y.dot(t)
        z = t.dot(z)
        updates += 1


def _symmetric_input(x: Matrix, what: str, iters: int, label: str) -> np.ndarray:
    """Validate a square root's input and return it exactly symmetrized."""
    a = _validate_input(x)
    if a.shape[0] != a.shape[1]:
        raise ShapeError(f"{what} needs a square matrix, got {a.shape}")
    if iters < 1:
        raise PreconditionError(f"iteration count must be >= 1, got {iters}")
    if frobenius_norm(a - a.T) > _SYMMETRY_RTOL * frobenius_norm(a):
        raise PreconditionError(f"{label}: input is not symmetric within tolerance")
    return 0.5 * (a + a.T)


def coupled_ns_sqrt(
    x: Matrix, iters: int = DEFAULT_COUPLED_ITERS
) -> tuple[Matrix, Matrix, KernelDiagnostics]:
    """Coupled iteration for the square root and inverse square root.

    Input must be symmetric positive definite. Returns (X^(1/2), X^(-1/2),
    diagnostics); the pair satisfies the reconstruction identities within
    iteration accuracy. Semi-definite input does not blow up, but the
    inverse factor is only meaningful on the range of X.
    """
    a = _symmetric_input(x, "square root", iters, "coupled sqrt")
    y, z, alpha, residuals, updates = _coupled_core(a, iters, _COUPLED_EXIT, "coupled sqrt")
    root = float(np.sqrt(alpha))
    diag = KernelDiagnostics(updates, alpha, None, residuals, [residuals[-1]])
    return root * y, z / root, diag


def coupled_ns_quarter(
    x: Matrix, iters: int = DEFAULT_COUPLED_ITERS
) -> tuple[Matrix, Matrix, KernelDiagnostics]:
    """Quarter root and inverse quarter root by two coupled passes.

    The first pass produces X^(1/2); the second pass re-normalizes that
    estimate by its own Frobenius norm (recorded as scale_beta) and takes
    its square root. ``iters`` applies per pass; diagnostics concatenate
    both passes' residual histories and list each pass's final residual.
    """
    return _quarter_core(_symmetric_input(x, "quarter root", iters, "quarter pass 1"), iters)


def _quarter_core(x: np.ndarray, iters: int) -> tuple[Matrix, Matrix, KernelDiagnostics]:
    """coupled_ns_quarter on an exactly symmetric ``x`` and ``iters >= 1``."""
    y1, _, alpha, res1, up1 = _coupled_core(x, iters, _COUPLED_EXIT, "quarter pass 1")
    half = float(np.sqrt(alpha)) * y1
    half = 0.5 * (half + half.T)
    y2, z2, beta, res2, up2 = _coupled_core(half, iters, _COUPLED_EXIT, "quarter pass 2")
    root = float(np.sqrt(beta))
    diag = KernelDiagnostics(up1 + up2, alpha, beta, res1 + res2, [res1[-1], res2[-1]])
    return root * y2, z2 / root, diag


def _merge_diagnostics(first: KernelDiagnostics, second: KernelDiagnostics) -> KernelDiagnostics:
    return KernelDiagnostics(
        iterations_run=first.iterations_run + second.iterations_run,
        scale_alpha=first.scale_alpha,
        scale_beta=second.scale_beta,
        residual_per_iter=first.residual_per_iter + second.residual_per_iter,
        pass_residuals=first.pass_residuals + second.pass_residuals,
    )


def spectral_transform(
    o: Matrix,
    exponent: SpectralExponent,
    iters: int | None = None,
    zero_method: str = "quintic",
) -> tuple[Matrix, KernelDiagnostics]:
    """Raise the singular values of ``o`` to the chosen power, SVD-free.

    ``iters`` is the per-kernel iteration count (per pass for the coupled
    root); None picks the per-exponent default. ``zero_method`` selects the
    polar kernel for the zero power: "quintic" (band around 1) or "cubic"
    (fully converged polar). The identity power performs zero iterations.

    For the compressing powers the iteration budget must suit the input's
    conditioning: the defaults are calibrated for condition numbers up to
    about 100; far stiffer spectra need more iterations per pass.
    """
    a = _validate_input(o)
    if exponent is SpectralExponent.ONE:
        return a.copy(), KernelDiagnostics(0, 1.0, None, [])

    if exponent is SpectralExponent.ZERO:
        if zero_method not in ("quintic", "cubic"):
            raise PreconditionError(f"unknown zero-power method {zero_method!r}")
        try:
            if zero_method == "quintic":
                return polar_quintic(a, iters if iters is not None else DEFAULT_POLAR_ITERS)
            return polar_cubic(a, iters if iters is not None else DEFAULT_CUBIC_ITERS)
        except ToolkitError as exc:
            raise tagged(exc, f"spectral transform p=0.0 method={zero_method}") from exc

    k = iters if iters is not None else DEFAULT_COUPLED_ITERS
    try:
        if exponent is SpectralExponent.HALF:
            return _half_transform(a, k)
        # QUARTER: compose the half transform with itself.
        first, diag1 = _half_transform(a, k)
        second, diag2 = _half_transform(first, k)
    except ToolkitError as exc:
        raise tagged(exc, f"spectral transform p={exponent.power}") from exc
    return second, _merge_diagnostics(diag1, diag2)


def _half_transform(a: np.ndarray, iters: int) -> tuple[Matrix, KernelDiagnostics]:
    """O (O^T O)^(-1/4) for a validated ``a``, on its smaller side.

    The Gram matrix is exactly symmetric (dense.gram), so it goes to the
    quarter root without coupled_ns_quarter's symmetry check. A finite input
    with entries beyond about 1e154 overflows it: a NonFiniteError says so.
    """
    transposed = a.shape[0] < a.shape[1]
    work = a.T if transposed else a
    with np.errstate(over="ignore", invalid="ignore"):
        x = gram(work)
    if not np.isfinite(x).all():
        raise NonFiniteError("Gram matrix overflowed: input entries are too large to square")
    if iters < 1:
        raise PreconditionError(f"iteration count must be >= 1, got {iters}")
    _, inv_quarter, diag = _quarter_core(x, iters)
    out = work.dot(inv_quarter)
    return (out.T.copy() if transposed else out), diag
