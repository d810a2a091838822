"""Iterative matrix-root kernels built from matrix multiplications only.

Everything here approximates a spectral-power transform without forming an
SVD. The two building blocks are

* a quintic polar iteration that pushes every singular value into a fixed
  band around 1 (it oscillates inside that band rather than converging to
  exactly 1, which is the expected behaviour of its coefficients),
* a coupled Newton iteration for the inverse q-th root of a symmetric
  positive definite matrix (Guo & Higham 2006), q in {2, 4, 8}. One pass
  gives the cubic polar factor (q = 2 on the Gram matrix), ``coupled_root``'s
  square or quarter root and its inverse (q = 2 or 4), and the fractional
  powers below. For q = 4 and 8 the pass opens with scaled Newton steps
  from a committed table (_SCALED_STEPS), which lift a small eigenvalue
  about 10x a step where a plain step lifts it 2.4x or 2.6x, so the stiff
  spectra training produces converge inside the default budget.

The assembled ``spectral_transform`` keeps a matrix's singular vectors and
raises its singular values to a power in {1, 1/2, 1/4, 0}:

    p = 1    identity (no iterations),
    p = 1/2  O (O^T O)^(-1/4): one inverse 4th-root pass,
    p = 1/4  O (O^T O)^(-3/8): one inverse 8th-root pass, its result cubed,
    p = 0    the polar factor via the quintic (default) or cubic iteration,
             the cubic being O (O^T O)^(-1/2): one inverse square-root pass.

Each of these five routes is one entry of the table that ``route`` reads:
its kernel, default step budget and calibrated tolerance.

All kernels internally work with at least as many rows as columns,
transposing at entry and exit when needed.

Matmul counts, with n x n products on the small side n:

    quintic, k steps          3k + 1 (Z^T Z, B^2 and the update per step,
                              plus the final Z^T Z)
    root pass, k steps        3k - 1 for q = 2 (T^2, T^2 M and X T per step;
                              X_1 = T saves one), 4k - 1 for q = 4 (one more
                              squaring), 5k - 1 for q = 8 (two more); on
                              the critical path one product fewer a step
                              when X T runs on a helper thread: the
                              training step's own helper (folds_on), else
                              one per call (_inverse_root_core)
    cubic polar               a q = 2 pass plus the Gram and output
                              products: 3k + 1
    coupled_root, q = 2       a q = 2 pass plus A X: 3k
    coupled_root, q = 4       a q = 4 pass, two products for X^3 and
                              A X^3: 4k + 2
    p = 1/2                   a q = 4 pass plus the Gram and output
                              products: 4k + 1
    p = 1/4                   a q = 8 pass, two products for X^3, the Gram
                              and the output: 5k + 3

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

import contextlib
import contextvars
import math
from collections.abc import Callable
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import dense
from .calibration import REL_TOL_HALF, REL_TOL_POLAR_CUBIC, REL_TOL_QUARTER, REL_TOL_ZERO_QUINTIC
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
DEFAULT_ROOT_STEPS = 18      # inverse-root pass: p = 1/2 and 1/4, square and quarter roots

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
    """Run log of one kernel invocation: the kernel opens it at its first
    step, and every exit, a raise included, hands out that one record.

    scale_alpha is the Frobenius normalizer, the divisor of the kernel's
    first iterate: of the input for the quintic and for coupled_root, of
    the Gram matrix O^T O for the cubic polar and p = 1/2 and 1/4.
    residual_per_iter holds one entry per step actually performed:
    ||M_k - I||_F for the inverse-root pass and the orthogonality defect
    ||P_k^T P_k - I||_F for the quintic.
    """

    iterations_run: int
    scale_alpha: float
    residual_per_iter: list[float]


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
    diag = KernelDiagnostics(0, alpha, [])
    b = z.T.dot(z)
    for _ in range(iters):
        # Z Z^T Z = Z (Z^T Z) keeps every product on the small side.
        z = z.dot(a_eye + qb * b + qc * b.dot(b))
        b = z.T.dot(z)
        _residual(b, eye, "quintic", diag)
    return (z.T.copy() if transposed else z), diag


def polar_cubic(m: Matrix, iters: int = DEFAULT_CUBIC_ITERS) -> tuple[Matrix, KernelDiagnostics]:
    """Cubic polar factor of ``m``: m G^(-1/2), G = m^T m, by one q = 2 pass.

    Each step X <- X T of _inverse_root_core with T = (3 I - M_k) / 2 is the
    cubic update Z <- Z (3 I - G Z^2) / 2 on the normalized Gram matrix,
    evaluated in its coupled arrangement (M_k = X_k^2 G / ||G||_F carried
    alongside X): the iterates are identical in exact arithmetic, but the
    one-sided form amplifies rounding noise between converged stiff modes
    and slow modes, which wrecks it well below the condition numbers this
    kernel must handle. The result is the true polar factor U V^T.

    Requires full column rank: a rank-deficient input leaves the residual
    stuck above the acceptance ceiling and raises KernelDivergenceError.
    """
    out, diag = _root_transform(_validate_input(m), 2, 1, iters)
    if diag.residual_per_iter[-1] > _CUBIC_RESIDUAL_CEILING:
        raise KernelDivergenceError(
            f"cubic polar residual stuck at {diag.residual_per_iter[-1]:.3e} after "
            f"{diag.iterations_run} iterations; the input is rank deficient "
            "or needs more iterations",
            diagnostics=diag,
        )
    return out, diag


def _residual(prod: np.ndarray, eye: np.ndarray, label: str, diag: KernelDiagnostics) -> float:
    """Count a step in ``diag`` and append ||prod - I||_F, as np.linalg.norm
    evaluates it.

    prod is a product of the current iterates (Z^T Z, or M), and a
    non-finite iterate always makes it non-finite, so this check stands in
    for scanning the iterates after every update. A non-finite residual
    raises with the step counted and the residual left out.
    """
    diag.iterations_run += 1
    d = (prod - eye).ravel()
    res = math.sqrt(d.dot(d))
    if not math.isfinite(res):
        raise KernelDivergenceError(
            f"{label} iteration {diag.iterations_run} produced non-finite values",
            diagnostics=diag,
        )
    diag.residual_per_iter.append(res)
    return res


def _power(x: np.ndarray, j: int) -> np.ndarray:
    """x^j for j >= 1, multiplied left to right."""
    xj = x
    for _ in range(j - 1):
        xj = xj.dot(x)
    return xj


_COUPLED_ROOTS = {2: ("square root", "coupled sqrt"), 4: ("quarter root", "coupled quarter")}


def coupled_root(
    x: Matrix, q: int, iters: int = DEFAULT_ROOT_STEPS
) -> tuple[Matrix, Matrix, KernelDiagnostics]:
    """q-th root and inverse q-th root from one inverse-root pass, q in {2, 4}.

    Input must be symmetric positive definite. Returns (X^(1/q), X^(-1/q),
    diagnostics): Z = X^(-1/q) from the pass and X Z^(q-1) for the root, so
    the pair satisfies the reconstruction identities within iteration
    accuracy. Semi-definite input does not blow up at the default budget,
    but the inverse factor is only meaningful on the range of X.
    """
    if q not in _COUPLED_ROOTS:
        raise PreconditionError(f"coupled root degree must be 2 or 4, got {q!r}")
    what, label = _COUPLED_ROOTS[q]
    a = _validate_input(x)
    if a.shape[0] != a.shape[1]:
        raise ShapeError(f"{what} needs a square matrix, got {a.shape}")
    if iters < 1:
        raise PreconditionError(f"iteration count must be >= 1, got {iters}")
    if frobenius_norm(a - a.T) > _SYMMETRY_RTOL * frobenius_norm(a):
        raise PreconditionError(f"{label}: input is not symmetric within tolerance")
    a = 0.5 * (a + a.T)
    z, diag = _inverse_root_core(a, q, iters, label)
    z = z * diag.scale_alpha ** (-1 / q)
    return a.dot(_power(z, q - 1)), z, diag


# (a_k, b_k) of the scaled Newton steps T_k = a_k I - b_k M that open an
# inverse-root pass, per root degree q (Iannazzo 2006; chosen greedily per
# step as in Polar Express, Amsel et al. 2025). From the spectrum [l_k, 1] of
# M, each step takes r = b_k / a_k to equalize (1 - r mu)^q mu at both ends,
# capped at r_max, and a_k to bring that polynomial's maximum on the
# interval to 1, so M's spectrum maps into [l_{k+1}, 1] and stays in (0, 1].
# The schedule starts at l_0 = 1e-10 and ends once 1 - l_k <= 1e-3; plain
# Newton steps ((q + 1)/q, 1/q) follow, and q = 2 runs only those. A capped
# step lifts a small eigenvalue by a_k^q: 8.5 (q = 4) and 11.6 (q = 8),
# against 2.4 and 2.6 for a plain one. The caps, r_max = 0.7 for q = 4 and
# 0.5 for q = 8, keep 1 - r mu from cancelling (at kappa 100 uncapped steps
# leave errors near 1e-9, capped ones 4e-14) and keep O^T Z symmetric
# within 1e-9 on a rank-deficient input at q = 8 (1e-8 at a cap of 0.7).
# tests/test_kernels.py rebuilds both tables from (l_0, q, r_max).
_SCALED_STEPS = {
    4: ((1.7097279998342256, 1.1968095998839579),) * 9 + (
        (1.6532033228348921, 1.0116290479736771),
        (1.4884919424967504, 0.5985802509068265),
        (1.3205776126912716, 0.329010377420897),
        (1.2552815417173715, 0.25532636218723426),
    ),
    8: ((1.3577008399132866, 0.6788504199566433),) * 8 + (
        (1.302604202036891, 0.4675731716960869),
        (1.2149124941373757, 0.2497136577958626),
        (1.1445039187872, 0.1459126239102101),
        (1.1257923026273426, 0.1257945382757375),
    ),
}


# Gram side from which X = T_1 ... T_K goes to a helper thread, a training
# step's (folds_on) or one opened for the call: below it the hand-offs cost
# more than the product. p = 1/2 calls on a 2-core host at one BLAS thread,
# inline -> helper: 24 wide 171 -> 664 us, 96 wide +2 %, 128 wide -9 %,
# 256 wide -18 %.
_LANE_MIN_SIDE = 128

# The lane a training step hands the passes on its calling thread (folds_on);
# None everywhere else, its helper thread included.
_STEP_HELPER = contextvars.ContextVar("specopt_step_helper", default=None)


@contextlib.contextmanager
def folds_on(lane: dense.Lane):
    """Inside the block, inverse-root passes from _LANE_MIN_SIDE wide push
    their X folds to ``lane`` rather than open a lane of their own, and read
    no lane count. ``lane`` must be a helper other than the block's thread;
    its owner waits on it after the block, which a pass that raised leaves
    with folds still queued."""
    token = _STEP_HELPER.set(lane)
    try:
        yield
    finally:
        _STEP_HELPER.reset(token)


def _inverse_root_core(
    a: np.ndarray, q: int, iters: int, label: str
) -> tuple[np.ndarray, KernelDiagnostics]:
    """One coupled Newton pass for the inverse q-th root, q in {2, 4, 8}.

    Callers pass an exactly symmetric ``a`` and ``iters >= 1``. With
    M_0 = a / alpha, alpha = ||a||_F, step k takes T = a_k I - b_k M, from
    _SCALED_STEPS for q = 4 and 8 and then the plain Newton step
    ((q + 1) I - M) / q, then X <- X T (X_1 = T) and M <- T^q M, T^q by
    repeated squaring, so M_k = X_k^q M_0 tends to I and X_k to M_0^(-1/q)
    (Guo & Higham 2006; scaled steps after Iannazzo 2006).
    Returns X_K and the call's one record, which every exit hands out:
    alpha, the number of steps and the history of ||M_k - I||_F;
    a^(-1/q) is X_K alpha^(-1/q). k steps cost (log2(q) + 2) k - 1
    matmuls: X_1 = T saves one.

    The M chain never reads X, so from _LANE_MIN_SIDE wide the folds
    X <- X T can run on a helper thread and the chain's steps are one
    product shorter: inside a training step, on the step's helper
    (folds_on), behind the other matrices' steps; elsewhere, when another
    thread may make BLAS calls beside this one (dense.step_lanes), on a
    dense.Lane named ``specopt-root`` that lives as long as the call.
    """
    alpha = frobenius_norm(a)
    if alpha == 0.0:
        raise DegenerateInputError(f"{label}: zero matrix has no inverse root")
    n = a.shape[0]
    eye = np.eye(n)
    scaled = _SCALED_STEPS.get(q, ())
    plain = ((q + 1) / q, 1 / q)
    squarings = q.bit_length() - 1
    m = a / alpha
    diag = KernelDiagnostics(0, alpha, [])
    x = None

    def fold(t):
        nonlocal x
        x = t if x is None else x.dot(t)
        return x

    helper = _STEP_HELPER.get() if n >= _LANE_MIN_SIDE else None
    with (dense.Lane(n >= _LANE_MIN_SIDE and dense.step_lanes() > 1, "specopt-root")
          if helper is None else contextlib.nullcontext(helper)) as lane:
        while True:
            k = diag.iterations_run
            a_k, b_k = scaled[k] if k < len(scaled) else plain
            # a I - b M without a division: scale M, then add a to the
            # diagonal in place.
            t = m * -b_k
            t.ravel()[::n + 1] += a_k
            lane.push(fold, t)
            tq = t
            for _ in range(squarings):
                tq = tq.dot(tq)
            m = tq.dot(m)
            res = _residual(m, eye, label, diag)
            if diag.iterations_run >= iters or res <= _COUPLED_EXIT:
                break
            # The spectrum of M stays in (0, 1]; growth means blow-up.
            if res > diag.residual_per_iter[0] * 2.0 + 10.0:
                raise KernelDivergenceError(
                    f"{label}: residual grew to {res:.3e}", diagnostics=diag)
    return lane.wait(), diag


def _root_transform(a: np.ndarray, q: int, j: int, iters: int) -> tuple[Matrix, KernelDiagnostics]:
    """O (O^T O)^(-j/q) for a validated ``a``, on its smaller side.

    The Gram matrix is exactly symmetric (dense.gram), so it goes to the
    inverse root without a symmetry check. A finite input with entries
    beyond about 1e154 overflows it: a NonFiniteError says so. Along an
    exact null direction X grows by (q + 1)/q a step while M stays finite,
    so after thousands of steps X can overflow; the output's finiteness
    check reports that without a RuntimeWarning first.
    """
    if iters < 1:
        raise PreconditionError(f"iteration count must be >= 1, got {iters}")
    transposed = a.shape[0] < a.shape[1]
    work = a.T if transposed else a
    with np.errstate(over="ignore", invalid="ignore"):
        g = gram(work)
        if not np.isfinite(g).all():
            raise NonFiniteError("Gram matrix overflowed: input entries are too large to square")
        label = f"inverse {'square' if q == 2 else f'{q}th'} root"
        x, diag = _inverse_root_core(g, q, iters, label)
        out = work.dot(_power(x, j) * diag.scale_alpha ** (-j / q))
    if not np.isfinite(out).all():
        raise KernelDivergenceError(
            f"{label}: the root iterate overflowed after {diag.iterations_run} steps",
            diagnostics=diag)
    return (out.T.copy() if transposed else out), diag


@dataclass(frozen=True)
class Route:
    """A spectral_transform route: the kernel, run on validated input with a
    step budget, its default budget and its calibrated error bound against
    the oracle (relative Frobenius)."""

    kernel: Callable[[np.ndarray, int], tuple[Matrix, KernelDiagnostics]]
    steps: int
    rel_tol: float


# Keyed by exponent and, for p = 0 only, the polar kernel's name.
# O (O^T O)^(-j/q) has singular values sigma^p for p = 1 - 2 j / q: the
# root degree q and the power j of the inverse root, per exponent.
_ROUTES = {
    (SpectralExponent.ONE, None): Route(
        lambda a, steps: (a.copy(), KernelDiagnostics(0, 1.0, [])), 0, 0.0),
    (SpectralExponent.HALF, None): Route(
        lambda a, steps: _root_transform(a, 4, 1, steps), DEFAULT_ROOT_STEPS, REL_TOL_HALF),
    (SpectralExponent.QUARTER, None): Route(
        lambda a, steps: _root_transform(a, 8, 3, steps), DEFAULT_ROOT_STEPS, REL_TOL_QUARTER),
    (SpectralExponent.ZERO, "quintic"): Route(
        polar_quintic, DEFAULT_POLAR_ITERS, REL_TOL_ZERO_QUINTIC),
    (SpectralExponent.ZERO, "cubic"): Route(polar_cubic, DEFAULT_CUBIC_ITERS, REL_TOL_POLAR_CUBIC),
}

ZERO_METHODS = tuple(method for _, method in _ROUTES if method is not None)


def route(exponent: SpectralExponent, zero_method: str = "quintic") -> Route:
    """The route of ``exponent``; ``zero_method`` picks one for p = 0 only."""
    if exponent is not SpectralExponent.ZERO:
        return _ROUTES[exponent, None]
    if zero_method not in ZERO_METHODS:
        raise PreconditionError(f"unknown zero-power method {zero_method!r}")
    return _ROUTES[exponent, zero_method]


def spectral_transform(
    o: Matrix,
    exponent: SpectralExponent,
    iters: int | None = None,
    zero_method: str = "quintic",
) -> tuple[Matrix, KernelDiagnostics]:
    """Raise the singular values of ``o`` to the chosen power, SVD-free.

    Runs the kernel of ``route(exponent, zero_method)``. ``iters`` is its
    step count: steps of the one inverse-root pass for p = 1/2 and 1/4 and
    the cubic p = 0, quintic steps for the quintic; None picks the route's
    default. ``zero_method`` selects the polar kernel for the zero power:
    "quintic" (band around 1) or "cubic" (fully converged polar); other
    powers ignore it. The identity power performs zero iterations.

    p = 1/2 and 1/4 return O A^(-1/4) and O (A^(-1/8))^3 from one inverse-root
    pass on the small-side Gram matrix A = O^T O. Its scaled opening steps
    target eigenvalues of A down to 1e-10 of its norm, so the default budget
    converges in 14-15 steps at condition number 1e4 and stays within the
    calibrated tolerance at 1e6 (about 1e-5 off at p = 1/2 and 1e-6 at
    p = 1/4, on small sides from 16 to 128); stiffer directions converge at
    the plain steps' pace and need more steps.
    A residual that is non-finite or grows, or a non-finite output, raises
    KernelDivergenceError. A kernel's error comes out led by its route:
    ``spectral transform p=0.25: ...`` or ``... p=0.0 method=cubic: ...``.
    """
    a = _validate_input(o)
    chosen = route(exponent, zero_method)
    try:
        return chosen.kernel(a, chosen.steps if iters is None else iters)
    except ToolkitError as exc:
        method = f" method={zero_method}" if exponent is SpectralExponent.ZERO else ""
        raise tagged(exc, f"spectral transform p={exponent.power}{method}") from exc
