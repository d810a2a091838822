"""Property checks of the toolkit's contracts, one function per contract.

Each ``check_*`` function is one acceptance contract (tests 01-07 in
``tests/test_acceptance.py``): it draws its inputs from the contract's
distribution with the generator it is given, holds the results to the
frozen tolerances in ``calibration`` and raises AssertionError naming the
worst values; on success it returns them as one line. The acceptance tests
call the checks at their own seeds and full sample counts; ``specopt
verify`` runs the same checks at the small counts of ``CHECKS``, each with
a fresh generator from the run's seed. Kernel checks accept an iteration
override (None: each kernel's default) so a deliberately under-iterated run
demonstrates that the checks actually detect failure rather than vacuously
passing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import calibration
from .dense import frobenius_norm
from .errors import ConfigError, ToolkitError
from .kernels import (
    DEFAULT_ROOT_STEPS,
    SpectralExponent,
    coupled_root,
    route,
    spectral_transform,
)
from .optim import (
    HyperParams,
    InputKind,
    OptimizerState,
    make_input,
    parse_optimizer,
    step_matrix_param,
    step_vector_param,
    update_moments,
)
from .oracle import cond_number, jacobi_svd, spectral_power_exact
from .synth import random_spd, spectrum_matrix
from .tasks import make_task

_FIXTURE = np.diag([9.0, 4.0, 1.0, 0.01, 0.0001])


@dataclass
class CheckResult:
    suite: str
    name: str
    passed: bool
    detail: str


def _run(suite: str, name: str, fn: Callable[[], str]) -> CheckResult:
    """Run one check; a raised ToolkitError is a failure, not a crash."""
    try:
        return CheckResult(suite, name, True, fn())
    except ToolkitError as exc:
        return CheckResult(suite, name, False, f"{type(exc).__name__}: {exc}")
    except AssertionError as exc:
        return CheckResult(suite, name, False, str(exc))


def _require(ok: bool, summary: str) -> str:
    """Return ``summary`` if ``ok``, else raise it as the AssertionError.

    A plain ``assert`` would vanish under ``python -O`` and pass every check.
    """
    if not ok:
        raise AssertionError(summary)
    return summary


# --- the contracts ----------------------------------------------------------


def check_fixture_spectrum() -> str:
    """01: the oracle maps the diagonal fixture's spectrum through each power."""
    cases = (
        (1.0, [9.0, 4.0, 1.0, 0.01, 0.0001]),
        (0.5, [3.0, 2.0, 1.0, 0.1, 0.01]),
        (0.25, list(np.sqrt([3.0, 2.0, 1.0, 0.1, 0.01]))),
        (0.0, [1.0] * 5),
    )
    worst = 0.0
    for p, want in cases:
        got = jacobi_svd(spectral_power_exact(_FIXTURE, p)).sigma
        worst = max(worst, float(np.max(np.abs(got - np.array(want)))))
    return _require(
        worst <= calibration.ORACLE_FIXTURE_TOL,
        f"fixture spectrum max abs error {worst:.2e}",
    )


def check_oracle_laws(rng: np.random.Generator, draws: int) -> str:
    """02: orthonormal factors, reconstruction and kappa -> kappa**p on random shapes."""
    worst_orth = worst_recon = worst_law = 0.0
    for _ in range(draws):
        rows = int(rng.integers(5, 41))
        cols = int(rng.integers(5, 41))
        cond = float(10.0 ** rng.uniform(0.0, 4.0))
        m = spectrum_matrix(rng, rows, cols, cond)
        tr = jacobi_svd(m)
        k = tr.sigma.size
        worst_orth = max(
            worst_orth,
            frobenius_norm(tr.u.T @ tr.u - np.eye(k)),
            frobenius_norm(tr.v.T @ tr.v - np.eye(k)),
        )
        worst_recon = max(worst_recon, frobenius_norm(tr.reconstruct() - m) / frobenius_norm(m))
        kappa = cond_number(m)
        for p in (0.5, 0.25, 0.0):
            got = cond_number(spectral_power_exact(m, p))
            worst_law = max(worst_law, abs(got - kappa ** p) / kappa ** p)
    # the condition chain of the fixture, exactly where it should be
    chain = (
        cond_number(_FIXTURE),
        cond_number(spectral_power_exact(_FIXTURE, 0.5)),
        cond_number(spectral_power_exact(_FIXTURE, 0.0)),
    )
    law_tol = calibration.CONDITION_LAW_TOL
    return _require(
        worst_orth <= calibration.ORACLE_ORTHONORMALITY_TOL
        and worst_recon <= calibration.ORACLE_RECONSTRUCTION_TOL
        and worst_law <= law_tol
        and all(abs(got - want) <= law_tol * want
                for got, want in zip(chain, (90000.0, 300.0, 1.0))),
        f"orth {worst_orth:.2e} recon {worst_recon:.2e} law {worst_law:.2e} chain {chain}",
    )


def check_kernels_vs_oracle(
    rng: np.random.Generator, draws: int, iters: int | None = None
) -> str:
    """03: the half and quarter transforms and the cubic polar factor against the oracle."""
    routes = ((SpectralExponent.HALF, "quintic"), (SpectralExponent.QUARTER, "quintic"),
              (SpectralExponent.ZERO, "cubic"))
    worst = [0.0] * len(routes)
    for _ in range(draws):
        rows = int(rng.integers(8, 65))
        cols = int(rng.integers(8, 49))
        cond = float(10.0 ** rng.uniform(0.0, 2.0))
        m = spectrum_matrix(rng, rows, cols, cond)
        for i, (exponent, method) in enumerate(routes):
            got, _ = spectral_transform(m, exponent, iters, zero_method=method)
            want = spectral_power_exact(m, exponent.power)
            worst[i] = max(worst[i], frobenius_norm(got - want) / frobenius_norm(want))
    return _require(
        all(w <= route(*r).rel_tol for w, r in zip(worst, routes)),
        "half {:.2e} quarter {:.2e} polar {:.2e}".format(*worst),
    )


def check_quintic_band(
    rngs: list[np.random.Generator], draws: int, iters: int | None = None
) -> str:
    """04: the quintic's output singular values stay in the calibrated band.

    Takes ``draws`` inputs from each generator in turn.
    """
    lo, hi = calibration.QUINTIC_SV_BAND
    seen_lo, seen_hi = math.inf, -math.inf
    for rng in rngs:
        for _ in range(draws):
            rows = int(rng.integers(8, 33))
            cols = int(rng.integers(5, 25))
            cond = float(10.0 ** rng.uniform(0.0, 2.0))
            m = spectrum_matrix(rng, rows, cols, cond)
            out, _ = spectral_transform(m, SpectralExponent.ZERO, iters)
            sig = jacobi_svd(out).sigma
            seen_lo = min(seen_lo, float(sig[-1]))
            seen_hi = max(seen_hi, float(sig[0]))
    return _require(
        lo <= seen_lo and seen_hi <= hi,
        f"quintic singular values in [{seen_lo:.4f}, {seen_hi:.4f}], band [{lo}, {hi}]",
    )


def check_coupled_identities(
    rng: np.random.Generator, draws: int, iters: int | None = None
) -> str:
    """05: Y^2 = X and Z Y = I for the square root, Q^4 = X for the quarter root."""
    steps = DEFAULT_ROOT_STEPS if iters is None else iters
    worst_sqrt = worst_inv = worst_quarter = 0.0
    for _ in range(draws):
        n = int(rng.integers(4, 65))
        cond = float(10.0 ** rng.uniform(0.0, 2.0))
        x = random_spd(rng, n, cond)
        y, z, _ = coupled_root(x, 2, steps)
        worst_sqrt = max(worst_sqrt, frobenius_norm(y @ y - x) / frobenius_norm(x))
        worst_inv = max(worst_inv, frobenius_norm(z @ y - np.eye(n)) / math.sqrt(n))
        q, _, _ = coupled_root(x, 4, steps)
        worst_quarter = max(worst_quarter, frobenius_norm(q @ q @ q @ q - x) / frobenius_norm(x))
    tol = calibration.COUPLED_IDENTITY_TOL
    return _require(
        worst_sqrt <= tol and worst_inv <= tol and worst_quarter <= tol,
        f"sqrt {worst_sqrt:.2e} inverse {worst_inv:.2e} quarter {worst_quarter:.2e}",
    )


def check_optimizer_reductions(rng: np.random.Generator, steps: int) -> str:
    """06: msgd and adam match reference update loops; the first rms step is exact."""
    hp = HyperParams(lr_mat=0.05)
    w = rng.standard_normal((6, 4))
    ref_w, ref_m = w.copy(), np.zeros_like(w)
    state = OptimizerState.initial(w, need_v=False)
    kind = parse_optimizer("msgd")
    worst = 0.0
    for _ in range(steps):
        g = rng.standard_normal(w.shape)
        ref_m = hp.beta1 * ref_m + (1.0 - hp.beta1) * g
        ref_w = ref_w - hp.lr_mat * ref_m
        w, state, _ = step_matrix_param(w, g, state, kind, hp)
        worst = max(worst, float(np.max(np.abs(w - ref_w))))

    hp2 = HyperParams(lr_mat=0.01)
    w2 = rng.standard_normal((6, 4))
    ref_w2, ref_m2, ref_v2 = w2.copy(), np.zeros_like(w2), np.zeros_like(w2)
    state2 = OptimizerState.initial(w2, need_v=True)
    adam = parse_optimizer("adam")
    for _ in range(steps):
        g = rng.standard_normal(w2.shape)
        ref_m2 = hp2.beta1 * ref_m2 + (1.0 - hp2.beta1) * g
        ref_v2 = hp2.beta2 * ref_v2 + (1.0 - hp2.beta2) * (g * g)
        ref_w2 = ref_w2 - hp2.lr_mat * ref_m2 / (np.sqrt(ref_v2) + hp2.eps)
        w2, state2, _ = step_matrix_param(w2, g, state2, adam, hp2)
        worst = max(worst, float(np.max(np.abs(w2 - ref_w2))))

    # t = 1 rms-normalized magnitude, exact to the last bit for +-1 gradients
    g = np.sign(rng.standard_normal((8, 5))) + 0.0
    hp3 = HyperParams(lr_mat=1.0, eps=0.0)
    s = update_moments(OptimizerState.initial(g, True), g, hp3, True)
    entries = np.abs(make_input(s, InputKind.RMS_NORMALIZED, hp3))
    want = (1.0 - hp3.beta1) / math.sqrt(1.0 - hp3.beta2)
    summary = _require(
        worst <= calibration.REDUCTION_DRIFT_TOL,
        f"reduction drift over {steps} steps {worst:.2e}",
    )
    # the default betas give (1 - 0.9) / sqrt(1 - 0.95), 5 ulp below sqrt(0.2)
    _require(
        float(np.max(np.abs(entries - want))) == 0.0 and want == 0.44721359549995765,
        f"t = 1 magnitudes {np.unique(entries)} differ from {want!r}",
    )
    return summary


def check_task_gradients(task_name: str, rng: np.random.Generator, coords: int) -> str:
    """07: hand gradients of a task against central differences at ``coords``
    coordinates of each parameter (all of a smaller one)."""
    task = make_task(task_name, seed=0)
    params = task.init_params(np.random.default_rng(1))
    batch = rng.choice(task.num_train, size=32, replace=False)
    _, grads = task.loss_and_grads(params, batch)
    worst = 0.0
    checked = 0
    for pname in sorted(params):
        p = params[pname]
        g = grads[pname]
        # Coordinates whose gradient is orders of magnitude below the
        # parameter's largest entry carry only finite-difference noise, so
        # the relative error is floored at that scale.
        floor = max(1e-3 * float(np.max(np.abs(g))), 1e-8)
        for fi in rng.choice(p.size, size=min(coords, p.size), replace=False):
            idx = np.unravel_index(fi, p.shape)
            h = 1e-5 * max(1.0, abs(float(p[idx])))
            saved = float(p[idx])
            p[idx] = saved + h
            hi, _ = task.loss_and_grads(params, batch)
            p[idx] = saved - h
            lo, _ = task.loss_and_grads(params, batch)
            p[idx] = saved
            fd = (hi - lo) / (2.0 * h)
            scale = max(abs(fd), abs(float(g[idx])), floor)
            worst = max(worst, abs(fd - float(g[idx])) / scale)
            checked += 1
    return _require(
        checked >= coords and worst <= calibration.GRADIENT_CHECK_TOL,
        f"{task_name}: {checked} coordinates, worst rel mismatch {worst:.2e}",
    )


def check_vector_routing(rng: np.random.Generator) -> str:
    """Vector parameters take a plain rms step at lr_vec, whatever lr_mat is."""
    hp = HyperParams(lr_mat=123.0, lr_vec=1e-3)
    b = rng.standard_normal(7)
    g = rng.standard_normal(7)
    state = OptimizerState.initial(b, need_v=True)
    nb, nstate = step_vector_param(b, g, state, hp, "b")
    ref_m = (1 - hp.beta1) * g
    ref_v = (1 - hp.beta2) * g * g
    ref = b - hp.lr_vec * ref_m / (np.sqrt(ref_v) + hp.eps)
    worst = float(np.max(np.abs(nb - ref)))
    _require(worst < 1e-15, f"vector step drift {worst:.3e}")
    _require(nstate.v is not None, "vector path must track second moments")
    return _require(
        float(np.max(np.abs(nb - b))) < hp.lr_vec * 1.01,
        "plain rms step at lr_vec, huge lr_mat untouched",
    )


# --- the suites -------------------------------------------------------------

# Sample counts of `specopt verify`, small enough for a whole run to take
# seconds; the acceptance tests run the same checks at their full counts.
_ORACLE_DRAWS = 1
_KERNEL_DRAWS = 1
_QUINTIC_DRAWS = 10
_COUPLED_DRAWS = 20
_REDUCTION_STEPS = 100
_GRADIENT_COORDS = 40

# (suite, check name, check, sample count). Each check runs as
# check(rng, count), a kernel check as check(rng, count, iters), with a
# fresh generator from the run's seed.
CHECKS: tuple[tuple[str, str, Callable[..., str], int | None], ...] = (
    ("oracle", "fixture-spectrum", lambda rng, n: check_fixture_spectrum(), None),
    ("oracle", "oracle-laws", check_oracle_laws, _ORACLE_DRAWS),
    ("kernels", "transform-vs-oracle", check_kernels_vs_oracle, _KERNEL_DRAWS),
    ("kernels", "quintic-band",
     lambda rng, n, iters: check_quintic_band([rng], n, iters), _QUINTIC_DRAWS),
    ("kernels", "coupled-identities", check_coupled_identities, _COUPLED_DRAWS),
    ("optimizers", "reference-reductions", check_optimizer_reductions, _REDUCTION_STEPS),
    ("optimizers", "vector-routing", lambda rng, n: check_vector_routing(rng), None),
    ("gradients", "matreg-grad",
     lambda rng, n: check_task_gradients("matreg", rng, n), _GRADIENT_COORDS),
    ("gradients", "charlm-grad",
     lambda rng, n: check_task_gradients("charlm", rng, n), _GRADIENT_COORDS),
)

SUITE_NAMES = tuple(dict.fromkeys(suite for suite, _, _, _ in CHECKS))


def run_suites(
    selectors: list[str] | tuple[str, ...],
    seed: int = 0,
    iters: int | None = None,
) -> list[CheckResult]:
    chosen = set()
    for sel in selectors:
        if sel == "all":
            chosen.update(SUITE_NAMES)
        elif sel in SUITE_NAMES:
            chosen.add(sel)
        else:
            raise ConfigError(
                f"unknown suite {sel!r}; valid: {', '.join(SUITE_NAMES)}, all"
            )
    results = []
    for suite, name, check, count in CHECKS:
        if suite in chosen:
            extra = (iters,) if suite == "kernels" else ()
            results.append(
                _run(suite, name, lambda: check(np.random.default_rng(seed), count, *extra))
            )
    return results


def format_table(results: list[CheckResult]) -> str:
    width = max(len(f"{r.suite}/{r.name}") for r in results)
    lines = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(f"{status}  {f'{r.suite}/{r.name}':<{width}}  {r.detail}")
    n_fail = sum(not r.passed for r in results)
    lines.append(f"{len(results) - n_fail}/{len(results)} checks passed")
    return "\n".join(lines)


def all_passed(results: list[CheckResult]) -> bool:
    return all(r.passed for r in results)
