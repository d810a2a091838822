"""Built-in property suites: oracle laws, kernel accuracy, optimizer
reductions, and gradient checks.

Each check is small enough to run in seconds; the heavyweight statistical
versions live in the test suite. Kernel checks accept an iteration
override so a deliberately under-iterated run demonstrates that the checks
actually detect failure rather than vacuously passing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from . import calibration
from .dense import frobenius_norm
from .errors import ConfigError, ToolkitError
from .kernels import (
    SpectralExponent,
    coupled_ns_quarter,
    coupled_ns_sqrt,
    polar_cubic,
    polar_quintic,
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
from .oracle import cond_number, spectral_power_exact, svd_via_gram
from .synth import random_spd, spectrum_matrix
from .tasks import make_task

SUITE_NAMES = ("oracle", "kernels", "optimizers", "gradients")

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


def _rel(err: float, ref: float) -> float:
    return err / ref if ref > 0 else err


# --- oracle ---------------------------------------------------------------


def _suite_oracle(seed: int, iters: int | None) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    out = []

    def fixture_spectrum() -> str:
        worst = 0.0
        for p, want in [
            (0.5, [3.0, 2.0, 1.0, 0.1, 0.01]),
            (0.25, [math.sqrt(v) for v in [3.0, 2.0, 1.0, 0.1, 0.01]]),
            (0.0, [1.0] * 5),
        ]:
            got = svd_via_gram(spectral_power_exact(_FIXTURE, p)).sigma
            worst = max(worst, float(np.max(np.abs(got - np.array(want)))))
        assert worst < 1e-12, f"fixture spectrum off by {worst:.3e}"
        return f"max abs error {worst:.2e}"

    def reconstruction() -> str:
        worst = 0.0
        for _ in range(5):
            m = spectrum_matrix(rng, 20, 14, 50.0)
            tr = svd_via_gram(m)
            worst = max(worst, _rel(frobenius_norm(tr.reconstruct() - m), frobenius_norm(m)))
        assert worst < 1e-12, f"SVD reconstruction error {worst:.3e}"
        return f"max rel error {worst:.2e}"

    def cond_law() -> str:
        worst = 0.0
        for _ in range(5):
            m = spectrum_matrix(rng, 18, 12, float(rng.uniform(10.0, 1e4)))
            kappa = cond_number(m)
            for p in (0.5, 0.25, 0.0):
                got = cond_number(spectral_power_exact(m, p))
                worst = max(worst, abs(got - kappa**p) / kappa**p)
        assert worst < 1e-9, f"condition law violated by {worst:.3e}"
        return f"max rel error {worst:.2e}"

    out.append(_run("oracle", "fixture-spectrum", fixture_spectrum))
    out.append(_run("oracle", "svd-reconstruction", reconstruction))
    out.append(_run("oracle", "condition-power-law", cond_law))
    return out


# --- kernels --------------------------------------------------------------


def _suite_kernels(seed: int, iters: int | None) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    out = []

    def cubic_polar() -> str:
        worst = 0.0
        for _ in range(5):
            m = spectrum_matrix(rng, 16, 12, 60.0)
            got, _ = polar_cubic(m, iters=iters) if iters else polar_cubic(m)
            ref = svd_via_gram(m)
            want = ref.u @ ref.v.T
            worst = max(worst, _rel(frobenius_norm(got - want), frobenius_norm(want)))
        tol = calibration.REL_TOL_POLAR_CUBIC
        assert worst < tol, f"cubic polar error {worst:.3e} exceeds {tol:.1e}"
        return f"max rel error {worst:.2e}"

    def coupled_sqrt() -> str:
        worst = 0.0
        for _ in range(5):
            x = random_spd(rng, 14, 40.0)
            kw = {"iters": iters} if iters else {}
            y, z, _ = coupled_ns_sqrt(x, **kw)
            worst = max(worst, _rel(frobenius_norm(y @ y - x), frobenius_norm(x)))
            worst = max(worst, frobenius_norm(z @ y - np.eye(14)) / math.sqrt(14))
        assert worst < 1e-6, f"coupled sqrt error {worst:.3e}"
        return f"max rel error {worst:.2e}"

    def quarter_root() -> str:
        worst = 0.0
        for _ in range(5):
            x = random_spd(rng, 12, 30.0)
            kw = {"iters": iters} if iters else {}
            y, _, _ = coupled_ns_quarter(x, **kw)
            worst = max(worst, _rel(frobenius_norm(y @ y @ y @ y - x), frobenius_norm(x)))
        assert worst < 1e-5, f"fourth-power reconstruction error {worst:.3e}"
        return f"max rel error {worst:.2e}"

    def ns_vs_oracle() -> str:
        worst_h = worst_q = 0.0
        for _ in range(5):
            m = spectrum_matrix(rng, 20, 14, 80.0)
            kw = {"iters": iters} if iters else {}
            half, _ = spectral_transform(m, SpectralExponent.HALF, **kw)
            quarter, _ = spectral_transform(m, SpectralExponent.QUARTER, **kw)
            ref_h = spectral_power_exact(m, 0.5)
            ref_q = spectral_power_exact(m, 0.25)
            worst_h = max(worst_h, _rel(frobenius_norm(half - ref_h), frobenius_norm(ref_h)))
            worst_q = max(worst_q, _rel(frobenius_norm(quarter - ref_q), frobenius_norm(ref_q)))
        assert worst_h < calibration.REL_TOL_HALF, (
            f"half-power error {worst_h:.3e} exceeds {calibration.REL_TOL_HALF:.1e}"
        )
        assert worst_q < calibration.REL_TOL_QUARTER, (
            f"quarter-power error {worst_q:.3e} exceeds {calibration.REL_TOL_QUARTER:.1e}"
        )
        return f"half {worst_h:.2e}, quarter {worst_q:.2e}"

    def quintic_band() -> str:
        lo, hi = calibration.QUINTIC_SV_BAND
        seen_lo, seen_hi = math.inf, -math.inf
        for _ in range(5):
            m = spectrum_matrix(rng, 16, 12, 50.0)
            kw = {"iters": iters} if iters else {}
            got, _ = polar_quintic(m, **kw)
            sig = svd_via_gram(got).sigma
            seen_lo = min(seen_lo, float(sig[-1]))
            seen_hi = max(seen_hi, float(sig[0]))
        assert lo <= seen_lo and seen_hi <= hi, (
            f"singular values [{seen_lo:.4f}, {seen_hi:.4f}] leave band [{lo}, {hi}]"
        )
        return f"singular values in [{seen_lo:.4f}, {seen_hi:.4f}]"

    out.append(_run("kernels", "cubic-polar-vs-oracle", cubic_polar))
    out.append(_run("kernels", "coupled-sqrt-identities", coupled_sqrt))
    out.append(_run("kernels", "quarter-root-reconstruction", quarter_root))
    out.append(_run("kernels", "transform-vs-oracle", ns_vs_oracle))
    out.append(_run("kernels", "quintic-band", quintic_band))
    return out


# --- optimizers -----------------------------------------------------------


def _suite_optimizers(seed: int, iters: int | None) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    out = []

    def momentum_reduction() -> str:
        hp = HyperParams(lr_mat=0.05)
        kind = parse_optimizer("msgd")
        w = rng.standard_normal((6, 4))
        ref_w = w.copy()
        ref_m = np.zeros_like(w)
        state = OptimizerState.initial(w, need_v=False)
        worst = 0.0
        for _ in range(50):
            g = rng.standard_normal(w.shape)
            ref_m = hp.beta1 * ref_m + (1 - hp.beta1) * g
            ref_w = ref_w - hp.lr_mat * ref_m
            w, state, _ = step_matrix_param(w, g, state, kind, hp, "w")
            worst = max(worst, float(np.max(np.abs(w - ref_w))))
        assert worst < 1e-12, f"momentum reduction drift {worst:.3e}"
        return f"max drift {worst:.2e}"

    def adam_reduction() -> str:
        hp = HyperParams(lr_mat=0.01)
        kind = parse_optimizer("adam")
        w = rng.standard_normal((6, 4))
        ref_w = w.copy()
        ref_m = np.zeros_like(w)
        ref_v = np.zeros_like(w)
        state = OptimizerState.initial(w, need_v=True)
        worst = 0.0
        for _ in range(50):
            g = rng.standard_normal(w.shape)
            ref_m = hp.beta1 * ref_m + (1 - hp.beta1) * g
            ref_v = hp.beta2 * ref_v + (1 - hp.beta2) * g * g
            ref_w = ref_w - hp.lr_mat * ref_m / (np.sqrt(ref_v) + hp.eps)
            w, state, _ = step_matrix_param(w, g, state, kind, hp, "w")
            worst = max(worst, float(np.max(np.abs(w - ref_w))))
        assert worst < 1e-12, f"adam reduction drift {worst:.3e}"
        return f"max drift {worst:.2e}"

    def first_step_magnitude() -> str:
        hp = HyperParams(lr_mat=1.0, eps=0.0)
        g = np.sign(rng.standard_normal((8, 5)))
        state = OptimizerState.initial(g, need_v=True)
        state = update_moments(state, g, hp, need_v=True, param_name="w")
        entry = np.abs(make_input(state, InputKind.RMS_NORMALIZED, hp))
        want = (1 - hp.beta1) / math.sqrt(1 - hp.beta2)
        worst = float(np.max(np.abs(entry - want)))
        assert worst == 0.0, f"t=1 magnitude differs from {want!r} by {worst:.3e}"
        return f"entries == {want!r}"

    def vector_routing() -> str:
        hp = HyperParams(lr_mat=123.0, lr_vec=1e-3)
        b = rng.standard_normal(7)
        g = rng.standard_normal(7)
        state = OptimizerState.initial(b, need_v=True)
        nb, nstate = step_vector_param(b, g, state, hp, "b")
        ref_m = (1 - hp.beta1) * g
        ref_v = (1 - hp.beta2) * g * g
        ref = b - hp.lr_vec * ref_m / (np.sqrt(ref_v) + hp.eps)
        worst = float(np.max(np.abs(nb - ref)))
        assert worst < 1e-15, f"vector step drift {worst:.3e}"
        assert nstate.v is not None, "vector path must track second moments"
        assert float(np.max(np.abs(nb - b))) < hp.lr_vec * 1.01, "vector step ignored lr_vec"
        return "plain rms step at lr_vec, huge lr_mat untouched"

    out.append(_run("optimizers", "momentum-reduction", momentum_reduction))
    out.append(_run("optimizers", "adam-reduction", adam_reduction))
    out.append(_run("optimizers", "first-step-magnitude", first_step_magnitude))
    out.append(_run("optimizers", "vector-routing", vector_routing))
    return out


# --- gradients ------------------------------------------------------------


def _grad_check(task, seed: int, coords_per_param: int = 40) -> str:
    rng = np.random.default_rng(seed + 17)
    params = task.init_params(np.random.default_rng(seed + 1))
    batch = rng.choice(task.num_train, size=min(32, task.num_train), replace=False)
    _, grads = task.loss_and_grads(params, batch)
    worst = 0.0
    for name in sorted(params):
        p = params[name]
        g = grads[name]
        # Coordinates whose gradient is orders of magnitude below the
        # parameter's largest entry carry only finite-difference noise, so
        # the relative error is floored at that scale.
        floor = max(1e-3 * float(np.max(np.abs(g))), 1e-8)
        flat_idx = rng.choice(p.size, size=min(coords_per_param, p.size), replace=False)
        for fi in flat_idx:
            idx = np.unravel_index(fi, p.shape)
            h = 1e-5 * max(1.0, abs(float(p[idx])))
            saved = float(p[idx])
            p[idx] = saved + h
            loss_plus, _ = task.loss_and_grads(params, batch)
            p[idx] = saved - h
            loss_minus, _ = task.loss_and_grads(params, batch)
            p[idx] = saved
            fd = (loss_plus - loss_minus) / (2 * h)
            scale = max(abs(fd), abs(float(g[idx])), floor)
            worst = max(worst, abs(fd - float(g[idx])) / scale)
    assert worst < 1e-4, f"gradient mismatch {worst:.3e}"
    return f"max rel mismatch {worst:.2e}"


def _suite_gradients(seed: int, iters: int | None) -> list[CheckResult]:
    out = []
    out.append(
        _run("gradients", "matreg-grad", lambda: _grad_check(make_task("matreg", seed), seed))
    )
    out.append(
        _run("gradients", "charlm-grad", lambda: _grad_check(make_task("charlm", seed), seed))
    )
    return out


_SUITES = {
    "oracle": _suite_oracle,
    "kernels": _suite_kernels,
    "optimizers": _suite_optimizers,
    "gradients": _suite_gradients,
}


def run_suites(
    selectors: list[str] | tuple[str, ...],
    seed: int = 0,
    iters: int | None = None,
) -> list[CheckResult]:
    chosen = []
    for sel in selectors:
        if sel == "all":
            chosen.extend(SUITE_NAMES)
        elif sel in _SUITES:
            chosen.append(sel)
        else:
            raise ConfigError(
                f"unknown suite {sel!r}; valid: {', '.join(SUITE_NAMES)}, all"
            )
    results: list[CheckResult] = []
    for name in dict.fromkeys(chosen):
        results.extend(_SUITES[name](seed, iters))
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
