"""Command-line front end.

Subcommands: transform (apply a spectral power to a matrix file), verify
(run the built-in property suites), train (one optimization run), sweep
(learning-rate sweep). Configuration comes from plain-text files of
"key = value" lines with # comments; command-line --set overrides win over
the file. Unknown keys are hard errors so typos cannot silently fall back
to defaults.

Exit codes: 0 success, 1 verification failure, 2 user/config error,
3 numerical divergence.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import calibration
from .dense import read_matrix, write_matrix
from .errors import (
    ConfigError,
    DegenerateInputError,
    InfiniteConditionError,
    KernelDivergenceError,
    MatrixFormatError,
    NonFiniteError,
    OracleConvergenceError,
    PoisonedGradientError,
    PreconditionError,
    RoutingError,
    ShapeError,
    ToolkitError,
    ZeroMatrixError,
)
from .kernels import SpectralExponent, spectral_transform
from .optim import ALL_OPTIMIZERS, HyperParams, parse_optimizer
from .oracle import spectral_power_exact
from .sweep import SweepPlan, classify_stability, run_sweep
from .train import (
    TOOLKIT_VERSION,
    TrainConfig,
    canonical_config_text,
    config_digest,
    run_training,
)
from .verify import SUITE_NAMES, all_passed, format_table, run_suites

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USER_ERROR = 2
EXIT_DIVERGED = 3

# Bad inputs and bad configs are the caller's to fix; the rest of the
# toolkit errors mean the numbers went somewhere they should not.
_USER_FAULTS = (
    ConfigError,
    MatrixFormatError,
    ShapeError,
    NonFiniteError,
    DegenerateInputError,
    ZeroMatrixError,
    PreconditionError,
    RoutingError,
)
_NUMERIC_FAULTS = (
    KernelDivergenceError,
    OracleConvergenceError,
    InfiniteConditionError,
    PoisonedGradientError,
)


# --- config grammar -------------------------------------------------------


def parse_config_text(text: str, source: str = "config") -> dict[str, str]:
    """Parse "key = value" lines; # starts a comment, blank lines ignored."""
    mapping: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {raw.strip()!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError(f"{source}:{lineno}: empty key")
        if key in mapping:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r}")
        mapping[key] = value
    return mapping


def _coerce_int(key: str, value: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ConfigError(f"{key}: expected an integer, got {value!r}") from None


def _coerce_float(key: str, value: str) -> float:
    try:
        out = float(value)
    except ValueError:
        raise ConfigError(f"{key}: expected a number, got {value!r}") from None
    return out


def _coerce_bool(key: str, value: str) -> bool:
    low = value.lower()
    if low in ("true", "false"):
        return low == "true"
    raise ConfigError(f"{key}: expected true or false, got {value!r}")


_TRAIN_KEYS = frozenset(
    (
        "task", "optimizer", "lr_mat", "lr_vec", "beta1", "beta2", "eps",
        "spectral_iters", "fan_scaling", "fan_scaling_all", "total_steps",
        "warmup_steps", "batch_size", "eval_every", "seed",
        "divergence_threshold", "corpus",
    )
)
_SWEEP_KEYS = frozenset(("optimizers", "lr_grid", "refine_factors", "max_fine_rounds"))


def build_train_config(mapping: dict[str, str], seed_flag: int | None = None) -> TrainConfig:
    """Validate a key-value mapping into a TrainConfig.

    ``seed_flag`` is the --seed global flag; flags win over config-file
    lines, so when it is set it overrides any `seed =` entry.
    """
    unknown = sorted(set(mapping) - _TRAIN_KEYS)
    if unknown:
        raise ConfigError(
            f"unknown config keys: {', '.join(unknown)}; valid keys: "
            + ", ".join(sorted(_TRAIN_KEYS))
        )
    for key in ("task", "optimizer", "lr_mat"):
        if key not in mapping:
            raise ConfigError(f"config is missing required key {key!r}")

    spectral_iters = None
    raw = mapping.get("spectral_iters", "default")
    if raw != "default":
        spectral_iters = _coerce_int("spectral_iters", raw)

    threshold = None
    raw = mapping.get("divergence_threshold", "auto")
    if raw != "auto":
        threshold = _coerce_float("divergence_threshold", raw)

    corpus = mapping.get("corpus", "builtin")
    hp = HyperParams(
        lr_mat=_coerce_float("lr_mat", mapping["lr_mat"]),
        lr_vec=_coerce_float("lr_vec", mapping.get("lr_vec", "3e-4")),
        beta1=_coerce_float("beta1", mapping.get("beta1", "0.9")),
        beta2=_coerce_float("beta2", mapping.get("beta2", "0.95")),
        eps=_coerce_float("eps", mapping.get("eps", "1e-8")),
        spectral_iters=spectral_iters,
        fan_scaling=_coerce_bool("fan_scaling", mapping.get("fan_scaling", "true")),
        fan_scaling_all=_coerce_bool(
            "fan_scaling_all", mapping.get("fan_scaling_all", "false")
        ),
    )
    if seed_flag is not None:
        seed = seed_flag
    elif "seed" in mapping:
        seed = _coerce_int("seed", mapping["seed"])
    else:
        seed = 0
    return TrainConfig(
        task=mapping["task"],
        optimizer=parse_optimizer(mapping["optimizer"]),
        hp=hp,
        total_steps=_coerce_int("total_steps", mapping.get("total_steps", "2000")),
        warmup_steps=_coerce_int("warmup_steps", mapping.get("warmup_steps", "100")),
        batch_size=_coerce_int("batch_size", mapping.get("batch_size", "64")),
        eval_every=_coerce_int("eval_every", mapping.get("eval_every", "100")),
        seed=seed,
        divergence_threshold=threshold,
        corpus_path=None if corpus == "builtin" else corpus,
    )


def _split_csv_list(key: str, value: str) -> list[str]:
    items = [part.strip() for part in value.split(",") if part.strip()]
    if not items:
        raise ConfigError(f"{key}: expected a comma-separated list, got {value!r}")
    return items


def build_sweep_inputs(
    mapping: dict[str, str], seed_flag: int | None = None
) -> tuple[TrainConfig, SweepPlan, list]:
    """Split a sweep mapping into (base TrainConfig, SweepPlan, optimizers)."""
    unknown = sorted(set(mapping) - _TRAIN_KEYS - _SWEEP_KEYS)
    if unknown:
        raise ConfigError(
            f"unknown config keys: {', '.join(unknown)}; valid keys: "
            + ", ".join(sorted(_TRAIN_KEYS | _SWEEP_KEYS))
        )
    if "lr_grid" not in mapping:
        raise ConfigError("sweep config is missing required key 'lr_grid'")
    grid = tuple(
        _coerce_float("lr_grid", item) for item in _split_csv_list("lr_grid", mapping["lr_grid"])
    )
    factors = (0.5, 0.75, 1.5, 2.0)
    if "refine_factors" in mapping:
        factors = tuple(
            _coerce_float("refine_factors", item)
            for item in _split_csv_list("refine_factors", mapping["refine_factors"])
        )
    rounds = _coerce_int("max_fine_rounds", mapping.get("max_fine_rounds", "8"))
    plan = SweepPlan(coarse_grid=tuple(sorted(grid)), refine_factor_grid=factors,
                     max_fine_rounds=rounds)

    raw_opts = mapping.get("optimizers", "all")
    if raw_opts.strip().lower() == "all":
        optimizers = list(ALL_OPTIMIZERS)
    else:
        optimizers = [parse_optimizer(tok) for tok in _split_csv_list("optimizers", raw_opts)]

    base_map = {k: v for k, v in mapping.items() if k in _TRAIN_KEYS}
    base_map.setdefault("lr_mat", repr(plan.coarse_grid[0]))
    base_map.setdefault("optimizer", optimizers[0].token)
    base_cfg = build_train_config(base_map, seed_flag)
    return base_cfg, plan, optimizers


def sweep_canonical_text(cfg: TrainConfig, plan: SweepPlan, optimizers) -> str:
    """Replayable rendering: the base config plus the sweep-only keys."""
    extra = {
        "lr_grid": ",".join(repr(lr) for lr in plan.coarse_grid),
        "max_fine_rounds": str(plan.max_fine_rounds),
        "optimizers": ",".join(k.token for k in optimizers),
        "refine_factors": ",".join(repr(f) for f in plan.refine_factor_grid),
    }
    return canonical_config_text(cfg) + "".join(
        f"{k} = {extra[k]}\n" for k in sorted(extra)
    )


# --- shared plumbing ------------------------------------------------------


def _resolved_mapping(args) -> dict[str, str]:
    mapping: dict[str, str] = {}
    if args.config is not None:
        path = Path(args.config)
        if not path.is_file():
            raise ConfigError(f"config file not found: {path}")
        mapping = parse_config_text(path.read_text(encoding="utf-8"), str(path))
    for item in args.set or []:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, _, value = item.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        mapping[key] = value
    return mapping


def _digest_of_text(text: str) -> str:
    import hashlib

    return hashlib.sha256(text.encode("ascii")).hexdigest()


def _out_dir(args, digest: str) -> Path:
    base = Path(args.out_dir) if args.out_dir else Path("runs")
    run_dir = base / digest[:12]
    run_dir.mkdir(parents=True, exist_ok=True)
    return run_dir


def _json_safe(value: float | None):
    if value is None:
        return None
    return float(value) if value == value and abs(value) != float("inf") else None


def _dump_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="ascii")


# --- subcommands ----------------------------------------------------------

_TRANSFORM_TOL = {
    SpectralExponent.ONE: 0.0,
    SpectralExponent.HALF: calibration.REL_TOL_HALF,
    SpectralExponent.QUARTER: calibration.REL_TOL_QUARTER,
}


def cmd_transform(args) -> int:
    matrix = read_matrix(args.input)
    exponent = SpectralExponent.from_token(args.p)
    if exponent is SpectralExponent.ZERO:
        tol = (
            calibration.REL_TOL_POLAR_CUBIC
            if args.zero_method == "cubic"
            else calibration.REL_TOL_ZERO_QUINTIC
        )
    else:
        tol = _TRANSFORM_TOL[exponent]

    if args.method == "oracle":
        result = spectral_power_exact(matrix, exponent.power)
        diag_payload = {
            "iterations": None, "alpha": None, "beta": None, "residuals": [], "pass_residuals": [],
        }
    else:
        result, diag = spectral_transform(
            matrix, exponent, iters=args.iters, zero_method=args.zero_method
        )
        diag_payload = {
            "iterations": diag.iterations_run,
            "alpha": diag.scale_alpha,
            "beta": diag.scale_beta,
            "residuals": list(diag.residual_per_iter),
            "pass_residuals": list(diag.pass_residuals),
        }
    write_matrix(args.output, result)
    sidecar = {
        "calibrated_rel_tol": tol,
        "exponent": exponent.power,
        "input_shape": list(matrix.shape),
        "method": args.method,
        "version": TOOLKIT_VERSION,
        **diag_payload,
    }
    _dump_json(Path(str(args.output) + ".diag.json"), sidecar)
    print(f"wrote {args.output} and {args.output}.diag.json")
    return EXIT_OK


def cmd_verify(args) -> int:
    results = run_suites(args.suites, seed=args.seed or 0, iters=args.iters)
    print(format_table(results))
    return EXIT_OK if all_passed(results) else EXIT_CHECK_FAILED


def cmd_train(args) -> int:
    cfg = build_train_config(_resolved_mapping(args), args.seed)
    digest = config_digest(cfg)
    run_dir = _out_dir(args, digest)
    (run_dir / "resolved.cfg").write_text(canonical_config_text(cfg), encoding="ascii")

    label = cfg.optimizer.describe()
    print(f"optimizer: {label}")
    print(f"task: {cfg.task}")
    print(f"digest: {digest}")
    record = run_training(cfg)
    (run_dir / "run.csv").write_text(record.to_csv(optimizer_label=label), encoding="ascii")
    print(f"outcome: {record.outcome}")
    print(f"final eval loss: {record.final_eval_loss!r}")
    print(f"wrote {run_dir / 'run.csv'}")
    if not record.completed:
        print(f"diverged at step {record.diverged_step}", file=sys.stderr)
        return EXIT_DIVERGED
    return EXIT_OK


def cmd_sweep(args) -> int:
    base_cfg, plan, optimizers = build_sweep_inputs(_resolved_mapping(args), args.seed)
    text = sweep_canonical_text(base_cfg, plan, optimizers)
    digest = _digest_of_text(text)
    run_dir = _out_dir(args, digest)
    (run_dir / "resolved.cfg").write_text(text, encoding="ascii")
    print(f"digest: {digest}")
    print(f"optimizers: {', '.join(k.describe() for k in optimizers)}")

    report = run_sweep(base_cfg, plan, optimizers)

    lines = []
    for trial in report.trials:
        lines.append(
            json.dumps(
                {
                    "diverged_step": trial.record.diverged_step,
                    "final_eval_loss": _json_safe(trial.record.final_eval_loss),
                    "lr": trial.lr,
                    "optimizer": trial.optimizer.token,
                    "outcome": trial.record.outcome,
                    "run_digest": trial.record.config_digest,
                },
                sort_keys=True,
            )
        )
    (run_dir / "trials.jsonl").write_text("\n".join(lines) + "\n", encoding="ascii")

    per_opt = {}
    for kind in optimizers:
        mine = [t for t in report.trials if t.optimizer == kind]
        profile = classify_stability(mine)
        best = report.best_by_optimizer[kind.token]
        per_opt[kind.token] = {
            "best_eval_loss": _json_safe(best.eval_loss) if best else None,
            "best_lr": best.lr if best else None,
            "labels": [[lr, label] for lr, label in profile.labels],
            "span_decades": profile.span_decades,
            "span_range": list(profile.span_range) if profile.span_range else None,
        }
    best = report.best
    summary = {
        "all_diverged": report.all_diverged,
        "best": (
            {
                "eval_loss": _json_safe(best.eval_loss),
                "lr": best.lr,
                "optimizer": best.optimizer.token,
            }
            if best
            else None
        ),
        "config_digest": digest,
        "per_optimizer": per_opt,
        "version": TOOLKIT_VERSION,
    }
    _dump_json(run_dir / "summary.json", summary)
    print(f"wrote {run_dir / 'trials.jsonl'} and {run_dir / 'summary.json'}")
    if report.all_diverged:
        print("every trial diverged", file=sys.stderr)
        return EXIT_DIVERGED
    return EXIT_OK


# --- parser ---------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--seed", type=int, default=None, help="base RNG seed")
    shared.add_argument("--out-dir", default=None, help="artifact directory root")
    shared.add_argument("--config", default=None, help="key = value config file")
    shared.add_argument(
        "--set",
        action="append",
        metavar="KEY=VALUE",
        help="override one config key; wins over --config",
    )

    parser = argparse.ArgumentParser(
        prog="specopt",
        description="Spectral-update optimizer toolkit: matrix transforms, "
        "property checks, and deterministic training runs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    tr = sub.add_parser("transform", parents=[shared], help="apply a spectral power")
    tr.add_argument("input", help="input matrix file")
    tr.add_argument("output", help="output matrix file")
    tr.add_argument("--p", required=True, help="exponent token: 1, 0.5, 0.25, or 0")
    tr.add_argument("--method", choices=("ns", "oracle"), default="ns")
    tr.add_argument("--iters", type=int, default=None, help="iteration override")
    tr.add_argument("--zero-method", choices=("quintic", "cubic"), default="quintic",
                    help="polar kernel for p=0")
    tr.set_defaults(fn=cmd_transform)

    ve = sub.add_parser("verify", parents=[shared], help="run property suites")
    ve.add_argument(
        "suites",
        nargs="*",
        default=["all"],
        help=f"suites to run: {', '.join(SUITE_NAMES)}, or all",
    )
    ve.add_argument("--iters", type=int, default=None,
                    help="force a kernel iteration count (to demonstrate failure)")
    ve.set_defaults(fn=cmd_verify)

    tn = sub.add_parser("train", parents=[shared], help="one training run")
    tn.set_defaults(fn=cmd_train)

    sw = sub.add_parser("sweep", parents=[shared], help="learning-rate sweep")
    sw.set_defaults(fn=cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if exc.code is not None else 0
        return EXIT_USER_ERROR if code not in (0,) else 0
    try:
        return args.fn(args)
    except _USER_FAULTS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USER_ERROR
    except _NUMERIC_FAULTS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        diagnostics = getattr(exc, "diagnostics", None)
        if diagnostics is not None:
            print(
                f"iterations={diagnostics.iterations_run} "
                f"alpha={diagnostics.scale_alpha!r} "
                f"residuals={[f'{r:.3e}' for r in diagnostics.residual_per_iter]} "
                f"pass_residuals={[f'{r:.3e}' for r in diagnostics.pass_residuals]}",
                file=sys.stderr,
            )
        return EXIT_DIVERGED
    except ToolkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USER_ERROR
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USER_ERROR


if __name__ == "__main__":
    sys.exit(main())
