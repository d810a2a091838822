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
from dataclasses import replace
from pathlib import Path
from typing import Callable

from .dense import read_matrix, read_text, write_matrix
from .errors import (
    ConfigError,
    InfiniteConditionError,
    KernelDivergenceError,
    OracleConvergenceError,
    PoisonedGradientError,
    ToolkitError,
)
from .kernels import ZERO_METHODS, SpectralExponent, route, spectral_transform
from .optim import ALL_OPTIMIZERS, OptimizerKind, parse_optimizer
from .oracle import spectral_power_exact
from .sweep import SweepPlan, classify_stability, run_sweep
from .train import (
    CONFIG_KEYS,
    TOOLKIT_VERSION,
    TrainConfig,
    canonical_config_text,
    config_digest,
    config_from_mapping,
    parse_float,
    parse_int,
    reject_unknown_keys,
    run_training,
    text_digest,
)
from .verify import SUITE_NAMES, all_passed, format_table, run_suites

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USER_ERROR = 2
EXIT_DIVERGED = 3

# These toolkit errors mean the numbers went somewhere they should not; the
# rest are bad inputs or configs, the caller's to fix.
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


_SWEEP_KEYS = frozenset(("optimizers", "lr_grid", "refine_factors", "max_fine_rounds"))


def build_train_config(
    mapping: dict[str, str], seed_flag: int | None = None, **fallbacks
) -> TrainConfig:
    """Validate a key-value mapping into a TrainConfig.

    ``seed_flag`` is the --seed global flag; flags win over config-file
    lines, so when it is set it overrides any (still validated) `seed =`
    entry. ``fallbacks`` are passed on to ``config_from_mapping``.
    """
    cfg = config_from_mapping(mapping, **fallbacks)
    return cfg if seed_flag is None else replace(cfg, seed=seed_flag)


def _parse_list(key: str, value: str, parse) -> tuple:
    items = [part.strip() for part in value.split(",") if part.strip()]
    if not items:
        raise ConfigError(f"{key}: expected a comma-separated list, got {value!r}")
    return tuple(parse(key, item) for item in items)


def build_sweep_inputs(
    mapping: dict[str, str], seed_flag: int | None = None
) -> tuple[TrainConfig, SweepPlan, tuple[OptimizerKind, ...]]:
    """Split a sweep mapping into (base TrainConfig, SweepPlan, optimizers)."""
    reject_unknown_keys(mapping, CONFIG_KEYS | _SWEEP_KEYS)
    if "lr_grid" not in mapping:
        raise ConfigError("sweep config is missing required key 'lr_grid'")
    grid = _parse_list("lr_grid", mapping["lr_grid"], parse_float)
    refinement = {}
    if "refine_factors" in mapping:
        refinement["refine_factor_grid"] = _parse_list(
            "refine_factors", mapping["refine_factors"], parse_float
        )
    if "max_fine_rounds" in mapping:
        refinement["max_fine_rounds"] = parse_int("max_fine_rounds", mapping["max_fine_rounds"])
    plan = SweepPlan(coarse_grid=tuple(sorted(grid)), **refinement)

    raw_opts = mapping.get("optimizers", "all")
    if raw_opts.strip().lower() == "all":
        optimizers = ALL_OPTIMIZERS
    else:
        optimizers = _parse_list("optimizers", raw_opts, lambda _, tok: parse_optimizer(tok))

    # run_sweep sets each trial's optimizer and peak lr; the base config's
    # own ones only enter the canonical text.
    base_cfg = build_train_config(
        {k: v for k, v in mapping.items() if k not in _SWEEP_KEYS}, seed_flag,
        optimizer=optimizers[0], lr_mat=plan.coarse_grid[0],
    )
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
        mapping = parse_config_text(read_text(path, "utf-8", ConfigError), str(path))
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


def _out_base(args) -> Path:
    """The out-dir root, checked before a run and left uncreated: it and its
    nearest existing ancestor must be directories, so a run never ends in
    an unwritable path."""
    base = Path(args.out_dir) if args.out_dir else Path("runs")
    existing = next(path for path in (base, *base.parents) if path.exists())
    if not existing.is_dir():
        raise ConfigError(f"out-dir {str(base)!r}: {str(existing)!r} is not a directory")
    return base


def _run_dir(base: Path, digest: str) -> Path:
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

def cmd_transform(args) -> int:
    matrix = read_matrix(args.input)
    exponent = SpectralExponent.from_token(args.p)
    if args.method == "oracle":  # exact: no calibrated kernel ran
        tol = None
        result = spectral_power_exact(matrix, exponent.power)
        diag_payload = {"iterations": None, "alpha": None, "residuals": []}
    else:
        tol = route(exponent, args.zero_method).rel_tol
        result, diag = spectral_transform(
            matrix, exponent, iters=args.iters, zero_method=args.zero_method
        )
        diag_payload = {
            "iterations": diag.iterations_run,
            "alpha": diag.scale_alpha,
            "residuals": list(diag.residual_per_iter),
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
    base = _out_base(args)
    digest = config_digest(cfg)
    label = cfg.optimizer.describe()
    print(f"optimizer: {label}")
    print(f"task: {cfg.task}")
    print(f"digest: {digest}")
    # The run validates its inputs: a rejected config leaves no directory.
    record = run_training(cfg)
    run_dir = _run_dir(base, digest)
    (run_dir / "resolved.cfg").write_text(canonical_config_text(cfg), encoding="ascii")
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
    base = _out_base(args)
    text = sweep_canonical_text(base_cfg, plan, optimizers)
    digest = text_digest(text)
    print(f"digest: {digest}")
    print(f"optimizers: {', '.join(k.describe() for k in optimizers)}")

    report = run_sweep(base_cfg, plan, optimizers)
    run_dir = _run_dir(base, digest)
    (run_dir / "resolved.cfg").write_text(text, encoding="ascii")

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


def _int_at_least(low: int) -> Callable[[str], int]:
    """argparse type: an integer >= ``low``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    return parse


def _build_parser() -> argparse.ArgumentParser:
    # numpy takes only non-negative seeds
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=_int_at_least(0), default=None, help="base RNG seed")
    configured = argparse.ArgumentParser(add_help=False, parents=[seeded])
    configured.add_argument("--out-dir", default=None, help="artifact directory root")
    configured.add_argument("--config", default=None, help="key = value config file")
    configured.add_argument(
        "--set",
        action="append",
        metavar="KEY=VALUE",
        help="override one config key; wins over --config",
    )
    iters = _int_at_least(1)

    parser = argparse.ArgumentParser(
        prog="specopt",
        description="Spectral-update optimizer toolkit: matrix transforms, "
        "property checks, and deterministic training runs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    tr = sub.add_parser("transform", help="apply a spectral power")
    tr.add_argument("input", help="input matrix file")
    tr.add_argument("output", help="output matrix file")
    tr.add_argument("--p", required=True, help="exponent token: 1, 0.5, 0.25, or 0")
    tr.add_argument("--method", choices=("ns", "oracle"), default="ns")
    tr.add_argument("--iters", type=iters, default=None,
                    help="step budget instead of the route's default: steps of the one root "
                    "pass for p=0.5, 0.25 and the cubic p=0, quintic steps for the quintic")
    tr.add_argument("--zero-method", choices=ZERO_METHODS, default="quintic",
                    help="polar kernel for p=0")
    tr.set_defaults(fn=cmd_transform)

    ve = sub.add_parser("verify", parents=[seeded], help="run property suites")
    ve.add_argument(
        "suites",
        nargs="*",
        default=["all"],
        help=f"suites to run: {', '.join(SUITE_NAMES)}, or all",
    )
    ve.add_argument("--iters", type=iters, default=None,
                    help="force a kernel iteration count (to demonstrate failure)")
    ve.set_defaults(fn=cmd_verify)

    tn = sub.add_parser("train", parents=[configured], help="one training run")
    tn.set_defaults(fn=cmd_train)

    sw = sub.add_parser("sweep", parents=[configured], help="learning-rate sweep")
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
    except _NUMERIC_FAULTS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        diagnostics = getattr(exc, "diagnostics", None)
        if diagnostics is not None:
            print(
                f"iterations={diagnostics.iterations_run} "
                f"alpha={diagnostics.scale_alpha!r} "
                f"residuals={[f'{r:.3e}' for r in diagnostics.residual_per_iter]}",
                file=sys.stderr,
            )
        return EXIT_DIVERGED
    except (ToolkitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USER_ERROR


if __name__ == "__main__":
    sys.exit(main())
