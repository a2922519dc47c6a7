"""Command-line interface: `simulate`, `estimate` and `backtest` subcommands.

Flag precedence is CLI > config file > defaults.  The config file is flat
``key=value`` text with keys named exactly like the long flags.  Every
output artifact embeds the effective configuration, and all randomness flows
from the single --seed through named substreams, so reruns are byte-identical.
Training is serial: --workers is still accepted but has no effect.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .covariance import raw_cov, train_cov_forests, write_matrix_csv
from .data import CsvFormatError, CsvLayout, load_query_csv, load_returns_csv
from .forest import ForestConfig
from .portfolio import BacktestSpec, backtest
from .simulation import (
    ExperimentConfig,
    MethodSpec,
    ModelSpec,
    run_experiment,
)
from .thresholding import ForestCV, ThresholdRule, check_cv_folds, pd_correct

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2


class UsageError(ValueError):
    pass


def _read_config_file(path: str) -> dict[str, str]:
    values = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        values[key.strip()] = value.strip()
    return values


def _merge_config(args: argparse.Namespace, defaults: dict) -> dict:
    """CLI > config file > defaults."""
    merged = dict(defaults)
    if getattr(args, "config", None):
        file_values = _read_config_file(args.config)
        unknown = set(file_values) - set(defaults)
        if unknown:
            raise UsageError(f"unknown config keys: {sorted(unknown)}")
        for key, raw in file_values.items():
            default = defaults[key]
            if isinstance(default, bool):
                merged[key] = raw.lower() in ("1", "true", "yes")
            elif isinstance(default, int):
                merged[key] = int(raw)
            elif isinstance(default, float):
                merged[key] = float(raw)
            else:
                merged[key] = raw
    for key in defaults:
        cli_value = getattr(args, key.replace("-", "_"), None)
        if cli_value is not None:
            merged[key] = cli_value
    if merged["workers"] < 1:
        raise UsageError(f"--workers must be >= 1, got {merged['workers']}")
    if merged["folds"] < 2:
        raise UsageError(f"--folds must be >= 2, got {merged['folds']}")
    if merged["grid-size"] < 0:
        raise UsageError(f"--grid-size must be >= 0, got {merged['grid-size']}")
    return merged


def _config_lines(cfg: dict) -> list[str]:
    # workers has no effect, so it stays out of the embedded config: runs at
    # any worker count are byte-identical.
    return [f"{k}={cfg[k]}" for k in sorted(cfg) if k != "workers"]


def _forest_config(cfg: dict) -> ForestConfig:
    return ForestConfig(
        n_trees=cfg["trees"],
        subsample_size=cfg["subsample"] if cfg["subsample"] > 0 else None,
        min_leaf=cfg["min-leaf"],
        regularity=cfg["omega"],
        random_split_prob=cfg["random-split-prob"],
        mtry=cfg["mtry"] if cfg["mtry"] > 0 else None,
        seed=cfg["seed"],
    )


def _resolve(forest: ForestConfig, n: int, d: int, folds: int | None = None) -> ForestConfig:
    """The forest config resolved for n training rows of dimension d.

    An infeasible config (say, min_leaf above the J2 half-sample size), or
    too few rows for ``folds``-fold CV when one is run, is a usage error,
    found before any tree is grown.
    """
    try:
        if folds is not None:
            check_cv_folds(n, folds)
        return forest.resolve(n, d)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


_FOREST_DEFAULTS = {
    "trees": 500,
    "subsample": 0,  # 0 -> ceil(n/2)
    "min-leaf": 5,
    "omega": 0.05,
    "random-split-prob": 0.05,
    "mtry": 0,  # 0 -> ceil(sqrt(d))
    "seed": 0,
    "folds": 5,
    "grid-size": 20,
    "workers": 1,
}


def _add_common_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="flat key=value config file")
    sub.add_argument("--seed", type=int)
    sub.add_argument("--workers", type=int, help="has no effect: training is serial")
    sub.add_argument("--trees", type=int)
    sub.add_argument("--subsample", type=int)
    sub.add_argument("--min-leaf", type=int)
    sub.add_argument("--omega", type=float)
    sub.add_argument("--random-split-prob", type=float)
    sub.add_argument("--mtry", type=int)
    sub.add_argument("--folds", type=int)
    sub.add_argument("--grid-size", type=int)


def _layout_from(cfg: dict) -> CsvLayout:
    if not cfg["response-cols"]:
        raise UsageError("--response-cols is required")
    if not cfg["covariate-cols"]:
        raise UsageError("--covariate-cols is required")
    return CsvLayout(
        response_cols=tuple(cfg["response-cols"].split(",")),
        covariate_cols=tuple(cfg["covariate-cols"].split(",")),
        date_col=cfg["date-col"] or None,
        lag=cfg["lag"],
    )


def cmd_simulate(args: argparse.Namespace) -> int:
    defaults = {
        **_FOREST_DEFAULTS,
        "model": 1,
        "p": 100,
        "d": 10,
        "n": 100,
        "reps": 50,
        "methods": "fdcm:soft",
        "lambda-mode": "per-point",
        "out": "simulate",
    }
    cfg = _merge_config(args, defaults)
    try:
        model = ModelSpec(model=cfg["model"], p=cfg["p"], d=cfg["d"], n=cfg["n"])
        methods = tuple(MethodSpec.parse(m) for m in cfg["methods"].split(",") if m)
        forest = _forest_config(cfg)
        if any(m.name in ("fdcm", "mfdcm") for m in methods):
            forest = _resolve(forest, model.n, model.d, cfg["folds"])
        exp = ExperimentConfig(
            model=model,
            methods=methods,
            reps=cfg["reps"],
            seed=cfg["seed"],
            forest=forest,
            folds=cfg["folds"],
            grid_size=cfg["grid-size"],
            lambda_mode=cfg["lambda-mode"],
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc

    report = run_experiment(exp)
    out = Path(cfg["out"])
    csv_path = out.with_suffix(".csv")
    table_path = out.with_suffix(".txt")
    csv_path.write_text("\n".join(report.to_csv_lines(_config_lines(cfg))) + "\n")
    table_path.write_text(report.to_table() + "\n")
    print(f"wrote {csv_path} and {table_path}", file=sys.stderr)
    print(f"runtime: {report.runtime_s:.1f}s", file=sys.stderr)
    return EXIT_OK


def cmd_estimate(args: argparse.Namespace) -> int:
    defaults = {
        **_FOREST_DEFAULTS,
        "train": "",
        "query": "",
        "response-cols": "",
        "covariate-cols": "",
        "date-col": "",
        "lag": 0,
        "rule": "soft",
        "stage": "corrected",
        "out-dir": "estimates",
    }
    cfg = _merge_config(args, defaults)
    if not cfg["train"]:
        raise UsageError("--train is required")
    if not cfg["query"]:
        raise UsageError("--query is required")
    if cfg["stage"] not in ("raw", "thresholded", "corrected"):
        raise UsageError("--stage must be raw | thresholded | corrected")
    for path_key in ("train", "query"):
        if not Path(cfg[path_key]).exists():
            raise UsageError(f"--{path_key} file not found: {cfg[path_key]}")
    layout = _layout_from(cfg)
    try:
        rule = ThresholdRule.parse(cfg["rule"])
    except ValueError as exc:
        raise UsageError(str(exc)) from exc

    dataset = load_returns_csv(cfg["train"], layout)
    queries = load_query_csv(cfg["query"])
    if queries.shape[1] != dataset.d:
        raise UsageError(
            f"query points have {queries.shape[1]} columns, training data has d={dataset.d}"
        )

    folds = None if cfg["stage"] == "raw" else cfg["folds"]
    forest_cfg = _resolve(_forest_config(cfg), dataset.n, dataset.d, folds)
    forests = train_cov_forests(dataset, forest_cfg)
    cv = None
    if folds is not None:
        cv = ForestCV(dataset, forest_cfg, folds=folds, grid_size=cfg["grid-size"])

    out_dir = Path(cfg["out-dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = ["point,lambda,pd_applied,file"]
    for q, u in enumerate(queries):
        matrix = raw_cov(*forests, dataset, u)
        lam = 0.0
        applied = False
        if cv is not None:
            sel = cv.select(u, rule, matrix)
            lam = sel.lam
            matrix = sel.apply(matrix)
            if cfg["stage"] == "corrected":
                matrix, info = pd_correct(matrix)
                applied = info.applied
        name = f"sigma_{q:03d}.csv"
        write_matrix_csv(out_dir / name, matrix, _config_lines(cfg) + [f"point={q}"])
        manifest.append(f"{q},{repr(lam)},{int(applied)},{name}")
    manifest_path = out_dir / "manifest.csv"
    manifest_lines = [f"# {line}" for line in _config_lines(cfg)] + manifest
    manifest_path.write_text("\n".join(manifest_lines) + "\n")
    print(f"wrote {len(queries)} matrices to {out_dir}", file=sys.stderr)
    return EXIT_OK


def cmd_backtest(args: argparse.Namespace) -> int:
    defaults = {
        **_FOREST_DEFAULTS,
        "panel": "",
        "response-cols": "",
        "covariate-cols": "",
        "date-col": "",
        "lag": 0,
        "method": "mfdcm:soft",
        "window": 100,
        "stride": 1,
        "out": "backtest",
    }
    cfg = _merge_config(args, defaults)
    if not cfg["panel"]:
        raise UsageError("--panel is required")
    if not Path(cfg["panel"]).exists():
        raise UsageError(f"--panel file not found: {cfg['panel']}")
    layout = _layout_from(cfg)
    try:
        spec = BacktestSpec.parse(cfg["method"])
    except ValueError as exc:
        raise UsageError(str(exc)) from exc

    panel = load_returns_csv(cfg["panel"], layout)
    if panel.n <= cfg["window"]:
        raise UsageError(
            f"panel has {panel.n} usable rows; needs more than window={cfg['window']}"
        )
    forest_cfg = _forest_config(cfg)
    if spec.method == "mfdcm":
        forest_cfg = _resolve(forest_cfg, cfg["window"], panel.d, cfg["folds"])
    result = backtest(
        panel,
        spec,
        window=cfg["window"],
        forest_config=forest_cfg,
        folds=cfg["folds"],
        grid_size=cfg["grid-size"],
        stride=cfg["stride"],
        seed=cfg["seed"],
    )

    out = Path(cfg["out"])
    header = [f"# {line}" for line in _config_lines(cfg)]
    ret_lines = header + ["date,return"]
    for i, r in enumerate(result.daily_returns):
        label = result.dates[i] if result.dates else str(i)
        ret_lines.append(f"{label},{repr(float(r))}")
    out.with_suffix(".returns.csv").write_text("\n".join(ret_lines) + "\n")

    w_lines = header + ["date," + ",".join(f"w{j + 1}" for j in range(panel.p))]
    for i, w in enumerate(result.weights_log):
        label = result.dates[i] if result.dates else str(i)
        w_lines.append(label + "," + ",".join(repr(float(x)) for x in w))
    out.with_suffix(".weights.csv").write_text("\n".join(w_lines) + "\n")

    perf = result.perf
    ir_text = f"{perf.ir:.4f}" if perf.ir is not None else "undefined"
    summary = f"AVR={perf.avr:.4f}% STD={perf.std:.4f}% IR={ir_text}"
    out.with_suffix(".summary.txt").write_text("\n".join(header + [summary]) + "\n")
    print(summary)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dyncov",
        description="Covariate-conditional covariance estimation with honest forests",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sim = subs.add_parser("simulate", help="run a Monte Carlo benchmark")
    _add_common_flags(sim)
    sim.add_argument("--model", type=int, choices=(1, 2, 3, 4))
    sim.add_argument("--p", type=int)
    sim.add_argument("--d", type=int)
    sim.add_argument("--n", type=int)
    sim.add_argument("--reps", type=int)
    sim.add_argument("--methods", help="comma list, e.g. fdcm:soft,static:scad:3.7,kernel:1:soft")
    sim.add_argument("--lambda-mode", choices=("per-point", "shared"))
    sim.add_argument("--out", help="output path prefix")
    sim.set_defaults(func=cmd_simulate)

    est = subs.add_parser("estimate", help="train forests and emit covariance matrices")
    _add_common_flags(est)
    est.add_argument("--train", help="training CSV")
    est.add_argument("--query", help="CSV of query covariate vectors")
    est.add_argument("--response-cols")
    est.add_argument("--covariate-cols")
    est.add_argument("--date-col")
    est.add_argument("--lag", type=int)
    est.add_argument("--rule")
    est.add_argument("--stage", choices=("raw", "thresholded", "corrected"))
    est.add_argument("--out-dir")
    est.set_defaults(func=cmd_estimate)

    back = subs.add_parser("backtest", help="rolling minimum-variance backtest")
    _add_common_flags(back)
    back.add_argument("--panel", help="panel CSV")
    back.add_argument("--response-cols")
    back.add_argument("--covariate-cols")
    back.add_argument("--date-col")
    back.add_argument("--lag", type=int)
    back.add_argument("--method")
    back.add_argument("--window", type=int)
    back.add_argument("--stride", type=int)
    back.add_argument("--out", help="output path prefix")
    back.set_defaults(func=cmd_backtest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, CsvFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # runtime failure
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
