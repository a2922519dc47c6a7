"""Command-line interface: `simulate`, `estimate` and `backtest` subcommands.

Each subcommand's settings are declared once, in a table of `Setting` rows
that yields its flags and config-file keys, their types and their checks;
the forest settings pass ``ForestConfig``'s data-free rules there, so every
subcommand and method refuses them before any data is loaded.
Precedence is CLI > config file > defaults; a bad config line is a usage
error naming ``FILE:LINE``.  Every artifact embeds the effective settings,
and all randomness flows from the single --seed through named substreams, so
reruns are byte-identical.  At --workers >= 2 each fit grows its mean forest
here and its second-moment forest in one forked worker process (at most one,
as a fit has two forests); every tree keeps its own stream, so the artifacts
are the same at any worker count.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import NamedTuple

from .covariance import raw_cov, train_cov_forests, write_matrix_csv
from .data import CsvFormatError, CsvLayout, load_query_csv, load_returns_csv
from .forest import ForestConfig
from .portfolio import backtest, check_backtest, check_backtest_method
from .simulation import ExperimentConfig, MethodSpec, ModelSpec, run_experiment
from .thresholding import ForestCV, ThresholdRule, check_cv_folds, pd_correct

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2


class UsageError(ValueError):
    pass


@contextmanager
def _usage_errors():
    """Re-raise a ValueError from the block as a usage error (exit 2)."""
    try:
        yield
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


class Setting(NamedTuple):
    """Flag ``--key`` and config key ``key``; a default of None makes it required.

    ``forest_field`` names the `ForestConfig` field the value sets; wherever
    it is given, the value must make a `ForestConfig`, which checks the
    data-free rules.  Such a row is made by ``_forest_setting``.
    """

    key: str
    type: type
    default: object
    help: str | None = None
    choices: tuple | None = None
    minimum: int | None = None
    forest_field: str | None = None


def _forest_setting(key: str, type: type, field: str, help: str | None = None) -> Setting:
    """The setting of `ForestConfig` field ``field``, with its default; 0 stands
    for a default of None, which the data resolves (see ``_forest_config``)."""
    default = getattr(ForestConfig(), field)
    if default is None:
        return Setting(key, type, 0, help, minimum=0, forest_field=field)
    return Setting(key, type, default, help, forest_field=field)


_COMMON = (
    Setting("seed", int, 0, minimum=0),
    Setting("workers", int, 1, "2 or more grows each fit's two forests at once, in one forked process", minimum=1),
    _forest_setting("trees", int, "n_trees"),
    _forest_setting("subsample", int, "subsample_size", "0 means ceil(n/2)"),
    _forest_setting("min-leaf", int, "min_leaf"),
    _forest_setting("omega", float, "regularity"),
    _forest_setting("random-split-prob", float, "random_split_prob"),
    _forest_setting("mtry", int, "mtry", "0 means ceil(sqrt(d))"),
    Setting("folds", int, 5, minimum=2),
    Setting("grid-size", int, 20, minimum=0),
)

_CSV_LAYOUT = (
    Setting("response-cols", str, None),
    Setting("covariate-cols", str, None),
    Setting("date-col", str, ""),
    Setting("lag", int, 0, minimum=0),
)

_SIMULATE = _COMMON + (
    Setting("model", int, 1, choices=(1, 2, 3, 4)),
    Setting("p", int, 100, minimum=1),
    Setting("d", int, 10, minimum=1),
    Setting("n", int, 100, minimum=1),
    Setting("reps", int, 50, minimum=1),
    Setting("methods", str, "fdcm:soft", "comma list, e.g. fdcm:soft,static:scad:3.7,kernel:1:soft"),
    Setting("lambda-mode", str, "per-point", choices=("per-point", "shared")),
    Setting("out", str, "simulate", "output path prefix"),
)

_ESTIMATE = _COMMON + (
    Setting("train", str, None, "training CSV"),
    Setting("query", str, None, "CSV of query covariate vectors"),
    *_CSV_LAYOUT,
    Setting("rule", str, "soft"),
    Setting("stage", str, "corrected", choices=("raw", "thresholded", "corrected")),
    Setting("out-dir", str, "estimates"),
)

_BACKTEST = _COMMON + (
    Setting("panel", str, None, "panel CSV"),
    *_CSV_LAYOUT,
    Setting("method", str, "mfdcm:soft", "mfdcm[:RULE], mkernel[:J][:RULE], static[:RULE] or identity"),
    Setting("window", int, 100, minimum=2),
    Setting("stride", int, 1, minimum=1),
    Setting("out", str, "backtest", "output path prefix"),
)


def _check(setting: Setting, value, where: str):
    if setting.choices is not None and value not in setting.choices:
        raise UsageError(f"{where} must be one of {setting.choices}, got {value!r}")
    if setting.minimum is not None and value < setting.minimum:
        raise UsageError(f"{where} must be >= {setting.minimum}, got {value}")
    if setting.forest_field is not None:
        try:
            ForestConfig(**{setting.forest_field: value})
        except ValueError as exc:
            raise UsageError(f"{where}: {exc}") from None
    return value


def _read_config_file(path: str, settings: tuple[Setting, ...]) -> dict:
    """The file's values, each converted and checked; errors name FILE:LINE."""
    by_key = {s.key: s for s in settings}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise UsageError(f"--config {path}: {exc.strerror}") from exc
    values, set_at = {}, {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        where = f"{path}:{lineno}"
        key, eq, raw = (part.strip() for part in line.partition("="))
        if not eq:
            raise UsageError(f"{where}: expected key=value, got {line!r}")
        if key not in by_key:
            raise UsageError(f"{where}: unknown config key {key!r}")
        if key in set_at:
            raise UsageError(f"{where}: {key} is already set at {set_at[key]}")
        set_at[key] = where
        setting = by_key[key]
        try:
            value = setting.type(raw)
        except ValueError:
            kind = setting.type.__name__
            raise UsageError(f"{where}: {key}: expected {kind}, got {raw!r}") from None
        values[key] = _check(setting, value, f"{where}: {key}")
    return values


def _merge_config(args: argparse.Namespace, settings: tuple[Setting, ...]) -> dict:
    """CLI > config file > defaults."""
    merged = {s.key: s.default for s in settings}
    if args.config:
        merged.update(_read_config_file(args.config, settings))
    for s in settings:
        value = getattr(args, s.key.replace("-", "_"))
        if value is not None:
            merged[s.key] = _check(s, value, f"--{s.key}")
        if s.default is None and not merged[s.key]:
            raise UsageError(f"--{s.key} is required")
    return merged


def _config_lines(cfg: dict) -> list[str]:
    # workers stays out of the embedded config: runs at any worker count
    # are byte-identical.
    return [f"{k}={cfg[k]}" for k in sorted(cfg) if k != "workers"]


def _forest_config(cfg: dict) -> ForestConfig:
    # 0 means None: only subsample and mtry take 0, as every other forest
    # setting has made a ``ForestConfig`` on its own (``_check``).
    return ForestConfig(**{s.forest_field: cfg[s.key] or None for s in _COMMON if s.forest_field})


def _layout_from(cfg: dict) -> CsvLayout:
    with _usage_errors():
        return CsvLayout(
            response_cols=tuple(cfg["response-cols"].split(",")),
            covariate_cols=tuple(cfg["covariate-cols"].split(",")),
            date_col=cfg["date-col"] or None,
            lag=cfg["lag"],
        )


def cmd_simulate(cfg: dict, worker) -> int:
    with _usage_errors():
        model = ModelSpec(model=cfg["model"], p=cfg["p"], d=cfg["d"], n=cfg["n"])
        exp = ExperimentConfig(
            model=model,
            methods=tuple(MethodSpec.parse(m) for m in cfg["methods"].split(",") if m),
            reps=cfg["reps"],
            seed=cfg["seed"],
            forest=_forest_config(cfg),
            folds=cfg["folds"],
            grid_size=cfg["grid-size"],
            lambda_mode=cfg["lambda-mode"],
        )

    report = run_experiment(exp, worker)
    out = Path(cfg["out"])
    csv_path = out.with_suffix(".csv")
    table_path = out.with_suffix(".txt")
    csv_path.write_text("\n".join(report.to_csv_lines(_config_lines(cfg))) + "\n")
    table_path.write_text(report.to_table() + "\n")
    print(f"wrote {csv_path} and {table_path}", file=sys.stderr)
    print(f"runtime: {report.runtime_s:.1f}s", file=sys.stderr)
    return EXIT_OK


def cmd_estimate(cfg: dict, worker) -> int:
    for path_key in ("train", "query"):
        if not Path(cfg[path_key]).is_file():
            raise UsageError(f"--{path_key} file not found: {cfg[path_key]}")
    layout = _layout_from(cfg)
    with _usage_errors():
        rule = ThresholdRule.parse(cfg["rule"])

    dataset = load_returns_csv(cfg["train"], layout)
    queries = load_query_csv(cfg["query"], layout.covariate_cols)

    with _usage_errors():
        if cfg["stage"] != "raw":
            check_cv_folds(dataset.n, cfg["folds"])
        forest_cfg = _forest_config(cfg).resolve_main(dataset.n, dataset.d)
    fit = train_cov_forests(dataset, forest_cfg, cfg["seed"], worker)
    cv = None
    if cfg["stage"] != "raw":
        cv = ForestCV(dataset, forest_cfg, cfg["seed"], folds=cfg["folds"], grid_size=cfg["grid-size"],
                      worker=worker)

    out_dir = Path(cfg["out-dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = ["point,lambda,pd_applied,file"]
    for q, u in enumerate(queries):
        matrix = raw_cov(fit, u)
        lam = 0.0
        applied = False
        if cv is not None:
            sel = cv.select(u, rule, matrix)
            lam = sel.lam
            matrix = sel.apply(matrix)
            if cfg["stage"] == "corrected":
                matrix, info = pd_correct(matrix, where=f"query point {q}")
                applied = info.applied
        name = f"sigma_{q:03d}.csv"
        write_matrix_csv(out_dir / name, matrix, _config_lines(cfg) + [f"point={q}"])
        manifest.append(f"{q},{repr(lam)},{int(applied)},{name}")
    manifest_path = out_dir / "manifest.csv"
    manifest_lines = [f"# {line}" for line in _config_lines(cfg)] + manifest
    manifest_path.write_text("\n".join(manifest_lines) + "\n")
    print(f"wrote {len(queries)} matrices to {out_dir}", file=sys.stderr)
    return EXIT_OK


def cmd_backtest(cfg: dict, worker) -> int:
    if not Path(cfg["panel"]).is_file():
        raise UsageError(f"--panel file not found: {cfg['panel']}")
    layout = _layout_from(cfg)
    with _usage_errors():
        spec = MethodSpec.parse(cfg["method"])
        check_backtest_method(spec)

    panel = load_returns_csv(cfg["panel"], layout)
    forest_cfg = _forest_config(cfg)
    with _usage_errors():
        check_backtest(spec, panel.n, panel.d, cfg["window"], cfg["stride"], forest_cfg, cfg["folds"])
    result = backtest(
        panel,
        spec,
        window=cfg["window"],
        forest_config=forest_cfg,
        folds=cfg["folds"],
        grid_size=cfg["grid-size"],
        stride=cfg["stride"],
        seed=cfg["seed"],
        worker=worker,
    )

    out = Path(cfg["out"])
    header = [f"# {line}" for line in _config_lines(cfg)]
    ret_lines = header + ["date,return"]
    ret_lines += [f"{day},{repr(float(r))}" for day, r in zip(result.days, result.daily_returns)]
    out.with_suffix(".returns.csv").write_text("\n".join(ret_lines) + "\n")

    w_lines = header + ["date," + ",".join(f"w{j + 1}" for j in range(panel.p))]
    w_lines += [day + "," + ",".join(repr(float(x)) for x in w) for day, w in zip(result.days, result.weights_log)]
    out.with_suffix(".weights.csv").write_text("\n".join(w_lines) + "\n")

    perf = result.perf
    ir_text = f"{perf.ir:.4f}" if perf.ir is not None else "undefined"
    summary = f"AVR={perf.avr:.4f}% STD={perf.std:.4f}% IR={ir_text}"
    out.with_suffix(".summary.txt").write_text("\n".join(header + [summary]) + "\n")
    print(summary)
    return EXIT_OK


_COMMANDS = {
    "simulate": ("run a Monte Carlo benchmark", cmd_simulate, _SIMULATE),
    "estimate": ("train forests and emit covariance matrices", cmd_estimate, _ESTIMATE),
    "backtest": ("rolling minimum-variance backtest", cmd_backtest, _BACKTEST),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dyncov",
        description="Covariate-conditional covariance estimation with honest forests",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _, settings) in _COMMANDS.items():
        sub = subs.add_parser(name, help=help_text)
        sub.add_argument("--config", help="flat key=value config file")
        for s in settings:
            sub.add_argument(f"--{s.key}", type=s.type, choices=s.choices, help=s.help)
    return parser


@contextmanager
def _training_worker(workers: int):
    """What each fit hands its second-moment forest to: None (the calling
    process) at 1 worker, else one forked process, reaped when the block ends."""
    if workers < 2:
        yield None
        return
    import os  # not at module level, so a run at 1 worker imports nothing new

    from ._worker import ForkWorker

    if not hasattr(os, "fork"):
        raise UsageError(f"--workers {workers} needs os.fork, which this platform lacks; use --workers 1")
    with ForkWorker() as worker:
        yield worker


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    _, command, settings = _COMMANDS[args.command]
    try:
        cfg = _merge_config(args, settings)
        with _training_worker(cfg["workers"]) as worker:
            return command(cfg, worker)
    except (UsageError, CsvFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # runtime failure
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
