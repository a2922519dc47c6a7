"""The benchmark's workloads: driver arguments and seeded inputs.

Inputs are generated here with NumPy alone, from the benchmark seed, so they
do not change when the package changes.  Models 1 and 2 of the package's
simulation module have AR(1) correlation ``rho**|j - r|`` scaled by
``exp(s)``; rows are drawn with the exact AR(1) recursion instead of a
Cholesky factor per row, which keeps generation of the largest input well
under a second.

The driver sees only the generated CSV files (estimate, backtest) or the
``--seed`` flag (simulate).  Every path in an argument list is relative to
the directory the driver runs in, because the artifacts embed them.
"""

from __future__ import annotations

import math
import os
import shutil
import zlib
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    driver: str  # simulate | estimate | backtest
    flags: tuple[str, ...]
    model: int = 0  # generator of the CSV inputs (0: none)
    n: int = 0
    p: int = 0
    d: int = 0
    queries: int = 0  # estimate: number of query points

    def argv(self, seed: int) -> list[str]:
        args = [self.driver, *self.flags, "--seed", str(seed)]
        if self.driver == "estimate":
            args += ["--train", TRAIN, "--query", QUERY, "--out-dir", EST_DIR, *self._cols()]
        elif self.driver == "backtest":
            args += ["--panel", PANEL, "--out", BT_OUT, *self._cols()]
        else:
            args += ["--out", SIM_OUT]
        return args

    def _cols(self) -> list[str]:
        return [
            "--response-cols", ",".join(f"y{j + 1}" for j in range(self.p)),
            "--covariate-cols", ",".join(f"u{j + 1}" for j in range(self.d)),
        ]

    def flag(self, name: str) -> str:
        return self.flags[self.flags.index(name) + 1]


TRAIN, QUERY, PANEL = "train.csv", "query.csv", "panel.csv"
EST_DIR, BT_OUT, SIM_OUT = "est", "bt", "sim"

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "simulate-paper",
            "paper-scale replication: 3000 tiny trees, per-node interpreter cost; "
            "the only run of the static and kernel baselines",
            "simulate",
            ("--model", "1", "--p", "100", "--d", "10", "--n", "100", "--reps", "1",
             "--trees", "500", "--methods", "fdcm:soft,mfdcm:soft,static:soft,kernel:1:soft",
             "--workers", "1"),
        ),
        Workload(
            "estimate-query",
            "600 distinct query points: per-point routing, lambda-CV, shrink and PD "
            "dominate; no point repeats, so a result cache cannot gain",
            "estimate",
            ("--stage", "corrected", "--rule", "soft", "--trees", "100", "--workers", "1"),
            model=2, n=300, p=40, d=3, queries=600,
        ),
        Workload(
            "estimate-large",
            "n=2000, p=200: large-node array work in growth and wide CSV I/O; "
            "lambda-CV and PD correction are bypassed",
            "estimate",
            ("--stage", "raw", "--trees", "30", "--workers", "1"),
            model=1, n=2000, p=200, d=5, queries=20,
        ),
        Workload(
            "backtest-rolling",
            "5 retrains on 95%-overlapping windows with SCAD; the only run at "
            "--workers 2 and the only user of the portfolio layer",
            "backtest",
            ("--method", "mfdcm:scad", "--window", "200", "--stride", "10", "--trees", "50",
             "--folds", "2", "--workers", "2"),
            model=2, n=250, p=20, d=5,
        ),
    )
}


def sample_model(model: int, n: int, p: int, d: int, rng: np.random.Generator):
    """(y, u) with u uniform on [-1, 1]^d and y | u ~ N(0, Sigma_model(u))."""
    u = rng.uniform(-1.0, 1.0, size=(n, d))
    if model == 1:
        scale, rho = u[:, 0], _norm_pdf(u[:, 0])
    elif model == 2:
        scale = u[:, 0] + u[:, 1]
        rho = _norm_pdf(scale / 2.0)
    else:
        raise ValueError(f"no generator for model {model}")
    z = rng.standard_normal((n, p))
    y = np.empty((n, p))
    y[:, 0] = z[:, 0]
    innovation = np.sqrt(1.0 - rho**2)
    for j in range(1, p):
        y[:, j] = rho * y[:, j - 1] + innovation * z[:, j]
    return y * np.exp(scale / 2.0)[:, None], u


def _norm_pdf(x):
    return np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)


def _write_csv(path, header, rows) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(repr(v) for v in row.tolist()) + "\n")


def generate(w: Workload, seed: int, dest: str) -> None:
    """Write the workload's CSV inputs for this seed into dest."""
    if not w.model:
        return
    rng = np.random.default_rng([seed, zlib.crc32(w.name.encode())])
    y, u = sample_model(w.model, w.n, w.p, w.d, rng)
    header = [f"y{j + 1}" for j in range(w.p)] + [f"u{j + 1}" for j in range(w.d)]
    _write_csv(os.path.join(dest, PANEL if w.driver == "backtest" else TRAIN), header,
               np.hstack([y, u]))
    if w.driver == "estimate":
        points = rng.uniform(-1.0, 1.0, size=(w.queries, w.d))
        _write_csv(os.path.join(dest, QUERY), [f"u{j + 1}" for j in range(w.d)], points)


def cached_inputs(w: Workload, seed: int, cache_root: str) -> str:
    """Directory holding the inputs for (workload, seed), generated once."""
    dest = os.path.join(cache_root, f"{w.name}-{seed}")
    if not os.path.isdir(dest):
        tmp = f"{dest}.tmp{os.getpid()}"
        os.makedirs(tmp)
        generate(w, seed, tmp)
        os.rename(tmp, dest)
    return dest


def stage_inputs(src: str, dest: str) -> None:
    """Copy cached inputs into a call directory under their fixed names."""
    for name in os.listdir(src):
        shutil.copyfile(os.path.join(src, name), os.path.join(dest, name))
