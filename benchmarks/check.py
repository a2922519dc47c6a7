"""Output checks behind ``failed``: artifact summaries, invariants, reference.

An operation is one query point (estimate), one test point x method
(simulate) or one backtest day.  ``summarize`` returns one compact summary
per operation, or None where the artifact is missing, malformed or breaks an
invariant:

- estimate: lambda, pd_applied, and the matrix's Frobenius norm and smallest
  eigenvalue.  Every matrix is square, finite and symmetric; corrected ones
  also pass Cholesky.
- simulate: the method's MFL and MSL means, finite and positive.
- backtest: the day's return and weight vector.  The weights sum to 1 and
  the return equals the weights times that day's asset returns.

``matches`` compares a summary with the recorded reference: lambda and
pd_applied exactly, every other number within REL_TOL relative.
"""

from __future__ import annotations

import hashlib
import math
import os

import numpy as np

from workloads import BT_OUT, EST_DIR, PANEL, SIM_OUT, Workload

REL_TOL = 1e-9
SYM_TOL = 1e-12  # the package's own symmetry tolerance, relative to max |entry|
SUM_TOL = 1e-9
N_TEST_POINTS = 30  # simulate: fixed query points per method and replication
EXACT_KEYS = ("lambda", "pd_applied")


def operations(w: Workload) -> int:
    if w.driver == "estimate":
        return w.queries
    if w.driver == "simulate":
        return N_TEST_POINTS * len(w.flag("--methods").split(","))
    return w.n - int(w.flag("--window"))


def summarize(w: Workload, call_dir: str, inputs_dir: str) -> list:
    try:
        if w.driver == "estimate":
            return _estimate(w, call_dir)
        if w.driver == "simulate":
            return _simulate(w, call_dir)
        return _backtest(w, call_dir, inputs_dir)
    except (OSError, ValueError, IndexError):
        return [None] * operations(w)


def artifact_digest(call_dir: str, inputs: set[str]) -> str:
    """SHA-256 over every file the driver wrote, in path order."""
    h = hashlib.sha256()
    for root, _, files in sorted(os.walk(call_dir)):
        for name in sorted(files):
            rel = os.path.relpath(os.path.join(root, name), call_dir)
            if rel not in inputs:
                h.update(rel.encode())
                with open(os.path.join(root, name), "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def _data_lines(path: str) -> list[str]:
    with open(path, encoding="utf-8") as fh:
        return [line.strip() for line in fh if line.strip() and not line.startswith("#")]


def _expect_header(lines: list[str], header: str, path: str) -> list[str]:
    if not lines or lines[0] != header:
        raise ValueError(f"{path}: expected header {header!r}")
    return lines[1:]


def _read_matrix(path: str) -> np.ndarray:
    return np.array([[float(c) for c in line.split(",")] for line in _data_lines(path)])


def _valid_matrix(m: np.ndarray, p: int, corrected: bool) -> bool:
    if m.shape != (p, p) or not np.all(np.isfinite(m)):
        return False
    if np.abs(m - m.T).max() > SYM_TOL * max(1.0, float(np.abs(m).max())):
        return False
    if corrected:
        try:
            np.linalg.cholesky(m)
        except np.linalg.LinAlgError:
            return False
    return True


def _estimate(w: Workload, call_dir: str) -> list:
    out_dir = os.path.join(call_dir, EST_DIR)
    manifest = os.path.join(out_dir, "manifest.csv")
    rows = _expect_header(_data_lines(manifest), "point,lambda,pd_applied,file", manifest)
    corrected = w.flag("--stage") == "corrected"
    ops = [None] * w.queries
    for row in rows:
        point, lam, applied, name = row.split(",")
        q = int(point)
        try:
            m = _read_matrix(os.path.join(out_dir, name))
        except (OSError, ValueError):
            continue
        if 0 <= q < w.queries and _valid_matrix(m, w.p, corrected):
            ops[q] = {
                "lambda": float(lam),
                "pd_applied": int(applied),
                "fro": float(np.linalg.norm(m)),
                "min_eig": float(np.linalg.eigvalsh(m)[0]),
            }
    return ops


def _simulate(w: Workload, call_dir: str) -> list:
    path = os.path.join(call_dir, SIM_OUT + ".csv")
    rows = _expect_header(_data_lines(path), "method,metric,mean,sd", path)
    means: dict[tuple[str, str], float] = {}
    for row in rows:
        method, metric, mean, _sd = row.split(",")
        means[method, metric] = float(mean)
    ops = []
    for method in w.flag("--methods").split(","):
        summary = {k: means.get((method, k), math.nan) for k in ("mfl", "msl")}
        ok = all(math.isfinite(v) and v > 0 for v in summary.values())
        ops += [dict(summary, method=method) if ok else None] * N_TEST_POINTS
    return ops


def _backtest(w: Workload, call_dir: str, inputs_dir: str) -> list:
    window = int(w.flag("--window"))
    y = np.loadtxt(os.path.join(inputs_dir, PANEL), delimiter=",", skiprows=1, ndmin=2)[:, : w.p]
    ret_path = os.path.join(call_dir, BT_OUT + ".returns.csv")
    w_path = os.path.join(call_dir, BT_OUT + ".weights.csv")
    returns = _expect_header(_data_lines(ret_path), "date,return", ret_path)
    weights = _expect_header(
        _data_lines(w_path), "date," + ",".join(f"w{j + 1}" for j in range(w.p)), w_path
    )
    ops = [None] * operations(w)
    for day, (r_row, w_row) in enumerate(zip(returns, weights)):
        r = float(r_row.split(",")[1])
        wv = np.array([float(x) for x in w_row.split(",")[1:]])
        if day >= len(ops) or wv.shape != (w.p,) or not np.all(np.isfinite(wv)):
            continue
        asset = y[window + day]
        if abs(wv.sum() - 1.0) > SUM_TOL:
            continue
        if abs(r - float(wv @ asset)) > REL_TOL * float(np.abs(wv) @ np.abs(asset)):
            continue
        ops[day] = {"return": r, "weights": wv.tolist()}
    return ops


def _close(a: float, b: float, scale: float) -> bool:
    return abs(a - b) <= REL_TOL * scale


def matches(ref: dict, got: dict) -> bool:
    """True when got agrees with the reference summary ref."""
    if ref.keys() != got.keys():
        return False
    for key, r in ref.items():
        g = got[key]
        if key in EXACT_KEYS or isinstance(r, str):
            if r != g:
                return False
        elif isinstance(r, list):
            scale = max(max(map(abs, r)), max(map(abs, g)))
            if len(r) != len(g) or not all(_close(a, b, scale) for a, b in zip(r, g)):
                return False
        else:
            # The smallest eigenvalue can sit near 0; judge it on the matrix's scale.
            scale = max(abs(r), abs(g), ref.get("fro", 0.0) if key == "min_eig" else 0.0)
            if not _close(r, g, scale):
                return False
    return True
