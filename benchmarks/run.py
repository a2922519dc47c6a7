"""dyncov benchmark runner.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (see workloads.py) as a closed loop: one driver call at a
time, each ``dyncov.cli.main(argv)`` in a fresh Python process started from
``child.py`` in a fresh directory.  Calls repeat until the next one would
end more than half a call past ``--seconds``; a run makes at least one call,
and with ``--trace 1`` at least one untraced and one traced call,
alternating.  Every call's artifacts are checked (check.py); ``failed``
counts the operations that raised or failed a check.

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of the traced calls and the tracing overhead against the untraced
median.  The last line of stdout is the result JSON; the lines before it give
the environment and a readable table.

``--record`` writes the reference for this (workload, seed) from one call,
after it passes the invariant checks.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time

import numpy as np

import check
from workloads import WORKLOADS, cached_inputs, stage_inputs

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
WORK = os.path.join(HERE, "_work")
REFERENCE = os.path.join(HERE, "reference")

SETUP_PROBES = 5  # import-only processes per untraced run, for setup_s
RUN_LIMIT_S = 170.0  # a run is killed past this, inside the 180 s contract

# (metric, unit, better, source): source is (span, field) or a counter name.
PER_LAYER = [
    ("forest.grow_tree.s", "s", "lower", ("forest.grow_tree", "s")),
    ("forest.grow_tree.calls", "count", "lower", ("forest.grow_tree", "calls")),
    ("forest.nodes", "count", "lower", "forest.nodes"),
    ("forest.oversized_leaves", "count", "lower", "forest.oversized_leaves"),
    ("forest.train_forest.self_s", "s", "lower", ("forest.train_forest", "self_s")),
    ("forest.weight_vector.s", "s", "lower", ("forest.weight_vector", "s")),
    ("forest.weight_vector.calls", "count", "lower", ("forest.weight_vector", "calls")),
    ("covariance.raw_cov.self_s", "s", "lower", ("covariance.raw_cov", "self_s")),
    ("covariance.raw_cov.calls", "count", "lower", ("covariance.raw_cov", "calls")),
    ("covariance.weight_nnz", "count", "lower", "covariance.weight_nnz"),
    ("covariance.write_matrix_csv.s", "s", "lower", ("covariance.write_matrix_csv", "s")),
    ("thresholding.ForestCV.build_s", "s", "lower", ("thresholding.ForestCV.build", "s")),
    ("thresholding.ForestCV.select.self_s", "s", "lower", ("thresholding.ForestCV.select", "self_s")),
    ("thresholding.ForestCV.select.calls", "count", "lower", ("thresholding.ForestCV.select", "calls")),
    ("thresholding.shrink.s", "s", "lower", ("thresholding.shrink", "s")),
    ("thresholding.shrink.calls", "count", "lower", ("thresholding.shrink", "calls")),
    ("thresholding.pd_correct.s", "s", "lower", ("thresholding.pd_correct", "s")),
    ("thresholding.pd_applied", "count", "lower", "thresholding.pd_applied"),
    ("thresholding.lambda_grid_edge", "count", "lower", "thresholding.lambda_grid_edge"),
    ("simulation.run_experiment.self_s", "s", "lower", ("simulation.run_experiment", "self_s")),
    ("simulation.static_baseline.s", "s", "lower", ("simulation.static_baseline", "s")),
    ("simulation.kernel_dcm_baseline.s", "s", "lower", ("simulation.kernel_dcm_baseline", "s")),
    ("simulation.sample_dataset.s", "s", "lower", ("simulation.sample_dataset", "s")),
    ("portfolio.backtest.self_s", "s", "lower", ("portfolio.backtest", "self_s")),
    ("portfolio.min_var_weights.s", "s", "lower", ("portfolio.min_var_weights", "s")),
    ("portfolio.retrains", "count", "lower", "portfolio.retrains"),
    ("data.load_returns_csv.s", "s", "lower", ("data.load_returns_csv", "s")),
    ("data.Dataset.fingerprint.s", "s", "lower", ("data.Dataset.fingerprint", "s")),
    ("data.Dataset.fingerprint.calls", "count", "lower", ("data.Dataset.fingerprint", "calls")),
    ("data.Dataset.subset.calls", "count", "lower", ("data.Dataset.subset", "calls")),
    ("cli.other_s", "s", "lower", ("cli.main", "self_s")),
    ("trace.wall_s", "s", "lower", "trace.wall_s"),
    ("trace.overhead_frac", "ratio", "lower", "trace.overhead_frac"),
]


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true", help="write the reference for this seed")
    return ap.parse_args(argv)


def spawn(argv, trace, cwd, result_path, log_path, deadline):
    """Run child.py once; returns (result dict or None, exit code, peak RSS in MB).

    The child is reaped with os.wait4, whose rusage is that child's own (the
    running maximum of RUSAGE_CHILDREN would hide a smaller later call).  A
    timer kills it at the deadline.
    """
    t0 = repr(time.time())
    with open(log_path, "ab") as log:
        proc = subprocess.Popen(
            [sys.executable, CHILD, result_path, t0, str(trace), *argv],
            cwd=cwd, stdout=log, stderr=log,
        )
    watchdog = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
    watchdog.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        watchdog.cancel()
        watchdog.join()
    proc.returncode = os.waitstatus_to_exitcode(status)
    try:
        with open(result_path, encoding="utf-8") as fh:
            result = json.load(fh)
    except (OSError, ValueError):
        result = None
    return result, proc.returncode, usage.ru_maxrss / 1024.0


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # NumPy without show_config(mode=...)
        vendor = None
    sha = None
    if os.path.exists(os.path.join(ROOT, ".git")):  # a plain checkout has no history
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": vendor,
        "blas_threads": _blas_threads(),
        "blas_env": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
        "git_sha": sha,
    }


def _blas_threads():
    """Thread count of the OpenBLAS that NumPy loaded, or None if not found."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def load_reference(workload: str, seed: int):
    path = os.path.join(REFERENCE, f"{workload}-{seed}.json")
    if not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["ops"]


def write_reference(workload: str, seed: int, ops: list) -> str:
    os.makedirs(REFERENCE, exist_ok=True)
    path = os.path.join(REFERENCE, f"{workload}-{seed}.json")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write('{"workload": %s, "seed": %d, "ops": [\n' % (json.dumps(workload), seed))
        fh.write(",\n".join(json.dumps(op) for op in ops))
        fh.write("\n]}\n")
    return path


class Run:
    """The calls of one benchmark run and their checked outputs."""

    def __init__(self, workload, seed, inputs_dir, run_dir, deadline):
        self.w = workload
        self.seed = seed
        self.inputs_dir = inputs_dir
        self.input_names = set(os.listdir(inputs_dir))
        self.run_dir = run_dir
        self.deadline = deadline
        self.reference = load_reference(workload.name, seed)
        self.ops = check.operations(workload)
        self.calls = []  # one record per call, see call()
        self.first = None  # (digest, summaries) of the first completed call
        self.setups = []

    def probe(self) -> None:
        """An import-only process, for setup_s."""
        k = len(self.setups)
        result, rc, _ = spawn([], 0, self.run_dir, os.path.join(self.run_dir, f"probe{k}.json"),
                              os.path.join(self.run_dir, "probe.log"), self.deadline)
        if rc == 0 and result:
            self.setups.append(result["setup_s"])

    def call(self, trace: int) -> dict:
        k = len(self.calls)
        call_dir = os.path.join(self.run_dir, f"call{k}")
        os.makedirs(call_dir)
        stage_inputs(self.inputs_dir, call_dir)
        start = time.monotonic()
        result, rc, rss = spawn(self.w.argv(self.seed), trace, call_dir,
                                os.path.join(self.run_dir, f"result{k}.json"),
                                os.path.join(self.run_dir, f"call{k}.log"), self.deadline)
        elapsed = time.monotonic() - start
        ok = rc == 0 and result is not None and result.get("rc") == 0
        summaries = check.summarize(self.w, call_dir, self.inputs_dir) if ok else [None] * self.ops
        digest = check.artifact_digest(call_dir, self.input_names) if ok else None
        shutil.rmtree(call_dir, ignore_errors=True)
        failed = self._failed(summaries, digest)
        if ok and self.first is None:
            self.first = (digest, summaries)
        record = {
            "trace": trace,
            "ok": ok,
            "elapsed_s": elapsed,
            "wall_s": result.get("wall_s", elapsed) if result else elapsed,
            "setup_s": result.get("setup_s") if result else None,
            "rss_mb": rss,
            "failed": failed,
            "trace_summary": result.get("trace") if result else None,
        }
        if record["setup_s"] is not None and not trace:
            self.setups.append(record["setup_s"])
        self.calls.append(record)
        return record

    def _failed(self, summaries, digest) -> int:
        failed = 0
        for q, got in enumerate(summaries):
            if got is None:
                failed += 1
            elif self.reference is not None and not check.matches(self.reference[q], got):
                failed += 1
            elif self.first is not None and got != self.first[1][q]:
                failed += 1  # reruns of one input must agree exactly
        if self.first is not None and digest != self.first[0]:
            failed = self.ops  # artifacts must be byte-identical across calls
        return failed


def per_layer(traced: list, untraced: list) -> dict:
    """Per-layer metrics: medians of the traced calls' span times, exact counts."""
    summaries = [c["trace_summary"] for c in traced]
    values = {}
    for name, _unit, _better, source in PER_LAYER:
        if isinstance(source, tuple):
            span, field = source
            samples = [s["spans"].get(span, {}).get(field, 0) for s in summaries]
            values[name] = statistics.median(samples) if field != "calls" else samples[0]
        elif name == "portfolio.retrains":
            values[name] = summaries[0]["edges"].get("portfolio.backtest>thresholding.ForestCV.build", 0)
        elif name == "trace.wall_s":
            values[name] = statistics.median(c["wall_s"] for c in traced)
        elif name == "trace.overhead_frac":
            values[name] = values["trace.wall_s"] / statistics.median(c["wall_s"] for c in untraced) - 1.0
        else:
            values[name] = summaries[0]["counts"].get(source, 0)
    return values


def count_signature(summary: dict) -> dict:
    """Everything in a trace summary that must repeat exactly between runs."""
    return {
        "calls": {k: v["calls"] for k, v in summary["spans"].items()},
        "edges": summary["edges"],
        "counts": summary["counts"],
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "dyncov", "cli.py")):
        print(f"error: no dyncov package under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    start = time.monotonic()
    os.makedirs(WORK, exist_ok=True)
    inputs_dir = cached_inputs(w, args.seed, os.path.join(WORK, "inputs"))
    run_dir = tempfile.mkdtemp(prefix="run-", dir=WORK)
    try:
        run = Run(w, args.seed, inputs_dir, run_dir, start + RUN_LIMIT_S)
        if args.record:
            run.reference = None
            run.call(0)
            summaries = run.first[1] if run.first else None
            if summaries is None or None in summaries:
                print("error: the call failed its invariant checks; nothing recorded", file=sys.stderr)
                return 1
            print(f"wrote {write_reference(w.name, args.seed, summaries)}", file=sys.stderr)
            return 0
        return measure(run, args, start)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def measure(run: Run, args, start: float) -> int:
    budget_end = start + args.seconds
    if not args.trace:
        for _ in range(SETUP_PROBES):
            run.probe()
    modes = [0, 1] if args.trace else [0]
    while True:
        record = run.call(modes[len(run.calls) % len(modes)])
        if time.monotonic() > run.deadline:
            break
        done = {c["trace"] for c in run.calls}
        typical = statistics.median(c["elapsed_s"] for c in run.calls)
        # Start another call only if it would end less than half a call past
        # the budget, so a run lasts about --seconds on average.
        if done == set(modes) and time.monotonic() + typical / 2 > budget_end:
            break
        if not record["ok"] and len(run.calls) >= len(modes):
            break  # a crashing program: no point in more calls

    calls = run.calls
    untraced = [c for c in calls if not c["trace"]]
    traced = [c for c in calls if c["trace"] and c["trace_summary"]]
    attempted = run.ops * len(calls)
    failed = sum(c["failed"] for c in calls)
    correct = failed == 0
    if args.trace:
        signatures = [count_signature(c["trace_summary"]) for c in traced]
        if not traced or any(s != signatures[0] for s in signatures):
            correct = False  # the program's counts must repeat exactly
        units = {name: unit for name, unit, _, _ in PER_LAYER}
        metrics = per_layer(traced, untraced) if traced else dict.fromkeys(units, 0.0)
        main_self = [c["trace_summary"]["main_self_s"] for c in traced]
        notes = {
            "self_sum_s": main_self,
            "traced_wall_s": [c["wall_s"] for c in traced],
            "untraced_wall_s": [c["wall_s"] for c in untraced],
        }
    else:
        metrics = {
            "wall_s": statistics.median(c["wall_s"] for c in untraced),
            "setup_s": statistics.median(run.setups) if run.setups else 0.0,
            "peak_rss_mb": statistics.median(c["rss_mb"] for c in untraced),
        }
        units = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
        notes = {
            "wall_s": [c["wall_s"] for c in untraced],
            "setup_s": run.setups,
            "peak_rss_mb": [c["rss_mb"] for c in untraced],
        }

    print(json.dumps({"env": environment(), "workload": run.w.name, "seed": run.seed,
                      "calls": len(calls), "samples": notes}))
    print(f"{run.w.name} seed={run.seed} trace={args.trace}: {len(calls)} calls, "
          f"{attempted} operations, {failed} failed (failed_frac={failed / attempted:.4g}), "
          f"reference={'yes' if run.reference is not None else 'no'}")
    for name, value in metrics.items():
        print(f"  {name:<40} {value:>14.6g} {units[name]}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
