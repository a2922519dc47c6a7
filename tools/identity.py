"""Compare the CLI artifacts of two source trees, sha256 by sha256.

    python3 tools/identity.py BASE_SRC CHANGE_SRC

BASE_SRC and CHANGE_SRC each name a directory that holds the ``dyncov``
package (a checkout's ``src``).  Every run
below is made once with each tree, one tree after the other, in the same
call directory and the same environment, so that paths embedded in the
artifacts agree; then the sha256 of every file the call left there is
compared.  Prints each artifact whose digest differs, or that only one tree
wrote, and each run that fails in either tree; exits 1 if there is any.

The runs: every benchmark workload's argv at seeds 0 and 1, on inputs made by
``benchmarks/workloads.py``'s ``cached_inputs`` in a temporary directory
(``benchmarks/`` itself is never written to), and
extra argvs that put every arm through 2 and 3 folds and 1 and 2 workers:
``simulate`` with all five arms on models 3 and 4 and, with
``--lambda-mode shared``, on model 3; ``estimate`` at the ``corrected`` and
``thresholded`` stages on the estimate-query inputs; and ``backtest`` with
each arm kind on the backtest-rolling panel.  Rules are given with their
default parameter and with an explicit one.  Last, ``estimate --stage raw``
on n = 8,000 rows (``PROBE``), whose wide split nodes can fall back to the
exact scan.
"""

from __future__ import annotations

import hashlib
import itertools
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.dont_write_bytecode = True  # leave benchmarks/ as it is
sys.path.insert(0, str(ROOT / "benchmarks"))
from workloads import WORKLOADS, Workload, cached_inputs, stage_inputs  # noqa: E402

SEEDS = (0, 1)
ARMS = "fdcm:soft,mfdcm:scad,mfdcm:scad:3.2,static:hard,kernel:2:soft,mkernel:1:alasso,mkernel:1:alasso:2.5"
BACKTEST_ARMS = ("identity", "static:soft", "static:alasso:2.5", "mkernel:2:hard", "mfdcm:scad")
ESTIMATE_RULES = ("hard", "alasso:2.5")
ESTIMATE_STAGES = ("corrected", "thresholded")
PROBE = Workload("n8000-probe", "wide split nodes", "estimate", ("--stage", "raw", "--trees", "4"),
                 model=1, n=8000, p=50, d=3, queries=5)
RUN = "import sys; from dyncov.cli import main; sys.exit(main(sys.argv[1:]))"


def runs():
    """(label, workload whose inputs the call reads, seed of those inputs, argv)."""
    for (name, w), seed in itertools.product(WORKLOADS.items(), SEEDS):
        yield f"{name} seed {seed}", w, seed, w.argv(seed)
    query, rolling = WORKLOADS["estimate-query"], WORKLOADS["backtest-rolling"]
    for folds, workers in itertools.product(("2", "3"), ("1", "2")):
        for model, mode in (("3", "per-point"), ("4", "per-point"), ("3", "shared")):
            yield f"simulate model {model} lambda-mode {mode} folds {folds} workers {workers}", None, 0, [
                "simulate", "--model", model, "--p", "12", "--d", "3", "--n", "60", "--reps", "2",
                "--trees", "40", "--methods", ARMS, "--folds", folds, "--workers", workers,
                "--lambda-mode", mode, "--seed", "0", "--out", "sim",
            ]
        for rule, stage in itertools.product(ESTIMATE_RULES, ESTIMATE_STAGES):
            yield f"estimate {rule} stage {stage} folds {folds} workers {workers}", query, 0, _replace(
                query.argv(0),
                {"--trees": "40", "--rule": rule, "--stage": stage, "--folds": folds, "--workers": workers},
            )
        for arm in BACKTEST_ARMS:
            yield f"backtest {arm} folds {folds} workers {workers}", rolling, 0, _replace(
                rolling.argv(0), {"--method": arm, "--folds": folds, "--workers": workers}
            )
    yield "estimate n = 8,000 probe", PROBE, 0, PROBE.argv(0)


def _replace(argv: list[str], values: dict[str, str]) -> list[str]:
    """argv with the value after each flag in ``values`` replaced, or the flag
    and value appended where argv lacks it."""
    argv = list(argv)
    for flag, value in values.items():
        if flag in argv:
            argv[argv.index(flag) + 1] = value
        else:
            argv += [flag, value]
    return argv


def package_dir(path: str) -> Path:
    path = Path(path).resolve()
    if not (path / "dyncov" / "__init__.py").is_file():
        sys.exit(f"no dyncov package in {path}")
    return path


def digests(directory: Path) -> dict[str, str]:
    return {
        str(p.relative_to(directory)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(directory.rglob("*"))
        if p.is_file()
    }


def run_tree(src: Path, argv: list[str], inputs: str | None, call: Path):
    """Exit code, last stderr line and artifact digests of one call with
    ``src``'s package."""
    shutil.rmtree(call, ignore_errors=True)
    call.mkdir()
    staged = set()
    if inputs is not None:
        stage_inputs(inputs, str(call))
        staged = set(os.listdir(inputs))
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-c", RUN, *argv], cwd=call, env=env,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    found = {k: v for k, v in digests(call).items() if k not in staged}
    return proc.returncode, proc.stderr.strip().splitlines()[-1:], found


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    base, change = package_dir(argv[0]), package_dir(argv[1])
    differ = compared = 0
    with tempfile.TemporaryDirectory(prefix="identity-") as tmp:
        tmp = Path(tmp)
        all_runs = list(runs())
        for label, w, seed, args in all_runs:
            inputs = None if w is None else cached_inputs(w, seed, str(tmp / "inputs"))
            call = tmp / "call"
            rc_a, err_a, a = run_tree(base, args, inputs, call)
            rc_b, err_b, b = run_tree(change, args, inputs, call)
            # Every run should succeed, so a failure in both trees counts too.
            bad = [f"  exit code {rc_a} -> {rc_b}: {err_a} -> {err_b}"] if rc_a or rc_b else []
            for name in sorted(a.keys() | b.keys()):
                if a.get(name) != b.get(name):
                    bad.append(f"  {name}: {a.get(name, 'missing')[:16]} -> {b.get(name, 'missing')[:16]}")
            compared += len(a.keys() | b.keys())
            differ += len(bad)
            print(f"{'DIFFERS' if bad else 'same   '} {label} ({len(b)} files, exit {rc_b})", flush=True)
            for line in bad:
                print(line, flush=True)
    print(f"{len(all_runs)} runs, {compared} artifacts compared, {differ} differences")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
