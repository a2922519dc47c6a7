"""Tests of the benchmark itself: wrapping, checker, tracing and counts.

Run from the repository root with ``python -m pytest benchmarks``.  The two
count tests run real workloads and take about a minute together.
"""

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

import check
import run
from workloads import WORKLOADS, Workload, cached_inputs, stage_inputs

SRC = os.path.join(run.ROOT, "src")


def _python(code: str) -> str:
    """Run code in a fresh interpreter with the package and the benchmark importable."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, run.HERE]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120, check=True)
    return done.stdout


def _calls(w: Workload, seed: int, modes, tmp_path) -> run.Run:
    inputs = cached_inputs(w, seed, str(tmp_path / "inputs"))
    os.makedirs(tmp_path / "run")
    r = run.Run(w, seed, inputs, str(tmp_path / "run"), time.monotonic() + run.RUN_LIMIT_S)
    for mode in modes:
        r.call(mode)
    return r


def test_every_wrapped_name_is_wrapped_at_all_import_sites():
    out = _python(
        "import json, sys, dyncov.cli, tracing\n"
        "originals = {tracing.span_name(m, q): getattr(sys.modules[m], q) for m, q in tracing.FUNCTIONS}\n"
        "t = tracing.install()\n"
        "left = [f'{mod.__name__}.{k}' for mod in tracing._package_modules()\n"
        "        for k, v in vars(mod).items() if any(v is o for o in originals.values())]\n"
        "import numpy as np\n"
        "from dyncov import thresholding\n"
        "thresholding._shrink_offdiag(np.eye(3), 0.1, thresholding.ThresholdRule('soft'))\n"
        "print(json.dumps({'left': left, 'sites': t.sites, 'shrink': t.calls['thresholding.shrink']}))\n"
    )
    got = json.loads(out)
    assert got["left"] == []
    sites = got["sites"]
    assert set(sites["covariance.raw_cov"]) >= {
        f"dyncov.{m}.raw_cov" for m in ("covariance", "thresholding", "simulation", "portfolio", "cli")
    }
    assert "dyncov.cli.write_matrix_csv" in sites["covariance.write_matrix_csv"]
    assert "dyncov.cli.pd_correct" in sites["thresholding.pd_correct"]
    assert "dyncov.portfolio.static_baseline" in sites["simulation.static_baseline"]
    for name, where in sites.items():
        assert where, f"{name} is bound nowhere"
    # _shrink_offdiag reaches shrink through the thresholding module global.
    assert got["shrink"] == 1
    assert sites["thresholding.ForestCV.build"] == ["dyncov.thresholding.ForestCV.__init__"]


SMALL = Workload("small-estimate", "test only", "estimate",
                 ("--stage", "corrected", "--rule", "soft", "--trees", "10", "--folds", "3"),
                 model=2, n=60, p=4, d=2, queries=3)


def _edit_matrix(path, i, j, change) -> None:
    """Replace entry (i, j) of a matrix CSV, keeping its # header lines."""
    lines = path.read_text().splitlines()
    data = [k for k, line in enumerate(lines) if not line.startswith("#")]
    row = lines[data[i]].split(",")
    row[j] = repr(change(float(row[j])))
    lines[data[i]] = ",".join(row)
    path.write_text("\n".join(lines) + "\n")


def test_checker_catches_a_perturbed_lambda_and_matrix(tmp_path):
    r = _calls(SMALL, 0, [0], tmp_path)
    assert r.calls[0]["failed"] == 0
    reference = r.first[1]
    call_dir = tmp_path / "call"
    os.makedirs(call_dir)
    stage_inputs(r.inputs_dir, str(call_dir))
    subprocess.run([sys.executable, run.CHILD, str(tmp_path / "res.json"), repr(time.time()), "0",
                    *SMALL.argv(0)], cwd=call_dir, check=True, capture_output=True, timeout=120)
    assert check.summarize(SMALL, str(call_dir), r.inputs_dir) == reference

    # Point 1's lambda moved by a few units in the last place.
    manifest = call_dir / "est" / "manifest.csv"
    lines = manifest.read_text().splitlines()
    point, lam, applied, name = lines[-2].split(",")
    lines[-2] = ",".join([point, repr(float(lam) * (1 + 1e-15) + 1e-300), applied, name])
    manifest.write_text("\n".join(lines) + "\n")
    got = check.summarize(SMALL, str(call_dir), r.inputs_dir)
    assert [check.matches(a, b) for a, b in zip(reference, got)] == [True, False, True]

    # Point 2's matrix with one diagonal entry scaled by 1 + 1e-6.
    sigma = call_dir / "est" / "sigma_002.csv"
    _edit_matrix(sigma, 0, 0, lambda v: v * (1 + 1e-6))
    got = check.summarize(SMALL, str(call_dir), r.inputs_dir)
    assert got[2] is not None and not check.matches(reference[2], got[2])

    # An off-diagonal change on one side only breaks symmetry: an invariant failure.
    _edit_matrix(sigma, 0, 1, lambda v: v + 1e-6)
    assert check.summarize(SMALL, str(call_dir), r.inputs_dir)[2] is None


def test_inputs_depend_only_on_the_seed(tmp_path):
    w = WORKLOADS["backtest-rolling"]
    a = cached_inputs(w, 5, str(tmp_path / "a"))
    b = cached_inputs(w, 5, str(tmp_path / "b"))
    c = cached_inputs(w, 6, str(tmp_path / "c"))
    read = lambda d: open(os.path.join(d, "panel.csv"), "rb").read()  # noqa: E731
    assert read(a) == read(b) != read(c)


def test_bare_directory_fails_without_a_result(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("_work", "__pycache__", ".pytest_cache"))
    shutil.copyfile(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "simulate-paper", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def _check_traced_run(r: run.Run, expected: dict) -> None:
    assert all(c["failed"] == 0 for c in r.calls)  # includes traced == untraced artifacts
    traced = [c for c in r.calls if c["trace"]]
    untraced = [c for c in r.calls if not c["trace"]]
    signatures = [run.count_signature(c["trace_summary"]) for c in traced]
    assert all(s == signatures[0] for s in signatures)
    calls = signatures[0]["calls"]
    assert {name: calls.get(name) for name in expected} == expected
    for c in traced:
        summary = c["trace_summary"]
        assert summary["main_self_s"] == pytest.approx(c["wall_s"], rel=1e-3)
    metrics = run.per_layer(traced, untraced)
    assert set(metrics) == {name for name, *_ in run.PER_LAYER}


def test_simulate_paper_traced_counts(tmp_path):
    r = _calls(WORKLOADS["simulate-paper"], 0, [0, 1, 1], tmp_path)
    assert r.reference is not None
    _check_traced_run(r, {
        "forest.grow_tree": 3000,
        "forest.weight_vector": 660,
        "covariance.raw_cov": 330,
        "thresholding.ForestCV.select": 30,
        "thresholding.shrink": 6466,
    })


def test_estimate_query_traced_counts(tmp_path):
    r = _calls(WORKLOADS["estimate-query"], 0, [0, 1], tmp_path)
    assert r.reference is not None
    _check_traced_run(r, {
        "forest.grow_tree": 1200,
        "forest.weight_vector": 13200,
        "covariance.raw_cov": 6600,
        "thresholding.shrink": 63600,
    })
