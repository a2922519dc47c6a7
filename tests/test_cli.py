import os
import re
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from dyncov import _streams, cli, forest, portfolio, simulation
from dyncov.cli import EXIT_OK, EXIT_RUNTIME, EXIT_USAGE, main
from dyncov.data import CsvLayout, write_returns_csv
from dyncov.simulation import ModelSpec, sample_dataset


def _write_panel(path, T=30, p=2, d=2, seed=0):
    panel = sample_dataset(ModelSpec(model=1, p=p, d=d, n=T),
                           _streams.substream(seed, _streams.PANEL))
    layout = CsvLayout(
        response_cols=tuple(f"y{j + 1}" for j in range(p)),
        covariate_cols=tuple(f"u{j + 1}" for j in range(d)),
    )
    write_returns_csv(path, panel, layout)
    return layout


def _replace_cell(path, line, column, cell):
    """Overwrite the cell at a 1-based file line and column of a CSV."""
    lines = path.read_text().splitlines()
    row = lines[line - 1].split(",")
    row[column - 1] = cell
    lines[line - 1] = ",".join(row)
    path.write_text("\n".join(lines) + "\n")


ROOT_SPLIT_RULE = "a root split needs floor(s/2) >= 2*min_leaf"


def _eigvalsh_fails(monkeypatch):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvalsh", fail)


def _one_runtime_error(capsys) -> str:
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("runtime error: ")
    return lines[0]


SIM_FLAGS = [
    "simulate", "--model", "1", "--p", "4", "--d", "2", "--n", "30",
    "--reps", "1", "--methods", "static:soft", "--trees", "10",
    "--folds", "3", "--seed", "7",
]


class TestSimulate:
    def test_writes_report(self, tmp_path):
        out = tmp_path / "run"
        assert main(SIM_FLAGS + ["--out", str(out)]) == EXIT_OK
        csv_text = out.with_suffix(".csv").read_text()
        assert csv_text.startswith("# ")
        assert "method,metric,mean,sd" in csv_text
        assert "static:soft,mfl," in csv_text
        assert out.with_suffix(".txt").exists()

    def test_invalid_model_is_usage_error(self, tmp_path, capsys):
        # argparse rejects the flag itself and exits with the usage code.
        with pytest.raises(SystemExit) as err:
            main(["simulate", "--model", "9", "--out", str(tmp_path / "x")])
        assert err.value.code == EXIT_USAGE

    def test_out_of_range_dimensions_usage_error(self, tmp_path):
        code = main(["simulate", "--model", "2", "--d", "1", "--out", str(tmp_path / "x")])
        assert code == EXIT_USAGE

    def test_rerun_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(SIM_FLAGS + ["--out", str(a)]) == EXIT_OK
        assert main(SIM_FLAGS + ["--out", str(b)]) == EXIT_OK
        assert a.with_suffix(".csv").read_bytes().replace(b"out=" + bytes(str(a), "utf8"),
                                                          b"out=" + bytes(str(b), "utf8")) \
            == b.with_suffix(".csv").read_bytes()

    def test_infeasible_min_leaf_is_usage_error(self, tmp_path, capsys):
        # n=30 gives s=15 and |J2|=7: no tree can hold leaves of 9.
        out = tmp_path / "x"
        code = main(SIM_FLAGS + ["--methods", "fdcm:soft", "--min-leaf", "9", "--out", str(out)])
        assert code == EXIT_USAGE
        assert "min_leaf=9 exceeds the J2 half-sample size floor(s/2)=7" in capsys.readouterr().err
        assert not out.with_suffix(".csv").exists()

    def test_unsplittable_root_refused_before_sampling(self, tmp_path, capsys, monkeypatch):
        # n=20 gives s=10 and |J2|=5: a root split needs 10 J2 rows at min_leaf 5,
        # so every tree would be a single leaf.
        def started(*args, **kwargs):
            raise AssertionError("work started")

        monkeypatch.setattr(simulation, "sample_dataset", started)
        out = tmp_path / "x"
        code = main(["simulate", "--model", "1", "--p", "5", "--d", "3", "--n", "20",
                     "--out", str(out)])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert ROOT_SPLIT_RULE in err and "floor(s/2)=5 (s=10) and min_leaf=5" in err
        assert not out.with_suffix(".csv").exists()

    def test_failed_pd_correction_names_replication_and_point(self, tmp_path, capsys,
                                                             monkeypatch):
        _eigvalsh_fails(monkeypatch)
        code = main(SIM_FLAGS + ["--methods", "mfdcm:soft", "--min-leaf", "3",
                                 "--out", str(tmp_path / "x")])
        assert code == EXIT_RUNTIME
        assert _one_runtime_error(capsys) == (
            "runtime error: PD correction at replication 0, test point 0: "
            "eigvalsh failed: Eigenvalues did not converge"
        )

    def test_failed_spectral_loss_names_replication_and_point(self, tmp_path, capsys,
                                                             monkeypatch):
        # static:soft makes no PD correction, so the loss is the first eigvalsh.
        _eigvalsh_fails(monkeypatch)
        code = main(SIM_FLAGS + ["--out", str(tmp_path / "x")])
        assert code == EXIT_RUNTIME
        assert _one_runtime_error(capsys) == (
            "runtime error: spectral loss at replication 0, test point 0: "
            "eigvalsh failed: Eigenvalues did not converge"
        )

    def test_too_few_rows_for_folds_is_usage_error(self, tmp_path, capsys):
        # n=30 cannot hold 16 folds of two rows; every simulate arm runs that CV.
        out = tmp_path / "x"
        code = main(SIM_FLAGS + ["--methods", "fdcm:soft", "--folds", "16", "--out", str(out)])
        assert code == EXIT_USAGE
        assert "n=30 too small for 16-fold CV" in capsys.readouterr().err
        assert not out.with_suffix(".csv").exists()
        assert main(SIM_FLAGS + ["--folds", "16", "--out", str(tmp_path / "static")]) == EXIT_USAGE

    def test_baseline_arm_too_few_rows_for_default_folds(self, tmp_path, capsys, monkeypatch):
        # 8 rows cannot hold 5 folds of two rows; refused before a dataset is sampled.
        def started(*args, **kwargs):
            raise AssertionError("work started")

        monkeypatch.setattr(simulation, "sample_dataset", started)
        out = tmp_path / "x"
        code = main(["simulate", "--model", "1", "--p", "3", "--d", "2", "--n", "8", "--reps", "1",
                     "--methods", "static:soft", "--out", str(out)])
        assert code == EXIT_USAGE
        assert "n=8 too small for 5-fold CV" in capsys.readouterr().err
        assert not out.with_suffix(".csv").exists()
        assert not out.with_suffix(".txt").exists()

    def test_repeated_arm_refused_before_sampling(self, tmp_path, capsys, monkeypatch):
        def started(*args, **kwargs):
            raise AssertionError("work started")

        monkeypatch.setattr(simulation, "sample_dataset", started)
        out = tmp_path / "x"
        code = main(SIM_FLAGS + ["--methods", "static:soft,static:soft,fdcm:soft,fdcm:soft",
                                 "--out", str(out)])
        assert code == EXIT_USAGE
        assert "methods name arm 'static:soft' more than once" in capsys.readouterr().err
        assert not out.with_suffix(".csv").exists()

    def test_method_rule_defaults_to_soft(self, tmp_path):
        bodies = []
        for methods in ("fdcm", "fdcm:soft"):
            out = tmp_path / methods.replace(":", "_")
            argv = SIM_FLAGS + ["--methods", methods, "--min-leaf", "3", "--out", str(out)]
            assert main(argv) == EXIT_OK
            lines = out.with_suffix(".csv").read_text().splitlines()
            bodies.append([line for line in lines if not line.startswith("#")])
        assert bodies[0] == bodies[1]
        assert "fdcm:soft,mfl," in "\n".join(bodies[0])

    def test_kernel_covariate_beyond_d_refused_before_any_work(self, tmp_path, capsys,
                                                               monkeypatch):
        def started(*args, **kwargs):
            raise AssertionError("work started")

        for module, name in ((forest, "grow_tree"), (simulation, "sample_dataset"),
                             (simulation, "kernel_dcm_baseline")):
            monkeypatch.setattr(module, name, started)
        out = tmp_path / "x"
        code = main(["simulate", "--model", "1", "--p", "3", "--d", "2", "--n", "24",
                     "--reps", "1", "--methods", "fdcm:soft,kernel:5:soft", "--trees", "5",
                     "--out", str(out)])
        assert code == EXIT_USAGE
        assert "kernel:5:soft: covariate index must be in 1..2" in capsys.readouterr().err
        assert not out.with_suffix(".csv").exists()

    def test_config_file_and_cli_precedence(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("model=1\np=4\nd=2\nn=30\nreps=1\nmethods=static:soft\n"
                       "trees=10\nfolds=3\nseed=7\n")
        out = tmp_path / "c"
        assert main(["simulate", "--config", str(cfg), "--seed", "8", "--out", str(out)]) == EXIT_OK
        text = out.with_suffix(".csv").read_text()
        assert "seed=8" in text  # CLI flag wins over the file value
        assert "trees=10" in text

    def test_unknown_config_key(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("bogus=1\n")
        assert main(["simulate", "--config", str(cfg)]) == EXIT_USAGE


class TestEstimate:
    def _common(self, tmp_path, T=40):
        train = tmp_path / "train.csv"
        layout = _write_panel(train, T=T, p=3, d=2, seed=3)
        query = tmp_path / "query.csv"
        query.write_text("u1,u2\n0.0,0.0\n0.5,-0.5\n")
        return train, query, layout

    def test_emits_matrices_and_manifest(self, tmp_path):
        train, query, _ = self._common(tmp_path)
        out_dir = tmp_path / "est"
        code = main([
            "estimate", "--train", str(train), "--query", str(query),
            "--response-cols", "y1,y2,y3", "--covariate-cols", "u1,u2",
            "--trees", "10", "--folds", "3", "--out-dir", str(out_dir),
        ])
        assert code == EXIT_OK
        m = np.loadtxt(out_dir / "sigma_000.csv", delimiter=",", comments="#", ndmin=2)
        assert m.shape == (3, 3)
        np.testing.assert_array_equal(m, m.T)
        assert np.linalg.eigvalsh(m)[0] > 0  # corrected stage output
        manifest = (out_dir / "manifest.csv").read_text()
        assert "point,lambda,pd_applied,file" in manifest
        assert "sigma_001.csv" in manifest

    def test_raw_stage_allows_non_pd(self, tmp_path):
        train = tmp_path / "train.csv"
        _write_panel(train, T=10, p=6, d=1, seed=4)  # p > J2 sizes: raw can be singular
        query = tmp_path / "query.csv"
        query.write_text("u1\n0.0\n")
        out_dir = tmp_path / "raw"
        code = main([
            "estimate", "--train", str(train), "--query", str(query),
            "--response-cols", "y1,y2,y3,y4,y5,y6", "--covariate-cols", "u1",
            "--trees", "5", "--min-leaf", "1", "--stage", "raw",
            "--out-dir", str(out_dir),
        ])
        assert code == EXIT_OK
        manifest = (out_dir / "manifest.csv").read_text()
        assert manifest.strip().endswith("0,0.0,0,sigma_000.csv")

    def test_missing_query_file(self, tmp_path):
        train, _, _ = self._common(tmp_path)
        code = main([
            "estimate", "--train", str(train), "--query", str(tmp_path / "nope.csv"),
            "--response-cols", "y1,y2,y3", "--covariate-cols", "u1,u2",
        ])
        assert code == EXIT_USAGE

    def test_missing_layout_flags(self, tmp_path):
        train, query, _ = self._common(tmp_path)
        code = main(["estimate", "--train", str(train), "--query", str(query)])
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("text, where", [
        ("u1,u2\nabc,0.0\n", "non-numeric cell at line 2, column 1"),
        ("u1,u2\n0.0,0.0\n0.5,nan\n", "non-finite cell at line 3, column 2"),
        ("u1,u2\n0.0,-inf\n", "non-finite cell at line 2, column 2"),
        ("u1,u2\n0.0,0.0\n0.5\n", "line 3 has 1 cells, header has 2"),
        ("u1,u2\n", "no query rows"),
    ])
    def test_bad_query_cell_is_usage_error(self, tmp_path, capsys, text, where):
        train, query, _ = self._common(tmp_path)
        query.write_text(text)
        out_dir = tmp_path / "est"
        code = main([
            "estimate", "--train", str(train), "--query", str(query),
            "--response-cols", "y1,y2,y3", "--covariate-cols", "u1,u2",
            "--trees", "4", "--stage", "raw", "--out-dir", str(out_dir),
        ])
        assert code == EXIT_USAGE
        assert where in capsys.readouterr().err
        assert not out_dir.exists()


    def test_infeasible_min_leaf_is_usage_error(self, tmp_path, capsys):
        train, query, _ = self._common(tmp_path)
        out_dir = tmp_path / "est"
        code = main([
            "estimate", "--train", str(train), "--query", str(query),
            "--response-cols", "y1,y2,y3", "--covariate-cols", "u1,u2",
            "--trees", "4", "--min-leaf", "11", "--out-dir", str(out_dir),
        ])
        assert code == EXIT_USAGE
        assert "min_leaf=11 exceeds the J2 half-sample size floor(s/2)=10" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_unsplittable_root_refused_before_training(self, tmp_path, capsys, monkeypatch):
        # 12 rows give s=6 and |J2|=3: leaves of 2 fit, but no split into two.
        train, query, _ = self._common(tmp_path, T=12)
        monkeypatch.setattr(forest, "grow_tree", None)  # growing a tree would raise TypeError
        out_dir = tmp_path / "est"
        code = main([
            "estimate", "--train", str(train), "--query", str(query),
            "--response-cols", "y1,y2,y3", "--covariate-cols", "u1,u2",
            "--trees", "4", "--min-leaf", "2", "--folds", "2", "--out-dir", str(out_dir),
        ])
        assert code == EXIT_USAGE
        assert ROOT_SPLIT_RULE in capsys.readouterr().err
        assert not out_dir.exists()

    def test_failed_pd_correction_names_query_point(self, tmp_path, capsys, monkeypatch):
        train, query, _ = self._common(tmp_path)
        _eigvalsh_fails(monkeypatch)
        code = main([
            "estimate", "--train", str(train), "--query", str(query),
            "--response-cols", "y1,y2,y3", "--covariate-cols", "u1,u2",
            "--trees", "4", "--folds", "3", "--out-dir", str(tmp_path / "est"),
        ])
        assert code == EXIT_RUNTIME
        assert _one_runtime_error(capsys) == (
            "runtime error: PD correction at query point 0: "
            "eigvalsh failed: Eigenvalues did not converge"
        )

    def test_unknown_rule_is_usage_error(self, tmp_path, capsys):
        train, query, _ = self._common(tmp_path)
        code = main([
            "estimate", "--train", str(train), "--query", str(query),
            "--response-cols", "y1,y2,y3", "--covariate-cols", "u1,u2",
            "--trees", "4", "--rule", "bogus", "--out-dir", str(tmp_path / "est"),
        ])
        assert code == EXIT_USAGE
        assert "unknown thresholding rule 'bogus'" in capsys.readouterr().err

    @pytest.mark.parametrize("which", ["train", "query"])
    def test_directory_input_is_usage_error(self, tmp_path, capsys, monkeypatch, which):
        def loaded(*args, **kwargs):
            raise AssertionError("the directory was read")

        monkeypatch.setattr(cli, "load_returns_csv", loaded)
        train, query, _ = self._common(tmp_path)
        paths = {"train": train, "query": query, which: tmp_path}
        out_dir = tmp_path / "est"
        code = main([
            "estimate", "--train", str(paths["train"]), "--query", str(paths["query"]),
            "--response-cols", "y1,y2,y3", "--covariate-cols", "u1,u2",
            "--trees", "4", "--out-dir", str(out_dir),
        ])
        assert code == EXIT_USAGE
        assert f"--{which} file not found: {tmp_path}" in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize("flags, message", [
        (["--folds", "7"], "n=12 too small for 7-fold CV"),
        (["--folds", "1"], "--folds must be >= 2, got 1"),
        (["--grid-size", "-1"], "--grid-size must be >= 0, got -1"),
    ], ids=["folds-7", "folds-1", "grid-size-neg"])
    def test_cv_flags_checked_before_training(self, tmp_path, capsys, monkeypatch, flags, message):
        train, query, _ = self._common(tmp_path, T=12)
        monkeypatch.setattr(forest, "grow_tree", None)  # growing a tree would raise TypeError
        out_dir = tmp_path / "est"
        code = main([
            "estimate", "--train", str(train), "--query", str(query),
            "--response-cols", "y1,y2,y3", "--covariate-cols", "u1,u2",
            "--trees", "4", "--min-leaf", "2", "--out-dir", str(out_dir), *flags,
        ])
        assert code == EXIT_USAGE
        assert message in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize("flags", [["--grid-size", "0"], ["--folds", "7", "--stage", "raw"]],
                             ids=["grid-size-0", "raw-stage-folds-7"])
    def test_cv_flags_accepted(self, tmp_path, flags):
        # A zero grid selects lambda = 0; the raw stage runs no CV, so any fold count fits.
        train, query, _ = self._common(tmp_path, T=12)
        code = main([
            "estimate", "--train", str(train), "--query", str(query),
            "--response-cols", "y1,y2,y3", "--covariate-cols", "u1,u2",
            "--trees", "4", "--min-leaf", "1", "--out-dir", str(tmp_path / "est"), *flags,
        ])
        assert code == EXIT_OK

    def test_small_fold_complement_checked_before_training(self, tmp_path, capsys, monkeypatch):
        # 6 rows in 2 folds leave 3 training rows per fold; 3 folds leave 4, enough.
        train, query, _ = self._common(tmp_path, T=6)
        argv = [
            "estimate", "--train", str(train), "--query", str(query),
            "--response-cols", "y1,y2,y3", "--covariate-cols", "u1,u2",
            "--trees", "2", "--min-leaf", "1", "--subsample", "4",
            "--out-dir", str(tmp_path / "est"),
        ]
        with monkeypatch.context() as patch:
            patch.setattr(forest, "grow_tree", None)  # growing a tree would raise TypeError
            assert main([*argv, "--folds", "2"]) == EXIT_USAGE
        assert "a fold's complement has 3 rows, a fold forest needs 4" in capsys.readouterr().err
        assert not (tmp_path / "est").exists()
        assert main([*argv, "--folds", "3"]) == EXIT_OK

    @pytest.mark.parametrize("cell, what", [
        ("nan", "non-finite"), ("-inf", "non-finite"), ("x", "non-numeric"),
    ])
    def test_bad_train_cell_is_usage_error(self, tmp_path, capsys, cell, what):
        train, query, _ = self._common(tmp_path)
        _replace_cell(train, 4, 2, cell)
        code = main([
            "estimate", "--train", str(train), "--query", str(query),
            "--response-cols", "y1,y2,y3", "--covariate-cols", "u1,u2",
            "--trees", "4", "--stage", "raw", "--out-dir", str(tmp_path / "est"),
        ])
        assert code == EXIT_USAGE
        assert f"{what} cell at line 4, column 2" in capsys.readouterr().err

    def test_repeated_header_column_is_usage_error(self, tmp_path, capsys):
        train, query, _ = self._common(tmp_path)
        _replace_cell(train, 1, 2, "y1")  # header y1,y1,y3,u1,u2
        code = main([
            "estimate", "--train", str(train), "--query", str(query),
            "--response-cols", "y1,y3", "--covariate-cols", "u1,u2",
            "--trees", "4", "--stage", "raw", "--out-dir", str(tmp_path / "est"),
        ])
        assert code == EXIT_USAGE
        assert (f"{train}: column 'y1' appears more than once in the header, at columns 1 and 2"
                in capsys.readouterr().err)
        assert not (tmp_path / "est").exists()


    def test_query_columns_read_by_name(self, tmp_path):
        # Both files name the point u1 = -0.9, u2 = 0.9.
        train, query, _ = self._common(tmp_path)
        argv = ["estimate", "--train", str(train), "--query", str(query),
                "--response-cols", "y1,y2,y3", "--covariate-cols", "u1,u2",
                "--trees", "20", "--min-leaf", "2", "--stage", "raw", "--out-dir", str(tmp_path / "est")]
        written = []
        for text in ("u1,u2\n-0.9,0.9\n", "u2,u1\n0.9,-0.9\n"):
            query.write_text(text)
            assert main(argv) == EXIT_OK
            written.append((tmp_path / "est" / "sigma_000.csv").read_bytes())
        assert written[0] == written[1]

    def test_query_without_a_covariate_column(self, tmp_path, capsys):
        train, query, _ = self._common(tmp_path)
        query.write_text("x,y\n0.0,0.0\n")
        code = main([
            "estimate", "--train", str(train), "--query", str(query),
            "--response-cols", "y1,y2,y3", "--covariate-cols", "u1,u2",
            "--trees", "4", "--stage", "raw", "--out-dir", str(tmp_path / "est"),
        ])
        assert code == EXIT_USAGE
        assert f"{query}: column 'u1' not in header" in capsys.readouterr().err
        assert not (tmp_path / "est").exists()


class TestBacktest:
    def _run(self, tmp_path, extra=(), T=30, out="bt"):
        panel = tmp_path / "panel.csv"
        _write_panel(panel, T=T, p=2, d=2, seed=5)
        out_path = tmp_path / out
        code = main([
            "backtest", "--panel", str(panel),
            "--response-cols", "y1,y2", "--covariate-cols", "u1,u2",
            "--method", "identity", "--window", "10", "--out", str(out_path),
            *extra,
        ])
        return code, out_path

    def test_identity_backtest(self, tmp_path, capsys):
        code, out = self._run(tmp_path)
        assert code == EXIT_OK
        summary = out.with_suffix(".summary.txt").read_text()
        assert "AVR=" in summary and "STD=" in summary and "IR=" in summary
        weights = out.with_suffix(".weights.csv").read_text().splitlines()
        data_rows = [l for l in weights if not l.startswith("#")][1:]
        assert len(data_rows) == 20
        for row in data_rows:
            w = [float(c) for c in row.split(",")[1:]]
            assert w == [0.5, 0.5]

    def test_window_too_large(self, tmp_path):
        code, _ = self._run(tmp_path, extra=["--window", "50"][0:0], T=9)
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("method", ["static:soft", "mfdcm:soft"])
    def test_one_out_of_sample_day_refused_before_any_work(self, tmp_path, capsys, monkeypatch,
                                                           method):
        # 12 rows at window 11 leave 1 day, and the summary needs 2 daily returns.
        def started(*args, **kwargs):
            raise AssertionError("work started")

        monkeypatch.setattr(forest, "grow_tree", started)
        monkeypatch.setattr(portfolio, "static_baseline", started)
        code, out = self._run(tmp_path, T=12, extra=["--method", method, "--window", "11",
                                                     "--min-leaf", "1"])
        assert code == EXIT_USAGE
        assert "panel has 12 rows; window=11 needs at least 13" in capsys.readouterr().err
        assert not out.with_suffix(".returns.csv").exists()

    def test_infeasible_min_leaf_refuses_only_the_forest_arm(self, tmp_path, capsys):
        # window 10 gives s=5 and |J2|=2, below the default min_leaf of 5.
        code, out = self._run(tmp_path, extra=["--method", "mfdcm:soft"])
        assert code == EXIT_USAGE
        assert "min_leaf=5 exceeds the J2 half-sample size floor(s/2)=2" in capsys.readouterr().err
        assert not out.with_suffix(".summary.txt").exists()
        code, _ = self._run(tmp_path, extra=["--method", "static:soft"], out="static")
        assert code == EXIT_OK

    def test_unsplittable_root_refuses_only_the_forest_arm(self, tmp_path, capsys):
        # window 10 gives s=5 and |J2|=2: leaves of 2 fit, but no split into two.
        extra = ["--min-leaf", "2", "--folds", "2"]
        code, out = self._run(tmp_path, extra=extra + ["--method", "mfdcm:soft"])
        assert code == EXIT_USAGE
        assert ROOT_SPLIT_RULE in capsys.readouterr().err
        assert not out.with_suffix(".summary.txt").exists()
        code, _ = self._run(tmp_path, extra=extra, out="identity")
        assert code == EXIT_OK

    def test_failed_pd_correction_names_the_day(self, tmp_path, capsys, monkeypatch):
        _eigvalsh_fails(monkeypatch)
        code, out = self._run(tmp_path, extra=["--method", "static:soft"])
        assert code == EXIT_RUNTIME
        assert _one_runtime_error(capsys) == (
            "runtime error: PD correction at day 0: eigvalsh failed: Eigenvalues did not converge"
        )
        assert not out.with_suffix(".summary.txt").exists()

    def test_failed_cholesky_names_the_day(self, tmp_path, capsys, monkeypatch):
        panel = tmp_path / "panel.csv"
        _write_panel(panel, T=30, p=2, d=2, seed=5)

        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("Matrix is not positive definite")

        monkeypatch.setattr(np.linalg, "cholesky", fail)
        out = tmp_path / "bt"
        code = main(["backtest", "--panel", str(panel), "--response-cols", "y1,y2",
                     "--covariate-cols", "u1,u2", "--method", "identity", "--window", "10",
                     "--out", str(out)])
        assert code == EXIT_RUNTIME
        assert _one_runtime_error(capsys) == (
            "runtime error: minimum-variance weights at day 0 need a positive definite matrix: "
            "Cholesky failed: Matrix is not positive definite"
        )
        assert not out.with_suffix(".summary.txt").exists()

    def test_window_too_small_for_folds_refuses_only_the_forest_arm(self, tmp_path, capsys):
        extra = ["--min-leaf", "2", "--folds", "6"]
        code, out = self._run(tmp_path, extra=extra + ["--method", "mfdcm:soft"])
        assert code == EXIT_USAGE
        assert "n=10 too small for 6-fold CV" in capsys.readouterr().err
        assert not out.with_suffix(".summary.txt").exists()
        code, _ = self._run(tmp_path, extra=extra, out="identity")
        assert code == EXIT_OK

    def test_baseline_window_too_small_for_default_folds(self, tmp_path, capsys, monkeypatch):
        # A window of 8 rows cannot hold 5 folds of two rows; refused before day 1.
        def started(*args, **kwargs):
            raise AssertionError("the static baseline ran")

        monkeypatch.setattr(portfolio, "static_baseline", started)
        code, out = self._run(tmp_path, extra=["--method", "static:soft", "--window", "8"])
        assert code == EXIT_USAGE
        assert "n=8 too small for 5-fold CV" in capsys.readouterr().err
        for suffix in (".returns.csv", ".weights.csv", ".summary.txt"):
            assert not out.with_suffix(suffix).exists()

    def test_directory_panel_is_usage_error(self, tmp_path, capsys, monkeypatch):
        def loaded(*args, **kwargs):
            raise AssertionError("the directory was read")

        monkeypatch.setattr(cli, "load_returns_csv", loaded)
        out = tmp_path / "bt"
        code = main(["backtest", "--panel", str(tmp_path), "--response-cols", "y1,y2",
                     "--covariate-cols", "u1,u2", "--method", "identity", "--window", "10",
                     "--out", str(out)])
        assert code == EXIT_USAGE
        assert f"--panel file not found: {tmp_path}" in capsys.readouterr().err
        assert not out.with_suffix(".summary.txt").exists()

    def test_bad_panel_cell_is_usage_error(self, tmp_path, capsys):
        panel = tmp_path / "panel.csv"
        _write_panel(panel, T=30, p=2, d=2, seed=5)
        _replace_cell(panel, 4, 2, "inf")
        code = main([
            "backtest", "--panel", str(panel), "--response-cols", "y1,y2",
            "--covariate-cols", "u1,u2", "--method", "identity", "--window", "10",
            "--out", str(tmp_path / "bt"),
        ])
        assert code == EXIT_USAGE
        assert "non-finite cell at line 4, column 2" in capsys.readouterr().err

    def test_rerun_byte_identical(self, tmp_path):
        code_a, out_a = self._run(tmp_path, out="a")
        code_b, out_b = self._run(tmp_path, out="b")
        assert code_a == code_b == EXIT_OK
        for suffix in (".returns.csv", ".weights.csv", ".summary.txt"):
            a = out_a.with_suffix(suffix).read_text().replace(str(out_a), "OUT")
            b = out_b.with_suffix(suffix).read_text().replace(str(out_b), "OUT")
            assert a == b

    def test_kernel_covariate_beyond_d_is_usage_error(self, tmp_path, capsys, monkeypatch):
        def started(*args, **kwargs):
            raise AssertionError("the kernel baseline ran")

        monkeypatch.setattr(portfolio, "kernel_dcm_baseline", started)
        code, out = self._run(tmp_path, extra=["--method", "mkernel:3:soft"])
        assert code == EXIT_USAGE
        assert "mkernel:3:soft: covariate index must be in 1..2" in capsys.readouterr().err
        assert not out.with_suffix(".summary.txt").exists()

    def test_invalid_method(self, tmp_path):
        panel = tmp_path / "panel.csv"
        _write_panel(panel, T=30, p=2, d=2, seed=5)
        code = main([
            "backtest", "--panel", str(panel),
            "--response-cols", "y1,y2", "--covariate-cols", "u1,u2",
            "--method", "fdcm:soft", "--window", "10",
            "--out", str(tmp_path / "x"),
        ])
        assert code == EXIT_USAGE


class TestSettings:
    @pytest.mark.parametrize("line, key", [
        ("trees=abc", "trees"), ("trees=", "trees"), ("folds=1", "folds"),
        ("model=9", "model"), ("lambda-mode=all", "lambda-mode"), ("seed=-1", "seed"),
    ])
    def test_bad_config_value_names_file_line_and_key(self, tmp_path, capsys, line, key):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"# a comment\nseed=1\n{line}\n")
        out = tmp_path / "x"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == EXIT_USAGE
        assert f"{cfg}:3: {key}" in capsys.readouterr().err
        assert not out.with_suffix(".csv").exists()

    def test_config_key_set_twice(self, tmp_path, capsys, monkeypatch):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("trees=10\ntrees=20\n")
        self._refused_before_loading(tmp_path, capsys, monkeypatch, ["simulate", "--config", str(cfg)],
                                     f"{cfg}:2: trees is already set at {cfg}:1")

    @pytest.mark.parametrize("command", ["simulate", "estimate", "backtest"])
    def test_default_forest_settings_build_the_default_config(self, command):
        _, _, settings = cli._COMMANDS[command]
        assert cli._forest_config({s.key: s.default for s in settings}) == forest.ForestConfig()

    def test_missing_config_file_names_path(self, tmp_path, capsys):
        cfg = tmp_path / "nope.cfg"
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "x")]) == EXIT_USAGE
        assert str(cfg) in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["estimate", "--lag", "-1"], "--lag must be >= 0, got -1"),
        (["backtest", "--lag", "-1"], "--lag must be >= 0, got -1"),
        (["backtest", "--stride", "0"], "--stride must be >= 1, got 0"),
        (["backtest", "--window", "1"], "--window must be >= 2, got 1"),
        (["simulate", "--seed", "-1"], "--seed must be >= 0, got -1"),
        (["estimate", "--seed", "-1"], "--seed must be >= 0, got -1"),
        (["backtest", "--seed", "-1"], "--seed must be >= 0, got -1"),
    ], ids=["estimate-lag", "backtest-lag", "stride", "window", "simulate-seed", "estimate-seed",
            "backtest-seed"])
    def test_ranges_checked_before_loading(self, tmp_path, capsys, monkeypatch, argv, message):
        self._refused_before_loading(tmp_path, capsys, monkeypatch, argv, message)

    def _refused_before_loading(self, tmp_path, capsys, monkeypatch, argv, message):
        """Run argv, whose flags come last, with loading and tree growth
        patched out; expect exit 2 with message and no output."""
        panel = tmp_path / "panel.csv"
        _write_panel(panel, T=30, p=2, d=2, seed=5)
        query = tmp_path / "query.csv"
        query.write_text("u1,u2\n0.0,0.0\n")
        out = tmp_path / "out"
        csv_cols = ["--response-cols", "y1,y2", "--covariate-cols", "u1,u2"]
        inputs = {
            "simulate": ["--p", "2", "--d", "2", "--n", "30", "--reps", "1", "--out", str(out)],
            "estimate": ["--train", str(panel), "--query", str(query), "--out-dir", str(out),
                         *csv_cols],
            "backtest": ["--panel", str(panel), "--method", "mfdcm:soft", "--window", "16",
                         "--out", str(out), *csv_cols],
        }
        # Loading data or growing a tree would raise TypeError, which exits 1.
        monkeypatch.setattr(cli, "load_returns_csv", None)
        monkeypatch.setattr(forest, "grow_tree", None)
        code = main([argv[0], *inputs[argv[0]], "--trees", "4", "--min-leaf", "2", *argv[1:]])
        assert code == EXIT_USAGE
        assert message in capsys.readouterr().err
        assert not list(tmp_path.glob("out*"))

    @pytest.mark.parametrize("argv, message", [
        (["backtest", "--method", "identity:soft"], "method 'identity' takes no parameter"),
        (["backtest", "--method", "mkernel:0:soft"], "kernel covariate index is 1-based"),
        (["backtest", "--method", "fdcm:soft"], "backtest supports only PD arms"),
        (["backtest", "--method", "mfdcm:2:soft"], "unknown thresholding rule '2:soft'"),
        (["simulate", "--methods", "fdcm:soft,identity"], "simulate supports only"),
    ], ids=["identity-rule", "kernel-zero", "fdcm", "forest-covariate", "simulate-identity"])
    def test_method_refused_before_loading(self, tmp_path, capsys, monkeypatch, argv, message):
        self._refused_before_loading(tmp_path, capsys, monkeypatch, argv, message)

    @pytest.mark.parametrize("argv, rule", [
        (["estimate", "--rule", "alasso:2:x"], "alasso:2:x"),
        (["simulate", "--methods", "fdcm:scad:3.7:banana"], "scad:3.7:banana"),
        (["backtest", "--method", "mkernel:2:alasso:2:5"], "alasso:2:5"),
    ], ids=["estimate", "simulate", "backtest"])
    def test_rule_with_more_parts_than_it_takes(self, tmp_path, capsys, monkeypatch, argv, rule):
        self._refused_before_loading(tmp_path, capsys, monkeypatch, argv,
                                     f"thresholding rule '{rule}' has too many parts")

    @pytest.mark.parametrize("argv, rule, message", [
        (["estimate", "--rule", "scad:abc"], "scad:abc", "a must be a number, got 'abc'"),
        (["simulate", "--methods", "fdcm:alasso:x"], "alasso:x", "eta must be a number, got 'x'"),
        (["backtest", "--method", "mfdcm:scad:"], "scad:", "a must be a number, got ''"),
    ], ids=["estimate", "simulate", "backtest"])
    def test_non_numeric_rule_parameter(self, tmp_path, capsys, monkeypatch, argv, rule, message):
        self._refused_before_loading(tmp_path, capsys, monkeypatch, argv,
                                     f"thresholding rule '{rule}': {message}")

    @pytest.mark.parametrize("key", ["p", "d", "n", "reps"])
    def test_simulate_size_below_one(self, tmp_path, capsys, monkeypatch, key):
        self._refused_before_loading(tmp_path, capsys, monkeypatch, ["simulate", f"--{key}", "0"],
                                     f"--{key} must be >= 1, got 0")
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key}=0\n")
        self._refused_before_loading(tmp_path, capsys, monkeypatch, ["simulate", "--config", str(cfg)],
                                     f"{cfg}:1: {key} must be >= 1, got 0")

    @pytest.mark.parametrize("rule", ["scad:inf", "scad:nan", "alasso:inf", "alasso:nan"])
    @pytest.mark.parametrize("command, flag, prefix", [
        ("estimate", "--rule", ""),
        ("simulate", "--methods", "fdcm:"),
        ("backtest", "--method", "mfdcm:"),
    ], ids=["estimate", "simulate", "backtest"])
    def test_non_finite_rule_parameter(self, tmp_path, capsys, monkeypatch, command, flag,
                                       prefix, rule):
        kind = rule.split(":")[0]
        self._refused_before_loading(tmp_path, capsys, monkeypatch,
                                     [command, flag, prefix + rule], f"{kind} requires a finite")

    @pytest.mark.parametrize("key, value", [("subsample", "-3"), ("mtry", "-1")])
    def test_negative_forest_size_setting(self, tmp_path, capsys, monkeypatch, key, value):
        message = f"--{key} must be >= 0, got {value}"
        self._refused_before_loading(tmp_path, capsys, monkeypatch,
                                     ["simulate", f"--{key}", value], message)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key}={value}\n")
        self._refused_before_loading(tmp_path, capsys, monkeypatch,
                                     ["simulate", "--config", str(cfg)],
                                     f"{cfg}:1: {key} must be >= 0, got {value}")

    @pytest.mark.parametrize("key, value, message", [
        ("trees", "-5", "n_trees must be >= 1, got -5"),
        ("trees", "0", "n_trees must be >= 1, got 0"),
        ("min-leaf", "-2", "min_leaf must be >= 1, got -2"),
        ("omega", "nan", "regularity must be finite and lie in (0, 0.2], got nan"),
        ("omega", "inf", "regularity must be finite and lie in (0, 0.2], got inf"),
        ("omega", "0.3", "regularity must be finite and lie in (0, 0.2], got 0.3"),
        ("random-split-prob", "inf", "random_split_prob must be finite and lie in (0, 1], got inf"),
        ("random-split-prob", "nan", "random_split_prob must be finite and lie in (0, 1], got nan"),
        ("random-split-prob", "0", "random_split_prob must be finite and lie in (0, 1], got 0.0"),
    ], ids=["trees-negative", "trees-zero", "min-leaf-negative", "omega-nan", "omega-inf",
            "omega-above-range", "random-split-prob-inf", "random-split-prob-nan",
            "random-split-prob-zero"])
    @pytest.mark.parametrize("command", [
        ["simulate", "--methods", "static:soft"],
        ["estimate", "--stage", "raw"],
        ["backtest", "--method", "static:soft"],
    ], ids=["simulate-static", "estimate-raw", "backtest-static"])
    def test_forest_rule_checked_for_every_method(self, tmp_path, capsys, monkeypatch, command,
                                                  key, value, message):
        # No forest is grown by these methods, but the settings are still refused.
        self._refused_before_loading(tmp_path, capsys, monkeypatch,
                                     [*command, f"--{key}", value], f"--{key}: {message}")
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"# forest\n{key}={value}\n")
        self._refused_before_loading(tmp_path, capsys, monkeypatch,
                                     [*command, "--config", str(cfg)], f"{cfg}:2: {key}: {message}")

    @pytest.mark.parametrize("command", ["estimate", "backtest"])
    @pytest.mark.parametrize("flags, column", [
        (["--response-cols", "y1,y1"], "y1"),
        (["--covariate-cols", "u1,y1"], "y1"),
        (["--date-col", "y1"], "y1"),
        (["--covariate-cols", "u2,u2"], "u2"),
    ], ids=["repeated-response", "covariate-is-response", "date-is-response",
            "repeated-covariate"])
    def test_layout_column_named_twice(self, tmp_path, capsys, monkeypatch, command, flags,
                                       column):
        self._refused_before_loading(tmp_path, capsys, monkeypatch, [command, *flags],
                                     f"layout names column {column!r} more than once")

    def _small_run(self, tmp_path, command):
        """(argv, artifacts) of a small run; the first artifact holds the config header."""
        if command == "simulate":
            out = tmp_path / "sim"
            artifacts = [out.with_suffix(".csv"), out.with_suffix(".txt")]
            return SIM_FLAGS + ["--out", str(out)], artifacts
        panel = tmp_path / "panel.csv"
        _write_panel(panel, T=24, p=2, d=2, seed=5)
        cols = ["--response-cols", "y1,y2", "--covariate-cols", "u1,u2", "--trees", "4",
                "--min-leaf", "2", "--folds", "2", "--seed", "3"]
        if command == "estimate":
            query = tmp_path / "query.csv"
            query.write_text("u1,u2\n0.0,0.0\n0.5,-0.5\n")
            out = tmp_path / "est"
            argv = ["estimate", "--train", str(panel), "--query", str(query),
                    "--out-dir", str(out), "--stage", "thresholded", *cols]
            return argv, [out / "manifest.csv", out / "sigma_000.csv", out / "sigma_001.csv"]
        out = tmp_path / "bt"
        argv = ["backtest", "--panel", str(panel), "--method", "mfdcm:soft", "--window", "16",
                "--stride", "3", "--lag", "1", "--out", str(out), *cols]
        suffixes = (".returns.csv", ".weights.csv", ".summary.txt")
        return argv, [out.with_suffix(suffix) for suffix in suffixes]

    @pytest.mark.parametrize("command", ["simulate", "estimate", "backtest"])
    def test_config_file_replays_flags(self, tmp_path, capsys, command):
        # Every flag that --help lists is a config key, and a config file made of
        # the embedded key=value header reproduces the flag run byte for byte.
        argv, artifacts = self._small_run(tmp_path, command)
        assert main(argv) == EXIT_OK
        first = [path.read_bytes() for path in artifacts]
        header = [line[2:] for line in artifacts[0].read_text().splitlines()
                  if line.startswith("# ")]
        capsys.readouterr()
        with pytest.raises(SystemExit):
            main([command, "--help"])
        flags = set(re.findall(r"--([a-z][a-z-]*)", capsys.readouterr().out))
        keys = {line.partition("=")[0] for line in header} | {"workers"}
        assert flags - {"help", "config"} == keys

        cfg = tmp_path / "run.cfg"
        cfg.write_text("\n".join(header + ["workers=2"]) + "\n")
        for path in artifacts:
            path.unlink()
        assert main([command, "--config", str(cfg)]) == EXIT_OK
        assert [path.read_bytes() for path in artifacts] == first


class TestWorkersFlag:
    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_below_one_is_usage_error(self, tmp_path, capsys, workers):
        code = main(SIM_FLAGS + ["--workers", workers, "--out", str(tmp_path / "x")])
        assert code == EXIT_USAGE
        assert "--workers must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    def test_training_starts_no_thread(self, tmp_path, monkeypatch):
        def refuse(self):
            raise AssertionError("a thread was started")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        sim = ["simulate", "--model", "1", "--p", "3", "--d", "2", "--n", "24", "--reps", "1",
               "--methods", "fdcm:soft", "--trees", "4", "--folds", "2", "--min-leaf", "2"]
        assert main(sim + ["--workers", "2", "--out", str(tmp_path / "sim")]) == EXIT_OK
        panel = tmp_path / "panel.csv"
        _write_panel(panel, T=26, p=2, d=2, seed=5)
        code = main([
            "backtest", "--panel", str(panel), "--response-cols", "y1,y2",
            "--covariate-cols", "u1,u2", "--method", "mfdcm:soft", "--window", "20",
            "--stride", "6", "--trees", "4", "--folds", "2", "--min-leaf", "2",
            "--workers", "2", "--out", str(tmp_path / "bt"),
        ])
        assert code == EXIT_OK


class TestWorkerDeterminism:
    def test_simulate_workers_match(self, tmp_path):
        flags = [
            "simulate", "--model", "1", "--p", "4", "--d", "2", "--n", "30",
            "--reps", "1", "--methods", "fdcm:soft", "--trees", "8",
            "--min-leaf", "3", "--folds", "3", "--seed", "2",
        ]
        a, b = tmp_path / "w1", tmp_path / "w8"
        assert main(flags + ["--workers", "1", "--out", str(a)]) == EXIT_OK
        assert main(flags + ["--workers", "8", "--out", str(b)]) == EXIT_OK
        strip = lambda p: [l for l in p.with_suffix(".csv").read_text().splitlines()
                           if not (l.startswith("# out=") or l.startswith("# workers="))]
        assert strip(a) == strip(b)

    @pytest.mark.parametrize("folds", ["2", "3"])
    def test_estimate_workers_match(self, tmp_path, folds):
        # Same output paths at both worker counts, so every byte must agree.
        train = tmp_path / "train.csv"
        _write_panel(train, T=30, p=3, d=2, seed=4)
        query = tmp_path / "query.csv"
        query.write_text("u1,u2\n0.0,0.0\n0.5,-0.5\n-0.7,0.2\n")
        out = tmp_path / "est"
        argv = ["estimate", "--train", str(train), "--query", str(query),
                "--response-cols", "y1,y2,y3", "--covariate-cols", "u1,u2",
                "--stage", "corrected", "--trees", "6", "--min-leaf", "2",
                "--folds", folds, "--seed", "5", "--out-dir", str(out)]
        snapshots = []
        for workers in ("1", "2"):
            assert main(argv + ["--workers", workers]) == EXIT_OK
            files = sorted(out.iterdir())
            assert [f.name for f in files] == ["manifest.csv"] + [f"sigma_00{q}.csv" for q in range(3)]
            snapshots.append({f.name: f.read_bytes() for f in files})
            for f in files:
                f.unlink()
        assert snapshots[0] == snapshots[1]


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _before_each_tree(monkeypatch, actions):
    """Patch grow_tree to call ``actions[kind]`` before each tree of response kind ``kind``."""
    grow = forest.grow_tree

    def patched(dataset, j1, j2, response_kind, config, rng):
        actions.get(response_kind, lambda: None)()
        return grow(dataset, j1, j2, response_kind, config, rng)

    monkeypatch.setattr(forest, "grow_tree", patched)


class TestWorkerProcess:
    """At --workers >= 2 one forked process grows each fit's second-moment forest."""

    @staticmethod
    def _estimate(tmp_path):
        train = tmp_path / "train.csv"
        _write_panel(train, T=24, p=2, d=2, seed=6)
        query = tmp_path / "query.csv"
        query.write_text("u1,u2\n0.0,0.0\n")
        return ["estimate", "--train", str(train), "--query", str(query),
                "--response-cols", "y1,y2", "--covariate-cols", "u1,u2", "--trees", "4",
                "--min-leaf", "2", "--folds", "2", "--out-dir", str(tmp_path / "est")]

    def test_worker_failure_reads_as_at_one_worker(self, tmp_path, capsys, monkeypatch):
        # Patched before the command runs, so the forked worker inherits it.
        def fail():
            raise np.linalg.LinAlgError("second-moment growth failed")

        _before_each_tree(monkeypatch, {forest.ResponseKind.SECOND_MOMENT: fail})
        argv = self._estimate(tmp_path)
        outcomes = []
        for workers in ("1", "2"):
            code = main(argv + ["--workers", workers])
            outcomes.append((code, capsys.readouterr().err))
            _no_child_left()
        assert outcomes[0] == outcomes[1] == (
            EXIT_RUNTIME, "runtime error: second-moment growth failed\n")

    def test_parent_failure_kills_the_busy_worker(self, tmp_path, capsys, monkeypatch):
        def fail():
            raise ValueError("mean growth failed")

        _before_each_tree(monkeypatch, {forest.ResponseKind.SECOND_MOMENT: lambda: time.sleep(10),
                                        forest.ResponseKind.MEAN: fail})
        start = time.monotonic()
        assert main(self._estimate(tmp_path) + ["--workers", "2"]) == EXIT_RUNTIME
        # The worker sleeps 10 s before its first tree: it was killed, not awaited.
        assert time.monotonic() - start < 5
        assert _one_runtime_error(capsys) == "runtime error: mean growth failed"
        _no_child_left()

    def test_second_moment_forests_grow_in_the_worker(self, tmp_path, monkeypatch):
        parent = os.getpid()

        def in_parent(expected):
            def check():
                if (os.getpid() == parent) != expected:
                    raise AssertionError(f"tree grown in process {os.getpid()}, parent {parent}")
            return check

        _before_each_tree(monkeypatch, {forest.ResponseKind.MEAN: in_parent(True),
                                        forest.ResponseKind.SECOND_MOMENT: in_parent(False)})
        assert main(self._estimate(tmp_path) + ["--workers", "2"]) == EXIT_OK
        _no_child_left()

    def test_usage_error_after_the_fork_reaps_the_worker(self, tmp_path, capsys):
        argv = self._estimate(tmp_path)
        argv[argv.index("--query") + 1] = str(tmp_path / "missing.csv")
        assert main(argv + ["--workers", "2"]) == EXIT_USAGE
        assert "--query file not found" in capsys.readouterr().err
        _no_child_left()

    def test_many_workers_fork_once(self, tmp_path, monkeypatch):
        forks = []
        real_fork = os.fork

        def counting_fork():
            forks.append(1)
            return real_fork()

        monkeypatch.setattr(os, "fork", counting_fork)
        panel = tmp_path / "panel.csv"
        _write_panel(panel, T=26, p=2, d=2, seed=5)
        code = main([
            "backtest", "--panel", str(panel), "--response-cols", "y1,y2",
            "--covariate-cols", "u1,u2", "--method", "mfdcm:soft", "--window", "20",
            "--stride", "3", "--trees", "4", "--folds", "2", "--min-leaf", "2",
            "--workers", "10000", "--out", str(tmp_path / "bt"),
        ])
        assert code == EXIT_OK
        assert len(forks) == 1  # 2 retrains of 3 fits each, one process
        _no_child_left()

    def test_no_fork_is_usage_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delattr(os, "fork")
        assert main(self._estimate(tmp_path) + ["--workers", "2"]) == EXIT_USAGE
        assert "--workers 2 needs os.fork" in capsys.readouterr().err
        assert not (tmp_path / "est").exists()
