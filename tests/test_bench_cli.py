import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dataclasses import fields

from hluflow.bench import BenchConfig, build_case, run_bench
from hluflow.cli import (
    EXIT_CONFIG,
    EXIT_DEADLOCK,
    EXIT_NUMERICAL,
    EXIT_OK,
    build_parser,
    main,
)
import hluflow
from hluflow import bench
from hluflow.lowrank import BLAS_LIBRARY
from hluflow.blocks import build_diagonal_2x2_tree
from hluflow.hmatrix import build_hmatrix, flatten, load_hmatrix, structure_dump
from hluflow.runtime import Runtime


class TestBenchConfig:
    def test_json_round_trip(self):
        cfg = BenchConfig(
            case="bem", n=256, d=2, eta=0.25, leafsize=32, eps=1e-8,
            mode="par", workers=3, wd_er=False, repetitions=2, seed=9,
        )
        again = BenchConfig(**json.loads(cfg.to_json())).validate()
        assert again == cfg

    def test_validation(self):
        with pytest.raises(ValueError):
            BenchConfig(case="nope").validate()
        with pytest.raises(ValueError):
            BenchConfig(repetitions=0).validate()
        with pytest.raises(ValueError):
            BenchConfig(case="bem", d=4).validate()
        with pytest.raises(ValueError):
            BenchConfig(mode="hybrid").validate()
        with pytest.raises(ValueError, match="workers must be >= 1"):
            BenchConfig(workers=0).validate()


MEASURES = ("times", "time", "plan_time", "assemble_time", "slots", "speedup", "flops", "gflops", "residual", "peak_rank")


class TestRunBench:
    def test_dense_seq(self):
        cfg = BenchConfig(case="dense2x2", n=256, r=3, mode="seq", repetitions=2)
        res = run_bench(cfg)
        assert res["residual"] <= 1e-11
        assert res["gflops"] > 0
        assert res["speedup"] == 1.0
        assert res["flops"] == 2 * 256**3 / 3
        assert len(res["times"]) == 2
        assert res["time"] == statistics.median(res["times"])
        assert res["plan_time"] > 0
        assert isinstance(res["assemble_time"], float) and res["assemble_time"] > 0
        assert res["peak_rank"] == 0

    def test_dense_par_speedup_field(self):
        cfg = BenchConfig(
            case="dense2x2", n=256, r=3, mode="par", workers=2, repetitions=2
        )
        res = run_bench(cfg)
        assert res["speedup"] > 0
        assert math.isfinite(res["residual"])

    def test_bem_counts_effective_flops(self):
        cfg = BenchConfig(
            case="bem", n=512, d=1, eta=0.5, leafsize=64, mode="seq", repetitions=1
        )
        res = run_bench(cfg)
        assert res["flops"] > 0
        assert res["peak_rank"] >= 1
        assert res["residual"] <= 1e-4

    def test_residual_never_nan_on_success(self):
        cfg = BenchConfig(case="bem", n=256, leafsize=32, repetitions=1)
        res = run_bench(cfg)
        assert math.isfinite(res["residual"])


class TestTables:
    """The bench table is one JSON row: the config's fields, then the measures."""

    def test_json_rows_match_columns(self):
        cfg = BenchConfig(case="dense2x2", n=128, r=2, mode="par", workers=2, repetitions=1)
        row = json.loads(json.dumps(run_bench(cfg)))
        names = [f.name for f in fields(BenchConfig)]
        assert list(row) == names + list(MEASURES)
        assert BenchConfig(**{name: row[name] for name in names}) == cfg

    def test_single_seq_row_speedup_one(self):
        row = run_bench(BenchConfig(case="dense2x2", n=128, r=2, repetitions=1))
        assert row["speedup"] == 1.0

    def test_deterministic_rerun_non_timing_columns(self):
        cfg_text = BenchConfig(
            case="bem", n=256, leafsize=32, mode="par", workers=1, repetitions=1
        ).to_json()
        rows = []
        for _ in range(2):
            row = run_bench(BenchConfig(**json.loads(cfg_text)).validate())
            rows.append({k: v for k, v in row.items() if k not in ("times", "time", "plan_time", "assemble_time", "gflops", "speedup")})
        assert rows[0] == rows[1]


class TestCli:
    def test_bench_exit_ok(self, tmp_path, capsys):
        out = tmp_path / "row.json"
        code = main(
            [
                "bench", "--case", "dense2x2", "--n", "128", "--r", "2",
                "--repetitions", "1", "--output", str(out),
            ]
        )
        assert code == EXIT_OK
        printed = capsys.readouterr().out
        assert out.read_text() == printed and printed.count("\n") == 1
        row = json.loads(printed)
        assert row["case"] == "dense2x2" and row["n"] == 128
        assert math.isfinite(row["residual"])

    def test_bench_has_no_format_option(self, capsys):
        assert main(["bench", "--format", "csv", "--dump-config"]) == EXIT_CONFIG

    @pytest.mark.parametrize("residual", [float("nan"), float("inf"), -float("inf")])
    def test_bench_nan_residual_exit(self, monkeypatch, capsys, residual):
        # a non-finite residual is written as strict JSON null and fails the run
        monkeypatch.setattr(bench, "run_bench", lambda cfg: {"residual": residual})
        assert main(["bench", "--case", "dense2x2", "--n", "64", "--r", "2"]) == EXIT_NUMERICAL
        out = capsys.readouterr().out
        assert json.loads(out, parse_constant=lambda token: pytest.fail(token))["residual"] is None

    def test_nan_probe_fails_bench_and_verify(self, monkeypatch, tmp_path, capsys):
        # NaN probes give a NaN residual, which fails both commands
        monkeypatch.setattr(bench, "upper_matvec", lambda h, x: np.full_like(x, np.nan))
        out = tmp_path / "row.json"
        args = ["--case", "dense2x2", "--n", "64", "--r", "2"]
        assert main(["bench", *args, "--repetitions", "1", "--output", str(out)]) == EXIT_NUMERICAL
        assert json.loads(out.read_text())["residual"] is None
        capsys.readouterr()
        assert main(["verify", *args]) == EXIT_NUMERICAL
        printed = capsys.readouterr().out.splitlines()
        assert printed[0].startswith("residual nan") and printed[-1] == "FAIL"

    def test_deadlock_exit(self, monkeypatch, capsys, bounded):
        # a run whose first task never becomes ready ends with the runtime's report
        run = Runtime.run

        def wedged(rt):
            task = rt.tasks[0]
            with rt._lock:
                task.pending += 1
                rt._ready.clear()
                task.ready_t = None
            return run(rt)

        monkeypatch.setattr(Runtime, "run", wedged)
        code = bounded(lambda: main(
            ["bench", "--case", "dense2x2", "--n", "64", "--r", "2", "--mode", "par",
             "--workers", "2", "--repetitions", "1"]
        ))
        assert code == EXIT_DEADLOCK
        err = capsys.readouterr().err
        assert err.startswith("deadlock: ") and "  'lu[0:64)x[0:64)': not ready" in err

    def test_dump_config_round_trip(self, capsys):
        code = main(
            [
                "bench", "--case", "bem", "--n", "256", "--d", "2", "--eta", "0.25",
                "--leafsize", "32", "--order", "3", "--eps", "1e-7", "--mode", "par",
                "--workers", "2", "--no-wd-er", "--repetitions", "4", "--seed", "5",
                "--dump-config",
            ]
        )
        assert code == EXIT_OK
        cfg = BenchConfig(**json.loads(capsys.readouterr().out)).validate()
        assert cfg == BenchConfig(
            case="bem", n=256, d=2, eta=0.25, leafsize=32, order=3, eps=1e-7,
            mode="par", workers=2, wd_er=False, repetitions=4, seed=5,
        )

    def test_verify_pass_and_fail(self, capsys):
        args = ["verify", "--case", "bem", "--n", "256", "--leafsize", "32"]
        assert main(args) == EXIT_OK
        assert main(args + ["--tolerance", "1e-18"]) == EXIT_NUMERICAL

    def test_invalid_config_exit(self, capsys):
        assert main(["bench", "--case", "dense2x2", "--n", "1"]) == EXIT_CONFIG
        assert main(["bench", "--mode", "weird"]) == EXIT_CONFIG

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--eps", "nan"),
            ("--eps", "inf"),
            ("--eta", "nan"),
            ("--tolerance", "nan"),
            ("--tolerance", "inf"),
            ("--tolerance", "-1"),
        ],
    )
    def test_verify_rejects_non_finite_tolerances(self, capsys, flag, value):
        args = ["verify", "--case", "bem", "--n", "128", "--leafsize", "16", flag, value]
        assert main(args) == EXIT_CONFIG
        assert "error:" in capsys.readouterr().err

    def test_assemble_round_trip(self, tmp_path, capsys):
        out = tmp_path / "h.npz"
        dump = tmp_path / "structure.txt"
        code = main(
            [
                "assemble", "--case", "bem", "--n", "256", "--eta", "0.5",
                "--leafsize", "32", "--output", str(out), "--structure", str(dump),
            ]
        )
        assert code == EXIT_OK
        h = load_hmatrix(out)
        assert h.rows == 256
        assert "lowrank" in dump.read_text()

    def test_assemble_dump_to_stdout(self, capsys):
        assert main(["assemble", "--case", "bem", "--n", "256", "--leafsize", "32"]) == EXIT_OK
        cfg = BenchConfig(case="bem", n=256, leafsize=32)
        assert capsys.readouterr().out == structure_dump(build_case(cfg))

    def test_assemble_rejects_dense2x2(self, tmp_path, capsys):
        out = tmp_path / "h.npz"
        assert main(["assemble", "--case", "dense2x2", "--output", str(out)]) == EXIT_CONFIG
        assert "expects --case bem" in capsys.readouterr().err
        assert not out.exists()

    def test_graph_export(self, tmp_path, capsys):
        out = tmp_path / "g.dot"
        code = main(
            ["graph-export", "--case", "dense2x2", "--n", "64", "--r", "2",
             "--output", str(out)]
        )
        assert code == EXIT_OK
        text = out.read_text()
        assert text.startswith("digraph")
        assert "lu[0:32)x[0:32)" in text

    def test_graph_export_to_stdout(self, tmp_path, capsys):
        args = ["graph-export", "--case", "dense2x2", "--n", "64", "--r", "2"]
        assert main(args) == EXIT_OK
        printed = capsys.readouterr().out
        assert main(args + ["--output", str(tmp_path / "g.dot")]) == EXIT_OK
        assert printed.startswith("digraph") and printed == (tmp_path / "g.dot").read_text()

    def test_graph_export_follows_workers(self, tmp_path, capsys):
        # the granularity cutoff depends on the worker count: one worker runs
        # each operation below the root as one task, four keep nested levels
        texts = {}
        for workers in (1, 4):
            out = tmp_path / f"g{workers}.dot"
            code = main(
                ["graph-export", "--case", "dense2x2", "--n", "256", "--r", "3",
                 "--workers", str(workers), "--output", str(out)]
            )
            assert code == EXIT_OK
            texts[workers] = out.read_text()
        assert "lu[0:128)x[0:128)" in texts[1]
        assert "lu[0:64)x[0:64)" in texts[4]
        assert "lu[0:64)x[0:64)" not in texts[1]

    def test_graph_export_trace_rows(self, tmp_path, capsys):
        dot, csv = tmp_path / "g.dot", tmp_path / "t.csv"
        code = main(
            ["graph-export", "--case", "dense2x2", "--n", "256", "--r", "3",
             "--workers", "4", "--output", str(dot), "--trace", str(csv)]
        )
        assert code == EXIT_OK
        header, *rows = csv.read_text().splitlines()
        assert header.startswith("task,parent,label,")
        nodes = [line for line in dot.read_text().splitlines() if "[label=" in line]
        assert len(rows) == len(nodes) > 1

    def test_graph_export_trace_builds_case_once(self, tmp_path, monkeypatch):
        calls = []
        build_case = bench.build_case

        def counting(cfg):
            calls.append(cfg)
            return build_case(cfg)

        monkeypatch.setattr(bench, "build_case", counting)
        code = main(
            ["graph-export", "--case", "dense2x2", "--n", "64", "--r", "2", "--workers", "2",
             "--output", str(tmp_path / "g.dot"), "--trace", str(tmp_path / "t.csv")]
        )
        assert code == EXIT_OK
        assert len(calls) == 1

    def test_graph_export_trace_plans_once(self, tmp_path, monkeypatch):
        # the DOT and the trace come from one plan: its formats and storage are
        # fixed once, and collect-mode emission runs no kernel on them
        plans = []
        make_plan = bench.make_plan

        def counting(*args, **kwargs):
            plans.append(make_plan(*args, **kwargs))
            return plans[-1]

        monkeypatch.setattr(bench, "make_plan", counting)
        code = main(
            ["graph-export", "--case", "bem", "--d", "1", "--n", "256", "--leafsize", "32",
             "--workers", "2", "--output", str(tmp_path / "g.dot"), "--trace", str(tmp_path / "t.csv")]
        )
        assert code == EXIT_OK
        assert len(plans) == 1 and plans[0].flops.total > 0

    def test_bench_singular_exit(self, monkeypatch, capsys, bounded):
        zero = build_hmatrix(build_diagonal_2x2_tree(256, 3)[0])
        monkeypatch.setattr(bench, "build_case", lambda cfg: zero)
        code = bounded(lambda: main(
            ["bench", "--case", "dense2x2", "--n", "256", "--r", "3", "--mode", "par",
             "--workers", "2", "--repetitions", "1"]
        ))
        assert code == EXIT_NUMERICAL
        assert "row 0 of block lu[0:64)x[0:64)" in capsys.readouterr().err  # a coalesced block

    @pytest.mark.skipif(BLAS_LIBRARY == "scipy", reason="numpy ships no OpenBLAS here")
    @pytest.mark.parametrize("user", [None, "2"], ids=["unset", "user-set"])
    def test_main_pins_blas_threads(self, user):
        # OpenBLAS reads its thread count when the package imports numpy, before
        # main runs: main sets one thread in the loaded library unless the user
        # chose a count
        script = (
            "import ctypes, hluflow.cli as cli, hluflow.lowrank as lowrank\n"
            "get = ctypes.CDLL(lowrank.BLAS_LIBRARY).scipy_openblas_get_num_threads64_\n"
            "before = get()\n"
            "cli.main(['bench', '--dump-config'])\n"
            "print(before, get())\n"
        )
        env = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
        env["PYTHONPATH"] = str(Path(hluflow.__file__).parent.parent)
        if user is not None:
            env["OPENBLAS_NUM_THREADS"] = user
        out = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True,
            timeout=120, check=True,
        ).stdout
        before, after = map(int, out.splitlines()[-1].split())
        assert after == (1 if user is None else before)

    def test_parser_covers_all_config_fields(self):
        # every BenchConfig field is reachable from the bench flags
        parser = build_parser()
        args = parser.parse_args(["bench"])
        from hluflow.cli import _config_from_args

        cfg = _config_from_args(args)
        assert BenchConfig(**json.loads(cfg.to_json())).validate() == cfg


def test_build_case_deterministic():
    cfg = BenchConfig(case="dense2x2", n=128, r=2, seed=3)
    a = flatten(build_case(cfg))
    b = flatten(build_case(cfg))
    assert np.array_equal(a, b)
