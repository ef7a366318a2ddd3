import json
import math

import numpy as np
import pytest

from hluflow.bench import (
    BenchConfig,
    TABLE_COLUMNS,
    build_case,
    emit_csv,
    emit_json,
    emit_text,
    run_bench,
)
from hluflow.cli import (
    EXIT_CONFIG,
    EXIT_NUMERICAL,
    EXIT_OK,
    WORKERS_ENV,
    build_parser,
    main,
)
from hluflow.hmatrix import flatten, load_hmatrix


class TestBenchConfig:
    def test_json_round_trip(self):
        cfg = BenchConfig(
            case="bem", n=256, d=2, eta=0.25, leafsize=32, eps=1e-8,
            mode="par", workers=3, wd_er=False, repetitions=2, seed=9,
        )
        again = BenchConfig.from_json(cfg.to_json())
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


class TestRunBench:
    def test_dense_seq(self):
        cfg = BenchConfig(case="dense2x2", n=256, r=3, mode="seq", repetitions=2)
        res = run_bench(cfg)
        assert res.residual <= 1e-11
        assert res.gflops > 0
        assert res.speedup == 1.0
        assert res.flops == 2 * 256**3 / 3
        assert len(res.times) == 2
        assert res.peak_rank == 0

    def test_dense_par_speedup_field(self):
        cfg = BenchConfig(
            case="dense2x2", n=256, r=3, mode="par", workers=2, repetitions=2
        )
        res = run_bench(cfg)
        assert res.seq_times and res.speedup > 0
        assert math.isfinite(res.residual)

    def test_bem_counts_effective_flops(self):
        cfg = BenchConfig(
            case="bem", n=512, d=1, eta=0.5, leafsize=64, mode="seq", repetitions=1
        )
        res = run_bench(cfg)
        assert res.flops > 0
        assert res.peak_rank >= 1
        assert res.residual <= 1e-4

    def test_residual_never_nan_on_success(self):
        cfg = BenchConfig(case="bem", n=256, leafsize=32, repetitions=1)
        res = run_bench(cfg)
        assert math.isfinite(res.residual)


class TestTables:
    def make_result(self):
        cfg = BenchConfig(case="dense2x2", n=128, r=2, repetitions=1)
        return run_bench(cfg)

    def test_csv_header_stable(self):
        res = self.make_result()
        text = emit_csv([res])
        header = text.split("\n", 1)[0]
        assert header == "case,n,eta_or_r,mode,workers,wd_er,time,gflops,speedup,residual"
        assert len(text.strip().split("\n")) == 2

    def test_json_rows_match_columns(self):
        res = self.make_result()
        rows = json.loads(emit_json([res]))
        assert set(rows[0]) == set(TABLE_COLUMNS)

    def test_single_seq_row_speedup_one(self):
        res = self.make_result()
        row = json.loads(emit_json([res]))[0]
        assert row["speedup"] == 1.0

    def test_deterministic_rerun_non_timing_columns(self):
        cfg_text = BenchConfig(
            case="bem", n=256, leafsize=32, mode="par", workers=1, repetitions=1
        ).to_json()
        rows = []
        for _ in range(2):
            cfg = BenchConfig.from_json(cfg_text)
            row = run_bench(cfg).row()
            rows.append({k: row[k] for k in TABLE_COLUMNS if k not in ("time", "gflops", "speedup")})
        assert rows[0] == rows[1]

    def test_text_table_aligned(self):
        res = self.make_result()
        text = emit_text([res])
        lines = text.rstrip("\n").split("\n")
        assert len(lines) == 2
        assert len(lines[0]) == len(lines[1])


class TestCli:
    def test_bench_exit_ok(self, tmp_path, capsys):
        out = tmp_path / "t.csv"
        code = main(
            [
                "bench", "--case", "dense2x2", "--n", "128", "--r", "2",
                "--repetitions", "1", "--output", str(out),
            ]
        )
        assert code == EXIT_OK
        assert out.read_text().startswith("case,")

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
        cfg = BenchConfig.from_json(capsys.readouterr().out.strip())
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

    def test_workers_env_override(self, monkeypatch, capsys):
        monkeypatch.setenv(WORKERS_ENV, "3")
        code = main(
            ["bench", "--case", "dense2x2", "--n", "64", "--r", "2",
             "--mode", "par", "--repetitions", "1", "--dump-config"]
        )
        assert code == EXIT_OK
        cfg = BenchConfig.from_json(capsys.readouterr().out.strip())
        assert cfg.workers == 3

    def test_parser_covers_all_config_fields(self):
        # every BenchConfig field is reachable from the bench flags
        parser = build_parser()
        args = parser.parse_args(["bench"])
        from hluflow.cli import _config_from_args

        cfg = _config_from_args(args)
        assert BenchConfig.from_json(cfg.to_json()) == cfg


def test_build_case_deterministic():
    cfg = BenchConfig(case="dense2x2", n=128, r=2, seed=3)
    a = flatten(build_case(cfg))
    b = flatten(build_case(cfg))
    assert np.array_equal(a, b)
