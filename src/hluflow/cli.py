"""Command-line driver: bench, verify, assemble and graph-export subcommands.

Exit codes: 0 success, 2 invalid configuration, 3 numerical failure,
4 deadlock reported by the runtime.
"""

import argparse
import json
import math
import sys
from dataclasses import fields

from .lowrank import pin_blas_threads

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_DEADLOCK = 4


def _case_flags(p):
    p.add_argument("--case", choices=("dense2x2", "bem"), default="dense2x2")
    p.add_argument("--n", type=int, default=1024)
    p.add_argument("--r", type=int, default=4, help="dense2x2 recursion depth")
    p.add_argument("--d", type=int, default=1, help="bem kernel dimension")
    p.add_argument(
        "--eta",
        type=float,
        default=0.5,
        help="admissibility parameter (typical sweep: 0.25 0.5 1.0 2.0)",
    )
    p.add_argument("--leafsize", type=int, default=512)
    p.add_argument("--order", type=int, default=0, help="interpolation order (0 = default)")
    p.add_argument("--eps", type=float, default=1e-6, help="truncation tolerance")
    p.add_argument("--kmax", type=int, default=None, help="hard rank cap")
    p.add_argument("--seed", type=int, default=0)


def _runtime_flags(p):
    p.add_argument("--workers", type=int, default=1)
    wd = p.add_mutually_exclusive_group()
    wd.add_argument("--wd-er", dest="wd_er", action="store_true", default=True)
    wd.add_argument("--no-wd-er", dest="wd_er", action="store_false")


def build_parser():
    ap = argparse.ArgumentParser(prog="hluflow", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    b = sub.add_parser("bench", help="time a factorization and print one JSON row")
    _case_flags(b)
    _runtime_flags(b)
    b.add_argument("--mode", choices=("seq", "par"), default="seq")
    b.add_argument("--repetitions", type=int, default=3)
    b.add_argument("--output", default=None, help="also write the row to this path")
    b.add_argument(
        "--dump-config", action="store_true", help="print the JSON config and exit"
    )

    v = sub.add_parser("verify", help="factorize sequentially and check residuals")
    _case_flags(v)
    v.add_argument("--tolerance", type=float, default=1e-4)

    a = sub.add_parser("assemble", help="assemble a kernel H-matrix and save it")
    _case_flags(a)
    a.add_argument("--output", default=None, help="npz path for the matrix payload")
    a.add_argument("--structure", default=None, help="path for the leaf-list dump")

    g = sub.add_parser("graph-export", help="emit the task graph as DOT")
    _case_flags(g)
    _runtime_flags(g)
    g.add_argument("--output", default=None, help="DOT path (default stdout)")
    g.add_argument("--trace", default=None, help="also run and write the trace CSV here")
    return ap


def _config_from_args(args):
    from .bench import BenchConfig

    given = vars(args)
    values = {f.name: given[f.name] for f in fields(BenchConfig) if f.name in given}
    return BenchConfig(**values).validate()


def _cmd_bench(args):
    from .bench import run_bench

    cfg = _config_from_args(args)
    if args.dump_config:
        print(cfg.to_json())
        return EXIT_OK
    row = run_bench(cfg)
    finite = math.isfinite(row["residual"])
    if not finite:
        row["residual"] = None  # strict JSON has no NaN or Infinity
    line = json.dumps(row, allow_nan=False) + "\n"
    if args.output:
        with open(args.output, "w") as f:
            f.write(line)
    sys.stdout.write(line)
    if not finite:
        print("residual is not finite", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


def _cmd_verify(args):
    import numpy as np

    from .bench import _plan_for, build_case, residual_probe
    from .hlu import hlu_factorize
    from .hmatrix import flatten

    cfg = _config_from_args(args)
    if not (math.isfinite(args.tolerance) and args.tolerance >= 0):
        raise ValueError("tolerance must be finite and >= 0")
    template = build_case(cfg)
    h = template.copy()
    hlu_factorize(_plan_for(cfg, h, "seq"))
    residual = residual_probe(template, h, cfg.seed)
    lines = [f"residual {residual:.3e} (tolerance {args.tolerance:.3e})"]
    ok = residual <= args.tolerance  # False for a NaN or infinite residual
    if cfg.n <= 1024:
        a = flatten(template)
        f = flatten(h)
        l = np.tril(f, -1) + np.eye(cfg.n)
        u = np.triu(f)
        rec = float(np.linalg.norm(l @ u - a) / np.linalg.norm(a))
        lines.append(f"reconstruction {rec:.3e}")
        ok = ok and rec <= args.tolerance
    print("\n".join(lines))
    print("PASS" if ok else "FAIL")
    return EXIT_OK if ok else EXIT_NUMERICAL


def _cmd_assemble(args):
    from .bench import build_case
    from .hmatrix import save_hmatrix, structure_dump

    cfg = _config_from_args(args)
    if cfg.case != "bem":
        print("assemble expects --case bem", file=sys.stderr)
        return EXIT_CONFIG
    h = build_case(cfg)
    dump = structure_dump(h)
    if args.output:
        save_hmatrix(args.output, h)
    if args.structure:
        with open(args.structure, "w") as f:
            f.write(dump)
    else:
        sys.stdout.write(dump)
    return EXIT_OK


def _cmd_graph_export(args):
    from .bench import _plan_for, build_case
    from .hlu import emit_task_graph, hlu_factorize

    cfg = _config_from_args(args)
    plan = _plan_for(cfg, build_case(cfg), "par")
    # collect-mode emission runs no kernel, so the trace factorizes the same plan
    dot = emit_task_graph(plan).to_dot()
    if args.output:
        with open(args.output, "w") as f:
            f.write(dot)
    else:
        sys.stdout.write(dot)
    if args.trace:
        with open(args.trace, "w") as f:
            f.write(hlu_factorize(plan).to_csv())
    return EXIT_OK


def main(argv=None):
    pin_blas_threads()
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return EXIT_CONFIG if e.code not in (0, None) else EXIT_OK
    from .lowrank import SingularBlockError
    from .runtime import DeadlockError

    handlers = {
        "bench": _cmd_bench,
        "verify": _cmd_verify,
        "assemble": _cmd_assemble,
        "graph-export": _cmd_graph_export,
    }
    try:
        return handlers[args.command](args)
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except SingularBlockError as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return EXIT_NUMERICAL
    except DeadlockError as e:
        print(f"deadlock: {e}\n{e.report}", file=sys.stderr)
        return EXIT_DEADLOCK


if __name__ == "__main__":
    sys.exit(main())
