"""H-LU benchmark: factorization time per execution mode, and a traced run.

    python3 perfbench/run.py --workload bem1d --seed 1 --seconds 36 --trace 0

Run from the root of a source checkout; the library is imported from
``src/``.  With ``--trace 0`` the run times set-up, the sequential
factorization, the task runtime with 1 and 2 workers (and 2 workers with
the taskwait-at-end nesting model), applying the factor, the residual and
the peak memory.  With ``--trace 1`` it installs wrappers around the
library's layers and reports per-layer counts and times instead.

Earlier lines of standard output carry the environment, the sample counts
and a readable table; the last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
when every factorization passed its checks, 1 when one failed, and 2 when
the library sources are missing or the arguments are invalid.
"""

import os

# One BLAS thread per call, set before numpy loads: parallelism belongs to
# the task runtime, and single-threaded kernels keep the timings steady.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def git_sha():
    """Commit of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def blas_threads():
    """Thread count each loaded OpenBLAS reports, keyed by library file."""
    import numpy
    import scipy

    out = {}
    for package in (numpy, scipy):
        libs = Path(package.__file__).parent.parent / f"{package.__name__}.libs"
        for path in glob.glob(str(libs / "*openblas*")):
            lib = ctypes.CDLL(path)
            for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
                fn = getattr(lib, symbol, None)
                if fn is not None:
                    fn.argtypes = []
                    fn.restype = ctypes.c_int
                    out[Path(path).name] = fn()
                    break
    return out


def environment():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": git_sha(),
    }


def result_line(run, metrics, units):
    missing = [name for name in units if name not in metrics]
    if missing and run.failed == 0:
        raise RuntimeError(f"metrics not measured: {missing}")
    return {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            name: {"value": float(metrics.get(name, 0.0)), "unit": unit}
            for name, unit in units.items()
        },
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "hluflow" / "__init__.py").is_file():
        print(f"error: library sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import hlubench
    import layers

    workload = hlubench.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(hlubench.WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.trace:
        run, metrics, samples = layers.traced_run(workload, args.seed, args.seconds)
        units = layers.PER_LAYER
    else:
        run, metrics, samples = hlubench.measure(workload, args.seed, args.seconds)
        units = hlubench.END_TO_END
    result = result_line(run, metrics, units)

    print(json.dumps({"env": environment(), "workload": workload.name, "seed": args.seed}))
    print(json.dumps({"samples": samples}))
    for name, m in result["metrics"].items():
        print(f"{name:42s} {m['value']:.6g} {m['unit']}")
    print(f"failed/attempted {run.failed}/{run.attempted}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
