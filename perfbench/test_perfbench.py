"""Smoke test of the benchmark's own code on tiny cases."""

import json
import os
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from hluflow import hlu  # noqa: E402
from hluflow.hmatrix import DENSE  # noqa: E402
from hluflow.lowrank import SingularBlockError  # noqa: E402

import hlubench  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
TINY_DENSE = hlubench.dense2x2("tiny-dense", n=128, r=2)
TINY_BEM = hlubench.bem("tiny-bem", d=1, n=256, leafsize=32)


def units(section):
    return {m["name"]: m["unit"] for m in SPEC[section]}


def test_workloads_match_spec():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(hlubench.WORKLOADS)


@pytest.mark.parametrize("workload", [TINY_DENSE, TINY_BEM], ids=lambda w: w.name)
def test_end_to_end_metrics_emitted_with_units(workload):
    result, metrics, samples = hlubench.measure(workload, seed=3, seconds=0.0)
    line = run.result_line(result, metrics, hlubench.END_TO_END)
    assert line["correct"] and line["failed"] == 0
    assert line["attempted"] == 1 + len(hlubench.MODES) * samples["rounds"]
    assert {k: v["unit"] for k, v in line["metrics"].items()} == units("end_to_end")
    assert all(v["value"] > 0 for v in line["metrics"].values())
    json.loads(json.dumps(line))


def test_traced_metrics_emitted_with_units():
    result, metrics, _ = layers.traced_run(TINY_BEM, seed=3, seconds=0.0)
    line = run.result_line(result, metrics, layers.PER_LAYER)
    assert line["correct"]
    assert {k: v["unit"] for k, v in line["metrics"].items()} == units("per_layer")
    values = {k: v["value"] for k, v in line["metrics"].items()}
    assert values["lowrank.truncate.calls"] > 0
    assert values["runtime.tasks"] == sum(values[f"hlu.tasks.{k}"] for k in layers.TASK_KINDS)


def test_wrappers_are_removed_after_traced_run():
    before = (hlu.hlu_factorize, hlu.add_truncated, hlu._matvec_into)
    layers.traced_run(TINY_DENSE, seed=1, seconds=0.0)
    assert (hlu.hlu_factorize, hlu.add_truncated, hlu._matvec_into) == before


def test_injected_mismatch_counts_as_failure(monkeypatch):
    real = hlu.hlu_factorize

    def perturbed(plan):
        trace = real(plan)
        if plan.mode == hlu.PARALLEL:
            leaf = next(x for x in plan.matrix.leaves() if x.kind == DENSE)
            leaf.data[0, 0] = np.nextafter(leaf.data[0, 0], np.inf)
        return trace

    monkeypatch.setattr(hlu, "hlu_factorize", perturbed)
    result, metrics, samples = hlubench.measure(TINY_DENSE, seed=2, seconds=0.0)
    assert result.failed == 3 * samples["rounds"]
    assert not run.result_line(result, metrics, hlubench.END_TO_END)["correct"]


def test_exception_counts_as_failure_and_run_continues(monkeypatch):
    real = hlu.hlu_factorize

    def singular(plan):
        if plan.workers == 2 and not plan.wd_er:
            raise SingularBlockError("injected", "root")
        return real(plan)

    monkeypatch.setattr(hlu, "hlu_factorize", singular)
    result, metrics, samples = hlubench.measure(TINY_DENSE, seed=2, seconds=0.0)
    assert result.failed == samples["rounds"]
    assert result.attempted == 1 + len(hlubench.MODES) * samples["rounds"]
    assert metrics["factor_par2_taskwait_s"] == 0.0
    assert not run.result_line(result, metrics, hlubench.END_TO_END)["correct"]
