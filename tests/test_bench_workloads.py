"""A smoke run of the benchmark's gated workloads: chain-ladder
(synthesize -> verify on chains) and reduce-solve (reduce -> solve on
independent-set antimatroids).  Their inputs are generated at seed 1, every
instance is run once through perfbench/workloads.py, and each answer must
pass the workload's own oracle, so a change that would make the benchmark
report wrong outputs or a failed run fails here first.  Each oracle must
also reject one instance's tampered outputs.  perfbench/ is imported as it
is, from its file."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up by name
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


@pytest.mark.parametrize("workload", ["chain-ladder", "reduce-solve"])
def test_one_pass_of_each_gated_workload_is_correct(workloads, workload, tmp_path):
    instances = workloads.generate(workload, 1, tmp_path)
    assert len(instances) >= 9
    for instance in instances:
        times, outputs = workloads.run_instance(instance)
        assert set(times) == {"build", "check"}, instance.name
        assert workloads.problems_of(instance, outputs) == [], instance.name
    assert workloads.problems_of(instance, instance.tamper(outputs)), instance.name
