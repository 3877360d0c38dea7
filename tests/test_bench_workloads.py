"""A smoke run of the benchmark's gated workloads: chain-ladder
(synthesize -> verify on chains) and reduce-solve (reduce -> solve on
independent-set antimatroids).  Their inputs are generated at seed 1, every
instance is run twice through perfbench/workloads.py, and each answer must
pass the workload's own oracle, so a change that would make the benchmark
report wrong outputs or a failed run fails here first.  Each oracle must
also reject one instance's tampered outputs.  The two run-level problems
perfbench/run.py reports must not arise either: the second pass writes the
same bundles, byte for byte, as the first, and a second set-up at the same
seed writes the same input files.  perfbench/ is imported as it is, from
its file."""

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


def files_in(directory: Path) -> dict[str, bytes]:
    return {path.name: path.read_bytes() for path in sorted(directory.iterdir())}


@pytest.mark.parametrize("workload", ["chain-ladder", "reduce-solve"])
def test_one_pass_of_each_gated_workload_is_correct(workloads, workload, tmp_path):
    work, again = tmp_path / "work", tmp_path / "again"
    work.mkdir()
    again.mkdir()
    instances = workloads.generate(workload, 1, work)
    assert len(instances) >= 9
    workloads.generate(workload, 1, again)
    assert files_in(again) == files_in(work), "set-up wrote different inputs for the same seed"
    bundles = []
    for _ in range(2):
        for instance in instances:
            times, outputs = workloads.run_instance(instance)
            assert set(times) == {"build", "check"}, instance.name
            assert workloads.problems_of(instance, outputs) == [], instance.name
        bundles.append({instance.name: instance.bundle.read_bytes() for instance in instances})
    assert bundles[0] == bundles[1], "bundles are not byte-identical between passes"
    assert workloads.problems_of(instance, instance.tamper(outputs)), instance.name
