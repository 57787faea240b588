"""Every benchmark operation runs once on cktlab and passes its output check.

`perfbench/workloads.py` writes each workload's seeded inputs, runs its
operations through the cktlab modules and checks the outputs against the
acceptance invariants; a changed CSV column or CLI option would otherwise
surface only in a benchmark run.  The workloads module is read, not changed.
"""

import importlib.util
import os
import pathlib
import tracemalloc

import pytest

import cktlab.cli
import cktlab.polyharm
import cktlab.textio
import cktlab.torusmodel  # noqa: F401  (the operations read these as cktlab.<module>)

WORKLOADS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _workloads()


@pytest.mark.parametrize("workload", sorted(workloads.OPERATIONS))
def test_operations_pass_their_checks(workload, tmp_path, monkeypatch):
    inputs = workloads.generate(workload, 101)
    workloads.write_inputs(tmp_path, inputs)
    monkeypatch.chdir(tmp_path)  # configs name their input files relative to it
    for name, run in workloads.OPERATIONS[workload]:
        assert run(cktlab, os.fspath(tmp_path), inputs["params"]) == [], name


def test_harmonic_eject_memory(tmp_path, monkeypatch):
    # traced peak of the harmonic workload's torus-eject: 12.3 MiB while the
    # ejection prediction's sparse product stacked its nnz x k terms, 4.7 MiB
    # since it adds them layer by layer
    inputs = workloads.generate("harmonic", 101)
    workloads.write_inputs(tmp_path, inputs)
    monkeypatch.chdir(tmp_path)
    run = dict(workloads.OPERATIONS["harmonic"])["torus-eject"]
    tracemalloc.start()
    try:
        assert run(cktlab, os.fspath(tmp_path), inputs["params"]) == []
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
