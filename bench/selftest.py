"""The benchmark's own tests.

    python3 -m pytest -q bench/selftest.py

Not collected by the repository's default ``pytest`` run (the file name does
not match ``test_*.py``); it runs the benchmark itself, which takes about a
minute.
"""

from __future__ import annotations

import inspect
import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import oracle  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture
def workdir():
    path = os.path.join(BENCH, f".work-selftest-{os.getpid()}")
    os.makedirs(path, exist_ok=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_emits_every_metric_with_its_unit(workload, trace):
    proc = subprocess.run([sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
                           "--seed", "7", "--seconds", "0", "--trace", str(trace), "--tiny"],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = _spec()["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), name


def _gmrfinfo_attributes() -> dict:
    """Every attribute of every gmrfinfo module and of their public classes."""
    snap = {}
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "gmrfinfo" or name.startswith("gmrfinfo.")):
            continue
        for attr, value in vars(mod).items():
            snap[(name, attr)] = value
            if inspect.isclass(value) and value.__module__ == name:
                for cattr, cvalue in vars(value).items():
                    snap[(name, attr, cattr)] = cvalue
    return snap


def _current(key):
    value = vars(sys.modules[key[0]])[key[1]]
    return vars(value)[key[2]] if len(key) == 3 else value


def test_traced_run_restores_every_wrapped_attribute(workdir):
    gi = worker.import_program()
    before = _gmrfinfo_attributes()
    original_kernel = gi.inforates.kli_rate_sfcar
    tracer = tracing.Tracer()
    ex = worker.Executor(gi, workdir)
    tracer.install()
    try:
        # wrapped in the defining module and at the package import site
        assert gi.inforates.kli_rate_sfcar is not original_kernel
        assert gi.kli_rate_sfcar is gi.inforates.kli_rate_sfcar
        latencies = {}
        for index, workload in enumerate(workloads.WORKLOADS):
            records = worker.run_block(ex, workloads.block(workload, 3, 0, tiny=True), index, tracer)
            assert all(r["error"] is None for r in records), records
            latencies.update(((index, i), r["lat"]) for i, r in enumerate(records))
    finally:
        tracer.uninstall()
    assert tracer.spans and tracer.restored()
    changed = [key for key, value in before.items() if _current(key) is not value]
    assert not changed, changed
    metrics = tracing.layer_metrics(tracer, 3, latencies, gi.corrmap.rho_from_zeta)
    assert metrics["inforates.kernel_calls"] > 0 and metrics["gmrf_mc.trials"] > 0
    # spans account for each request's latency up to the harness's entry and exit
    assert 0.0 < metrics["trace.unaccounted_s"] < 1e-3

    # a span that crosses into another request shows as unaccounted time
    name, t0, t1, parent, rid = tracer.spans[-1]
    tracer.spans[-1] = (name, t0, t1, parent, (0, 0))
    crossed = tracing.layer_metrics(tracer, 3, latencies, gi.corrmap.rho_from_zeta)
    assert crossed["trace.unaccounted_s"] >= t1 - t0 - metrics["trace.unaccounted_s"]


def test_perturbed_result_fails_the_gate(workdir):
    gi = worker.import_program()
    ex = worker.Executor(gi, workdir)
    reqs = workloads.block("curves", 5, 0, tiny=True)
    records = worker.run_block(ex, reqs, 0)
    blocks = [{"index": 0, "traced": False, "requests": records}]
    clean = oracle.check_blocks("curves", 5, True, blocks)
    assert clean["failed"] == 0, clean["failures"]

    i = next(k for k, req in enumerate(reqs) if req["kind"] == "rates")
    records[i]["out"]["rows"][0]["kli"] *= 1.0 + 1e-3
    gate = oracle.check_blocks("curves", 5, True, blocks)
    assert gate["failed"] / gate["attempted"] > 0.0
    assert gate["failures"][0]["request"] == i


def test_workloads_keep_clear_of_known_defects():
    """The workloads hold no known-defect input; the probe sends those instead."""
    lowest_db = min(lo for lo, _ in workloads.OPTIMAL_ZETA_HARD_SNR_DB)
    for seed in range(50):
        for index in range(4):
            for req in workloads.block("curves", seed, index) + workloads.block("network", seed, index):
                argv = req.get("argv")
                if req["kind"] == "optimal-zeta":
                    assert float(oracle._arg(argv, "--snr-db-min")) >= lowest_db
                elif req["kind"] == "optimal-density":
                    assert float(oracle._arg(argv, "--Et")) in workloads.A10_BUDGETS
                elif req["kind"] == "spacing":
                    x_max = float(oracle._arg(argv, "--alpha")) * float(oracle._arg(argv, "--dn-max"))
                    assert x_max <= workloads.SPACING_X_MAX * (1.0 + 1e-12)


def test_known_defect_probe_reports_every_input():
    report = oracle.known_defects()
    assert [d["call"] for d in report] == [c["call"] for c in oracle.KNOWN_DEFECTS]
    for d in report:
        assert isinstance(d["still_fails"], bool) and d["detail"]
