"""gmrfinfo benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload {curves,network,mc} --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the program is imported from its ``src``.
Each run:

1. times set-up three times, each in a fresh process (``import gmrfinfo``
   plus one warm-up request of each kind) and reports the median;
2. starts a fresh worker process that sets up the same way and then sends the
   workload's request lists (blocks, see ``workloads.py``) in a closed loop,
   one request at a time, until ``--seconds`` have passed and at least 100
   requests are done;
3. checks every result against the oracle (``oracle.py``), outside the timed
   region;
4. sends the known-defect inputs (``oracle.KNOWN_DEFECTS``), which the
   workloads keep clear of, and reports whether each still fails;
5. prints a run record line, then the result line:
   ``{"correct", "attempted", "failed", "metrics"}``.

End-to-end metrics (``--trace 0``), all measured with tracing off:
``setup_s`` (median set-up), ``wall_s`` (median time to serve one request
list, the sum of its request latencies), ``req_p50_ms``/``req_p90_ms``
(request latency percentiles over every request of the run), ``cpu_s``
(median user+system CPU time per request list), ``peak_rss_mb`` (peak
resident memory of the worker after set-up and four request lists) and
``ok_frac`` (share of requests that neither raised nor missed the oracle;
``failed``/``attempted`` in the result line give the same count).

With ``--trace 1`` even blocks run untraced and odd blocks traced; the result
holds the per-layer metrics of ``tracing.layer_metrics`` per traced request
list, and the tracing overhead.

Every process runs with one BLAS thread (``OPENBLAS_NUM_THREADS=1`` and
friends); the run record states it.  ``GMRFINFO_THREADS`` is removed, so the
library runs at its defaults.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import workloads

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SETUP_SAMPLES = 3
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
CHILD_TIMEOUT_S = 150


def declared_units(trace: int) -> dict:
    """Name -> unit of the metrics BENCHMARK.json declares for this kind of run."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def _child_env() -> dict:
    env = dict(os.environ)
    env.pop("GMRFINFO_THREADS", None)
    for key in BLAS_ENV:
        env[key] = "1"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [os.path.join(ROOT, "src"), env.get("PYTHONPATH")]))
    return env


def _worker(args: list[str], timeout: float) -> str:
    proc = subprocess.run([sys.executable, os.path.join(BENCH, "worker.py"), *args],
                          cwd=ROOT, env=_child_env(), capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker {args[:2]} exited with code {proc.returncode}")
    return proc.stdout


def _quantiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=10, method="inclusive")
    return q[4], q[8]


def end_to_end(setup: list[float], measured: dict, gate: dict) -> tuple[dict, dict]:
    blocks = [b for b in measured["blocks"] if not b["traced"]]
    lat = [r["lat"] for b in blocks for r in b["requests"]]
    p50, p90 = _quantiles(lat)
    values = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(sum(r["lat"] for r in b["requests"]) for b in blocks),
        "req_p50_ms": p50 * 1e3,
        "req_p90_ms": p90 * 1e3,
        "cpu_s": statistics.median(sum(r["cpu"] for r in b["requests"]) for b in blocks),
        "peak_rss_mb": measured["peak_rss_mb"],
        "ok_frac": 1.0 - gate["failed"] / gate["attempted"],
    }
    samples = {"latency": len(lat), "beyond_p90": sum(1 for v in lat if v > p90),
               "wall_blocks": len(blocks), "setup": len(setup)}
    return values, samples


def latency_by_kind(workload: str, seed: int, tiny: bool, measured: dict) -> dict:
    """Median latency [ms] and count of each request kind, over untraced blocks."""
    lat: dict[str, list[float]] = {}
    for b in measured["blocks"]:
        reqs = workloads.block(workload, seed, b["index"], tiny)
        for req, rec in zip(reqs, b["requests"]):
            if not b["traced"]:
                lat.setdefault(req["kind"], []).append(rec["lat"] * 1e3)
    return {k: {"count": len(v), "median_ms": statistics.median(v)} for k, v in sorted(lat.items())}


def per_layer(measured: dict, gate: dict) -> dict:
    walls = {True: [], False: []}
    for b in measured["blocks"]:
        walls[b["traced"]].append(sum(r["lat"] for r in b["requests"]))
    untraced, traced = statistics.median(walls[False]), statistics.median(walls[True])
    plain = [b["requests"] for b in measured["blocks"] if not b["traced"]]
    values = dict(measured["layers"])
    values.update({
        # page faults on fresh numpy temporaries: the system part of cpu_s
        "process.minor_faults": statistics.median(sum(r["minflt"] for r in rs) for rs in plain),
        "process.sys_s": statistics.median(sum(r["sys"] for r in rs) for rs in plain),
        "inforates.max_rel_err": gate["max_rel_err"],
        "trace.wall_untraced_s": untraced,
        "trace.wall_traced_s": traced,
        "trace.overhead_s": traced - untraced,
        "trace.overhead_frac": (traced - untraced) / untraced,
    })
    return values


def gate(args, blocks: list[dict], tmp: str) -> dict:
    """Check every result.  The timed part is over, so with two cores half of
    the blocks go to a second process."""
    import oracle

    split = len(blocks) // 2
    if len(os.sched_getaffinity(0)) < 2 or split == 0:
        return oracle.merge([oracle.check_blocks(args.workload, args.seed, args.tiny, blocks)])
    job, out = os.path.join(tmp, "gate-job.json"), os.path.join(tmp, "gate-out.json")
    with open(job, "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "tiny": args.tiny,
                   "blocks": blocks[split:]}, fh)
    proc = subprocess.Popen([sys.executable, os.path.join(BENCH, "oracle.py"), job, out],
                            cwd=ROOT, env=_child_env())
    try:
        mine = oracle.check_blocks(args.workload, args.seed, args.tiny, blocks[:split])
        code = proc.wait(timeout=CHILD_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0:
        raise RuntimeError(f"oracle process exited with code {code}")
    with open(out) as fh:
        return oracle.merge([mine, json.load(fh)])


def run(args, tmp: str) -> tuple[dict, dict]:
    common = ["--workload", args.workload, "--tmp", tmp] + (["--tiny"] if args.tiny else [])
    setup = [json.loads(_worker(["--mode", "setup", *common], CHILD_TIMEOUT_S).splitlines()[-1])["setup_s"]
             for _ in range(1 if args.tiny else SETUP_SAMPLES)]
    out = os.path.join(tmp, "measured.json")
    _worker(["--mode", "measure", *common, "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--out", out], CHILD_TIMEOUT_S)
    with open(out) as fh:
        measured = json.load(fh)

    t0 = time.perf_counter()
    checked = gate(args, measured["blocks"], tmp)
    gate_s = time.perf_counter() - t0
    import oracle

    defects = oracle.known_defects()
    if args.trace:
        values, samples = per_layer(measured, checked), {}
    else:
        values, samples = end_to_end(setup, measured, checked)
    units = declared_units(args.trace)
    if set(values) != set(units):
        raise RuntimeError(f"measured metrics differ from BENCHMARK.json: {sorted(set(values) ^ set(units))}")
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "tiny": args.tiny, "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": measured["numpy"],
        "blas": measured["blas"], "blas_env": {k: "1" for k in BLAS_ENV},
        "setup_samples_s": setup, "worker_setup_s": measured["worker_setup_s"], "gate_s": gate_s,
        "block_wall_s": [sum(r["lat"] for r in b["requests"]) for b in measured["blocks"]],
        "requests": latency_by_kind(args.workload, args.seed, args.tiny, measured),
        "samples": samples,
        "gate": {k: checked[k] for k in ("rate_points", "max_rel_err", "torus_bias_max")},
        "failures": checked["failures"],
        "known_defects": defects,
    }
    if args.trace:
        record["tracing_overhead_s"] = values["trace.overhead_s"]
    result = {
        "correct": checked["failed"] == 0,
        "attempted": checked["attempted"],
        "failed": checked["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    return record, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="gmrfinfo benchmark run")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small request lists and one set-up sample (for the self-tests)")
    args = parser.parse_args(argv)
    for path in (os.path.join("src", "gmrfinfo", "__init__.py"), "BENCHMARK.json"):
        if not os.path.isfile(os.path.join(ROOT, path)):
            print(f"error: no {path} under {ROOT}", file=sys.stderr)
            return 2
    for key in BLAS_ENV:  # before the oracle imports numpy in this process
        os.environ[key] = "1"
    sys.path.insert(0, os.path.join(ROOT, "src"))
    tmp = os.path.join(BENCH, f".work-{os.getpid()}")
    os.makedirs(tmp)
    try:
        record, result = run(args, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps({"run_record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
