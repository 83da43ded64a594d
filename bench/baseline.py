"""Repeat benchmark runs over seeds and write their medians and spreads.

    python3 bench/baseline.py [--workloads curves network mc] [--seeds 10]
                              [--sets 2] [--first-seed 1] [--out bench/baseline.json]

Runs ``run.py`` with tracing off once per (set, workload, seed), one process
at a time; set k uses the seeds first-seed + k*seeds onwards, and each set
runs every workload before the next set starts.  Then it runs each workload
once with tracing on (first seed).  For each set and end-to-end metric it
reports the median, the quartiles of ``statistics.quantiles(values, n=4)``
and the spread (q3 - q1) / median next to the bound in ``BENCHMARK.json``,
and for each later set how much worse its median is than the first set's.
Every failing request is kept with its cause, and so is the known-defect
probe's report (``oracle.KNOWN_DEFECTS``).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)

# Layer timings measured in isolation when the roadmap was written
# (ROADMAP.md, open item 1), with the workload whose traced run holds each.
ROADMAP_TABLE = {
    "inforates.kli_call_ms": ("curves", 5.8),
    "inforates.mi_call_ms": ("curves", 3.3),
    "inforates.optimal_zeta_s": ("curves", 0.28),
    "network.optimal_density_s": ("network", 0.48),
    "gmrf_mc.mc_n64_t500_s": ("mc", 0.10),
}


def cross_check(report: dict) -> dict:
    out = {}
    for name, (workload, roadmap) in ROADMAP_TABLE.items():
        trace = report["workloads"].get(workload, {}).get("trace")
        if trace:
            traced = trace["metrics"][name]
            out[name] = {"workload": workload, "roadmap": roadmap, "traced": traced,
                         "ratio": traced / roadmap, "within_2x": 0.5 <= traced / roadmap <= 2.0}
    return out


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run([sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"run.py {workload} seed {seed} exited with code {proc.returncode}")
    lines = proc.stdout.splitlines()
    return json.loads(lines[-2])["run_record"], json.loads(lines[-1])


def summarise(values: list[float], bound: float) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    spread = (q3 - q1) / med if med else 0.0
    return {"median": med, "q1": q1, "q3": q3, "spread": spread, "bound": bound,
            "within_third_of_bound": spread < bound / 3.0}


def _worse(first: float, later: float, better: str) -> float:
    """Share by which ``later`` is worse than ``first`` (negative when better)."""
    return (later - first) / first if better == "lower" else (first - later) / first


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=names, choices=names)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--no-trace", action="store_true")
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    metrics = {m["name"]: m for m in spec["end_to_end"]}

    report = {"run_seconds": spec["run_seconds"], "workloads": {w: {"sets": []} for w in args.workloads}}
    for set_no in range(args.sets):
        seeds = range(args.first_seed + set_no * args.seeds, args.first_seed + (set_no + 1) * args.seeds)
        for workload in args.workloads:
            runs = []
            for seed in seeds:
                record, result = run_once(workload, seed, spec["run_seconds"], 0)
                runs.append({"seed": seed, "correct": result["correct"], "attempted": result["attempted"],
                             "failed": result["failed"], "failures": record["failures"],
                             "known_defects_failing": sum(d["still_fails"] for d in record["known_defects"]),
                             "metrics": {k: v["value"] for k, v in result["metrics"].items()},
                             "requests": record["requests"], "samples": record["samples"],
                             "block_wall_s": record["block_wall_s"]})
                print(workload, seed, json.dumps(runs[-1]["metrics"]), file=sys.stderr)
            summary = {name: summarise([r["metrics"][name] for r in runs], m["bound"])
                       for name, m in metrics.items()}
            entry = report["workloads"][workload]
            entry["sets"].append({"seeds": [seeds[0], seeds[-1]], "summary": summary, "runs": runs})
            entry["machine"] = {k: record[k] for k in ("nproc", "python", "numpy", "blas", "blas_env")}
            for name, s in summary.items():
                print(f"set {set_no + 1} {workload:8s} {name:12s} median {s['median']:.6g} "
                      f"{metrics[name]['unit']:5s} spread {s['spread']:.4f} (bound {s['bound']})",
                      file=sys.stderr)
    for workload, entry in report["workloads"].items():
        first = entry["sets"][0]["summary"]
        entry["later_sets_worse_by"] = [
            {name: _worse(first[name]["median"], later["summary"][name]["median"], metrics[name]["better"])
             for name in metrics} for later in entry["sets"][1:]]
        if not args.no_trace:
            trace_record, trace_result = run_once(workload, args.first_seed, spec["run_seconds"], 1)
            entry["trace"] = {"seed": args.first_seed, "correct": trace_result["correct"],
                              "failed": trace_result["failed"], "failures": trace_record["failures"],
                              "known_defects": trace_record["known_defects"],
                              "metrics": {k: v["value"] for k, v in trace_result["metrics"].items()},
                              "requests": trace_record["requests"]}
    report["roadmap_cross_check"] = cross_check(report)
    text = json.dumps(report, indent=1, sort_keys=True)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
