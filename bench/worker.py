"""Runs benchmark requests in a fresh process; started by ``run.py``.

Two modes:

* ``setup``: time ``import gmrfinfo`` plus one warm-up request of each kind
  of the workload, print ``{"setup_s": ...}`` and exit.
* ``measure``: set up the same way, then send request lists (blocks) in a
  closed loop until ``--seconds`` have passed and at least 100 requests are
  done (so ten lie beyond p90), and write every latency, CPU time and result
  summary to ``--out``.  With ``--trace 1`` the odd blocks
  run under the tracer and the even ones without it; the per-layer metrics
  come from the traced blocks and the tracing overhead from the difference.

Results are checked by ``run.py`` afterwards, outside the timed region.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import io
import json
import os
import resource
import sys
import time

import workloads

MIN_REQUESTS = 100
# Peak memory is read after set-up plus this many request lists, so it does
# not grow with the number of lists a faster program fits into the run.
RSS_BLOCKS = 4

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")


def import_program():
    """Import gmrfinfo from this checkout's ``src``, never from elsewhere."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import gmrfinfo
    import gmrfinfo.cli  # noqa: F401  (the CLI is a request target)

    if os.path.dirname(os.path.dirname(os.path.abspath(gmrfinfo.__file__))) != SRC:
        raise ImportError(f"gmrfinfo was imported from {gmrfinfo.__file__}, not from {SRC}")
    return gmrfinfo


def _model(gi, a):
    return gi.sfcar_for_snr(a["snr"], a["zeta"], a["sigma2"])


# Library requests: one public call each (plus the model or config object it takes).
LIBRARY = {
    "network_report": lambda gi, a: gi.network_report(gi.NetworkConfig(**a["cfg"]), a["measure"]),
    "sweep_fixed_pernode_energy": lambda gi, a: gi.sweep_fixed_pernode_energy(
        gi.NetworkConfig(**a["cfg"]), a["n_list"], a["measure"]),
    "mc_kli_estimate": lambda gi, a: gi.mc_kli_estimate(
        _model(gi, a), a["sigma2"], a["n"], a["trials"], a["seed"]),
    "quadform_limit_check": lambda gi, a: gi.quadform_limit_check(
        _model(gi, a), a["sigma2"], a["n"], a["trials"], a["seed"]),
    "logdet_convergence": lambda gi, a: gi.logdet_convergence(_model(gi, a), a["sigma2"], a["n_list"]),
    "toeplitz_circulant_gap": lambda gi, a: gi.toeplitz_circulant_gap(
        _model(gi, a), a["sigma2"], a["n_list"]),
}


class Executor:
    """Sends one request (timed) and summarises its result (untimed)."""

    def __init__(self, gi, tmpdir: str):
        self.gi = gi
        self.csv = os.path.join(tmpdir, f"out-{os.getpid()}.csv")

    def send(self, req: dict):
        if req["api"] == "lib":
            return LIBRARY[req["kind"]](self.gi, req["args"])
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.gi.cli.main(req["argv"] + ["--output", self.csv])
        if code != 0:
            raise RuntimeError(f"exit code {code}: {err.getvalue().strip()}")
        return None

    def summary(self, req: dict, result):
        if req["api"] == "lib":
            return _plain(result)
        with open(self.csv, newline="") as fh:
            rows = [{k: _number(v) for k, v in row.items()} for row in csv.DictReader(fh)]
        with open(self.csv + ".meta.json") as fh:
            meta = json.load(fh)
        extras = {k: v for k, v in meta.items() if k not in ("config", "command", "version")}
        return {"rows": rows, "meta": extras}

    def clean(self) -> None:
        for path in (self.csv, self.csv + ".meta.json"):
            if os.path.exists(path):
                os.remove(path)


def _number(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def _plain(value):
    if dataclasses.is_dataclass(value):
        return {f.name: _plain(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if hasattr(value, "item"):  # numpy scalar
        return value.item()
    return value


def setup(workload: str, tmpdir: str):
    """Import plus one warm-up request of each kind; returns (seconds, gmrfinfo, executor)."""
    t0 = time.perf_counter()
    gi = import_program()
    ex = Executor(gi, tmpdir)
    for req in workloads.warmup(workload):
        ex.send(req)
    elapsed = time.perf_counter() - t0
    ex.clean()
    return elapsed, gi, ex


def run_block(ex: Executor, reqs: list[dict], index: int, tracer=None) -> list[dict]:
    records = []
    for i, req in enumerate(reqs):
        error, result = None, None
        scope = tracer.request((index, i)) if tracer else contextlib.nullcontext()
        u0 = resource.getrusage(resource.RUSAGE_SELF)
        t0 = time.perf_counter()
        try:
            with scope:
                result = ex.send(req)
        except Exception as exc:  # a failed request is a result to report, not a crash
            error = f"{type(exc).__name__}: {exc}"
        lat = time.perf_counter() - t0
        u1 = resource.getrusage(resource.RUSAGE_SELF)
        out = None
        if error is None:
            try:
                out = ex.summary(req, result)
            except (OSError, ValueError) as exc:
                error = f"unreadable output: {exc}"
        ex.clean()
        records.append({"lat": lat, "cpu": u1.ru_utime + u1.ru_stime - u0.ru_utime - u0.ru_stime,
                        "sys": u1.ru_stime - u0.ru_stime, "minflt": u1.ru_minflt - u0.ru_minflt,
                        "error": error, "out": out})
    return records


def blas_info() -> dict:
    """OpenBLAS build and thread count, read from the library numpy loaded."""
    import ctypes
    import glob

    import numpy

    libdir = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                get_config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if get_threads is None or get_config is None:
                    continue
                get_threads.restype = ctypes.c_int
                get_config.restype = ctypes.c_char_p
                return {"library": get_config().decode(), "threads": get_threads()}
    return {"library": "unknown", "threads": None}


def measure(args) -> dict:
    setup_s, gi, ex = setup(args.workload, args.tmp)
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
    blocks = []
    start = time.perf_counter()
    index = sent = 0
    min_requests = 0 if args.tiny else MIN_REQUESTS
    while True:
        reqs = workloads.block(args.workload, args.seed, index, args.tiny)
        traced = tracer is not None and index % 2 == 1
        if traced:
            tracer.install()
        try:
            records = run_block(ex, reqs, index, tracer if traced else None)
        finally:
            if traced:
                tracer.uninstall()
        blocks.append({"index": index, "traced": traced, "requests": records})
        index += 1
        if index <= RSS_BLOCKS:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        sent += len(records)
        done = time.perf_counter() - start >= args.seconds and sent >= min_requests
        if done and (tracer is None or index >= 2):
            break
    result = {
        "worker_setup_s": setup_s,
        "blocks": blocks,
        "peak_rss_mb": peak_rss_mb,
        "blas": blas_info(),
        "numpy": __import__("numpy").__version__,
    }
    if tracer is not None:
        result["layers"] = _layers(gi, tracer, [b for b in blocks if b["traced"]])
    return result


def _layers(gi, tracer, traced: list[dict]) -> dict:
    import tracing

    specfun = gi.specfun
    branches = (getattr(specfun, "_K1_SERIES_MAX", 2.0), getattr(specfun, "_K1_ASYMPTOTIC_MIN", 15.0))
    latencies = {(b["index"], i): r["lat"] for b in traced for i, r in enumerate(b["requests"])}
    metrics = tracing.layer_metrics(tracer, len(traced), latencies, gi.corrmap.rho_from_zeta, branches)
    if not tracer.restored():
        raise RuntimeError("tracing left a wrapped function in place")
    metrics["trace.wrapped"] = len(tracer.history) / max(len(traced), 1)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=["setup", "measure"], required=True)
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--tmp", required=True)
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    if args.mode == "setup":
        seconds, _, _ = setup(args.workload, args.tmp)
        print(json.dumps({"setup_s": seconds}))
        return 0
    result = measure(args)
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
