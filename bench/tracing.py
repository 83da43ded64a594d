"""In-memory span tracing of gmrfinfo from outside the package.

``Tracer.install`` wraps every public function of the traced modules, and the
public methods of their public classes, at every import site inside the
``gmrfinfo`` package (the defining module, the package namespace and every
module that did ``from .x import f``).  Each call records a span: name, start,
end, parent span and request id.  ``Tracer.uninstall`` puts the original
objects back.  Nothing under ``src/`` is modified.

``layer_metrics`` turns the spans of the traced request lists into the
per-layer metrics of the benchmark.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import statistics
import sys
from time import perf_counter

from workloads import in_hard_band

# Modules whose public functions are wrapped; a module that no longer exists
# is skipped, so its metrics read 0.
LAYERS = ("cli", "network", "inforates", "corrmap", "spectra", "gmrf_mc", "specfun", "_util")

KERNEL = ("inforates.kli_rate_sfcar", "inforates.mi_rate_sfcar")
SOLVERS = ("network.optimal_density", "network.sweep_fixed_pernode_energy")
DENSE = ("gmrf_mc.logdet_convergence", "gmrf_mc.quadform_limit_check",
         "gmrf_mc.toeplitz_circulant_gap")

# Arguments (and results) kept for the spans that need them.  A parameter
# the program no longer has reads as None and the dependent metric as 0.
_NOTES = {
    "inforates.kli_rate_sfcar": lambda a, r: (a.get("snr"), a.get("zeta"), a.get("grid")),
    "inforates.mi_rate_sfcar": lambda a, r: (a.get("snr"), a.get("zeta"), a.get("grid")),
    "corrmap.zeta_from_rho": lambda a, r: (a.get("rho"), r),
    "specfun.bessel_k1": lambda a, r: a.get("x"),
    "gmrf_mc.mc_kli_estimate": lambda a, r: (a.get("n"), a.get("trials")),
    "gmrf_mc.quadform_limit_check": lambda a, r: (a.get("n"), a.get("trials")),
    "gmrf_mc.logdet_convergence": lambda a, r: tuple(a.get("n_list") or ()),
    "gmrf_mc.toeplitz_circulant_gap": lambda a, r: tuple(a.get("n_list") or ()),
    "spectra.SpectralDensity.grid_values": lambda a, r: (getattr(a.get("self"), "dim", 0), a.get("n")),
    "cli.emit_plotdata": lambda a, r: len(a.get("rows") or ()),
}


def _targets():
    """(span name, owner class or None, attribute, function) of each public callable."""
    out = []
    for layer in LAYERS:
        try:
            mod = importlib.import_module("gmrfinfo." + layer)
        except ImportError:
            continue
        prefix = layer.lstrip("_")
        for attr, obj in vars(mod).items():
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                out.append((f"{prefix}.{attr}", None, attr, obj))
            elif inspect.isclass(obj):
                for mattr, meth in vars(obj).items():
                    if not mattr.startswith("_") and inspect.isfunction(meth):
                        out.append((f"{prefix}.{attr}.{mattr}", obj, mattr, meth))
    return out


class Tracer:
    """Records spans of gmrfinfo calls while installed."""

    def __init__(self):
        self.spans: list[tuple] = []     # (name, start, end, parent index, request id)
        self.notes: dict[int, object] = {}
        self.patches: list[tuple] = []   # (owner, attribute, original) while installed
        self.history: list[tuple] = []   # every patch ever made
        self._stack: list[int] = []
        self._request = None

    def install(self) -> None:
        if self.patches:
            raise RuntimeError("tracer is already installed")
        sites = [m for name, m in list(sys.modules.items())
                 if m is not None and (name == "gmrfinfo" or name.startswith("gmrfinfo."))]
        for name, cls, attr, fn in _targets():
            wrapper = self._wrap(name, fn)
            if cls is not None:
                setattr(cls, attr, wrapper)
                self.patches.append((cls, attr, fn))
                continue
            for site in sites:
                for site_attr, value in list(vars(site).items()):
                    if value is fn:
                        setattr(site, site_attr, wrapper)
                        self.patches.append((site, site_attr, fn))
        self.history.extend(self.patches)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self.patches):
            setattr(owner, attr, original)
        self.patches = []

    def restored(self) -> bool:
        """True when every attribute ever wrapped holds its original object again."""
        return not self.patches and all(getattr(o, a) is f for o, a, f in self.history)

    @contextlib.contextmanager
    def request(self, request_id):
        """Root span of one request; its self time is the harness's own time."""
        self._request = request_id
        idx = self._open()
        t0 = perf_counter()
        try:
            yield
        finally:
            self._close(idx, "harness.request", t0, -1)
            self._request = None

    def _open(self) -> int:
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, name: str, t0: float, parent: int) -> None:
        t1 = perf_counter()
        self._stack.pop()
        self.spans[idx] = (name, t0, t1, parent, self._request)

    def _wrap(self, name, fn):
        note = _NOTES.get(name)
        sig = inspect.signature(fn) if note else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            idx = self._open()
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx, name, t0, parent)
            if note is not None:
                try:
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    self.notes[idx] = note(bound.arguments, result)
                except TypeError:
                    self.notes[idx] = None
            return result

        return wrapper


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _dense_flops(name: str, note) -> float:
    # Computed, not measured: Cholesky N^3/3, LU inverse 2 N^3 plus one
    # 2 N^2 mat-vec per trial, singular values only 8 N^3/3 (Golub-Van Loan),
    # with N = n^2 unknowns.
    if not note:
        return 0.0
    if name == "gmrf_mc.quadform_limit_check":
        n, trials = note
        big = float(n * n)
        return 2.0 * big**3 + 2.0 * big**2 * trials
    per = 1.0 / 3.0 if name == "gmrf_mc.logdet_convergence" else 8.0 / 3.0
    return sum(per * float(n * n) ** 3 for n in note)


def layer_metrics(tracer: Tracer, blocks: int, latencies: dict, rho_from_zeta=None,
                  k1_branches=(2.0, 15.0)) -> dict:
    """Per-layer metrics, as totals per traced request list unless named a median.

    ``latencies`` maps each traced request id to its latency as the worker
    measured it.  ``rho_from_zeta`` is the original corrmap function, used
    after the run for the round-trip error of every traced inversion.
    """
    spans, notes = tracer.spans, tracer.notes
    child = [0.0] * len(spans)
    for name, t0, t1, parent, _ in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    self_time = [s[2] - s[1] - c for s, c in zip(spans, child)]

    layer_self: dict[str, float] = {}
    fn_self: dict[str, float] = {}
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        layer = s[0].split(".", 1)[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + self_time[i]
        fn_self[s[0]] = fn_self.get(s[0], 0.0) + self_time[i]
        by_name.setdefault(s[0], []).append(i)

    def idx(name):
        return by_name.get(name, [])

    def dur(i):
        return spans[i][2] - spans[i][1]

    def under(i, names):
        p = spans[i][3]
        while p >= 0:
            if spans[p][0] in names:
                return True
            p = spans[p][3]
        return False

    per = 1.0 / max(blocks, 1)
    kernel = [i for name in KERNEL for i in idx(name)]
    kernel_notes = [(i, notes.get(i)) for i in kernel]
    grid_points = sum(n[2] ** 2 for _, n in kernel_notes if n and n[2])
    typical, hard = [], []
    for i, n in kernel_notes:
        if n and n[0] is not None and n[1] is not None:
            (hard if in_hard_band(n[0], n[1]) else typical).append(dur(i) * 1e3)

    opt_zeta = idx("inforates.optimal_zeta")
    solve_kernel = sum(1 for i in kernel if under(i, ("inforates.optimal_zeta",)))
    solves = [i for name in SOLVERS for i in idx(name)]
    solver_kernel = sum(1 for i in kernel if under(i, SOLVERS))

    inversions = [notes.get(i) for i in idx("corrmap.zeta_from_rho")]
    inversions = [n for n in inversions if n and n[0] is not None and n[1] is not None]
    saturated = sum(1 for rho, zeta in inversions if rho < 1.0 and abs(0.25 - zeta) <= 1e-12)
    roundtrip = 0.0
    if rho_from_zeta is not None:
        for rho, zeta in set(inversions):
            roundtrip = max(roundtrip, abs(rho_from_zeta(zeta) - rho))

    bessel = [notes.get(i) for i in idx("specfun.bessel_k1")]
    quad_branch = sum(1 for x in bessel if x is not None and k1_branches[0] < x < k1_branches[1])

    mc = idx("gmrf_mc.mc_kli_estimate")
    mc_notes = [notes.get(i) for i in mc]
    trials = sum(n[1] for n in mc_notes if n)
    trial_nodes = sum(n[1] * n[0] ** 2 for n in mc_notes if n)
    mc_s = sum(dur(i) for i in mc)
    mc_64_500 = [dur(i) for i, n in zip(mc, mc_notes) if n == (64, 500)]
    dense = [i for name in DENSE for i in idx(name)]
    dense_flops = sum(_dense_flops(spans[i][0], notes.get(i)) for i in dense)
    grid_values = [notes.get(i) for i in idx("spectra.SpectralDensity.grid_values")]
    spectra_points = sum(n[1] ** n[0] for n in grid_values if n and n[1])

    network_names = tuple(name for name in by_name if name.startswith("network."))
    network_points = sum(1 for i in idx("corrmap.zeta_from_spacing") if under(i, network_names))

    # The self times of a request's spans sum to its root span by construction;
    # against the latency measured outside the tracer they show spans that
    # were lost or that crossed requests.
    accounted: dict[object, float] = {}
    for i, s in enumerate(spans):
        accounted[s[4]] = accounted.get(s[4], 0.0) + self_time[i]
    unaccounted = max((abs(lat - accounted.get(rid, 0.0)) for rid, lat in latencies.items()), default=0.0)

    return {
        "inforates.kernel_calls": len(kernel) * per,
        "inforates.grid_points": grid_points * per,
        "inforates.self_s": layer_self.get("inforates", 0.0) * per,
        "inforates.solve_kernel_calls": solve_kernel / len(opt_zeta) if opt_zeta else 0.0,
        "inforates.typical_call_ms": _median(typical),
        "inforates.hard_band_call_ms": _median(hard),
        "inforates.kli_call_ms": _median([dur(i) * 1e3 for i in idx(KERNEL[0])]),
        "inforates.mi_call_ms": _median([dur(i) * 1e3 for i in idx(KERNEL[1])]),
        "inforates.optimal_zeta_s": _median([dur(i) for i in opt_zeta]),
        "corrmap.inversions": len(inversions) * per,
        "corrmap.self_s": layer_self.get("corrmap", 0.0) * per,
        "corrmap.saturated": saturated * per,
        "corrmap.roundtrip_err_max": roundtrip,
        "specfun.elliptic_k.calls": len(idx("specfun.elliptic_k")) * per,
        "specfun.elliptic_k.self_s": fn_self.get("specfun.elliptic_k", 0.0) * per,
        "specfun.bessel_k1.calls": len(bessel) * per,
        "specfun.bessel_k1.quad_branch_calls": quad_branch * per,
        "specfun.bessel_k1.self_s": fn_self.get("specfun.bessel_k1", 0.0) * per,
        "network.self_s": layer_self.get("network", 0.0) * per,
        "network.points": network_points * per,
        "network.kernel_calls_per_solve": solver_kernel / len(solves) if solves else 0.0,
        "network.optimal_density_s": _median([dur(i) for i in idx("network.optimal_density")]),
        "gmrf_mc.mc_s": mc_s * per,
        "gmrf_mc.dense_s": sum(dur(i) for i in dense) * per,
        "gmrf_mc.trials": trials * per,
        "gmrf_mc.trial_us": mc_s / trial_nodes * 1e6 if trial_nodes else 0.0,
        "gmrf_mc.dense_flops": dense_flops * per,
        "gmrf_mc.mc_n64_t500_s": _median(mc_64_500),
        "spectra.self_s": layer_self.get("spectra", 0.0) * per,
        "spectra.grid_points": spectra_points * per,
        "cli.self_s": layer_self.get("cli", 0.0) * per,
        "cli.emit_s": sum(dur(i) for i in idx("cli.emit_plotdata")) * per,
        "cli.rows": sum(notes.get(i) or 0 for i in idx("cli.emit_plotdata")) * per,
        "util.parallel_map.calls": len(idx("util.parallel_map")) * per,
        "harness.self_s": layer_self.get("harness", 0.0) * per,
        "trace.spans": len(spans) * per,
        "trace.unaccounted_s": unaccounted,
    }
