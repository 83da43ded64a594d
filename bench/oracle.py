"""Correctness gate: each request's result against an oracle outside the program's fast paths.

Runs in ``run.py`` after the worker has exited, so none of it is timed.

* Rates: ``kli_rate_general`` / ``mi_rate_general`` (the 2-D general-spectrum
  quadrature) at grid 1024, on an SFCAR spectrum evaluated here.  The
  tolerance is twice the oracle's own gap between grid 512 and grid 1024 (the
  grid-512 quadrature error a correct grid-512 result may carry) plus 1e-9
  relative.  Every `rates` row and library result is checked; sweep commands
  are checked in full for cheap invariants and at three rows (first, last and
  one seeded) against the oracle.
* Optima must be no lower than the grid values they were refined from.
* Monte Carlo means must lie within 6 standard errors of their exact torus
  expectation (the plane target plus the O(1/n) torus bias, computed here).
* Dense checks are recomputed with symmetric eigenvalues instead of the
  program's Cholesky, inverse and SVD.
* Edge dependence from a spacing must reproduce the physical correlation
  within the inversion's documented |delta zeta| <= 1e-12.  Saturation at
  zeta = 1/4 lies inside that contract; the tracer counts it instead.

Inputs on which the program is known to be wrong are kept out of the
workloads and sent instead by ``known_defects`` (see ``KNOWN_DEFECTS``).

The oracle shares no special function with the program: the SFCAR power
(kappa) and the correlation map rho(zeta) use scipy's complete elliptic
integral, and the physical correlation scipy's K1.
"""

from __future__ import annotations

import json
import math
import random
import sys

import numpy as np
from scipy.special import ellipkm1, k1

import gmrfinfo as gi
from gmrfinfo.spectra import SpectralDensity

from workloads import block

ORACLE_GRID = 1024
REL_FLOOR = 1e-9      # agreement floor; CSV cells carry 12 significant digits
K_SE = 6.0            # Monte Carlo check width in standard errors
ZETA_TOL = 1e-12      # zeta_from_rho's documented bisection accuracy
K1_REL_TOL = 1e-9     # bessel_k1 accuracy asserted by acceptance criterion A1
TWO_PI = 2.0 * math.pi
OPT_REL_TOL = 1e-11   # an optimum may sit this far below a grid value it was refined from



def _q(zeta: float) -> float:
    """(2/pi) K(4 zeta), modulus convention, from scipy's K(m) at 1 - m = (1 - 4 zeta)(1 + 4 zeta)."""
    return (2.0 / math.pi) * float(ellipkm1((1.0 - 4.0 * zeta) * (1.0 + 4.0 * zeta)))


def kappa(snr: float, zeta: float, sigma2: float = 1.0) -> float:
    """SFCAR power with SNR = 2 K(4 zeta) / (pi kappa sigma^2)."""
    return _q(zeta) / (snr * sigma2)


def rho_from_zeta(zeta: float) -> float:
    """Edge correlation ((2/pi) K(4 zeta) - 1) / ((2/pi) 4 zeta K(4 zeta)).

    Below zeta = 1/8 the numerator comes from the hypergeometric series
    (2/pi) K(k) - 1 = sum_{n>=1} ((1/2)_n / n!)^2 k^(2n), free of cancellation.
    """
    if zeta <= 0.0:
        return 0.0
    if zeta >= 0.25:
        return 1.0
    if zeta >= 0.125:
        q = _q(zeta)
        return (q - 1.0) / (q * 4.0 * zeta)
    m = 16.0 * zeta * zeta
    term, excess, n = 1.0, 0.0, 0
    while True:
        n += 1
        term *= ((n - 0.5) / n) ** 2 * m
        excess += term
        if term <= 1e-17 * excess:
            break
    return excess / ((1.0 + excess) * 4.0 * zeta)


def _close(a: float, b: float, rel: float = 1e-11, abs_tol: float = 0.0) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b)) + abs_tol


def _arg(argv: list[str], flag: str, default=None):
    if flag not in argv:
        return default
    return argv[argv.index(flag) + 1]


def _args(argv: list[str], flag: str) -> list[str]:
    i = argv.index(flag) + 1
    out = []
    while i < len(argv) and not argv[i].startswith("--"):
        out.append(argv[i])
        i += 1
    return out


def _snr(argv: list[str]) -> float:
    return 10 ** (float(_arg(argv, "--snr-db")) / 10)


def _zeta(alpha: float, dn: float) -> float:
    """The program's edge dependence at spacing dn; ``Oracle.zeta_error`` checks it."""
    return gi.zeta_from_spacing(gi.PhysicalField(alpha), dn)


def _hops(n: float) -> float:
    """Minimum-hop count to the centre node: n(n-1)(n+1)/2 (odd), n^3/2 (even)."""
    if float(n).is_integer() and int(n) % 2 == 0:
        return n**3 / 2.0
    return 0.5 * n * (n - 1.0) * (n + 1.0)


class Oracle:
    def __init__(self):
        self._cos: dict = {}
        self._rates: dict = {}
        self.max_rel_err = 0.0
        self.rate_points = 0
        self.torus_bias_max = 0.0

    # -- spectra -------------------------------------------------------------
    def _cos_sum(self, w1, w2):
        key = (w1.shape, float(w1.flat[0]), float(w1.flat[-1]), float(w2.flat[0]), float(w2.flat[-1]))
        if key not in self._cos:
            self._cos[key] = np.cos(w1) + np.cos(w2)
        return self._cos[key]

    def signal(self, snr: float, zeta: float, sigma2: float = 1.0) -> SpectralDensity:
        """SFCAR spectrum 1 / (4 pi^2 kappa (1 - 2 zeta (cos w1 + cos w2))) at this SNR."""
        kap = kappa(snr, zeta, sigma2)

        def evaluator(w1, w2):
            out = self._cos_sum(w1, w2) * (-2.0 * zeta)
            out += 1.0
            out *= 4.0 * math.pi**2 * kap
            return np.reciprocal(out, out=out)

        return SpectralDensity(evaluator, dim=2, form="oracle-sfcar")

    def rate(self, snr: float, zeta: float, measure: str, grid: int = ORACLE_GRID) -> float:
        key = (snr, zeta, measure, grid)
        if key not in self._rates:
            f = self.signal(snr, zeta)
            if measure == "kli":
                value = gi.kli_rate_general(gi.hidden_spectrum(f, 1.0), 1.0, grid)
            else:
                value = gi.mi_rate_general(f, 1.0, grid)
            self._rates[key] = value
        return self._rates[key]

    def rate_error(self, snr: float, zeta: float, measure: str, value: float):
        """None when ``value`` matches the oracle rate, else the cause."""
        self.rate_points += 1
        if snr == 0.0 or zeta == 0.25:
            return None if value == 0.0 else f"{measure}={value!r}, expected 0 at snr={snr!r} zeta={zeta!r}"
        ref = self.rate(snr, zeta, measure)
        tol = 2.0 * abs(self.rate(snr, zeta, measure, ORACLE_GRID // 2) - ref) + REL_FLOOR * abs(ref)
        err = abs(value - ref)
        if ref:
            self.max_rel_err = max(self.max_rel_err, err / abs(ref))
        if not err <= tol:
            return (f"{measure}={value!r} vs oracle {ref!r}: |diff| {err:.3g} > tol {tol:.3g} "
                    f"at snr={snr!r} zeta={zeta!r}")
        return None

    def zeta_error(self, alpha: float, dn: float, zeta: float):
        """None when zeta reproduces the physical correlation alpha dn K1(alpha dn)."""
        x = alpha * dn
        rho = min(max(x * float(k1(x)), 0.0), 1.0)
        lo = rho_from_zeta(zeta - ZETA_TOL)
        hi = rho_from_zeta(zeta + ZETA_TOL)
        if not lo * (1.0 - K1_REL_TOL) <= rho <= hi * (1.0 + K1_REL_TOL) + K1_REL_TOL:
            return f"zeta={zeta!r} maps to rho in [{lo!r}, {hi!r}], physical rho {rho!r} (dn={dn!r})"
        return None

    # -- grid means for the Monte Carlo targets --------------------------------
    def hidden_mean(self, snr, zeta, sigma2, fn, grid) -> float:
        """(2 pi)^-2 integral of fn((2 pi)^2 f1 / sigma2) by the grid-point rectangle rule."""
        f1 = gi.hidden_spectrum(self.signal(snr, zeta, sigma2), sigma2)
        return float(np.mean(fn(TWO_PI**2 * f1.grid_values(grid) / sigma2)))


# ---------------------------------------------------------------------------
# curves

def _spot(rows: list, rng: random.Random) -> list[int]:
    if len(rows) <= 3:
        return list(range(len(rows)))
    return sorted({0, len(rows) - 1, rng.randrange(1, len(rows) - 1)})


def _rate_rows(o: Oracle, rows, points, rng, key, values, snr_of, zeta_of) -> list[str]:
    causes = []
    if len(rows) != points:
        return [f"{len(rows)} rows, expected {points}"]
    for row, v in zip(rows, values):
        if not _close(row[key], float(v)):
            causes.append(f"{key}={row[key]!r}, expected {float(v)!r}")
        if not (math.isfinite(row["kli"]) and 0.0 <= row["kli"] <= row["mi"]):
            causes.append(f"rates out of order: kli={row['kli']!r} mi={row['mi']!r}")
    for i in _spot(rows, rng):
        for m in ("kli", "mi"):
            causes.append(o.rate_error(snr_of(values[i]), zeta_of(values[i]), m, rows[i][m]))
    return causes


def check_rates(o, req, out, rng):
    argv = req["argv"]
    snr, zeta = _snr(argv), float(_arg(argv, "--zeta"))
    row = out["rows"][0]
    return [o.rate_error(snr, zeta, m, row[m]) for m in ("kli", "mi")]


def check_sweep_zeta(o, req, out, rng):
    argv = req["argv"]
    snr = _snr(argv)
    zetas = np.linspace(float(_arg(argv, "--zeta-min")), float(_arg(argv, "--zeta-max")),
                        int(_arg(argv, "--points")))
    return _rate_rows(o, out["rows"], len(zetas), rng, "zeta", zetas,
                      lambda z: snr, lambda z: float(z))


def check_sweep_snr(o, req, out, rng):
    argv = req["argv"]
    zeta = float(_arg(argv, "--zeta"))
    dbs = np.linspace(float(_arg(argv, "--snr-db-min")), float(_arg(argv, "--snr-db-max")),
                      int(_arg(argv, "--points")))
    return _rate_rows(o, out["rows"], len(dbs), rng, "snr_db", dbs,
                      lambda db: 10 ** (float(db) / 10), lambda db: zeta)


def check_optimal_zeta(o, req, out, rng):
    argv = req["argv"]
    snr = 10 ** (float(_arg(argv, "--snr-db-min")) / 10)
    row = out["rows"][0]
    z_star, k_star = row["zeta_star"], row["kli_star"]
    coarse = max(gi.kli_rate_sfcar(snr, float(z)) for z in np.linspace(0.0, 0.25, 101))
    causes = []
    if not k_star >= coarse * (1.0 - OPT_REL_TOL):
        causes.append(f"optimum kli*={k_star!r} at zeta*={z_star!r} is below the coarse-grid "
                      f"maximum {coarse!r} (snr={snr!r})")
    causes.append(o.rate_error(snr, z_star, "kli", k_star))
    return causes


# ---------------------------------------------------------------------------
# network

def check_network_report(o, req, out, rng):
    cfg, measure = req["args"]["cfg"], req["args"]["measure"]
    snr = cfg["beta"] * cfg["es"]
    n = cfg["n"]
    links = n * n if cfg["fusion"] else _hops(n)
    energy = n * n * cfg["es"] + links * cfg["e0"] * cfg["dn"] ** cfg["nu"]
    causes = [o.zeta_error(cfg["alpha"], cfg["dn"], out["zeta"]),
              o.rate_error(snr, out["zeta"], measure, out["per_node_info"])]
    expected = {"snr": snr, "total_info": n * n * out["per_node_info"], "total_energy": energy,
                "efficiency": out["total_info"] / out["total_energy"]}
    for key, value in expected.items():
        if not _close(out[key], value, 1e-12):
            causes.append(f"{key}={out[key]!r}, expected {value!r}")
    return causes


def _decorrelated(snr: float, measure: str) -> float:
    return 0.5 * math.log1p(snr) - (0.5 * snr / (1.0 + snr) if measure == "kli" else 0.0)


def check_spacing(o, req, out, rng):
    argv = req["argv"]
    snr, alpha, measure = _snr(argv), float(_arg(argv, "--alpha")), _arg(argv, "--measure", "kli")
    dns = sorted(np.linspace(float(_arg(argv, "--dn-min")), float(_arg(argv, "--dn-max")),
                             int(_arg(argv, "--points"))))
    rows, limit = out["rows"], out["meta"]["limit"]
    if len(rows) != len(dns):
        return [f"{len(rows)} rows, expected {len(dns)}"]
    causes = [] if _close(limit, _decorrelated(snr, measure), 1e-12) else [f"limit={limit!r}"]
    for row, dn in zip(rows, dns):
        if not (_close(row["dn"], dn) and _close(row["gap"], limit - row["rate"], 1e-11, 1e-11 * limit)):
            causes.append(f"row {row} inconsistent with dn={dn!r}, limit={limit!r}")
    for i in _spot(rows, rng):
        zeta = _zeta(alpha, dns[i])
        causes += [o.zeta_error(alpha, dns[i], zeta), o.rate_error(snr, zeta, measure, rows[i]["rate"])]
    return causes


def check_density(o, req, out, rng):
    argv = req["argv"]
    snr, alpha, measure = _snr(argv), float(_arg(argv, "--alpha")), _arg(argv, "--measure", "kli")
    mus = sorted(np.logspace(math.log10(float(_arg(argv, "--mu-min"))),
                             math.log10(float(_arg(argv, "--mu-max"))), int(_arg(argv, "--points"))))
    rows = out["rows"]
    if len(rows) != len(mus):
        return [f"{len(rows)} rows, expected {len(mus)}"]
    causes = []
    for row, mu in zip(rows, mus):
        if not (_close(row["mu"], mu) and _close(row["per_area_info"], mu * row["rate"])):
            causes.append(f"row {row} inconsistent with mu={mu!r}")
    for i in _spot(rows, rng):
        dn = 1.0 / math.sqrt(mus[i])
        zeta = _zeta(alpha, dn)
        causes += [o.zeta_error(alpha, dn, zeta), o.rate_error(snr, zeta, measure, rows[i]["rate"])]
    return causes


def check_energy(o, req, out, rng):
    argv = req["argv"]
    n, dn, alpha = int(_arg(argv, "--n")), float(_arg(argv, "--dn")), float(_arg(argv, "--alpha"))
    beta, e0, nu = float(_arg(argv, "--beta")), float(_arg(argv, "--e0")), float(_arg(argv, "--nu"))
    measure = _arg(argv, "--measure", "kli")
    ets = sorted(float(v) for v in _args(argv, "--et-list"))
    rows = out["rows"]
    if len(rows) != len(ets):
        return [f"{len(rows)} rows, expected {len(ets)}"]
    comm = _hops(n) * e0 * dn**nu
    zeta = _zeta(alpha, dn)
    causes = [o.zeta_error(alpha, dn, zeta)]
    for i in _spot(rows, rng):
        snr = beta * (ets[i] - comm) / n**2
        causes.append(o.rate_error(snr, zeta, measure, rows[i]["total_info"] / n**2))
    return causes


def check_scaling(o, req, out, rng):
    argv = req["argv"]
    ns = [int(v) for v in _args(argv, "--n-list")]
    rows = out["rows"]
    if [int(r["n"]) for r in rows] != ns:
        return [f"rows for n={[r['n'] for r in rows]}, expected {ns}"]
    alpha, dn, snr = float(_arg(argv, "--alpha")), float(_arg(argv, "--dn")), float(_arg(argv, "--beta"))
    measure = _arg(argv, "--measure", "kli")
    zeta = _zeta(alpha, dn)   # es = e0 = 1 and nu = 2 are the CLI defaults
    causes = [o.zeta_error(alpha, dn, zeta)]
    for row, n in zip(rows, ns):
        expected = {"snr": snr, "zeta": zeta, "total_info": n * n * row["per_node_info"],
                    "total_energy": n * n + _hops(n) * dn**2,
                    "efficiency": row["total_info"] / row["total_energy"]}
        causes += [f"{k}={row[k]!r}, expected {v!r} at n={n}"
                   for k, v in expected.items() if not _close(row[k], v, 1e-10)]
    for i in _spot(rows, rng):
        causes.append(o.rate_error(snr, zeta, measure, rows[i]["per_node_info"]))
    return causes


def _density_point(argv, mu):
    """(n, alpha, dn, snr) at density mu, as optimal_density documents them."""
    L, et = float(_arg(argv, "--L")), float(_arg(argv, "--Et"))
    alpha, beta = float(_arg(argv, "--alpha")), float(_arg(argv, "--beta"))
    e0, nu = float(_arg(argv, "--E0")), float(_arg(argv, "--nu"))
    n = L * math.sqrt(mu)
    dn = L / n
    es = (et - 0.5 * n * (n - 1.0) * (n + 1.0) * e0 * dn**nu) / n**2
    return n, alpha, dn, beta * es


def check_optimal_density(o, req, out, rng):
    argv = req["argv"]
    measure = _arg(argv, "--measure", "kli")
    rows, meta = out["rows"], out["meta"]
    mu_star, info_star = meta["mu_star"], meta["info_star"]
    best = max(r["total_info"] for r in rows)
    causes = []
    if not info_star >= best * (1.0 - OPT_REL_TOL):
        causes.append(f"optimum info*={info_star!r} at mu*={mu_star!r} is below the grid maximum {best!r}")
    # mu* comes from the sidecar (exact), grid points from the CSV (12 digits).
    checks = [(mu_star, info_star)] + [(rows[i]["mu"], rows[i]["total_info"]) for i in _spot(rows, rng)]
    for mu, info in checks:
        n, alpha, dn, snr = _density_point(argv, mu)
        zeta = _zeta(alpha, dn)
        causes += [o.zeta_error(alpha, dn, zeta), o.rate_error(snr, zeta, measure, info / n**2)]
    return causes


def check_pernode(o, req, out, rng):
    cfg, measure = req["args"]["cfg"], req["args"]["measure"]
    ns = sorted(req["args"]["n_list"])
    ec = cfg["e0"] * cfg["dn"] ** cfg["nu"]
    ebar = cfg["es"] + _hops(ns[0]) * ec / ns[0] ** 2
    causes = [] if _close(out["ebar"], ebar, 1e-12) else [f"ebar={out['ebar']!r}, expected {ebar!r}"]
    zeta = _zeta(cfg["alpha"], cfg["dn"])
    causes.append(o.zeta_error(cfg["alpha"], cfg["dn"], zeta))
    snr = cfg["beta"] * cfg["es"]

    def cost(m):
        return m * m * cfg["es"] + 0.5 * m * (m - 1.0) * (m + 1.0) * ec

    for n, m, info in zip(ns, out["gathered_side"], out["per_node_info"]):
        budget = n * n * ebar
        if not (cost(m) <= budget * (1.0 + 1e-12) and (m == n or cost(m * (1.0 + 1e-9)) > budget)):
            causes.append(f"gathered side {m!r} does not exhaust the budget at n={n}")
        causes.append(o.rate_error(snr, zeta, measure, info * n * n / (m * m)))
    return causes


# ---------------------------------------------------------------------------
# mc

def _model(a):
    return gi.SfcarModel(kappa=kappa(a["snr"], a["zeta"], a["sigma2"]), zeta=a["zeta"])


def _mc_error(name, mean, se, expected):
    if not abs(mean - expected) <= K_SE * se:
        return f"{name} mean {mean!r} is {abs(mean - expected) / se:.1f} se from its expectation {expected!r}"
    return None


def check_mc(o, req, out, rng):
    a = req["args"]
    f1 = gi.hidden_spectrum(o.signal(a["snr"], a["zeta"], a["sigma2"]), a["sigma2"])
    # The rectangle rule at grid n uses the DFT frequencies of the n-torus (n even),
    # so it is the exact expectation of the torus LLR.
    torus = gi.kli_rate_general(f1, a["sigma2"], a["n"])
    o.torus_bias_max = max(o.torus_bias_max, abs(torus - o.rate(a["snr"], a["zeta"], "kli")))
    causes = [] if (out["n"], out["trials"]) == (a["n"], a["trials"]) else ["n or trials changed"]
    causes.append(_mc_error("KLI", out["mean"], out["std_error"], torus))
    return causes


def check_quadform(o, req, out, rng):
    a = req["args"]
    snr, zeta, sigma2, n = a["snr"], a["zeta"], a["sigma2"], a["n"]
    target = o.hidden_mean(snr, zeta, sigma2, lambda r: 1.0 / r, ORACLE_GRID)
    causes = [] if _close(out["target"], target, 1e-10) else [f"target={out['target']!r}, expected {target!r}"]
    torus = o.hidden_mean(snr, zeta, sigma2, lambda r: 1.0 / r, n)
    eigs = np.linalg.eigvalsh(gi.gmrf_mc.dense_covariance(_model(a), sigma2, n))
    dense = sigma2 * float(np.sum(1.0 / eigs)) / n**2
    causes.append(_mc_error("circulant quadratic form", out["circulant"]["mean"],
                            out["circulant"]["std_error"], torus))
    causes.append(_mc_error("dense quadratic form", out["dense"]["mean"], out["dense"]["std_error"], dense))
    return causes


def check_logdet(o, req, out, rng):
    a = req["args"]
    target = o.hidden_mean(a["snr"], a["zeta"], a["sigma2"], np.log, ORACLE_GRID) + math.log(a["sigma2"])
    causes = []
    for (n, gap), n_req in zip(out, a["n_list"]):
        eigs = np.linalg.eigvalsh(gi.gmrf_mc.dense_covariance(_model(a), a["sigma2"], n))
        expected = abs(float(np.sum(np.log(eigs))) / n**2 - target)
        if n != n_req or not _close(gap, expected, 1e-8, 1e-10):
            causes.append(f"log-det gap {gap!r} at n={n}, expected {expected!r}")
    return causes


def check_toeplitz(o, req, out, rng):
    a = req["args"]
    causes = []
    for (n, norm), n_req in zip(out, a["n_list"]):
        model = _model(a)
        diff = (gi.gmrf_mc.dense_covariance(model, a["sigma2"], n)
                - gi.gmrf_mc.dense_circulant(model, a["sigma2"], n))
        expected = float(np.sum(np.abs(np.linalg.eigvalsh(diff)))) / n**2
        if n != n_req or not _close(norm, expected, 1e-9, 1e-13):
            causes.append(f"trace norm {norm!r} at n={n}, expected {expected!r}")
    return causes


CHECKS = {
    "rates": check_rates,
    "sweep-zeta": check_sweep_zeta,
    "sweep-snr": check_sweep_snr,
    "optimal-zeta": check_optimal_zeta,
    "network_report": check_network_report,
    "spacing": check_spacing,
    "density": check_density,
    "energy": check_energy,
    "scaling": check_scaling,
    "optimal-density": check_optimal_density,
    "sweep_fixed_pernode_energy": check_pernode,
    "mc_kli_estimate": check_mc,
    "quadform_limit_check": check_quadform,
    "logdet_convergence": check_logdet,
    "toeplitz_circulant_gap": check_toeplitz,
}


# ---------------------------------------------------------------------------
# known defects
#
# Inputs on which the program gives a wrong answer.  The workloads keep clear
# of them, because a benchmark workload may hold no failing request;
# ``known_defects`` sends each one on every run, untimed and outside the
# result's count, and the run record says whether it still fails, so the
# defects stay in view until the program is fixed.

KNOWN_DEFECTS = (
    {"call": "optimal_zeta", "args": {"snr_db": -29.5},
     "defect": "below about -28.7 dB the optimum lies within refine_tol of 1/4, "
               "snaps to 1/4 and returns KLI 0"},
    {"call": "optimal_density",
     "args": dict(L=2.0, et=52.029905688678994, alpha=100.0, beta=1.0, e0=0.1, nu=2.0),
     "defect": "golden-section search returns the midpoint of its last bracket without "
               "comparing it with the best grid point, which can lie above it"},
    {"call": "zeta_from_spacing", "args": {"alpha": 1.4400831977243875, "dn": 7.38468254474391},
     "defect": "just above zeta = 1e-4, the series switch of rho_from_zeta, (q - 1) cancels and "
               "zeta_from_rho misses its documented |delta zeta| <= 1e-12"},
)


def _probe(call: str, a: dict) -> tuple[bool, str]:
    """(still fails, detail) for one known-defect input."""
    if call == "zeta_from_spacing":
        zeta = _zeta(a["alpha"], a["dn"])
        error = Oracle().zeta_error(a["alpha"], a["dn"], zeta)
        return error is not None, error or f"zeta={zeta!r}"
    if call == "optimal_zeta":
        snr = 10 ** (a["snr_db"] / 10)
        z_star, value = gi.optimal_zeta(snr)
        best = max(gi.kli_rate_sfcar(snr, float(z)) for z in np.linspace(0.0, 0.25, 101))
        where = f"zeta*={z_star!r}"
    else:
        res = gi.optimal_density(**a, mu_grid=np.logspace(0.0, 4.0, 201))  # the CLI's grid
        value, best = res.info_star, max(res.total_info)
        where = f"mu*={res.mu_star!r}"
    return not value >= best * (1.0 - OPT_REL_TOL), f"optimum {value!r} at {where}, best grid value {best!r}"


def known_defects() -> list[dict]:
    """Send every ``KNOWN_DEFECTS`` input and report whether it still fails."""
    out = []
    for case in KNOWN_DEFECTS:
        still_fails, detail = _probe(case["call"], case["args"])
        out.append({"call": case["call"], "input": case["args"], "defect": case["defect"],
                    "still_fails": still_fails, "detail": detail})
    return out


def check_blocks(workload: str, seed: int, tiny: bool, blocks: list[dict]) -> dict:
    """Gate every request of these blocks; a request fails if it raised or any check fails."""
    o = Oracle()
    failures = []
    attempted = 0
    for blk in blocks:
        reqs = block(workload, seed, blk["index"], tiny)
        for i, (req, rec) in enumerate(zip(reqs, blk["requests"])):
            attempted += 1
            if rec["error"] is not None:
                causes = [rec["error"]]
            else:
                rng = random.Random(f"check:{workload}:{seed}:{blk['index']}:{i}")
                try:
                    causes = [c for c in CHECKS[req["kind"]](o, req, rec["out"], rng) if c]
                except (KeyError, IndexError, TypeError, ValueError, ArithmeticError) as exc:
                    causes = [f"output not checkable: {type(exc).__name__}: {exc}"]
            if causes:
                failures.append({"block": blk["index"], "request": i, "kind": req["kind"],
                                 "input": req.get("argv") or req.get("args"), "cause": causes[0]})
    return {"attempted": attempted, "failed": len(failures), "failures": failures,
            "max_rel_err": o.max_rel_err, "rate_points": o.rate_points,
            "torus_bias_max": o.torus_bias_max}


def merge(parts: list[dict]) -> dict:
    failures = sorted((f for p in parts for f in p["failures"]), key=lambda f: (f["block"], f["request"]))
    return {
        "attempted": sum(p["attempted"] for p in parts),
        "failed": len(failures),
        "failures": failures,
        "max_rel_err": max(p["max_rel_err"] for p in parts),
        "rate_points": sum(p["rate_points"] for p in parts),
        "torus_bias_max": max(p["torus_bias_max"] for p in parts),
    }


def main(argv: list[str]) -> int:
    """``oracle.py JOB OUT``: gate the blocks of a JSON job file, write the result."""
    job_path, out_path = argv
    with open(job_path) as fh:
        job = json.load(fh)
    result = check_blocks(job["workload"], job["seed"], job["tiny"], job["blocks"])
    with open(out_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
