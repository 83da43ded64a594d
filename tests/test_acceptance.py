"""Acceptance suite: one test per criterion, printing a pass/fail line each.

Three sub-checks encode properties of the model family that turn out not to
hold (verified independently at high precision; see the failure messages and
the README's accuracy notes): the forbidden band of the optimal edge
dependence in criterion 6, the spacing-fit exponent and density plateau in
criterion 9, and the secondary density peak in criterion 10.  They are
asserted as specified and fail honestly rather than being loosened.
"""

import math
import time
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

import gmrfinfo as gi


def finish(criterion, results):
    ok_all = all(ok for _, ok, _ in results)
    print(f"\n[{criterion}] {'PASS' if ok_all else 'FAIL'}")
    for name, ok, detail in results:
        print(f"    {'ok  ' if ok else 'FAIL'} {name}: {detail}")
    assert ok_all, f"{criterion} failed: " + "; ".join(
        f"{name} ({detail})" for name, ok, detail in results if not ok)


def test_a1_special_function_oracles():
    results = []
    t0 = time.time()

    def k_oracle(k):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return quad(lambda t: 1.0 / math.sqrt(1.0 - (k * math.sin(t)) ** 2),
                        0.0, math.pi / 2, epsabs=1e-14, epsrel=1e-14, limit=200)[0]

    def k1_oracle(x):
        t_max = math.acosh(745.0 / x)
        return quad(lambda t: math.exp(-x * math.cosh(t)) * math.cosh(t),
                    0.0, t_max, epsabs=1e-300, epsrel=1e-13, limit=400)[0]

    ks = 1.0 - np.logspace(0, -10, 50)
    worst_k = max(abs(gi.elliptic_k(float(k)) / k_oracle(float(k)) - 1.0) for k in ks)
    results.append(("elliptic oracle 50pt", worst_k < 1e-9, f"worst rel {worst_k:.2e}"))

    xs = np.logspace(-6, math.log10(50.0), 50)
    worst_x = max(abs(gi.bessel_k1(float(x)) / k1_oracle(float(x)) - 1.0) for x in xs)
    results.append(("bessel oracle 50pt", worst_x < 1e-9, f"worst rel {worst_x:.2e}"))

    err0 = abs(gi.elliptic_k(0.0) - math.pi / 2)
    results.append(("K(0) = pi/2", err0 < 1e-14, f"abs err {err0:.2e}"))

    elapsed = time.time() - t0
    results.append(("runtime < 1 s", elapsed < 1.0, f"{elapsed:.2f} s"))
    finish("A1", results)


def test_a2_power_identity():
    results = []
    for zeta in (0.0, 0.05, 0.1, 0.2, 0.24):
        model = gi.SfcarModel(kappa=1.0, zeta=zeta)
        quad_power = gi.autocovariance(gi.sfcar_spectrum(model), (0, 0), grid=1024)
        closed = gi.signal_power(model)
        rel = abs(quad_power - closed) / closed
        results.append((f"zeta={zeta}", rel < 1e-6, f"rel {rel:.2e}"))
    finish("A2", results)


def test_a3_stein_reduction():
    results = []
    for snr in (0.1, 1.0, 10.0):
        stein = 0.5 * math.log1p(snr) - 0.5 * (1.0 - 1.0 / (1.0 + snr))
        kerr = abs(gi.kli_rate_sfcar(snr, 0.0) - stein)
        merr = abs(gi.mi_rate_sfcar(snr, 0.0) - 0.5 * math.log1p(snr))
        results.append((f"KLI snr={snr}", kerr < 1e-9, f"abs err {kerr:.2e}"))
        results.append((f"MI  snr={snr}", merr < 1e-9, f"abs err {merr:.2e}"))
    finish("A3", results)


def test_a4_ordering_and_high_snr():
    results = []
    ordered = True
    for snr in np.logspace(-2, 2, 20):
        for zeta in np.linspace(0.0, 0.25, 20):
            k = gi.kli_rate_sfcar(float(snr), float(zeta))
            m = gi.mi_rate_sfcar(float(snr), float(zeta))
            if not (0.0 <= k <= m + 1e-15):
                ordered = False
            if zeta < 0.25 and not k < m:
                ordered = False
    results.append(("0 <= KLI <= MI on 20x20 grid", ordered, "strict for zeta < 1/4"))

    offset = gi.mi_rate_sfcar(1e6, 0.1) - gi.kli_rate_sfcar(1e6, 0.1)
    results.append(("MI - KLI -> 1/2 at snr 1e6", abs(offset - 0.5) < 1e-3,
                    f"offset {offset:.6f}"))

    for name, fn in (("KLI", gi.kli_rate_sfcar), ("MI", gi.mi_rate_sfcar)):
        slope = (fn(1e6, 0.1) - fn(1e4, 0.1)) / math.log(100.0)
        results.append((f"{name} high-snr slope 1/2", abs(slope / 0.5 - 1.0) < 0.01,
                        f"slope {slope:.5f}"))
    finish("A4", results)


def test_a5_low_snr_laws():
    results = []
    for zeta in (0.0, 0.1, 0.2):
        c = gi.low_snr_constants(zeta)
        k_ratio = gi.kli_rate_sfcar(1e-3, zeta) / 1e-6 / c.c3
        m_ratio = gi.mi_rate_sfcar(1e-4, zeta) / 1e-4 / c.c3_prime
        results.append((f"KLI/snr^2 vs c3, zeta={zeta}", abs(k_ratio - 1.0) < 0.05,
                        f"ratio {k_ratio:.4f}"))
        results.append((f"MI/snr vs c3', zeta={zeta}", abs(m_ratio - 1.0) < 0.01,
                        f"ratio {m_ratio:.5f}"))
    finish("A5", results)


def test_a6_optimal_zeta_transition():
    results = []
    t0 = time.time()
    z10, _ = gi.optimal_zeta(10.0)
    results.append(("zeta*(10 dB) = 0", z10 == 0.0, f"zeta* {z10}"))

    zm5, _ = gi.optimal_zeta(10 ** (-0.5))
    results.append(("zeta*(-5 dB) > 0.2", zm5 > 0.2, f"zeta* {zm5:.4f}"))

    violations = []
    for db10 in range(-100, 105, 5):
        z, _ = gi.optimal_zeta(10 ** (db10 / 100.0))
        if 0.02 < z < 0.15:
            violations.append((db10 / 10.0, round(z, 4)))
    results.append(("no zeta* in (0.02, 0.15) on 0.5 dB scan", not violations,
                    f"violations {violations}" if violations else "none"))

    elapsed = time.time() - t0
    results.append(("runtime < 1 min", elapsed < 60.0, f"{elapsed:.1f} s"))
    finish("A6", results)


def test_a7_monte_carlo_llr_limit():
    results = []
    cases = {(0.0, 1.0): gi.stein_kli(1.0),
             (0.1, 10.0): gi.kli_rate_sfcar(10.0, 0.1)}
    for (zeta, snr), target in cases.items():
        report = gi.mc_kli_estimate(gi.sfcar_for_snr(snr, zeta), 1.0, 64, 500, seed=1729)
        tol = max(3 * report.std_error, 0.05 * target)
        dev = abs(report.mean - target)
        results.append((f"n=64 zeta={zeta} snr={snr}", dev <= tol,
                        f"dev {dev:.2e} tol {tol:.2e}"))

    model = gi.sfcar_for_snr(10.0, 0.1)
    target = gi.kli_rate_sfcar(10.0, 0.1)
    dev64 = np.mean([abs(gi.mc_kli_estimate(model, 1.0, 64, 200, seed=s).mean - target)
                     for s in range(5)])
    dev128 = np.mean([abs(gi.mc_kli_estimate(model, 1.0, 128, 200, seed=s).mean - target)
                      for s in range(5)])
    results.append(("bias shrinks 64 -> 128 (5-seed mean)", dev128 < dev64,
                    f"{dev64:.2e} -> {dev128:.2e}"))
    finish("A7", results)


def test_a8_dense_algebra_checks():
    results = []
    model = gi.sfcar_for_snr(1.0, 0.1)

    gaps = gi.logdet_convergence(model, 1.0, [8, 16, 32])
    for (n1, g1), (n2, g2) in zip(gaps, gaps[1:]):
        ratio = g2 / g1
        results.append((f"logdet gap ratio {n1}->{n2}", 0.3 <= ratio <= 0.8,
                        f"ratio {ratio:.3f}"))

    tgaps = gi.toeplitz_circulant_gap(model, 1.0, [8, 16, 32])
    for (n1, g1), (n2, g2) in zip(tgaps, tgaps[1:]):
        ratio = g2 / g1
        results.append((f"trace-norm ratio {n1}->{n2}", 0.3 <= ratio <= 0.8,
                        f"ratio {ratio:.3f}"))

    check = gi.quadform_limit_check(model, 1.0, 16, 300, seed=1729)
    tol = 3 * check.dense.std_error + 0.1 / 16 * check.target
    dev = abs(check.dense.mean - check.target)
    results.append(("quadratic-form MC vs integral", dev <= tol,
                    f"dev {dev:.2e} tol {tol:.2e}"))
    finish("A8", results)


def test_a9_scaling_laws():
    results = []
    base = gi.NetworkConfig(n=33, dn=1.0, es=1.0, e0=1.0, nu=2.0, alpha=1.0, beta=10.0)

    sweep = gi.sweep_fixed_density(base, [33, 65, 129, 257])
    s1 = sweep.eta_vs_area.slope
    results.append(("efficiency vs area slope -0.5 +- 0.05", abs(s1 + 0.5) <= 0.05,
                    f"slope {s1:.4f}"))
    s2 = sweep.info_vs_energy.slope
    results.append(("info vs energy slope 2/3 +- 0.03", abs(s2 - 2 / 3) <= 0.03,
                    f"slope {s2:.4f}"))

    pernode = gi.sweep_fixed_pernode_energy(base, [33, 65, 129, 257])
    s3 = pernode.info_vs_nodes.slope
    results.append(("per-node info exponent -1/3 +- 0.05", abs(s3 + 1 / 3) <= 0.05,
                    f"slope {s3:.4f}"))

    spacing = gi.sweep_spacing(base, list(np.linspace(3.0, 8.0, 11)))
    a_est = spacing.alpha_estimate
    results.append(("spacing fit recovers alpha within 10%", abs(a_est - 1.0) <= 0.1,
                    f"estimate {a_est:.4f} (true decay is rho^2: 2*alpha)"))

    density = gi.sweep_infinite_density(4.0, list(np.logspace(-1, 1, 15)), "kli", 1.0, 1.0)
    results.append(("density plateau variation < 5%", density.plateau_variation < 0.05,
                    f"variation {density.plateau_variation:.3f} (log drift)"))

    cfg7 = gi.NetworkConfig(n=21, dn=0.1, es=1.0, e0=0.1, nu=2.0, alpha=100.0, beta=1.0)
    energy = gi.sweep_energy_fixed_all(cfg7, [1e4, 1e5, 1e6, 1e7, 1e8])
    inc = energy.increments
    worst = max(abs(b / a - 1.0) for a, b in zip(inc, inc[1:]))
    results.append(("log-linear energy growth, increments within 10%", worst <= 0.1,
                    f"worst pair deviation {worst:.3f}"))
    finish("A9", results)


def test_a10_optimal_density_reproduction():
    results = []
    common = dict(L=2.0, alpha=100.0, beta=1.0, e0=0.1, nu=2.0)

    for et in (50.0, 100.0, 200.0):
        res = gi.optimal_density(et=et, measure="kli",
                                 mu_grid=np.logspace(0, 4, 201), **common)
        interior = res.info_star > res.total_info[0] and res.info_star > res.total_info[-1]
        results.append((f"interior maximum at Et={et}", interior,
                        f"mu* {res.mu_star:.3g}, info* {res.info_star:.4g}"))

    res50 = gi.optimal_density(et=50.0, measure="kli",
                               mu_grid=np.logspace(0, 4.2, 240), **common)
    near95 = [m for m, _ in res50.local_maxima if 76.0 <= m <= 114.0]
    results.append(("local maximum within 20% of mu=95", bool(near95),
                    f"maxima at {[round(m, 1) for m, _ in res50.local_maxima]}"))

    tail_grid = np.logspace(math.log10(50.0), math.log10(2000.0), 20)
    kli_tail = gi.optimal_density(et=50.0, measure="kli", mu_grid=tail_grid, **common)
    from gmrfinfo.network import fit_loglog
    kfit = fit_loglog(kli_tail.mu_list, kli_tail.total_info, drop_smallest=0.0)
    results.append(("KLI tail slope -1 +- 0.15", abs(kfit.slope + 1.0) <= 0.15,
                    f"slope {kfit.slope:.4f}"))

    mi_tail = gi.optimal_density(et=50.0, measure="mi", mu_grid=tail_grid, **common)
    mfit = fit_loglog(mi_tail.mu_list, mi_tail.total_info, drop_smallest=0.0)
    results.append(("MI tail slope magnitude < 0.3", abs(mfit.slope) < 0.3,
                    f"slope {mfit.slope:.4f}"))
    finish("A10", results)
