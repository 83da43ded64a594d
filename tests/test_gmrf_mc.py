"""Torus Monte Carlo and dense-matrix verification of the rate limits."""

import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmrfinfo import gmrf_mc
from gmrfinfo.gmrf_mc import (
    NonpositiveEigenvalueError,
    _hidden_limits,
    _reflection_blocks,
    circulant_eigs,
    dense_circulant,
    dense_covariance,
    llr_per_node,
    logdet_convergence,
    mc_kli_estimate,
    quadform_limit_check,
    sample_field,
    toeplitz_circulant_gap,
)
from gmrfinfo.corrmap import rho_from_zeta
from gmrfinfo.inforates import kli_rate_general, kli_rate_sfcar, mi_rate_sfcar, stein_kli
from gmrfinfo.spectra import (
    SfcarModel,
    SingularSpectrumError,
    SpectralDensity,
    autocovariance_grid,
    constant_spectrum,
    hidden_spectrum,
    measurement_snr,
    sfcar_for_snr,
    sfcar_spectrum,
)

FOUR_PI2 = 4.0 * math.pi**2


def dense_from_eigs(cs):
    """Oracle: assemble the dense circulant matrix from its eigenvalues."""
    n = cs.n
    wrapped = np.fft.ifftn(cs.eigs).real
    ii, jj = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    i, j = ii.ravel(), jj.ravel()
    return wrapped[(i[:, None] - i[None, :]) % n, (j[:, None] - j[None, :]) % n]


class TestCirculantEigs:
    def test_white(self):
        cs = circulant_eigs(constant_spectrum(2.5 / FOUR_PI2), 16)
        assert np.allclose(cs.eigs, 2.5)

    def test_sfcar_extremes(self):
        cs = circulant_eigs(sfcar_spectrum(SfcarModel(kappa=1.0, zeta=0.1)), 64)
        assert np.unravel_index(np.argmax(cs.eigs), cs.eigs.shape) == (0, 0)
        assert np.unravel_index(np.argmin(cs.eigs), cs.eigs.shape) == (32, 32)

    def test_wrapped_converges_to_spectrum(self):
        # the circulant approximation of the plane model (wrapped plane autocovariances)
        # approaches the exact torus model as n grows
        model = SfcarModel(kappa=1.0, zeta=0.1)
        gaps = []
        for n in (8, 16, 32):
            wrapped = np.linalg.eigvalsh(dense_circulant(model, 1.0, n) - np.eye(n * n))
            exact = np.sort(circulant_eigs(sfcar_spectrum(model), n).eigs.ravel())
            gaps.append(np.abs(wrapped - exact).max())
        assert gaps[1] < gaps[0] and gaps[2] < gaps[1]

    def test_singular_model_rejected(self):
        with pytest.raises(SingularSpectrumError):
            circulant_eigs(sfcar_spectrum(SfcarModel(kappa=1.0, zeta=0.25)), 8)

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            circulant_eigs(constant_spectrum(1.0), 2)

    def test_negative_spectrum_rejected(self):
        spec = SpectralDensity(lambda w1, w2: np.cos(w1) + 0.0 * w2, dim=2)
        with pytest.raises(NonpositiveEigenvalueError, match="nonpositive torus eigenvalue"):
            circulant_eigs(spec, 8)


class TestSampleField:
    def test_white_site_variance(self):
        cs = circulant_eigs(constant_spectrum(1.0 / FOUR_PI2), 64)
        rng = np.random.default_rng(np.random.SeedSequence(2024))
        fields = np.stack([sample_field(cs, rng) for _ in range(1000)])
        var = fields[:, 5, 9].var(ddof=1)
        se = math.sqrt(2.0 / 999.0)  # variance of a chi-square mean
        assert abs(var - 1.0) <= 3 * se

    def test_sfcar_neighbor_correlation(self):
        cs = circulant_eigs(sfcar_spectrum(SfcarModel(kappa=1.0, zeta=0.1)), 64)
        rng = np.random.default_rng(np.random.SeedSequence(7))
        ratios = []
        for _ in range(300):
            x = sample_field(cs, rng)
            ratios.append(np.mean(x * np.roll(x, 1, axis=0)) / np.mean(x * x))
        ratios = np.asarray(ratios)
        se = ratios.std(ddof=1) / math.sqrt(len(ratios))
        assert abs(ratios.mean() - rho_from_zeta(0.1)) <= 3 * se

    def test_deterministic_given_seed(self):
        cs = circulant_eigs(sfcar_spectrum(SfcarModel(kappa=1.0, zeta=0.2)), 32)
        a = sample_field(cs, np.random.default_rng(99))
        b = sample_field(cs, np.random.default_rng(99))
        assert np.array_equal(a, b)


class TestLlr:
    def test_zero_field_gives_deterministic_term(self):
        cs1 = circulant_eigs(hidden_spectrum(sfcar_spectrum(sfcar_for_snr(2.0, 0.1)), 1.0), 16)
        expect = 0.5 * float(np.log(cs1.eigs).sum()) / 16**2
        assert llr_per_node(np.zeros((16, 16)), 1.0, cs1) == pytest.approx(expect, rel=1e-12)

    def test_null_model_is_zero(self):
        cs = circulant_eigs(constant_spectrum(3.0 / FOUR_PI2), 16)
        y = np.random.default_rng(0).standard_normal((16, 16))
        assert llr_per_node(y, 3.0, cs) == 0.0

    @pytest.mark.parametrize("n", [8, 16])
    def test_matches_dense_matrix_oracle(self, n):
        sigma2 = 1.0
        cs1 = circulant_eigs(hidden_spectrum(sfcar_spectrum(sfcar_for_snr(10.0, 0.1)), sigma2), n)
        c1 = dense_from_eigs(cs1)
        y = np.random.default_rng(3).standard_normal((n, n))
        flat = y.ravel()
        _, logdet1 = np.linalg.slogdet(c1)
        dense = (0.5 * (logdet1 - n * n * math.log(sigma2))
                 + 0.5 * (flat @ np.linalg.solve(c1, flat) - flat @ flat / sigma2)) / n**2
        assert llr_per_node(y, sigma2, cs1) == pytest.approx(dense, abs=1e-8)

    @pytest.mark.parametrize("sigma2", [math.nan, math.inf])
    def test_nonfinite_sigma2_rejected(self, sigma2):
        cs = circulant_eigs(constant_spectrum(1.0 / FOUR_PI2), 8)
        with pytest.raises(ValueError, match="sigma2 must be finite"):
            llr_per_node(np.zeros((8, 8)), sigma2, cs)

    def test_length_mismatch(self):
        cs = circulant_eigs(constant_spectrum(1.0 / FOUR_PI2), 8)
        with pytest.raises(ValueError):
            llr_per_node(np.zeros(63), 1.0, cs)

    @settings(max_examples=30)
    @given(st.integers(4, 9), st.floats(0.0, 0.249), st.floats(0.1, 4.0),
           st.sampled_from([(1,), (3,), (2, 3)]), st.integers(0, 2**31))
    def test_stack_matches_field_loop(self, n, zeta, sigma2, lead, seed):
        cs1 = circulant_eigs(hidden_spectrum(sfcar_spectrum(sfcar_for_snr(3.0, zeta, sigma2)), sigma2), n)
        y = math.sqrt(sigma2) * np.random.default_rng(seed).standard_normal(lead + (n, n))
        stacked = llr_per_node(y, sigma2, cs1)
        loop = np.array([llr_per_node(field, sigma2, cs1) for field in y.reshape(-1, n, n)])
        assert stacked.shape == lead
        assert np.allclose(stacked.ravel(), loop, rtol=1e-13, atol=1e-15)


class TestMcKli:
    def test_iid_case_hits_stein(self):
        report = mc_kli_estimate(sfcar_for_snr(1.0, 0.0), 1.0, 64, 500, seed=1729)
        assert abs(report.mean - stein_kli(1.0)) <= 3 * report.std_error

    def test_correlated_case_hits_quadrature(self):
        report = mc_kli_estimate(sfcar_for_snr(10.0, 0.1), 1.0, 64, 500, seed=1729)
        target = kli_rate_sfcar(10.0, 0.1)
        tol = max(3 * report.std_error, 0.05 * target)
        assert abs(report.mean - target) <= tol

    def test_reproducible(self):
        model = sfcar_for_snr(2.0, 0.15)
        a = mc_kli_estimate(model, 1.0, 32, 60, seed=5)
        b = mc_kli_estimate(model, 1.0, 32, 60, seed=5)
        assert a == b

    def test_bias_shrinks_with_n(self):
        model = sfcar_for_snr(10.0, 0.1)
        target = kli_rate_sfcar(10.0, 0.1)
        dev64 = np.mean([abs(mc_kli_estimate(model, 1.0, 64, 200, seed=s).mean - target)
                         for s in range(5)])
        dev128 = np.mean([abs(mc_kli_estimate(model, 1.0, 128, 200, seed=s).mean - target)
                          for s in range(5)])
        assert dev128 < dev64

    def test_trials_floor(self):
        with pytest.raises(ValueError):
            mc_kli_estimate(sfcar_for_snr(1.0, 0.0), 1.0, 16, 10, seed=0)

    @pytest.mark.parametrize("n", [32, 64, 128])
    @pytest.mark.parametrize("snr,zeta,sigma2", [(0.5, 0.0, 1.0), (10.0, 0.1, 0.6), (2.0, 0.2, 1.7),
                                                 (20.0, 0.24, 1.0), (1.0, 0.249, 2.5)])
    def test_mean_is_torus_rule(self, n, snr, zeta, sigma2):
        # for even n the noise-law mean of the torus LLR is the n x n rectangle rule exactly
        model = sfcar_for_snr(snr, zeta, sigma2)
        report = mc_kli_estimate(model, sigma2, n, 200, seed=n + 97)
        exact = kli_rate_general(hidden_spectrum(sfcar_spectrum(model), sigma2), sigma2, n)
        assert abs(report.mean - exact) / report.std_error < 5

    @settings(max_examples=10)
    @given(st.sampled_from([5, 8, 9, 16]), st.integers(30, 70), st.floats(0.0, 0.249),
           st.integers(0, 2**31))
    def test_independent_of_chunk_size(self, n, trials, zeta, seed):
        model = sfcar_for_snr(4.0, zeta, 1.0)

        def reports():
            check = quadform_limit_check(model, 1.0, n, trials, seed)
            return [mc_kli_estimate(model, 1.0, n, trials, seed), check.dense, check.circulant]

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(gmrf_mc, "_CHUNK_BYTES", 1)
            one_field = reports()
            mp.setattr(gmrf_mc, "_CHUNK_BYTES", trials * 8 * n * n)
            runs = [reports()]
        runs.append(reports())
        for run in runs:
            for a, b in zip(one_field, run):
                assert b.mean == pytest.approx(a.mean, rel=1e-13, abs=1e-16)
                assert b.std_error == pytest.approx(a.std_error, rel=1e-11)


class TestDenseChecks:
    def test_logdet_gap_white(self):
        gaps = logdet_convergence(SfcarModel(kappa=1.0, zeta=0.0), 1.0, [8, 16])
        # hidden spectrum is flat: the per-node log-det equals the integral exactly
        assert all(g < 1e-10 for _, g in gaps)

    @pytest.mark.parametrize("zeta", [0.1, 0.2])
    def test_logdet_gap_halves(self, zeta):
        gaps = logdet_convergence(sfcar_for_snr(1.0, zeta), 1.0, [8, 16, 32])
        for (n1, g1), (n2, g2) in zip(gaps, gaps[1:]):
            assert 0.3 <= g2 / g1 <= 0.8

    def test_logdet_size_cap(self):
        with pytest.raises(ValueError):
            logdet_convergence(SfcarModel(kappa=1.0, zeta=0.0), 1.0, [64])

    def test_logdet_rejects_a_large_side_before_factorizing(self, monkeypatch):
        calls = []
        for name in ("_reflection_blocks", "_cholesky"):
            original = getattr(gmrf_mc, name)
            monkeypatch.setattr(gmrf_mc, name, lambda *a, _f=original, _n=name: calls.append(_n) or _f(*a))
        with pytest.raises(ValueError, match="^dense log-det limited to n <= 48, got 64$"):
            logdet_convergence(sfcar_for_snr(1.0, 0.1), 1.0, [8, 16, 32, 48, 64])
        assert calls == []

    @pytest.mark.parametrize("seed,message", [(-1, "seed must be >= 0, got -1"),
                                              (1.5, "seed must be an integer, got 1.5")])
    def test_bad_seed_named_before_any_work(self, monkeypatch, seed, message):
        monkeypatch.setattr(gmrf_mc, "_cholesky", lambda block: pytest.fail("factorized"))
        model = sfcar_for_snr(1.0, 0.1)
        with pytest.raises(ValueError, match=f"^{message}$"):
            mc_kli_estimate(model, 1.0, 8, 30, seed)
        with pytest.raises(ValueError, match=f"^{message}$"):
            quadform_limit_check(model, 1.0, 8, 30, seed)

    def test_quadform_limits(self):
        check = quadform_limit_check(sfcar_for_snr(1.0, 0.1), 1.0, 16, 300, seed=1729)
        tol = 3 * check.dense.std_error + 0.1 / 16 * check.target
        assert abs(check.dense.mean - check.target) <= tol
        assert abs(check.circulant.mean - check.target) <= tol
        combined = 3 * math.hypot(check.dense.std_error, check.circulant.std_error)
        assert abs(check.dense.mean - check.circulant.mean) <= combined

    def test_quadform_reproducible(self):
        model = sfcar_for_snr(1.0, 0.1)
        a = quadform_limit_check(model, 1.0, 8, 40, seed=11)
        b = quadform_limit_check(model, 1.0, 8, 40, seed=11)
        assert a == b

    def test_quadform_white_exact(self):
        check = quadform_limit_check(SfcarModel(kappa=1.0, zeta=0.0), 1.0, 8, 40, seed=0)
        # flat hidden spectrum: y' Sigma1^{-1} y / n^2 = |y|^2 / (2 n^2) exactly
        assert check.target == pytest.approx(0.5, rel=1e-12)
        assert check.dense.mean == pytest.approx(check.circulant.mean, rel=1e-12)

    def test_block_check_size_cap(self):
        model = sfcar_for_snr(1.0, 0.1)
        with pytest.raises(ValueError, match="dense quadratic form limited to n <= 32, got 33"):
            quadform_limit_check(model, 1.0, 33, 10, seed=0)
        with pytest.raises(ValueError, match="dense eigendecomposition limited to n <= 32, got 33"):
            toeplitz_circulant_gap(model, 1.0, [33])

    def test_toeplitz_circulant_gap_white(self):
        gaps = toeplitz_circulant_gap(SfcarModel(kappa=1.0, zeta=0.0), 1.0, [8, 16])
        assert all(g < 1e-12 for _, g in gaps)

    def test_toeplitz_circulant_gap_shrinks(self):
        gaps = toeplitz_circulant_gap(sfcar_for_snr(1.0, 0.1), 1.0, [8, 16, 32])
        for (n1, g1), (n2, g2) in zip(gaps, gaps[1:]):
            assert 0.35 <= g2 / g1 <= 0.75

    def test_gap_grows_with_correlation(self):
        weak = toeplitz_circulant_gap(sfcar_for_snr(1.0, 0.05), 1.0, [16])[0][1]
        strong = toeplitz_circulant_gap(sfcar_for_snr(1.0, 0.2), 1.0, [16])[0][1]
        assert strong > weak

    @pytest.mark.parametrize("sigma2", [math.nan, math.inf, -math.inf])
    def test_nonfinite_sigma2_rejected(self, sigma2):
        model = sfcar_for_snr(1.0, 0.1)
        with pytest.raises(ValueError, match="sigma2 must be finite"):
            logdet_convergence(model, sigma2, [8])
        with pytest.raises(ValueError, match="sigma2 must be finite"):
            mc_kli_estimate(model, sigma2, 8, 30, seed=0)

    def test_dense_matrices_consistent(self):
        # circulant equals Toeplitz wherever offsets do not wrap
        model = sfcar_for_snr(1.0, 0.1)
        sig = dense_covariance(model, 1.0, 8)
        circ = dense_circulant(model, 1.0, 8)
        assert sig[0, 1] == pytest.approx(circ[0, 1], rel=1e-12)
        assert sig[0, 0] == pytest.approx(circ[0, 0], rel=1e-12)

    @pytest.mark.parametrize("call", [
        lambda m: logdet_convergence(m, 1.0, [-3]),
        lambda m: logdet_convergence(m, 1.0, [0]),
        lambda m: toeplitz_circulant_gap(m, 1.0, [0]),
        lambda m: dense_covariance(m, 1.0, -2),
        lambda m: dense_circulant(m, 1.0, 0),
    ])
    def test_side_below_one_rejected(self, call):
        with pytest.raises(ValueError, match="n must be >= 1, got"):
            call(sfcar_for_snr(1.0, 0.1))

    @pytest.mark.parametrize("n", [8.0, 33.5, math.nan])
    def test_non_integer_side_rejected(self, n):
        with pytest.raises(ValueError, match="n must be an integer, got"):
            dense_covariance(sfcar_for_snr(1.0, 0.1), 1.0, n)

    def test_numpy_integer_side_accepted(self):
        model = sfcar_for_snr(1.0, 0.1)
        assert np.array_equal(dense_covariance(model, 1.0, np.int64(4)), dense_covariance(model, 1.0, 4))

    @pytest.mark.parametrize("sigma2,message", [(-1.0, "sigma2 must be >= 0, got -1.0"),
                                                (math.nan, "sigma2 must be finite, got nan"),
                                                (math.inf, "sigma2 must be finite, got inf")],
                             ids=["negative", "nan", "inf"])
    @pytest.mark.parametrize("call", [
        lambda m, s2: dense_covariance(m, s2, 4),
        lambda m, s2: dense_circulant(m, s2, 4),
        lambda m, s2: _reflection_blocks(m, s2, 4, wrap=False),
        lambda m, s2: toeplitz_circulant_gap(m, s2, [4]),
    ])
    def test_bad_dense_sigma2_rejected(self, call, sigma2, message):
        with pytest.raises(ValueError, match=message):
            call(sfcar_for_snr(1.0, 0.1), sigma2)

    @settings(max_examples=60)
    @given(st.integers(4, 9), st.floats(0.0, 0.249), st.floats(0.0, 4.0), st.booleans())
    def test_reflection_blocks_keep_the_spectrum(self, n, zeta, sigma2, wrap):
        model = SfcarModel(kappa=1.0, zeta=zeta)
        full = dense_circulant(model, sigma2, n) if wrap else dense_covariance(model, sigma2, n)
        blocks = _reflection_blocks(model, sigma2, n, wrap)
        sides = [(n + 1) // 2, n // 2]
        assert [len(b) for b in blocks] == [a * b for a in sides for b in sides]
        split = np.sort(np.concatenate([np.linalg.eigvalsh(b) for b in blocks]))
        whole = np.linalg.eigvalsh(full)
        assert np.abs(split - whole).max() <= 1e-12 * np.abs(whole).max()


def gamma_mp(zeta, h1, h2):
    """Plane autocovariance of SfcarModel(1, zeta) at 30 digits: the w2 integral
    in closed form, the w1 integral by mpmath quadrature."""
    with mpmath.workdps(30):
        z = mpmath.mpf(zeta)

        def integrand(w):
            a = 1 - 2 * z * mpmath.cos(w)
            s = mpmath.sqrt((a - 2 * z) * (a + 2 * z))
            return mpmath.cos(h1 * w) * (2 * z / (a + s)) ** h2 / s

        return mpmath.quad(integrand, [0, 0.01, 0.1, 0.5, mpmath.pi]) / mpmath.pi


def signal_gamma(model, n):
    """gamma[h1, h2] for offsets below n, read off the first row of the dense covariance."""
    return dense_covariance(model, 0.0, n)[0].reshape(n, n)


def traced_peak(call):
    """Peak bytes traced by tracemalloc while call() runs."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def grid_mean(model, sigma2, fn):
    """The 2-D grid-mean reference: mean of fn((2 pi)^2 f1) over the 1024^2 frequency grid."""
    vals = hidden_spectrum(sfcar_spectrum(model), sigma2).grid_values(1024)
    return float(np.mean(fn(FOUR_PI2 * vals)))


class TestClosedFormW2:
    @pytest.mark.parametrize("zeta", [0.1, 0.2, 0.249, 0.2499])
    def test_gamma_matches_mpmath(self, zeta):
        kappa = 1.7
        gamma = signal_gamma(SfcarModel(kappa, zeta), 8)
        for h1, h2 in [(0, 0), (1, 0), (0, 1), (2, 1), (3, 5), (7, 0), (0, 7), (6, 7), (7, 7)]:
            ref = float(gamma_mp(zeta, h1, h2)) / kappa
            assert gamma[h1, h2] == pytest.approx(ref, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("zeta", [0.0, 0.05, 0.1, 0.2, 0.249])
    def test_gamma_matches_grid_fft(self, zeta):
        model = SfcarModel(1.3, zeta)
        gamma = signal_gamma(model, 16)
        ref = autocovariance_grid(sfcar_spectrum(model), 1024)[:16, :16]
        assert np.abs(gamma - ref).max() <= 2e-15 * ref[0, 0]

    @pytest.mark.parametrize("snr,zeta,sigma2", [
        (1.0, 0.0, 1.0), (1.0, 0.1, 0.7), (20.0, 0.2, 1.9), (0.5, 0.249, 1.0), (1e4, 0.15, 1.0)])
    def test_targets_match_grid_means(self, snr, zeta, sigma2):
        model = sfcar_for_snr(snr, zeta, sigma2)
        logdet, quadform = _hidden_limits(model, sigma2)
        assert logdet == pytest.approx(grid_mean(model, sigma2, np.log), rel=1e-13, abs=0.0)
        # the log-det limit is log sigma^2 + 2 MI, with MI from the rate kernel
        mi = mi_rate_sfcar(measurement_snr(model, sigma2), zeta)
        assert logdet == pytest.approx(math.log(sigma2) + 2.0 * mi, rel=1e-13, abs=0.0)
        assert quadform == pytest.approx(grid_mean(model, sigma2, lambda lam: sigma2 / lam),
                                         rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("call", [
        lambda m: dense_covariance(m, 1.0, 4),
        lambda m: dense_circulant(m, 1.0, 4),
        lambda m: logdet_convergence(m, 1.0, [4]),
        lambda m: quadform_limit_check(m, 1.0, 4, 30, seed=0),
        lambda m: toeplitz_circulant_gap(m, 1.0, [4]),
    ])
    def test_quarter_zeta_is_singular(self, call):
        with pytest.raises(SingularSpectrumError, match="spectrum is not finite"):
            call(SfcarModel(kappa=1.0, zeta=0.25))

    def test_dense_check_memory_stays_small(self):
        # the dense checks read offsets below n only; nothing of the quadrature grid's size^2
        model = sfcar_for_snr(1.0, 0.12)
        assert traced_peak(lambda: toeplitz_circulant_gap(model, 1.0, [8])) < 4 * 2**20

    @pytest.mark.parametrize("call", [
        lambda m: mc_kli_estimate(m, 1.0, 128, 200, seed=1),
        lambda m: mc_kli_estimate(m, 1.0, 64, 500, seed=1),
        lambda m: quadform_limit_check(m, 1.0, 32, 100, seed=1),
        lambda m: logdet_convergence(m, 1.0, [8, 16, 32]),
        lambda m: toeplitz_circulant_gap(m, 1.0, [8, 16, 32]),
    ])
    def test_trial_and_block_memory_stays_small(self, call):
        # trials go through a fixed chunk buffer and dense work through quarter-size blocks
        model = sfcar_for_snr(2.0, 0.15)
        assert traced_peak(lambda: call(model)) <= 8 * 2**20
