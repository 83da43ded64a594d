"""Torus Monte Carlo and dense-matrix verification of the rate limits."""

import math

import numpy as np
import pytest

from gmrfinfo.gmrf_mc import (
    NonpositiveEigenvalueError,
    _signal_gamma_table,
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
from gmrfinfo.inforates import kli_rate_sfcar, stein_kli
from gmrfinfo.spectra import (
    SfcarModel,
    SingularSpectrumError,
    constant_spectrum,
    hidden_spectrum,
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
        spec = sfcar_spectrum(SfcarModel(kappa=1.0, zeta=0.1))
        gaps = []
        for n in (16, 32, 64):
            a = circulant_eigs(spec, n, "spectrum")
            b = circulant_eigs(spec, n, "wrapped")
            gaps.append(np.abs(a.eigs - b.eigs).max())
        assert gaps[1] < gaps[0] and gaps[2] < gaps[1]

    def test_singular_model_rejected(self):
        with pytest.raises(SingularSpectrumError):
            circulant_eigs(sfcar_spectrum(SfcarModel(kappa=1.0, zeta=0.25)), 8)

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            circulant_eigs(constant_spectrum(1.0), 2)


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

    def test_length_mismatch(self):
        cs = circulant_eigs(constant_spectrum(1.0 / FOUR_PI2), 8)
        with pytest.raises(ValueError):
            llr_per_node(np.zeros(63), 1.0, cs)


class TestMcKli:
    def test_iid_case_hits_stein(self):
        report = mc_kli_estimate(sfcar_for_snr(1.0, 0.0), 1.0, 64, 500, seed=1729)
        assert abs(report.mean - stein_kli(1.0)) <= 3 * report.std_error

    def test_correlated_case_hits_quadrature(self):
        report = mc_kli_estimate(sfcar_for_snr(10.0, 0.1), 1.0, 64, 500, seed=1729)
        target = kli_rate_sfcar(10.0, 0.1, 512)
        tol = max(3 * report.std_error, 0.05 * target)
        assert abs(report.mean - target) <= tol

    def test_reproducible(self):
        model = sfcar_for_snr(2.0, 0.15)
        a = mc_kli_estimate(model, 1.0, 32, 60, seed=5)
        b = mc_kli_estimate(model, 1.0, 32, 60, seed=5)
        assert a == b

    def test_bias_shrinks_with_n(self):
        model = sfcar_for_snr(10.0, 0.1)
        target = kli_rate_sfcar(10.0, 0.1, 512)
        dev64 = np.mean([abs(mc_kli_estimate(model, 1.0, 64, 200, seed=s).mean - target)
                         for s in range(5)])
        dev128 = np.mean([abs(mc_kli_estimate(model, 1.0, 128, 200, seed=s).mean - target)
                          for s in range(5)])
        assert dev128 < dev64

    def test_trials_floor(self):
        with pytest.raises(ValueError):
            mc_kli_estimate(sfcar_for_snr(1.0, 0.0), 1.0, 16, 10, seed=0)


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

    def test_gamma_table_cache_holds_one_model(self):
        # every cache hit comes from within one call; older tables are never read again
        toeplitz_circulant_gap(sfcar_for_snr(1.0, 0.05), 1.0, [8])
        logdet_convergence(sfcar_for_snr(1.0, 0.15), 1.0, [8, 16])
        assert _signal_gamma_table.cache_info().currsize == 1
        before = _signal_gamma_table.cache_info().misses
        toeplitz_circulant_gap(sfcar_for_snr(1.0, 0.12), 1.0, [8, 16])
        assert _signal_gamma_table.cache_info().misses == before + 1
        assert _signal_gamma_table.cache_info().currsize == 1

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
