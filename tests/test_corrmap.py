"""Correlation parameterization maps: zeta <-> rho <-> physical spacing."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmrfinfo.corrmap import (
    PhysicalField,
    rho_from_spacing,
    rho_from_zeta,
    zeta_from_rho,
    zeta_from_spacing,
)
from gmrfinfo.spectra import SfcarModel, autocovariance, sfcar_spectrum

# A spacing (alpha * dn = 10.63, zeta = 1.02e-4) on which the inversion once
# missed its 1e-12 bound, through cancellation in q - 1 just above zeta = 1e-4.
PROBE_ALPHA, PROBE_DN = 1.4400831977243875, 7.38468254474391


def rho_mp(zeta) -> mpmath.mpf:
    """(q - 1) / (4 zeta q) with q = (2/pi) K(4 zeta), carrying enough digits
    that q - 1 ~ 4 zeta^2 keeps 30 of its own."""
    zeta = mpmath.mpf(zeta)
    with mpmath.workdps(30 + int(2 * max(0.0, -math.log10(zeta)))):
        q = 2 / mpmath.pi * mpmath.ellipk((4 * zeta) ** 2)
        return +((q - 1) / (4 * zeta * q))


def zeta_mp(rho: float) -> float:
    """The zeta whose mpmath correlation is rho, by bisection at 30 digits."""
    with mpmath.workdps(30):
        lo, hi = mpmath.mpf(0), mpmath.mpf(0.25)
        for _ in range(100):
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if rho_mp(mid) < rho else (lo, mid)
        return float((lo + hi) / 2)


class TestRhoFromZeta:
    def test_endpoints(self):
        assert rho_from_zeta(0.0) == 0.0
        assert rho_from_zeta(0.25) == 1.0

    def test_matches_spectral_ratio(self):
        for zeta in (0.05, 0.1, 0.15, 0.2):
            spec = sfcar_spectrum(SfcarModel(kappa=1.0, zeta=zeta))
            g00 = autocovariance(spec, (0, 0), 1024)
            g01 = autocovariance(spec, (0, 1), 1024)
            assert rho_from_zeta(zeta) == pytest.approx(g01 / g00, abs=1e-5)

    def test_strictly_increasing(self):
        zs = np.linspace(0.0, 0.25, 101)
        rs = [rho_from_zeta(float(z)) for z in zs]
        assert all(b > a for a, b in zip(rs, rs[1:]))

    def test_series_branch_continuous(self):
        # across the old seam of a Taylor-series branch at zeta = 1e-4
        below = rho_from_zeta(1e-4 * (1 - 1e-9))
        above = rho_from_zeta(1e-4 * (1 + 1e-9))
        assert below == pytest.approx(above, rel=1e-9)

    @pytest.mark.parametrize("zeta", [1e-300, 1e-200, 1e-9, 1e-4 - 1e-13, 1e-4 + 1e-13,
                                      0.01, 0.2, 0.25 - 1e-9])
    def test_matches_mpmath(self, zeta):
        assert abs(rho_from_zeta(zeta) / float(rho_mp(zeta)) - 1.0) <= 1e-14

    def test_domain(self):
        with pytest.raises(ValueError):
            rho_from_zeta(-0.01)
        with pytest.raises(ValueError):
            rho_from_zeta(0.26)


class TestZetaFromRho:
    def test_endpoints(self):
        assert zeta_from_rho(0.0) == 0.0
        assert zeta_from_rho(1.0) == 0.25

    @pytest.mark.parametrize("zeta", [0.01, 0.1, 0.2, 0.24])
    def test_roundtrip(self, zeta):
        assert zeta_from_rho(rho_from_zeta(zeta)) == pytest.approx(zeta, abs=1e-10)

    def test_inverts_mpmath_within_documented_tolerance(self):
        zetas = list(np.logspace(-6, math.log10(0.2), 41)) + [1e-4 - 1e-13, 1e-4 + 1e-13, 1.057e-4]
        for zeta in zetas:
            assert abs(zeta_from_rho(float(rho_mp(zeta))) - zeta) <= 1e-12, zeta

    def test_probe_spacing_within_documented_tolerance(self):
        rho = rho_from_spacing(PhysicalField(PROBE_ALPHA), PROBE_DN)
        zeta = zeta_from_rho(rho)
        assert 1e-4 < zeta < 1.1e-4  # just above the old series seam
        assert abs(zeta - zeta_mp(rho)) <= 1e-12

    @settings(max_examples=200, deadline=None)
    @given(st.floats(min_value=0.0, max_value=0.6))
    def test_roundtrip_property(self, rho):
        assert rho_from_zeta(zeta_from_rho(rho)) == pytest.approx(rho, abs=1e-10)

    def test_half_correlation_consistent(self):
        z = zeta_from_rho(0.5)
        assert 0.0 < z < 0.25
        assert rho_from_zeta(z) == pytest.approx(0.5, abs=1e-10)

    def test_domain(self):
        with pytest.raises(ValueError):
            zeta_from_rho(-0.1)
        with pytest.raises(ValueError):
            zeta_from_rho(1.1)


class TestRhoFromSpacing:
    def test_zero_spacing_limit(self):
        field = PhysicalField(alpha=1.0)
        assert rho_from_spacing(field, 0.0) == 1.0
        assert rho_from_spacing(field, 1e-6) == pytest.approx(1.0, abs=1e-6)

    def test_flat_top(self):
        field = PhysicalField(alpha=1.0)
        slope = (rho_from_spacing(field, 1e-3) - rho_from_spacing(field, 0.0)) / 1e-3
        assert abs(slope) < 0.01

    def test_exponential_tail(self):
        field = PhysicalField(alpha=1.0)
        dn = 8.0
        ratio = rho_from_spacing(field, dn) / (math.sqrt(math.pi / 2 * dn) * math.exp(-dn))
        assert ratio == pytest.approx(1.0, abs=0.05)

    def test_strictly_decreasing(self):
        field = PhysicalField(alpha=0.7)
        ds = np.linspace(1e-3, 20.0, 100)
        rs = [rho_from_spacing(field, float(d)) for d in ds]
        assert all(b < a for a, b in zip(rs, rs[1:]))

    def test_domain(self):
        with pytest.raises(ValueError):
            rho_from_spacing(PhysicalField(alpha=1.0), -0.5)
        with pytest.raises(ValueError):
            PhysicalField(alpha=0.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_nonfinite_rejected(self, value):
        with pytest.raises(ValueError, match="spacing must be finite"):
            rho_from_spacing(PhysicalField(alpha=1.0), value)


class TestZetaFromSpacing:
    def test_wide_spacing_decorrelates(self):
        assert zeta_from_spacing(PhysicalField(alpha=1.0), 50.0) < 1e-8

    def test_dense_spacing_saturates(self):
        assert zeta_from_spacing(PhysicalField(alpha=1.0), 1e-4) == pytest.approx(0.25, abs=1e-4)

    def test_optimal_density_regime_range(self):
        # alpha = 100 over the density range of the budgeted-network studies:
        # edge correlation runs from almost zero up to about 0.6
        field = PhysicalField(alpha=100.0)
        mus = np.logspace(0, 4, 41)
        rhos = [rho_from_spacing(field, 1.0 / math.sqrt(mu)) for mu in mus]
        assert rhos[0] < 0.01
        assert 0.55 <= max(rhos) <= 0.75
