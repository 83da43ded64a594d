"""Asymptotic per-node information rates for hidden stationary Gaussian fields.

General d-dimensional spectral integrals (Kullback-Leibler and mutual
information rates), the closed-form symmetric first-order CAR case
parameterized by (SNR, zeta), the small-SNR constants, and the search for the
information-maximizing edge dependence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ._util import check_finite, check_positive, golden_section_max
from .specfun import _agm, elliptic_k
from .spectra import SpectralDensity, omega_grid

__all__ = [
    "InfoRateResult",
    "LowSnrConstants",
    "kli_rate_general",
    "mi_rate_general",
    "kli_rate_sfcar",
    "mi_rate_sfcar",
    "sfcar_info_rates",
    "stein_kli",
    "low_snr_constants",
    "optimal_zeta",
]

DEFAULT_GRID = 512

# optimal_zeta: points of the coarse zeta scan, and the golden-section bracket
# width at which the refinement stops (also its snap distance to 0 and 1/4)
_ZETA_SCAN_POINTS = 101
_ZETA_TOL = 1e-6


@dataclass(frozen=True)
class InfoRateResult:
    """Per-node KLI and MI rates [nats/node] with a self-convergence error bar.

    ``quad_error_estimate`` is the largest gap between the rates evaluated at
    ``grid`` and at ``2 * grid`` points per dimension.
    """

    kli: float
    mi: float
    grid: int
    quad_error_estimate: float


@dataclass(frozen=True)
class LowSnrConstants:
    """Leading small-SNR coefficients: KLI ~ c3 * SNR^2 and MI ~ c3_prime * SNR."""

    c3: float
    c3_prime: float


@lru_cache(maxsize=8)
def _cos_sum(grid: int) -> np.ndarray:
    """cos(w1) + cos(w2) on the rate-quadrature grid, cached per grid size."""
    c = np.cos(omega_grid(grid))
    out = c[:, None] + c[None, :]
    out.setflags(write=False)
    return out


def _check_snr(snr: float) -> None:
    check_finite(snr=snr)
    if snr < 0.0:
        raise ValueError(f"snr must be >= 0, got {snr!r}")


def _sfcar_rates(snr: float, zeta: float, grid: int,
                 kli: bool = True, mi: bool = True) -> tuple[float, float]:
    """(KLI, MI) of the hidden SFCAR from one grid pass; a rate not asked for is NaN.

    Both integrands are functions of a = snr / (q (1 - 2 zeta (cos w1 + cos w2))):
    MI = mean(h) and KLI = mean(h - a / (2 (1 + a))) with h = log1p(a) / 2.
    zeta = 1/4 (the perfectly correlated limit) and snr = 0 give exactly 0.
    """
    _check_snr(snr)
    if not 0.0 <= zeta <= 0.25:
        raise ValueError(f"zeta must lie in [0, 1/4], got {zeta!r}")
    if snr == 0.0 or zeta == 0.25:
        return 0.0, 0.0
    q = (2.0 / math.pi) * elliptic_k(4.0 * zeta)
    a = snr / (q * (1.0 - 2.0 * zeta * _cos_sum(grid)))
    h = 0.5 * np.log1p(a)
    return (float(np.mean(h - 0.5 * a / (1.0 + a))) if kli else math.nan,
            float(np.mean(h)) if mi else math.nan)


def kli_rate_sfcar(snr: float, zeta: float, grid: int = DEFAULT_GRID) -> float:
    """Per-node KLI rate of the hidden SFCAR model [nats/node]; 0 at zeta = 1/4 and at snr = 0."""
    return _sfcar_rates(snr, zeta, grid, mi=False)[0]


def mi_rate_sfcar(snr: float, zeta: float, grid: int = DEFAULT_GRID) -> float:
    """Per-node MI rate of the hidden SFCAR model [nats/node]."""
    return _sfcar_rates(snr, zeta, grid, kli=False)[1]


def sfcar_info_rates(snr: float, zeta: float, grid: int = DEFAULT_GRID) -> InfoRateResult:
    """Both SFCAR rates at ``grid`` plus the gap to a 2x-refined quadrature."""
    kli, mi = _sfcar_rates(snr, zeta, grid)
    kli_fine, mi_fine = _sfcar_rates(snr, zeta, 2 * grid)
    err = max(abs(kli - kli_fine), abs(mi - mi_fine))
    return InfoRateResult(kli=kli, mi=mi, grid=grid, quad_error_estimate=err)


def stein_kli(snr: float) -> float:
    """KLI rate of i.i.d. observations: 0.5 log(1+SNR) - 0.5 (1 - 1/(1+SNR))."""
    _check_snr(snr)
    return 0.5 * math.log1p(snr) - 0.5 * snr / (1.0 + snr)


def kli_rate_general(f1: SpectralDensity, sigma2: float, grid: int = DEFAULT_GRID) -> float:
    """Per-node KLI rate for a general d-D alternative spectrum f1 (d <= 3).

    (2 pi)^{-d} integral of the bin-wise Gaussian Kullback-Leibler divergence
    D(N(0, sigma^2) || N(0, (2 pi)^d f1)); nonnegative term by term.
    """
    check_positive(sigma2=sigma2)
    if f1.dim > 3:
        raise ValueError("rate quadrature supports d <= 3 only (grid memory)")
    r = (2.0 * math.pi) ** f1.dim * f1.grid_values(grid) / sigma2
    if not np.all(np.isfinite(r)) or r.min() <= 0.0:
        raise ValueError("alternative spectrum must be finite and strictly positive")
    return float(np.mean(0.5 * np.log(r) - 0.5 * (1.0 - 1.0 / r)))


def mi_rate_general(f: SpectralDensity, sigma2: float, grid: int = DEFAULT_GRID) -> float:
    """Per-node MI rate for a general d-D signal spectrum f (d <= 3)."""
    check_positive(sigma2=sigma2)
    if f.dim > 3:
        raise ValueError("rate quadrature supports d <= 3 only (grid memory)")
    vals = f.grid_values(grid)
    if not np.all(np.isfinite(vals)) or vals.min() < 0.0:
        raise ValueError("signal spectrum must be finite and nonnegative")
    a = (2.0 * math.pi) ** f.dim * vals / sigma2
    return float(np.mean(0.5 * np.log1p(a)))


def low_snr_constants(zeta: float) -> LowSnrConstants:
    """Small-SNR coefficients c3 (KLI, quadratic) and c3' (MI, linear).

    c3  = (2^6 K^2(4 zeta))^{-1} integral (1 - 2 zeta cos w1 - 2 zeta cos w2)^{-2}
        = pi E(4 zeta) / (8 (1 - 16 zeta^2) K(4 zeta)^2)
    c3' = (2^4 pi K(4 zeta))^{-1} integral (1 - 2 zeta cos w1 - 2 zeta cos w2)^{-1} = 1/2
    c3 diverges at zeta = 1/4, so zeta > 0.2499 is rejected.
    """
    if not 0.0 <= zeta <= 0.2499:
        raise ValueError(f"zeta must lie in [0, 0.2499] for the low-SNR constants, got {zeta!r}")
    k = 4.0 * zeta
    m, _, e_over_k = _agm(k)  # c3 = M (E / K) / (4 (1 - k^2)) since K = pi / (2 M)
    return LowSnrConstants(c3=m * e_over_k / (4.0 * (1.0 - k) * (1.0 + k)), c3_prime=0.5)


def optimal_zeta(snr: float, grid: int = DEFAULT_GRID) -> tuple[float, float]:
    """Edge dependence maximizing the per-node KLI rate at the given SNR.

    Coarse scan of 101 points over [0, 1/4] (ties resolved toward smaller
    zeta) followed by golden-section refinement between the neighbors of the
    best coarse point.  Returns (zeta_star, kli_star); a refined point within
    1e-6 of an interval endpoint snaps to it exactly, and the best coarse
    point is returned instead where its KLI is higher.
    """
    check_positive(snr=snr)

    def objective(z: float) -> float:
        return kli_rate_sfcar(snr, z, grid)

    zs = np.linspace(0.0, 0.25, _ZETA_SCAN_POINTS)
    vals = np.array([objective(z) for z in zs])
    return golden_section_max(objective, zs, vals, abs_tol=_ZETA_TOL)
