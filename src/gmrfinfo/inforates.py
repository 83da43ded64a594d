"""Asymptotic per-node information rates for hidden stationary Gaussian fields.

General d-dimensional spectral integrals (Kullback-Leibler and mutual
information rates), the closed-form symmetric first-order CAR case
parameterized by (SNR, zeta), the small-SNR constants, and the search for the
information-maximizing edge dependence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._util import check_at_least, check_positive, golden_section_max
from .specfun import _agm, elliptic_k
from .spectra import SpectralDensity, check_zeta, omega_grid

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
# width at which the refinement stops
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


def _sfcar_rates(snr: float, zeta: float, grid: int) -> tuple[float, float]:
    """(KLI, MI) of the hidden SFCAR from one pass over the folded grid.

    Both integrands are functions of a = snr / (q (1 - 2 zeta (cos w1 + cos w2))):
    MI = mean(log1p(a)) / 2 and KLI = mean(log1p(a) - a / (1 + a)) / 2, the means
    taken over the grid^2 nodes of omega_grid(grid).  Node grid - i has the cosine
    of node i, so only nodes i = 0..grid // 2 are evaluated, each weighted 2 when it
    also stands for its mirror (1 at -pi and, for even grids, at 0); the weights
    1, 2 and 4 are exact and the weighted sums are numpy's pairwise sums.
    zeta = 1/4 (the perfectly correlated limit) and snr = 0 give exactly 0.
    """
    check_at_least(0, snr=snr)
    check_zeta(zeta)
    if snr == 0.0 or zeta == 0.25:
        return 0.0, 0.0
    q = (2.0 / math.pi) * elliptic_k(4.0 * zeta)
    half = grid // 2 + 1
    c = np.cos(omega_grid(grid)[:half])
    w = np.full(half, 2.0)
    w[0] = 1.0
    if grid % 2 == 0:
        w[-1] = 1.0
    weights = np.outer(w, w)
    a = snr / (q * (1.0 - 2.0 * zeta * (c[:, None] + c)))
    h = np.log1p(a)
    mi = 0.5 * (float((h * weights).sum()) / grid**2)  # halving is exact, so it can follow the mean
    a /= 1.0 + a
    h -= a
    h *= weights
    return 0.5 * (float(h.sum()) / grid**2), mi


def kli_rate_sfcar(snr: float, zeta: float, grid: int = DEFAULT_GRID) -> float:
    """Per-node KLI rate of the hidden SFCAR model [nats/node]; 0 at zeta = 1/4 and at snr = 0."""
    return _sfcar_rates(snr, zeta, grid)[0]


def mi_rate_sfcar(snr: float, zeta: float, grid: int = DEFAULT_GRID) -> float:
    """Per-node MI rate of the hidden SFCAR model [nats/node]."""
    return _sfcar_rates(snr, zeta, grid)[1]


def sfcar_info_rates(snr: float, zeta: float, grid: int = DEFAULT_GRID) -> InfoRateResult:
    """Both SFCAR rates at ``grid`` plus the gap to a 2x-refined quadrature."""
    kli, mi = _sfcar_rates(snr, zeta, grid)
    kli_fine, mi_fine = _sfcar_rates(snr, zeta, 2 * grid)
    err = max(abs(kli - kli_fine), abs(mi - mi_fine))
    return InfoRateResult(kli=kli, mi=mi, grid=grid, quad_error_estimate=err)


def stein_kli(snr: float) -> float:
    """KLI rate of i.i.d. observations: 0.5 log(1+SNR) - 0.5 (1 - 1/(1+SNR))."""
    check_at_least(0, snr=snr)
    return 0.5 * math.log1p(snr) - 0.5 * snr / (1.0 + snr)


def _scaled_grid(f: SpectralDensity, sigma2: float, grid: int) -> np.ndarray:
    """(2 pi)^d f / sigma^2 on the grid^d quadrature grid of the general rates (d <= 3)."""
    check_positive(sigma2=sigma2)
    if f.dim > 3:
        raise ValueError("rate quadrature supports d <= 3 only (grid memory)")
    return (2.0 * math.pi) ** f.dim * f.grid_values(grid) / sigma2


def kli_rate_general(f1: SpectralDensity, sigma2: float, grid: int = DEFAULT_GRID) -> float:
    """Per-node KLI rate for a general d-D alternative spectrum f1 (d <= 3).

    (2 pi)^{-d} integral of the bin-wise Gaussian Kullback-Leibler divergence
    D(N(0, sigma^2) || N(0, (2 pi)^d f1)); nonnegative term by term.
    """
    r = _scaled_grid(f1, sigma2, grid)
    if not np.all(np.isfinite(r)) or r.min() <= 0.0:
        raise ValueError("alternative spectrum must be finite and strictly positive")
    return float(np.mean(0.5 * np.log(r) - 0.5 * (1.0 - 1.0 / r)))


def mi_rate_general(f: SpectralDensity, sigma2: float, grid: int = DEFAULT_GRID) -> float:
    """Per-node MI rate for a general d-D signal spectrum f (d <= 3)."""
    a = _scaled_grid(f, sigma2, grid)
    if not np.all(np.isfinite(a)) or a.min() < 0.0:
        raise ValueError("signal spectrum must be finite and nonnegative")
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
    best coarse point.  Returns (zeta_star, kli_star); the best coarse point
    is returned instead unless the refined KLI beats it by more than 1e-14
    relative (ties go to the grid point), so an optimum at zeta = 0 is exact.
    """
    check_positive(snr=snr)

    def objective(z: float) -> float:
        return kli_rate_sfcar(snr, z, grid)

    zs = np.linspace(0.0, 0.25, _ZETA_SCAN_POINTS)
    vals = np.array([objective(z) for z in zs])
    return golden_section_max(objective, zs, vals, abs_tol=_ZETA_TOL)
