"""Asymptotic per-node information rates for hidden stationary Gaussian fields.

General d-dimensional spectral integrals (Kullback-Leibler and mutual
information rates), the closed-form symmetric first-order CAR case
parameterized by (SNR, zeta), the small-SNR constants, and the search for the
information-maximizing edge dependence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._util import check_at_least, check_positive, golden_section_max
from .specfun import _agm, elliptic_k
from .spectra import SpectralDensity, _mirror_half, _sample_grid, _w2_closed_form, check_zeta, omega_grid

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

# optimal_zeta searches the gap 1/4 - zeta from 2^-55, the smallest gap a double zeta carries (a
# bracket closing on 0 never reaches a relative width), to 1/4, and stops at this relative width
_MIN_GAP = 0.25 - math.nextafter(0.25, 0.0)
_GAP_REL_TOL = 4e-6  # of the bracket's upper gap: 1e-6 in zeta at zeta = 0

# rows of the leading axis that the general rates sample at once: about 256 KiB of values
_SLAB_BYTES = 2**18


@dataclass(frozen=True)
class InfoRateResult:
    """Per-node KLI and MI rates [nats/node] with a self-convergence error bar.

    ``quad_error_estimate`` is the largest gap between the rates evaluated at
    ``grid`` and at ``2 * grid`` w1 nodes.
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


def _power_series(z: np.ndarray, coef: tuple[float, ...]) -> np.ndarray:
    """sum_k coef[k] z^k (coef positive and falling) by Horner's rule, through the first term
    below 2^-60 coef[0] at the largest |z|."""
    top, k = float(np.abs(z).max()), 1
    while k < len(coef) and coef[k] * top**k >= 2.0**-60 * coef[0]:
        k += 1
    total = np.full_like(z, coef[k - 1])
    for c in reversed(coef[: k - 1]):
        total *= z
        total += c
    return total


# coefficients of 2 (atanh(u) - u) / (2 u^3) in u^2
_ATANH_COEF = tuple(1.0 / (2 * k + 3) for k in range(40))


def _sfcar_rates(snr: float, zeta: float, grid: int) -> tuple[float, float]:
    """(KLI, MI) of the hidden SFCAR: the grid-node rectangle-rule means over w1 of the exact
    w2 integrals of MI = log1p(a) / 2 and KLI = (log1p(a) - a / (1 + a)) / 2, with
    a = snr / (q (1 - 2 zeta (cos w1 + cos w2))).

    Along w2, q (1 + a) and q are A1 - B cos w2 and A - B cos w2 with A1 = A + snr, and
    spectra._w2_closed_form gives the exact w2 means of their logs and reciprocals; the w1
    nodes of omega_grid(grid) fold onto 0..grid // 2 with the weights of spectra._mirror_half.
    Per w1 node, with s0 and s1 the s of A and A1 and 1 + x = (A1 + s1) / (A + s0),
        2 MI = log1p(x),    2 KLI = log1p(x) - snr / s1.
    Every near-equal difference is taken from snr: s1 - s0 = snr (A + A1) / (s0 + s1).  For
    x <= 1 the KLI term is the sum of log1p(x) - x / (1 + x) (an atanh series) and
    x / (1 + x) - snr / s1 = snr^2 B^2 (A + A1) / ((s0 + s1) s1 (A1 + s1) (s1 A + A1 s0)),
    both positive.  zeta = 1/4 (the perfectly correlated limit) and snr = 0 give exactly 0.
    """
    check_at_least(0, snr=snr)
    check_zeta(zeta)
    if snr == 0.0 or zeta == 0.25:
        return 0.0, 0.0
    w1, weights = _mirror_half(grid)
    snr_q = snr / ((2.0 / math.pi) * elliptic_k(4.0 * zeta))  # A, B and s in units of q
    (a, a1), b, (s0, s1) = _w2_closed_form(zeta, w1, 1.0, np.array([[0.0], [snr_q]]))
    s01 = s0 + s1
    rise = snr_q * (1.0 + (a + a1) / s01)  # (A1 + s1) - (A + s0)
    x = rise / (a + s0)
    mi = np.log1p(x)
    kli = mi - snr_q / s1
    small = x <= 1.0
    if small.any():
        tilt = snr_q * snr_q * (b * b) * (a + a1) / (s01 * s1 * (a1 + s1) * (s1 * a + a1 * s0))
        # log1p(x) - x / (1 + x) = 2 atanh(u) - 2u / (1 + u) with u = x / (2 + x) <= 1/3
        u = np.where(small, rise / (a + a1 + s01), 0.0)
        v = u * u
        lead = 2.0 * v / (1.0 + u) + 2.0 * u * v * _power_series(v, _ATANH_COEF) + tilt
        kli = np.where(small, lead, kli)
    return 0.5 * (float((weights * kli).sum()) / grid), 0.5 * (float((weights * mi).sum()) / grid)


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


def _half_grid_mean(f: SpectralDensity, sigma2: float, grid: int,
                    term: Callable[[np.ndarray], np.ndarray]) -> float:
    """The grid^d rectangle-rule mean of term((2 pi)^d f / sigma^2) for an even f (d <= 3),
    sampled in slabs of about _SLAB_BYTES of rows of the leading axis.

    f(-omega) = f(omega), and omega -> -omega maps row i of the grid onto row grid - i (row 0,
    at -pi, onto itself), so the mean is the weighted mean of the rows 0..grid // 2 with the
    weights of spectra._mirror_half.  term gets each slab's values as a fresh array it may
    overwrite; its row sums are numpy's pairwise sums, weighted once all rows are in."""
    check_positive(sigma2=sigma2)
    if f.dim > 3:
        raise ValueError("rate quadrature supports d <= 3 only (grid memory)")
    rows, weights = _mirror_half(grid)
    rest = [omega_grid(grid)] * (f.dim - 1)
    step = max(1, _SLAB_BYTES // (8 * grid ** (f.dim - 1)))
    sums = np.empty(len(rows))
    for lo in range(0, len(rows), step):
        values = (2.0 * math.pi) ** f.dim * _sample_grid(f.evaluator, [rows[lo:lo + step]] + rest)
        values /= sigma2
        sums[lo:lo + step] = term(values).reshape(len(values), -1).sum(axis=1)
    return float((weights * sums).sum()) / grid**f.dim


def kli_rate_general(f1: SpectralDensity, sigma2: float, grid: int = DEFAULT_GRID) -> float:
    """Per-node KLI rate for a general d-D alternative spectrum f1 (d <= 3), which must be even.

    (2 pi)^{-d} integral of the bin-wise Gaussian Kullback-Leibler divergence
    D(N(0, sigma^2) || N(0, (2 pi)^d f1)); nonnegative term by term.
    """
    def term(r: np.ndarray) -> np.ndarray:
        if not np.all(np.isfinite(r)) or r.min() <= 0.0:
            raise ValueError("alternative spectrum must be finite and strictly positive")
        h = np.log(r)
        np.reciprocal(r, out=r)
        r -= 1.0
        h += r  # log r - (1 - 1/r)
        return h

    return 0.5 * _half_grid_mean(f1, sigma2, grid, term)


def mi_rate_general(f: SpectralDensity, sigma2: float, grid: int = DEFAULT_GRID) -> float:
    """Per-node MI rate for a general d-D signal spectrum f (d <= 3), which must be even."""
    def term(a: np.ndarray) -> np.ndarray:
        if not np.all(np.isfinite(a)) or a.min() < 0.0:
            raise ValueError("signal spectrum must be finite and nonnegative")
        return np.log1p(a, out=a)

    return 0.5 * _half_grid_mean(f, sigma2, grid, term)


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

    One golden-section search over the gap g = 1/4 - zeta, in which the KLI rises and then
    falls, so an optimum next to 1/4 is resolved to a relative width of its gap.  Returns
    (zeta_star, kli_star): zeta = 0 unless the searched KLI beats it by more than 1e-14 relative
    (ties go to zeta = 0, so an optimum there is exact), and (0.0, 0.0) if the KLI underflows.
    """
    check_positive(snr=snr)

    def objective(gap: float) -> float:
        return kli_rate_sfcar(snr, 0.25 - gap, grid)

    gaps = np.array([_MIN_GAP, 0.25])
    gap, kli = golden_section_max(objective, gaps, np.array([objective(g) for g in gaps]), _GAP_REL_TOL)
    return (0.25 - gap, kli) if kli > 0.0 else (0.0, 0.0)
