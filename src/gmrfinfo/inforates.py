"""Asymptotic per-node information rates for hidden stationary Gaussian fields.

General d-dimensional spectral integrals (Kullback-Leibler and mutual
information rates), the closed-form symmetric first-order CAR case
parameterized by (SNR, zeta), the small-SNR constants, and the search for the
information-maximizing edge dependence.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._util import check_at_least, check_positive, golden_section_max
from .specfun import _agm, _agm_array, elliptic_k
from .spectra import InvalidModelError, SpectralDensity, _mirror_half, _sample_grid, check_zeta, omega_grid

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
    """Per-node KLI and MI rates [nats/node] with an error bar.

    ``quad_error_estimate`` is the larger, over the two rates, of the gap between the n-node and
    the 2n-node Gauss-Legendre rules plus a rounding floor of 32 eps times the rate.
    """

    kli: float
    mi: float
    quad_error_estimate: float


@dataclass(frozen=True)
class LowSnrConstants:
    """Leading small-SNR coefficients: KLI ~ c3 * SNR^2 and MI ~ c3_prime * SNR."""

    c3: float
    c3_prime: float


@functools.lru_cache(maxsize=None)
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes (ascending) and weights of the n-point Gauss-Legendre rule on [0, 1]: four Newton
    steps on P_n's recurrence from Tricomi's estimates, in numpy's extended precision."""
    x = np.cos(np.pi * (4.0 * np.arange(n, 0, -1, dtype=np.longdouble) - 1.0) / (4.0 * n + 2.0))
    x *= 1.0 - (n - 1) / (8.0 * n**3)
    for _ in range(4):
        p0, p1 = np.ones_like(x), x
        for j in range(2, n + 1):
            p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
        slope = n * (p0 - x * p1) / ((1.0 - x) * (1.0 + x))
        x = x - p1 / slope
    nodes = ((1.0 + x) / 2.0).astype(float)
    weights = (1.0 / ((1.0 - x) * (1.0 + x) * slope * slope)).astype(float)
    nodes.flags.writeable = weights.flags.writeable = False  # every caller shares the cached arrays
    return nodes, weights


def _node_count(length: float, zeta: float, delta: float) -> int:
    """Gauss-Legendre nodes for u in [0, length] (README, "SFCAR rate kernel"): the least n with
    rho^(-2n) <= e^-37, at least 8 and rounded up to three significant bits, where rho = |z + sqrt(z^2
    - 1)| and z = x + 2 pi i / length is the integrands' singularity nearest [0, length] mapped onto
    [-1, 1]: their cut Im u = pi ends at u = log(2 zeta / delta), clamped to x in [-1, 0]."""
    need = 8
    if length > 0.0:
        reach = math.log(2.0 * zeta / delta) if zeta > 0.0 else 0.0
        z = complex(min(max(2.0 * reach / length - 1.0, -1.0), 0.0), 2.0 * math.pi / length)
        rho = abs(z + cmath.sqrt(z - 1.0) * cmath.sqrt(z + 1.0))
        need = max(need, math.ceil(18.5 / math.log(rho)))
    step = 2 ** (need.bit_length() - 3)
    return -(-need // step) * step


def _sfcar_rules(snr: float, zeta: float, refine: bool) -> list[tuple[float, float]]:
    """(KLI, MI) of the hidden SFCAR by the n-node Gauss-Legendre rule, and with refine also by the
    2n-node rule, from one AGM pass over all nodes (derivation in the README, "SFCAR rate kernel"):
    with Y = snr / q, k = 4 zeta / (1 + y) and delta = 1/4 - zeta, the integrals over y in [0, Y] of
    MI = K(k) / (pi (1 + y)) and KLI = y E(k) / (pi k'^2 (1 + y)^2), taken in u, y + 4 delta = 4 delta
    e^u, with 1 - k = (y + 4 delta) / (1 + y) from delta, and MI as log1p(Y) / 2 plus the integral of
    (1 - k) (K - pi/2) / pi.  zeta = 1/4 (perfect correlation) and snr = 0 give exactly 0."""
    check_at_least(0, snr=snr)
    check_zeta(zeta)
    if snr == 0.0 or zeta == 0.25:
        return [(0.0, 0.0)] * (1 + refine)
    delta = 0.25 - float(zeta)
    y_top = float(snr) / ((2.0 / math.pi) * elliptic_k(4.0 * zeta))
    ratio = y_top / (4.0 * delta)  # Python floats, so an overflow is a silent inf
    length = math.log1p(ratio) if ratio < math.inf else math.log(y_top) - math.log(4.0 * delta)
    n = _node_count(length, zeta, delta)
    rules = [_gauss_legendre(count) for count in ((n, 2 * n) if refine else (n,))]
    half_u = (0.5 * length) * np.concatenate([nodes for nodes, _ in rules])
    y = (8.0 * delta) * np.exp(half_u) * np.sinh(half_u)  # 4 delta expm1(u), which overflows first
    one_y = 1.0 + y
    k = 4.0 * zeta / one_y
    low = (y + 4.0 * delta) / one_y  # 1 - k
    m, gap, e_ratio = _agm_array(k, np.sqrt(low * (1.0 + k)))  # K = (pi/2) / M, E = K e_ratio
    terms = np.array([y * e_ratio / (m * (one_y + 4.0 * zeta)), low * gap / m])  # in units of pi/2
    sums = [terms[:, start:start + len(weights)] @ weights for (_, weights), start in zip(rules, (0, n))]
    return [(0.5 * length * float(kli), 0.5 * (math.log1p(y_top) + length * float(mi))) for kli, mi in sums]


def _sfcar_rates(snr: float, zeta: float) -> tuple[float, float]:
    """(KLI, MI) of the hidden SFCAR [nats/node] by the n-node rule of _sfcar_rules."""
    return _sfcar_rules(snr, zeta, False)[0]


def kli_rate_sfcar(snr: float, zeta: float) -> float:
    """Per-node KLI rate of the hidden SFCAR model [nats/node]; 0 at zeta = 1/4 and at snr = 0."""
    return _sfcar_rates(snr, zeta)[0]


def mi_rate_sfcar(snr: float, zeta: float) -> float:
    """Per-node MI rate of the hidden SFCAR model [nats/node]."""
    return _sfcar_rates(snr, zeta)[1]


def sfcar_info_rates(snr: float, zeta: float) -> InfoRateResult:
    """Both SFCAR rates with the error bar of InfoRateResult."""
    (kli, mi), (kli_fine, mi_fine) = _sfcar_rules(snr, zeta, True)
    err = max(abs(kli - kli_fine) + 2.0**-47 * kli, abs(mi - mi_fine) + 2.0**-47 * mi)  # 2^-47 = 32 eps
    return InfoRateResult(kli=kli, mi=mi, quad_error_estimate=err)


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
    for every zeta < 1/4, with 1 - 16 zeta^2 = 4 delta (1 + 4 zeta) taken from delta = 1/4 - zeta.
    c3 diverges at zeta = 1/4, which raises InvalidModelError.
    """
    if not 0.0 <= zeta < 0.25:
        raise InvalidModelError(f"zeta must lie in [0, 1/4) for c3, which diverges at 1/4, got {zeta!r}")
    m, _, e_over_k = _agm(4.0 * zeta)  # c3 = M (E / K) / (4 (1 - k^2)) since K = pi / (2 M)
    return LowSnrConstants(c3=m * e_over_k / (16.0 * (0.25 - zeta) * (1.0 + 4.0 * zeta)), c3_prime=0.5)


def optimal_zeta(snr: float) -> tuple[float, float]:
    """Edge dependence maximizing the per-node KLI rate at the given SNR.

    One golden-section search over the gap g = 1/4 - zeta, in which the KLI rises and then
    falls, so an optimum next to 1/4 is resolved to a relative width of its gap.  Returns
    (zeta_star, kli_star): zeta = 0 unless the searched KLI beats it by more than 1e-14 relative
    (ties go to zeta = 0, so an optimum there is exact), and (0.0, 0.0) if the KLI underflows.
    """
    check_positive(snr=snr)

    def objective(gap: float) -> float:
        return kli_rate_sfcar(snr, 0.25 - gap)

    gaps = np.array([_MIN_GAP, 0.25])
    gap, kli = golden_section_max(objective, gaps, np.array([objective(g) for g in gaps]), _GAP_REL_TOL)
    return (0.25 - gap, kli) if kli > 0.0 else (0.0, 0.0)
