"""Conversions between the three correlation parameterizations of the field:
edge dependence zeta, edge correlation rho, and physical sensor spacing at a
given diffusion rate.
"""

from __future__ import annotations

from dataclasses import dataclass

from ._util import bisect, check_finite, check_positive
from .specfun import _agm, bessel_k1

__all__ = [
    "PhysicalField",
    "rho_from_zeta",
    "zeta_from_rho",
    "rho_from_spacing",
    "zeta_from_spacing",
]


@dataclass(frozen=True)
class PhysicalField:
    """Isotropic physical field with diffusion rate alpha [1/m].

    The correlation between points at distance d is alpha*d*K1(alpha*d), the
    stationary solution of the damped Laplace equation driven by white noise.
    """

    alpha: float

    def __post_init__(self):
        check_positive(alpha=self.alpha)


def rho_from_zeta(zeta: float) -> float:
    """Edge correlation gamma_01/gamma_00 of the SFCAR with edge dependence zeta.

    rho = (q - 1) / (4 zeta q) = (1 - M) / (4 zeta) with q = (2/pi) K(4 zeta) = 1 / M,
    M = AGM(1, sqrt(1 - 16 zeta^2)); 0 -> 0 and 1/4 -> 1 map exactly.
    """
    if not 0.0 <= zeta <= 0.25:
        raise ValueError(f"zeta must lie in [0, 1/4], got {zeta!r}")
    if zeta == 0.25:
        return 1.0
    return _agm(4.0 * zeta)[1]


def zeta_from_rho(rho: float) -> float:
    """Inverse of rho_from_zeta by bisection, |delta zeta| <= 1e-12."""
    if not 0.0 <= rho <= 1.0:
        raise ValueError(f"rho must lie in [0, 1], got {rho!r}")
    if rho == 0.0:
        return 0.0
    if rho == 1.0:
        return 0.25
    lo, hi = bisect(lambda z: rho_from_zeta(z) < rho, 0.0, 0.25, 1e-12)
    return 0.5 * (lo + hi)


def rho_from_spacing(field: PhysicalField, dn: float) -> float:
    """Physical edge correlation h(dn) = alpha*dn*K1(alpha*dn), in [0, 1].

    h(0) = 1 (the correlation function is flat at zero separation) and
    h decays like sqrt(dn) exp(-alpha dn) for large spacing.  The value is
    clamped to [0, 1] against rounding overshoot near dn = 0.
    """
    check_finite(spacing=dn)
    if dn < 0.0:
        raise ValueError(f"spacing must be >= 0, got {dn!r}")
    if dn == 0.0:
        return 1.0
    x = field.alpha * dn
    rho = x * bessel_k1(x) if x < 700.0 else 0.0  # exp(-x) underflow
    return min(max(rho, 0.0), 1.0)


def zeta_from_spacing(field: PhysicalField, dn: float) -> float:
    """Edge dependence of the lattice model matched to spacing dn: g(h(dn))."""
    return zeta_from_rho(rho_from_spacing(field, dn))
