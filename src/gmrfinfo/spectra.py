"""Stationary Gaussian spectral densities on the d-dimensional lattice.

Covers the general 2-D conditional-autoregression family, its symmetric
first-order specialization (precision kappa, edge dependence zeta), and the
grid machinery shared by the rate integrals: uniform sampling of [-pi, pi)^d,
DFT-based autocovariances, signal power and measurement SNR.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from ._util import check_finite, check_positive
from .specfun import elliptic_k

__all__ = [
    "InvalidModelError",
    "SingularModelError",
    "SingularSpectrumError",
    "CarModel",
    "SfcarModel",
    "SpectralDensity",
    "omega_grid",
    "car_spectrum",
    "sfcar_spectrum",
    "constant_spectrum",
    "signal_power",
    "measurement_snr",
    "sfcar_for_snr",
    "hidden_spectrum",
    "autocovariance",
    "autocovariance_grid",
]

TWO_PI = 2.0 * math.pi

# side of the grid on which car_spectrum checks the CAR denominator is positive
_CAR_CHECK_GRID = 128


class InvalidModelError(ValueError):
    """The coefficient set violates the stationarity/positivity conditions."""


class SingularModelError(ValueError):
    """The model sits at the perfectly-correlated boundary (infinite power)."""


class SingularSpectrumError(ValueError):
    """A grid operation hit a non-finite spectrum sample."""


@dataclass(frozen=True)
class SfcarModel:
    """Symmetric first-order CAR field: conditional precision kappa > 0 and
    edge dependence factor zeta = lambda/kappa in [0, 1/4].

    zeta = 0 is the i.i.d. field, zeta = 1/4 the perfectly correlated one.
    """

    kappa: float
    zeta: float

    def __post_init__(self):
        if not (self.kappa > 0.0 and math.isfinite(self.kappa)):
            raise InvalidModelError(f"kappa must be positive, got {self.kappa!r}")
        if not 0.0 <= self.zeta <= 0.25:
            raise InvalidModelError(f"zeta must lie in [0, 1/4], got {self.zeta!r}")


@dataclass(frozen=True)
class CarModel:
    """General 2-D conditional autoregression with finite symmetric support.

    ``theta`` maps integer offsets (i, j) to coefficients; theta[0,0] > 0 and
    theta[i,j] == theta[-i,-j] are required.  Spectrum positivity is checked
    numerically when the spectral density is built.
    """

    theta: Mapping[tuple[int, int], float]

    def __post_init__(self):
        theta = dict(self.theta)
        if theta.get((0, 0), 0.0) <= 0.0:
            raise InvalidModelError("theta[0,0] must be present and positive")
        for (i, j), value in theta.items():
            if theta.get((-i, -j)) != value:
                raise InvalidModelError(f"theta is not symmetric at offset {(i, j)}")
        object.__setattr__(self, "theta", theta)


@dataclass(frozen=True)
class SpectralDensity:
    """Evaluable spectral density f(omega_1, ..., omega_d) on [-pi, pi)^d.

    ``evaluator`` must accept broadcastable ndarray arguments, one per
    coordinate, and return nonnegative values (an infinite sentinel is allowed
    at isolated singular points, e.g. the SFCAR origin at zeta = 1/4).
    """

    evaluator: Callable[..., np.ndarray]
    dim: int
    form: str = "generic"

    def __call__(self, *omegas):
        return self.evaluator(*omegas)

    def grid_values(self, n: int) -> np.ndarray:
        """Sample f on the uniform n^d grid omega_i = -pi + 2*pi*i/n."""
        axes = np.meshgrid(*[omega_grid(n)] * self.dim, indexing="ij")
        return np.asarray(self.evaluator(*axes), dtype=float)


def omega_grid(n: int) -> np.ndarray:
    """Uniform angular grid -pi + 2*pi*i/n, i = 0..n-1 (periodic rectangle rule)."""
    if n < 1:
        raise ValueError(f"grid must be >= 1, got {n!r}")
    return -math.pi + TWO_PI * np.arange(n) / n


def car_spectrum(model: CarModel) -> SpectralDensity:
    """Spectral density f = (2*pi)^{-2} / sum_ij theta_ij exp(-i(i*w1 + j*w2)).

    The symmetric support makes the denominator a real cosine sum.  Raises
    InvalidModelError if the denominator is not strictly positive on the
    128 x 128 validation grid (the stationarity condition fails).
    """
    offsets = [(i, j, v) for (i, j), v in model.theta.items()]

    def cosine_sum(w1, w2):
        return sum(v * np.cos(i * np.asarray(w1) + j * np.asarray(w2)) for i, j, v in offsets)

    w = omega_grid(_CAR_CHECK_GRID)
    denom = cosine_sum(*np.meshgrid(w, w, indexing="ij"))
    if denom.min() <= 0.0:
        raise InvalidModelError(
            "CAR denominator is not positive on the validation grid "
            f"(min {denom.min():.3g}); spectrum would not be a valid density"
        )
    return SpectralDensity(lambda w1, w2: 1.0 / (4.0 * math.pi**2 * cosine_sum(w1, w2)), dim=2, form="car")


def sfcar_spectrum(model: SfcarModel) -> SpectralDensity:
    """SFCAR spectrum 1 / (4 pi^2 kappa (1 - 2 zeta cos w1 - 2 zeta cos w2)).

    At zeta = 1/4 the value at the origin is +inf (returned as a sentinel);
    all other frequencies stay finite.
    """
    kappa, zeta = model.kappa, model.zeta

    def evaluator(w1, w2):
        denom = 4.0 * math.pi**2 * kappa * (1.0 - 2.0 * zeta * (np.cos(w1) + np.cos(w2)))
        with np.errstate(divide="ignore"):
            return np.where(denom > 0.0, 1.0 / np.where(denom > 0.0, denom, 1.0), np.inf)

    return SpectralDensity(evaluator, dim=2, form="sfcar")


def constant_spectrum(value: float, dim: int = 2) -> SpectralDensity:
    """Flat spectrum f = value everywhere (white field of power value*(2 pi)^d)."""
    if value < 0.0:
        raise InvalidModelError("spectrum value must be nonnegative")

    def evaluator(*omegas):
        return np.full(np.broadcast(*omegas).shape, value)

    return SpectralDensity(evaluator, dim=dim, form="constant")


def signal_power(model: SfcarModel) -> float:
    """Field power P = gamma_00 = 2 K(4 zeta) / (pi kappa), finite for zeta < 1/4."""
    if model.zeta >= 0.25:
        raise SingularModelError("signal power is infinite at zeta = 1/4")
    return 2.0 * elliptic_k(4.0 * model.zeta) / (math.pi * model.kappa)


def measurement_snr(model: SfcarModel, sigma2: float) -> float:
    """Measurement SNR = P / sigma^2 for observation noise variance sigma^2."""
    check_positive(sigma2=sigma2)
    return signal_power(model) / sigma2


def sfcar_for_snr(snr: float, zeta: float, sigma2: float = 1.0) -> SfcarModel:
    """The SFCAR model with given edge dependence whose power yields this SNR.

    Inverts SNR = 2 K(4 zeta) / (pi kappa sigma^2) for kappa.
    """
    check_positive(snr=snr, sigma2=sigma2)
    check_finite(zeta=zeta)
    SfcarModel(1.0, zeta)  # a zeta outside [0, 1/4] is an InvalidModelError
    if zeta == 0.25:
        raise SingularModelError("no finite-power model exists at zeta = 1/4")
    kappa = 2.0 * elliptic_k(4.0 * zeta) / (math.pi * snr * sigma2)
    return SfcarModel(kappa=kappa, zeta=zeta)


def hidden_spectrum(signal: SpectralDensity, sigma2: float) -> SpectralDensity:
    """Observation spectrum f1 = sigma^2/(2 pi)^d + f for signal-plus-noise."""
    check_positive(sigma2=sigma2)
    noise_level = sigma2 / TWO_PI**signal.dim
    inner = signal.evaluator

    def evaluator(*omegas):
        return noise_level + np.asarray(inner(*omegas))

    return SpectralDensity(evaluator, dim=signal.dim, form=f"hidden({signal.form})")


def autocovariance_grid(spec: SpectralDensity, grid: int) -> np.ndarray:
    """All lattice autocovariances of ``spec`` from one grid of samples.

    Returns an array ``tab`` with ``tab[h1, ..., hd] = gamma_h`` for offsets
    h_k in 0..grid-1 (negative offsets wrap, gamma_{-h} = gamma_h).  This is
    the trapezoid (periodic rectangle) quadrature of the inverse transform,
    evaluated for every offset at once by an inverse DFT.
    """
    if grid < 64 or grid % 2:
        raise ValueError(f"grid must be even and >= 64, got {grid}")
    vals = spec.grid_values(grid)
    if not np.all(np.isfinite(vals)):
        raise SingularSpectrumError("spectrum is not finite on the quadrature grid")
    tab = TWO_PI**spec.dim * np.fft.ifftn(vals).real
    # The grid starts at -pi, not 0, which contributes a (-1)^{h1+...+hd} phase.
    sign = np.ones(grid)
    sign[1::2] = -1.0
    for axis in range(spec.dim):
        shape = [1] * spec.dim
        shape[axis] = grid
        tab = tab * sign.reshape(shape)
    return tab


def autocovariance(spec: SpectralDensity, h: tuple[int, ...], grid: int = 512) -> float:
    """Autocovariance gamma_h = int f(w) exp(i h.w) dw by grid quadrature."""
    if len(h) != spec.dim:
        raise ValueError(f"offset {h} does not match spectrum dimension {spec.dim}")
    tab = autocovariance_grid(spec, grid)
    return float(tab[tuple(hk % grid for hk in h)])
