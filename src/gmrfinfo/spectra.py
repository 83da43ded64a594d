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

from ._util import check_at_least, check_finite, check_integer, check_positive
from .specfun import elliptic_k

__all__ = [
    "InvalidModelError",
    "SingularModelError",
    "SingularSpectrumError",
    "CarModel",
    "SfcarModel",
    "SpectralDensity",
    "check_zeta",
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

# sides of the grids on which car_spectrum certifies the CAR denominator positive
_CAR_GRID_MIN = 128
_CAR_GRID_MAX = 2048


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
        check_zeta(self.zeta)


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
    at isolated singular points, e.g. the SFCAR origin at zeta = 1/4).  The
    spectrum of a real stationary field is even, f(-omega) = f(omega), and the
    general rates rely on it: they sample only half of the grid.
    """

    evaluator: Callable[..., np.ndarray]
    dim: int
    form: str = "generic"

    def __call__(self, *omegas):
        return self.evaluator(*omegas)

    def grid_values(self, n: int) -> np.ndarray:
        """Sample f on the uniform n^d grid omega_i = -pi + 2*pi*i/n (read-only, see _sample_grid)."""
        return _sample_grid(self.evaluator, [omega_grid(n)] * self.dim)


def _sample_grid(evaluator: Callable[..., np.ndarray], nodes: list[np.ndarray]) -> np.ndarray:
    """``evaluator`` called on open (sparse) axes of the product grid with node array nodes[k] on
    axis k, so no coordinate mesh is built, and broadcast to a read-only float array of shape
    (len(nodes[0]), len(nodes[1]), ...)."""
    axes = np.meshgrid(*nodes, indexing="ij", sparse=True)
    return np.broadcast_to(np.asarray(evaluator(*axes), dtype=float), tuple(len(a) for a in nodes))


def check_zeta(zeta: float) -> None:
    """Raise InvalidModelError unless zeta lies in the SFCAR domain [0, 1/4]; NaN lies outside it."""
    if not 0.0 <= zeta <= 0.25:
        raise InvalidModelError(f"zeta must lie in [0, 1/4], got {zeta!r}")


def omega_grid(n: int) -> np.ndarray:
    """Uniform angular grid -pi + 2*pi*i/n, i = 0..n-1 (periodic rectangle rule), taken as
    pi (2i - n) / n from the integer offset, so node n - i is exactly the negative of node i
    and the nodes near 0 keep their relative accuracy."""
    check_at_least(1, grid=n)
    check_integer(1, grid=n)
    return math.pi * (2 * np.arange(n) - n) / n


def _mirror_half(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes 0..n // 2 of omega_grid(n) and their exact weights in a mean over all n nodes.

    Node n - i is the mirror image -omega of node i, so a sum over a function even in omega
    takes node i twice, except node 0 (-pi, its own mirror) and, for even n, node n // 2 (0)."""
    nodes = omega_grid(n)[: n // 2 + 1]
    weights = np.full(len(nodes), 2.0)
    weights[0] = 1.0
    if n % 2 == 0:
        weights[-1] = 1.0
    return nodes, weights


def _w2_closed_form(zeta: float, w1: np.ndarray, scale: float,
                    shift: float) -> tuple[np.ndarray, float, np.ndarray]:
    """A, B and s = sqrt(A^2 - B^2) at the nodes w1, where the SFCAR denominator
    scale (1 - 2 zeta (cos w1 + cos w2)) + shift is A - B cos w2 (scale > 0, shift >= 0).

    Along w2, (1/2pi) int log(A - B cos w2) dw2 = log((A + s) / 2) and
    (1/2pi) int cos(h w2) / (A - B cos w2) dw2 = r^|h| / s with r = B / (A + s).
    With t = 4 zeta sin^2(w1 / 2) = 2 zeta (1 - cos w1), A = scale ((1 - 2 zeta) + t) + shift,
    A - B = scale ((1 - 4 zeta) + t) + shift and A + B = scale (1 + t) + shift are sums of
    nonnegative terms, so s keeps full relative accuracy next to zeta = 1/4."""
    t = 4.0 * zeta * np.sin(0.5 * w1) ** 2
    a = scale * ((1.0 - 2.0 * zeta) + t) + shift
    # a product of square roots, since the product (A - B)(A + B) overflows where A nears 1e154
    s = np.sqrt(scale * ((1.0 - 4.0 * zeta) + t) + shift) * np.sqrt(scale * (1.0 + t) + shift)
    if not np.all(s > 0.0):
        raise SingularSpectrumError("spectrum is not finite on the quadrature grid")
    return a, 2.0 * scale * zeta, s


def car_spectrum(model: CarModel) -> SpectralDensity:
    """Spectral density f = (2*pi)^{-2} / sum_ij theta_ij exp(-i(i*w1 + j*w2)).

    The symmetric support makes the denominator p a real cosine sum, and p is
    certified positive everywhere.  On an N x N grid every frequency lies within
    h = pi/N of a node x on each axis, so by Taylor's theorem p is positive if
    p(x) - h (|d1 p(x)| + |d2 p(x)|) - h^2 sum_ij |theta_ij| (|i| + |j|)^2 / 2 > 0
    at every node.  N starts at the smallest power of two >= 128 and >= 4 times
    the longest offset and doubles until that holds.  Raises InvalidModelError
    if p <= 0 at a node (the stationarity condition fails), or if no grid up to
    2048 x 2048 certifies p.
    """
    offsets = [(i, j, v) for (i, j), v in model.theta.items()]

    def cosine_sum(w1, w2):
        return sum(v * np.cos(i * np.asarray(w1) + j * np.asarray(w2)) for i, j, v in offsets)

    def partial(axis):  # the evaluator of d p / d w_axis
        return lambda w1, w2: sum(-(i, j)[axis] * v * np.sin(i * w1 + j * w2) for i, j, v in offsets)

    curvature = 0.5 * sum(abs(v) * (abs(i) + abs(j)) ** 2 for i, j, v in offsets)
    n = _CAR_GRID_MIN
    while n < 4 * max(max(abs(i), abs(j)) for i, j, _ in offsets):
        n *= 2
    while n <= _CAR_GRID_MAX:
        nodes, h = omega_grid(n), math.pi / n
        denom = _sample_grid(cosine_sum, [nodes, nodes])
        if denom.min() <= 0.0:
            raise InvalidModelError(
                f"CAR denominator is not positive on the {n} x {n} grid "
                f"(min {denom.min():.3g}); spectrum would not be a valid density"
            )
        bound = denom - h * h * curvature
        for axis in (0, 1):
            bound -= h * np.abs(_sample_grid(partial(axis), [nodes, nodes]))
        if bound.min() > 0.0:
            return SpectralDensity(lambda w1, w2: 1.0 / (4.0 * math.pi**2 * cosine_sum(w1, w2)),
                                   dim=2, form="car")
        n *= 2
    raise InvalidModelError(
        f"cannot certify the CAR denominator positive on grids up to {_CAR_GRID_MAX} x {_CAR_GRID_MAX}"
    )


def sfcar_spectrum(model: SfcarModel) -> SpectralDensity:
    """SFCAR spectrum 1 / (4 pi^2 kappa (1 - 2 zeta cos w1 - 2 zeta cos w2)).

    At zeta = 1/4 the value at the origin is +inf (returned as a sentinel);
    all other frequencies stay finite.
    """
    kappa, zeta = model.kappa, model.zeta

    def evaluator(w1, w2):
        denom = 4.0 * math.pi**2 * kappa * (1.0 - 2.0 * zeta * (np.cos(w1) + np.cos(w2)))
        return np.where(denom > 0.0, 1.0 / np.where(denom > 0.0, denom, 1.0), np.inf)

    return SpectralDensity(evaluator, dim=2, form="sfcar")


def constant_spectrum(value: float, dim: int = 2) -> SpectralDensity:
    """Flat spectrum f = value everywhere (white field of power value*(2 pi)^d)."""
    check_finite(value=value)
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
    check_zeta(zeta)
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
    # The grid starts at -pi; for an even grid that is the DFT grid (from 0) rotated by half a period.
    return TWO_PI**spec.dim * np.fft.ifftn(np.fft.ifftshift(vals)).real


def autocovariance(spec: SpectralDensity, h: tuple[int, ...], grid: int = 512) -> float:
    """Autocovariance gamma_h = int f(w) exp(i h.w) dw by grid quadrature."""
    if len(h) != spec.dim:
        raise ValueError(f"offset {h} does not match spectrum dimension {spec.dim}")
    if not all(isinstance(hk, (int, np.integer)) for hk in h):
        raise ValueError(f"offset {h} must hold integers")
    tab = autocovariance_grid(spec, grid)
    return float(tab[tuple(hk % grid for hk in h)])
