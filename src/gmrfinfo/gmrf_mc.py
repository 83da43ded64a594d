"""Monte Carlo and dense-linear-algebra verification of the almost-sure
information-rate limits.

The stationary field is realized exactly on an n x n torus, whose covariance
is diagonalized by the 2-D DFT: eigenvalues are spectrum samples at the DFT
frequencies, sampling is spectral synthesis, and the per-node log-likelihood
ratio has a closed spectral form.  Dense block-Toeplitz computations at small
n exhibit the O(1/n) gaps between the plane model and its torus approximation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ._util import check_positive
from .spectra import (
    SfcarModel,
    SpectralDensity,
    SingularSpectrumError,
    autocovariance_grid,
    hidden_spectrum,
    sfcar_spectrum,
)

__all__ = [
    "NonpositiveEigenvalueError",
    "CirculantSpectrum",
    "McReport",
    "QuadformCheck",
    "circulant_eigs",
    "sample_field",
    "llr_per_node",
    "mc_kli_estimate",
    "logdet_convergence",
    "quadform_limit_check",
    "toeplitz_circulant_gap",
    "dense_covariance",
    "dense_circulant",
]

TWO_PI = 2.0 * math.pi

_DENSE_LOGDET_MAX = 48   # dense block-Toeplitz assembly is (n^2)^2
_DENSE_INVERSE_MAX = 32
_COV_GRID = 1024         # per-side spectral quadrature grid of the plane autocovariances


class NonpositiveEigenvalueError(ValueError):
    """The model is not positive definite on this torus."""


@dataclass(frozen=True)
class CirculantSpectrum:
    """Eigenvalues of the torus covariance: lambda_i = (2 pi)^d f(omega_i) at
    the DFT frequencies omega_i = 2 pi i / n, stored as an (n, ..., n) array.

    ``mode`` records the construction: "spectrum" samples the target spectrum
    directly (exact stationary torus model), "wrapped" transforms the wrapped
    plane autocovariances (the circulant approximation of the plane model).
    """

    n: int
    dim: int
    eigs: np.ndarray
    mode: str


@dataclass(frozen=True)
class McReport:
    """Monte Carlo estimate with its standard error and provenance."""

    mean: float
    std_error: float
    trials: int
    n: int
    seed: int


@dataclass(frozen=True)
class QuadformCheck:
    """Dense and circulant Monte Carlo means of the normalized quadratic form
    y' Sigma1^{-1} y / n^2 under the noise-only law, with their common
    spectral-integral target."""

    dense: McReport
    circulant: McReport
    target: float


def circulant_eigs(
    spec: SpectralDensity,
    n: int,
    mode: str = "spectrum",
) -> CirculantSpectrum:
    """Torus covariance eigenvalues for an n-per-side lattice.

    mode="spectrum": lambda_i = (2 pi)^d f(omega_i) (exact torus model).
    mode="wrapped":  DFT of the wrapped plane autocovariances, i.e. the
    eigenvalues of the circulant approximation to the plane covariance;
    plane autocovariances come from a 1024-per-side spectral quadrature.
    """
    if n < 4:
        raise ValueError(f"n must be >= 4, got {n}")
    d = spec.dim
    if mode == "spectrum":
        w = TWO_PI * np.arange(n) / n
        axes = np.meshgrid(*[w] * d, indexing="ij")
        eigs = TWO_PI**d * np.asarray(spec.evaluator(*axes), dtype=float)
        if not np.all(np.isfinite(eigs)):
            raise SingularSpectrumError("spectrum is not finite at the DFT frequencies")
    elif mode == "wrapped":
        gamma = autocovariance_grid(spec, _COV_GRID)
        idx = np.minimum(np.arange(n), n - np.arange(n))  # pi(h) per axis
        wrapped = gamma[np.ix_(*[idx] * d)]
        eigs = np.fft.fftn(wrapped).real
    else:
        raise ValueError(f"mode must be 'spectrum' or 'wrapped', got {mode!r}")
    if eigs.min() <= 0.0:
        raise NonpositiveEigenvalueError(
            f"nonpositive torus eigenvalue (min {eigs.min():.3g}) for mode={mode!r}, n={n}"
        )
    return CirculantSpectrum(n=n, dim=d, eigs=eigs, mode=mode)


def sample_field(cs: CirculantSpectrum, rng: np.random.Generator) -> np.ndarray:
    """One zero-mean Gaussian field on the torus with covariance C.

    Spectral synthesis: the DFT of an i.i.d. standard-normal array is a
    Hermitian-symmetric complex Gaussian spectrum; scaling each mode by
    sqrt(lambda_i) (i.e. std sqrt(lambda_i / n^d) per mode after the inverse
    DFT) and transforming back applies the matrix square root of C.
    """
    w = rng.standard_normal(cs.eigs.shape)
    return np.fft.ifftn(np.fft.fftn(w) * np.sqrt(cs.eigs)).real


def llr_per_node(y: np.ndarray, sigma2: float, cs1: CirculantSpectrum) -> float:
    """Per-node log-likelihood ratio log(p0/p1)(y) / n^d on the torus.

    p0 is i.i.d. N(0, sigma2) noise, p1 the Gaussian field with torus
    eigenvalues cs1.eigs; evaluated exactly in the DFT domain as
    (1/n^d) [ 0.5 sum log(lambda_i/sigma2)
              + 0.5 sum |yhat_i|^2 (1/lambda_i - 1/sigma2) ]
    with yhat the unitary DFT of y.
    """
    check_positive(sigma2=sigma2)
    y = np.asarray(y, dtype=float)
    size = cs1.eigs.size
    if y.size != size:
        raise ValueError(f"field has {y.size} values, model expects {size}")
    power = np.abs(np.fft.fftn(y.reshape(cs1.eigs.shape))) ** 2 / size
    det_term = 0.5 * float(np.sum(np.log(cs1.eigs / sigma2)))
    quad_term = 0.5 * float(np.sum(power * (1.0 / cs1.eigs - 1.0 / sigma2)))
    return (det_term + quad_term) / size


def _noise_trials(model: SfcarModel, sigma2: float, n: int, trials: int, seed: int):
    """Torus eigenvalues of the hidden field and a lazy sequence of i.i.d. N(0, sigma2) n x n
    fields, one per trial from its own substream, so each depends only on (seed, trial index)."""
    if trials < 30:
        raise ValueError(f"need at least 30 trials for a standard error, got {trials}")
    cs1 = circulant_eigs(hidden_spectrum(sfcar_spectrum(model), sigma2), n)
    sd = math.sqrt(sigma2)
    return cs1, (sd * np.random.default_rng(s).standard_normal((n,) * cs1.dim)
                 for s in np.random.SeedSequence(seed).spawn(trials))


def _report(values: np.ndarray, n: int, seed: int) -> McReport:
    return McReport(
        mean=float(values.mean()),
        std_error=float(values.std(ddof=1) / math.sqrt(len(values))),
        trials=len(values),
        n=n,
        seed=seed,
    )


def mc_kli_estimate(
    model: SfcarModel,
    sigma2: float,
    n: int,
    trials: int,
    seed: int,
) -> McReport:
    """Monte Carlo estimate of the per-node KLI rate from noise-only fields.

    Draws i.i.d. N(0, sigma2) lattice fields, evaluates the per-node LLR
    against the hidden-field alternative on the n-torus, and averages.  The
    mean estimates the asymptotic rate up to the torus discretization bias,
    which vanishes as n grows.
    """
    cs1, fields = _noise_trials(model, sigma2, n, trials, seed)
    values = np.array([llr_per_node(y, sigma2, cs1) for y in fields])
    return _report(values, n, seed)


@lru_cache(maxsize=1)
def _signal_gamma_table(kappa: float, zeta: float) -> np.ndarray:
    tab = autocovariance_grid(sfcar_spectrum(SfcarModel(kappa, zeta)), _COV_GRID)
    tab.setflags(write=False)
    return tab


def _pair_offsets(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column offsets of every node pair of the n x n patch, nodes in lexicographic order."""
    i, j = np.divmod(np.arange(n * n), n)  # node k sits at row k // n, column k % n
    return i[:, None] - i[None, :], j[:, None] - j[None, :]


def dense_covariance(model: SfcarModel, sigma2: float, n: int) -> np.ndarray:
    """Exact n^2 x n^2 block-Toeplitz covariance of the hidden field on the
    n x n patch, nodes in lexicographic order: sigma2 I + [gamma_{i-j}]."""
    return _signal_gamma_table(model.kappa, model.zeta)[_pair_offsets(n)] + sigma2 * np.eye(n * n)


def dense_circulant(model: SfcarModel, sigma2: float, n: int) -> np.ndarray:
    """Circulant approximation to dense_covariance: offsets wrapped on the torus."""
    di, dj = _pair_offsets(n)  # before the small table below: a lower peak RSS
    idx = np.minimum(np.arange(n), n - np.arange(n))
    wrapped = _signal_gamma_table(model.kappa, model.zeta)[np.ix_(idx, idx)]  # fancy indexing copies
    wrapped[0, 0] += sigma2
    return wrapped[np.mod(di, n, out=di), np.mod(dj, n, out=dj)]


def _hidden_grid_mean(model: SfcarModel, sigma2: float, fn) -> float:
    # (2 pi)^{-2} integral of fn((2 pi)^2 f1) over the frequency square
    vals = hidden_spectrum(sfcar_spectrum(model), sigma2).grid_values(_COV_GRID)
    return float(np.mean(fn(TWO_PI**2 * vals)))


def logdet_convergence(
    model: SfcarModel,
    sigma2: float,
    n_list: list[int],
) -> list[tuple[int, float]]:
    """Gap between the per-node log-determinant of the exact block-Toeplitz
    covariance and its spectral limit, for each lattice side in n_list.

    The gap shrinks like 1/n.  Sides above 48 are rejected (dense assembly).
    """
    target = _hidden_grid_mean(model, sigma2, np.log)
    out = []
    for n in n_list:
        if n > _DENSE_LOGDET_MAX:
            raise ValueError(f"dense log-det limited to n <= {_DENSE_LOGDET_MAX}, got {n}")
        sigma = dense_covariance(model, sigma2, n)
        try:
            chol = np.linalg.cholesky(sigma)
        except np.linalg.LinAlgError as exc:
            raise NonpositiveEigenvalueError("dense covariance is not positive definite") from exc
        logdet = 2.0 * float(np.sum(np.log(np.diag(chol))))
        out.append((n, abs(logdet / n**2 - target)))
    return out


def quadform_limit_check(
    model: SfcarModel,
    sigma2: float,
    n: int,
    trials: int,
    seed: int,
) -> QuadformCheck:
    """Monte Carlo means of y' Sigma1^{-1} y / n^2 under the noise-only law.

    The dense path uses the exact block-Toeplitz covariance, the circulant
    path its torus diagonalization; both converge to the spectral integral
    of sigma2 / ((2 pi)^2 f1).  The same noise fields drive both paths.
    """
    if n > _DENSE_INVERSE_MAX:
        raise ValueError(f"dense inverse limited to n <= {_DENSE_INVERSE_MAX}, got {n}")
    target = _hidden_grid_mean(model, sigma2, lambda lam: sigma2 / lam)
    sigma = dense_covariance(model, sigma2, n)
    try:
        sigma_inv = np.linalg.inv(sigma)
    except np.linalg.LinAlgError as exc:
        raise NonpositiveEigenvalueError("dense covariance is not positive definite") from exc
    cs1, fields = _noise_trials(model, sigma2, n, trials, seed)
    q_dense = np.empty(trials)
    q_circ = np.empty(trials)
    for t, y in enumerate(fields):
        flat = y.ravel()
        q_dense[t] = flat @ sigma_inv @ flat / n**2
        power = np.abs(np.fft.fftn(y)) ** 2 / n**2
        q_circ[t] = float(np.sum(power / cs1.eigs)) / n**2
    return QuadformCheck(
        dense=_report(q_dense, n, seed),
        circulant=_report(q_circ, n, seed),
        target=target,
    )


def toeplitz_circulant_gap(
    model: SfcarModel,
    sigma2: float,
    n_list: list[int],
) -> list[tuple[int, float]]:
    """Per-node trace norm of (Sigma1 - C), the block-Toeplitz covariance
    minus its circulant approximation, for each side in n_list; O(1/n)."""
    out = []
    for n in n_list:
        if n > _DENSE_INVERSE_MAX:
            raise ValueError(f"dense eigendecomposition limited to n <= {_DENSE_INVERSE_MAX}, got {n}")
        diff = dense_covariance(model, sigma2, n) - dense_circulant(model, sigma2, n)
        # diff is symmetric, so its singular values are its absolute eigenvalues
        trace_norm = float(np.abs(np.linalg.eigvalsh(diff)).sum())
        out.append((n, trace_norm / n**2))
    return out
