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

import numpy as np

from ._util import check_positive, check_side
from .spectra import (
    SfcarModel,
    SpectralDensity,
    SingularSpectrumError,
    hidden_spectrum,
    omega_grid,
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
_COV_GRID = 1024         # w1 nodes of the quadratures left after the closed-form w2 integrals


class NonpositiveEigenvalueError(ValueError):
    """The model is not positive definite on this torus."""


@dataclass(frozen=True)
class CirculantSpectrum:
    """Eigenvalues of the torus covariance: lambda_i = (2 pi)^d f(omega_i) at
    the DFT frequencies omega_i = 2 pi i / n, stored as an (n, ..., n) array."""

    n: int
    dim: int
    eigs: np.ndarray


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


def circulant_eigs(spec: SpectralDensity, n: int) -> CirculantSpectrum:
    """Torus covariance eigenvalues lambda_i = (2 pi)^d f(omega_i) for an
    n-per-side lattice (the exact stationary torus model)."""
    check_side(n, 4)
    d = spec.dim
    w = TWO_PI * np.arange(n) / n
    axes = np.meshgrid(*[w] * d, indexing="ij")
    eigs = TWO_PI**d * np.asarray(spec.evaluator(*axes), dtype=float)
    if not np.all(np.isfinite(eigs)):
        raise SingularSpectrumError("spectrum is not finite at the DFT frequencies")
    if eigs.min() <= 0.0:
        raise NonpositiveEigenvalueError(f"nonpositive torus eigenvalue (min {eigs.min():.3g}), n={n}")
    return CirculantSpectrum(n=n, dim=d, eigs=eigs)


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


def _w2_closed_form(zeta: float, c: float, shift: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A, B and s = sqrt(A^2 - B^2) on the w1 nodes of omega_grid(_COV_GRID), where the
    denominator c (1 - 2 zeta (cos w1 + cos w2)) + shift is A - B cos w2.  Along w2,
    (1/2pi) int cos(h w2) / (A - B cos w2) dw2 = (B / (A + s))^|h| / s and
    (1/2pi) int log(A - B cos w2) dw2 = log((A + s) / 2)."""
    a = c * (1.0 - 2.0 * zeta * np.cos(omega_grid(_COV_GRID))) + shift
    b = 2.0 * c * zeta
    s = np.sqrt((a - b) * (a + b))
    if not np.all(s > 0.0):
        raise SingularSpectrumError("spectrum is not finite on the quadrature grid")
    return a, b, s


def _patch_matrix(model: SfcarModel, sigma2: float, n: int, wrap: bool) -> np.ndarray:
    """sigma2 I + [gamma_{k-l}] over the node pairs (k, l) of the n x n patch, nodes in
    lexicographic order, offsets wrapped on the n-torus if wrap.  gamma[h1, h2] takes
    the w2 integral in closed form and the w1 integral by the trapezoid rule; gamma is
    symmetric, so the larger offset goes to the closed form (a w1 sum reaches its small
    power only by cancellation)."""
    check_side(n, 1)
    a, b, s = _w2_closed_form(model.zeta, 1.0, 0.0)
    h = np.arange(n)
    tab = np.cos(np.outer(h, omega_grid(_COV_GRID))) @ ((b / (a + s))[:, None] ** h / s[:, None])
    tab = np.where(h[:, None] <= h, tab, tab.T) / (_COV_GRID * model.kappa)
    tab[0, 0] += sigma2  # offset (0, 0) is the diagonal
    d = np.abs(np.subtract.outer(h, h))
    d = np.minimum(d, n - d) if wrap else d
    # indexed as (row of k, column of k, row of l, column of l), then flattened to (k, l)
    return tab[d[:, None, :, None], d[None, :, None, :]].reshape(n * n, n * n)


def dense_covariance(model: SfcarModel, sigma2: float, n: int) -> np.ndarray:
    """Exact n^2 x n^2 block-Toeplitz covariance of the hidden field on the
    n x n patch, nodes in lexicographic order: sigma2 I + [gamma_{i-j}]."""
    return _patch_matrix(model, sigma2, n, wrap=False)


def dense_circulant(model: SfcarModel, sigma2: float, n: int) -> np.ndarray:
    """Circulant approximation to dense_covariance: offsets wrapped on the torus."""
    return _patch_matrix(model, sigma2, n, wrap=True)


def _hidden_limits(model: SfcarModel, sigma2: float) -> tuple[float, float]:
    """Spectral limits of the per-node log-det, the mean of log((2 pi)^2 f1), and of
    the quadratic form, the mean of sigma2 / ((2 pi)^2 f1), with closed-form w2 means."""
    check_positive(sigma2=sigma2)
    t = model.kappa * sigma2  # (2 pi)^2 f1 = (A1 - B1 cos w2) / (kappa (A - B cos w2))
    a, _, s = _w2_closed_form(model.zeta, 1.0, 0.0)
    a1, _, s1 = _w2_closed_form(model.zeta, t, 1.0)
    logdet = float(np.mean(np.log((a1 + s1) / (a + s)))) - math.log(model.kappa)
    # the w2 mean 1 - 1/s1, rearranged so that nothing cancels at high SNR
    quadform = float(np.mean(t * (t * s**2 + 2.0 * a) / (s1 * (s1 + 1.0))))
    return logdet, quadform


def logdet_convergence(
    model: SfcarModel,
    sigma2: float,
    n_list: list[int],
) -> list[tuple[int, float]]:
    """Gap between the per-node log-determinant of the exact block-Toeplitz
    covariance and its spectral limit, for each lattice side in n_list.

    The gap shrinks like 1/n.  Sides above 48 are rejected (dense assembly).
    """
    target = _hidden_limits(model, sigma2)[0]
    out = []
    for n in n_list:
        if n > _DENSE_LOGDET_MAX:
            raise ValueError(f"dense log-det limited to n <= {_DENSE_LOGDET_MAX}, got {n}")
        try:
            chol = np.linalg.cholesky(dense_covariance(model, sigma2, n))
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
    target = _hidden_limits(model, sigma2)[1]
    try:
        sigma_inv = np.linalg.inv(dense_covariance(model, sigma2, n))
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
