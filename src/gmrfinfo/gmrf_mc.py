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

from ._util import check_at_least, check_integer, check_positive
from .spectra import (
    TWO_PI,
    SfcarModel,
    SpectralDensity,
    SingularSpectrumError,
    _sample_grid,
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

_DENSE_LOGDET_MAX = 48   # the four reflection blocks hold n^4 / 4 entries
_BLOCK_CHECK_MAX = 32    # per-block solves (quadform_limit_check) and eigvalsh (toeplitz_circulant_gap)
_COV_GRID = 1024         # w1 nodes of the quadratures left after the closed-form w2 integrals
_CHUNK_BYTES = 2**20     # Monte Carlo fields are drawn and reduced this many bytes at a time


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
    check_integer(4, n=n)
    d = spec.dim
    eigs = TWO_PI**d * _sample_grid(spec.evaluator, d, TWO_PI * np.arange(n) / n)
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


def _half_spectrum_weights(w: np.ndarray) -> np.ndarray:
    """Weights W on rfftn's half spectrum with sum W |yhat|^2 = sum w |yhat|^2 over the full
    DFT grid for every real y: where rfftn keeps one mode of a Hermitian pair (k, -k), the
    weight of the dropped mode -k is folded onto it."""
    n = w.shape[-1]
    mirror = np.roll(np.flip(w), 1, axis=tuple(range(w.ndim)))  # w at -k mod n
    half = w[..., : n // 2 + 1].copy()
    paired = slice(1, (n + 1) // 2)  # last-axis modes whose partner lies above n/2
    half[..., paired] += mirror[..., paired]
    return half


def _spectral_sums(y: np.ndarray, half: np.ndarray) -> np.ndarray:
    """sum_k w_k |yhat_k|^2 over the trailing half.ndim axes of y, yhat the DFT, for each field
    along the leading axes: one real FFT and one weighted sum with half = _half_spectrum_weights(w)."""
    spec = np.fft.rfftn(y, axes=tuple(range(-half.ndim, 0)))
    power = spec.real**2 + spec.imag**2
    return power.reshape(y.shape[: y.ndim - half.ndim] + (-1,)) @ half.ravel()


def llr_per_node(y: np.ndarray, sigma2: float, cs1: CirculantSpectrum) -> float | np.ndarray:
    """Per-node log-likelihood ratio log(p0/p1)(y) / n^d on the torus.

    p0 is i.i.d. N(0, sigma2) noise, p1 the Gaussian field with torus
    eigenvalues cs1.eigs; evaluated exactly in the DFT domain as
    (1/n^d) [ 0.5 sum log(lambda_i/sigma2)
              + 0.5 sum |yhat_i|^2 (1/lambda_i - 1/sigma2) ]
    with yhat the unitary DFT of y.  The trailing d axes of y hold a field; a
    single field gives a float, a stack of fields along leading axes an array.
    """
    check_positive(sigma2=sigma2)
    y = np.asarray(y, dtype=float)
    shape = cs1.eigs.shape
    if y.shape[-len(shape):] != shape:
        raise ValueError(f"field has shape {y.shape}, model expects trailing axes {shape}")
    size = cs1.eigs.size
    det_term = 0.5 * float(np.sum(np.log(cs1.eigs / sigma2))) / size
    weights = _half_spectrum_weights((0.5 / size**2) * (1.0 / cs1.eigs - 1.0 / sigma2))
    llr = det_term + _spectral_sums(y, weights)
    return float(llr) if y.ndim == len(shape) else llr


def _noise_trials(model: SfcarModel, sigma2: float, n: int, trials: int, seed: int):
    """Torus eigenvalues of the hidden field and a lazy sequence of chunks of i.i.d.
    N(0, sigma2) n x n fields, stacked along a leading axis.  Each field comes from its own
    substream, so it depends only on (seed, trial index).  The chunks share one buffer of
    about _CHUNK_BYTES, so each chunk must be used up before the next is drawn."""
    check_integer(30, trials=trials)
    cs1 = circulant_eigs(hidden_spectrum(sfcar_spectrum(model), sigma2), n)
    seeds = np.random.SeedSequence(seed).spawn(trials)
    return cs1, _field_chunks(cs1.eigs.shape, math.sqrt(sigma2), seeds)


def _field_chunks(shape: tuple[int, ...], sd: float, seeds: list[np.random.SeedSequence]):
    buf = np.empty((max(1, min(len(seeds), _CHUNK_BYTES // (8 * math.prod(shape)))),) + shape)
    for start in range(0, len(seeds), len(buf)):
        chunk = buf[: len(seeds) - start]
        for field, s in zip(chunk, seeds[start:]):
            np.random.default_rng(s).standard_normal(out=field)
        chunk *= sd
        yield chunk


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
    against the hidden-field alternative on the n-torus, and averages.
    Under the noise law the mean of the torus LLR is exactly the n-point
    periodic rectangle rule, on the DFT frequencies, for the plane KLI rate's
    spectral integral, so it is exponentially close to the plane rate, the
    more slowly the nearer zeta is to 1/4.  Relative gaps at SNR 10 (0.5):
    below 2e-16 at zeta = 0.1 for n >= 32; at zeta = 0.24, 1.1e-8 (1.8e-7)
    for n = 32, 8.8e-15 (1.4e-13) for 64 and 2e-16 (0) for 128; at
    zeta = 0.249, 6.4e-5 (9.9e-4), 3.5e-7 (5.3e-6) and 3.6e-11 (5.5e-10).
    Fields are drawn and reduced in chunks of about 1 MB.
    """
    cs1, chunks = _noise_trials(model, sigma2, n, trials, seed)
    return _report(np.concatenate([llr_per_node(y, sigma2, cs1) for y in chunks]), n, seed)


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


def _gamma_table(model: SfcarModel, sigma2: float, n: int) -> np.ndarray:
    """The n x n table tab[h1, h2] = gamma[h1, h2] + sigma2 [h = (0, 0)] of the covariance
    sigma2 I + [gamma_{k-l}] at per-axis offsets |k - l| below n.  gamma takes the w2
    integral in closed form and the w1 integral by the trapezoid rule; gamma is symmetric,
    so the larger offset goes to the closed form (a w1 sum reaches its small power only by
    cancellation).  sigma2 = 0 gives the signal covariance alone."""
    check_integer(1, n=n)
    check_at_least(0, sigma2=sigma2)
    a, b, s = _w2_closed_form(model.zeta, 1.0, 0.0)
    h = np.arange(n)
    tab = np.cos(np.outer(h, omega_grid(_COV_GRID))) @ ((b / (a + s))[:, None] ** h / s[:, None])
    tab = np.where(h[:, None] <= h, tab, tab.T) / (_COV_GRID * model.kappa)
    tab[0, 0] += sigma2  # offset (0, 0) is the diagonal
    return tab


def _axis_offsets(n: int, wrap: bool) -> np.ndarray:
    """|i - j| over the index pairs of one axis, wrapped on the n-torus if wrap."""
    h = np.arange(n)
    d = np.abs(np.subtract.outer(h, h))
    return np.minimum(d, n - d) if wrap else d


def _gather(tab: np.ndarray, d1: np.ndarray, d2: np.ndarray) -> np.ndarray:
    """The matrix [tab[d1[k1, l1], d2[k2, l2]]] over node pairs ((k1, k2), (l1, l2)), nodes in
    lexicographic order."""
    # indexed as (k1, k2, l1, l2), then flattened to (k, l)
    size = d1.shape[0] * d2.shape[0]
    return tab[d1[:, None, :, None], d2[None, :, None, :]].reshape(size, size)


def _patch_matrix(model: SfcarModel, sigma2: float, n: int, wrap: bool) -> np.ndarray:
    """sigma2 I + [gamma_{k-l}] over the node pairs (k, l) of the n x n patch, nodes in
    lexicographic order, offsets wrapped on the n-torus if wrap."""
    tab = _gamma_table(model, sigma2, n)
    d = _axis_offsets(n, wrap)
    return _gather(tab, d, d)


def _parity_bases(n: int) -> list[tuple[float, np.ndarray, np.ndarray]]:
    """The even and odd parts of one axis under the flip i -> n-1-i, as (sign, scale, basis).
    Row k of basis is the unit vector scale_k (e_k + sign e_{n-1-k}) / sqrt2, for k below
    ceil(n/2) (even, sign +1) or floor(n/2) (odd, sign -1); scale_k is 1 except at the
    middle index of an odd n, where it is 1/sqrt2 (there e_k + e_{n-1-k} = 2 e_k)."""
    out = []
    for m, sign in (((n + 1) // 2, 1.0), (n // 2, -1.0)):
        scale = np.ones(m)
        if sign > 0.0 and n % 2:
            scale[-1] = math.sqrt(0.5)
        unit = np.eye(n)[:m]
        out.append((sign, scale, (unit + sign * unit[:, ::-1]) * (scale / math.sqrt(2.0))[:, None]))
    return out


def _reflection_blocks(model: SfcarModel, sigma2: float, n: int, wrap: bool) -> list[np.ndarray]:
    """_patch_matrix(model, sigma2, n, wrap) in the product basis of _parity_bases(n): the
    matrix commutes with the flip of each axis, so in that basis it is block diagonal, and
    these are its four blocks (even, even), (even, odd), (odd, even) and (odd, odd), with
    rows (k1, k2) in lexicographic order.  Per axis, an entry (k, l) sums tab at the direct
    offset |k - l| and, times sign, at the reflected offset n-1-k-l (both wrapped if wrap),
    and is scaled by scale_k scale_l."""
    tab = _gamma_table(model, sigma2, n)
    d = _axis_offsets(n, wrap)
    axes = []  # per parity: the (sign, offsets) terms and the scale
    for sign, scale, _ in _parity_bases(n):
        m = len(scale)
        axes.append(([(1.0, d[:m, :m]), (sign, d[:m, ::-1][:, :m])], scale))
    blocks = []
    for terms1, scale1 in axes:
        for terms2, scale2 in axes:
            v = np.outer(scale1, scale2).ravel()
            block = sum(c1 * c2 * _gather(tab, d1, d2) for c1, d1 in terms1 for c2, d2 in terms2)
            blocks.append(v[:, None] * block * v)
    return blocks


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


def _cholesky(block: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.cholesky(block)
    except np.linalg.LinAlgError as exc:
        raise NonpositiveEigenvalueError("dense covariance is not positive definite") from exc


def logdet_convergence(
    model: SfcarModel,
    sigma2: float,
    n_list: list[int],
) -> list[tuple[int, float]]:
    """Gap between the per-node log-determinant of the exact block-Toeplitz
    covariance and its spectral limit, for each lattice side in n_list.

    The log-determinant is the sum over the four reflection blocks'
    Cholesky factors.  The gap shrinks like 1/n.  Sides above 48 are rejected
    (dense assembly).
    """
    target = _hidden_limits(model, sigma2)[0]
    out = []
    for n in n_list:
        if n > _DENSE_LOGDET_MAX:
            raise ValueError(f"dense log-det limited to n <= {_DENSE_LOGDET_MAX}, got {n}")
        logdet = sum(2.0 * float(np.sum(np.log(np.diag(_cholesky(block)))))
                     for block in _reflection_blocks(model, sigma2, n, wrap=False))
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

    The dense path uses the exact block-Toeplitz covariance, factored as its
    four reflection blocks, the circulant path its torus diagonalization;
    both converge to the spectral integral of sigma2 / ((2 pi)^2 f1).  The
    same noise fields drive both paths.
    """
    if n > _BLOCK_CHECK_MAX:
        raise ValueError(f"dense quadratic form limited to n <= {_BLOCK_CHECK_MAX}, got {n}")
    target = _hidden_limits(model, sigma2)[1]
    chols = [_cholesky(block) for block in _reflection_blocks(model, sigma2, n, wrap=False)]
    bases = [basis for _, _, basis in _parity_bases(n)]
    cs1, chunks = _noise_trials(model, sigma2, n, trials, seed)
    circ_weights = _half_spectrum_weights(1.0 / (cs1.eigs * n**4))
    q_dense, q_circ = [], []
    for y in chunks:
        # y' Sigma1^{-1} y is the sum over blocks of |L^{-1} c|^2, c the block's components of y
        parts = [(b1 @ y @ b2.T).reshape(len(y), -1).T for b1 in bases for b2 in bases]
        q_dense.append(sum(np.sum(np.linalg.solve(chol, part) ** 2, axis=0)
                           for chol, part in zip(chols, parts)) / n**2)
        q_circ.append(_spectral_sums(y, circ_weights))
    return QuadformCheck(
        dense=_report(np.concatenate(q_dense), n, seed),
        circulant=_report(np.concatenate(q_circ), n, seed),
        target=target,
    )


def toeplitz_circulant_gap(
    model: SfcarModel,
    sigma2: float,
    n_list: list[int],
) -> list[tuple[int, float]]:
    """Per-node trace norm of (Sigma1 - C), the block-Toeplitz covariance
    minus its circulant approximation, for each side in n_list; O(1/n).
    Both commute with the axis flips, so the norm sums over the four
    reflection blocks of the difference."""
    out = []
    for n in n_list:
        if n > _BLOCK_CHECK_MAX:
            raise ValueError(f"dense eigendecomposition limited to n <= {_BLOCK_CHECK_MAX}, got {n}")
        pairs = zip(_reflection_blocks(model, sigma2, n, wrap=False),
                    _reflection_blocks(model, sigma2, n, wrap=True))
        # each difference block is symmetric, so its singular values are its absolute eigenvalues
        trace_norm = sum(float(np.abs(np.linalg.eigvalsh(toeplitz - circ)).sum()) for toeplitz, circ in pairs)
        out.append((n, trace_norm / n**2))
    return out
