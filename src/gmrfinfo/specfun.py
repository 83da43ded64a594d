"""Self-contained special functions: the complete elliptic integrals of the
first and second kind (one AGM iteration) and the modified Bessel function of
the second kind, order 1, each validated in the tests against quadrature of
its defining integral and against high-precision references.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["elliptic_k", "elliptic_e", "bessel_k1"]

# Below this, K1(x) = 1/x to double precision: the next term, (x/2) ln(x/2), is
# under 1e-16 of it.
_K1_RECIPROCAL_MAX = 1e-9


def _agm(k: float) -> tuple[float, float, float]:
    """(M, (1 - M) / k, E(k) / K(k)) for 0 <= k < 1, where M = AGM(1, sqrt(1 - k^2)).

    A&S 17.6: K = pi / (2 M), 1 - M = sum_n c_{n+1}, E / K = 1 - sum_n 2^(n-1) c_n^2,
    c_0 = k, c_{n+1} = (a_n - b_n) / 2 = k g_n / 2; g_n neither cancels nor underflows.
    """
    b = math.sqrt((1.0 - k) * (1.0 + k))
    a, g, weight = 1.0, k / (1.0 + b), 0.25 * k * k  # 2^n c_{n+1}^2 = weight g_n^2
    gap, e_ratio = 0.0, 0.5 * (1.0 + b * b)  # 1 - c_0^2 / 2
    while True:
        gap += 0.5 * g
        e_ratio -= weight * g * g
        if g <= 1e-10 * gap:  # quadratic convergence: the next term is < 1e-20 of the sum
            return 0.5 * (a + b), gap, e_ratio
        a, b = 0.5 * (a + b), math.sqrt(a * b)
        g = k * g * g / (4.0 * (a + b))
        weight += weight


def _agm_array(k: np.ndarray, kp: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(M, 1 - M, E / K) of _agm elementwise in one array pass, given k' = sqrt(1 - k^2) too, so that a
    caller may take it from 1 - k.  c_{n+1} = c_n^2 / (4 a_{n+1}) from c_1 = k^2 / (2 (1 + k')) neither
    cancels nor divides by k; all elements iterate until the one of largest k meets _agm's stop rule."""
    s = 1.0 + kp
    a, b, c = 0.5 * s, np.sqrt(kp), k * k / (s + s)
    gap, e_ratio, weight = c, 0.5 * (1.0 + kp * kp), 1.0  # 2^(n-1) c_n^2 = weight c^2
    slowest = int(np.argmax(k))
    while True:
        square = c * c
        e_ratio = e_ratio - weight * square
        if c[slowest] <= 5e-11 * gap[slowest]:  # _agm's g <= 1e-10 gap, as 2 c = k g and 1 - M = k gap
            return 0.5 * (a + b), gap, e_ratio
        s = a + b
        a, b, c = 0.5 * s, np.sqrt(a * b), square / (s + s)
        gap = gap + c
        weight += weight


def elliptic_k(k: float) -> float:
    """Complete elliptic integral of the first kind, modulus convention.

    K(k) = integral_0^{pi/2} (1 - k^2 sin^2 t)^{-1/2} dt = pi / (2 AGM(1, k')).
    K(0) = pi/2; K diverges as k -> 1.
    """
    if not 0.0 <= k < 1.0:
        raise ValueError(f"elliptic_k requires 0 <= k < 1, got {k!r}")
    return math.pi / (2.0 * _agm(k)[0])


def elliptic_e(k: float) -> float:
    """Complete elliptic integral of the second kind, modulus convention.

    E(k) = integral_0^{pi/2} (1 - k^2 sin^2 t)^{1/2} dt, from the same AGM as K.
    """
    if not 0.0 <= k < 1.0:
        raise ValueError(f"elliptic_e requires 0 <= k < 1, got {k!r}")
    m, _, e_ratio = _agm(k)
    return math.pi / (2.0 * m) * e_ratio


def bessel_k1(x: float) -> float:
    """Modified Bessel function of the second kind, order 1, for x > 0.

    K1(x) = e^{-x} integral_0^inf (1 + s) e^{-x s} dt with s = cosh t - 1,
    formed as 2 sinh^2(t/2) so it never cancels.  The integrand is even in t
    and decays double-exponentially, so the trapezoid rule with step
    h = min(0.05, 0.5/sqrt(x)) converges exponentially; it stops at x s = 745,
    where the exponential underflows.
    """
    if not x > 0.0:
        raise ValueError(f"bessel_k1 requires x > 0, got {x!r}")
    if x < _K1_RECIPROCAL_MAX:
        return 1.0 / x
    scale = math.exp(-x)
    if scale == 0.0:  # K1(x) < sqrt(pi / (2 x)) e^{-x} underflows
        return 0.0
    h = min(0.05, 0.5 / math.sqrt(x))
    t_max = 2.0 * math.asinh(math.sqrt(372.5 / x))
    s = 2.0 * np.sinh(np.arange(int(t_max / h) + 1) * (0.5 * h)) ** 2
    return h * (float(((1.0 + s) * np.exp(-x * s)).sum()) - 0.5) * scale  # t = 0 weighs 1/2
