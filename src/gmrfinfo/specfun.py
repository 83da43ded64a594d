"""Self-contained special functions: the complete elliptic integrals of the
first and second kind (one AGM iteration) and the modified Bessel function of
the second kind, order 1, each validated in the tests against quadrature of
its defining integral and against high-precision references.
"""

from __future__ import annotations

import math

__all__ = ["elliptic_k", "elliptic_e", "bessel_k1"]

_EULER_GAMMA = 0.5772156649015328606

# bessel_k1 branch seams.  The ascending series starts cancelling badly past
# x ~ 4 (the log(x/2) I1(x) term dwarfs the result), and the large-x expansion
# only reaches ~1e-8 truncation error at x = 10, so the midrange is covered by
# direct quadrature of the integral representation.  Both seams are tested to
# 1e-10 agreement.
_K1_SERIES_MAX = 2.0
_K1_ASYMPTOTIC_MIN = 15.0


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

    Three branches: ascending series for x <= 2, quadrature of
    integral_0^inf exp(-x cosh t) cosh t dt for 2 < x < 15, and the
    sqrt(pi/(2x)) e^{-x} (1 + 3/(8x) + ...) expansion for x >= 15.
    """
    if x <= 0.0:
        raise ValueError(f"bessel_k1 requires x > 0, got {x!r}")
    if x <= _K1_SERIES_MAX:
        return _k1_series(x)
    if x < _K1_ASYMPTOTIC_MIN:
        return _k1_integral(x)
    return _k1_asymptotic(x)


def _k1_series(x: float) -> float:
    # K1(x) = 1/x + ln(x/2) I1(x)
    #         - (x/4) sum_m [psi(m+1) + psi(m+2)] (x^2/4)^m / (m! (m+1)!)
    t = 0.25 * x * x
    log_half_x = math.log(0.5 * x)
    term = 1.0            # (x^2/4)^m / (m! (m+1)!)
    i1_sum = term
    psi_a = -_EULER_GAMMA        # psi(m+1)
    psi_b = 1.0 - _EULER_GAMMA   # psi(m+2)
    psi_sum = (psi_a + psi_b) * term
    for m in range(1, 60):
        term *= t / (m * (m + 1))
        psi_a += 1.0 / m
        psi_b += 1.0 / (m + 1)
        i1_sum += term
        psi_sum += (psi_a + psi_b) * term
        if term < 1e-18 * i1_sum:
            break
    i1 = 0.5 * x * i1_sum
    return 1.0 / x + log_half_x * i1 - 0.25 * x * psi_sum


def _k1_integral(x: float) -> float:
    # Trapezoid rule on g(t) = exp(-x cosh t) cosh t.  g is even with
    # double-exponential decay, so the uniform rule converges like a
    # double-exponential quadrature; h = 0.05 is far below machine precision.
    h = 0.05
    t_max = math.acosh(720.0 / x)  # exp underflows past here
    n = int(t_max / h) + 1
    total = 0.5  # t = 0 endpoint: cosh 0 * exp(-x) / exp(-x), weight 1/2
    for i in range(1, n + 1):
        c = math.cosh(i * h)
        total += c * math.exp(-x * (c - 1.0))
    return h * total * math.exp(-x)


def _k1_asymptotic(x: float) -> float:
    # K1(x) ~ sqrt(pi/(2x)) e^{-x} sum_m a_m / x^m with
    # a_m = prod_{j<=m} (4 - (2j-1)^2) / (8j); the series is summed to its
    # smallest term.
    term = 1.0
    total = 1.0
    prev = math.inf
    for m in range(1, 40):
        term *= (4.0 - (2.0 * m - 1.0) ** 2) / (8.0 * m * x)
        if abs(term) >= prev:
            break
        total += term
        prev = abs(term)
        if abs(term) < 1e-17 * abs(total):
            break
    return math.sqrt(math.pi / (2.0 * x)) * math.exp(-x) * total
