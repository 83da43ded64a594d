"""Special functions against adaptive-quadrature and mpmath oracles, plus
endpoint and old branch-seam behavior."""

import math
import warnings

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import ellipe

from gmrfinfo.specfun import _agm, _agm_array, bessel_k1, elliptic_e, elliptic_k

# Moduli for the mpmath oracles: a uniform grid, a log-spaced approach to the
# k = 1 pole, and the old seam of elliptic_k's log asymptote at 1 - 1e-12.
ORACLE_MODULI = sorted(
    {float(k) for k in np.linspace(0.0, 1.0 - 1e-15, 101)}
    | {float(k) for k in 1.0 - np.logspace(-1, -15, 57)}
    | {1e-300, 1e-8, 1.0 - 1e-12 - 1e-13, 1.0 - 1e-12, 1.0 - 1e-12 + 1e-13}
)


def mp_complete_integrals(k: float) -> tuple[float, float]:
    """(K(k), E(k)) at 40 digits; mpmath takes the parameter m = k^2."""
    with mpmath.workdps(40):
        m = mpmath.mpf(k) ** 2
        return float(mpmath.ellipk(m)), float(mpmath.ellipe(m))


def elliptic_k_oracle(k: float) -> float:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        val, err = quad(lambda t: 1.0 / math.sqrt(1.0 - (k * math.sin(t)) ** 2),
                        0.0, math.pi / 2, epsabs=1e-14, epsrel=1e-14, limit=200)
    return val


def bessel_k1_oracle(x: float) -> float:
    t_max = math.acosh(745.0 / x)  # integrand underflows to zero beyond here
    val, err = quad(lambda t: math.exp(-x * math.cosh(t)) * math.cosh(t),
                    0.0, t_max, epsabs=1e-300, epsrel=1e-13, limit=400)
    return val


def test_elliptic_k_at_zero_is_half_pi():
    assert abs(elliptic_k(0.0) - math.pi / 2) < 1e-14


def test_elliptic_k_half_matches_quadrature():
    assert elliptic_k(0.5) == pytest.approx(elliptic_k_oracle(0.5), rel=1e-10)


def test_elliptic_k_oracle_grid():
    # 50-point grid, log-spaced in the distance to the k = 1 pole
    ks = 1.0 - np.logspace(0, -10, 50)
    for k in ks:
        assert elliptic_k(float(k)) == pytest.approx(elliptic_k_oracle(float(k)), rel=1e-9)


def test_elliptic_k_strictly_increasing():
    ks = np.linspace(0.0, 1.0 - 1e-10, 200)
    vals = [elliptic_k(float(k)) for k in ks]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_elliptic_k_log_branch_agrees_with_agm():
    # the logarithmic asymptote, once a separate branch above 1 - 1e-12, still
    # agrees with the AGM just below that old seam
    k = 1.0 - 1.5e-12
    log_form = math.log(4.0 / math.sqrt((1.0 - k) * (1.0 + k)))
    assert elliptic_k(k) == pytest.approx(log_form, rel=1e-11)


@pytest.mark.parametrize("k", [-0.1, 1.0, 1.5])
def test_elliptic_k_domain(k):
    with pytest.raises(ValueError):
        elliptic_k(k)


def test_elliptic_k_and_e_match_mpmath():
    for k in ORACLE_MODULI:
        k_ref, e_ref = mp_complete_integrals(k)
        assert abs(elliptic_k(k) / k_ref - 1.0) <= 1e-14, k
        assert abs(elliptic_e(k) / e_ref - 1.0) <= 1e-14, k


def test_agm_array_matches_scalar_agm():
    # one array pass over moduli from 0 to next to 1, with k' from 1 - k as the kernel passes it
    rng = np.random.default_rng(7)
    k = np.array(ORACLE_MODULI + [0.0, *rng.uniform(0.0, 1.0, 200), *(1.0 - 10.0 ** rng.uniform(-16, -1, 200))])
    m, gap, e_ratio = _agm_array(k, np.sqrt((1.0 - k) * (1.0 + k)))
    for i, ki in enumerate(k.tolist()):
        m_ref, gap_ref, e_ref = _agm(ki)
        # within a few ulps: the two sum the same series by different recurrences
        assert m[i] == pytest.approx(m_ref, rel=4e-16, abs=0.0), ki
        assert gap[i] == pytest.approx(ki * gap_ref, rel=1e-15, abs=0.0), ki  # the scalar returns (1 - M) / k
        assert abs(e_ratio[i] - e_ref) <= 4e-16, ki  # E / K <= 1


def test_agm_array_matches_mpmath():
    k = np.array(ORACLE_MODULI)
    m, _, e_ratio = _agm_array(k, np.sqrt((1.0 - k) * (1.0 + k)))
    for ki, mi, ei in zip(k.tolist(), m.tolist(), e_ratio.tolist()):
        k_ref, e_ref = mp_complete_integrals(ki)
        assert abs(math.pi / (2.0 * mi) / k_ref - 1.0) <= 1e-14, ki
        assert abs(math.pi / (2.0 * mi) * ei / e_ref - 1.0) <= 1e-14, ki


def test_elliptic_e_matches_scipy():
    for k in ORACLE_MODULI:
        assert abs(elliptic_e(k) / ellipe(k * k) - 1.0) <= 1e-14, k


def test_elliptic_e_endpoints_and_monotone():
    assert elliptic_e(0.0) == math.pi / 2
    assert 1.0 < elliptic_e(1.0 - 1e-15) < 1.0 + 1e-12
    vals = [elliptic_e(float(k)) for k in np.linspace(0.0, 1.0 - 1e-10, 200)]
    assert all(b < a for a, b in zip(vals, vals[1:]))


@pytest.mark.parametrize("k", [-0.1, 1.0, 1.5, math.nan])
def test_elliptic_e_domain(k):
    with pytest.raises(ValueError, match="elliptic_e requires 0 <= k < 1"):
        elliptic_e(k)


def test_bessel_k1_small_x_reciprocal():
    x = 1e-4
    assert x * bessel_k1(x) == pytest.approx(1.0, abs=1e-3)


def test_bessel_k1_large_x_leading_asymptote():
    x = 30.0
    ratio = bessel_k1(x) / (math.sqrt(math.pi / (2 * x)) * math.exp(-x))
    assert 1.0 <= ratio <= 1.02


def test_bessel_k1_at_one_matches_quadrature():
    assert bessel_k1(1.0) == pytest.approx(bessel_k1_oracle(1.0), rel=1e-9)


def test_bessel_k1_oracle_grid():
    xs = np.logspace(-6, math.log10(50.0), 50)
    for x in xs:
        assert bessel_k1(float(x)) == pytest.approx(bessel_k1_oracle(float(x)), rel=1e-9)


def test_bessel_k1_matches_mpmath():
    # log-spaced over the range K1 is finite and normal in, plus both sides of the
    # seams an earlier three-branch version switched at (x = 2 and x = 15) and of
    # the 1/x switch at 1e-9
    xs = [float(x) for x in np.logspace(-300, math.log10(700.0), 600)]
    xs += [2.0 - 1e-7, 2.0 + 1e-7, 15.0 - 1e-4, 15.0 + 1e-4, 1e-9 * (1 - 1e-12), 1e-9 * (1 + 1e-12)]
    with mpmath.workdps(40):
        for x in xs:
            ref = mpmath.besselk(1, mpmath.mpf(x))
            assert abs((bessel_k1(x) - ref) / ref) <= 2e-15, x


@pytest.mark.parametrize("x", [745.0, 1e308, math.inf])
def test_bessel_k1_underflows_to_zero(x):
    assert bessel_k1(x) == 0.0


def test_bessel_k1_strictly_decreasing_positive():
    xs = np.logspace(-5, 1.5, 120)
    vals = [bessel_k1(float(x)) for x in xs]
    assert all(v > 0 for v in vals)
    assert all(b < a for a, b in zip(vals, vals[1:]))


@pytest.mark.parametrize("x", [0.0, -1.0, math.nan])
def test_bessel_k1_domain(x):
    with pytest.raises(ValueError, match="bessel_k1 requires x > 0"):
        bessel_k1(x)
