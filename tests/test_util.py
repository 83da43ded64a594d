"""Shared helpers: bisection and the input checks at every site that uses them."""

import math
from dataclasses import replace

import numpy as np
import pytest

from gmrfinfo._util import bisect, check_at_least, check_finite, golden_section_max
from gmrfinfo.corrmap import PhysicalField, rho_from_spacing, rho_from_zeta, zeta_from_rho
from gmrfinfo.gmrf_mc import dense_covariance, mc_kli_estimate
from gmrfinfo.inforates import (
    kli_rate_general,
    kli_rate_sfcar,
    mi_rate_general,
    sfcar_info_rates,
    stein_kli,
)
from gmrfinfo.network import (
    NetworkConfig,
    hop_sum,
    hop_sum_closed,
    optimal_density,
    sweep_fixed_pernode_energy,
)
from gmrfinfo.spectra import (
    InvalidModelError,
    SfcarModel,
    constant_spectrum,
    omega_grid,
    sfcar_for_snr,
)

A9_BASE = NetworkConfig(n=33, dn=1.0, es=1.0, e0=1.0, nu=2.0, alpha=1.0, beta=10.0)
A9_SIDES = [33, 65, 129, 257]


def counting(pred):
    calls = []

    def wrapped(x):
        calls.append(x)
        return pred(x)

    return wrapped, calls


class TestBisect:
    def test_tolerance_stop(self):
        pred, calls = counting(lambda x: x < 0.3)
        lo, hi = bisect(pred, 0.0, 1.0, 0.01)
        assert lo < 0.3 <= hi
        assert 0.005 < hi - lo <= 0.01
        assert len(calls) == 7  # 2^-7 is the first halving at or below 0.01

    def test_zero_width_bracket_calls_nothing(self):
        pred, calls = counting(lambda x: True)
        assert bisect(pred, 2.0, 2.0, 0.0) == (2.0, 2.0)
        assert calls == []

    def test_rounding_stop(self):
        # with no tolerance the bracket closes to adjacent floats, where the
        # midpoint rounds to an end, and the search stops there
        pred, calls = counting(lambda x: x * x < 2.0)
        lo, hi = bisect(pred, 1.0, 2.0, 0.0)
        assert math.nextafter(lo, math.inf) == hi
        assert lo * lo < 2.0 <= hi * hi
        assert len(calls) == 52  # one halving per bit below 1

    def test_rounding_stop_at_an_end(self):
        lo, hi = bisect(lambda x: True, 1.0, 2.0, 0.0)
        assert (lo, hi) == (math.nextafter(2.0, 0.0), 2.0)
        lo, hi = bisect(lambda x: False, -1e300, 1e300, 0.0)
        assert (lo, hi) == (-1e300, math.nextafter(-1e300, 0.0))

    def test_matches_old_zeta_from_rho_loop(self):
        for rho in (1e-9, 0.01, 0.3, 0.5, 0.8, 0.89, 0.9):
            lo, hi = 0.0, 0.25
            while hi - lo > 1e-12:
                mid = 0.5 * (lo + hi)
                if rho_from_zeta(mid) < rho:
                    lo = mid
                else:
                    hi = mid
            assert zeta_from_rho(rho) == 0.5 * (lo + hi)

    @pytest.mark.parametrize("es", [0.5, 1.0, 2.0])
    def test_matches_old_80_step_loop_on_a9_sides(self, es):
        cfg = replace(A9_BASE, es=es)
        ec = cfg.e0 * cfg.dn**cfg.nu
        ebar = cfg.es + hop_sum(A9_SIDES[0]) * ec / A9_SIDES[0]**2
        sides = sweep_fixed_pernode_energy(cfg, A9_SIDES).gathered_side
        for n, side in zip(A9_SIDES, sides):
            def fits(m, budget=n**2 * ebar):
                return m**2 * cfg.es + hop_sum_closed(m) * ec <= budget

            lo, hi = 1.0, float(n)
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                lo, hi = (mid, hi) if fits(mid) else (lo, mid)
            old = float(n) if fits(float(n)) else lo
            assert old == (float(n) if fits(float(n)) else bisect(fits, 1.0, float(n), 0.0)[0])
            assert side == old


class TestGoldenSectionMax:
    xs = np.linspace(0.0, 1.0, 11)

    def search(self, f, **tol):
        return golden_section_max(f, self.xs, np.array([f(x) for x in self.xs]), **tol)

    @pytest.mark.parametrize("slope", [-1.0, 1.0])
    def test_maximum_at_grid_end_is_that_end(self, slope):
        end = 0.0 if slope < 0 else 1.0
        assert self.search(lambda x: slope * x, abs_tol=1e-6) == (end, slope * end)

    @pytest.mark.parametrize("tol,width", [({"abs_tol": 1e-6}, 1e-6), ({"rel_tol": 1e-6}, 0.37e-6)])
    def test_interior_maximum_within_tolerance(self, tol, width):
        x, v = self.search(lambda x: -(x - 0.37) ** 2, **tol)
        assert abs(x - 0.37) <= width
        assert v == -(x - 0.37) ** 2

    def test_refined_value_below_grid_point_returns_grid_point(self):
        assert self.search(lambda x: 1.0 if x == 0.5 else -abs(x - 0.5), abs_tol=1e-6) == (0.5, 1.0)

    def test_rise_toward_end_stays_interior(self):
        # the maximum is approached, not reached: the end itself scores 0
        x, v = self.search(lambda x: x if x < 1.0 else 0.0, abs_tol=1e-6)
        assert 1.0 - 1e-6 < x < 1.0
        assert v == x


def _at_least(name, minimum, below):
    """The (value, class, message) cases of a check_at_least site."""
    return [(math.nan, ValueError, f"{name} must be finite, got nan"),
            (math.inf, ValueError, f"{name} must be finite, got inf"),
            (below, ValueError, f"{name} must be >= {minimum}, got {below!r}")]


def _zeta_domain():
    return [(z, InvalidModelError, f"zeta must lie in [0, 1/4], got {z!r}")
            for z in (math.nan, math.inf, -0.1)]


def _config(**fields):
    return NetworkConfig(**{"n": 3, "dn": 1.0, "es": 1.0, "e0": 1.0, "nu": 2.0, "alpha": 1.0,
                            "beta": 1.0, **fields})


# every site that validates an input through the shared checks: the call, then
# NaN, inf and a value below the bound with the exact class and message each raises
INPUT_SITES = {
    "kli_rate_sfcar snr": (lambda v: kli_rate_sfcar(v, 0.1, 16), _at_least("snr", 0, -1.0)),
    "stein_kli snr": (stein_kli, _at_least("snr", 0, -1.0)),
    "NetworkConfig nu": (lambda v: _config(nu=v), _at_least("nu", 2, 1.5)),
    "optimal_density nu": (lambda v: optimal_density(2.0, 50.0, 100.0, 1.0, 0.1, v),
                           _at_least("nu", 2, 1.5)),
    "NetworkConfig es": (lambda v: _config(es=v), _at_least("es", 0, -1.0)),
    "dense_covariance sigma2": (lambda v: dense_covariance(SfcarModel(1.0, 0.1), v, 4),
                                _at_least("sigma2", 0, -1.0)),
    "rho_from_spacing spacing": (lambda v: rho_from_spacing(PhysicalField(1.0), v),
                                 _at_least("spacing", 0, -1.0)),
    "omega_grid grid": (omega_grid, _at_least("grid", 1, 0)),
    "mc_kli_estimate trials": (lambda v: mc_kli_estimate(SfcarModel(1.0, 0.1), 1.0, 8, v, 1),
                               [(29, ValueError, "trials must be >= 30, got 29")]),
    "SfcarModel zeta": (lambda v: SfcarModel(1.0, v), _zeta_domain()),
    "kli_rate_sfcar zeta": (lambda v: kli_rate_sfcar(1.0, v, 16), _zeta_domain()),
    "rho_from_zeta zeta": (rho_from_zeta, _zeta_domain()),
    "sfcar_for_snr zeta": (lambda v: sfcar_for_snr(1.0, v),
                           [(math.nan, ValueError, "zeta must be finite, got nan"),
                            (math.inf, ValueError, "zeta must be finite, got inf"),
                            (-0.1, InvalidModelError, "zeta must lie in [0, 1/4], got -0.1")]),
    **{f"{rate.__name__} sigma2": (lambda v, rate=rate: rate(constant_spectrum(1.0), v, 16),
                                   [(math.nan, ValueError, "sigma2 must be finite, got nan"),
                                    (math.inf, ValueError, "sigma2 must be finite, got inf"),
                                    (0.0, ValueError, "sigma2 must be positive, got 0.0")])
       for rate in (kli_rate_general, mi_rate_general)},
    "constant_spectrum value": (constant_spectrum,
                                [(math.nan, ValueError, "value must be finite, got nan"),
                                 (math.inf, ValueError, "value must be finite, got inf"),
                                 (-1.0, InvalidModelError, "spectrum value must be nonnegative")]),
}


@pytest.mark.parametrize("site,value,cls,message", [
    pytest.param(site, value, cls, message, id=f"{site}={value!r}")
    for site, (_, cases) in INPUT_SITES.items() for value, cls, message in cases])
def test_input_check_names_the_value(site, value, cls, message):
    with pytest.raises(ValueError) as info:
        INPUT_SITES[site][0](value)
    assert type(info.value) is cls
    assert str(info.value) == message


def test_check_at_least_accepts_the_bound_and_any_int():
    check_at_least(0, snr=0.0)
    check_at_least(2, nu=2)
    check_at_least(1, grid=10**400)  # too large for a float, but still a finite int
    check_finite(n=10**400)


# every count checked as an integer, after its finite and bound checks: the call, a
# non-integer value and the exact message it raises
INTEGER_SITES = {
    "omega_grid grid": (omega_grid, 1.5, "grid must be an integer, got 1.5"),
    "sfcar_info_rates grid": (lambda v: sfcar_info_rates(1.0, 0.1, grid=v), 512.0,
                              "grid must be an integer, got 512.0"),
    "mc_kli_estimate trials": (lambda v: mc_kli_estimate(SfcarModel(1.0, 0.1), 1.0, 8, v, 1),
                               30.5, "trials must be an integer, got 30.5"),
    "sweep_fixed_pernode_energy sides": (lambda v: sweep_fixed_pernode_energy(_config(), [3, v]),
                                         5.5, "n must be an integer, got 5.5"),
}


@pytest.mark.parametrize("site", sorted(INTEGER_SITES))
def test_integer_count_rejects_a_non_integer(site):
    call, value, message = INTEGER_SITES[site]
    with pytest.raises(ValueError) as info:
        call(value)
    assert str(info.value) == message
