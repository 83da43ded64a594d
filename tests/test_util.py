"""Shared helpers: bisection and the input checks at every site that uses them."""

import math
from dataclasses import replace

import numpy as np
import pytest

from gmrfinfo import gmrf_mc, network
from gmrfinfo._util import bisect, check_at_least, check_finite, golden_section_max, sorted_points
from gmrfinfo.corrmap import PhysicalField, rho_from_spacing, rho_from_zeta, zeta_from_rho
from gmrfinfo.gmrf_mc import dense_covariance, logdet_convergence, mc_kli_estimate, toeplitz_circulant_gap
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
    sweep_energy_fixed_all,
    sweep_fixed_density,
    sweep_fixed_pernode_energy,
    sweep_infinite_density,
    sweep_spacing,
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
    # the stop width is relative to the bracket's upper end, so the grid keeps clear of x = 0
    xs = np.linspace(1.0, 2.0, 11)

    def search(self, f, rel_tol=1e-6):
        return golden_section_max(f, self.xs, np.array([f(x) for x in self.xs]), rel_tol)

    @pytest.mark.parametrize("slope", [-1.0, 1.0])
    def test_maximum_at_grid_end_is_that_end(self, slope):
        end = 1.0 if slope < 0 else 2.0
        assert self.search(lambda x: slope * x) == (end, slope * end)

    def test_maximum_at_zero_ends_when_probes_round_onto_it(self):
        # no relative width is reached on [0, hi]: the bracket closes until a probe rounds to 0
        xs = np.linspace(0.0, 1.0, 11)
        assert golden_section_max(lambda x: -x, xs, -xs, 1e-6) == (0.0, 0.0)

    # the bracket around 1.37 ends below rel_tol times its upper end
    @pytest.mark.parametrize("tol,width", [({"rel_tol": 7e-7}, 1e-6), ({"rel_tol": 2.7e-7}, 3.7e-7)])
    def test_interior_maximum_within_tolerance(self, tol, width):
        x, v = self.search(lambda x: -(x - 1.37) ** 2, **tol)
        assert abs(x - 1.37) <= width
        assert v == -(x - 1.37) ** 2

    def test_refined_value_below_grid_point_returns_grid_point(self):
        assert self.search(lambda x: 1.0 if x == 1.5 else -abs(x - 1.5)) == (1.5, 1.0)

    @pytest.mark.parametrize("base", [1.0, -1.0])
    @pytest.mark.parametrize("gain,refined", [(5e-15, False), (1e-14, False), (2e-14, True)])
    def test_gain_within_rounding_is_a_tie(self, base, gain, refined):
        # off the grid the function is higher by `gain` relative; only a gain above 1e-14 wins
        def f(x):
            return base if x in self.xs else base + gain * abs(base)

        x, v = self.search(f)
        if refined:
            assert 1.0 < x < 1.1 and v == base + gain * abs(base)
        else:
            assert (x, v) == (1.0, base)

    def test_rise_toward_end_stays_interior(self):
        # the maximum is approached, not reached: the end itself scores 0
        x, v = self.search(lambda x: x if x < 2.0 else 0.0)
        assert 2.0 - 2e-6 < x < 2.0
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


def test_sorted_points_checks_each_value_then_sorts():
    seen = []
    assert sorted_points((3, 1, 2), "sides", seen.append) == [1, 2, 3]
    assert seen == [3, 1, 2]
    with pytest.raises(ValueError, match="^sides must not be empty$"):
        sorted_points(iter(()), "sides", seen.append)


# every list input: the call, its name in the empty-list error, an unsorted list, and a list
# whose last value is bad with the exact message it raises
_DENSE = SfcarModel(1.0, 0.1)
LIST_SITES = {
    "sweep_fixed_density sides": (lambda v: sweep_fixed_density(_config(), v, grid=8), "sides",
                                  [9, 3, 5], [3, 1], "n must be >= 2, got 1"),
    "sweep_fixed_pernode_energy sides": (lambda v: sweep_fixed_pernode_energy(_config(), v, grid=8),
                                         "sides", [9, 3, 5], [3, 1], "n must be >= 2, got 1"),
    "sweep_spacing spacings": (lambda v: sweep_spacing(_config(es=10.0), v, grid=8), "spacings",
                               [2.0, 0.5, 1.0], [1.0, 0.0], "spacing must be positive, got 0.0"),
    "sweep_infinite_density densities": (lambda v: sweep_infinite_density(4.0, v, "kli", 1.0, 1.0, grid=8),
                                         "densities", [1.0, 0.1, 10.0], [1.0, math.nan],
                                         "densities must be finite and positive"),
    "optimal_density densities": (lambda v: optimal_density(2.0, 50.0, 100.0, 1.0, 0.1, 2.0, mu_grid=v,
                                                            grid=8),
                                  "densities", [8.0, 1.0, 4.0, 2.0, 16.0], [1.0, 0.0],
                                  "densities must be finite and positive"),
    "sweep_energy_fixed_all budgets": (lambda v: sweep_energy_fixed_all(_config(n=21, dn=0.1, alpha=100.0,
                                                                                e0=0.1), v, grid=8),
                                       "budgets", [1e6, 1e4, 1e5], [1e4, math.inf],
                                       "et must be finite, got inf"),
    "logdet_convergence n_list": (lambda v: logdet_convergence(_DENSE, 1.0, v), "sides", [8, 4, 6],
                                  [4, 49], "dense log-det limited to n <= 48, got 49"),
    "toeplitz_circulant_gap n_list": (lambda v: toeplitz_circulant_gap(_DENSE, 1.0, v), "sides",
                                      [8, 4, 6], [4, 33], "dense eigendecomposition limited to n <= 32, got 33"),
    "toeplitz_circulant_gap bool side": (lambda v: toeplitz_circulant_gap(_DENSE, 1.0, v), "sides",
                                         [8, 4, 6], [4, True], "n must be an integer, got True"),
}


@pytest.fixture
def work(monkeypatch):
    """Counts calls of the steps that do a list input's work: rates, zeta inversions,
    bisections, dense assembly and factorization."""
    calls = []
    for module, name in [(network, "kli_rate_sfcar"), (network, "mi_rate_sfcar"), (network, "zeta_from_spacing"),
                         (network, "bisect"), (gmrf_mc, "_reflection_blocks"), (gmrf_mc, "_cholesky")]:
        original = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a, _f=original, _n=name, **k: calls.append(_n) or _f(*a, **k))
    return calls


@pytest.mark.parametrize("site", list(LIST_SITES))
def test_list_input_contract(site, work):
    call, name, unsorted, bad, message = LIST_SITES[site]
    with pytest.raises(ValueError, match=f"^{name} must not be empty$"):
        call([])
    with pytest.raises(ValueError) as info:
        call(bad)
    assert str(info.value) == message
    assert work == []  # the bad last value is found before any work
    assert call(unsorted) == call(sorted(unsorted))
    assert work  # the counters do see the work of a valid list
