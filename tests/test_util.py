"""Shared helpers: bisection."""

import math
from dataclasses import replace

import pytest

from gmrfinfo._util import bisect
from gmrfinfo.corrmap import rho_from_zeta, zeta_from_rho
from gmrfinfo.network import NetworkConfig, hop_sum, hop_sum_closed, sweep_fixed_pernode_energy

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
