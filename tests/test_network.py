"""Sensor-network energy accounting, reports, and scaling experiments."""

import math
from dataclasses import replace

import numpy as np
import pytest

from gmrfinfo.inforates import stein_kli
from gmrfinfo.network import (
    InfeasibleEnergyError,
    NetworkConfig,
    fit_loglog,
    hop_sum,
    hop_sum_closed,
    network_report,
    optimal_density,
    sweep_energy_fixed_all,
    sweep_fixed_density,
    sweep_fixed_pernode_energy,
    sweep_infinite_density,
    sweep_spacing,
    total_energy,
)


def brute_force_hops(n):
    c = n // 2
    return sum(abs(i - c) + abs(j - c) for i in range(n) for j in range(n))


BASE = NetworkConfig(n=33, dn=1.0, es=1.0, e0=1.0, nu=2.0, alpha=1.0, beta=10.0)


class TestEnergy:
    @pytest.mark.parametrize("n,expect", [(1, 0), (2, 4), (3, 12)])
    def test_hop_sum_small(self, n, expect):
        assert hop_sum(n) == expect

    @pytest.mark.parametrize("n", [4, 5, 10, 17, 32, 64])
    def test_hop_sum_matches_enumeration(self, n):
        assert hop_sum(n) == brute_force_hops(n)

    def test_hop_sum_closed_matches_odd(self):
        assert hop_sum_closed(5.0) == hop_sum(5)

    def test_total_energy_examples(self):
        assert total_energy(NetworkConfig(n=2, dn=1.0, es=0.0, e0=1.0, nu=2.0,
                                          alpha=1.0, beta=1.0)) == 4.0
        assert total_energy(NetworkConfig(n=3, dn=1.0, es=1.0, e0=1e-300, nu=2.0,
                                          alpha=1.0, beta=1.0)) == pytest.approx(9.0)

    def test_communication_term_reference_point(self):
        # n = 20, dn = 0.1, e0 = 0.1, nu = 2: hop term is 0.5*20^3*0.1*0.01 = 4 J
        cfg = NetworkConfig(n=20, dn=0.1, es=0.0, e0=0.1, nu=2.0, alpha=100.0, beta=1.0)
        assert total_energy(cfg) == pytest.approx(4.0, rel=1e-12)

    def test_fusion_energy(self):
        cfg = NetworkConfig(n=10, dn=1.0, es=0.0, e0=1.0, nu=2.0, alpha=1.0,
                            beta=1.0, fusion=True)
        assert total_energy(cfg) == 100.0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            NetworkConfig(n=1, dn=1.0, es=1.0, e0=1.0, nu=2.0, alpha=1.0, beta=1.0)
        with pytest.raises(ValueError):
            NetworkConfig(n=4, dn=1.0, es=1.0, e0=1.0, nu=1.5, alpha=1.0, beta=1.0)

    @pytest.mark.parametrize("n", [33.5, math.nan, 33.0, "33"])
    def test_non_integer_side_rejected(self, n):
        with pytest.raises(ValueError, match="n must be an integer, got"):
            replace(BASE, n=n)

    def test_numpy_integer_side_accepted(self):
        assert total_energy(replace(BASE, n=np.int64(33))) == total_energy(BASE)

    @pytest.mark.parametrize("n,message", [(2.0, "n must be an integer, got 2.0"),
                                           (0, "n must be >= 1, got 0")])
    def test_hop_sum_side_checked(self, n, message):
        with pytest.raises(ValueError, match=message):
            hop_sum(n)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["dn", "es", "e0", "nu", "beta", "alpha"])
    def test_config_rejects_nonfinite(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            replace(BASE, **{field: value})

    @pytest.mark.parametrize("value", [0.0, -1.0])
    @pytest.mark.parametrize("field", ["dn", "e0", "beta", "alpha"])
    def test_config_rejects_nonpositive(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be positive, got {value!r}"):
            replace(BASE, **{field: value})


    @pytest.mark.parametrize("dn,nu", [(1e200, 2.0), (2.0, 1e5)])
    def test_config_rejects_overflowing_dn_power(self, dn, nu):
        with pytest.raises(ValueError, match=r"dn \*\* nu overflows a float") as info:
            replace(BASE, dn=dn, nu=nu)
        assert repr(dn) in str(info.value) and repr(nu) in str(info.value)

    # the hop sum is about n^3 / 2: an int side whose cube overflows a float raised a raw
    # OverflowError from the energy sums, and float(10**400) itself overflows
    @pytest.mark.parametrize("n", [10**113, 10**200, 10**400])
    def test_config_rejects_side_whose_cube_overflows(self, n):
        with pytest.raises(ValueError, match=r"^n is too large: n \*\* 3 overflows a float$"):
            replace(BASE, n=n)

    def test_largest_sides_keep_finite_energy(self):
        cfg = replace(BASE, n=10**102)  # 1e306: the cube still fits a float
        assert math.isfinite(total_energy(cfg))
        assert math.isfinite(network_report(cfg, grid=8).total_info)

    def test_tiny_dn_power_underflows_to_zero_cost(self):
        assert total_energy(replace(BASE, dn=0.5, nu=1e5, es=0.0)) == 0.0


class TestReport:
    def test_unknown_measure_rejected(self):
        with pytest.raises(ValueError, match="measure must be 'kli' or 'mi', got 'bogus'"):
            network_report(BASE, "bogus")

    @pytest.mark.parametrize("solve", [
        lambda m: sweep_fixed_density(BASE, [], m),
        lambda m: sweep_fixed_pernode_energy(BASE, [], m),
        lambda m: sweep_spacing(BASE, [], m),
        lambda m: sweep_infinite_density(4.0, [], m, 1.0, 1.0),
        lambda m: sweep_energy_fixed_all(BASE, [], m),
        lambda m: optimal_density(2.0, 50.0, 100.0, 1.0, 0.1, 2.0, m, mu_grid=[]),
    ], ids=["fixed_density", "pernode_energy", "spacing", "infinite_density", "energy", "optimal_density"])
    def test_every_solver_names_a_bad_measure_first(self, solve):
        # the measure is checked before the (here empty) list
        with pytest.raises(ValueError, match="^measure must be 'kli' or 'mi', got 'bogus'$"):
            solve("bogus")

    def test_wide_spacing_mi_closed_form(self):
        cfg = NetworkConfig(n=8, dn=50.0, es=1.0, e0=1.0, nu=2.0, alpha=1.0, beta=1.0)
        rep = network_report(cfg, "mi")
        assert rep.per_node_info == pytest.approx(0.5 * math.log(2.0), abs=1e-4)

    def test_zero_sensing_energy(self):
        cfg = NetworkConfig(n=8, dn=1.0, es=0.0, e0=1.0, nu=2.0, alpha=1.0, beta=1.0)
        rep = network_report(cfg)
        assert rep.snr == 0.0
        assert rep.total_info == 0.0

    def test_doubling_n_quadruples_info(self):
        r1 = network_report(replace(BASE, n=16))
        r2 = network_report(replace(BASE, n=32))
        assert r2.per_node_info == pytest.approx(r1.per_node_info, rel=1e-12)
        assert r2.total_info == pytest.approx(4.0 * r1.total_info, rel=1e-12)

    def test_identities(self):
        rep = network_report(BASE)
        assert rep.efficiency * rep.total_energy == pytest.approx(rep.total_info, rel=1e-12)
        assert rep.total_info == pytest.approx(rep.n**2 * rep.per_node_info, rel=1e-12)


class TestFixedDensity:
    def test_area_and_energy_exponents(self):
        sweep = sweep_fixed_density(BASE, [33, 65, 129, 257])
        assert sweep.eta_vs_area.slope == pytest.approx(-0.5, abs=0.05)
        assert sweep.info_vs_energy.slope == pytest.approx(2.0 / 3.0, abs=0.03)
        assert sweep.eta_vs_area.r2 > 0.999

    def test_fusion_restores_linear_info(self):
        sweep = sweep_fixed_density(replace(BASE, fusion=True), [33, 65, 129, 257])
        assert sweep.info_vs_energy.slope == pytest.approx(1.0, abs=0.01)


class TestPernodeEnergy:
    def test_minus_one_third_exponent(self):
        sweep = sweep_fixed_pernode_energy(BASE, [33, 65, 129, 257])
        assert sweep.info_vs_nodes.slope == pytest.approx(-1.0 / 3.0, abs=0.05)

    def test_smallest_network_exhausts_budget(self):
        sweep = sweep_fixed_pernode_energy(BASE, [33, 65, 129])
        assert sweep.gathered_side[0] == pytest.approx(33.0, abs=1e-6)
        assert all(m < n for m, n in zip(sweep.gathered_side[1:], sweep.n_list[1:]))

    def test_fusion_keeps_per_node_information(self):
        # with fusion both the budget and the cost of a side-m sub-lattice grow
        # like m^2, so every deployment gathers all its nodes
        cfg = replace(BASE, fusion=True)
        sweep = sweep_fixed_pernode_energy(cfg, [33, 65, 129, 257])
        rate = network_report(cfg).per_node_info
        assert sweep.ebar == pytest.approx(BASE.es + BASE.e0 * BASE.dn**BASE.nu, rel=1e-15)
        for info in sweep.per_node_info:
            assert info == pytest.approx(rate, rel=1e-12)
        assert abs(sweep.info_vs_nodes.slope) < 1e-9

    def test_empty_sides_rejected(self):
        with pytest.raises(ValueError, match="sides must not be empty"):
            sweep_fixed_pernode_energy(BASE, [])

    @pytest.mark.parametrize("sides", [[9, 10**200], [10**200, 9], [9, 10**113, 17]])
    def test_side_whose_cube_overflows_is_a_config_error(self, sides):
        # only the smallest side builds a config; every side must still be checked
        with pytest.raises(ValueError, match=r"^n is too large: n \*\* 3 overflows a float$"):
            sweep_fixed_pernode_energy(BASE, sides, grid=8)

    def test_side_below_two_is_a_config_error(self):
        with pytest.raises(ValueError, match="n must be >= 2, got 1"):
            sweep_fixed_pernode_energy(BASE, [1, 33])


class TestSpacing:
    def test_wide_spacing_reaches_limit(self):
        sweep = sweep_spacing(BASE, [40.0, 50.0])
        assert abs(sweep.limit - sweep.rates[-1]) < 1e-6

    def test_rate_nondecreasing_at_high_snr(self):
        sweep = sweep_spacing(BASE, list(np.linspace(0.5, 10.0, 16)))
        assert all(b >= a - 1e-12 for a, b in zip(sweep.rates, sweep.rates[1:]))

    def test_gap_decay_rate(self):
        # the gap to the limit decays like rho^2 ~ dn exp(-2 alpha dn), so the
        # sqrt(dn) e^{-alpha dn} regression slope estimates 2 alpha (the
        # first-order term in zeta integrates to zero over the spectrum)
        sweep = sweep_spacing(BASE, list(np.linspace(3.0, 8.0, 11)))
        assert sweep.alpha_estimate == pytest.approx(2.0 * BASE.alpha, rel=0.05)
        assert sweep.gap_fit.r2 > 0.999

    @pytest.mark.xfail(
        strict=True,
        reason="the per-node rate has zero slope in zeta at zeta = 0, so the "
               "gap closes like rho^2 and the regression recovers 2*alpha, "
               "not alpha",
    )
    def test_gap_fit_recovers_alpha(self):
        sweep = sweep_spacing(BASE, list(np.linspace(3.0, 8.0, 11)))
        assert sweep.alpha_estimate == pytest.approx(BASE.alpha, rel=0.1)

    @pytest.mark.parametrize("dn,message", [
        (0.0, "spacing must be positive, got 0.0"),
        (-1.0, "spacing must be positive, got -1.0"),
        (math.nan, "spacing must be finite, got nan"),
        (math.inf, "spacing must be finite, got inf"),
    ])
    def test_bad_spacing_rejected(self, dn, message):
        with pytest.raises(ValueError, match=message):
            sweep_spacing(BASE, [1.0, dn])

    def test_empty_spacings_rejected(self):
        with pytest.raises(ValueError, match="spacings must not be empty"):
            sweep_spacing(BASE, [])

    @pytest.mark.filterwarnings("error")
    def test_repeated_spacing_gives_no_fit(self):
        sweep = sweep_spacing(BASE, [1.0, 1.0])
        assert math.isnan(sweep.gap_fit.slope) and math.isnan(sweep.alpha_estimate)


class TestInfiniteDensity:
    def test_products_increase_but_rate_decays(self):
        sweep = sweep_infinite_density(4.0, list(np.logspace(-1, 1, 12)), "kli", 1.0, 1.0)
        assert all(b < a for a, b in zip(sweep.rates[3:], sweep.rates[4:]))

    @pytest.mark.xfail(
        strict=True,
        reason="mu * rate drifts logarithmically (the physical correlation has "
               "a dn^2 log(1/dn) flat top, and the zeta -> rate map is "
               "exponentially degenerate at full correlation), so no 5% "
               "plateau exists at any reachable density",
    )
    def test_plateau(self):
        sweep = sweep_infinite_density(4.0, list(np.logspace(-1, 1, 12)), "kli", 1.0, 1.0)
        assert sweep.plateau_variation < 0.05

    @pytest.mark.xfail(
        strict=True,
        reason="same logarithmic drift: quartering the density changes the "
               "rate by a factor visibly above 1/4 at any density where the "
               "edge dependence is still numerically resolvable",
    )
    def test_halving_spacing_quarters_rate(self):
        sweep = sweep_infinite_density(4.0, [0.5, 2.0, 8.0], "kli", 1.0, 1.0)
        ratio = sweep.rates[-1] / sweep.rates[-2]
        assert ratio == pytest.approx(0.25, rel=0.1)

    @pytest.mark.parametrize("side", [math.nan, math.inf])
    def test_nonfinite_side_rejected(self, side):
        with pytest.raises(ValueError, match="L must be finite"):
            sweep_infinite_density(side, [1.0, 2.0], "kli", 1.0, 1.0)

    @pytest.mark.parametrize("mu", [0.0, math.nan, math.inf])
    def test_bad_density_rejected(self, mu):
        with pytest.raises(ValueError, match="densities must be finite and positive"):
            sweep_infinite_density(4.0, [1.0, mu], "kli", 1.0, 1.0)

    def test_empty_densities_rejected(self):
        with pytest.raises(ValueError, match="densities must not be empty"):
            sweep_infinite_density(4.0, [], "kli", 1.0, 1.0)

    def test_fewer_than_one_node_rejected(self):
        # side 2: density 1/4 puts exactly one node on the area, the next float below it none
        assert sweep_infinite_density(2.0, [1.0, 0.25], "kli", 1.0, 1.0, grid=16).mu_list[0] == 0.25
        below = math.nextafter(0.25, 0.0)
        with pytest.raises(ValueError, match=f"^density {below!r} puts fewer than one node "
                                             r"on an area of side L = 2\.0$"):
            sweep_infinite_density(2.0, [1.0, below], "kli", 1.0, 1.0, grid=16)

    def test_huge_side_only_bounds_the_node_check(self):
        # mu * L * L overflows to inf, which is not below one node; L enters nothing else
        huge = sweep_infinite_density(1e200, [0.1, 1.0, 10.0], "kli", 1.0, 1.0, grid=8)
        assert huge == sweep_infinite_density(4.0, [0.1, 1.0, 10.0], "kli", 1.0, 1.0, grid=8)

    def test_mi_products_also_drift_up(self):
        sweep = sweep_infinite_density(4.0, list(np.logspace(-1, 1, 10)), "mi", 1.0, 1.0)
        assert all(b > a for a, b in zip(sweep.per_area_info, sweep.per_area_info[1:]))


class TestEnergySweep:
    CFG = NetworkConfig(n=21, dn=0.1, es=1.0, e0=0.1, nu=2.0, alpha=100.0, beta=1.0)

    def test_infeasible_budget(self):
        floor = hop_sum(21) * 0.1 * 0.01
        with pytest.raises(InfeasibleEnergyError):
            sweep_energy_fixed_all(self.CFG, [0.9 * floor])

    @pytest.mark.parametrize("et", [math.nan, math.inf])
    def test_nonfinite_budget_rejected(self, et):
        with pytest.raises(ValueError, match="et must be finite"):
            sweep_energy_fixed_all(self.CFG, [1e4, et])

    def test_empty_budgets_rejected(self):
        with pytest.raises(ValueError, match="budgets must not be empty"):
            sweep_energy_fixed_all(self.CFG, [])

    def test_fusion_floor_is_one_link_per_node(self):
        # fusion: 21^2 links cost 0.441 J; minimum-hop routing would cost
        # hop_sum(21) * 1e-3 = 4.62 J, above this 1 J budget
        cfg = replace(self.CFG, fusion=True)
        sweep = sweep_energy_fixed_all(cfg, [1.0])
        es = (1.0 - 21**2 * 0.1 * 0.01) / 21**2
        expect = network_report(replace(cfg, es=es)).total_info
        assert sweep.total_info[0] == pytest.approx(expect, rel=1e-12)
        with pytest.raises(InfeasibleEnergyError, match="floor 0.441 J"):
            sweep_energy_fixed_all(cfg, [0.4])

    def test_log_linear_growth(self):
        sweep = sweep_energy_fixed_all(self.CFG, [1e4, 1e5, 1e6, 1e7, 1e8])
        inc = sweep.increments
        for a, b in zip(inc, inc[1:]):
            assert b / a == pytest.approx(1.0, abs=0.1)

    def test_area_growth_beats_sensing_growth(self):
        # at a matched budget, spending on coverage (fixed density) must beat
        # spending on sensing quality (fixed coverage)
        fixed_area = sweep_energy_fixed_all(self.CFG, [1e6], "kli")
        grown = sweep_fixed_density(BASE, [33, 65, 129, 257])
        budgets = [r.total_energy for r in grown.reports]
        infos = [r.total_info for r in grown.reports]
        interp = np.interp(math.log(1e6), np.log(budgets), np.log(infos))
        assert math.exp(interp) > fixed_area.total_info[0]


class TestOptimalDensity:
    ARGS = dict(L=2.0, et=50.0, alpha=100.0, beta=1.0, e0=0.1, nu=2.0)

    def test_bad_measure_named_even_when_no_density_is_feasible(self):
        args = dict(self.ARGS, et=1e-9)
        with pytest.raises(InfeasibleEnergyError):
            optimal_density(**args, grid=8)
        with pytest.raises(ValueError, match="^measure must be 'kli' or 'mi', got 'bogus'$"):
            optimal_density(**args, measure="bogus", grid=8)

    def test_interior_maximum(self):
        res = optimal_density(**self.ARGS, mu_grid=np.logspace(0, 4, 201))
        assert res.info_star > res.total_info[0]
        assert res.info_star > res.total_info[-1]
        assert res.local_maxima

    def test_grid_refinement_stability(self):
        coarse = optimal_density(**self.ARGS, mu_grid=np.logspace(0, 4, 201))
        fine = optimal_density(**self.ARGS, mu_grid=np.logspace(0, 4, 401))
        assert coarse.mu_star == pytest.approx(fine.mu_star, rel=0.02)

    def test_never_below_best_grid_value(self):
        # this budget puts a grid point above the golden-section midpoint
        args = dict(self.ARGS, et=52.029905688678994)
        res = optimal_density(**args, mu_grid=np.logspace(0, 4, 201))
        assert res.info_star >= max(res.total_info)

    def test_all_infeasible(self):
        with pytest.raises(InfeasibleEnergyError):
            optimal_density(L=2.0, et=1e-6, alpha=100.0, beta=1.0, e0=0.1, nu=2.0,
                            mu_grid=np.logspace(2, 4, 20))

    def test_overflowing_energy_is_infeasible(self):
        # n = L sqrt(mu) = 1e200: the hop count overflows, and so would n**2
        with pytest.raises(InfeasibleEnergyError):
            optimal_density(**dict(self.ARGS, L=1e200), mu_grid=[1.0, 10.0, 100.0])

    def test_overflowing_dn_power_is_infeasible(self):
        # dn = 1/sqrt(mu) is 10 at mu = 0.01, and 10**1e5 overflows; at dn < 1 it underflows to 0
        res = optimal_density(**dict(self.ARGS, L=1e3, nu=1e5), mu_grid=[0.01, 100.0, 1e4])
        assert res.mu_list == (100.0, 1e4)

    @pytest.mark.parametrize("name,value,message", [
        ("L", math.nan, "L must be finite"),
        ("L", 0.0, "L must be positive"),
        ("et", math.inf, "et must be finite"),
        ("et", -1.0, "et must be positive"),
        ("e0", 0.0, "e0 must be positive"),
        ("beta", -math.inf, "beta must be finite"),
        ("nu", -math.inf, "nu must be finite"),
        ("nu", 1.5, "nu must be >= 2"),
    ])
    def test_inputs_validated(self, name, value, message):
        with pytest.raises(ValueError, match=message):
            optimal_density(**dict(self.ARGS, **{name: value}), mu_grid=[1.0, 10.0, 100.0])

    @pytest.mark.parametrize("mu", [-1.0, math.nan, math.inf])
    def test_bad_density_rejected(self, mu):
        with pytest.raises(ValueError, match="densities must be finite and positive"):
            optimal_density(**self.ARGS, mu_grid=[1.0, mu])

    def test_empty_densities_rejected(self):
        with pytest.raises(ValueError, match="densities must not be empty"):
            optimal_density(**self.ARGS, mu_grid=[])

    def test_kli_tail_inverse_density(self):
        mus = np.logspace(math.log10(50), math.log10(2000), 20)
        res = optimal_density(**self.ARGS, measure="kli", mu_grid=mus)
        fit = fit_loglog(res.mu_list, res.total_info, drop_smallest=0.0)
        assert fit.slope == pytest.approx(-1.0, abs=0.15)

    def test_mi_tail_flat(self):
        mus = np.logspace(math.log10(50), math.log10(2000), 20)
        res = optimal_density(**self.ARGS, measure="mi", mu_grid=mus)
        fit = fit_loglog(res.mu_list, res.total_info, drop_smallest=0.0)
        assert abs(fit.slope) < 0.3


class TestFitLoglog:
    def test_recovers_power_law(self):
        x = np.logspace(0, 3, 12)
        y = 2.5 * x**-0.75
        fit = fit_loglog(x, y)
        assert fit.slope == pytest.approx(-0.75, rel=1e-12)
        assert fit.r2 == pytest.approx(1.0)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            fit_loglog([1.0, 2.0], [1.0, -1.0])

    @pytest.mark.parametrize("drop", [-0.5, 1.0, 1.5, math.nan, math.inf])
    def test_rejects_a_drop_share_outside_zero_to_one(self, drop):
        with pytest.raises(ValueError, match=rf"^drop_smallest must lie in \[0, 1\), got {drop!r}$"):
            fit_loglog([1.0, 2.0, 4.0, 8.0], [1.0, 2.0, 4.0, 8.0], drop_smallest=drop)

    def test_drop_share_bounds(self):
        x = [1.0, 2.0, 4.0, 8.0]
        y = [1.0, 3.0, 4.0, 8.0]  # the smallest point is off the line
        assert fit_loglog(x, y, drop_smallest=0.0).r2 < 1.0
        assert fit_loglog(x, y, drop_smallest=0.5).slope == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("x,y", [([1.0, 2.0, 4.0, 8.0], [1.0, 2.0, math.nan, 8.0]),
                                     ([1.0, 2.0, 4.0, math.inf], [1.0, 2.0, 4.0, 8.0])])
    def test_rejects_nonfinite(self, capfd, x, y):
        with pytest.raises(ValueError, match="^log-log fit requires finite data$"):
            fit_loglog(x, y)
        assert capfd.readouterr().err == ""

    @pytest.mark.filterwarnings("error")
    def test_rejects_repeated_x(self):
        with pytest.raises(ValueError, match="not enough distinct points left to fit"):
            fit_loglog([1.0, 2.0, 2.0, 2.0], [1.0, 2.0, 3.0, 4.0])

    @pytest.mark.filterwarnings("error")
    def test_repeated_side_is_not_a_fit(self):
        with pytest.raises(ValueError, match="not enough distinct points left to fit"):
            sweep_fixed_density(BASE, [33, 33])
