"""Ad hoc sensor-network model on the square lattice: energy accounting under
minimum-hop routing to a central fusion center, total gathered information,
energy efficiency, the coverage/density/energy scaling experiments, and the
optimal-density search under a total energy budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .corrmap import PhysicalField, zeta_from_spacing
from .inforates import kli_rate_sfcar, mi_rate_sfcar, stein_kli
from ._util import (bisect, check_at_least, check_finite, check_integer, check_positive, golden_section_max,
                    sorted_points)

__all__ = [
    "InfeasibleEnergyError",
    "NetworkConfig",
    "NetworkReport",
    "FitResult",
    "hop_sum",
    "hop_sum_closed",
    "total_energy",
    "network_report",
    "fit_loglog",
    "sweep_fixed_density",
    "sweep_fixed_pernode_energy",
    "sweep_spacing",
    "sweep_infinite_density",
    "sweep_energy_fixed_all",
    "optimal_density",
    "FixedDensitySweep",
    "PernodeEnergySweep",
    "SpacingSweep",
    "DensitySweep",
    "EnergySweep",
    "DensityOptimum",
]

# optimal_density: relative golden-section bracket width at which the refinement stops
_DENSITY_REL_TOL = 1e-4


class InfeasibleEnergyError(ValueError):
    """The energy budget cannot cover the required communication energy."""


def _check_side(n: int) -> None:
    """ValueError naming n unless it is an integer >= 2 whose cube, the order of the hop
    sum, is a finite float."""
    check_integer(2, n=n)
    try:
        float(n) ** 3
    except OverflowError:
        raise ValueError("n is too large: n ** 3 overflows a float") from None


@dataclass(frozen=True)
class NetworkConfig:
    """Lattice sensor network: n^2 nodes with spacing dn [m], sensing energy
    es [J/node], radio constant e0 [J/m^nu], propagation loss nu >= 2,
    diffusion rate alpha [1/m], and SNR-per-joule gain beta (SNR = beta * es).

    ``fusion=True`` switches to the in-network aggregation energy model where
    every node transmits exactly once (communication = n^2 links).
    """

    n: int
    dn: float
    es: float
    e0: float
    nu: float
    alpha: float
    beta: float
    fusion: bool = False

    def __post_init__(self):
        _check_side(self.n)
        check_positive(dn=self.dn, e0=self.e0, beta=self.beta)
        check_at_least(0, es=self.es)
        check_at_least(2, nu=self.nu)
        PhysicalField(self.alpha)  # validates alpha
        try:
            self.dn**self.nu
        except OverflowError:
            raise ValueError(f"dn ** nu overflows a float (dn={self.dn!r}, nu={self.nu!r})") from None


@dataclass(frozen=True)
class NetworkReport:
    """One network operating point: information, energy, and their ratio."""

    n: int
    dn: float
    snr: float
    zeta: float
    per_node_info: float
    total_info: float
    total_energy: float
    efficiency: float


@dataclass(frozen=True)
class FitResult:
    slope: float
    intercept: float
    r2: float


def hop_sum(n: int) -> int:
    """Total hop count sum_{ij} |i - floor(n/2)| + |j - floor(n/2)|:
    n(n-1)(n+1)/2 for odd n and n^3/2 for even n.
    """
    check_integer(1, n=n)
    return n * (n - 1) * (n + 1) // 2 if n % 2 else n**3 // 2


def hop_sum_closed(n: float) -> float:
    """Odd-n closed form n(n-1)(n+1)/2 extended to non-integer n.

    Used by the density optimization, where n = L*sqrt(mu) is deliberately
    not rounded to an integer.
    """
    return 0.5 * n * (n - 1.0) * (n + 1.0)


def _lattice_energy(cfg: NetworkConfig, side: float, hops: Callable[[float], float]) -> float:
    """Sensing plus routing energy side^2 es + links * e0 * dn^nu [J] of a side x side
    lattice at cfg's settings; links = side^2 with fusion, else hops(side)."""
    links = side**2 if cfg.fusion else hops(side)
    return side**2 * cfg.es + links * cfg.e0 * cfg.dn**cfg.nu


def total_energy(cfg: NetworkConfig) -> float:
    """Total sensing plus routing energy of the n x n network [J] (see _lattice_energy)."""
    return _lattice_energy(cfg, cfg.n, hop_sum)


def _check_measure(measure: str) -> None:
    if measure not in ("kli", "mi"):
        raise ValueError(f"measure must be 'kli' or 'mi', got {measure!r}")


def _check_density(mu: float) -> None:
    if not (math.isfinite(mu) and mu > 0.0):
        raise ValueError("densities must be finite and positive")


def _rate(measure: str, snr: float, zeta: float) -> float:
    """Per-node rate of ``measure``, its kernel looked up by name at each call (a tracer rebinds it)."""
    return (kli_rate_sfcar if measure == "kli" else mi_rate_sfcar)(snr, zeta)


def _operating_point(snr: float, alpha: float, dn: float, measure: str) -> tuple[float, float]:
    """(zeta, per-node rate) of sensors at spacing dn in a field of diffusion rate alpha."""
    zeta = zeta_from_spacing(PhysicalField(alpha), dn)
    return zeta, _rate(measure, snr, zeta)


def _report(cfg: NetworkConfig, zeta: float, rate: float) -> NetworkReport:
    """The totals of configuration cfg at its operating point (zeta, per-node rate)."""
    info = cfg.n**2 * rate
    energy = total_energy(cfg)
    return NetworkReport(n=cfg.n, dn=cfg.dn, snr=cfg.beta * cfg.es, zeta=zeta, per_node_info=rate,
                         total_info=info, total_energy=energy, efficiency=info / energy)


def network_report(cfg: NetworkConfig, measure: str = "kli") -> NetworkReport:
    """Evaluate one configuration: spacing -> zeta, es -> SNR, rate -> totals."""
    _check_measure(measure)
    return _report(cfg, *_operating_point(cfg.beta * cfg.es, cfg.alpha, cfg.dn, measure))


def _ols(x: np.ndarray, y: np.ndarray) -> FitResult:
    if len(set(x.tolist())) < 2:
        raise ValueError("not enough distinct points left to fit")
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid**2)) / ss_tot if ss_tot > 0 else 1.0
    return FitResult(slope=float(slope), intercept=float(intercept), r2=r2)


def fit_loglog(x: Sequence[float], y: Sequence[float], drop_smallest: float = 0.25) -> FitResult:
    """OLS slope of log y vs log x, discarding the share drop_smallest of smallest-x points.

    The scaling laws are asymptotic; the smallest sweep points are
    pre-asymptotic transients that bias the fitted exponent.
    """
    if not 0.0 <= drop_smallest < 1.0:
        raise ValueError(f"drop_smallest must lie in [0, 1), got {drop_smallest!r}")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise ValueError("log-log fit requires finite data")
    if np.any(x <= 0) or np.any(y <= 0):
        raise ValueError("log-log fit requires positive data")
    order = np.argsort(x)
    keep = order[int(len(x) * drop_smallest):]
    return _ols(np.log(x[keep]), np.log(y[keep]))


@dataclass(frozen=True)
class FixedDensitySweep:
    reports: tuple[NetworkReport, ...]
    eta_vs_area: FitResult       # expect slope -1/2
    info_vs_energy: FitResult    # expect slope 2/3 (1 with in-network fusion)


def sweep_fixed_density(cfg: NetworkConfig, n_list: Sequence[int], measure: str = "kli") -> FixedDensitySweep:
    """Grow the coverage area at fixed spacing and sensing energy.

    Fits log(efficiency) against log(area) and log(total info) against
    log(total energy) over the retained (largest) points.
    """
    _check_measure(measure)
    sides = sorted_points(n_list, "sides", _check_side)
    # every side shares the spacing and SNR, so one operating point serves them all
    point = _operating_point(cfg.beta * cfg.es, cfg.alpha, cfg.dn, measure)
    reports = tuple(_report(replace(cfg, n=n), *point) for n in sides)
    area = [r.n**2 * r.dn**2 for r in reports]
    return FixedDensitySweep(
        reports=reports,
        eta_vs_area=fit_loglog(area, [r.efficiency for r in reports]),
        info_vs_energy=fit_loglog([r.total_energy for r in reports], [r.total_info for r in reports]),
    )


@dataclass(frozen=True)
class PernodeEnergySweep:
    n_list: tuple[int, ...]
    gathered_side: tuple[float, ...]   # side m of the sub-lattice the budget can gather
    per_node_info: tuple[float, ...]
    ebar: float
    info_vs_nodes: FitResult           # expect slope -1/3


def sweep_fixed_pernode_energy(cfg: NetworkConfig, n_list: Sequence[int],
                               measure: str = "kli") -> PernodeEnergySweep:
    """Grow the network with a fixed per-node energy budget Ebar.

    Ebar is the base sensing energy plus the per-node communication share at
    the smallest n, so the smallest network exactly exhausts its budget.  A
    deployment of n^2 nodes pools n^2 * Ebar joules, which buys gathering
    from a centered sub-lattice of side m(n) <= n at the configured sensing
    energy (hop routing grows like m^3, the pool like n^2; fusion gives m = n).
    The per-node information of the deployment is m^2 * rate / n^2; its
    exponent in the node count N = n^2 is the quantity of interest.
    """
    _check_measure(measure)
    n_sorted = sorted_points(n_list, "sides", _check_side)
    n0 = n_sorted[0]
    ebar = cfg.es + total_energy(replace(cfg, n=n0, es=0.0)) / n0**2
    rate = network_report(cfg, measure).per_node_info

    def gathered(n: int) -> float:
        # largest (real) side m <= n whose sub-lattice energy fits the pool n^2 * ebar
        def fits(m: float) -> bool:
            return _lattice_energy(cfg, m, hop_sum_closed) <= n**2 * ebar

        return float(n) if fits(float(n)) else bisect(fits, 1.0, float(n), 0.0)[0]

    sides = [gathered(n) for n in n_sorted]
    per_node = [m**2 * rate / n**2 for m, n in zip(sides, n_sorted)]
    return PernodeEnergySweep(n_list=tuple(n_sorted), gathered_side=tuple(sides),
                              per_node_info=tuple(per_node), ebar=ebar,
                              info_vs_nodes=fit_loglog([n**2 for n in n_sorted], per_node))


@dataclass(frozen=True)
class SpacingSweep:
    dn_list: tuple[float, ...]
    rates: tuple[float, ...]
    limit: float                 # decorrelated per-node information D
    gap_fit: FitResult           # slope of log((D - rate)/sqrt(dn)) vs dn
    alpha_estimate: float        # -slope, expect alpha


def sweep_spacing(cfg: NetworkConfig, dn_list: Sequence[float], measure: str = "kli") -> SpacingSweep:
    """Per-node information versus sensor spacing at fixed SNR.

    The gap to the decorrelated limit D closes like sqrt(dn) exp(-alpha dn),
    so the slope of log(gap/sqrt(dn)) against dn estimates -alpha.
    """
    _check_measure(measure)
    snr = cfg.beta * cfg.es
    limit = stein_kli(snr) if measure == "kli" else 0.5 * math.log1p(snr)
    dns = sorted_points(dn_list, "spacings", lambda d: check_positive(spacing=float(d)))
    rates = [_operating_point(snr, cfg.alpha, d, measure)[1] for d in dns]
    # (dn, log(gap / sqrt(dn))) wherever the gap to the limit is positive
    kept = [(d, math.log((limit - r) / math.sqrt(d))) for d, r in zip(dns, rates) if limit - r > 0.0]
    if len({d for d, _ in kept}) >= 2:
        fit = _ols(*np.array(kept, dtype=float).T)
    else:
        # one spacing only, or spacings so large the gap is below roundoff at all but one
        fit = FitResult(slope=math.nan, intercept=math.nan, r2=math.nan)
    return SpacingSweep(dn_list=tuple(dns), rates=tuple(rates), limit=limit, gap_fit=fit,
                        alpha_estimate=-fit.slope)


@dataclass(frozen=True)
class DensitySweep:
    mu_list: tuple[float, ...]
    rates: tuple[float, ...]
    per_area_info: tuple[float, ...]   # mu * rate
    plateau_variation: float           # (max-min)/mean over the top density decade


def sweep_infinite_density(L: float, mu_list: Sequence[float], measure: str, snr: float,
                           alpha: float) -> DensitySweep:
    """Per-node information versus node density mu >= 1/L^2 on a fixed L x L area at fixed SNR."""
    _check_measure(measure)
    check_positive(L=L, alpha=alpha)
    mus = sorted_points(mu_list, "densities", _check_density)
    if float(mus[0]) * L * L < 1.0:  # L * L overflows to inf where L**2 would raise
        raise ValueError(f"density {float(mus[0])!r} puts fewer than one node on an area of side L = {L!r}")
    rates = [_operating_point(snr, alpha, 1.0 / math.sqrt(mu), measure)[1] for mu in mus]
    products = [mu * r for mu, r in zip(mus, rates)]
    top = [p for mu, p in zip(mus, products) if mu >= mus[-1] / 10.0]
    mean_top = sum(top) / len(top)
    variation = (max(top) - min(top)) / mean_top if mean_top > 0 else math.inf
    return DensitySweep(mu_list=tuple(mus), rates=tuple(rates), per_area_info=tuple(products),
                        plateau_variation=variation)


@dataclass(frozen=True)
class EnergySweep:
    et_list: tuple[float, ...]
    total_info: tuple[float, ...]
    increments: tuple[float, ...]      # total-info gain per successive budget step


def sweep_energy_fixed_all(cfg: NetworkConfig, et_list: Sequence[float], measure: str = "kli") -> EnergySweep:
    """Total information versus total energy at fixed n, dn.

    All excess energy above the fixed communication cost goes to sensing.
    Raises InfeasibleEnergyError if any budget is below the communication
    floor.
    """
    _check_measure(measure)
    ets = sorted_points(et_list, "budgets", lambda et: check_finite(et=et))
    comm = total_energy(replace(cfg, es=0.0))
    if ets[0] <= comm:
        raise InfeasibleEnergyError(
            f"total energy {ets[0]:.6g} J is below the communication floor {comm:.6g} J"
        )
    zeta = zeta_from_spacing(PhysicalField(cfg.alpha), cfg.dn)  # one spacing for every budget
    infos = [cfg.n**2 * _rate(measure, cfg.beta * ((et - comm) / cfg.n**2), zeta) for et in ets]
    increments = tuple(b - a for a, b in zip(infos, infos[1:]))
    return EnergySweep(et_list=tuple(ets), total_info=tuple(infos), increments=increments)


@dataclass(frozen=True)
class DensityOptimum:
    mu_star: float
    info_star: float
    mu_list: tuple[float, ...]          # feasible grid densities
    total_info: tuple[float, ...]
    local_maxima: tuple[tuple[float, float], ...]


def optimal_density(
    L: float,
    et: float,
    alpha: float,
    beta: float,
    e0: float,
    nu: float,
    measure: str = "kli",
    mu_grid: Sequence[float] | None = None,
) -> DensityOptimum:
    """Density maximizing total information on an L x L area under budget et.

    For each density mu: n = L*sqrt(mu) with no integer rounding, dn = L/n,
    communication energy from the odd-n closed form, sensing energy from the
    budget at equality, SNR = beta * es, and total information = n^2 times
    the per-node rate.  Densities with negative sensing energy are excluded.
    The best grid point is refined by golden-section search and kept unless
    the refined point is higher by more than 1e-14 relative; interior local
    maxima of the grid curve are reported alongside.
    """
    _check_measure(measure)
    check_positive(L=L, et=et, beta=beta, e0=e0)
    check_at_least(2, nu=nu)
    check_positive(alpha=alpha)
    mus = np.asarray(sorted_points(np.logspace(-1, 4, 201) if mu_grid is None else mu_grid,
                                   "densities", _check_density), dtype=float)

    def evaluate(mu: float) -> float:
        n = L * math.sqrt(mu)
        if n < 1.0:
            return -math.inf  # below a single node the hop model is meaningless
        dn = L / n
        try:
            comm = hop_sum_closed(n) * e0 * dn**nu
        except OverflowError:  # dn**nu: the communication energy is not finite
            return -math.inf
        if not math.isfinite(comm):  # checked first: n**2 overflows only where comm does
            return -math.inf
        es = (et - comm) / n**2
        if not es > 0.0:
            return -math.inf
        return n**2 * _operating_point(beta * es, alpha, dn, measure)[1]

    infos = np.array([evaluate(mu) for mu in mus])
    feasible = np.isfinite(infos)
    if not feasible.any():
        raise InfeasibleEnergyError("no density satisfies the energy constraint")
    mus_f, infos_f = mus[feasible], infos[feasible]

    maxima = tuple((float(mus_f[i]), float(infos_f[i])) for i in range(1, len(mus_f) - 1)
                   if infos_f[i] > infos_f[i - 1] and infos_f[i] >= infos_f[i + 1])

    mu_star, info_star = golden_section_max(evaluate, mus_f, infos_f, rel_tol=_DENSITY_REL_TOL)
    return DensityOptimum(
        mu_star=mu_star,
        info_star=info_star,
        mu_list=tuple(float(m) for m in mus_f),
        total_info=tuple(float(v) for v in infos_f),
        local_maxima=maxima,
    )
