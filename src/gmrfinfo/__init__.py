"""Asymptotic information rates of hidden Gauss-Markov random fields on
lattices, with Monte Carlo verification of the almost-sure limits and the
coverage/density/energy scaling laws of lattice sensor networks.
"""

__version__ = "0.1.0"

from .specfun import bessel_k1, elliptic_e, elliptic_k
from .spectra import (
    CarModel,
    InvalidModelError,
    SfcarModel,
    SingularModelError,
    SingularSpectrumError,
    SpectralDensity,
    autocovariance,
    autocovariance_grid,
    car_spectrum,
    constant_spectrum,
    hidden_spectrum,
    measurement_snr,
    sfcar_for_snr,
    sfcar_spectrum,
    signal_power,
)
from .inforates import (
    InfoRateResult,
    LowSnrConstants,
    kli_rate_general,
    kli_rate_sfcar,
    low_snr_constants,
    mi_rate_general,
    mi_rate_sfcar,
    optimal_zeta,
    sfcar_info_rates,
    stein_kli,
)
from .corrmap import (
    PhysicalField,
    rho_from_spacing,
    rho_from_zeta,
    zeta_from_rho,
    zeta_from_spacing,
)
from .gmrf_mc import (
    CirculantSpectrum,
    McReport,
    NonpositiveEigenvalueError,
    QuadformCheck,
    circulant_eigs,
    llr_per_node,
    logdet_convergence,
    mc_kli_estimate,
    quadform_limit_check,
    sample_field,
    toeplitz_circulant_gap,
)
from .network import (
    InfeasibleEnergyError,
    NetworkConfig,
    NetworkReport,
    hop_sum,
    network_report,
    optimal_density,
    sweep_energy_fixed_all,
    sweep_fixed_density,
    sweep_fixed_pernode_energy,
    sweep_infinite_density,
    sweep_spacing,
    total_energy,
)
