"""Spectral densities, autocovariances, power, and SNR of the lattice models."""

import math
import warnings

import numpy as np
import pytest

from gmrfinfo import spectra
from gmrfinfo.gmrf_mc import circulant_eigs
from gmrfinfo.specfun import elliptic_k
from gmrfinfo.spectra import (
    TWO_PI,
    CarModel,
    InvalidModelError,
    SfcarModel,
    SingularModelError,
    SingularSpectrumError,
    SpectralDensity,
    _sample_grid,
    autocovariance,
    autocovariance_grid,
    car_spectrum,
    constant_spectrum,
    hidden_spectrum,
    measurement_snr,
    omega_grid,
    sfcar_for_snr,
    sfcar_spectrum,
    signal_power,
)

FOUR_PI2 = 4.0 * math.pi**2


class TestModels:
    def test_sfcar_validation(self):
        SfcarModel(kappa=1.0, zeta=0.25)
        with pytest.raises(InvalidModelError):
            SfcarModel(kappa=0.0, zeta=0.1)
        with pytest.raises(InvalidModelError):
            SfcarModel(kappa=1.0, zeta=0.26)
        with pytest.raises(InvalidModelError):
            SfcarModel(kappa=1.0, zeta=-0.01)

    def test_car_validation(self):
        with pytest.raises(InvalidModelError):
            CarModel({(1, 0): -0.2})  # no theta00
        with pytest.raises(InvalidModelError):
            CarModel({(0, 0): 1.0, (1, 0): -0.2})  # asymmetric
        with pytest.raises(InvalidModelError):
            car_spectrum(CarModel({(0, 0): 1.0, (1, 0): -0.3, (-1, 0): -0.3,
                                   (0, 1): -0.3, (0, -1): -0.3}))  # not positive


def sfcar_as_car(zeta):
    return CarModel({(0, 0): 1.0, (1, 0): -zeta, (-1, 0): -zeta, (0, 1): -zeta, (0, -1): -zeta})


def certifying_grid(monkeypatch, model):
    """car_spectrum(model) and the side of the largest grid it sampled."""
    sides = []

    def spy(evaluator, dim, nodes):
        sides.append(len(nodes))
        return _sample_grid(evaluator, dim, nodes)

    monkeypatch.setattr(spectra, "_sample_grid", spy)
    return car_spectrum(model), max(sides, default=None)


class TestCarPositivity:
    # offset 129 aliases offset 1 on a 128-point grid, where the two cosine terms cancel
    ALIASED = CarModel({(0, 0): 1.0, (129, 0): 0.3, (-129, 0): 0.3, (1, 0): -0.3, (-1, 0): -0.3})

    def test_aliased_model_rejected(self, monkeypatch):
        w = omega_grid(128)
        assert np.all(1.0 + 0.6 * np.cos(129 * w) - 0.6 * np.cos(w) > 0.0)  # blind at 128
        line = np.linspace(-math.pi, math.pi, 100_001)
        assert np.mean(1.0 + 0.6 * np.cos(129 * line) - 0.6 * np.cos(line) < 0.0) > 0.05
        with pytest.raises(InvalidModelError, match="not positive on the 1024 x 1024 grid"):
            certifying_grid(monkeypatch, self.ALIASED)

    @pytest.mark.parametrize("zeta,side", [(0.2, 128), (0.2499, 128), (0.24999, 512), (0.249999, 2048)])
    def test_near_singular_sfcar_certified(self, monkeypatch, zeta, side):
        spec, sampled = certifying_grid(monkeypatch, sfcar_as_car(zeta))
        assert sampled == side
        assert spec(np.array(0.0), np.array(0.0)) == pytest.approx(1.0 / (FOUR_PI2 * (1.0 - 4.0 * zeta)))

    def test_uncertifiable_model_rejected(self, monkeypatch):
        # positive (min 4e-7 at the origin), but too flat for the Taylor bound at 2048
        with pytest.raises(InvalidModelError, match="cannot certify .* up to 2048 x 2048"):
            certifying_grid(monkeypatch, sfcar_as_car(0.2499999))

    def test_offset_beyond_the_largest_grid_rejected_unsampled(self, monkeypatch):
        with pytest.raises(InvalidModelError, match="cannot certify"):
            certifying_grid(monkeypatch, CarModel({(0, 0): 1.0, (600, 0): 0.1, (-600, 0): 0.1}))

    @pytest.mark.parametrize("theta", [
        {(0, 0): 1.0},
        {(0, 0): 1.0, (1, 0): -0.3, (-1, 0): -0.3},
        {(0, 0): 2.0, (1, 0): -0.3, (-1, 0): -0.3, (0, 1): -0.3, (0, -1): -0.3},
        {(0, 0): 1.0, (1, 0): -0.2, (-1, 0): -0.2, (1, 1): 0.1, (-1, -1): 0.1},
    ])
    def test_common_models_certified_on_the_first_grid(self, monkeypatch, theta):
        assert certifying_grid(monkeypatch, CarModel(theta))[1] == 128


class TestCarSpectrum:
    def test_white(self):
        spec = car_spectrum(CarModel({(0, 0): 1.0}))
        w = np.linspace(-math.pi, math.pi, 7)
        assert np.allclose(spec(w, w), 1.0 / FOUR_PI2)

    def test_matches_sfcar(self):
        kappa, lam = 2.0, 0.3
        car = car_spectrum(CarModel({(0, 0): kappa, (1, 0): -lam, (-1, 0): -lam,
                                     (0, 1): -lam, (0, -1): -lam}))
        sf = sfcar_spectrum(SfcarModel(kappa=kappa, zeta=lam / kappa))
        w = np.linspace(-math.pi, math.pi, 32, endpoint=False)
        w1, w2 = np.meshgrid(w, w, indexing="ij")
        assert np.max(np.abs(car(w1, w2) - sf(w1, w2))) < 1e-14

    def test_one_dimensional_coupling_value(self):
        spec = car_spectrum(CarModel({(0, 0): 1.0, (1, 0): -0.3, (-1, 0): -0.3}))
        # at omega1 = pi the cosine flips: denominator 1 + 0.6
        for w2 in (0.0, 1.0, -2.5):
            assert spec(np.array(math.pi), np.array(w2)) == pytest.approx(1.0 / (FOUR_PI2 * 1.6))


class TestSfcarSpectrum:
    def test_iid(self):
        spec = sfcar_spectrum(SfcarModel(kappa=1.0, zeta=0.0))
        assert spec(np.array(0.3), np.array(-1.2)) == pytest.approx(1.0 / FOUR_PI2)

    def test_perfectly_correlated_corner(self):
        spec = sfcar_spectrum(SfcarModel(kappa=1.0, zeta=0.25))
        assert spec(np.array(math.pi), np.array(math.pi)) == pytest.approx(1.0 / (8.0 * math.pi**2))
        assert np.isinf(spec(np.array(0.0), np.array(0.0)))

    def test_origin_value(self):
        spec = sfcar_spectrum(SfcarModel(kappa=2.0, zeta=0.2))
        assert spec(np.array(0.0), np.array(0.0)) == pytest.approx(1.0 / (FOUR_PI2 * 2.0 * 0.2))

    def test_even_and_extremal(self):
        spec = sfcar_spectrum(SfcarModel(kappa=1.0, zeta=0.15))
        w = np.linspace(-math.pi, math.pi, 33)
        w1, w2 = np.meshgrid(w, w, indexing="ij")
        vals = spec(w1, w2)
        assert np.allclose(vals, spec(-w1, w2))
        assert np.allclose(vals, spec(w1, -w2))
        assert spec(np.array(0.0), np.array(0.0)) == vals.max()
        assert spec(np.array(math.pi), np.array(math.pi)) == vals.min()


class TestSignalPower:
    def test_iid_power(self):
        assert signal_power(SfcarModel(kappa=1.0, zeta=0.0)) == pytest.approx(1.0, rel=1e-14)

    def test_quadrature_cross_check(self):
        model = SfcarModel(kappa=1.0, zeta=0.2)
        p = signal_power(model)
        assert p == pytest.approx((2.0 / math.pi) * elliptic_k(0.8), rel=1e-14)
        quad = autocovariance(sfcar_spectrum(model), (0, 0), grid=1024)
        assert quad == pytest.approx(p, rel=1e-6)

    def test_power_scales_inverse_kappa(self):
        p1 = signal_power(SfcarModel(kappa=1.0, zeta=0.1))
        p4 = signal_power(SfcarModel(kappa=4.0, zeta=0.1))
        assert p4 == pytest.approx(p1 / 4.0, rel=1e-14)

    def test_singular(self):
        with pytest.raises(SingularModelError):
            signal_power(SfcarModel(kappa=1.0, zeta=0.25))

    def test_strictly_increasing_and_divergent(self):
        zs = np.linspace(0.0, 0.2499, 60)
        ps = [signal_power(SfcarModel(kappa=1.0, zeta=float(z))) for z in zs]
        assert all(b > a for a, b in zip(ps, ps[1:]))
        assert ps[-1] / ps[0] > 3.0


SAMPLED_SPECTRA = {
    "sfcar": sfcar_spectrum(SfcarModel(kappa=1.3, zeta=0.2)),
    "sfcar at 1/4": sfcar_spectrum(SfcarModel(kappa=1.0, zeta=0.25)),
    "car": car_spectrum(CarModel({(0, 0): 1.0, (1, 0): -0.2, (-1, 0): -0.2, (1, 1): 0.1,
                                  (-1, -1): 0.1})),
    "constant": constant_spectrum(0.7),
    "hidden": hidden_spectrum(sfcar_spectrum(sfcar_for_snr(3.0, 0.24)), 0.5),
    "one axis": SpectralDensity(lambda w1, w2: 2.0 + np.cos(w1), dim=2),
}


@pytest.mark.parametrize("name", sorted(SAMPLED_SPECTRA))
def test_grid_values_equal_mesh_sampling(name):
    spec = SAMPLED_SPECTRA[name]
    w1, w2 = np.meshgrid(omega_grid(64), omega_grid(64), indexing="ij")
    mesh = np.broadcast_to(spec.evaluator(w1, w2), (64, 64))
    assert np.array_equal(spec.grid_values(64), mesh)  # bitwise, inf sentinel included


def mesh_sampling(spec, nodes):
    """Reference: the open-axes sampling that grid_values, circulant_eigs and car_spectrum
    each carried before they shared _sample_grid."""
    axes = np.meshgrid(*[nodes] * spec.dim, indexing="ij", sparse=True)
    return np.broadcast_to(np.asarray(spec.evaluator(*axes), dtype=float), (len(nodes),) * spec.dim)


def sign_loop_autocovariance(spec, grid):
    """Reference: the inverse DFT of the -pi-based grid times a (-1)^{h1+...+hd} sign per axis."""
    tab = TWO_PI**spec.dim * np.fft.ifftn(mesh_sampling(spec, omega_grid(grid))).real
    sign = np.ones(grid)
    sign[1::2] = -1.0
    for axis in range(spec.dim):
        shape = [1] * spec.dim
        shape[axis] = grid
        tab = tab * sign.reshape(shape)
    return tab


PARITY_SPECTRA = {
    **{f"sfcar {zeta}": sfcar_spectrum(SfcarModel(kappa=1.3, zeta=zeta)) for zeta in (0.0, 0.2, 0.249, 0.25)},
    "car": SAMPLED_SPECTRA["car"],
    "constant 1-D": constant_spectrum(0.7, dim=1),
    "constant 2-D": constant_spectrum(0.7),
    "hidden": SAMPLED_SPECTRA["hidden"],
    "3-D": SpectralDensity(lambda a, b, c: 1.0 / (1.5 - 0.3 * (np.cos(a) + np.cos(b) + np.cos(c))), dim=3),
}
PARITY_CASES = [(name, grid) for name, spec in PARITY_SPECTRA.items()
                for grid in ((8, 64) if spec.dim == 3 else (7, 8, 64, 66, 512))]


@pytest.mark.parametrize("name,grid", PARITY_CASES)
def test_one_sampler_is_bitwise_the_references(name, grid):
    spec = PARITY_SPECTRA[name]
    assert np.array_equal(spec.grid_values(grid), mesh_sampling(spec, omega_grid(grid)))
    eigs = TWO_PI**spec.dim * mesh_sampling(spec, TWO_PI * np.arange(grid) / grid)
    if np.all(np.isfinite(eigs)):
        assert np.array_equal(circulant_eigs(spec, grid).eigs, eigs)
    else:
        with pytest.raises(SingularSpectrumError):
            circulant_eigs(spec, grid)
    if grid % 2 == 0 and grid >= 64:
        if np.all(np.isfinite(spec.grid_values(grid))):
            assert np.array_equal(autocovariance_grid(spec, grid), sign_loop_autocovariance(spec, grid))
        else:
            with pytest.raises(SingularSpectrumError):
                autocovariance_grid(spec, grid)


def test_sampling_the_singular_sfcar_raises_no_warning():
    spec = sfcar_spectrum(SfcarModel(kappa=1.0, zeta=0.25))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.isinf(spec.grid_values(8)[4, 4])


class TestAutocovariance:
    def test_power_identity_grid(self):
        for zeta in (0.0, 0.05, 0.1, 0.2, 0.24):
            model = SfcarModel(kappa=1.0, zeta=zeta)
            quad = autocovariance(sfcar_spectrum(model), (0, 0), grid=1024)
            assert quad == pytest.approx(signal_power(model), rel=1e-6)

    def test_neighbor_covariance_identity(self):
        # kappa*gamma00 = 1 + 4 zeta kappa gamma01
        kappa, zeta = 1.0, 0.15
        spec = sfcar_spectrum(SfcarModel(kappa=kappa, zeta=zeta))
        g00 = autocovariance(spec, (0, 0), 1024)
        g01 = autocovariance(spec, (0, 1), 1024)
        assert g01 == pytest.approx((kappa * g00 - 1.0) / (4.0 * kappa * zeta), abs=1e-5)

    def test_white_offsets_vanish(self):
        spec = constant_spectrum(1.0 / FOUR_PI2)
        assert abs(autocovariance(spec, (3, 2), 128)) < 1e-12
        assert autocovariance(spec, (0, 0), 128) == pytest.approx(1.0, rel=1e-12)

    def test_symmetry(self):
        spec = sfcar_spectrum(SfcarModel(kappa=1.0, zeta=0.18))
        for h in [(1, 0), (2, 1), (3, 3), (0, 2)]:
            neg = tuple(-x for x in h)
            assert autocovariance(spec, h, 256) == pytest.approx(
                autocovariance(spec, neg, 256), rel=1e-12)

    def test_singular_grid_rejected(self):
        spec = sfcar_spectrum(SfcarModel(kappa=1.0, zeta=0.25))
        with pytest.raises(SingularSpectrumError):
            autocovariance(spec, (0, 0), 128)

    @pytest.mark.parametrize("n", [0, -3])
    def test_empty_omega_grid_rejected(self, n):
        with pytest.raises(ValueError, match=f"grid must be >= 1, got {n}"):
            omega_grid(n)

    def test_grid_validation(self):
        spec = constant_spectrum(1.0)
        with pytest.raises(ValueError):
            autocovariance(spec, (0, 0), 32)
        with pytest.raises(ValueError):
            autocovariance(spec, (0, 0), 65)
        with pytest.raises(ValueError):
            autocovariance(spec, (0, 0, 0), 64)


class TestSnrHelpers:
    def test_measurement_snr(self):
        model = SfcarModel(kappa=1.0, zeta=0.0)
        assert measurement_snr(model, 1.0) == pytest.approx(1.0)
        assert measurement_snr(model, 0.1) == pytest.approx(10.0)
        m2 = SfcarModel(kappa=1.0, zeta=0.2)
        assert measurement_snr(m2, 2.0) == pytest.approx(signal_power(m2) / 2.0)

    def test_sfcar_for_snr_roundtrip(self):
        for snr in (0.3, 1.0, 10.0):
            for zeta in (0.0, 0.1, 0.24):
                model = sfcar_for_snr(snr, zeta, sigma2=2.0)
                assert measurement_snr(model, 2.0) == pytest.approx(snr, rel=1e-12)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_nonfinite_sigma2_rejected(self, value):
        model = SfcarModel(kappa=1.0, zeta=0.1)
        with pytest.raises(ValueError, match="sigma2 must be finite"):
            measurement_snr(model, value)
        with pytest.raises(ValueError, match="sigma2 must be finite"):
            hidden_spectrum(sfcar_spectrum(model), value)
        with pytest.raises(ValueError, match="sigma2 must be finite"):
            sfcar_for_snr(1.0, 0.1, sigma2=value)

    @pytest.mark.parametrize("value", [0.0, -1.0])
    def test_sfcar_for_snr_nonpositive_sigma2_named(self, value):
        with pytest.raises(ValueError, match=f"sigma2 must be positive, got {value!r}"):
            sfcar_for_snr(1.0, 0.1, sigma2=value)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["snr", "zeta"])
    def test_sfcar_for_snr_nonfinite_named(self, name, value):
        args = {"snr": 1.0, "zeta": 0.1, name: value}
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            sfcar_for_snr(**args)

    @pytest.mark.parametrize("zeta", [-0.1, 0.3])
    def test_sfcar_for_snr_zeta_outside_range_is_invalid(self, zeta):
        with pytest.raises(InvalidModelError, match=r"zeta must lie in \[0, 1/4\]"):
            sfcar_for_snr(1.0, zeta)

    def test_sfcar_for_snr_quarter_is_singular(self):
        with pytest.raises(SingularModelError, match="no finite-power model exists at zeta = 1/4"):
            sfcar_for_snr(1.0, 0.25)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_constant_spectrum_nonfinite_named(self, value):
        with pytest.raises(ValueError, match=f"^value must be finite, got {value!r}$"):
            constant_spectrum(value)

    def test_hidden_spectrum_offset(self):
        base = constant_spectrum(0.5, dim=2)
        hid = hidden_spectrum(base, sigma2=2.0)
        assert hid(np.array(0.1), np.array(0.2)) == pytest.approx(0.5 + 2.0 / FOUR_PI2)
