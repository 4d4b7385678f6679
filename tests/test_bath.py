"""Coupling density, discretization sum rules, and thermal occupations."""

import math
import warnings

import numpy as np
import pytest

from boson_decay import (
    DiscreteBath,
    InfiniteOccupationError,
    SpectralDensitySpec,
    ThermalSpec,
    bath_to_csv,
    discretize_bath,
    spectral_density,
    thermal_occupation,
)


class TestSpectralDensity:
    def test_plateau_value_inside_band(self):
        """2 pi J(omega_b) must equal gamma, so the plateau is gamma / (2 pi)."""
        spec = SpectralDensitySpec(gamma=math.pi, band_center=10.0, half_bandwidth=5.0)
        assert spectral_density(spec, 10.0) == pytest.approx(0.5, rel=1e-15)

    def test_outside_band_vanishes(self):
        spec = SpectralDensitySpec(gamma=math.pi, band_center=10.0, half_bandwidth=5.0)
        assert spectral_density(spec, 20.0) == 0.0

    def test_plateau_scales_with_gamma(self):
        spec = SpectralDensitySpec(gamma=2 * math.pi, band_center=0.0, half_bandwidth=1.0)
        assert spectral_density(spec, 0.5) == pytest.approx(1.0, rel=1e-15)

    def test_nonnegative_everywhere(self):
        spec = SpectralDensitySpec(gamma=0.7, band_center=3.0, half_bandwidth=1.5)
        omegas = np.linspace(-10, 10, 501)
        assert np.all(spectral_density(spec, omegas) >= 0)

    @pytest.mark.parametrize("gamma,half", [(0.0, 1.0), (-1.0, 1.0), (1.0, 0.0), (1.0, -2.0)])
    def test_rejects_nonpositive_parameters(self, gamma, half):
        with pytest.raises(ValueError):
            SpectralDensitySpec(gamma=gamma, band_center=0.0, half_bandwidth=half)


class TestDiscretizeBath:
    def test_single_mode(self):
        """One midpoint mode sits at the band center with the full band weight."""
        spec = SpectralDensitySpec(gamma=math.pi, band_center=0.0, half_bandwidth=1.0)
        bath = discretize_bath(spec, 1)
        assert bath.omegas == pytest.approx([0.0], abs=1e-15)
        assert bath.xis == pytest.approx([1.0], rel=1e-15)

    def test_two_modes(self):
        spec = SpectralDensitySpec(gamma=math.pi, band_center=0.0, half_bandwidth=1.0)
        bath = discretize_bath(spec, 2)
        assert bath.omegas == pytest.approx([-0.5, 0.5], abs=1e-15)
        assert bath.xis == pytest.approx([math.sqrt(0.5)] * 2, rel=1e-15)

    @pytest.mark.parametrize("gamma,half,n", [(1.0, 20.0, 7), (0.3, 2.0, 64), (5.0, 1.0, 501)])
    def test_sum_rule_exact(self, gamma, half, n):
        """Midpoint rule on a flat density reproduces the band integral exactly."""
        spec = SpectralDensitySpec(gamma=gamma, band_center=100.0, half_bandwidth=half)
        bath = discretize_bath(spec, n)
        expected = gamma * half / math.pi
        assert bath.coupling_sum() == pytest.approx(expected, rel=1e-12)

    def test_refinement_keeps_sum_rule_and_halves_spacing(self):
        spec = SpectralDensitySpec(gamma=2.0, band_center=50.0, half_bandwidth=10.0)
        coarse = discretize_bath(spec, 40)
        fine = discretize_bath(spec, 80)
        assert fine.coupling_sum() == pytest.approx(coarse.coupling_sum(), rel=1e-12)
        assert np.diff(fine.omegas)[0] == pytest.approx(np.diff(coarse.omegas)[0] / 2, rel=1e-12)

    def test_rejects_zero_modes(self):
        spec = SpectralDensitySpec(gamma=1.0, band_center=0.0, half_bandwidth=1.0)
        with pytest.raises(ValueError):
            discretize_bath(spec, 0)

    @pytest.mark.parametrize(
        "gamma, center, half, n",
        [(1e-300, 1.0, 1e-10, 38), (1.0, 100.0, 1e-300, 50), (1e300, 1e300, 1e300, 50)],
        ids=["subnormal-squares", "below-grid-resolution", "overflowing-couplings"],
    )
    def test_rejects_a_band_float64_cannot_grid(self, gamma, center, half, n):
        """A ValueError, without a warning, where the grid or its sum rule fails in float64."""
        spec = SpectralDensitySpec(gamma=gamma, band_center=center, half_bandwidth=half)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"{n} midpoint modes cannot resolve the band"):
                discretize_bath(spec, n)


class TestDiscreteBathValidation:
    def setup_method(self):
        self.spec = SpectralDensitySpec(gamma=1.0, band_center=0.0, half_bandwidth=2.0)

    def test_rejects_unsorted_frequencies(self):
        with pytest.raises(ValueError, match="ascending"):
            DiscreteBath(omegas=np.array([1.0, 0.0]), xis=np.array([0.1, 0.1]), spec=self.spec)

    def test_rejects_negative_couplings(self):
        with pytest.raises(ValueError, match="nonnegative"):
            DiscreteBath(omegas=np.array([0.0, 1.0]), xis=np.array([0.1, -0.1]), spec=self.spec)

    def test_rejects_out_of_band_modes(self):
        with pytest.raises(ValueError, match="band"):
            DiscreteBath(omegas=np.array([0.0, 5.0]), xis=np.array([0.1, 0.1]), spec=self.spec)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            DiscreteBath(omegas=np.array([]), xis=np.array([]), spec=self.spec)


class TestThermalOccupation:
    def test_unit_occupation(self):
        assert thermal_occupation(math.log(2.0), 1.0) == pytest.approx(1.0, rel=1e-15)

    def test_double_occupation(self):
        assert thermal_occupation(math.log(1.5), 1.0) == pytest.approx(2.0, rel=1e-14)

    def test_zero_temperature_limit(self):
        assert thermal_occupation(1e3, 1.0) < 1e-300
        assert thermal_occupation(math.inf, 1.0) == 0.0

    def test_identity_over_wide_range(self):
        """n(beta, omega) * (exp(beta omega) - 1) = 1 across the working range."""
        x = np.geomspace(1e-3, 30.0, 200)
        values = thermal_occupation(1.0, x)
        assert np.max(np.abs(values * np.expm1(x) - 1.0)) < 1e-12

    def test_monotone_in_beta(self):
        betas = np.linspace(0.1, 5.0, 50)
        occ = [thermal_occupation(b, 2.0) for b in betas]
        assert np.all(np.diff(occ) < 0)

    def test_beta_omega_rounding_to_zero_is_infinite_without_a_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert thermal_occupation(1e-323, np.array([0.1, 1.0])).tolist() == [math.inf, math.inf]

    def test_beta_zero_diverges(self):
        with pytest.raises(InfiniteOccupationError):
            thermal_occupation(0.0, 1.0)

    def test_rejects_nonpositive_frequency(self):
        with pytest.raises(ValueError):
            thermal_occupation(1.0, 0.0)

    def test_nonpositive_frequency_names_the_lowest(self):
        with pytest.raises(ValueError, match=r"above zero frequency \(lowest at -1.0\)"):
            thermal_occupation(1.0, np.array([-1.0, 2.0]))

    def test_rejects_negative_beta(self):
        with pytest.raises(ValueError):
            thermal_occupation(-0.5, 1.0)


class TestThermalSpec:
    def test_resonant_occupation_consistency(self):
        beta = math.log(2.0) / 7.0
        spec = ThermalSpec.for_system(beta, 7.0)
        assert spec.n_th == pytest.approx(1.0, rel=1e-12)
        assert spec.n_th * math.expm1(beta * 7.0) == pytest.approx(1.0, rel=1e-12)

    def test_per_mode_occupations(self):
        bath = discretize_bath(
            SpectralDensitySpec(gamma=1.0, band_center=10.0, half_bandwidth=2.0), 5
        )
        spec = ThermalSpec.for_system(0.1, 10.0)
        occ = spec.occupations(bath)
        assert occ.shape == (5,)
        assert np.all(np.diff(occ) < 0)  # higher modes are colder

    def test_rejects_negative_parameters(self):
        with pytest.raises(ValueError):
            ThermalSpec(beta=-1.0, n_th=0.0)
        with pytest.raises(ValueError):
            ThermalSpec(beta=1.0, n_th=-0.1)


class TestBathCsv:
    def test_header_and_shape(self):
        spec = SpectralDensitySpec(gamma=1.0, band_center=5.0, half_bandwidth=1.0)
        bath = discretize_bath(spec, 3)
        text = bath_to_csv(bath)
        lines = text.strip().splitlines()
        assert lines[0] == "j,omega_j,xi_j"
        assert len(lines) == 4
        j, omega, xi = lines[1].split(",")
        assert j == "0"
        assert float(omega) == pytest.approx(bath.omegas[0])
        assert float(xi) == pytest.approx(bath.xis[0])
