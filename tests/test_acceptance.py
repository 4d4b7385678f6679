"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run pytest with -s to see them all).
Time grids follow the 20-point convention used throughout the checks; the
broadband regimes were chosen once and are pinned here, not tuned per run.
"""

import math
import subprocess
import sys

import numpy as np
import pytest

from boson_decay import (
    EffectiveHamiltonian,
    ExactPropagator,
    FockSpaceOracle,
    FockState,
    CoherentState,
    SpectralDensitySpec,
    SystemMode,
    ThermalAttenuator,
    ThermalSpec,
    analytic_survival,
    coherent_decay,
    conditional_wavefunction,
    discretize_bath,
    dissipation_sum,
    fock_decay_time,
    fock_populations,
    fock_survival,
    monte_carlo_moments,
    parse_config,
    run_scenario,
    thermal_factor_closed,
)

GAMMA = 1.0
MC_SEED = 20240811


def _report(criterion: str, passed: bool, detail: str) -> None:
    print(f"{'PASS' if passed else 'FAIL'} {criterion}: {detail}")
    assert passed, f"{criterion}: {detail}"


class TestAcceptance:
    def test_01_oracle_unitarity(self, wwa_propagator):
        """Coefficient matrices are unitary to 1e-10 for N in {1, 10, 100, 2000}."""
        worst = 0.0
        times = np.linspace(0.0, 5.0, 20)
        for n_modes in (1, 10, 100):
            spec = SpectralDensitySpec(gamma=GAMMA, band_center=100.0, half_bandwidth=20.0)
            propagator = ExactPropagator(SystemMode(100.0), discretize_bath(spec, n_modes))
            for t in times:
                m = propagator.unitary(t)
                worst = max(worst, float(np.max(np.abs(m.conj().T @ m - np.eye(len(m))))))
        for t in times:
            m = wwa_propagator.unitary(t)
            worst = max(worst, float(np.max(np.abs(m.conj().T @ m - np.eye(len(m))))))
        _report(
            "criterion 1 (unitarity)",
            worst <= 1e-10,
            f"max defect {worst:.3e} over N in {{1,10,100,2000}}, 20 times each (tol 1e-10)",
        )

    def test_02_dissipation_relation(self, wwa_coefficients, wwa_grid):
        """Broadband regime: |u|^2 and the transfer sum track the exponential law."""
        dev_survival = np.max(
            np.abs(np.abs(wwa_coefficients.survival) ** 2 - np.exp(-GAMMA * wwa_grid))
        )
        dev_transfer = np.max(
            np.abs(dissipation_sum(wwa_coefficients) + np.expm1(-GAMMA * wwa_grid))
        )
        _report(
            "criterion 2 (dissipation relation)",
            dev_survival <= 2e-2 and dev_transfer <= 2e-2,
            f"max |u|^2 deviation {dev_survival:.3e}, max transfer deviation "
            f"{dev_transfer:.3e} (tol 2e-2; omega_b=100, half-band=20, N=2000)",
        )

    def test_03_binomial_population_law(self, small_system):
        """Dense-oracle populations equal the binomial law with oracle survival."""
        spec = SpectralDensitySpec(gamma=GAMMA, band_center=10.0, half_bandwidth=2.0)
        bath = discretize_bath(spec, 3)
        propagator = ExactPropagator(small_system, bath)
        times = np.linspace(0.0, 4.0, 20)
        survived = np.minimum(np.abs(propagator.evaluate(times).survival) ** 2, 1.0)
        worst = 0.0
        for n in (1, 2, 3):
            oracle = FockSpaceOracle(small_system, bath, n_max=n)
            law = fock_populations(n, survived)
            rho = oracle.reduced_density(FockState(n), times)
            worst = max(worst, float(np.max(np.abs(rho.populations - law.probs))))
        _report(
            "criterion 3 (binomial law)",
            worst <= 1e-8,
            f"max elementwise deviation {worst:.3e} over n in {{1,2,3}}, 20 times (tol 1e-8)",
        )

    def test_04_survival_rate_fit(self, wwa_propagator):
        """Fitted decay rate of the retention probability is n*gamma within 3%."""
        times = np.linspace(0.0, 2.0, 21)
        log_p = np.array(
            [math.log(abs(wwa_propagator.evaluate(t).survival) ** 2) for t in times]
        )
        worst_rel = 0.0
        for n in (1, 2, 3):
            rate = -np.polyfit(times, n * log_p, 1)[0]
            worst_rel = max(worst_rel, abs(rate - n * GAMMA) / (n * GAMMA))
        _report(
            "criterion 4 (retention rate)",
            worst_rel <= 3e-2,
            f"worst fitted-rate relative error {worst_rel:.3e} for n in {{1,2,3}} (tol 3e-2)",
        )

    def test_05_coherent_decay(self, small_system, small_bath, wwa_propagator):
        """Coherent states stay coherent; mean number decays at gamma."""
        propagator = ExactPropagator(small_system, small_bath)
        oracle = FockSpaceOracle(small_system, small_bath, n_max=17)
        grid = np.linspace(0.0, 3.0, 10)
        survived = np.abs(propagator.evaluate(grid).survival) ** 2
        rho = oracle.reduced_density(CoherentState(1.0), grid)
        worst_mean = float(np.max(np.abs(rho.mean_number - survived)))
        worst_purity = float(np.min(rho.purity))
        times = np.linspace(0.0, 2.0, 21)
        log_mean = [
            math.log(abs(wwa_propagator.evaluate(t).survival) ** 2) for t in times
        ]
        rate = -np.polyfit(times, log_mean, 1)[0]
        rate_ok = abs(rate - GAMMA) / GAMMA <= 3e-2
        _report(
            "criterion 5 (coherent decay)",
            worst_mean <= 1e-6 and worst_purity >= 1.0 - 1e-6 and rate_ok,
            f"max mean-number deviation {worst_mean:.3e} (tol 1e-6), min purity "
            f"{worst_purity:.8f} (tol 1-1e-6), fitted rate error {abs(rate - GAMMA):.3e}",
        )

    def test_06_thermal_factor_consistency(self):
        """Discrete and closed-form enhancement factors agree to 2% in regime."""
        omega_b = 800.0
        spec = SpectralDensitySpec(gamma=GAMMA, band_center=omega_b, half_bandwidth=80.0)
        bath = discretize_bath(spec, 4000)
        system = SystemMode(omega_b)
        propagator = ExactPropagator(system, bath)
        coeffs = propagator.evaluate(np.linspace(0.0, 5.0, 21))
        worst = 0.0
        for beta_omega in (0.1, 1.0, 10.0):
            thermal = ThermalSpec.for_system(beta_omega / omega_b, omega_b)
            channel = ThermalAttenuator.from_coefficients(coeffs, thermal.occupations(bath))
            phi_d = channel.phi_discrete()
            phi_c = thermal_factor_closed(thermal.n_th, GAMMA, coeffs.t)
            worst = max(worst, np.max(np.abs(phi_d.value - phi_c.value) / phi_c.value))
        _report(
            "criterion 6 (thermal factor)",
            worst <= 2e-2,
            f"max relative deviation {worst:.3e} over beta*omega_b in {{0.1,1,10}} (tol 2e-2)",
        )

    def test_07_thermal_monte_carlo(self, thermal_system, thermal_bath, thermal_propagator):
        """MC moments match the exact moments and the equilibration law to 3 sigma."""
        times = np.linspace(0.5, 5.0, 10)
        coeffs = thermal_propagator.evaluate(times)
        worst_z_oracle = 0.0
        worst_z_equilibration = 0.0
        for n_th in (0.1, 1.0):
            beta = math.log1p(1.0 / n_th) / thermal_system.omega_b
            thermal = ThermalSpec.for_system(beta, thermal_system.omega_b)
            occupations = thermal.occupations(thermal_bath)
            mc, errors = monte_carlo_moments(1.0, occupations, coeffs, 10_000, MC_SEED)
            exact = ThermalAttenuator.from_coefficients(coeffs, occupations).occupation(1.0)
            worst_z_oracle = max(
                worst_z_oracle, np.max(np.abs(mc.occupation - exact) / errors.occupation)
            )
            mc0, errors0 = monte_carlo_moments(0.0, occupations, coeffs, 10_000, MC_SEED)
            target = thermal.n_th * -np.expm1(-GAMMA * times)
            worst_z_equilibration = max(
                worst_z_equilibration, np.max(np.abs(mc0.occupation - target) / errors0.occupation)
            )
        _report(
            "criterion 7 (thermal Monte Carlo)",
            worst_z_oracle <= 3.0 and worst_z_equilibration <= 3.0,
            f"worst |mc-exact| = {worst_z_oracle:.2f} sigma, worst equilibration "
            f"deviation = {worst_z_equilibration:.2f} sigma (tol 3, M=1e4)",
        )

    def test_08_zero_temperature_reductions(self):
        """All finite-T laws collapse onto the vacuum laws at n_th = 0, to 1e-12."""
        h = EffectiveHamiltonian(omega_b=7.0, gamma=GAMMA, n_th=0.0)
        system = SystemMode(7.0)
        worst = 0.0
        for n in (1, 2, 5):
            worst = max(worst, abs(h.evolve_fock(n, 0.0).decay_time - fock_decay_time(n, GAMMA)))
            for t in (0.3, 1.7):
                worst = max(
                    worst,
                    abs(h.evolve_fock(n, t).mean_number - n * fock_survival(n, GAMMA, t)),
                )
        for t in (0.3, 1.7):
            evo = h.evolve_coherent(1.2, t)
            label, mean = coherent_decay(1.2, analytic_survival(system, GAMMA, t))
            worst = max(worst, abs(evo.mean_number - mean), abs(evo.label - label))
            worst = max(worst, abs(evo.decay_time - 1.0 / GAMMA))
            phi = thermal_factor_closed(0.0, GAMMA, t)
            weight, cond_label = conditional_wavefunction(1.2, analytic_survival(system, GAMMA, t), phi)
            worst = max(worst, abs(weight - 1.0), abs(cond_label - label))
        _report(
            "criterion 8 (zero-temperature reductions)",
            worst <= 1e-12,
            f"max reduction mismatch {worst:.3e} (tol 1e-12)",
        )

    def test_09_effective_hamiltonian_values(self):
        """Pinned closed-form evaluations of the finite-T decay laws."""
        h1 = EffectiveHamiltonian(omega_b=5.0, gamma=GAMMA, n_th=1.0)
        fock = h1.evolve_fock(1, 0.1)
        coherent = h1.evolve_coherent(2.0, 0.5)
        checks = [
            abs(fock.mean_number - math.exp(-0.2)),
            abs(coherent.mean_number - 4.0 * math.exp(-1.0)),
            abs(h1.evolve_fock(1, 0.0).decay_time - 0.5),
            abs(EffectiveHamiltonian(5.0, 1.0, 3.0).evolve_fock(2, 0.0).decay_time - 0.2),
            abs(coherent.decay_time - 0.5),
        ]
        worst = max(checks)
        _report(
            "criterion 9 (effective-Hamiltonian values)",
            worst <= 1e-12,
            f"max deviation from pinned evaluations {worst:.3e} (tol 1e-12)",
        )

    def test_10_divergence_report(self):
        """The report records the first-order gap between the two finite-T laws.

        Golden expectations generated by this package's oracle path (frozen
        slope formula check plus linear growth), not asserted from any
        external value.
        """
        config = parse_config(
            """
            scenario = oracle-compare
            gamma = 1.0
            omega_b = 10
            fock_n = 2
            n_modes = 3
            half_bandwidth = 2
            beta = 0.069314718055994531
            t_max = 0.1
            n_steps = 11
            """
        )
        report = run_scenario(config)
        cols = report.columns
        i_t = cols.index("t")
        i_div = cols.index("divergence")
        n_th = 1.0 / math.expm1(config.beta * config.omega_b)
        n = config.fock_n
        slope_formula = GAMMA * (n - n_th - n * n_th - n**2)
        ts = report.table[:, i_t]
        divergence = report.table[:, i_div]
        start_ok = abs(divergence[0]) <= 1e-12
        early_slope = np.polyfit(ts[:3], divergence[:3], 1)[0]
        linear_ok = abs(early_slope - slope_formula) / abs(slope_formula) <= 0.05
        growing = bool(np.all(np.diff(np.abs(divergence)) > 0))
        # Golden fixture: the recorded gap at gamma*t = 0.1, as this package
        # computes it (n = 2, n_th = 1).
        golden_ok = divergence[-1] == pytest.approx(-0.42320097667252377, abs=1e-12)
        _report(
            "criterion 10 (divergence report)",
            bool(start_ok and linear_ok and growing and golden_ok),
            f"gap grows monotonically, small-time slope {early_slope:.4f} vs first-order "
            f"{slope_formula:.4f} (rel tol 0.05), end value {divergence[-1]:.6f} matches fixture",
        )

    def test_11_same_seed_runs_are_byte_identical(self, tmp_path):
        """Two fresh interpreters running one seeded thermal config write the same CSV bytes."""
        flags = [
            "--scenario", "thermal", "--gamma", "1.0", "--omega-b", "200", "--n-modes", "60",
            "--half-bandwidth", "20", "--beta", "0.003", "--t-max", "2", "--n-steps", "5",
            "--samples", "500", "--seed", "3",
        ]
        outputs = []
        for run in range(2):
            path = tmp_path / f"run{run}.csv"
            cli = [sys.executable, "-m", "boson_decay.cli", *flags, "--output", str(path)]
            result = subprocess.run(cli, capture_output=True, text=True)
            assert result.returncode == 0, result.stderr
            outputs.append(path.read_bytes())
        _report(
            "criterion 11 (determinism)",
            outputs[0] == outputs[1],
            f"thermal CSV identical across two runs with seed 3 ({len(outputs[0])} bytes)",
        )
