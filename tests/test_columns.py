"""Every CSV column is an exported library function, pinned bit for bit.

Each scenario's table is recomputed here from functions of the ``boson_decay``
package, and oracle-compare's ``oracle_fock_mean`` from a sum written out
here, and compared with ``report.table`` by ``np.array_equal``. A
runner that re-derived a law inline in another operand order, or called a
different function, fails here.
"""

import math

import numpy as np
import pytest

from boson_decay import (
    EffectiveHamiltonian,
    ExactPropagator,
    FockSpaceOracle,
    FockState,
    SpectralDensitySpec,
    SystemMode,
    ThermalAttenuator,
    ThermalSpec,
    analytic_survival,
    build_config,
    coherent_decay,
    conditional_mean_number,
    discretize_bath,
    dissipation_sum,
    excited_bath_evolution,
    fock_populations,
    fock_survival,
    monte_carlo_moments,
    run_scenario,
    thermal_factor_closed,
    thermal_mean_number,
    unitarity_defect,
)

BASE = {"gamma": 0.8, "omega_b": 20.0, "t_max": 3.0, "n_steps": 41}
BATH = {"n_modes": 3, "half_bandwidth": 4.0, "band_center": 20.5}

CONFIGS = {
    "fock-decay": {"fock_n": 4},
    "coherent-decay": {"alpha_re": 1.5, "alpha_im": -0.5},
    "excited-bath": {
        **BATH, "n_modes": 12, "excited_mode": 5, "alpha_re": 0.7, "lambda_re": 0.4,
        "lambda_im": 0.9,
    },
    "thermal": {**BATH, "n_modes": 40, "beta": 0.05, "samples": 300, "seed": 5, "alpha_im": 0.6},
    "wwa-validate": {**BATH, "n_modes": 60},
    "oracle-compare": {**BATH, "fock_n": 2, "beta": 0.1},
    "oracle-compare-zero-temperature": {**BATH, "scenario": "oracle-compare", "fock_n": 3},
}


def _run(name):
    config = build_config({"scenario": name, **BASE, **CONFIGS[name]})
    grid = np.linspace(0.0, config.t_max, config.n_steps)
    system = SystemMode(config.omega_b)
    bath = None
    if config.n_modes is not None:
        spec = SpectralDensitySpec(config.gamma, config.band_center, config.half_bandwidth)
        bath = discretize_bath(spec, config.n_modes)
    return config, grid, system, bath, run_scenario(config)


def _assert_table(report, columns):
    assert report.columns == list(columns)
    for index, (name, expected) in enumerate(columns.items()):
        assert np.array_equal(report.table[:, index], expected), name


def test_fock_decay():
    config, grid, _, _, report = _run("fock-decay")
    probs = fock_populations(config.fock_n, fock_survival(1, config.gamma, grid)).probs
    _assert_table(report, {"t": grid, **{f"P_{m}": p for m, p in enumerate(probs.T)}})


def _coherent_columns(grid, label, mean_number):
    return {
        "t": grid,
        "mean_number": mean_number,
        "re_label": label.real,
        "im_label": label.imag,
        "purity": np.ones_like(grid),
    }


def test_coherent_decay():
    config, grid, system, _, report = _run("coherent-decay")
    survival = analytic_survival(system, config.gamma, grid)
    _assert_table(report, _coherent_columns(grid, *coherent_decay(config.alpha, survival)))


def test_excited_bath():
    config, grid, system, bath, report = _run("excited-bath")
    lambdas = np.zeros(bath.n_modes, dtype=complex)
    lambdas[config.excited_mode] = config.excited_label
    labels = excited_bath_evolution(config.alpha, lambdas, ExactPropagator(system, bath), grid)
    _assert_table(report, _coherent_columns(grid, labels.system_label, labels.mean_number))


def test_thermal():
    config, grid, system, bath, report = _run("thermal")
    thermal = ThermalSpec.for_system(config.beta, config.omega_b)
    coeffs = ExactPropagator(system, bath).evaluate(grid)
    occupations = thermal.occupations(bath)
    mc, errors = monte_carlo_moments(config.alpha, occupations, coeffs, config.samples, config.seed)
    phi_closed = thermal_factor_closed(thermal.n_th, config.gamma, grid)
    survival = analytic_survival(system, config.gamma, grid)
    heff = EffectiveHamiltonian(config.omega_b, config.gamma, thermal.n_th)
    channel = ThermalAttenuator.from_coefficients(coeffs, occupations)
    _assert_table(
        report,
        {
            "t": grid,
            "phi_discrete": channel.phi_discrete().value,
            "phi_closed": phi_closed.value,
            "paper_mean_number": conditional_mean_number(config.alpha, survival, phi_closed),
            "heff_mean_number": heff.evolve_coherent(config.alpha, grid).mean_number,
            "oracle_occupation": channel.occupation(config.alpha),
            "mc_occupation": mc.occupation,
            "mc_stderr": errors.occupation,
        },
    )


def test_wwa_validate():
    config, grid, system, bath, report = _run("wwa-validate")
    coeffs = ExactPropagator(system, bath).evaluate(grid)
    survived = np.abs(coeffs.survival) ** 2
    dissipated = dissipation_sum(coeffs)
    _assert_table(
        report,
        {
            "t": grid,
            "re_u": coeffs.survival.real,
            "im_u": coeffs.survival.imag,
            "abs_u_sq": survived,
            "sum_abs_v_sq": dissipated,
            "unitarity_defect": unitarity_defect(coeffs),
        },
    )
    summary = report.meta["summary"]
    retained = fock_survival(1, config.gamma, grid)
    transferred = thermal_mean_number(0.0, 1.0, config.gamma, grid)
    assert summary["max_abs_u_sq_deviation"] == np.max(np.abs(survived - retained))
    assert summary["max_sum_abs_v_sq_deviation"] == np.max(np.abs(dissipated - transferred))


def _weighted_sum(coeffs, occupations):
    """sum_j n_j |v_j|^2 per time, written out here as the independent reference."""
    weights = np.abs(coeffs.absorption)
    weights *= weights
    weights *= occupations
    return np.sum(weights, axis=-1)


@pytest.mark.parametrize("name", ["oracle-compare", "oracle-compare-zero-temperature"])
def test_oracle_compare(name):
    config, grid, system, bath, report = _run(name)
    n = config.fock_n
    beta = config.beta if config.beta is not None else math.inf
    thermal = ThermalSpec.for_system(beta, config.omega_b)
    coeffs = ExactPropagator(system, bath).evaluate(grid)
    survived = np.abs(coeffs.survival) ** 2
    law = fock_populations(n, np.minimum(survived, 1.0)).probs
    pops = FockSpaceOracle(system, bath, n_max=n).reduced_density(FockState(n), grid).populations
    heff_mean = EffectiveHamiltonian(config.omega_b, config.gamma, thermal.n_th).evolve_fock(
        n, grid
    ).mean_number
    exact_mean = thermal_mean_number(n, thermal.n_th, config.gamma, grid)
    _assert_table(
        report,
        {
            "t": grid,
            **{f"P_{m}_oracle": p for m, p in enumerate(pops.T)},
            **{f"P_{m}_law": p for m, p in enumerate(law.T)},
            "max_pop_deviation": np.max(np.abs(pops - law), axis=1),
            "heff_fock_mean": heff_mean,
            "exact_fock_mean": exact_mean,
            "oracle_fock_mean": n * survived + _weighted_sum(coeffs, thermal.occupations(bath)),
            "divergence": heff_mean - exact_mean,
        },
    )


def test_zero_temperature_oracle_compare_allows_a_band_reaching_zero_frequency():
    """Without beta the bath is the vacuum, whatever its lowest frequency."""
    config = build_config(
        {"scenario": "oracle-compare", "gamma": 1.0, "omega_b": 1.0, "fock_n": 2, "n_modes": 2,
         "half_bandwidth": 2.0, "t_max": 1.0, "n_steps": 5}
    )
    report = run_scenario(config)
    assert discretize_bath(SpectralDensitySpec(1.0, 1.0, 2.0), 2).omegas[0] == 0.0
    column = report.columns.index("exact_fock_mean")
    assert np.array_equal(report.table[:, column], 2.0 * np.exp(-np.linspace(0.0, 1.0, 5)))
