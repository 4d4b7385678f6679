"""Numerical laboratory for a damped bosonic mode coupled to a flat boson bath.

Closed-form decay laws (binomial populations, exponential survival, coherent
label contraction, finite-temperature enhancement, effective-Hamiltonian
rates) live side by side with exact finite-bath oracles that validate them.
"""

__version__ = "0.1.0"

from .bath import (
    DiscreteBath,
    SpectralDensitySpec,
    ThermalSpec,
    bath_to_csv,
    discretize_bath,
    spectral_density,
    thermal_occupation,
    write_bath_csv,
)
from .config import SCENARIOS, ScenarioConfig, build_config, parse_config
from .decay import (
    CoherentState,
    CoherentSuperposition,
    DensityMatrixFock,
    FockSpaceOracle,
    FockState,
    JointCoherentLabels,
    OpenSystemState,
    PopulationDistribution,
    basis_amplitudes,
    coherent_decay,
    coherent_decay_time,
    coherent_overlap,
    excited_bath_evolution,
    fock_decay_time,
    fock_populations,
    fock_survival,
)
from .errors import (
    ConfigError,
    InfiniteOccupationError,
    ResourceLimitError,
    TruncationError,
)
from .propagator import (
    ExactPropagator,
    PropagatorCoefficients,
    SystemMode,
    analytic_propagator,
    analytic_survival,
    dissipation_sum,
    unitarity_defect,
)
from .runner import RunReport, emit_report, run_scenario, write_report
from .thermal import (
    EffectiveHamiltonian,
    GaussianMoments,
    ThermalAttenuator,
    ThermalFactor,
    conditional_mean_number,
    conditional_wavefunction,
    monte_carlo_moments,
    thermal_factor_closed,
    thermal_mean_number,
)

__all__ = [name for name in dir() if not name.startswith("_")]
