"""Ensemble dephasing of NV-center nuclear spins under correlated noise.

Simulates and fits the coherence of the intrinsic nitrogen nuclear spin when
the quadrupole and hyperfine interactions fluctuate together (temperature,
strain) or independently (magnetic field), and implements the unbalanced
echo that cancels the correlated part.
"""

from .config import ConfigError, ScenarioConfig, dump_config, load_config, parse_config
from .estimator import (
    FitError,
    FitResult,
    RateTable,
    estimate_sigma,
    fit_cosine,
    fit_exponential,
    fit_vee,
    predict_echo_rate,
    predict_rate,
)
from .noise import (
    NoiseSource,
    delta,
    dephasing_factor,
    field_source,
    gaussian,
    lorentzian,
    residual_field_source,
    strain_source,
    temperature_source,
)
from .response import (
    InteractionShift,
    LinearResponse,
    QuasiharmonicSet,
    calibrate_response_set,
    default_linear_response,
    default_quasiharmonic_set,
    load_response_set,
    save_response_set,
    strain_response,
)
from .scenarios import ScenarioResult, load_packaged_scenario, run_scenario
from .script import ScriptError, format_sequence_script, parse_sequence_script
from .sequences import (
    EnsembleSignal,
    PulseSequence,
    build_dq_ramsey,
    build_nuclear_echo,
    build_ramsey,
    build_sequence,
    build_unbalanced_echo,
    phase_sweep,
    read_signal_csv,
    scans,
    simulate_amplitude,
    simulate_family,
    write_signal_csv,
)
from .spin_model import (
    SpinSystemParams,
    default_params,
    single_quantum_table,
    transition_frequency,
)
from .units import TWO_PI, angular, cycles, format_quantity, parse_quantity

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "EnsembleSignal",
    "FitError",
    "FitResult",
    "InteractionShift",
    "LinearResponse",
    "NoiseSource",
    "PulseSequence",
    "QuasiharmonicSet",
    "RateTable",
    "ScenarioConfig",
    "ScenarioResult",
    "ScriptError",
    "SpinSystemParams",
    "TWO_PI",
    "angular",
    "build_dq_ramsey",
    "build_nuclear_echo",
    "build_ramsey",
    "build_sequence",
    "build_unbalanced_echo",
    "calibrate_response_set",
    "cycles",
    "default_linear_response",
    "default_params",
    "default_quasiharmonic_set",
    "delta",
    "dephasing_factor",
    "dump_config",
    "estimate_sigma",
    "field_source",
    "fit_cosine",
    "fit_exponential",
    "fit_vee",
    "format_quantity",
    "format_sequence_script",
    "gaussian",
    "load_config",
    "load_packaged_scenario",
    "load_response_set",
    "lorentzian",
    "parse_config",
    "parse_quantity",
    "parse_sequence_script",
    "phase_sweep",
    "predict_echo_rate",
    "predict_rate",
    "read_signal_csv",
    "residual_field_source",
    "run_scenario",
    "save_response_set",
    "scans",
    "simulate_amplitude",
    "simulate_family",
    "single_quantum_table",
    "strain_response",
    "strain_source",
    "temperature_source",
    "transition_frequency",
    "write_signal_csv",
]
