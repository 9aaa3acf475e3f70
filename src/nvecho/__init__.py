"""Ensemble dephasing of NV-center nuclear spins under correlated noise.

Simulates and fits the coherence of the intrinsic nitrogen nuclear spin when
the quadrupole and hyperfine interactions fluctuate together (temperature,
strain) or independently (magnetic field), and implements the unbalanced
echo that cancels the correlated part.

The package imports lazily: ``nvecho.name`` loads the module that defines
the name on first use and returns that module's current attribute, so
``import nvecho`` loads no numpy and a patched module attribute is what
the package hands out.
"""

from importlib import import_module

__version__ = "0.1.0"

# the public names, by the module that defines them
_EXPORTS = {
    "config": ("ConfigError", "ScenarioConfig", "dump_config", "load_config",
               "load_packaged_scenario", "parse_config"),
    "estimator": ("FitError", "FitResult", "RateTable", "estimate_sigma", "fit_cosine",
                  "fit_exponential", "fit_vee", "predict_echo_rate"),
    "noise": ("NoiseSource", "delta", "dephasing_factor", "field_source", "gaussian",
              "lorentzian", "residual_field_source", "strain_source", "temperature_source"),
    "pulses": ("PulseSequence", "build_sequence"),
    "response": ("LinearResponse", "QuasiharmonicSet", "calibrate_response_set",
                 "default_linear_response", "default_quasiharmonic_set",
                 "load_response_set", "save_response_set"),
    "scenarios": ("ScenarioResult", "run_scenario"),
    "script": ("ScriptError", "format_sequence_script", "parse_sequence_script"),
    "sequences": ("EnsembleSignal", "read_signal_csv", "scans", "simulate_family",
                  "write_signal_csv"),
    "spin_model": ("SpinSystemParams", "default_params"),
    "units": ("TWO_PI", "angular", "cycles", "format_quantity", "parse_quantity"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{module}", __name__), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
