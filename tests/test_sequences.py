"""Pulse sequences, ensemble signal simulation, and signal file round trips."""

import math

import numpy as np
import pytest

from nvecho.estimator import predict_echo_rate
from nvecho.noise import (
    MonteCarloResult,
    field_source,
    gaussian,
    lorentzian,
    residual_field_source,
    temperature_source,
)
from nvecho.pulses import (
    KINDS,
    PulseSequence,
    Segment,
    build_dq_ramsey,
    build_nuclear_echo,
    build_ramsey,
    build_sequence,
    build_unbalanced_echo,
    check_pair,
)
from nvecho.response import default_linear_response, default_quasiharmonic_set
from nvecho.sequences import (
    EnsembleSignal,
    read_metadata_csv,
    read_signal_csv,
    scans,
    simulate_family,
    write_metadata_csv,
    write_signal_csv,
)
from nvecho.units import TWO_PI

SEED = 12345


def test_builders_and_invariants():
    seq = build_unbalanced_echo(1e-3, 0.18e-3)
    assert seq.kind == "unbalanced_echo"
    assert seq.pair == (0, -1)
    assert len(seq.segments) == 2
    assert seq.segments[0].m_S == 0 and seq.segments[1].m_S == 1
    assert seq.total_time == pytest.approx(1e-3, rel=1e-12)
    assert seq.segments[1].duration / seq.total_time == pytest.approx(0.18, rel=1e-12)

    ram = build_ramsey(5e-4, pair=(0, +1))
    assert ram.kind == "ramsey" and ram.total_time == 5e-4

    dq = build_dq_ramsey(5e-4)
    assert dq.pair == (-1, +1)

    echo = build_nuclear_echo(4e-4, pair=(0, -1), m_S=0)
    assert [seg.sign for seg in echo.segments] == [1, -1]
    assert echo.total_time == pytest.approx(4e-4, rel=1e-12)


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_built_sequences_classify_as_their_kind(kind):
    keys = KINDS[kind].keys
    pairs = [(0, -1), (+1, 0)] + ([] if kind == "ramsey" else [(-1, +1)])
    for pair in pairs if "pair" in keys else [None]:
        for fraction in (0.0, 0.18, 1.0) if "flip_fraction" in keys else [None]:
            given = {"pair": pair, "flip_fraction": fraction, "ms": -1, "ms_flipped": -1}
            seq = build_sequence(kind, 2e-3, **{key: value for key, value in given.items()
                                                if key in keys and value is not None})
            assert seq.kind == kind, (pair, fraction)


def test_builder_validation():
    with pytest.raises(ValueError):
        build_unbalanced_echo(1e-3, -1e-6)
    with pytest.raises(ValueError):
        build_unbalanced_echo(1e-3, 1.1e-3)  # flip time beyond total time
    with pytest.raises(ValueError):
        build_unbalanced_echo(1e-3, 0.2e-3, ms_free=1, ms_flipped=1)
    with pytest.raises(ValueError):
        build_unbalanced_echo(0.0, 0.0)
    with pytest.raises(ValueError):
        build_ramsey(1e-4, pair=(-1, +1))  # double-quantum pair on the SQ builder
    with pytest.raises(ValueError):
        build_dq_ramsey(-1e-4)
    with pytest.raises(ValueError, match="cannot build sequence kind 'hahn_echo'"):
        build_sequence("hahn_echo", 1e-3)
    with pytest.raises(ValueError, match="kind ramsey does not read flip_fraction"):
        build_sequence("ramsey", 1e-3, flip_fraction=0.2)
    with pytest.raises(ValueError, match="at least one segment"):
        PulseSequence((0, -1), ())
    # what the config and the script parser refuse: a bool read as 1 built a
    # 1 s ramsey, and a bad pair printed a script the parser refuses
    with pytest.raises(ValueError, match="duration must be a plain number, got True"):
        build_sequence("ramsey", True)
    with pytest.raises(ValueError, match="segment sign must be"):
        Segment(1e-3, 0, sign=True)
    with pytest.raises(ValueError, match=r"m_S must be one of -1, 0, \+1, got True"):
        build_ramsey(1e-3, m_S=True)
    with pytest.raises(ValueError, match=r"pair\[1\] must be one of -1, 0, \+1, got 5"):
        PulseSequence((0, 5), (Segment(1e-3, 0),))
    with pytest.raises(ValueError, match=r"pair\[0\] must be one of -1, 0, \+1, got 0.5"):
        build_nuclear_echo(1e-3, pair=(0.5, -1))  # failed in the script printer
    with pytest.raises(ValueError, match=r"pair\[0\] must be one of -1, 0, \+1, got True"):
        build_ramsey(1e-3, pair=(True, 0))
    with pytest.raises(ValueError, match=r"pair\[1\] must be one of -1, 0, \+1, got -1.0"):
        build_ramsey(1e-3, pair=(0, -1.0))  # the config refuses a float too
    with pytest.raises(ValueError, match="transition pair must connect two distinct m_I levels"):
        build_sequence("nuclear_echo", 1e-3, pair=(1, 1))


def test_nuclear_echo_refuses_a_bool_time():
    # the bool was halved into two 0.5 s segments before Segment saw it
    with pytest.raises(ValueError, match="total_time must be a plain number, got True"):
        build_nuclear_echo(True)


def test_unbalanced_echo_refuses_a_bool_time():
    # the bool became a 1 s free segment, total_time - flip_time
    with pytest.raises(ValueError, match="total_time must be a plain number, got True"):
        build_unbalanced_echo(True, 0.0)


def test_a_bool_flip_fraction_is_refused():
    # True was read as 1 and built an echo flipped for the whole time
    src = temperature_source(lorentzian(0.0, 5.0))
    for flip in (True, False):
        with pytest.raises(ValueError, match="flip_fraction must be a plain number"):
            scans([("unbalanced_echo", {"flip_fraction": flip}, "total_time", [1e-3])], (src,))
        with pytest.raises(ValueError, match="flip_fraction must be a plain number"):
            build_sequence("unbalanced_echo", 1e-3, flip_fraction=flip)


@pytest.mark.parametrize("pair", [0.5, None, (0,), (0, 1, -1)])
def test_a_pair_that_is_not_two_levels_is_refused(pair):
    # "cannot unpack non-iterable float" came from inside check_pair
    with pytest.raises(ValueError, match="transition pair must be two m_I levels"):
        check_pair(pair)
    with pytest.raises(ValueError, match="transition pair must be two m_I levels"):
        predict_echo_rate(pair, 0.1)


def test_ramsey_amplitude_closed_form():
    resp = default_linear_response()
    src = temperature_source(lorentzian(0.0, 5.0), response=resp)
    t = 1e-4
    result = simulate_family([build_ramsey(t)], (src,))
    expected = math.exp(-5.0 * TWO_PI * 39.0 * t)
    assert result.amplitude[0] == pytest.approx(expected, rel=1e-12)
    # base phase carries the bare transition frequency
    assert result.base_phase[0] == pytest.approx(TWO_PI * (4.945e6 - 307.7 * 239) * t, rel=1e-9)


def test_location_offset_moves_base_phase_not_amplitude():
    src = temperature_source(lorentzian(2.0, 5.0))
    t = 1e-4
    res = simulate_family([build_ramsey(t)], (src,))
    res0 = simulate_family([build_ramsey(t)], (temperature_source(lorentzian(0.0, 5.0)),))
    assert res.amplitude[0] == pytest.approx(res0.amplitude[0], rel=1e-12)
    # (0, -1) branch: phase grows by -c_T * location with c_T = -t * slope_Q
    assert res.base_phase[0] - res0.base_phase[0] == pytest.approx(
        -t * TWO_PI * 39.0 * 2.0, rel=1e-9
    )


def test_unbalanced_echo_full_cancellation():
    resp = default_linear_response()
    src = temperature_source(lorentzian(0.0, 5.0), response=resp)
    t = 1e-3
    tau = t * resp.quadrupole_per_K / resp.hyperfine_per_K
    result = simulate_family([build_unbalanced_echo(t, tau)], (src,))
    assert result.amplitude[0] == pytest.approx(1.0, abs=1e-12)


def test_residual_field_sets_protected_ceiling():
    src = residual_field_source(dq_coherence_time=3.9e-3)
    gamma_n_mag = TWO_PI * 307.7
    t2 = 1.0 / (gamma_n_mag * src.distribution.scale)
    result = simulate_family([build_ramsey(t2)], (src,))
    assert result.amplitude[0] == pytest.approx(1.0 / math.e, rel=1e-12)
    # double-quantum branch decays twice as fast
    result_dq = simulate_family([build_dq_ramsey(t2 / 2)], (src,))
    assert result_dq.amplitude[0] == pytest.approx(1.0 / math.e, rel=1e-12)


def test_nuclear_echo_refocuses_every_linear_source():
    sources = (
        temperature_source(lorentzian(0.4, 8.0)),
        field_source(gaussian(0.0, 0.3)),
    )
    result = simulate_family([build_nuclear_echo(1e-3, pair=(0, -1), m_S=0)], sources)
    assert result.amplitude[0] == pytest.approx(1.0, abs=1e-12)
    assert result.base_phase[0] == pytest.approx(0.0, abs=1e-9)


# the package's public names, which hold one evaluator, simulate_family
PUBLIC_NAMES = (
    "ConfigError", "EnsembleSignal", "FitError", "FitResult", "LinearResponse",
    "NoiseSource", "PulseSequence", "QuasiharmonicSet", "RateTable", "ScenarioConfig",
    "ScenarioResult", "ScriptError", "SpinSystemParams", "TWO_PI", "angular",
    "build_dq_ramsey", "build_nuclear_echo", "build_ramsey", "build_sequence",
    "build_unbalanced_echo", "calibrate_response_set", "cycles", "default_linear_response",
    "default_params", "default_quasiharmonic_set", "delta", "dephasing_factor",
    "dump_config", "estimate_sigma", "field_source", "fit_cosine", "fit_exponential",
    "fit_vee", "format_quantity", "format_sequence_script", "gaussian", "load_config",
    "load_packaged_scenario", "load_response_set", "lorentzian", "parse_config",
    "parse_quantity", "parse_sequence_script", "predict_echo_rate", "read_signal_csv",
    "residual_field_source", "run_scenario", "save_response_set", "scans",
    "simulate_family", "strain_source", "temperature_source", "write_signal_csv",
)


def test_simulate_family_is_the_one_evaluator():
    # a single sequence is a family of one; its wrapper and the second
    # amplitude property are gone
    import nvecho
    from nvecho import sequences

    assert not hasattr(nvecho, "simulate_amplitude")
    assert not hasattr(sequences, "simulate_amplitude")
    assert not hasattr(MonteCarloResult, "amplitude")
    assert nvecho.__all__ == list(PUBLIC_NAMES)


def test_each_quantity_has_one_path():
    # line frequencies and strain shifts come from the phase coefficients and
    # the sources' slopes, the free-evolution rate from predict_echo_rate;
    # the second paths to them are gone
    import nvecho
    from nvecho import estimator, response, spin_model

    gone = {spin_model: ("SINGLE_QUANTUM_LINES", "TransitionRecord", "single_quantum_table",
                         "transition_frequency"),
            response: ("InteractionShift", "StrainShift", "strain_response"),
            estimator: ("predict_rate",)}
    for module, names in gone.items():
        for name in names:
            assert not hasattr(module, name) and not hasattr(nvecho, name), name
    assert not hasattr(response.LinearResponse, "interaction_shift")
    assert nvecho.__all__ == list(PUBLIC_NAMES)


def test_what_no_run_reaches_is_gone():
    # the readout-fringe simulator and the fit's skip keyword had no caller;
    # a fringe CSV is still fitted by fit_cosine
    import inspect

    import nvecho
    from nvecho import estimator, sequences

    assert not hasattr(sequences, "phase_sweep") and not hasattr(nvecho, "phase_sweep")
    assert not hasattr(sequences.SimulationResult, "mean_signal")
    assert "skip_initial" not in inspect.signature(estimator.fit_exponential).parameters
    assert nvecho.__all__ == list(PUBLIC_NAMES)


def test_sources_choose_closed_form_or_monte_carlo():
    linear = (temperature_source(lorentzian(0.0, 5.0)), field_source(gaussian(0.0, 0.3)))
    hot = temperature_source(lorentzian(300.0, 25.0), response=default_quasiharmonic_set())
    seq = build_ramsey(1e-4)
    # all-linear ensembles take the exact characteristic-function product
    assert simulate_family([seq], linear).monte_carlo is None
    # one quasiharmonic source sends the whole ensemble through Monte Carlo
    mixed = simulate_family([seq], linear + (hot,), n_samples=1 << 14, seed=SEED)
    assert isinstance(mixed.monte_carlo, MonteCarloResult)
    assert mixed.monte_carlo.n_samples == 1 << 14
    assert 0.0 < mixed.amplitude[0] < 1.0
    # and there is no keyword to override the choice
    with pytest.raises(TypeError):
        simulate_family([seq], linear, backend="monte_carlo")


def test_scan_metadata_names_the_average():
    times = [1e-4, 2e-4]
    [closed] = scans([("ramsey", {}, "total_time", times)],
                     (temperature_source(lorentzian(0.0, 5.0)),))
    assert closed.metadata["backend"] == "closed_form"
    assert "seed" not in closed.metadata and "n_samples" not in closed.metadata
    hot = temperature_source(lorentzian(300.0, 25.0), response=default_quasiharmonic_set())
    [sampled] = scans([("ramsey", {}, "total_time", times)], (hot,), n_samples=1 << 12, seed=7)
    assert sampled.metadata["backend"] == "monte_carlo"
    assert sampled.metadata["seed"] == sampled.monte_carlo.seed == 7
    assert sampled.metadata["n_samples"] == 1 << 12
    # without a seed keyword the metadata names the one the draws used
    [default] = scans([("ramsey", {}, "total_time", times)], (hot,), n_samples=1 << 12)
    assert default.metadata["seed"] == default.monte_carlo.seed == 12345


def test_decay_scan_exponential_for_lorentzian_noise():
    resp = default_linear_response()
    src = temperature_source(lorentzian(0.0, 5.0), response=resp)
    times = np.linspace(1e-4, 2e-3, 8)
    [signal] = scans([("unbalanced_echo", {"flip_fraction": 0.1}, "total_time", times)], (src,))
    rate = 5.0 * abs(resp.quadrupole_per_K - 0.1 * resp.hyperfine_per_K)
    assert np.allclose(signal.y, np.exp(-rate * times), rtol=1e-9)
    assert signal.metadata["flip_fraction"] == 0.1


def test_decay_scan_ramsey_and_dq():
    src = field_source(lorentzian(0.0, 0.1))
    times = np.linspace(1e-4, 1e-3, 5)
    sq, dq = scans([("ramsey", {}, "total_time", times), ("dq_ramsey", {}, "total_time", times)],
                   (src,))
    gn = TWO_PI * 307.7
    assert np.allclose(sq.y, np.exp(-gn * 0.1 * times), rtol=1e-9)
    assert np.allclose(dq.y, np.exp(-2 * gn * 0.1 * times), rtol=1e-9)


def test_pulse_location_sweep_minimum_at_slope_ratio():
    resp = default_linear_response()
    src = temperature_source(lorentzian(0.0, 5.0), response=resp)
    fractions = np.linspace(0.0, 0.5, 51)
    [signal] = scans([("unbalanced_echo", {"total_time": 2e-3}, "flip_fraction", fractions)],
                     (src,))
    best = fractions[np.argmax(signal.y)]
    ratio = resp.quadrupole_per_K / resp.hyperfine_per_K
    assert abs(best - ratio) <= (fractions[1] - fractions[0])
    with pytest.raises(ValueError):
        scans([("unbalanced_echo", {"total_time": 2e-3}, "flip_fraction", [0.2, 1.2])], (src,))


def test_scans_reject_empty_and_non_finite_inputs():
    src = temperature_source(lorentzian(0.0, 5.0))
    with pytest.raises(ValueError, match="at least one flip fraction"):
        scans([("unbalanced_echo", {"total_time": 2e-3}, "flip_fraction", [])], (src,))
    with pytest.raises(ValueError, match="at least one time"):
        scans([("unbalanced_echo", {"flip_fraction": 0.18}, "total_time", [])], (src,))
    with pytest.raises(ValueError, match="'total_time', 'flip_fraction'"):
        scans([("ramsey", {}, "time", [1e-3])], (src,))
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="times must be finite"):
            scans([("ramsey", {}, "total_time", [1e-3, bad])], (src,))
        with pytest.raises(ValueError, match="flip fractions must be finite"):
            scans([("unbalanced_echo", {"total_time": 2e-3}, "flip_fraction", [0.1, bad])],
                  (src,))


def test_scans_name_a_missing_or_doubled_key():
    # each used to surface as a bare TypeError from the build_sequence call
    src = temperature_source(lorentzian(0.0, 5.0))
    with pytest.raises(ValueError, match="kind unbalanced_echo needs a total_time"):
        scans([("unbalanced_echo", {}, "flip_fraction", [0.1])], (src,))
    with pytest.raises(ValueError, match="kind unbalanced_echo needs a flip_fraction"):
        scans([("unbalanced_echo", {}, "total_time", [1e-3])], (src,))
    with pytest.raises(ValueError, match="keys fix total_time, the axis the scan runs along"):
        scans([("ramsey", {"total_time": 1e-3}, "total_time", [1e-3])], (src,))


ECHO_SOURCE = (temperature_source(lorentzian(0.0, 5.0)),)


@pytest.mark.parametrize("call", [
    lambda: scans([("unbalanced_echo", {"flip_fraction": 0.18}, "total_time", [1e-3, math.nan])],
                  ECHO_SOURCE),
    lambda: scans([("unbalanced_echo", {"flip_fraction": 0.18}, "total_time", [1e-3, math.inf])],
                  ECHO_SOURCE),
    lambda: scans([("unbalanced_echo", {"flip_fraction": math.nan}, "total_time", [1e-3, 2e-3])],
                  ECHO_SOURCE),
    lambda: scans([("unbalanced_echo", {"total_time": 1e-3}, "flip_fraction", [0.1, math.nan])],
                  ECHO_SOURCE),
    lambda: scans([("unbalanced_echo", {"total_time": math.inf}, "flip_fraction", [0.1, 0.2])],
                  ECHO_SOURCE),
    lambda: scans([("unbalanced_echo", {"total_time": math.nan}, "flip_fraction", [0.1, 0.2])],
                  ECHO_SOURCE),
    lambda: build_unbalanced_echo(math.nan, 0.1e-3),
    lambda: build_unbalanced_echo(1e-3, math.nan),
    lambda: build_unbalanced_echo(math.inf, math.inf),
], ids=["nan-time", "inf-time", "nan-flip-fraction", "nan-sweep-fraction",
        "inf-sweep-time", "nan-sweep-time", "nan-echo-time", "nan-flip-time",
        "inf-echo-times"])
def test_non_finite_echo_inputs_name_the_cause(call):
    # a NaN used to be reported as a flip time outside the sequence, and an
    # infinite total time as a NaN segment duration
    with pytest.raises(ValueError, match="must be finite") as error:
        call()
    assert not any(wrong in str(error.value)
                   for wrong in ("within the sequence", "segment duration"))


def test_a_point_has_the_same_bits_on_either_axis():
    # the echo at (t, f) closes a flip-fraction sweep at t and a decay scan
    # at f; both, fused or alone, sample it from the same draws
    hot = (temperature_source(lorentzian(300.0, 25.0), response=default_quasiharmonic_set()),)
    t, f = 2e-3, 0.172
    specs = [("unbalanced_echo", {"total_time": t}, "flip_fraction", [0.1, f, 0.25]),
             ("unbalanced_echo", {"flip_fraction": f}, "total_time", [1e-3, t, 4e-3])]
    fused = scans(specs, hot, n_samples=1 << 12, seed=7)
    alone = [signal for spec in specs for signal in scans([spec], hot, n_samples=1 << 12, seed=7)]
    point = {(s.monte_carlo.attenuation[1].tobytes(), s.monte_carlo.std_error[1].tobytes(),
              s.y[1].tobytes()) for s in fused + alone}
    assert len(point) == 1
    for one, other in zip(fused, alone):
        assert one.x.tobytes() == other.x.tobytes() and one.y.tobytes() == other.y.tobytes()
        assert one.metadata == other.metadata
    average = {"backend": "monte_carlo", "seed": 7, "n_samples": 1 << 12}
    assert [s.x_label for s in fused] == ["flip_fraction", "total_time_s"]
    assert fused[0].metadata == {"sequence": "unbalanced_echo", "pair": [0, -1],
                                 "total_time_s": t} | average
    assert fused[1].metadata == {"sequence": "unbalanced_echo", "pair": [0, -1],
                                 "flip_fraction": f} | average
    # a kind that reads no pair names none
    [dq] = scans([("dq_ramsey", {}, "total_time", [1e-3])], hot, n_samples=1 << 12, seed=7)
    assert dq.metadata == {"sequence": "dq_ramsey"} | average


def test_pulse_location_sweep_flat_without_noise():
    src = temperature_source(lorentzian(0.0, 0.0))
    [signal] = scans([("unbalanced_echo", {"total_time": 2e-3}, "flip_fraction",
                       np.linspace(0, 1, 11))], (src,))
    assert np.allclose(signal.y, 1.0, rtol=1e-12)


def test_ramsey_rate_with_both_couplings():
    # Pair (0, +1) under m_S = +1 dephases at (slope_Q + slope_A) sigma_T,
    # i.e. 2 pi (39 + 204) * 5 rad/s, about a 131 us coherence time.
    src = temperature_source(lorentzian(0.0, 5.0))
    t2 = 1.0 / (TWO_PI * 243.0 * 5.0)
    assert t2 == pytest.approx(131e-6, rel=0.01)
    res = simulate_family([build_ramsey(t2, pair=(0, +1), m_S=+1)], (src,))
    assert res.amplitude[0] == pytest.approx(1.0 / math.e, rel=1e-9)


def test_unprotected_rate_with_residual_share():
    # Temperature ensemble plus the residual field share: the m_S = 0 rate
    # gains 1/(7.8 ms) on top of 2 pi 39 * 5.
    sources = (
        temperature_source(lorentzian(0.0, 5.0)),
        residual_field_source(dq_coherence_time=3.9e-3),
    )
    t = 7.4e-4
    res = simulate_family([build_ramsey(t)], sources)
    rate = -math.log(res.amplitude[0]) / t
    assert rate == pytest.approx(TWO_PI * 39.0 * 5.0 + 1.0 / 7.8e-3, rel=1e-9)
    assert 1.0 / rate == pytest.approx(0.74e-3, rel=0.01)


def test_dq_ramsey_immune_to_quadrupole_noise():
    src = temperature_source(lorentzian(0.0, 8.0))
    res = simulate_family([build_dq_ramsey(1e-3)], (src,))
    assert res.amplitude[0] == pytest.approx(1.0, abs=1e-12)


def test_normalized_collapse_of_location_sweeps():
    # Against (flip_fraction - ratio) * t, sweeps at different total times
    # fall on one exponential.
    resp = default_linear_response()
    src = temperature_source(lorentzian(0.0, 5.0), response=resp)
    ratio = resp.quadrupole_per_K / resp.hyperfine_per_K
    u = np.linspace(-1.5e-4, 1.5e-4, 9)
    amps = []
    for t in (1e-3, 2e-3):
        fractions = ratio + u / t
        [sweep] = scans([("unbalanced_echo", {"total_time": t}, "flip_fraction", fractions)],
                        (src,))
        amps.append(sweep.y)
    assert np.allclose(amps[0], amps[1], rtol=1e-6)


def test_decay_scan_requires_increasing_grid():
    src = temperature_source(lorentzian(0.0, 5.0))
    with pytest.raises(ValueError):
        scans([("ramsey", {}, "total_time", [1e-3, 5e-4])], (src,))


def test_signal_csv_round_trip(tmp_path):
    sig = EnsembleSignal(
        x=np.array([0.0, 1.0, 2.5]),
        y=np.array([1.0, 0.5, 0.25]),
        x_label="total_time_s",
        y_label="amplitude",
        metadata={"flip_fraction": 0.18, "note": "demo"},
    )
    path = tmp_path / "sig.csv"
    write_signal_csv(sig, path, deterministic=True)
    text = path.read_text()
    assert "total_time_s" in text and "# flip_fraction: 0.18" in text
    again = read_signal_csv(path)
    assert np.allclose(again.x, sig.x) and np.allclose(again.y, sig.y)
    assert again.x_label == sig.x_label and again.y_label == sig.y_label
    assert again.metadata["flip_fraction"] == 0.18
    # deterministic mode writes identical bytes on rewrite
    path2 = tmp_path / "sig2.csv"
    write_signal_csv(sig, path2, deterministic=True)
    assert path.read_bytes() == path2.read_bytes()
    path3 = tmp_path / "sig3.csv"
    write_signal_csv(sig, path3, deterministic=False)
    assert "written:" in path3.read_text()


def test_metadata_floats_read_back_as_floats(tmp_path):
    # a float in exponent form used to be written as 5e-05, which YAML 1.1
    # reads as a string
    source = field_source(lorentzian(0.0, 0.1))
    [sweep] = scans([("unbalanced_echo", {"total_time": 5e-05}, "flip_fraction", [0.1, 0.2])],
                    [source])
    values = {"total_time_s": 5e-05, "large": 1e+20, "numpy": np.float64(2.5e-07),
              "plain": 0.18, "infinite": -math.inf}
    sweep.metadata |= values
    path = tmp_path / "sweep.csv"
    write_signal_csv(sweep, path, deterministic=True)
    assert "# total_time_s: 5.0e-05" in path.read_text()
    metadata = read_signal_csv(path).metadata
    for key, value in values.items():
        assert type(metadata[key]) is float and metadata[key] == value, (key, metadata[key])


def test_metadata_values_read_back_as_written(tmp_path):
    # values used to be printed by hand: a tuple read back as the string
    # '(0, -1)', a float inside a list as '5e-05' and the string '1.0' as 1.0
    values = {"pair": (0, -1), "times": [5e-05, 1e-3], "number_like": "1.0",
              "comment_like": "a #b", "colon": "a: b", "numpy": np.float64(2.5e-07),
              "count": np.int64(7), "nested": {"b": [1e+20, -math.inf]}, "up": math.inf,
              "note": "two\nlines", "missing": math.nan}
    path = tmp_path / "table.csv"
    write_metadata_csv(path, "test/1", values, ("x", "n"),
                       [(0.5, 3), (np.float64(1e-05), None)], deterministic=True)
    schema, metadata, header, rows = read_metadata_csv(path)
    assert (schema, header, rows) == ("test/1", ["x", "n"], [["0.5", "3"], ["1e-05", ""]])
    assert math.isnan(metadata.pop("missing"))
    assert metadata == {key: value for key, value in values.items() if key != "missing"} | {
        "pair": [0, -1]}
    assert type(metadata["numpy"]) is float and type(metadata["count"]) is int
    # a file of metadata lines alone holds no table
    path.write_text("# test/1\n# pair: [0, -1]\n")
    with pytest.raises(ValueError, match="table.csv: no header line"):
        read_metadata_csv(path)


def test_non_finite_durations_rejected():
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            simulate_family([build_ramsey(bad)], [])
