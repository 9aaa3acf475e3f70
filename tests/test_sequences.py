"""Pulse sequences, ensemble signal simulation, and signal file round trips."""

import math

import numpy as np
import pytest

from nvecho.noise import (
    MonteCarloResult,
    field_source,
    gaussian,
    lorentzian,
    residual_field_source,
    temperature_source,
)
from nvecho.response import default_linear_response, default_quasiharmonic_set
from nvecho.sequences import (
    KINDS,
    EnsembleSignal,
    build_sequence,
    build_dq_ramsey,
    build_nuclear_echo,
    build_ramsey,
    build_unbalanced_echo,
    phase_sweep,
    read_signal_csv,
    scans,
    simulate_amplitude,
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


def test_ramsey_amplitude_closed_form():
    resp = default_linear_response()
    src = temperature_source(lorentzian(0.0, 5.0), response=resp)
    t = 1e-4
    result = simulate_amplitude(build_ramsey(t), (src,))
    expected = math.exp(-5.0 * TWO_PI * 39.0 * t)
    assert result.amplitude == pytest.approx(expected, rel=1e-12)
    # base phase carries the bare transition frequency
    assert result.base_phase == pytest.approx(TWO_PI * (4.945e6 - 307.7 * 239) * t, rel=1e-9)


def test_location_offset_moves_base_phase_not_amplitude():
    src = temperature_source(lorentzian(2.0, 5.0))
    t = 1e-4
    res = simulate_amplitude(build_ramsey(t), (src,))
    res0 = simulate_amplitude(build_ramsey(t), (temperature_source(lorentzian(0.0, 5.0)),))
    assert res.amplitude == pytest.approx(res0.amplitude, rel=1e-12)
    # (0, -1) branch: phase grows by -c_T * location with c_T = -t * slope_Q
    assert res.base_phase - res0.base_phase == pytest.approx(
        -t * TWO_PI * 39.0 * 2.0, rel=1e-9
    )
    assert res.mean_signal == pytest.approx(
        np.exp(1j * res.base_phase) * res.attenuation, rel=1e-12
    )


def test_unbalanced_echo_full_cancellation():
    resp = default_linear_response()
    src = temperature_source(lorentzian(0.0, 5.0), response=resp)
    t = 1e-3
    tau = t * resp.quadrupole_per_K / resp.hyperfine_per_K
    result = simulate_amplitude(build_unbalanced_echo(t, tau), (src,))
    assert result.amplitude == pytest.approx(1.0, abs=1e-12)


def test_residual_field_sets_protected_ceiling():
    src = residual_field_source(dq_coherence_time=3.9e-3)
    gamma_n_mag = TWO_PI * 307.7
    t2 = 1.0 / (gamma_n_mag * src.distribution.scale)
    result = simulate_amplitude(build_ramsey(t2), (src,))
    assert result.amplitude == pytest.approx(1.0 / math.e, rel=1e-12)
    # double-quantum branch decays twice as fast
    result_dq = simulate_amplitude(build_dq_ramsey(t2 / 2), (src,))
    assert result_dq.amplitude == pytest.approx(1.0 / math.e, rel=1e-12)


def test_nuclear_echo_refocuses_every_linear_source():
    sources = (
        temperature_source(lorentzian(0.4, 8.0)),
        field_source(gaussian(0.0, 0.3)),
    )
    result = simulate_amplitude(build_nuclear_echo(1e-3, pair=(0, -1), m_S=0), sources)
    assert result.amplitude == pytest.approx(1.0, abs=1e-12)
    assert result.base_phase == pytest.approx(0.0, abs=1e-9)


def test_sources_choose_closed_form_or_monte_carlo():
    linear = (temperature_source(lorentzian(0.0, 5.0)), field_source(gaussian(0.0, 0.3)))
    hot = temperature_source(lorentzian(300.0, 25.0), response=default_quasiharmonic_set())
    seq = build_ramsey(1e-4)
    # all-linear ensembles take the exact characteristic-function product
    assert simulate_amplitude(seq, linear).monte_carlo is None
    # one quasiharmonic source sends the whole ensemble through Monte Carlo
    mixed = simulate_amplitude(seq, linear + (hot,), n_samples=1 << 14, seed=SEED)
    assert isinstance(mixed.monte_carlo, MonteCarloResult)
    assert mixed.monte_carlo.n_samples == 1 << 14
    assert 0.0 < mixed.amplitude < 1.0
    # and there is no keyword to override the choice
    with pytest.raises(TypeError):
        simulate_amplitude(seq, linear, backend="monte_carlo")


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
    swept = phase_sweep(build_ramsey(1e-4), (hot,), [0.0], n_samples=1 << 12, seed=3)
    assert swept.metadata["seed"] == 3


def test_phase_sweep_readout():
    # S(phi) = maximum - c/2 + (c/2) Re[e^{i phi} <e^{i phase}>], so the
    # fringe peaks where phi cancels the accumulated phase.
    src = temperature_source(lorentzian(0.0, 5.0))
    seq = build_ramsey(1e-4)
    res = simulate_amplitude(seq, (src,))
    phases = -res.base_phase + np.array([0.0, math.pi / 2, math.pi])
    signal = phase_sweep(seq, (src,), phases)
    assert isinstance(signal, EnsembleSignal)
    amp = res.amplitude
    assert signal.y[0] == pytest.approx(0.5 + 0.5 * amp, rel=1e-9)
    assert signal.y[1] == pytest.approx(0.5, abs=1e-9)
    assert signal.y[2] == pytest.approx(0.5 - 0.5 * amp, rel=1e-9)
    scaled = phase_sweep(seq, (src,), phases, contrast=0.4, maximum=0.6)
    assert scaled.y[0] == pytest.approx(0.4 + 0.2 * amp, rel=1e-9)


def test_phase_sweep_without_noise_reaches_unit_contrast():
    seq = build_ramsey(2e-4)
    res = simulate_amplitude(seq, ())
    assert res.amplitude == 1.0
    phases = -res.base_phase + np.array([0.0, math.pi])
    signal = phase_sweep(seq, (), phases)
    assert signal.y[0] == pytest.approx(1.0, rel=1e-12)
    assert signal.y[1] == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError):
        phase_sweep(seq, (), [])


def test_phase_sweep_full_dephasing_leaves_midpoint():
    src = temperature_source(lorentzian(0.0, 1e6))
    seq = build_ramsey(1e-3)
    signal = phase_sweep(seq, (src,), np.linspace(0, 2 * math.pi, 7))
    assert np.allclose(signal.y, 0.5, atol=1e-9)


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
    seq = build_ramsey(1e-3)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            phase_sweep(seq, (src,), [0.0, bad, math.pi])


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
    res = simulate_amplitude(build_ramsey(t2, pair=(0, +1), m_S=+1), (src,))
    assert res.amplitude == pytest.approx(1.0 / math.e, rel=1e-9)


def test_unprotected_rate_with_residual_share():
    # Temperature ensemble plus the residual field share: the m_S = 0 rate
    # gains 1/(7.8 ms) on top of 2 pi 39 * 5.
    sources = (
        temperature_source(lorentzian(0.0, 5.0)),
        residual_field_source(dq_coherence_time=3.9e-3),
    )
    t = 7.4e-4
    res = simulate_amplitude(build_ramsey(t), sources)
    rate = -math.log(res.amplitude) / t
    assert rate == pytest.approx(TWO_PI * 39.0 * 5.0 + 1.0 / 7.8e-3, rel=1e-9)
    assert 1.0 / rate == pytest.approx(0.74e-3, rel=0.01)


def test_dq_ramsey_immune_to_quadrupole_noise():
    src = temperature_source(lorentzian(0.0, 8.0))
    res = simulate_amplitude(build_dq_ramsey(1e-3), (src,))
    assert res.amplitude == pytest.approx(1.0, abs=1e-12)


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


def test_non_finite_durations_rejected():
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            simulate_amplitude(build_ramsey(bad), [])
