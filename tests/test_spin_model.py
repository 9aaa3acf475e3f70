"""Transition frequencies and phase accumulation against a level oracle.

Expected frequencies are frozen by hand from the secular level formula
E(m_I; m_S) = Q m_I^2 + m_S A m_I + gamma_n B m_I with the default
constants (|Q| = 4.945 MHz, |A_zz| = 2.16 MHz, |gamma_n| B = 73540.3 Hz).
A line's frequency is the magnitude of the phase of one second on its pair
and manifold, so the frequencies and the phases are both checked through
the linear phase model (``phase_coefficients``, ``accumulated_phase``),
against a brute-force oracle that differences per-level energies with
per-segment offsets, so it meets independent arithmetic.
"""

import math
import subprocess
import sys

import numpy as np
import pytest

from nvecho.noise import lorentzian, residual_field_source
from nvecho.pulses import DOUBLE_QUANTUM_PAIR, build_sequence
from nvecho.response import LinearResponse, default_linear_response
from nvecho.spin_model import (
    Segment,
    SpinSystemParams,
    accumulated_phase,
    default_params,
    pair_sensitivity,
    phase_coefficients,
    stack_coefficients,
)
from nvecho.units import TWO_PI, angular

# Magnitudes in Hz used to freeze the six-line table.
Q_HZ = 4.945e6
A_HZ = 2.16e6
ZEEMAN_HZ = 307.7 * 239  # 73540.3

EXPECTED_LINES_HZ = {
    1: ((0, +1), 0, Q_HZ + ZEEMAN_HZ),          # 5 018 540.3
    2: ((0, -1), 0, Q_HZ - ZEEMAN_HZ),          # 4 871 459.7
    3: ((0, +1), -1, Q_HZ - A_HZ + ZEEMAN_HZ),  # 2 858 540.3
    4: ((0, -1), -1, Q_HZ + A_HZ - ZEEMAN_HZ),  # 7 031 459.7
    5: ((0, +1), +1, Q_HZ + A_HZ + ZEEMAN_HZ),  # 7 178 540.3
    6: ((0, -1), +1, Q_HZ - A_HZ - ZEEMAN_HZ),  # 2 711 459.7
}


def test_default_constants():
    p = default_params()
    assert p.quadrupole == pytest.approx(-TWO_PI * 4.945e6)
    assert p.hyperfine == pytest.approx(-TWO_PI * 2.16e6)
    assert p.gamma_n == pytest.approx(-TWO_PI * 307.7)
    assert p.field_gauss == 239.0


def _energy(p, m_I, m_S, d_q=0.0, d_a=0.0, d_b=0.0):
    """Secular level energy with (dQ, dA, dB) offsets, rad/s: the oracle's
    own arithmetic, independent of the sensitivity tables under test."""
    return ((p.quadrupole + d_q) * m_I * m_I + m_S * (p.hyperfine + d_a) * m_I
            + p.gamma_n * (p.field_gauss + d_b) * m_I)


def _oracle_phase(p, pair, segments, offsets=None):
    """Brute-force phase: -sum sign * duration * (E(target) - E(reference)),
    each segment with its own (dQ, dA, dB) offsets."""
    ref, target = pair
    offsets = offsets or [(0.0, 0.0, 0.0)] * len(segments)
    return -sum(seg.sign * seg.duration
                * (_energy(p, target, seg.m_S, *o) - _energy(p, ref, seg.m_S, *o))
                for seg, o in zip(segments, offsets))


def _phase(p, pair, segments):
    return accumulated_phase(p, phase_coefficients(p, pair, segments))


def _line_frequency(p, pair, m_S, d_q=0.0, d_a=0.0):
    """|phase| of one second on ``pair`` in manifold ``m_S``, rad/s, with
    (dQ, dA) shifts entering through the phase coefficients."""
    c = phase_coefficients(p, pair, [Segment(1.0, m_S)])
    return abs(accumulated_phase(p, c) + c.quadrupole * d_q + c.hyperfine * d_a)


def _six_lines(p, d_q=0.0, d_a=0.0):
    return {index: _line_frequency(p, pair, m_S, d_q, d_a)
            for index, (pair, m_S, _) in EXPECTED_LINES_HZ.items()}


def test_level_energy_examples():
    p = default_params()
    assert _energy(p, 0, 0) == 0.0
    assert _energy(p, 0, +1) == 0.0
    assert _energy(p, +1, 0) == pytest.approx(-TWO_PI * (Q_HZ + ZEEMAN_HZ), rel=1e-12)
    assert _energy(p, -1, +1) == pytest.approx(
        -TWO_PI * (Q_HZ - A_HZ - ZEEMAN_HZ), rel=1e-12
    )
    assert _energy(p, -1, -1) == pytest.approx(
        -TWO_PI * (Q_HZ + A_HZ - ZEEMAN_HZ), rel=1e-12
    )


def test_level_energy_with_shift():
    p = default_params()
    expected = -TWO_PI * (Q_HZ + A_HZ + ZEEMAN_HZ) + angular(120.0) + angular(-300.0)
    assert _energy(p, +1, +1, angular(120.0), angular(-300.0)) == pytest.approx(
        expected, rel=1e-12)
    # every pair and manifold: the transition frequency is the level difference
    d_q, d_a = angular(120.0), angular(-300.0)
    for pair in ((0, +1), (0, -1), (-1, +1), (+1, 0)):
        for m_S in (-1, 0, 1):
            levels = [_energy(p, m, m_S, d_q, d_a) for m in pair]
            assert _line_frequency(p, pair, m_S, d_q, d_a) == pytest.approx(
                abs(levels[1] - levels[0]), rel=1e-12), (pair, m_S)


def test_six_line_frequencies():
    p = default_params()
    for pair, m_S, expected_hz in EXPECTED_LINES_HZ.values():
        freq = _line_frequency(p, pair, m_S)
        assert freq == pytest.approx(TWO_PI * expected_hz, rel=1e-12), (pair, m_S)


def test_transition_frequency_is_orientation_free():
    p = default_params()
    assert _line_frequency(p, (0, +1), -1) == _line_frequency(p, (+1, 0), -1)


def test_double_quantum_frequency():
    p = default_params()
    assert DOUBLE_QUANTUM_PAIR == (-1, +1)
    assert _line_frequency(p, (-1, +1), 0) == pytest.approx(
        TWO_PI * 2 * ZEEMAN_HZ, rel=1e-12
    )
    # m_S = +1 manifold picks up twice the hyperfine on top of the Zeeman part
    assert _line_frequency(p, (-1, +1), +1) == pytest.approx(
        TWO_PI * (2 * A_HZ + 2 * ZEEMAN_HZ), rel=1e-12
    )


def test_single_quantum_table_ordering_and_identities():
    p = default_params()
    w = _six_lines(p)
    for idx, (_, _, expected_hz) in EXPECTED_LINES_HZ.items():
        assert w[idx] == pytest.approx(TWO_PI * expected_hz, rel=1e-12)
    assert (w[1] + w[2]) / 2 == pytest.approx(TWO_PI * Q_HZ, rel=1e-12)
    assert (w[4] + w[5] - w[3] - w[6]) / 4 == pytest.approx(TWO_PI * A_HZ, rel=1e-12)


def test_table_identities_survive_finite_shifts():
    # The magnitude combinations isolate |Q| and |A| exactly, even for
    # finite shifts, and stay blind to field offsets.  Both couplings are
    # negative, so a positive signed shift shrinks the magnitude.
    p = default_params()
    p_shifted = SpinSystemParams(field_gauss=p.field_gauss + 0.5)
    w = _six_lines(p_shifted, angular(75.0), angular(-140.0))
    assert (w[1] + w[2]) / 2 == pytest.approx(TWO_PI * Q_HZ - angular(75.0), rel=1e-12)
    assert (w[4] + w[5] - w[3] - w[6]) / 4 == pytest.approx(
        TWO_PI * A_HZ - angular(-140.0), rel=1e-12
    )


def test_parameter_validation():
    with pytest.raises(ValueError):
        SpinSystemParams(hyperfine=angular(-6.0e6))  # |A| > |Q| breaks the ordering
    with pytest.raises(ValueError):
        SpinSystemParams(field_gauss=2.0e4)  # nuclear Zeeman would exceed |Q|
    with pytest.raises(ValueError):
        SpinSystemParams(field_gauss=-1.0)
    for name, bad in (("gamma_n", math.nan), ("quadrupole", math.inf), ("field_gauss", math.nan)):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            SpinSystemParams(**{name: bad})


def _not_a_number(field):
    return f"{field} must be a plain number"


@pytest.mark.parametrize("build, message", [
    (lambda: LinearResponse(quadrupole_per_K=True), _not_a_number("quadrupole_per_K")),
    (lambda: SpinSystemParams(field_gauss=True), _not_a_number("field_gauss")),
    (lambda: SpinSystemParams(field_gauss=np.array([239.0])), _not_a_number("field_gauss")),
    (lambda: lorentzian(0.0, np.array([1.0])), _not_a_number("scale")),
    (lambda: build_sequence("ramsey", np.array([1e-3])), _not_a_number("total_time")),
    (lambda: build_sequence("dq_ramsey", np.array([1e-3])), _not_a_number("total_time")),
    (lambda: build_sequence("unbalanced_echo", 2e-3, flip_fraction=np.array([0.15])),
     _not_a_number("flip_fraction")),
    (lambda: build_sequence("nuclear_echo", np.array([1e-3])), _not_a_number("total_time")),
    (lambda: residual_field_source(np.array([3.9e-3])), _not_a_number("dq_coherence_time")),
    (lambda: Segment(np.array([1e-3]), 0), _not_a_number("segment duration")),
    (lambda: Segment(1e-3, 0, sign=np.array([-1])),
     r"segment sign must be \+1 or -1, got array\(\[-1\]\)"),
    (lambda: Segment(1e-3, 0, sign=1.0), r"segment sign must be \+1 or -1, got 1.0"),
], ids=["bool-slope", "bool-field", "array-field", "array-width", "array-ramsey",
        "array-dq-ramsey", "array-unbalanced-echo", "array-nuclear-echo",
        "array-residual-field", "array-segment-duration", "array-segment-sign",
        "float-segment-sign"])
def test_a_bool_or_an_array_is_not_a_number(build, message):
    # a bool used to be taken as 1, and a one-element array to raise numpy's
    # TypeError from inside the check; a segment took a float or an array
    # sign, and simulate_family ran on it
    with pytest.raises(ValueError, match=message):
        build()


def test_spin_model_loads_without_the_response_layer():
    # the couplings and the phase need neither the response models, their
    # solver nor PyYAML
    code = ("import sys, nvecho.spin_model; print(sorted({'nvecho.response', "
            "'nvecho.solvers', 'yaml'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_spin_projection_validation():
    p = default_params()
    with pytest.raises(ValueError, match="pair"):
        _line_frequency(p, (2, 0), 0)
    with pytest.raises(ValueError, match="m_S"):
        _line_frequency(p, (0, 1), -2)
    with pytest.raises(ValueError):
        _line_frequency(p, (0, 0), 0)  # degenerate pair
    with pytest.raises(ValueError):
        Segment(duration=-1e-6, m_S=0)
    with pytest.raises(ValueError):
        Segment(duration=1e-6, m_S=3)


def test_pair_sensitivity_channels():
    gn = default_params().gamma_n
    assert pair_sensitivity((0, +1), 0, gn) == (1, 0, gn)
    assert pair_sensitivity((0, -1), +1, gn) == (1, -1, -gn)
    assert pair_sensitivity((-1, +1), 0, gn) == (0, 0, 2 * gn)
    assert pair_sensitivity((-1, +1), -1, gn) == (0, -2, 2 * gn)


def test_unbalanced_echo_phase_formula():
    # Pair (0, -1), free in m_S = 0 for t - tau, flipped to m_S = +1 for tau:
    # phase = -t Q + tau A + t gamma_n B  (signs from the target-minus-reference
    # energy and the overall minus of phase accumulation).
    p = default_params()
    t, tau = 100e-6, 20e-6
    segments = (Segment(t - tau, 0), Segment(tau, +1))
    expected = -t * p.quadrupole + tau * p.hyperfine + t * p.gamma_n * p.field_gauss
    assert _phase(p, (0, -1), segments) == pytest.approx(expected, rel=1e-12)
    assert _oracle_phase(p, (0, -1), segments) == pytest.approx(expected, rel=1e-12)


def test_phase_coefficients_unbalanced_echo():
    p = default_params()
    t, tau = 100e-6, 20e-6
    c = phase_coefficients(p, (0, -1), (Segment(t - tau, 0), Segment(tau, +1)))
    assert c.quadrupole == pytest.approx(-t, rel=1e-12)
    assert c.hyperfine == pytest.approx(tau, rel=1e-12)
    assert c.field == pytest.approx(t * p.gamma_n, rel=1e-12)
    # Same pulse timing on the other single-quantum branch: no cancellation,
    # the hyperfine coefficient keeps the quadrupole sign.
    c_plus = phase_coefficients(p, (0, +1), (Segment(t - tau, 0), Segment(tau, +1)))
    assert c_plus.quadrupole == pytest.approx(-t, rel=1e-12)
    assert c_plus.hyperfine == pytest.approx(-tau, rel=1e-12)
    assert c_plus.field == pytest.approx(-t * p.gamma_n, rel=1e-12)


def test_temperature_phase_cancellation_at_slope_ratio():
    # Fractional flip time = slope ratio kills the temperature response of
    # the (0, -1) branch completely.
    p = default_params()
    resp = default_linear_response()
    t = 1e-3
    tau = t * resp.quadrupole_per_K / resp.hyperfine_per_K
    d_T = 0.8
    segments = (Segment(t - tau, 0), Segment(tau, +1))
    c = phase_coefficients(p, (0, -1), segments)
    d_phi = c.quadrupole * resp.quadrupole_per_K * d_T + c.hyperfine * resp.hyperfine_per_K * d_T
    scale = abs(t * resp.quadrupole_per_K * d_T)
    assert abs(d_phi) < 1e-12 * scale
    # The brute-force phase agrees too, up to rounding of the large base phase.
    offsets = [(resp.quadrupole_per_K * d_T, resp.hyperfine_per_K * d_T, 0.0)] * 2
    phi = _oracle_phase(p, (0, -1), segments, offsets)
    phi0 = _oracle_phase(p, (0, -1), segments)
    assert abs(phi - phi0) < 1e-12 * abs(phi0)


def test_temperature_phase_no_cancellation_other_branch():
    p = default_params()
    resp = default_linear_response()
    t = 1e-3
    tau = t * resp.quadrupole_per_K / resp.hyperfine_per_K
    d_T = 0.8
    d_q, d_a = resp.quadrupole_per_K * d_T, resp.hyperfine_per_K * d_T
    segments = (Segment(t - tau, 0), Segment(tau, +1))
    phi = _oracle_phase(p, (0, +1), segments, [(d_q, d_a, 0.0)] * 2)
    phi0 = _oracle_phase(p, (0, +1), segments)
    expected = -(t * resp.quadrupole_per_K + tau * resp.hyperfine_per_K) * d_T
    assert phi - phi0 == pytest.approx(expected, rel=1e-10)
    c = phase_coefficients(p, (0, +1), segments)
    assert c.quadrupole * d_q + c.hyperfine * d_a == pytest.approx(expected, rel=1e-12)


def _random_sequence(rng):
    pair = [(0, 1), (0, -1), (-1, 1), (1, 0), (1, -1)][rng.integers(5)]
    segments = [Segment(float(rng.uniform(0, 1e-3)), int(rng.integers(-1, 2)),
                        sign=int(rng.choice([-1, 1])))
                for _ in range(rng.integers(1, 5))]
    return pair, segments


def test_phase_matches_the_brute_force_oracle():
    # The linear model against level differencing, for one sequence and for
    # a stacked family, whose members each get their own phase bit for bit.
    p = default_params()
    rng = np.random.default_rng(7)
    family = [_random_sequence(rng) for _ in range(50)]
    coefficients = [phase_coefficients(p, pair, segments) for pair, segments in family]
    for (pair, segments), c in zip(family, coefficients):
        scale = sum(seg.duration for seg in segments) * abs(p.quadrupole)
        assert accumulated_phase(p, c) == pytest.approx(
            _oracle_phase(p, pair, segments), rel=1e-12, abs=1e-13 * scale)
    stacked = accumulated_phase(p, stack_coefficients(coefficients))
    assert stacked.tolist() == [accumulated_phase(p, c) for c in coefficients]


def test_phase_is_linear_in_shifts():
    # Random sequences with random per-segment offsets: the brute-force phase
    # change equals the per-segment coefficient contraction, because level
    # energies are linear in the offsets.
    p = default_params()
    rng = np.random.default_rng(2024)
    for _ in range(25):
        pair, segments = _random_sequence(rng)
        offsets = [(angular(rng.normal(0, 200)), angular(rng.normal(0, 200)),
                    float(rng.normal(0, 0.5))) for _ in segments]
        phi = _oracle_phase(p, pair, segments, offsets)
        phi0 = _oracle_phase(p, pair, segments)
        linear = 0.0
        for seg, (d_q, d_a, d_b) in zip(segments, offsets):
            c = phase_coefficients(p, pair, [seg])
            linear += c.quadrupole * d_q + c.hyperfine * d_a + c.field * d_b
        assert phi - phi0 == pytest.approx(linear, rel=1e-9, abs=1e-9)


def test_phase_invariant_under_segment_split():
    p = default_params()
    offset = [(angular(50.0), 0.0, 0.0)]
    whole = (Segment(4e-4, +1),)
    halves = (Segment(1e-4, +1), Segment(3e-4, +1))
    assert _phase(p, (0, -1), whole) == pytest.approx(_phase(p, (0, -1), halves), rel=1e-12)
    assert _oracle_phase(p, (0, -1), whole, offset) == pytest.approx(
        _oracle_phase(p, (0, -1), halves, offset * 2), rel=1e-12
    )


def test_nuclear_pi_pulse_refocuses_static_shifts():
    # Equal durations with opposite accumulation signs cancel any static
    # energy difference, shifts included.
    p = default_params()
    segs = (Segment(2e-4, +1, sign=+1), Segment(2e-4, +1, sign=-1))
    offsets = [(angular(80.0), angular(-60.0), 0.1)] * 2
    assert _oracle_phase(p, (0, -1), segs, offsets) == 0.0
    c = phase_coefficients(p, (0, -1), segs)
    assert c.quadrupole == 0.0 and c.hyperfine == 0.0 and c.field == 0.0
    assert accumulated_phase(p, c) == 0.0
    with pytest.raises(ValueError):
        Segment(1e-6, 0, sign=2)


def test_field_offset_enters_through_zeeman_channel():
    p = default_params()
    t = 2e-4
    segs = (Segment(t, 0),)
    c = phase_coefficients(p, (0, -1), segs)
    d_B = 0.25
    p_off = SpinSystemParams(field_gauss=p.field_gauss + d_B)
    assert accumulated_phase(p_off, c) - accumulated_phase(p, c) == pytest.approx(
        c.field * d_B, rel=1e-9)
    phi = _oracle_phase(p, (0, -1), segs, [(0.0, 0.0, d_B)])
    assert phi - _oracle_phase(p, (0, -1), segs) == pytest.approx(c.field * d_B, rel=1e-9)
