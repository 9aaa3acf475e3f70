"""Pulse-sequence mini-language: parsing, diagnostics, canonical printing."""

import pytest

from nvecho.noise import lorentzian, temperature_source
from nvecho.script import ScriptError, format_sequence_script, parse_sequence_script
from nvecho.pulses import (
    build_dq_ramsey,
    build_nuclear_echo,
    build_ramsey,
    build_unbalanced_echo,
)
from nvecho.sequences import simulate_family

PROTECTION_SCRIPT = """\
# coherence protection: flip the electron 252 us before readout
pair 0 -1
evolve 1.148ms ms=0
flip-e ms=+1
evolve 252us ms=+1
"""


def test_minimal_ramsey():
    seq = parse_sequence_script("pair 0 -1\nevolve 1ms ms=0\n")
    assert seq.kind == "ramsey"
    assert seq.pair == (0, -1)
    assert len(seq.segments) == 1
    assert seq.segments[0].duration == pytest.approx(1e-3, rel=1e-15)
    assert seq.segments[0].m_S == 0


def test_protection_script_is_unbalanced_echo():
    seq = parse_sequence_script(PROTECTION_SCRIPT)
    assert seq.kind == "unbalanced_echo"
    assert seq.pair == (0, -1)
    assert [seg.m_S for seg in seq.segments] == [0, 1]
    assert seq.total_time == pytest.approx(1.4e-3, rel=1e-12)
    assert seq.segments[1].duration / seq.total_time == pytest.approx(0.18, rel=1e-12)


def test_script_matches_builder_in_simulation():
    src = temperature_source(lorentzian(0.0, 5.0))
    scripted = simulate_family([parse_sequence_script(PROTECTION_SCRIPT)], (src,))
    built = simulate_family([build_unbalanced_echo(1.4e-3, 0.252e-3)], (src,))
    assert scripted.attenuation[0] == built.attenuation[0]
    assert scripted.base_phase[0] == built.base_phase[0]


def test_dq_pair_classifies_as_dq_ramsey():
    seq = parse_sequence_script("pair -1 +1\nevolve 1ms ms=0\n")
    assert seq.kind == "dq_ramsey"
    assert seq.pair == (-1, 1)


def test_nuclear_echo_classification():
    seq = parse_sequence_script(
        "pair 0 -1\nevolve 0.5ms ms=0\nflip-n\nevolve 0.5ms ms=0\n"
    )
    assert seq.kind == "nuclear_echo"
    assert seq.segments[0].duration == pytest.approx(0.5e-3, rel=1e-15)
    assert [seg.sign for seg in seq.segments] == [1, -1]
    built = build_nuclear_echo(1e-3, pair=(0, -1), m_S=0)
    assert seq.segments == built.segments


def test_evolve_inherits_electron_state():
    seq = parse_sequence_script("pair 0 -1\nevolve 1ms\nflip-e ms=+1\nevolve 1ms\n")
    assert [seg.m_S for seg in seq.segments] == [0, 1]


def test_three_segments_classify_as_custom():
    seq = parse_sequence_script(
        "pair 0 -1\n"
        "evolve 1ms ms=0\n"
        "flip-e ms=+1\n"
        "evolve 1ms ms=+1\n"
        "flip-e ms=0\n"
        "evolve 1ms ms=0\n"
    )
    assert seq.kind == "custom"
    assert len(seq.segments) == 3


def test_comments_and_blank_lines_ignored():
    seq = parse_sequence_script(
        "\n# header\npair 0 -1   # trailing comment\n\nevolve 1ms ms=0\n"
    )
    assert seq.kind == "ramsey"


@pytest.mark.parametrize(
    "text, line, column, fragment",
    [
        ("pair 0 -1\nevolve -1ms ms=0\n", 2, 8, "-1ms"),
        ("pair 0 -1\nwiggle 3\n", 2, 1, "wiggle"),
        ("pair 0 -1\nevolve 1parsec ms=0\n", 2, 8, "parsec"),
        ("pair 0 -2\nevolve 1ms ms=0\n", 1, 8, "-2"),
        ("pair 0 -1\nevolve 1ms ms=2\n", 2, 12, "ms=2"),
        ("pair 0 -1\nflip-e ms=0\nevolve 1ms\n", 2, 8, "already"),
        ("pair 0 -1\nflip-e\nevolve 1ms\n", 2, 1, "ms="),
        ("pair 0 -1\npair 0 +1\nevolve 1ms\n", 2, 1, "once"),
        ("evolve 1ms ms=0\n", 1, 1, "pair"),
        ("pair 0 -1\nflip-n now\nevolve 1ms\n", 2, 8, "argument"),
        ("pair 0 0\nevolve 1ms\n", 1, 8, "distinct"),
        ("pair 0 -1\nflip-e ms=+1\nevolve 1ms ms=0\n", 3, 12, "flip-e"),
        ("pair 0 -1\nevolve 1ms ms=0 extra\n", 2, 17, "extra"),
    ],
)
def test_diagnostics_carry_line_and_column(text, line, column, fragment):
    with pytest.raises(ScriptError) as excinfo:
        parse_sequence_script(text)
    err = excinfo.value
    assert err.line == line
    assert err.column == column
    assert fragment in str(err)
    assert f"line {line}, column {column}" in str(err)


def test_empty_and_zero_length_scripts_rejected():
    with pytest.raises(ScriptError, match="no evolution"):
        parse_sequence_script("pair 0 -1\n# nothing else\n")
    with pytest.raises(ScriptError, match="positive total"):
        parse_sequence_script("pair 0 -1\nevolve 0ms ms=0\n")


def test_parse_print_parse_is_fixed_point():
    first = parse_sequence_script(PROTECTION_SCRIPT)
    text = format_sequence_script(first)
    second = parse_sequence_script(text)
    assert second == first
    assert format_sequence_script(second) == text


@pytest.mark.parametrize(
    "seq",
    [
        build_ramsey(5e-4, pair=(0, +1), m_S=-1),
        build_dq_ramsey(1e-3),
        build_unbalanced_echo(1.4e-3, 0.252e-3),
        build_unbalanced_echo(2e-3, 0.0),
        build_nuclear_echo(4e-4, pair=(0, -1), m_S=1),
    ],
)
def test_builders_round_trip_through_printer(seq):
    again = parse_sequence_script(format_sequence_script(seq))
    assert again == seq
    assert again.kind == seq.kind
