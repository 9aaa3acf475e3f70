"""Line-oriented pulse-sequence scripts.

The language mirrors how a sequence is drawn on a timeline:

    # coherence protection
    pair 0 -1
    evolve 1.148ms ms=0
    flip-e ms=+1
    evolve 252us ms=+1

``pair`` names the nuclear superposition, ``evolve`` appends a free-evolution
segment (duration with a mandatory time unit), ``flip-e`` moves the electron
to a new manifold, and ``flip-n`` is a nuclear pi pulse that inverts further
phase accumulation.  ``#`` starts a comment.  Scripts begin with the electron
in m_S = 0.

Errors carry 1-based line and column positions of the offending token.
``format_sequence_script`` is the canonical printer: parse -> print -> parse
is a fixed point, with durations emitted in seconds via repr so no precision
is lost.  Only ``nvecho parse-seq`` reads scripts; a config names its
sequence by a ``pulses.KINDS`` kind.
"""

from __future__ import annotations

import re

from .pulses import PROJECTIONS, PulseSequence, Segment, format_projection
from .units import QuantityError, parse_quantity

_TOKEN = re.compile(r"\S+")
_MS_ARG = re.compile(r"^ms=([+-]?\d+)$")


class ScriptError(ValueError):
    """A sequence script failed to parse; points at the offending token."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


def _tokenize(text: str):
    """Yield (line_number, [(token, column), ...]) skipping comments/blanks."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        code = raw.split("#", 1)[0]
        tokens = [(m.group(0), m.start() + 1) for m in _TOKEN.finditer(code)]
        if tokens:
            yield lineno, tokens


def _parse_projection(token: str, line: int, column: int, what: str) -> int:
    try:
        value = int(token)
    except ValueError:
        raise ScriptError(
            f"invalid {token!r}; {what} must be one of -1, 0, +1", line, column
        ) from None
    if value not in PROJECTIONS:
        raise ScriptError(
            f"invalid {token!r}; {what} must be one of -1, 0, +1", line, column
        )
    return value


def _parse_ms_arg(token: str, line: int, column: int) -> int:
    m = _MS_ARG.match(token)
    if not m:
        raise ScriptError(
            f"expected ms=<-1|0|+1>, got unexpected argument {token!r}", line, column
        )
    return _parse_projection(m.group(1), line, column, f"invalid {token!r}: m_S")


def parse_sequence_script(text: str) -> PulseSequence:
    """Parse script text into a single PulseSequence.

    Its ``kind`` is read from the segments alone (``PulseSequence.kind``),
    so a script and its printed form agree: a trailing or cancelled flip-n
    changes no segment.
    """
    pair = None
    current_ms = 0
    current_sign = 1
    segments = []
    last_evolve = (1, 1)
    lineno = 1

    for lineno, tokens in _tokenize(text):
        (word, col), args = tokens[0], tokens[1:]
        if word == "pair":
            if pair is not None:
                raise ScriptError("pair may only be declared once", lineno, col)
            if len(args) != 2:
                raise ScriptError("pair needs exactly two m_I values", lineno, col)
            values = [
                _parse_projection(tok, lineno, c, "m_I") for tok, c in args
            ]
            if values[0] == values[1]:
                raise ScriptError(
                    "pair values must be distinct levels", lineno, args[1][1]
                )
            pair = tuple(values)
        elif word == "evolve":
            if pair is None:
                raise ScriptError("declare pair before evolve", lineno, col)
            if not args:
                raise ScriptError("evolve needs a duration", lineno, col)
            dur_tok, dur_col = args[0]
            try:
                duration = parse_quantity(dur_tok, "time")
            except QuantityError as exc:
                raise ScriptError(str(exc), lineno, dur_col) from None
            if duration < 0:
                raise ScriptError(
                    f"duration must be >= 0, got {dur_tok!r}", lineno, dur_col
                )
            if len(args) > 2:
                extra_tok, extra_col = args[2]
                raise ScriptError(
                    f"unexpected argument {extra_tok!r}", lineno, extra_col
                )
            if len(args) == 2:
                ms_tok, ms_col = args[1]
                declared = _parse_ms_arg(ms_tok, lineno, ms_col)
                if declared != current_ms:
                    raise ScriptError(
                        f"segment declares m_S = {declared} but the electron is "
                        f"in m_S = {current_ms}; add a flip-e", lineno, ms_col,
                    )
            segments.append(Segment(duration, current_ms, sign=current_sign))
            last_evolve = (lineno, col)
        elif word == "flip-e":
            if pair is None:
                raise ScriptError("declare pair before any pulses", lineno, col)
            if len(args) != 1:
                raise ScriptError(
                    "flip-e needs an ms=<value> argument", lineno, col
                )
            ms_tok, ms_col = args[0]
            target = _parse_ms_arg(ms_tok, lineno, ms_col)
            if target == current_ms:
                raise ScriptError(
                    f"electron already in m_S = {current_ms}", lineno, ms_col
                )
            current_ms = target
        elif word == "flip-n":
            if pair is None:
                raise ScriptError("declare pair before any pulses", lineno, col)
            if args:
                raise ScriptError(
                    f"flip-n takes no arguments, got {args[0][0]!r}",
                    lineno, args[0][1],
                )
            current_sign = -current_sign
        else:
            raise ScriptError(f"unknown directive {word!r}", lineno, col)

    if not segments:
        raise ScriptError("script defines no evolution segments", lineno, 1)
    if sum(seg.duration for seg in segments) <= 0:
        raise ScriptError(
            "sequence must have positive total duration", *last_evolve
        )

    return PulseSequence(pair, tuple(segments))


def format_sequence_script(sequence: PulseSequence) -> str:
    """Canonical script text for a sequence; inverse of parse_sequence_script."""
    lines = [f"pair {format_projection(sequence.pair[0])} {format_projection(sequence.pair[1])}"]
    current_ms = 0
    current_sign = 1
    for seg in sequence.segments:
        if seg.sign != current_sign:
            lines.append("flip-n")
            current_sign = seg.sign
        if seg.m_S != current_ms:
            lines.append(f"flip-e ms={format_projection(seg.m_S)}")
            current_ms = seg.m_S
        lines.append(f"evolve {seg.duration!r}s ms={format_projection(current_ms)}")
    return "\n".join(lines) + "\n"
