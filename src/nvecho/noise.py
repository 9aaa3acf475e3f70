"""Shot-to-shot noise ensembles and their effect on the mean signal.

A noise source couples one scalar random variable (temperature, field, or
strain) to the interactions through the slopes, or the quasiharmonic curves,
its factory took from the response.  The mean signal after a sequence is

    <e^{i phase}> = e^{i phase(locations)} * <e^{i (phase - phase(locations))}>

the deterministic phase at the distribution locations
(``NoiseSource.location_phase``) times the attenuation about them, which
both ensemble averages return.  When every source enters the phase linearly
the attenuation is exactly prod_j A_j(c_j) (``dephasing_factor``), with c_j
source j's scalar phase coefficient and A_j its distribution's
characteristic function about the location (``Distribution.attenuation``);
sources on quasiharmonic curves are nonlinear and go through the Monte Carlo
path (``monte_carlo_attenuation``).
``sequences.simulate_family`` picks between the two from the sources'
``is_linear`` and adds the location phase.

Both paths evaluate a whole family of sequences (a sweep or a decay scan)
at once, given as a list of PhaseCoefficients, and return one attenuation
per member.  The closed form is each member's real product on Python
floats, with libm's ``exp``, so its bits do not follow numpy's SIMD level
and it imports no numpy; ``monte_carlo_attenuation`` says how the Monte
Carlo path shares its draws across the family and still gives every member
the bits that member alone gives.

The Monte Carlo path sums each member's e^{i phase} without a complex
exponential (``_member_sums``).  A member's phase is the sum of its
coefficient times a response channel over one flat list of terms, every
source's in source order, added in list order.  Each phase is reduced to a
multiple of 2pi/4096 plus a remainder of at most pi/4096, whose cos and sin
are short polynomials, and the remainders are summed per multiple and turned
by a table of e^{2 pi i j/4096}.  The sum is within 5e-16 per draw of the
exact sum of e^{i phase} over the same draws (1.2e-16 measured), far below
the sampling error, and is made of exactly rounded operations in a fixed
order, so, given the draws, it does not depend on the batch or on the CPU.
A family's chunks are cut into ranges summed in forked processes, one per
CPU, and added in chunk order, so the split does not change the bits either
(``monte_carlo_attenuation``).  The draws and the channels do follow the
CPU: Lorentzian sampling (``np.tan``) and the Bose-Einstein occupation
(``np.expm1``) run numpy's AVX-512 loops where the CPU has them, and those
differ in the last bits from numpy's AVX2 and baseline loops, which agree.

Building a source takes no array, so numpy is imported where a Monte Carlo
ensemble is averaged, not with the module: a config load builds its
sources, and checks their slopes, on Python floats, and the closed form
runs on them.  The table of e^{2 pi i j/4096} is built on the first Monte
Carlo average, before its chunks are forked out.
"""

from __future__ import annotations

import functools
import math
import numbers
from typing import TYPE_CHECKING

from .catalog import DEFAULT_SAMPLES, DEFAULT_SEED
from .records import Frozen
from .response import LinearResponse, QuasiharmonicSet, default_linear_response
from .spin_model import PhaseCoefficients, SpinSystemParams, stack_coefficients
from .units import check_number

if TYPE_CHECKING:  # numpy is imported where a Monte Carlo ensemble is averaged
    import numpy as np

CHUNK = 1 << 16

# Absolute-temperature ensembles are clipped this many scale widths from the
# location (and at T = 0) before evaluating the lattice model on the draws.
TRUNCATION_WIDTHS = 50.0

DISTRIBUTION_KINDS = ("lorentzian", "gaussian", "delta")


class Distribution(Frozen):
    """Scalar noise distribution: lorentzian (scale = HWHM), gaussian
    (scale = standard deviation), or delta (no spread)."""

    kind: str
    location: float = 0.0
    scale: float = 0.0

    def _check(self):
        if self.kind not in DISTRIBUTION_KINDS:
            raise ValueError(f"unknown distribution kind {self.kind!r}; "
                             f"expected one of {DISTRIBUTION_KINDS}")
        check_number("distribution location", self.location)
        check_number("distribution scale", self.scale)
        if self.scale < 0:
            raise ValueError("distribution scale must be >= 0")
        if self.kind == "delta" and self.scale != 0:
            raise ValueError("delta distribution must have zero scale")

    def attenuation(self, u: float) -> float:
        """E[e^{iu(x - location)}] evaluated at one u, with libm's ``exp``.

        Real: every kind is symmetric about its location, so the sine part
        averages to zero."""
        if self.kind == "lorentzian":
            return math.exp(-self.scale * abs(u))
        if self.kind == "gaussian":
            v = self.scale * u
            return math.exp(-0.5 * (v * v))
        return 1.0

    def cdf(self, x: float) -> float:
        if self.scale == 0:  # any zero-width distribution is a point mass
            return 1.0 if x >= self.location else 0.0
        if self.kind == "lorentzian":
            return 0.5 + math.atan((x - self.location) / self.scale) / math.pi
        return 0.5 * (1.0 + math.erf((x - self.location) / (self.scale * math.sqrt(2.0))))

    def _sample_chunk(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """``n`` draws, each step of the transform written into their own
        array: location + scale tan(pi (u - 0.5)), or location + scale z."""
        import numpy as np

        if self.kind == "delta":
            return np.full(n, self.location)
        if self.kind == "lorentzian":
            x = rng.random(n)
            np.subtract(x, 0.5, out=x)
            np.multiply(np.pi, x, out=x)
            np.tan(x, out=x)
        else:
            x = rng.standard_normal(n)
        np.multiply(self.scale, x, out=x)
        np.add(self.location, x, out=x)
        return x


def lorentzian(location: float, scale: float) -> Distribution:
    return Distribution(kind="lorentzian", location=location, scale=scale)


def gaussian(location: float, scale: float) -> Distribution:
    return Distribution(kind="gaussian", location=location, scale=scale)


def delta(location: float) -> Distribution:
    return Distribution(kind="delta", location=location)


def _chunk_rng(seed: int, source_index: int, chunk_index: int) -> np.random.Generator:
    import numpy as np

    ss = np.random.SeedSequence(entropy=seed, spawn_key=(source_index, chunk_index))
    return np.random.default_rng(ss)


class NoiseSource(Frozen):
    """One noise variable x and its coupling, which the factories take from
    the response.  A linear source carries ``slopes``: dQ/dx and dA/dx in
    rad/s and dB/dx in G per unit of x, an offset from the operating point.
    A temperature source on a QuasiharmonicSet carries its quadrupole and
    hyperfine ``curves`` instead, and x is an absolute temperature in K.
    """

    name: str
    distribution: Distribution
    slopes: tuple | None = None
    curves: tuple | None = None

    def _check(self):
        if self.is_linear and not _three_finite_numbers(self.slopes):
            raise ValueError(f"source {self.name!r} needs three finite slopes "
                             f"(dQ/dx, dA/dx, dB/dx), got {self.slopes!r}")

    @property
    def is_linear(self) -> bool:
        return self.curves is None

    def phase_coefficient(self, coefficients: PhaseCoefficients) -> float:
        """d phase / d x for this source's variable; linear sources only."""
        if not self.is_linear:
            raise TypeError(
                f"source {self.name!r} couples nonlinearly; "
                "use the Monte Carlo ensemble average"
            )
        s_q, s_a, s_b = self.slopes
        return (coefficients.quadrupole * s_q + coefficients.hyperfine * s_a
                + coefficients.field * s_b)

    def deviation_channels(self, coefficients: PhaseCoefficients, x: np.ndarray) -> tuple:
        """(coefficient, channel) pairs with phase(x) - phase(location) equal
        to the sum of coefficient * channel; each channel is evaluated once on
        the draws x and each coefficient holds one value per family member."""
        loc = self.distribution.location
        if self.is_linear:
            return ((self.phase_coefficient(coefficients), x - loc),)
        channels = []
        for curve in self.curves:  # each channel is the one array of its curve's shift
            channel = curve.shift_at(x)
            channel -= curve.shift_at(loc)
            channels.append(channel)
        return tuple(zip((coefficients.quadrupole, coefficients.hyperfine), channels))

    def location_phase(self, coefficients: PhaseCoefficients) -> float:
        """Deterministic phase contributed by the distribution's location."""
        loc = self.distribution.location
        if self.is_linear:
            return self.phase_coefficient(coefficients) * loc
        q, a = self.curves
        return coefficients.quadrupole * q.shift_at(loc) + coefficients.hyperfine * a.shift_at(loc)

    def truncation_window(self):
        """(low, high) clip range for sampling, or None when not needed."""
        if self.is_linear or self.distribution.scale == 0:
            return None
        loc, scale = self.distribution.location, self.distribution.scale
        return (max(0.0, loc - TRUNCATION_WIDTHS * scale), loc + TRUNCATION_WIDTHS * scale)


def _three_finite_numbers(values) -> bool:
    """Whether ``values`` is a flat sequence (or 1-d array) of three finite
    real numbers."""
    try:
        return len(values) == 3 and all(isinstance(v, numbers.Real) and math.isfinite(v)
                                        for v in values)
    except TypeError:  # no length
        return False


def _response(response, kind: str):
    """The response a temperature or strain source couples through."""
    if response is None:
        return default_linear_response()
    if not isinstance(response, (LinearResponse, QuasiharmonicSet)):
        raise TypeError(f"{kind} source needs a LinearResponse or QuasiharmonicSet, "
                        f"got {type(response).__name__}")
    return response


def temperature_source(distribution: Distribution, response=None,
                       name: str = "temperature") -> NoiseSource:
    response = _response(response, "temperature")
    if isinstance(response, QuasiharmonicSet):
        if distribution.location < 0:
            raise ValueError("an absolute temperature location must be >= 0 K, "
                             f"got {distribution.location!r}")
        return NoiseSource(name, distribution, curves=(response.quadrupole, response.hyperfine))
    return NoiseSource(name, distribution,
                       slopes=(response.quadrupole_per_K, response.hyperfine_per_K, 0.0))


def field_source(distribution: Distribution, name: str = "field") -> NoiseSource:
    return NoiseSource(name, distribution, slopes=(0.0, 0.0, 1.0))


def strain_source(distribution: Distribution, response=None,
                  name: str = "strain") -> NoiseSource:
    response = _response(response, "strain")
    return NoiseSource(name, distribution,
                       slopes=(response.quadrupole_per_strain, response.hyperfine_per_strain, 0.0))


def residual_field_source(dq_coherence_time: float = 3.9e-3,
                          gamma_n: float = SpinSystemParams.gamma_n,
                          name: str = "residual-field") -> NoiseSource:
    """Lorentzian field-like source reproducing a measured double-quantum
    coherence time.

    The double-quantum transition dephases at 2 |gamma_n| sigma_B, so the
    width is sigma_B = 1 / (2 |gamma_n| T2_dq).  This lumps every noise
    channel that is not cancelled by the echo into one effective field.
    """
    check_number("dq_coherence_time", dq_coherence_time)
    check_number("gamma_n", gamma_n)
    if not dq_coherence_time > 0:
        raise ValueError(f"coherence time must be positive and finite, got {dq_coherence_time!r}")
    if gamma_n == 0:
        raise ValueError(f"gamma_n must be finite and nonzero, got {gamma_n!r}")
    scale = 1.0 / (2.0 * abs(gamma_n) * dq_coherence_time)
    return field_source(lorentzian(0.0, scale), name=name)


def dephasing_factor(sources, coefficients) -> list:
    """Exact <e^{i (phase - phase(locations))}> over linear sources for every
    member of the ``coefficients`` family, as a list of G floats: per member,
    the product of each source's ``Distribution.attenuation`` at its phase
    coefficient, in source order, starting from 1.0.

    The same quantity as ``monte_carlo_attenuation``; the phase at the
    locations is ``NoiseSource.location_phase``.
    """
    out = []
    for c in coefficients:
        value = 1.0
        for src in sources:
            value *= src.distribution.attenuation(src.phase_coefficient(c))
        out.append(value)
    return out


class MonteCarloResult(Frozen):
    """Per-member estimates ((G,) arrays, one value per family member) and
    the draws they share; ``std_error`` is sqrt((1 - |m|^2)/N), the RMS error
    of the complex mean m, not of |m|.  Each ``attenuation`` is within 5e-16
    of the exact mean of e^{i (phase - phase(locations))} over the retained
    draws.  Its bits depend only on the member's coefficients, the sources,
    ``n_samples``, ``seed`` and whether numpy runs its AVX-512 loops for the
    draws and channels (module docstring), not on the family or on how the
    chunks are split (``_member_sums``)."""

    attenuation: np.ndarray
    std_error: np.ndarray
    n_samples: int
    seed: int
    n_retained: int
    truncated_mass: dict = {}


# ``_member_sums`` sums e^{i phase} as e^{2 pi i k/_BINS} e^{i r}, with
# k = rint(phase _BINS/2pi) and |r| <= pi/_BINS.  _STEP_HI + _STEP_LO is
# 2pi/_BINS to within 3e-27, and _STEP_HI has 23 significant bits, so
# k * _STEP_HI is exact and r is within 1e-17 of its exact value while
# |k| <= _MAX_TURN, that is for |phase| <= 1.6e6 rad.  A member whose
# |phase| provably stays within _PHASE_LIMIT skips the range check.
_BINS = 4096
_BLOCK = 1 << 14  # draws reduced at a time
_TWO_PI_HI = math.floor(math.tau * 2**20) / 2**20
_TWO_PI_LO = 2.4492935982947064e-16  # 2pi - math.tau, what math.tau rounds off
_STEP_HI = _TWO_PI_HI / _BINS
_STEP_LO = (math.tau - _TWO_PI_HI + _TWO_PI_LO) / _BINS
_MAX_TURN = 2.0**30
_PHASE_LIMIT = (1 - 1e-9) * _MAX_TURN * math.tau / _BINS


@functools.cache
def _unit_circle():
    """cos and sin of 2 pi j/_BINS for j = 0.._BINS-1, each within 1.2e-16 of
    the exact value: libm evaluates the first octant, where the angle is
    below pi/4, and the rest follows by exact reflections and quarter turns.
    (numpy's cos and sin give the same table but cost 0.4 MiB more RSS at
    import.)  Built on first use and kept, once per process."""
    import numpy as np

    angles = [j * _STEP_HI + j * _STEP_LO for j in range(_BINS // 8 + 1)]
    c, s = [math.cos(a) for a in angles], [math.sin(a) for a in angles]
    c, s = c + s[-2:0:-1], s + c[-2:0:-1]
    minus_c, minus_s = [-v for v in c], [-v for v in s]
    return np.array(c + minus_s + minus_c + s), np.array(s + c + minus_s + minus_c)


def _bin_block(phase, turn, term, index, cos_bins, sin_bins, checked) -> complex:
    """Add one block of ``phase`` into the per-bin sums: cos r and sin r of
    the draws with k = j mod _BINS to ``cos_bins[j]`` and ``sin_bins[j]``.
    When ``checked``, return the sum of e^{i phase} over the draws with
    |k| > _MAX_TURN (or a non-finite phase), which are not binned; else
    every |k| must be at most _MAX_TURN, and 0j is returned.  Overwrites
    every array it is given but the bins."""
    import numpy as np

    np.multiply(phase, _BINS / math.tau, out=turn)
    np.rint(turn, out=turn)
    outside = 0j
    if checked and not (turn.min() >= -_MAX_TURN and turn.max() <= _MAX_TURN):
        inside = np.abs(turn) <= _MAX_TURN
        outside = complex(np.exp(1j * phase[~inside]).sum())
        n = np.count_nonzero(inside)
        phase[:n], turn[:n] = phase[inside], turn[inside]
        phase, turn, term, index = phase[:n], turn[:n], term[:n], index[:n]
    np.copyto(index, turn, casting="unsafe")
    np.bitwise_and(index, _BINS - 1, out=index)
    r, r2 = phase, turn
    np.multiply(turn, _STEP_HI, out=term)
    np.subtract(phase, term, out=r)
    np.multiply(turn, _STEP_LO, out=term)
    np.subtract(r, term, out=r)
    np.multiply(r, r, out=r2)
    # cos r and sin r: the next Taylor terms, r^6/6! and r^5/5!, are below
    # 3e-22 and 2.2e-18 for |r| <= pi/_BINS
    np.multiply(r2, 1 / 24, out=term)
    np.add(term, -0.5, out=term)
    np.multiply(term, r2, out=term)
    np.add(term, 1.0, out=term)
    cos_bins += np.bincount(index, weights=term, minlength=_BINS)
    np.multiply(r2, -1 / 6, out=term)
    np.multiply(term, r, out=term)
    np.add(term, r, out=term)
    sin_bins += np.bincount(index, weights=term, minlength=_BINS)
    return outside


def _member_sums(terms) -> list:
    """The sum of e^{i (phase - phase(locations))} over one chunk for each
    family member, in member order.

    The phase of member g is built from the flat list of (coefficient,
    channel) ``terms`` in list order: the first term's product c[g] *
    channel, then each later term's product added to it.  It is built one
    block of _BLOCK draws at a time in buffers of 32 bytes per draw of a
    block, at most 512 KiB, and binned by ``_bin_block``.  The bins are
    then contracted with the table e^{2 pi i j/_BINS}.  A member whose
    bound ``sum(|c[g]| * max|channel|)`` is finite and within _PHASE_LIMIT
    skips the per-block range check; any other member is checked, and a
    phase beyond the binned range goes through ``np.exp``.  Every operation
    on the draws is an exactly rounded numpy ufunc or a sum in a fixed
    order, so a member's sum depends only on its coefficients and the
    chunk's draws, whichever SIMD loops numpy runs, and skipping the check
    does not change it.  It is within 5e-16 per draw of the exact sum of
    e^{i phase} (1.2e-16 measured).  Phases that are all zero sum to
    exactly ``kept + 0j``.
    """
    import numpy as np

    cos_table, sin_table = _unit_circle()
    (c0, channel0), *rest = terms
    kept = len(channel0)
    n = min(kept, _BLOCK)
    phase, product, temp = np.empty(n), np.empty(n), np.empty(n)
    index = np.empty(n, dtype=np.intp)
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite bound is checked
        bounds = sum(np.abs(c) * np.abs(channel).max(initial=0.0) for c, channel in terms)
    sums = []
    for g, bound in enumerate(bounds):
        checked = not bound <= _PHASE_LIMIT
        cos_bins, sin_bins = np.zeros(_BINS), np.zeros(_BINS)
        outside = 0j
        for start in range(0, kept, _BLOCK):
            block = slice(start, min(start + _BLOCK, kept))
            n = block.stop - start
            ph, p, t = phase[:n], product[:n], temp[:n]
            np.multiply(c0[g], channel0[block], out=ph)
            for c, channel in rest:
                np.multiply(c[g], channel[block], out=p)
                np.add(ph, p, out=ph)
            outside += _bin_block(ph, p, t, index[:n], cos_bins, sin_bins, checked)
        sums.append(complex((cos_bins * cos_table - sin_bins * sin_table).sum(),
                            (cos_bins * sin_table + sin_bins * cos_table).sum()) + outside)
    return sums


def _chunk_channels(sources, windows, grid, seed, k, n_k):
    """The (coefficient, channel) terms of every source, in source order, on
    chunk k's retained joint draws, and the retained count.  Each source's
    full draws are freed once they are masked, and its retained draws once
    its channels are evaluated."""
    import numpy as np

    draws = []
    mask = np.ones(n_k, dtype=bool)
    for j, (src, win) in enumerate(zip(sources, windows)):
        x = src.distribution._sample_chunk(_chunk_rng(seed, j, k), n_k)
        if win is not None:
            mask &= (x >= win[0]) & (x <= win[1])
        draws.append(x)
    del x  # the last full draws, freed below with their list entry
    terms = []
    for src in sources:
        terms += src.deviation_channels(grid, draws.pop(0)[mask])
    return terms, int(mask.sum())


def _chunk_sums(sources, windows, grid, seed, n_samples, chunks):
    """Yield ``(member sums, kept)`` for each chunk index in ``chunks``, in
    order: every member's sum of e^{i (phase - phase(locations))} over the
    chunk's retained draws, and their count.  A chunk's channels are freed
    before the next chunk is drawn."""
    for k in chunks:
        terms, kept = _chunk_channels(sources, windows, grid, seed, k,
                                      min(CHUNK, n_samples - k * CHUNK))
        sums = _member_sums(terms)
        del terms
        yield sums, kept


def _add_chunks(per_chunk, totals, retained=0):
    """Add each chunk's ``(member sums, kept)`` of ``per_chunk``, in order,
    to the members' ``totals`` and the ``retained`` count."""
    for sums, kept in per_chunk:
        totals = [total + z for total, z in zip(totals, sums)]
        retained += kept
    return totals, retained


def _child_sums(write: int, *args):
    """In a forked child: pickle ``(True, list(_chunk_sums(*args)))``, or
    ``(False, exception)``, into the pipe ``write``, then end the process.
    Never returns, so no caller's code runs twice; a reply that cannot be
    pickled ends it with status 1 and nothing sent."""
    import os
    import pickle

    status = 1
    try:
        try:
            reply = (True, list(_chunk_sums(*args)))
        except Exception as exc:  # raised again in the parent
            reply = (False, exc)
        data = pickle.dumps(reply)
        with open(write, "wb") as pipe:
            pipe.write(data)
        status = 0
    finally:
        os._exit(status)


def _family_sums(sources, windows, grid, seed, n_samples):
    """Each member's sum over the family's chunks, and the retained count.
    The chunks are cut into one contiguous range per CPU this process may
    run on, at most one per chunk: the first range is summed here and each
    other range in a child forked for it, which sends its per-chunk sums
    back through a pipe.  Every chunk is drawn once, and its sums are added
    in chunk order, as on one process.  One process sums every chunk where
    ``os.fork`` or ``os.sched_getaffinity`` is missing, or where another
    Python thread runs, because a forked child holds only the thread that
    forked it.  A child's exception is raised again here; every child is
    reaped before this returns or raises, and killed first if its result
    was not read."""
    import os
    import pickle
    import signal
    import threading

    _unit_circle()  # built here, so that each forked child inherits it
    chunks = -(-n_samples // CHUNK)
    n = 1
    if (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
            and threading.active_count() == 1):
        n = min(len(os.sched_getaffinity(0)), chunks)
    edges = [chunks * i // n for i in range(n + 1)]
    ranges = [range(a, b) for a, b in zip(edges, edges[1:])]
    children = []  # (pid, read end) of each child not yet reaped, in range order
    try:
        for part in ranges[1:]:
            read, write = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read)
                os.close(write)
                raise
            if pid == 0:
                _child_sums(write, sources, windows, grid, seed, n_samples, part)
            os.close(write)
            children.append((pid, open(read, "rb")))
        totals, retained = _add_chunks(
            _chunk_sums(sources, windows, grid, seed, n_samples, ranges[0]),
            [0j] * grid.quadrupole.size)
        while children:
            pid, pipe = children[0]
            with pipe:
                data = pipe.read()
            status = os.waitpid(pid, 0)[1]
            del children[0]
            if not data:
                raise RuntimeError("a Monte Carlo child process ended without a result, "
                                   f"exit status {os.waitstatus_to_exitcode(status)}")
            done, value = pickle.loads(data)
            if not done:
                raise value
            totals, retained = _add_chunks(value, totals, retained)
    finally:
        for pid, pipe in children:
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return totals, retained


def monte_carlo_attenuation(sources, coefficients, n_samples: int = DEFAULT_SAMPLES,
                            seed: int = DEFAULT_SEED) -> MonteCarloResult:
    """Sampled estimate of <e^{i (phase - phase(locations))}> for every
    member of the ``coefficients`` family.

    Each chunk draws every source once from the sub-stream keyed by (source
    index, chunk index), drops joint samples where any absolute-temperature
    source falls outside its physical window, and evaluates each source's
    response channels once.  Only then is the phase contracted and averaged
    per member, in chunk order, so a member's estimate does not depend on
    the rest of the family.  The chunks are cut into one contiguous range
    per CPU this process may run on (``os.sched_getaffinity``), at most one
    per chunk, so a family of one member splits too; the first range is
    summed in this process and each other range in a process forked for it.
    Every chunk is drawn once, and each member's chunk sums are added in
    chunk order (``_family_sums``).  With one CPU or one chunk, without
    ``os.fork``, or while another Python thread runs, every chunk is summed
    in this process.  Either way every member gets the same bits.  Each
    process sums a chunk's members one after another, in buffers of 32
    bytes per draw of a block of 16,384 draws, 512 KiB, whatever the
    sources.  Each member's sum is within 5e-16 per draw of the exact sum
    over the same draws (``_member_sums``).  ``sources`` must not be empty.
    """
    import numpy as np

    for name, value in (("n_samples", n_samples), ("seed", seed)):
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ValueError(f"{name} must be an integer, got {value!r}")
    if n_samples <= 0:
        raise ValueError(f"n_samples must be positive, got {n_samples!r}")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed!r}")
    sources = tuple(sources)
    if not sources:
        raise ValueError("need at least one noise source; without one the "
                         "attenuation is exactly 1")
    grid = stack_coefficients(coefficients)
    windows = [src.truncation_window() for src in sources]
    totals, retained = _family_sums(sources, windows, grid, seed, n_samples)
    if retained == 0:
        raise ValueError("all samples fell outside the truncation windows")
    means = [total / retained for total in totals]
    masses = {
        src.name: 1.0 - (src.distribution.cdf(win[1]) - src.distribution.cdf(win[0]))
        for src, win in zip(sources, windows)
        if win is not None
    }
    return MonteCarloResult(
        attenuation=np.array(means, dtype=complex),
        std_error=np.array([math.sqrt(max(0.0, 1.0 - abs(m) ** 2) / retained)
                            for m in means]),
        n_samples=n_samples,
        seed=seed,
        n_retained=retained,
        truncated_mass=masses,
    )
