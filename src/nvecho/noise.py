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
per member.  The closed form is one vectorised real product over the
family; ``monte_carlo_attenuation`` says how the Monte Carlo path shares
its draws across the family and still gives every member the bits that
member alone gives.

The Monte Carlo path sums each member's e^{i phase} without a complex
exponential (``_member_sums``).  A member's phase is the sum of its
coefficient times a response channel over one flat list of terms, every
source's in source order, added in list order.  Each phase is reduced to a
multiple of 2pi/4096 plus a remainder of at most pi/4096, whose cos and sin
are short polynomials, and the remainders are summed per multiple and turned
by a table of e^{2 pi i j/4096}.  The sum is within 5e-16 per draw of the
exact sum of e^{i phase} over the same draws (1.2e-16 measured), far below
the sampling error, and is made of exactly rounded operations in a fixed
order, so it does not depend on the batch or on the CPU.  A family's
members are cut into slices summed in forked processes, one per CPU, and
each member is summed whole in one of them, so the split does not change
its bits either (``monte_carlo_attenuation``).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .response import LinearResponse, QuasiharmonicSet, default_linear_response
from .spin_model import PhaseCoefficients, SpinSystemParams, stack_coefficients
from .units import check_number

CHUNK = 1 << 16
DEFAULT_SAMPLES = 1 << 20  # Monte Carlo draws and seed of a run that names none
DEFAULT_SEED = 12345

# Absolute-temperature ensembles are clipped this many scale widths from the
# location (and at T = 0) before evaluating the lattice model on the draws.
TRUNCATION_WIDTHS = 50.0

DISTRIBUTION_KINDS = ("lorentzian", "gaussian", "delta")


@dataclass(frozen=True)
class Distribution:
    """Scalar noise distribution: lorentzian (scale = HWHM), gaussian
    (scale = standard deviation), or delta (no spread)."""

    kind: str
    location: float = 0.0
    scale: float = 0.0

    def __post_init__(self):
        if self.kind not in DISTRIBUTION_KINDS:
            raise ValueError(f"unknown distribution kind {self.kind!r}; "
                             f"expected one of {DISTRIBUTION_KINDS}")
        check_number("distribution location", self.location)
        check_number("distribution scale", self.scale)
        if self.scale < 0:
            raise ValueError("distribution scale must be >= 0")
        if self.kind == "delta" and self.scale != 0:
            raise ValueError("delta distribution must have zero scale")

    def attenuation(self, u):
        """E[e^{iu(x - location)}] evaluated at u (scalar or array).

        Real: every kind is symmetric about its location, so the sine part
        averages to zero."""
        u = np.asarray(u, dtype=float)
        if self.kind == "lorentzian":
            out = np.exp(-self.scale * np.abs(u))
        elif self.kind == "gaussian":
            out = np.exp(-0.5 * (self.scale * u) ** 2)
        else:
            out = np.ones(u.shape)
        return float(out) if out.ndim == 0 else out

    def cdf(self, x: float) -> float:
        if self.scale == 0:  # any zero-width distribution is a point mass
            return 1.0 if x >= self.location else 0.0
        if self.kind == "lorentzian":
            return 0.5 + math.atan((x - self.location) / self.scale) / math.pi
        return 0.5 * (1.0 + math.erf((x - self.location) / (self.scale * math.sqrt(2.0))))

    def _sample_chunk(self, rng: np.random.Generator, n: int) -> np.ndarray:
        if self.kind == "lorentzian":
            u = rng.random(n)
            return self.location + self.scale * np.tan(np.pi * (u - 0.5))
        if self.kind == "gaussian":
            return self.location + self.scale * rng.standard_normal(n)
        return np.full(n, self.location)


def lorentzian(location: float, scale: float) -> Distribution:
    return Distribution(kind="lorentzian", location=location, scale=scale)


def gaussian(location: float, scale: float) -> Distribution:
    return Distribution(kind="gaussian", location=location, scale=scale)


def delta(location: float) -> Distribution:
    return Distribution(kind="delta", location=location)


def _chunk_rng(seed: int, source_index: int, chunk_index: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(source_index, chunk_index))
    return np.random.default_rng(ss)


@dataclass(frozen=True)
class NoiseSource:
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

    def __post_init__(self):
        if self.is_linear and not (np.shape(self.slopes) == (3,)
                                   and np.isfinite(self.slopes).all()):
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
        q, a = self.curves
        return ((coefficients.quadrupole, q.shift_at(x) - q.shift_at(loc)),
                (coefficients.hyperfine, a.shift_at(x) - a.shift_at(loc)))

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


def dephasing_factor(sources, coefficients) -> np.ndarray:
    """Exact <e^{i (phase - phase(locations))}> over linear sources for every
    member of the ``coefficients`` family, as a (G,) real array: the product
    of each source's ``Distribution.attenuation`` at its phase coefficient.

    The same quantity as ``monte_carlo_attenuation``; the phase at the
    locations is ``NoiseSource.location_phase``.
    """
    grid = stack_coefficients(coefficients)
    out = np.ones(grid.quadrupole.shape)
    for src in sources:
        out = out * src.distribution.attenuation(src.phase_coefficient(grid))
    return out


@dataclass(frozen=True)
class MonteCarloResult:
    """Per-member estimates ((G,) arrays, one value per family member) and
    the draws they share; ``std_error`` is sqrt((1 - |m|^2)/N), the RMS error
    of the complex mean m, not of |m|.  Each ``attenuation`` is within 5e-16
    of the exact mean of e^{i (phase - phase(locations))} over the retained
    draws, and its bits depend only on the member's coefficients, the
    sources, ``n_samples`` and ``seed`` (``_member_sums``)."""

    attenuation: np.ndarray
    std_error: np.ndarray
    n_samples: int
    seed: int
    n_retained: int
    truncated_mass: dict = dataclass_field(default_factory=dict)


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


def _unit_circle():
    """cos and sin of 2 pi j/_BINS for j = 0.._BINS-1, each within 1.2e-16 of
    the exact value: libm evaluates the first octant, where the angle is
    below pi/4, and the rest follows by exact reflections and quarter turns.
    (numpy's cos and sin give the same table but cost 0.4 MiB more RSS at
    import.)"""
    angles = [j * _STEP_HI + j * _STEP_LO for j in range(_BINS // 8 + 1)]
    c, s = [math.cos(a) for a in angles], [math.sin(a) for a in angles]
    c, s = c + s[-2:0:-1], s + c[-2:0:-1]
    minus_c, minus_s = [-v for v in c], [-v for v in s]
    return np.array(c + minus_s + minus_c + s), np.array(s + c + minus_s + minus_c)


_COS, _SIN = _unit_circle()


def _bin_block(phase, turn, term, index, cos_bins, sin_bins, checked) -> complex:
    """Add one block of ``phase`` into the per-bin sums: cos r and sin r of
    the draws with k = j mod _BINS to ``cos_bins[j]`` and ``sin_bins[j]``.
    When ``checked``, return the sum of e^{i phase} over the draws with
    |k| > _MAX_TURN (or a non-finite phase), which are not binned; else
    every |k| must be at most _MAX_TURN, and 0j is returned.  Overwrites
    every array it is given but the bins."""
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
        sums.append(complex((cos_bins * _COS - sin_bins * _SIN).sum(),
                            (cos_bins * _SIN + sin_bins * _COS).sum()) + outside)
    return sums


def _chunk_channels(sources, windows, grid, seed, k, n_k):
    """The (coefficient, channel) terms of every source, in source order, on
    chunk k's retained joint draws, and the retained count; the draws and
    the mask are freed on return."""
    draws = []
    mask = np.ones(n_k, dtype=bool)
    for j, (src, win) in enumerate(zip(sources, windows)):
        x = src.distribution._sample_chunk(_chunk_rng(seed, j, k), n_k)
        if win is not None:
            mask &= (x >= win[0]) & (x <= win[1])
        draws.append(x)
    terms = [term for src, x in zip(sources, draws)
             for term in src.deviation_channels(grid, x[mask])]
    return terms, int(mask.sum())


def _slice_sums(sources, windows, grid, seed, n_samples):
    """Each member's sum of e^{i (phase - phase(locations))} over every
    chunk, for the members of ``grid`` in member order, and the retained
    count."""
    totals = [0j] * grid.quadrupole.size
    retained = 0
    for k, start in enumerate(range(0, n_samples, CHUNK)):
        terms, kept = _chunk_channels(sources, windows, grid, seed, k,
                                      min(CHUNK, n_samples - start))
        totals = [total + z for total, z in zip(totals, _member_sums(terms))]
        retained += kept
        del terms  # freed before the next chunk is drawn
    return totals, retained


def _process_count(members: int) -> int:
    """How many processes sum a family of ``members``: one per CPU this
    process may run on, at most one per member.  1 where ``os.fork`` or
    ``os.sched_getaffinity`` is missing, or where another Python thread
    runs, because a forked child holds only the thread that forked it."""
    import os
    import threading

    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    if threading.active_count() > 1:
        return 1
    return min(len(os.sched_getaffinity(0)), members)


def _child_sums(write: int, sources, windows, part, seed, n_samples):
    """In a forked child: pickle ``(True, _slice_sums(...))`` for the
    members of ``part``, or ``(False, exception)``, into the pipe ``write``,
    then end the process.  Never returns, so no caller's code runs twice; a
    reply that cannot be pickled ends it with status 1 and nothing sent."""
    import os
    import pickle

    status = 1
    try:
        try:
            reply = (True, _slice_sums(sources, windows, part, seed, n_samples))
        except Exception as exc:  # raised again in the parent
            reply = (False, exc)
        data = pickle.dumps(reply)
        with open(write, "wb") as pipe:
            pipe.write(data)
        status = 0
    finally:
        os._exit(status)


def _split_sums(sources, windows, grid, seed, n_samples, n):
    """``_slice_sums`` of the whole family, its members cut into ``n``
    contiguous slices: slice 0 is summed here and each other slice in a
    child forked for it, which sends its result back through a pipe.  A
    member's sum depends only on its coefficients and the chunk's draws, so
    every member keeps the bits the whole family gives it on one process.
    A child's exception is raised again here; every child is reaped before
    this returns or raises, and killed first if its result was not read."""
    import os
    import pickle
    import signal

    members = grid.quadrupole.size
    edges = [members * i // n for i in range(n + 1)]
    parts = [PhaseCoefficients(grid.quadrupole[a:b], grid.hyperfine[a:b], grid.field[a:b])
             for a, b in zip(edges, edges[1:])]
    children = []  # (pid, read end) of each child not yet reaped, in slice order
    try:
        for part in parts[1:]:
            read, write = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read)
                os.close(write)
                raise
            if pid == 0:
                _child_sums(write, sources, windows, part, seed, n_samples)
            os.close(write)
            children.append((pid, open(read, "rb")))
        results = [_slice_sums(sources, windows, parts[0], seed, n_samples)]
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
            results.append(value)
    finally:
        for pid, pipe in children:
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    if len({kept for _, kept in results}) != 1:
        raise RuntimeError("the slices of a Monte Carlo family retained different "
                           f"draw counts: {[kept for _, kept in results]}")
    return [total for totals, _ in results for total in totals], results[0][1]


def monte_carlo_attenuation(sources, coefficients, n_samples: int = DEFAULT_SAMPLES,
                            seed: int = DEFAULT_SEED) -> MonteCarloResult:
    """Sampled estimate of <e^{i (phase - phase(locations))}> for every
    member of the ``coefficients`` family.

    Each chunk draws every source once from the sub-stream keyed by (source
    index, chunk index), drops joint samples where any absolute-temperature
    source falls outside its physical window, and evaluates each source's
    response channels once.  Only then is the phase contracted and averaged
    per member, in chunk order, so a member's estimate does not depend on
    the rest of the family.  The members are cut into one contiguous slice
    per CPU this process may run on (``os.sched_getaffinity``), at most one
    per member; the first slice is summed in this process and each other
    slice in a process forked for it, which draws every chunk itself
    (``_split_sums``).  With one CPU or one member, without ``os.fork``, or
    while another Python thread runs, the whole family is summed in this
    process.  Either way every member gets the same bits.  Each process sums
    its members one after another, in buffers of 32 bytes per draw of a
    block of 16,384 draws, 512 KiB, whatever the sources.  Each member's sum
    is within 5e-16 per draw of the exact sum over the same draws
    (``_member_sums``).  ``sources`` must not be empty.
    """
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
    n = _process_count(grid.quadrupole.size)
    if n > 1:
        totals, retained = _split_sums(sources, windows, grid, seed, n_samples, n)
    else:
        totals, retained = _slice_sums(sources, windows, grid, seed, n_samples)
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
