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
its draws and threads across the family and still gives every member the
bits that member alone gives.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .response import LinearResponse, QuasiharmonicSet, default_linear_response
from .spin_model import PhaseCoefficients, stack_coefficients
from .units import TWO_PI

CHUNK = 1 << 16
DEFAULT_SAMPLES = 1 << 20  # Monte Carlo draws and seed of a run that names none
DEFAULT_SEED = 12345

# Absolute-temperature ensembles are clipped this many scale widths from the
# location (and at T = 0) before evaluating the lattice model on the draws.
TRUNCATION_WIDTHS = 50.0

_KINDS = ("lorentzian", "gaussian", "delta")


@dataclass(frozen=True)
class Distribution:
    """Scalar noise distribution: lorentzian (scale = HWHM), gaussian
    (scale = standard deviation), or delta (no spread)."""

    kind: str
    location: float = 0.0
    scale: float = 0.0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown distribution kind {self.kind!r}; "
                             f"expected one of {_KINDS}")
        if not (math.isfinite(self.location) and math.isfinite(self.scale)):
            raise ValueError(f"distribution location and scale must be finite, got "
                             f"location={self.location!r}, scale={self.scale!r}")
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
                          gamma_n: float = -TWO_PI * 307.7,
                          name: str = "residual-field") -> NoiseSource:
    """Lorentzian field-like source reproducing a measured double-quantum
    coherence time.

    The double-quantum transition dephases at 2 |gamma_n| sigma_B, so the
    width is sigma_B = 1 / (2 |gamma_n| T2_dq).  This lumps every noise
    channel that is not cancelled by the echo into one effective field.
    """
    if not (math.isfinite(dq_coherence_time) and dq_coherence_time > 0):
        raise ValueError(f"coherence time must be positive and finite, got {dq_coherence_time!r}")
    if not (math.isfinite(gamma_n) and gamma_n != 0):
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
    """Per-member estimates ((G,) arrays) and the draws they share; ``std_error``
    is sqrt((1 - |m|^2)/N), the RMS error of the complex mean m, not of |m|."""

    attenuation: np.ndarray
    std_error: np.ndarray
    n_samples: int
    seed: int
    n_retained: int
    truncated_mass: dict = dataclass_field(default_factory=dict)

    @property
    def amplitude(self) -> np.ndarray:
        return np.hypot(self.attenuation.real, self.attenuation.imag)


def _thread_count(members: int) -> int:
    """Threads that share a chunk's family members: one per CPU this process
    may run on, at most one per member."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, members))


def _claims(size: int):
    """A function the threads share that returns each member index 0..size-1
    exactly once, then None; a lock makes each claim atomic on every Python
    build, with or without the GIL."""
    members, lock = iter(range(size)), threading.Lock()

    def claim():
        with lock:
            return next(members, None)
    return claim


def _member_sums(channels, claim, sums, terms, product):
    """Write into ``sums[g]`` the sum of e^{i (phase - phase(locations))}
    over one chunk for each member g this thread claims by calling
    ``claim`` (``_claims``).

    Every term, and so every sum, is bit-identical to ``phase = zeros;
    phase += sum(c[g] * channel ...); exp(1j * phase)``, and the loop
    allocates no arrays.  The phase builds up in the imaginary row of the
    complex buffer ``terms``.  The real row holds each later source's partial
    sum, with ``product`` for a second channel (None when no source after the
    first has one), and is then zeroed.  ``1j * phase`` has the imaginary
    part 0 + phase and a signed zero as its real part, whose exponential is 1
    either way, so adding 0 to the first source's partial sum and zeroing
    the real row give exactly its operand without the complex product.
    """
    scratch, phase = terms.real, terms.imag
    first, *later = channels
    for g in iter(claim, None):
        (c, channel), *rest = first
        np.multiply(c[g], channel, out=phase)
        for c, channel in rest:
            np.multiply(c[g], channel, out=scratch)
            np.add(phase, scratch, out=phase)
        np.add(phase, 0.0, out=phase)
        for (c, channel), *rest in later:
            np.multiply(c[g], channel, out=scratch)
            for c, channel in rest:
                np.multiply(c[g], channel, out=product)
                np.add(scratch, product, out=scratch)
            np.add(phase, scratch, out=phase)
        scratch.fill(0.0)
        np.exp(terms, out=terms)
        sums[g] = complex(terms.sum())


def _chunk_channels(sources, windows, grid, seed, k, n_k):
    """Each source's (coefficient, channel) pairs on chunk k's retained joint
    draws, and the retained count; the draws and the mask are freed on
    return."""
    draws = []
    mask = np.ones(n_k, dtype=bool)
    for j, (src, win) in enumerate(zip(sources, windows)):
        x = src.distribution._sample_chunk(_chunk_rng(seed, j, k), n_k)
        if win is not None:
            mask &= (x >= win[0]) & (x <= win[1])
        draws.append(x)
    channels = [src.deviation_channels(grid, x[mask]) for src, x in zip(sources, draws)]
    return channels, int(mask.sum())


def _chunk_sums(sources, windows, grid, seed, k, n_k, pool, n_threads):
    """Per-member sums of e^{i (phase - phase(locations))} over chunk k's
    retained joint draws, and the retained count.

    The chunk is drawn, masked and turned into response channels in the
    calling thread.  Then ``n_threads`` threads, the calling one and
    ``n_threads - 1`` on ``pool``, each with buffers of its own, claim the
    members one at a time (``_claims``) and write each sum at its member's
    index; a member no thread summed stays None and fails the caller's
    addition.  The chunk's arrays are freed on return, before the next chunk
    is drawn."""
    channels, kept = _chunk_channels(sources, windows, grid, seed, k, n_k)
    size = grid.quadrupole.size
    claim = _claims(size)
    sums = [None] * size
    two_channels_later = any(len(pairs) > 1 for pairs in channels[1:])
    # Allocated in the calling thread: glibc gives each worker thread its own
    # malloc arena, and allocating there kept ~2 MiB more of fig4's RSS.
    buffers = [(np.empty(kept, dtype=complex), np.empty(kept) if two_channels_later else None)
               for _ in range(n_threads)]
    futures = [pool.submit(_member_sums, channels, claim, sums, *pair)
               for pair in buffers[1:]]
    _member_sums(channels, claim, sums, *buffers[0])
    for future in futures:
        future.result()
    return sums, kept


def monte_carlo_attenuation(sources, coefficients, n_samples: int = DEFAULT_SAMPLES,
                            seed: int = DEFAULT_SEED) -> MonteCarloResult:
    """Sampled estimate of <e^{i (phase - phase(locations))}> for every
    member of the ``coefficients`` family.

    Each chunk draws every source once from the sub-stream keyed by (source
    index, chunk index), drops joint samples where any absolute-temperature
    source falls outside its physical window, and evaluates each source's
    response channels once.  Only then is the phase contracted and averaged
    per member, in chunk order, so a member's estimate does not depend on
    the rest of the family.  One thread per CPU the process may run on (at
    most one per member) shares each chunk's channels: the threads claim
    members one at a time and each holds 16 bytes per retained draw of the
    chunk (24 when a source after the first has two channels).  A member's
    sum is computed by the same code whichever thread claims it and is
    added to its total in chunk order, so the estimate does not depend on
    the thread count either.  ``sources`` must not be empty.
    """
    from concurrent.futures import ThreadPoolExecutor  # kept off the cold import path

    if n_samples <= 0:
        raise ValueError("n_samples must be positive")
    sources = tuple(sources)
    if not sources:
        raise ValueError("need at least one noise source; without one the "
                         "attenuation is exactly 1")
    grid = stack_coefficients(coefficients)
    windows = [src.truncation_window() for src in sources]
    size = grid.quadrupole.size
    totals = [0j] * size
    retained = 0
    n_threads = _thread_count(size)
    with ThreadPoolExecutor(max_workers=max(1, n_threads - 1)) as pool:
        for k, start in enumerate(range(0, n_samples, CHUNK)):
            sums, kept = _chunk_sums(sources, windows, grid, seed, k,
                                     min(CHUNK, n_samples - start), pool, n_threads)
            totals = [total + z for total, z in zip(totals, sums)]
            retained += kept
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
