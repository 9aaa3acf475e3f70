"""Noise distributions, their attenuations, and the ensemble average.

Closed-form expectations are frozen from the standard characteristic
functions about the location (Lorentzian e^{-sigma |u|}, Gaussian
e^{-sigma^2 u^2 / 2}) so the implementation is checked against independent
arithmetic.  Monte Carlo checks use a fixed seed and tolerances a few times
the standard error, validated ahead of time.
"""

import math
import os
import pickle
import threading
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad

from nvecho import noise
from nvecho.config import build
from nvecho.estimator import fit_exponential
from nvecho.noise import (
    CHUNK,
    Distribution,
    NoiseSource,
    delta,
    dephasing_factor,
    field_source,
    gaussian,
    lorentzian,
    monte_carlo_attenuation,
    residual_field_source,
    strain_source,
    temperature_source,
)
from nvecho.pulses import KINDS, build_sequence
from nvecho.response import default_linear_response, default_quasiharmonic_set
from nvecho.sequences import simulate_family
from nvecho.spin_model import (
    PhaseCoefficients,
    Segment,
    default_params,
    phase_coefficients,
    stack_coefficients,
)
from nvecho.units import TWO_PI

SEED = 12345


def echo_coefficients(t=1e-3, tau=0.18e-3, pair=(0, -1)):
    p = default_params()
    return phase_coefficients(p, pair, (Segment(t - tau, 0), Segment(tau, +1)))


def test_lorentzian_characteristic_function():
    d = lorentzian(0.0, 2.0)
    assert d.attenuation(3.0) == pytest.approx(0.0024787521766663585, rel=1e-12)
    # about the location: the location phase e^{1.5 i} is not part of it
    assert lorentzian(1.5, 2.0).attenuation(1.0) == pytest.approx(math.exp(-2.0), rel=1e-12)


def test_gaussian_characteristic_function():
    d = gaussian(0.0, 3.0)
    assert d.attenuation(2.0) == pytest.approx(1.5229979744712628e-08, rel=1e-12)
    assert gaussian(-0.5, 1.0).attenuation(2.0) == pytest.approx(math.exp(-0.5 * 4.0),
                                                                 rel=1e-12)


def test_delta_characteristic_function():
    u = np.array([-2.0, 0.0, 5.0])
    assert np.array_equal(delta(0.7).attenuation(u), np.ones(3))
    assert delta(0.7).attenuation(5.0) == 1.0


def test_characteristic_function_conjugate_symmetry():
    # each kind is symmetric about its location, so the characteristic
    # function about it is real and even
    for d in (lorentzian(0.3, 1.2), gaussian(-0.2, 0.5), delta(1.1)):
        u = np.linspace(-4, 4, 17)
        att = d.attenuation(u)
        assert att.dtype == np.float64
        assert np.array_equal(att[::-1], att)


def test_attenuation_is_taken_about_the_location():
    u = np.linspace(-3, 3, 13)
    assert np.array_equal(lorentzian(2.5, 1.0).attenuation(u), lorentzian(0.0, 1.0).attenuation(u))
    # the closed form leaves the location phase to location_phase
    c = echo_coefficients()
    located = temperature_source(gaussian(2.5, 1.0))
    assert dephasing_factor((located,), [c]) == dephasing_factor(
        (temperature_source(gaussian(0.0, 1.0)),), [c])
    assert located.location_phase(c) == pytest.approx(2.5 * located.phase_coefficient(c),
                                                      rel=1e-12)


def test_distribution_validation():
    with pytest.raises(ValueError):
        Distribution(kind="lorentzian", location=0.0, scale=-1.0)
    with pytest.raises(ValueError):
        Distribution(kind="uniform", location=0.0, scale=1.0)
    with pytest.raises(ValueError):
        Distribution(kind="delta", location=0.0, scale=0.5)
    # a NaN width used to pass and give a silent amplitude of nan
    for location, scale in ((0.0, math.nan), (math.inf, 5.0), (-math.inf, 0.0), (math.nan, 1.0)):
        with pytest.raises(ValueError, match="finite"):
            Distribution(kind="lorentzian", location=location, scale=scale)


def draw(d, n, seed=SEED, source_index=0, chunk_index=0):
    """The chunk of draws the Monte Carlo average takes."""
    return d._sample_chunk(noise._chunk_rng(seed, source_index, chunk_index), n)


def test_sampling_is_deterministic():
    d = lorentzian(0.0, 1.0)
    a = draw(d, 1000)
    assert np.array_equal(a, draw(d, 1000))
    assert not np.array_equal(a, draw(d, 1000, seed=SEED + 1))
    assert not np.array_equal(a, draw(d, 1000, source_index=1))
    assert not np.array_equal(a, draw(d, 1000, chunk_index=1))


def test_sample_statistics():
    n = 1 << 17
    g = draw(gaussian(0.0, 1.0), n)
    assert abs(np.mean(g)) < 0.01
    assert np.var(g) == pytest.approx(1.0, rel=0.02)
    lo = draw(lorentzian(0.0, 1.0), n)
    assert abs(np.median(lo)) < 0.01
    # half the mass of a unit Lorentzian lies within one half width
    assert np.mean(np.abs(lo) < 1.0) == pytest.approx(0.5, abs=0.01)
    de = draw(delta(3.25), 100)
    assert np.all(de == 3.25)


def test_phase_coefficient_temperature_source():
    c = echo_coefficients(t=1e-3, tau=0.18e-3)
    resp = default_linear_response()
    src = temperature_source(lorentzian(0.0, 5.0), response=resp)
    expected = c.quadrupole * resp.quadrupole_per_K + c.hyperfine * resp.hyperfine_per_K
    assert src.phase_coefficient(c) == pytest.approx(expected, rel=1e-12)
    # cancellation point zeroes the coefficient
    t = 1e-3
    tau = t * resp.quadrupole_per_K / resp.hyperfine_per_K
    c0 = echo_coefficients(t=t, tau=tau)
    assert abs(src.phase_coefficient(c0)) < 1e-12 * abs(t * resp.quadrupole_per_K)


def test_phase_coefficient_field_and_strain():
    c = echo_coefficients()
    src_b = field_source(lorentzian(0.0, 0.1))
    assert src_b.phase_coefficient(c) == pytest.approx(c.field, rel=1e-12)
    resp = default_linear_response()
    src_e = strain_source(gaussian(0.0, 1e-4), response=resp)
    expected = (
        c.quadrupole * resp.quadrupole_per_strain + c.hyperfine * resp.hyperfine_per_strain
    )
    assert src_e.phase_coefficient(c) == pytest.approx(expected, rel=1e-12)


def test_residual_field_source_width():
    src = residual_field_source(dq_coherence_time=3.9e-3)
    assert src.slopes == (0.0, 0.0, 1.0)
    assert src.distribution.kind == "lorentzian"
    assert src.distribution.location == 0.0
    expected_width = 1.0 / (2.0 * TWO_PI * 307.7 * 3.9e-3)
    assert src.distribution.scale == pytest.approx(expected_width, rel=1e-12)
    # implied single-quantum rate is half the double-quantum one
    rate_sq = TWO_PI * 307.7 * src.distribution.scale
    assert rate_sq == pytest.approx(1.0 / (2 * 3.9e-3), rel=1e-12)


def test_residual_field_source_rejects_degenerate_inputs():
    # an infinite coherence time used to build a zero-width source ("no dephasing")
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match=f"dq_coherence_time must be finite, got {bad}"):
            residual_field_source(dq_coherence_time=bad)
    for bad in (0.0, -1e-3):
        with pytest.raises(ValueError, match="coherence time must be positive and finite"):
            residual_field_source(dq_coherence_time=bad)
    with pytest.raises(ValueError, match="gamma_n must be finite, got nan"):
        residual_field_source(gamma_n=math.nan)
    with pytest.raises(ValueError, match="gamma_n must be finite and nonzero"):
        residual_field_source(gamma_n=0.0)
    # a bool used to be read as 1, which the config refuses
    with pytest.raises(ValueError, match="dq_coherence_time must be a plain number, got True"):
        residual_field_source(True)


@pytest.mark.parametrize("call, name", [
    (lambda: lorentzian(True, 1.0), "location"),
    (lambda: lorentzian(0.0, True), "scale"),
    (lambda: gaussian(True, 1.0), "location"),
    (lambda: gaussian(0.0, True), "scale"),
    (lambda: delta(True), "location"),
], ids=["lorentzian-location", "lorentzian-scale", "gaussian-location", "gaussian-scale",
        "delta"])
def test_distributions_refuse_a_bool(call, name):
    # a bool was read as 1, which the config refuses
    with pytest.raises(ValueError, match=f"distribution {name} must be a plain number, got True"):
        call()


def test_dephasing_factor_is_product_of_characteristic_functions():
    c = echo_coefficients()
    resp = default_linear_response()
    t_src = temperature_source(lorentzian(0.3, 5.0), response=resp)
    b_src = field_source(gaussian(0.0, 0.05))
    c_t = t_src.phase_coefficient(c)
    expected = math.exp(-5.0 * abs(c_t)) * math.exp(-0.5 * (0.05 * c.field) ** 2)
    (got,) = dephasing_factor((t_src, b_src), [c])
    assert got == pytest.approx(expected, rel=1e-12)
    assert got == t_src.distribution.attenuation(c_t) * b_src.distribution.attenuation(c.field)
    assert got < 1.0


def test_dephasing_factor_batch_matches_per_point_product():
    resp = default_linear_response()
    sources = (temperature_source(lorentzian(0.3, 5.0), response=resp),
               field_source(gaussian(0.1, 0.05)),
               strain_source(gaussian(0.0, 1e-6), response=resp))
    family = [echo_coefficients(t=t, tau=f * t)
              for t in (2e-4, 1e-3, 3e-3) for f in (0.0, 0.18, 0.4, 1.0)]
    batch = dephasing_factor(sources, family)
    assert batch.shape == (len(family),) and batch.dtype == np.float64
    for got, c in zip(batch, family):
        expected = 1.0
        for src in sources:
            expected *= src.distribution.attenuation(src.phase_coefficient(c))
        assert abs(got - expected) <= 1e-14 * abs(expected)


def test_dephasing_factor_rejects_nonlinear_sources():
    c = echo_coefficients()
    src = temperature_source(
        lorentzian(300.0, 25.0), response=default_quasiharmonic_set()
    )
    with pytest.raises(TypeError):
        dephasing_factor((src,), [c])


def test_monte_carlo_matches_closed_form_linear():
    c = echo_coefficients(t=1e-3, tau=0.05e-3)
    resp = default_linear_response()
    sources = (
        temperature_source(lorentzian(0.0, 5.0), response=resp),
        field_source(lorentzian(0.0, 0.0663)),
    )
    exact = dephasing_factor(sources, [c])
    result = monte_carlo_attenuation(sources, [c], n_samples=1 << 19, seed=SEED)
    assert result.n_retained == result.n_samples == 1 << 19
    assert abs(result.attenuation[0] - exact[0]) < 5e-3
    assert result.std_error[0] < 2e-3
    # both averages are taken about the locations, so located sources agree
    # member by member in both parts (the closed form's imaginary part is 0);
    # the standard error bounds each part's
    family = [echo_coefficients(t=t, tau=f * t) for t in (5e-5, 2e-4, 1e-3) for f in (0.0, 0.3)]
    for located in ((temperature_source(lorentzian(3.0, 5.0)),
                     field_source(lorentzian(0.05, 0.0663))),
                    (temperature_source(gaussian(-2.0, 5.0)), field_source(gaussian(0.1, 0.05)))):
        exact = dephasing_factor(located, family)
        result = monte_carlo_attenuation(located, family, n_samples=1 << 18, seed=SEED)
        bound = 4.0 * result.std_error
        assert np.all(np.abs(result.attenuation.real - exact) <= bound)
        assert np.all(np.abs(result.attenuation.imag) <= bound)


@pytest.mark.parametrize("sources", [
    (temperature_source(lorentzian(0.0, 5.0)), field_source(gaussian(0.0, 0.05))),
    (temperature_source(lorentzian(300.0, 25.0), response=default_quasiharmonic_set()),
     field_source(gaussian(0.0, 0.05))),
], ids=["linear", "quasiharmonic"])
def test_monte_carlo_batch_matches_single_points(sources):
    family = [echo_coefficients(t=t, tau=f * t) for t in (2e-5, 1e-4) for f in (0.0, 0.17, 0.5)]
    n = CHUNK + 17  # force an unequal final chunk
    batch = monte_carlo_attenuation(sources, family, n_samples=n, seed=SEED)
    assert batch.attenuation.shape == batch.std_error.shape == (len(family),)
    for g, c in enumerate(family):
        alone = monte_carlo_attenuation(sources, [c], n_samples=n, seed=SEED)
        assert alone.attenuation[0] == batch.attenuation[g]
        assert alone.std_error[0] == batch.std_error[g]
        assert alone.n_retained == batch.n_retained
        assert alone.truncated_mass == batch.truncated_mass


QUASIHARMONIC = temperature_source(lorentzian(300.0, 25.0), response=default_quasiharmonic_set())


# Bound on |kernel sum - exact sum| per retained draw, for the real and the
# imaginary part alike: the e^{2 pi i j/4096} table is within 1.2e-16, the
# polynomials within 1.2e-16, and the bins and the contraction add rounding.
# Largest measured in the tests below: 1.11e-16 per draw ("linear";
# "two-channels-last" 5.7e-17, phases beyond the binned range 5.0e-17), so
# the bound has a margin of 4.5x.
KERNEL_BOUND_PER_DRAW = 5e-16


def kernel_sums(terms, size):
    sums = noise._member_sums(terms)
    assert len(sums) == size
    return sums


def exact_sum(phase):
    return math.fsum(np.cos(phase)), math.fsum(np.sin(phase))


@pytest.mark.parametrize("sources", [
    (QUASIHARMONIC,),
    (temperature_source(lorentzian(0.0, 5.0)),),
    (field_source(delta(0.0)),),  # every phase is a signed zero
    (QUASIHARMONIC, field_source(delta(0.0))),
    (field_source(gaussian(0.0, 0.05)), strain_source(delta(1e-6)), QUASIHARMONIC),
], ids=["quasiharmonic", "linear", "delta", "quasiharmonic-delta", "two-channels-last"])
def test_member_kernel_matches_the_exact_sum_within_its_bound(sources):
    # a t = 0 member (every coefficient 0), negative coefficients and delta
    # sources make exact zeros and -0.0 products in the phase; the linear
    # Cauchy source reaches phases of 3e4 rad
    family = [echo_coefficients(t=0.0, tau=0.0), echo_coefficients(t=2e-4, tau=0.0),
              echo_coefficients(t=2e-3, tau=0.36e-3), echo_coefficients(t=3e-5, tau=3e-5),
              PhaseCoefficients(quadrupole=-1e-3, hyperfine=2e-3, field=-0.0)]
    grid = stack_coefficients(family)
    windows = [src.truncation_window() for src in sources]
    terms, kept = noise._chunk_channels(sources, windows, grid, SEED, 0, 4099)
    sums = kernel_sums(terms, len(family))
    for g, got in enumerate(sums):
        # the kernel's term order: the first product, then each later one added
        (c, channel), *rest = terms
        phase = c[g] * channel
        for c, channel in rest:
            phase = phase + c[g] * channel
        re, im = exact_sum(phase)
        assert abs(got.real - re) <= KERNEL_BOUND_PER_DRAW * kept
        assert abs(got.imag - im) <= KERNEL_BOUND_PER_DRAW * kept
        if not phase.any():  # the t = 0 member, and every member of "delta"
            assert np.array(got).tobytes() == np.array(complex(kept, 0.0)).tobytes()


def test_member_kernel_sums_phases_beyond_its_binned_range():
    # past |phase| = _MAX_TURN * 2 pi/_BINS = 1.6e6 rad the kernel hands a
    # draw to np.exp; the blocks here hold such draws among binned ones, in
    # the first and in the last, partial, block
    edge = noise._MAX_TURN * math.tau / noise._BINS
    rng = np.random.default_rng(SEED)
    channel = 1e4 * rng.standard_cauchy(3 * noise._BLOCK + 5)
    channel[[0, 1, 2, 3, 4, -1, -2]] = [edge, -edge, np.nextafter(edge, np.inf), 1e300, -0.0,
                                        -3e9, 5e-324]
    coefficients = np.array([1.0, -3.0, 0.5, -0.0])
    assert (np.abs(channel) > edge).sum() > 10
    sums = kernel_sums([(coefficients, channel)], coefficients.size)
    for c, got in zip(coefficients, sums):
        re, im = exact_sum(c * channel)
        assert abs(got.real - re) <= KERNEL_BOUND_PER_DRAW * channel.size
        assert abs(got.imag - im) <= KERNEL_BOUND_PER_DRAW * channel.size
    # a zero coefficient makes every phase a signed zero
    assert np.array(sums[-1]).tobytes() == np.array(complex(channel.size, 0.0)).tobytes()


@pytest.mark.parametrize("sources", [
    (QUASIHARMONIC,),
    (temperature_source(lorentzian(0.0, 5.0)),),
    (field_source(gaussian(0.0, 0.05)), strain_source(delta(1e-6)), QUASIHARMONIC),
], ids=["quasiharmonic", "linear", "two-channels-last"])
def test_member_kernel_skips_the_range_check_with_the_same_bits(sources, monkeypatch):
    # a member whose phase bound, sum |c| * max |channel|, is within
    # _PHASE_LIMIT skips the per-block range check; forcing the check on
    # gives it the same bytes.  In "linear" the Cauchy draws put one member's
    # bound past the limit (6e7 rad) and one just under it (1.3e6 rad)
    family = [echo_coefficients(t=0.0, tau=0.0), echo_coefficients(t=2e-4, tau=0.0),
              echo_coefficients(t=2e-3, tau=0.36e-3), echo_coefficients(t=3e-5, tau=3e-5),
              PhaseCoefficients(quadrupole=-1e-3, hyperfine=2e-3, field=-0.0)]
    grid = stack_coefficients(family)
    windows = [src.truncation_window() for src in sources]
    terms, kept = noise._chunk_channels(sources, windows, grid, SEED, 0,
                                        2 * noise._BLOCK + 5)  # a partial last block
    real = noise._bin_block
    checked = []
    monkeypatch.setattr(noise, "_bin_block", lambda *args: checked.append(args[-1]) or real(*args))
    fast = kernel_sums(terms, len(family))
    blocks = -(-kept // noise._BLOCK)
    assert len(checked) == blocks * len(family)
    assert not any(checked[blocks:2 * blocks])  # member 1 is under the limit in every set
    checked.clear()
    monkeypatch.setattr(noise, "_PHASE_LIMIT", -math.inf)
    slow = kernel_sums(terms, len(family))
    assert all(checked)
    assert np.array(fast).tobytes() == np.array(slow).tobytes()


def test_member_kernel_keeps_signed_zeros_out_of_the_sum():
    # phases of -0.0 and +0.0 in any mix sum to kept + 0j, with a +0.0
    # imaginary part, as e^{i 0} = 1 + 0j does
    channel = np.array([0.0, -0.0] * 9000)
    coefficients = np.array([1.0, -1.0, -0.0])
    sums = kernel_sums([(coefficients, channel)], coefficients.size)
    for got in sums:
        assert np.array(got).tobytes() == np.array(complex(channel.size, 0.0)).tobytes()


# tracemalloc peak of the call below before the member loop was split across
# threads (numpy 2.4, Python 3.11): per-member temporaries on top of the draws
PEAK_BEFORE_THREADS = 4_141_792


FORK = os.fork


def use_cpus(monkeypatch, n):
    """Let ``monte_carlo_attenuation`` see ``n`` CPUs, and return the list
    that each fork the parent makes appends to."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))
    forks = []
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or FORK())
    return forks


def test_monte_carlo_peak_memory(monkeypatch):
    # one CPU sums the family in this process; two split it, and the bound
    # holds for this process's share
    src = temperature_source(lorentzian(300.0, 25.0), response=default_quasiharmonic_set())
    family = [echo_coefficients(t=2e-3, tau=f * 2e-3) for f in np.linspace(0.1, 0.25, 8)]
    for cpus in (1, 2):
        forks = use_cpus(monkeypatch, cpus)
        monte_carlo_attenuation((src,), family, n_samples=CHUNK, seed=SEED)  # first-call set-up
        tracemalloc.start()
        try:
            monte_carlo_attenuation((src,), family, n_samples=2 * CHUNK, seed=SEED)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(forks) == 2 * (cpus - 1)
        assert peak <= PEAK_BEFORE_THREADS, cpus


def assert_no_child_left():
    # every child was reaped: none is left running, blocked or a zombie
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def result_bytes(result):
    return (result.attenuation.tobytes(), result.std_error.tobytes(), result.n_samples,
            result.seed, result.n_retained, result.truncated_mass)


SPLIT_FAMILIES = {
    "one-member": ((QUASIHARMONIC,), [echo_coefficients(t=2e-4, tau=0.0)]),
    "two-members": ((QUASIHARMONIC,), [echo_coefficients(t=2e-4, tau=0.0),
                                       echo_coefficients(t=2e-3, tau=0.36e-3)]),
    "quasiharmonic": ((QUASIHARMONIC,), [echo_coefficients(t=t, tau=f * t)
                                         for t in (2e-5, 1e-4, 2e-3)
                                         for f in (0.0, 0.17, 0.5)]),
    # the flat term order: a linear term, a strain term, then two curves
    "three-sources": ((field_source(gaussian(0.0, 0.05)), strain_source(lorentzian(0.0, 1e-6)),
                       QUASIHARMONIC),
                      [echo_coefficients(t=t, tau=f * t) for t in (2e-5, 1e-4)
                       for f in (0.0, 0.17, 0.5)]),
}


@pytest.mark.parametrize("cpus", [2, 3])
@pytest.mark.parametrize("family", SPLIT_FAMILIES)
def test_monte_carlo_split_keeps_the_bits(family, cpus, monkeypatch):
    sources, coefficients = SPLIT_FAMILIES[family]
    n = CHUNK + 17  # an unequal final chunk
    use_cpus(monkeypatch, 1)
    alone = monte_carlo_attenuation(sources, coefficients, n_samples=n, seed=SEED)
    forks = use_cpus(monkeypatch, cpus)
    split = monte_carlo_attenuation(sources, coefficients, n_samples=n, seed=SEED)
    assert len(forks) == min(cpus, len(coefficients)) - 1
    assert result_bytes(split) == result_bytes(alone)
    assert_no_child_left()


def test_monte_carlo_sums_in_this_process_while_another_thread_runs(monkeypatch):
    # a forked child holds only the forking thread
    forks = use_cpus(monkeypatch, 2)
    release = threading.Event()
    other = threading.Thread(target=release.wait, args=(30.0,))
    other.start()
    try:
        monte_carlo_attenuation((QUASIHARMONIC,), SPLIT_FAMILIES["two-members"][1],
                                n_samples=1000, seed=SEED)
    finally:
        release.set()
        other.join(30.0)
    assert not other.is_alive()
    assert forks == []


def fail_in(where, failure, monkeypatch):
    """Make ``noise._slice_sums`` call ``failure`` in the parent or in every
    forked child; the patch is made before the fork, so children have it."""
    parent, real = os.getpid(), noise._slice_sums

    def slice_sums(*args):
        if (os.getpid() == parent) == (where == "parent"):
            failure()
        return real(*args)

    monkeypatch.setattr(noise, "_slice_sums", slice_sums)


def raise_value_error():
    raise ValueError("a slice could not be summed")


@pytest.mark.parametrize("where", ["child", "parent"])
def test_monte_carlo_split_raises_what_a_slice_raises(where, monkeypatch):
    forks = use_cpus(monkeypatch, 3)
    fail_in(where, raise_value_error, monkeypatch)
    with pytest.raises(ValueError, match="^a slice could not be summed$"):
        monte_carlo_attenuation(*SPLIT_FAMILIES["quasiharmonic"], n_samples=CHUNK, seed=SEED)
    assert len(forks) == 2
    assert_no_child_left()


def test_monte_carlo_split_names_a_child_that_sends_no_result(monkeypatch):
    use_cpus(monkeypatch, 2)
    fail_in("child", lambda: os._exit(7), monkeypatch)
    with pytest.raises(RuntimeError, match="ended without a result, exit status 7$"):
        monte_carlo_attenuation(*SPLIT_FAMILIES["quasiharmonic"], n_samples=1000, seed=SEED)
    assert_no_child_left()


def test_monte_carlo_split_reads_a_result_larger_than_the_pipe_buffer(monkeypatch):
    # the child's share of 6000 members pickles to more than a pipe holds
    # (64 KiB on Linux), so the child blocks until the parent reads it
    family = [echo_coefficients(t=t, tau=0.0) for t in np.linspace(1e-6, 1e-4, 6000)]
    sources = (temperature_source(lorentzian(0.0, 5.0)),)
    windows = [src.truncation_window() for src in sources]
    share = noise._slice_sums(sources, windows, stack_coefficients(family[3000:]), SEED, 8)
    assert len(pickle.dumps((True, share))) > 1 << 16
    use_cpus(monkeypatch, 1)
    alone = monte_carlo_attenuation(sources, family, n_samples=8, seed=SEED)
    forks = use_cpus(monkeypatch, 2)
    split = monte_carlo_attenuation(sources, family, n_samples=8, seed=SEED)
    assert len(forks) == 1
    assert result_bytes(split) == result_bytes(alone)
    assert_no_child_left()


def test_truncation_mass_absolute_temperature():
    # Cauchy(300 K, 25 K) clipped to [0, location + 50 sigma]
    src = temperature_source(
        lorentzian(300.0, 25.0), response=default_quasiharmonic_set()
    )
    lo, hi = src.truncation_window()
    assert lo == 0.0
    assert hi == pytest.approx(300.0 + 50 * 25.0)
    c = echo_coefficients(t=20e-6, tau=0.0)
    result = monte_carlo_attenuation((src,), [c], n_samples=1 << 18, seed=SEED)
    expected_mass = 1.0 - (math.atan(50.0) + math.atan(12.0)) / math.pi
    assert expected_mass == pytest.approx(0.0328300, abs=1e-6)
    assert result.truncated_mass["temperature"] == pytest.approx(expected_mass, rel=1e-9)
    dropped = 1.0 - result.n_retained / result.n_samples
    assert dropped == pytest.approx(expected_mass, abs=5e-3)


def test_quasiharmonic_temperature_location_is_absolute():
    # a negative location used to fail the run inside the curves
    qset = default_quasiharmonic_set()
    with pytest.raises(ValueError, match="must be >= 0 K, got -20.0"):
        temperature_source(lorentzian(-20.0, 25.0), response=qset)
    assert temperature_source(lorentzian(0.0, 25.0), response=qset).distribution.location == 0.0
    # on a linear response the location is a deviation, of either sign
    assert temperature_source(lorentzian(-20.0, 25.0)).is_linear


def test_monte_carlo_nonlinear_matches_quadrature():
    # Ramsey-style segment in m_S = 0: only the quadrupole drift matters.
    t = 20e-6
    c = PhaseCoefficients(quadrupole=-t, hyperfine=0.0, field=0.0)
    qh = default_quasiharmonic_set()
    src = temperature_source(lorentzian(300.0, 25.0), response=qh)
    lo, hi = src.truncation_window()

    def pdf(T):
        return 25.0 / (math.pi * ((T - 300.0) ** 2 + 25.0**2))

    def integrand_re(T):
        return math.cos(-t * qh.quadrupole.shift_at(T)) * pdf(T)

    def integrand_im(T):
        return math.sin(-t * qh.quadrupole.shift_at(T)) * pdf(T)

    norm = quad(pdf, lo, hi, limit=200)[0]
    expected = (
        quad(integrand_re, lo, hi, limit=200)[0]
        + 1j * quad(integrand_im, lo, hi, limit=200)[0]
    ) / norm
    result = monte_carlo_attenuation((src,), [c], n_samples=1 << 19, seed=SEED)
    assert abs(result.attenuation[0] - expected) < 5e-3


def quadrature_attenuation(source, coefficients, tol=1e-4, panels=4000, nodes=20):
    """Deterministic oracle for ``monte_carlo_attenuation`` over one truncated
    Lorentzian source: composite Gauss-Legendre in the CDF variable u, with
    T = loc + scale * tan(pi (u - 1/2)) fed through ``deviation_channels``.
    Each member's panel count doubles until two passes agree to ``tol``."""
    dist = source.distribution
    u_lo, u_hi = (dist.cdf(bound) for bound in source.truncation_window())
    x, w = np.polynomial.legendre.leggauss(nodes)
    grid = stack_coefficients(coefficients)
    previous, converged = {}, {}
    todo = list(range(grid.quadrupole.size))
    while todo:
        assert panels <= 1 << 20, f"members {todo} did not converge"
        current = dict.fromkeys(todo, 0j)
        edges = np.linspace(u_lo, u_hi, panels + 1)
        for start in range(0, panels, 4000):  # bounded memory per block of panels
            block = edges[start:start + 4001]
            half = 0.5 * np.diff(block)[:, None]
            u = (block[:-1, None] + half * (x + 1.0)).ravel()
            weights = (half * w).ravel() / (u_hi - u_lo)
            pairs = source.deviation_channels(
                grid, dist.location + dist.scale * np.tan(np.pi * (u - 0.5)))
            for g in todo:
                current[g] += np.exp(1j * sum(c[g] * ch for c, ch in pairs)) @ weights
        converged.update((g, current[g]) for g in todo
                         if g in previous and abs(current[g] - previous[g]) < tol)
        previous, panels = current, 2 * panels
        todo = [g for g in todo if g not in converged]
    return np.array([converged[g] for g in range(grid.quadrupole.size)])


@pytest.mark.parametrize("name", ["fig4", "s5"])
def test_monte_carlo_matches_quadrature_over_scenario_grids(name, protection_runs):
    config, result, _ = protection_runs[name]
    _, (params, _, (src,)) = build(config)
    block = config.sequence
    compare, best = block["compare"], result.numbers["argmax_flip_fraction"]
    echo, ramsey = KINDS["unbalanced_echo"].read(block), KINDS[compare["kind"]].read(compare)
    families = {
        "sweep": [build_sequence("unbalanced_echo", block["total_time"], flip_fraction=float(f),
                                 **echo) for f in result.signals["sweep"].x],
        "protected": [build_sequence("unbalanced_echo", float(t), flip_fraction=best, **echo)
                      for t in result.signals["protected"].x],
        "unprotected": [build_sequence(compare["kind"], float(t), **ramsey)
                        for t in result.signals["unprotected"].x],
    }
    amplitudes = {}
    for label, family in families.items():
        mc = result.signals[label].monte_carlo
        exact = quadrature_attenuation(
            src, [phase_coefficients(params, seq.pair, seq.segments) for seq in family])
        assert np.all(np.abs(mc.attenuation - exact) <= 4.0 * mc.std_error), label
        amplitudes[label] = np.abs(exact)
    # a seed-free headline: the quadrature scans, fitted as the run fits its
    # Monte Carlo scans, give its optimum and its numbers to within 1%
    assert result.signals["sweep"].x[np.argmax(amplitudes["sweep"])] == best
    t2 = {label: fit_exponential(result.signals[label].x, amplitudes[label])["coherence_time"]
          for label in ("protected", "unprotected")}
    seed_free = {"protected_T2_s": t2["protected"], "unprotected_T2_s": t2["unprotected"],
                 "improvement": t2["protected"] / t2["unprotected"]}
    for key, value in seed_free.items():
        assert value == pytest.approx(result.numbers[key], rel=0.01), key


def test_monte_carlo_rejects_bad_arguments():
    c = echo_coefficients()
    src = field_source(gaussian(0.0, 0.05))
    with pytest.raises(ValueError):
        monte_carlo_attenuation((src,), [c], n_samples=0, seed=SEED)
    with pytest.raises(ValueError, match="at least one noise source"):
        monte_carlo_attenuation((), [c], n_samples=100, seed=SEED)


@pytest.mark.parametrize("keyword, bad, message", [
    ("n_samples", True, "n_samples must be an integer"),  # ran 1 draw: amplitude 1.0
    ("n_samples", 2.5, "n_samples must be an integer"),   # a TypeError from range
    ("n_samples", -4, "n_samples must be positive"),
    ("seed", 1.5, "seed must be an integer"),             # a TypeError from SeedSequence
    ("seed", True, "seed must be an integer"),            # ran as seed 1
    ("seed", -1, "seed must be non-negative"),            # numpy's message, no name
])
def test_monte_carlo_names_a_bad_sample_count_or_seed(keyword, bad, message):
    hot = temperature_source(lorentzian(300.0, 25.0), response=default_quasiharmonic_set())
    arguments = {"n_samples": 1000, "seed": SEED} | {keyword: bad}
    with pytest.raises(ValueError, match=message):
        monte_carlo_attenuation((hot,), [echo_coefficients()], **arguments)
    # the scan layer reaches it with the same keywords
    with pytest.raises(ValueError, match=message):
        simulate_family([build_sequence("ramsey", 1e-5)], (hot,), **arguments)
    # numpy integers are integers
    numpy_ints = monte_carlo_attenuation((hot,), [echo_coefficients()],
                                         n_samples=np.int64(1000), seed=np.uint32(SEED))
    plain = monte_carlo_attenuation((hot,), [echo_coefficients()], n_samples=1000, seed=SEED)
    assert numpy_ints.attenuation.tobytes() == plain.attenuation.tobytes()


def test_zero_scale_is_a_point_mass():
    for dist in (lorentzian(300.0, 0.0), gaussian(300.0, 0.0)):
        assert dist.cdf(299.0) == 0.0
        assert dist.cdf(300.0) == 1.0
    src = temperature_source(lorentzian(300.0, 0.0), response=default_quasiharmonic_set())
    result = monte_carlo_attenuation((src,), [echo_coefficients()], n_samples=1000, seed=SEED)
    assert result.attenuation[0] == 1.0
    assert result.n_retained == 1000
    assert result.truncated_mass == {}


def test_source_requires_matching_response_type():
    with pytest.raises(TypeError):
        temperature_source(lorentzian(0.0, 5.0), response="linear")
    with pytest.raises(ValueError, match="three finite slopes"):
        NoiseSource(name="x", distribution=gaussian(0.0, 1.0), slopes=(1.0, math.nan, 0.0))
