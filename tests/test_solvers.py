"""The one least-squares solve (``nvecho.solvers.lstsq``) and what it serves.

numpy's LAPACK ``lstsq`` and ``inv`` are the test-side oracles; the package
itself calls neither, which the last test checks by making every
``numpy.linalg`` solve, and ``numpy.polyfit``, raise under each fit.
"""

import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nvecho.estimator import (
    _covariance_from_jacobian,
    estimate_sigma,
    fit_cosine,
    fit_exponential,
    fit_vee,
)
from nvecho.response import calibrate_response_set
from nvecho.sequences import read_csv
from nvecho.solvers import inverse_gram, lstsq, rank

REFERENCE = Path(__file__).parent / "data" / "reference"

SETTINGS = settings(derandomize=True, deadline=None, database=None, max_examples=60)


def _close(got, expected, scale):
    """Every component within 1e-12 of ``scale``, the size of the answer."""
    return np.all(np.abs(got - expected) <= 1e-12 * scale)


@st.composite
def _systems(draw, integer=False):
    """A tall system ``a`` (1-3 columns) and a solution ``x``.  ``a`` is 10
    times the identity's first columns plus entries of at most 1, its rows
    permuted, so its singular values lie within [5, 15]; integer entries
    make ``a x`` exact."""
    n = draw(st.integers(1, 3))
    m = draw(st.integers(n, 8))
    entries = st.integers(-1, 1) if integer else st.floats(-1.0, 1.0)
    a = 10 * np.eye(m, n) + np.array(draw(st.lists(st.lists(entries, min_size=n, max_size=n),
                                                    min_size=m, max_size=m)), dtype=float)
    a = a[draw(st.permutations(range(m)))]
    values = st.integers(-5, 5) if integer else st.floats(-10.0, 10.0)
    x = np.array(draw(st.lists(values, min_size=n, max_size=n)), dtype=float)
    return a, x


_NOISE = st.lists(st.floats(-50.0, 50.0), min_size=8, max_size=8)


@SETTINGS
@given(system=_systems(), noise=_NOISE)
def test_lstsq_agrees_with_lapack(system, noise):
    a, x = system
    b = a @ x + np.array(noise[:a.shape[0]])
    expected = np.linalg.lstsq(a, b, rcond=None)[0]
    scale = max(np.abs(expected).max(), np.abs(b).max() / np.abs(a).max())
    assert _close(lstsq(a, b), expected, scale)


@SETTINGS
@given(system=_systems(integer=True))
def test_lstsq_of_an_exact_fit(system):
    a, x = system
    b = a @ x  # integers: exact
    assert _close(lstsq(a, b), x, max(np.abs(x).max(), 1.0))


@SETTINGS
@given(system=_systems(), noise=_NOISE,
       at=st.integers(0, 3))
def test_a_zero_column_gets_a_zero_component(system, noise, at):
    a, x = system
    b = a @ x + np.array(noise[:a.shape[0]])
    at = min(at, a.shape[1])
    with_zero = np.insert(a, at, 0.0, axis=1)
    got = lstsq(with_zero, b)
    expected = np.linalg.lstsq(with_zero, b, rcond=None)[0]
    assert got[at] == 0.0
    scale = max(np.abs(expected).max(), np.abs(b).max() / np.abs(a).max())
    assert _close(got, expected, scale)
    assert rank(with_zero) == a.shape[1]


def test_an_exactly_dependent_column_gets_a_zero_component():
    # the third column is the sum of the first two, exactly: it gets no
    # component, and the fit is the two-column one
    a = np.array([[1.0, 0.0], [1.0, 1.0], [1.0, 2.0], [1.0, 3.0]])
    b = np.array([1.0, 2.0, 2.0, 4.0])
    got = lstsq(np.column_stack([a, a[:, 0] + a[:, 1]]), b)
    assert got[2] == 0.0
    assert np.allclose(got[:2], np.linalg.lstsq(a, b, rcond=None)[0], rtol=1e-12)


@SETTINGS
@given(system=_systems(), noise=_NOISE)
def test_covariance_agrees_with_the_inverse_normal_matrix(system, noise):
    jac, x = system
    residuals = np.array(noise[:jac.shape[0]]) + 0.5
    n = jac.shape[1]
    s2 = float(residuals @ residuals) / max(residuals.size - n, 1)
    expected = s2 * np.linalg.inv(jac.T @ jac)
    got = np.asarray(_covariance_from_jacobian(jac, residuals, n))
    assert np.array_equal(got, got.T)
    assert _close(got, expected, np.abs(expected).max())
    assert _close(inverse_gram(jac), np.linalg.inv(jac.T @ jac),
                  np.abs(np.linalg.inv(jac.T @ jac)).max())


@pytest.mark.parametrize("jac", [
    np.array([[1.0, 0.0], [2.0, 0.0], [3.0, 0.0]]),
    np.array([[0.0, 1.0], [0.0, 2.0], [0.0, 3.0]]),
    np.array([[1.0, 2.0], [1.0, 2.0], [1.0, 2.0]]),
    np.zeros((4, 3)),
], ids=["zero-last", "zero-first", "exact-multiple", "all-zero"])
def test_covariance_of_a_singular_jacobian_is_nan(jac):
    cov = np.asarray(_covariance_from_jacobian(
        jac, np.array([0.1, -0.2, 0.3, 0.0][:jac.shape[0]]), jac.shape[1]))
    assert cov.shape == (jac.shape[1],) * 2 and np.isnan(cov).all()


def test_rank_matches_numpy():
    rng = np.random.default_rng(3)
    full = rng.standard_normal((6, 3))
    for a in (full, np.column_stack([full[:, :2], full[:, 0] - 2 * full[:, 1]]),
              np.column_stack([full[:, 0]] * 3), np.zeros((4, 2))):
        assert rank(a) == np.linalg.matrix_rank(a)


def _refuse(name):
    def refused(*args, **kwargs):
        raise AssertionError(f"{name} was called")
    return refused


def test_fits_run_without_numpy_linalg(monkeypatch):
    for name in ("lstsq", "inv", "norm", "matrix_rank"):
        monkeypatch.setattr(np.linalg, name, _refuse(f"numpy.linalg.{name}"))
    monkeypatch.setattr(np, "polyfit", _refuse("numpy.polyfit"))
    signal = read_csv(REFERENCE / "fig1c-protected.csv")
    assert fit_exponential(signal.x, signal.y)["coherence_time"] > 0
    rates = read_csv(REFERENCE / "fig2-rates.csv")
    assert fit_vee(rates.filter((0, -1))).settings == {"method": "vee"}
    assert fit_vee(rates.filter((0, 1))).settings == {"method": "line"}
    phases = np.linspace(0.0, 2 * math.pi, 16)
    assert fit_cosine(phases, 0.6 + 0.4 * np.cos(phases + 0.3))["contrast"] == pytest.approx(0.8)
    for rate_errors in (None, [1.0, 2.0, 3.0]):
        widths = estimate_sigma([100.0, 210.0, 300.0], [[1.0, 2.0], [2.0, 1.0], [3.0, 3.0]],
                                rate_errors=rate_errors)
        assert np.isfinite(widths.covariance).all()
    calibrate_response_set()
