"""Every number of the packaged scenarios, pinned: each run's artifacts
against the ``reproduce --deterministic`` artifacts checked in under
``data/reference``, and its summary line, exactly, against
``<name>-summary.txt`` there.

A run writes the same artifact names, every ``#`` metadata line and CSV
header exactly, and every number within ``RTOL`` of the reference or the
bound that ``BOUNDS`` names for it.  A JSON document may gain keys but not
lose or move one.  A change that means to move a number rewrites the
reference files and names each moved value.
"""

import json
import math
from pathlib import Path

import pytest

from nvecho.catalog import SCENARIO_NAMES
from nvecho.config import load_packaged_scenario
from nvecho.scenarios import run_scenario

REFERENCE = Path(__file__).parent / "data" / "reference"

# Tight enough to catch any change of seed, samples, grid or fit setting
# (seed 4242 alone moves fig4's improvement by 9e-4).  With numpy's AVX-512
# and AVX2 loops turned off (NPY_DISABLE_CPU_FEATURES), every number but the
# ones below moved by at most 1.1e-14.
RTOL = 1e-9

# A fit to Monte Carlo data stops at the first point where the solver's
# stopping rule holds (nvecho.solvers: undamped step below STEP_TOLERANCE =
# 1.5e-8 of each parameter, or scaled gradient below 1e-10), and a change of
# the data in its last digit moves that point.  Over every point either rule
# accepts around the least-squares minimum of fig4's and s5's four fits,
# T2* and c0 lie within 1.8e-8 of the reference and the covariance within
# 7.7e-8; 500 fits each with the data moved by 1e-15 relative moved them by
# up to 1.6e-8 and 4.8e-8 (s5 protected), and turning AVX-512 off moved s5's
# protected covariance by 5.4e-9.  Held to FIT_RTOL, over 10x above those.
FIT_RTOL = 1e-6

# The rounding noise of fits to exact, closed-form data moved by up to 50%
# there, so it is only held below NOISE_CEILING: a fit to data that is no
# longer exact leaves residuals many orders above it.
NOISE = "rounding noise"
NOISE_CEILING = 1e-10

# Per artifact, the JSON keys (and everything below them) or CSV columns
# held to another bound than RTOL: a relative tolerance, or NOISE.
MONTE_CARLO_FIT = dict.fromkeys(
    ("protected", "unprotected", "improvement", "protected_T2_s", "unprotected_T2_s"), FIT_RTOL)
BOUNDS = {
    "fig1c-fits.json": {"covariance": NOISE, "residual_norm": NOISE},
    "fig2-fits.json": {"covariance": NOISE, "residual_norm": NOISE},
    "fig2-rates.csv": {"rate_error": NOISE},
    "fig4-fits.json": MONTE_CARLO_FIT,
    "s5-fits.json": MONTE_CARLO_FIT,
}


def _number_mismatch(where, ref, got, bound):
    if bound == NOISE:
        if max(abs(ref), abs(got)) > NOISE_CEILING:
            return f"{where}: rounding noise {got!r} (reference {ref!r}) exceeds {NOISE_CEILING}"
    elif not math.isclose(got, ref, rel_tol=bound, abs_tol=0.0):
        return f"{where}: {got!r} differs from the reference {ref!r} by more than {bound}"
    return None


def _json_mismatches(where, ref, got, bounds, bound=RTOL):
    if isinstance(ref, dict):
        if not isinstance(got, dict):
            return [f"{where}: expected a mapping, got {got!r}"]
        out = []
        for key, value in ref.items():
            if key not in got:
                out.append(f"{where}.{key}: missing")
            else:
                out += _json_mismatches(f"{where}.{key}", value, got[key], bounds,
                                        bounds.get(key, bound))
        return out
    if isinstance(ref, list):
        if not isinstance(got, list) or len(got) != len(ref):
            return [f"{where}: expected {len(ref)} items, got {got!r}"]
        return [m for i, (r, g) in enumerate(zip(ref, got))
                for m in _json_mismatches(f"{where}[{i}]", r, g, bounds, bound)]
    numeric = (int, float)
    if (isinstance(ref, numeric) and isinstance(got, numeric)
            and not isinstance(ref, bool) and not isinstance(got, bool)):
        found = _number_mismatch(where, ref, got, bound)
        return [found] if found else []
    return [] if got == ref else [f"{where}: {got!r} differs from the reference {ref!r}"]


def _csv_parts(path):
    lines = path.read_text().splitlines()
    metadata = [line for line in lines if line.startswith("#")]
    table = [line.split(",") for line in lines if not line.startswith("#")]
    return metadata, table[0], table[1:]


def _csv_mismatches(name, ref_path, got_path, bounds):
    ref_meta, ref_header, ref_rows = _csv_parts(ref_path)
    got_meta, got_header, got_rows = _csv_parts(got_path)
    if got_meta != ref_meta:
        return [f"{name}: metadata lines {got_meta} differ from the reference {ref_meta}"]
    if got_header != ref_header or len(got_rows) != len(ref_rows):
        return [f"{name}: header {got_header} and {len(got_rows)} rows differ from the "
                f"reference's {ref_header} and {len(ref_rows)} rows"]
    out = []
    for row, (ref_row, got_row) in enumerate(zip(ref_rows, got_rows), start=1):
        if len(got_row) != len(ref_row):
            out.append(f"{name} row {row}: {got_row} differs from the reference {ref_row}")
            continue
        for column, ref, got in zip(ref_header, ref_row, got_row):
            where = f"{name} row {row} {column}"
            if ref == "" or got == "":
                if ref != got:
                    out.append(f"{where}: {got!r} differs from the reference {ref!r}")
                continue
            found = _number_mismatch(where, float(ref), float(got), bounds.get(column, RTOL))
            if found:
                out.append(found)
    return out


def artifact_mismatches(ref_path: Path, got_path: Path) -> list:
    """How the artifact at ``got_path`` departs from the reference file of
    the same name, as one line per departure; empty when it matches."""
    name = ref_path.name
    bounds = BOUNDS.get(name, {})
    if ref_path.suffix == ".csv":
        return _csv_mismatches(name, ref_path, got_path, bounds)
    return _json_mismatches(name, json.loads(ref_path.read_text()),
                            json.loads(got_path.read_text()), bounds)


@pytest.fixture(scope="module")
def runs(protection_runs, tmp_path_factory):
    """Each packaged scenario's result, fig4 and s5 from the shared runs and
    the others run here."""
    results = {name: result for name, (_, result, _) in protection_runs.items()}
    for name in SCENARIO_NAMES:
        if name not in results:
            results[name] = run_scenario(load_packaged_scenario(name),
                                         out_dir=tmp_path_factory.mktemp(name),
                                         deterministic=True)
    return results


def test_reference_covers_every_packaged_scenario(runs):
    written = [Path(path).name for result in runs.values() for path in result.artifacts]
    summaries = [f"{name}-summary.txt" for name in runs]
    assert sorted(written + summaries) == sorted(path.name for path in REFERENCE.iterdir())


@pytest.mark.parametrize("name", SCENARIO_NAMES)
def test_artifacts_match_the_reference(name, runs):
    mismatches = [line for path in runs[name].artifacts
                  for line in artifact_mismatches(REFERENCE / Path(path).name, Path(path))]
    assert not mismatches, "\n".join(mismatches)


@pytest.mark.parametrize("name", SCENARIO_NAMES)
def test_summary_matches_the_reference(name, runs):
    # the reference holds the line `nvecho reproduce <name>` prints
    assert runs[name].summary + "\n" == (REFERENCE / f"{name}-summary.txt").read_text()
