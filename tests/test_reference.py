"""Every number of the packaged scenarios, pinned: each run's artifacts
against the ``reproduce --deterministic`` artifacts checked in under
``data/reference``, and its summary line, exactly, against
``<name>-summary.txt`` there.

A run writes the same artifact names, every ``#`` metadata line, CSV
header and grid column (``GRID_COLUMNS``) exactly.  A closed-form
scenario's artifacts (``CLOSED_FORM``) keep every byte; in the others every
other number lies within ``RTOL`` of the reference, and a JSON document may
gain keys but not lose or move one.  A change that means to move a number
rewrites the reference files and names each moved value.
"""

import json
import math
from pathlib import Path

import pytest

from nvecho.catalog import SCENARIO_NAMES
from nvecho.config import load_packaged_scenario
from nvecho.scenarios import run_scenario

REFERENCE = Path(__file__).parent / "data" / "reference"

# The closed form runs on Python floats with libm's exp, and the fits on
# Python floats too, so these scenarios' artifacts do not follow numpy's
# SIMD level (NPY_DISABLE_CPU_FEATURES): each is held byte for byte.
CLOSED_FORM = ("fig1c", "fig1d", "fig2")

# Tight enough to catch any change of seed, samples, grid or fit setting
# (seed 4242 alone moves fig4's improvement by 9e-4).  With numpy's AVX-512
# and AVX2 loops turned off, every Monte Carlo number moved by at most
# 1.1e-14, the fits included: they stop where the data put them
# (``nvecho.solvers.bisect_minimum``), so a change of the data in its last
# digit moves a fit by rounding only.
RTOL = 1e-9

# The grid each CSV is scanned over: ``config.realize_grid`` computes it on
# Python floats, whatever numpy's SIMD level, so it is held exactly.
GRID_COLUMNS = dict.fromkeys(("total_time_s", "flip_fraction", "tau_over_t"), 0.0)


def _number_mismatch(where, ref, got, bound):
    if not math.isclose(got, ref, rel_tol=bound, abs_tol=0.0):
        return f"{where}: {got!r} differs from the reference {ref!r} by more than {bound}"
    return None


def _json_mismatches(where, ref, got, bound):
    if isinstance(ref, dict):
        if not isinstance(got, dict):
            return [f"{where}: expected a mapping, got {got!r}"]
        out = []
        for key, value in ref.items():
            if key not in got:
                out.append(f"{where}.{key}: missing")
            else:
                out += _json_mismatches(f"{where}.{key}", value, got[key], bound)
        return out
    if isinstance(ref, list):
        if not isinstance(got, list) or len(got) != len(ref):
            return [f"{where}: expected {len(ref)} items, got {got!r}"]
        return [m for i, (r, g) in enumerate(zip(ref, got))
                for m in _json_mismatches(f"{where}[{i}]", r, g, bound)]
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


def _csv_mismatches(name, ref_path, got_path, bound):
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
            found = _number_mismatch(where, float(ref), float(got), GRID_COLUMNS.get(column, bound))
            if found:
                out.append(found)
    return out


def artifact_mismatches(ref_path: Path, got_path: Path) -> list:
    """How the artifact at ``got_path`` departs from the reference file of
    the same name, as one line per departure; empty when it matches."""
    name = ref_path.name
    exact = name.partition("-")[0] in CLOSED_FORM
    bound = 0.0 if exact else RTOL
    if ref_path.suffix == ".csv":
        found = _csv_mismatches(name, ref_path, got_path, bound)
    else:
        found = _json_mismatches(name, json.loads(ref_path.read_text()),
                                 json.loads(got_path.read_text()), bound)
    if exact and not found and got_path.read_bytes() != ref_path.read_bytes():
        found = [f"{name}: the bytes differ from the reference"]
    return found


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
