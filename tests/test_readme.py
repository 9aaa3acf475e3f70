"""The README's examples run as written, and the numbers it reports are the
ones the packaged scenarios compute."""

import json
import re
from pathlib import Path

import pytest

from nvecho.config import PIPELINE_NEEDS, parse_config

ROOT = Path(__file__).resolve().parents[1]
REFERENCE = ROOT / "tests" / "data" / "reference"
TEXT = (ROOT / "README.md").read_text(encoding="utf-8")


def _fenced(language):
    """The text of each fenced block whose info string is ``language``."""
    blocks, block = [], None  # block: the open block's info string and lines
    for line in TEXT.splitlines(keepends=True):
        if not line.startswith("```"):
            if block is not None:
                block[1].append(line)
        elif block is None:
            block = (line[3:].strip(), [])
        else:
            if block[0] == language:
                blocks.append("".join(block[1]))
            block = None
    return blocks


BLOCKS = _fenced("python")


def test_every_python_block_runs(tmp_path, monkeypatch, capsys):
    assert BLOCKS, "README.md has no python block"
    monkeypatch.chdir(tmp_path)
    for number, block in enumerate(BLOCKS, start=1):
        exec(compile(block, f"README.md python block {number}", "exec"), {})
    assert capsys.readouterr().out


def test_the_example_config_parses():
    [block] = _fenced("yaml")
    config = parse_config(block)
    assert config.pipeline == "decay_compare"
    assert config.sequence["kind"] == "unbalanced_echo"
    assert config.sequence["compare"]["kind"] == "ramsey"


def test_the_printed_fig4_summary_is_the_reference():
    [summary] = [block for block in _fenced("") if block.startswith("fig4: ")]
    assert summary == (REFERENCE / "fig4-summary.txt").read_text(encoding="utf-8")


def _reference_numbers(name):
    fits = REFERENCE / f"{name}-fits.json"
    if fits.exists():
        return json.loads(fits.read_text())["numbers"]
    return json.loads((REFERENCE / f"{name}-result.json").read_text())


SCENARIO_TABLE = TEXT.partition("| name | pipeline | what it shows |")[2].partition("\n\n")[0]

# each number of the packaged-scenario table: its scenario, the text that
# holds it in the scenario's row, the reference number it rounds and the
# unit it is printed in
TABLE_NUMBERS = [
    ("fig1c", r"unprotected ([\d.]+) us", "unprotected_T2_s", 1e-6),
    ("fig1c", r"vs protected ([\d.]+) ms", "protected_T2_s", 1e-3),
    ("fig1c", r"~([\d.]+)x", "improvement", 1.0),
    ("fig1d", r"peak at ([\d.]+)", "argmax_flip_fraction", 1.0),
    ("fig2", r"slope ratio ([\d.]+)", "vee_ratio", 1.0),
    ("fig4", r"optimum ([\d.]+)", "argmax_flip_fraction", 1.0),
]


@pytest.mark.parametrize("name, pattern, key, unit", TABLE_NUMBERS,
                         ids=[f"{row[0]}-{row[2]}" for row in TABLE_NUMBERS])
def test_the_scenario_table_prints_the_reference_numbers(name, pattern, key, unit):
    [row] = [line for line in SCENARIO_TABLE.splitlines() if line.startswith(f"| `{name}` ")]
    printed = re.search(pattern, row).group(1)
    digits = len(printed.partition(".")[2])
    reference = _reference_numbers(name)[key]
    assert round(reference / unit, digits) == float(printed), (printed, reference)


PIPELINE_TABLE = TEXT.partition("| pipeline | sequence keys it needs |")[2].partition("\n\n")[0]


def _needs_text(needs):
    """The README's words for a pipeline's needs: the compare block's keys
    are named after "`compare` with its"."""
    own = [f"`{need}`" for need in needs if not need.startswith("compare.")]
    compare = [f"`{need.removeprefix('compare.')}`" for need in needs
               if need.startswith("compare.")]
    return ", ".join(own + ([f"`compare` with its {' and '.join(compare)}"] if compare else []))


def test_the_pipeline_table_is_the_needs_table():
    rows = [line for line in PIPELINE_TABLE.splitlines() if line.startswith("| `")]
    assert rows == [f"| `{pipeline}` | {_needs_text(needs)} |"
                    for pipeline, needs in PIPELINE_NEEDS.items()]
