"""The README's Python examples run as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                    re.MULTILINE | re.DOTALL)


def test_every_python_block_runs(tmp_path, monkeypatch, capsys):
    assert BLOCKS, "README.md has no python block"
    monkeypatch.chdir(tmp_path)
    for number, block in enumerate(BLOCKS, start=1):
        exec(compile(block, f"README.md python block {number}", "exec"), {})
    assert capsys.readouterr().out
