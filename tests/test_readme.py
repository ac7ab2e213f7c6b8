"""The README's library example runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_block_runs(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md python block", "exec"), {})
    assert capsys.readouterr().out == "135𝒫^2 - 240𝒫ℰ + 64ℰ^2 + 42𝒬\n"
