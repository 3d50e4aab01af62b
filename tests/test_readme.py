"""Every `python` block of README.md runs as written, so the documented
library and CLI examples cannot drift from the API."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def python_blocks(text):
    return re.findall(r"^```python\n(.*?)^```", text, flags=re.M | re.S)


def test_readme_python_blocks_run(capsys):
    blocks = python_blocks(README.read_text(encoding="utf-8"))
    assert blocks, "README.md has no python block"
    for i, code in enumerate(blocks):
        exec(compile(code, f"README.md python block {i + 1}", "exec"), {"__name__": "readme"})
    assert "+ O(q^" in capsys.readouterr().out
