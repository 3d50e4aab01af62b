"""Every `python` block of README.md runs as written, and every `dtseries`
line of its "Command line" block exits 0, so the documented library and
CLI examples cannot drift from the API."""

import importlib
import re
from pathlib import Path

from dtseries.cli import main

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def python_blocks(text):
    return re.findall(r"^```python\n(.*?)^```", text, flags=re.M | re.S)


def test_readme_python_blocks_run(capsys):
    blocks = python_blocks(README.read_text(encoding="utf-8"))
    assert blocks, "README.md has no python block"
    for i, code in enumerate(blocks):
        exec(compile(code, f"README.md python block {i + 1}", "exec"), {"__name__": "readme"})
    assert "+ O(q^" in capsys.readouterr().out


def test_readme_command_lines_exit_zero(capsys, tmp_path):
    # each line runs once without its [bracketed] options and once with all
    # of them; a --trace file goes to the temporary directory
    text = README.read_text(encoding="utf-8").split("## Command line", 1)[1]
    block = re.search(r"^```sh\n(.*?)^```", text, flags=re.M | re.S).group(1)
    runs = []
    for line in block.splitlines():
        if not line.startswith("dtseries "):
            continue
        bare = re.sub(r"\[[^\]]*\]", "", line).split()
        optional = " ".join(re.findall(r"\[([^\]]*)\]", line)).split()
        runs += [bare[1:], bare[1:] + optional] if optional else [bare[1:]]
    assert len(runs) == 6
    for argv in runs:
        if "--trace" in argv:
            i = argv.index("--trace") + 1
            argv[i] = str(tmp_path / argv[i])
        assert main(argv) == 0, argv
    assert (tmp_path / "out.json").is_file()
    capsys.readouterr()


def test_console_script_is_cli_main():
    # installed, README's `dtseries` lines run the [project.scripts] entry
    # of pyproject.toml, which must name the main(argv) tested above
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    table = re.search(r"^\[project\.scripts\]\n(.*?)(?=^\[|\Z)", text, flags=re.M | re.S)
    entry = re.fullmatch(r'dtseries = "([\w.]+):(\w+)"', table.group(1).strip())
    module, attr = entry.groups()
    assert getattr(importlib.import_module(module), attr) is main
