"""The README's code and the package names its prose cites stay runnable."""

import importlib
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _section(title: str) -> str:
    return README.read_text().split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def test_library_section_runs_in_order(capsys):
    # the later blocks read the names the first one sets up
    blocks = re.findall(r"```python\n(.*?)```", _section("Library"), re.S)
    assert len(blocks) == 2
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    assert capsys.readouterr().out.count("\n") == 4


def test_cited_module_names_exist():
    cited = set(
        re.findall(
            r"`(hexmesh|motion|rbf|spectral|gcl|flow|metrics|experiments|cli)\.(\w+)",
            README.read_text(),
        )
    )
    assert cited
    missing = [
        f"{module}.{name}"
        for module, name in sorted(cited)
        if not hasattr(importlib.import_module(f"gclkit.{module}"), name)
    ]
    assert not missing, f"README cites {missing}"
