"""The README's code and the package names its prose cites stay runnable."""

import importlib
import re
import shlex
from pathlib import Path

from gclkit import cli

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


def test_cli_section_examples_parse_and_name_the_csv_columns():
    # each example's settings are read and judged as a run would, but no
    # sweep runs
    section = _section("CLI")
    runs = [
        shlex.split(line)[1:]
        for block in re.findall(r"```sh\n(.*?)```", section, re.S)
        for line in block.splitlines()
        if line.startswith("gclkit run")
    ]
    assert runs
    for argv in runs:
        cli.build_run_config(cli.build_parser().parse_args(argv)).motion_case()
    columns = re.search(r"columns\n\n```\n(.*?)\n```", section).group(1)
    assert columns == ",".join(column for column, _ in cli.CSV_COLUMNS)
