"""README.md stays true: its ``python`` blocks run from a checkout, and its
config schema matches the CLI's field table and the library's defaults."""

import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from qfnet import cli

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text()
BLOCKS = re.findall(r"^```python\n(.*?)^```", README, re.M | re.S)
SCHEMA = re.search(r"^### Config schema\n(.*?)^#", README, re.M | re.S).group(1)
SCHEMA_JSON = re.search(r"^```json\n(.*?)^```", SCHEMA, re.M | re.S).group(1)


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_readme_python_block_runs(index):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", BLOCKS[index]],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_readme_config_schema_example_loads(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(SCHEMA_JSON)
    cli.build_problem(cli.load_config(str(path)), "r")


def test_readme_config_schema_names_every_field():
    # named either as a key of the example or as `section.key` in the prose
    table = {f"{section}.{key}" for section, keys in cli._FIELDS.items() for key in keys}
    example = json.loads(SCHEMA_JSON)
    named = {f"{s}.{k}" for s, keys in example.items() if isinstance(keys, dict) for k in keys}
    sections = "|".join(cli._FIELDS)
    named |= set(re.findall(rf"`((?:{sections})\.\w+)`", SCHEMA))
    assert named == table


def test_readme_config_defaults_are_the_librarys():
    rows = re.findall(r"^\| `(\w+)\.(\w+)` \| `(\w+)\.(\w+)` \| `(.+)` \|$", SCHEMA, re.M)
    assert rows
    for section, key, cls, name, default in rows:
        defaults = {f.name: f.default for f in dataclasses.fields(getattr(cli, cls))}
        converted = cli._FIELDS[section][key](json.loads(default), f"{section}.{key}")
        assert converted == defaults[name], f"{section}.{key}"
