"""Every Python file parses under the oldest version pyproject.toml allows.

Tier-1 runs on one interpreter; syntax newer than the floor (``except*``,
say) would only fail on the floor version itself, so CI's matrix must
include the floor.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _floor():
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    major, minor = re.search(r'requires-python\s*=\s*">=(\d+)\.(\d+)"', text).groups()
    return int(major), int(minor)


def test_sources_parse_at_the_requires_python_floor():
    floor = _floor()
    paths = sorted(p for d in ("src", "tests", "bench") for p in (ROOT / d).rglob("*.py"))
    assert len(paths) > 20
    failures = []
    for path in paths:
        try:
            ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=floor)
        except SyntaxError as exc:
            failures.append(f"{path.relative_to(ROOT)}:{exc.lineno}: {exc.msg}")
    assert failures == []


def test_floor_check_catches_newer_syntax():
    except_star = "try:\n    pass\nexcept* ValueError:\n    pass\n"  # Python 3.11
    with pytest.raises(SyntaxError):
        ast.parse(except_star, feature_version=_floor())


def test_ci_matrix_tests_the_requires_python_floor():
    workflow = (ROOT / ".github" / "workflows" / "tier1.yml").read_text(encoding="utf-8")
    matrix = re.search(r"python-version:\s*\[([^\]]*)\]", workflow).group(1)
    versions = [tuple(map(int, v)) for v in re.findall(r'"(\d+)\.(\d+)"', matrix)]
    assert versions and min(versions) == _floor()
