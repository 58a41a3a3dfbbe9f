"""Every module of ``mpst`` parses under the oldest Python that
``pyproject.toml`` declares, ``requires-python = ">=3.10"``.

``ast.parse`` with ``feature_version`` rejects syntax newer than that
release (``except*``, type parameters and the like).  It does not see
library calls that are newer; ``tests/floor_smoke.py``, run under that
Python, does.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FLOOR = (3, 10)


def test_the_floor_is_the_declared_one():
    text = (ROOT / "pyproject.toml").read_text()
    declared = re.search(r'requires-python = ">=(\d+)\.(\d+)"', text)
    assert tuple(map(int, declared.groups())) == FLOOR


@pytest.mark.parametrize("path", sorted((ROOT / "src" / "mpst").glob("*.py")),
                         ids=lambda path: path.name)
def test_a_module_parses_at_the_floor(path):
    ast.parse(path.read_text(), filename=str(path), feature_version=FLOOR)
