"""Every .py file of the package, its tests and its benchmark parses under
the grammar of Python 3.10, the oldest version pyproject.toml accepts.

This checks grammar only: ast.parse with feature_version refuses syntax that
is newer than 3.10, such as `except*`, but not a 3.11 library call or
module, and it cannot parse syntax newer than the running interpreter's.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_every_source_file_parses_under_the_python_3_10_grammar():
    paths = sorted(p for top in ("src", "tests", "perfbench") for p in (ROOT / top).rglob("*.py"))
    assert len(paths) > 20
    refused = []
    for path in paths:
        try:
            ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))
        except SyntaxError as exc:
            refused.append(f"{path.relative_to(ROOT)}:{exc.lineno}: {exc.msg}")
    assert not refused, refused
