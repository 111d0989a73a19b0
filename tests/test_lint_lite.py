"""The stdlib lint (``tools/lint_lite.py``): the tree is clean, and each check bites."""

import os

import pytest

from tools.lint_lite import DEFAULT_PATHS, MAX_LINE, lint, lint_file, main, python_files

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_the_tree_is_lint_clean():
    findings = lint(os.path.join(ROOT, path) for path in DEFAULT_PATHS)
    assert findings == [], "\n".join(
        f"{os.path.relpath(path, ROOT)}:{line}:{column}: {code} {message}"
        for path, line, column, code, message in findings
    )


def codes(tmp_path, source, name="module.py"):
    path = tmp_path / name
    path.write_text(source, encoding="utf-8")
    return [(line, code) for _, line, _, code, _ in lint_file(str(path))]


CASES = {
    "unused-import": ("import os\n", [(1, "F401")]),
    "dotted-import-used": ("import os.path\nos.sep\n", []),
    "unused-alias": ("from typing import List as L, Dict\nx: L[int] = []\n", [(1, "F401")]),
    "string-annotation": ("from typing import Dict\n\n\ndef f(x: 'Dict[str, int]'):\n    x\n", []),
    "dunder-all": ("from a import b\n__all__ = ['b']\n", []),
    "noqa": ("import os  # noqa: F401\n", []),
    "trailing-whitespace": ("x = 1 \n", [(1, "W291")]),
    "long-line": ("x = '" + "y" * MAX_LINE + "'\n", [(1, "E501")]),
    "statement-after-colon": ("if True: x = 1\n", [(1, "E701")]),
    "semicolon": ("x = 1; y = 2\n", [(1, "E702")]),
    "trailing-semicolon": ("x = 1;\n", [(1, "E703")]),
    "colons-in-expressions": ("d = {1: 2}\nf = lambda v: v\ns = [1, 2][0:1]\n", []),
    "syntax-error": ("def f(:\n", [(1, "E999")]),
    "compile-error": ("x = 1\nreturn x\n", [(2, "E999")]),
    "class-one-liner": ("class A: pass\n", [(1, "E701")]),
    "function-local-import": ("def f():\n    import os\n", [(2, "F401")]),
    "continued-call": ("x = max(\n    1,\n    2,\n)\n", []),
    "semicolon-in-string": ("x = 'a; b'\n", []),
    "longest-allowed-line": ("x = '" + "y" * (MAX_LINE - 6) + "'\n", []),
    "noqa-long-line": ("x = '" + "y" * MAX_LINE + "'  # noqa: E501\n", []),
}


@pytest.mark.parametrize("source, expected", list(CASES.values()), ids=list(CASES))
def test_each_check(tmp_path, source, expected):
    assert codes(tmp_path, source) == expected


def test_package_init_reexports_are_not_unused(tmp_path):
    assert codes(tmp_path, "from os import sep\n", name="__init__.py") == []


def test_walk_skips_caches_and_hidden_directories(tmp_path):
    for relative in ("b.py", "a/c.py", "a/notes.txt", "__pycache__/d.py", ".hidden/e.py"):
        path = tmp_path / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("x = 1\n", encoding="utf-8")
    found = [os.path.relpath(path, tmp_path) for path in python_files([str(tmp_path)])]
    assert found == ["b.py", os.path.join("a", "c.py")]


def test_main_prints_findings_and_sets_the_exit_status(tmp_path, capsys):
    clean = tmp_path / "clean.py"
    clean.write_text("x = 1\n", encoding="utf-8")
    dirty = tmp_path / "dirty.py"
    dirty.write_text("import os\n", encoding="utf-8")
    assert main([str(clean)]) == 0
    assert capsys.readouterr().out == ""
    assert main([str(clean), str(dirty)]) == 1
    assert capsys.readouterr().out == f"{dirty}:1:1: F401 'os' imported but unused\n"
