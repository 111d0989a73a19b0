"""The stdlib lint (``tools/lint_lite.py``): the tree is clean, and each check bites."""

import os

import pytest

from tools.lint_lite import (
    DEAD_CODE_ALLOWLIST,
    DEFAULT_PATHS,
    MAX_LINE,
    dead_code,
    lint,
    lint_file,
    main,
    python_files,
)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_the_tree_is_lint_clean():
    findings = lint(os.path.join(ROOT, path) for path in DEFAULT_PATHS)
    assert findings == [], "\n".join(
        f"{os.path.relpath(path, ROOT)}:{line}:{column}: {code} {message}"
        for path, line, column, code, message in findings
    )


def test_the_tree_has_no_dead_code():
    findings = dead_code(ROOT)
    assert findings == [], "\n".join(
        f"{os.path.relpath(path, ROOT)}:{line}: {code} {message}"
        for path, line, _, code, message in findings
    )


def test_the_allowlist_is_short_and_says_why():
    assert len(DEAD_CODE_ALLOWLIST) <= 3
    assert all(reason.strip() for reason in DEAD_CODE_ALLOWLIST.values())


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


def write_tree(root, files):
    for relative, source in files.items():
        path = root / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source, encoding="utf-8")


#: The module every dead-code case judges, and the callers each case adds.
SRC = "src/repro/m.py"
CALL_F = "from repro.m import f\n\nf()\n"
DEAD_CASES = {
    "tests-only": ({SRC: "def f():\n    pass\n", "tests/test_m.py": CALL_F}, ["repro.m.f"]),
    "benchmark": ({SRC: "def f():\n    pass\n", "benchmarks/e2e/run.py": CALL_F}, []),
    "example": ({SRC: "def f():\n    pass\n", "examples/demo.py": CALL_F}, []),
    "workflow": (
        {
            SRC: "def f():\n    pass\n",
            ".github/workflows/ci.yml": "run: python -c 'from repro.m import f; f()'\n",
        },
        [],
    ),
    "workflow-comment": (
        {SRC: "def f():\n    pass\n", ".github/workflows/ci.yml": "# f\nrun: true\n"},
        ["repro.m.f"],
    ),
    "workflow-yaml": (
        {SRC: "def f():\n    pass\n", ".github/workflows/nightly.yaml": "run: f\n"},
        [],
    ),
    "entry-point": ({SRC: "def f():\n    pass\n", "setup.py": "ENTRY = 'x = repro.m:f'\n"}, []),
    "pyproject-script": (
        {SRC: "def f():\n    pass\n", "pyproject.toml": '[project.scripts]\nx = "repro.m:f"\n'},
        [],
    ),
    "import-only": (
        {SRC: "def f():\n    pass\n", "src/repro/n.py": "from repro.m import f\n"},
        ["repro.m.f"],
    ),
    "async-function": (
        {SRC: "async def f():\n    pass\n", "tests/test_m.py": CALL_F},
        ["repro.m.f"],
    ),
    "nested-def-is-not-a-candidate": (
        {SRC: "def f():\n    def inner():\n        pass\n\n    return inner\n"},
        ["repro.m.f"],
    ),
    "attribute-from-src": (
        {
            SRC: "class A:\n    def run(self):\n        pass\n",
            "src/repro/n.py": "from repro.m import A\n\nA().run()\n",
        },
        [],
    ),
    "getattr-key": (
        {
            SRC: "def f():\n    pass\n",
            "src/repro/n.py": "import repro.m\n\ngetattr(repro.m, 'f')()\n",
        },
        [],
    ),
    "docstring-or-comment-only": (
        {SRC: "def f():\n    pass\n", "src/repro/n.py": '"""f"""\n\n# f()\n'},
        ["repro.m.f"],
    ),
    "init-reexport": (
        {
            SRC: "def f():\n    pass\n",
            "src/repro/__init__.py": "from repro.m import f\n\n__all__ = ['f']\n",
        },
        ["repro.m.f"],
    ),
    "fixpoint": (
        {SRC: "def helper():\n    pass\n\n\ndef f():\n    helper()\n"},
        ["repro.m.helper", "repro.m.f"],
    ),
    "own-body": ({SRC: "def f(n):\n    return f(n - 1) if n else 0\n"}, ["repro.m.f"]),
    "unused-method": (
        {
            SRC: "class A:\n    def used(self):\n        pass\n\n"
            "    def unused(self):\n        pass\n",
            "examples/demo.py": "from repro.m import A\n\nA().used()\n",
        },
        ["repro.m.A.unused"],
    ),
    "unused-method-helper": (
        {
            SRC: "def helper():\n    pass\n\n\nclass A:\n    def unused(self):\n        helper()\n",
            "examples/demo.py": "from repro.m import A\n\nA()\n",
        },
        ["repro.m.helper", "repro.m.A.unused"],
    ),
    "names-not-bindings": (
        {
            SRC: "class A:\n    def run(self):\n        pass\n",
            "examples/demo.py": "from repro.m import A\n\nA()\nother.run()\n",
        },
        [],
    ),
    "method-not-reached-by-a-bare-name": (
        {
            SRC: "class A:\n    def size(self):\n        return 1\n",
            "examples/demo.py": "from repro.m import A\n\nA()\nsize = 2\nprint(size)\n",
        },
        ["repro.m.A.size"],
    ),
    "method-by-getattr-key": (
        {
            SRC: "class A:\n    def run(self):\n        pass\n",
            "examples/demo.py": "from repro.m import A\n\ngetattr(A(), 'run')()\n",
        },
        [],
    ),
    "property-read": (
        {
            SRC: "class A:\n    @property\n    def size(self):\n        return 1\n",
            "examples/demo.py": "from repro.m import A\n\nA().size\n",
        },
        [],
    ),
    "unused-property": (
        {
            SRC: "class A:\n    @property\n    def size(self):\n        return 1\n",
            "examples/demo.py": "from repro.m import A\n\nA()\n",
        },
        ["repro.m.A.size"],
    ),
    "dunder-runs-with-its-class": (
        {
            SRC: "class A:\n    def __init__(self):\n        self.setup()\n\n"
            "    def setup(self):\n        pass\n",
            "examples/demo.py": "from repro.m import A\n\nA()\n",
        },
        [],
    ),
    "private-method-is-judged": (
        {
            SRC: "class A:\n    def __helper(self):\n        pass\n",
            "examples/demo.py": "from repro.m import A\n\nA()\n",
        },
        ["repro.m.A.__helper"],
    ),
    "dead-class-keeps-no-method-alive": (
        {
            SRC: "def helper():\n    pass\n\n\nclass A:\n    def run(self):\n        helper()\n",
            "examples/demo.py": "x.run()\n",
        },
        ["repro.m.helper", "repro.m.A"],
    ),
}


@pytest.mark.parametrize("files, expected", list(DEAD_CASES.values()), ids=list(DEAD_CASES))
def test_each_dead_code_rule(tmp_path, files, expected):
    write_tree(tmp_path, files)
    flagged = [message.split("'")[1] for *_, message in dead_code(str(tmp_path), {})]
    assert flagged == expected


def test_allowlisted_module_is_exempt(tmp_path):
    write_tree(tmp_path, {SRC: "def f():\n    pass\n", "src/repro/n.py": "def g():\n    pass\n"})
    findings = dead_code(str(tmp_path), {"repro.m": "a caller outside the roots"})
    assert [message for *_, message in findings] == ["'repro.n.g' is never used outside tests"]


def test_allowlisted_class_exempts_its_methods_only(tmp_path):
    source = (
        "class A:\n    def unused(self):\n        pass\n\n\n"
        "class AB:\n    def unused(self):\n        pass\n"
    )
    write_tree(
        tmp_path, {SRC: source, "examples/demo.py": "from repro.m import A, AB\n\nA()\nAB()\n"}
    )
    findings = dead_code(str(tmp_path), {"repro.m.A": "a caller outside the roots"})
    assert [message for *_, message in findings] == [
        "'repro.m.AB.unused' is never used outside tests"
    ]


def test_explicit_paths_skip_the_dead_code_pass(tmp_path, monkeypatch, capsys):
    write_tree(tmp_path, {SRC: "def f():\n    pass\n"})
    monkeypatch.chdir(tmp_path)
    assert main([SRC]) == 0
    assert capsys.readouterr().out == ""


def test_bare_run_fails_on_dead_code(tmp_path, monkeypatch, capsys):
    write_tree(tmp_path, {SRC: "def f():\n    pass\n"})
    monkeypatch.chdir(tmp_path)
    assert main([]) == 1
    path = os.path.join("src", "repro", "m.py")
    message = "V001 'repro.m.f' is never used outside tests"
    assert capsys.readouterr().out == f"{path}:1:1: {message}\n"
