"""A stdlib-only lint for machines without ``ruff``.

CI's ``ruff check`` / ``ruff format --check`` stay the authority; this
catches, wherever the code is written, the mistakes they would fail on most
often:

* ``E999`` — the file does not byte-compile (the :func:`compile` step
  :mod:`compileall` runs, without writing ``.pyc`` files);
* ``F401`` — an imported name the module never uses (names listed in
  ``__all__`` and names inside string annotations count as used; package
  ``__init__`` modules re-export what they import and are not checked);
* ``E501`` — a line longer than :data:`MAX_LINE` characters;
* ``W291`` — trailing whitespace;
* ``E701`` / ``E702`` / ``E703`` — a statement after a compound statement's
  colon, statements joined by ``;``, a trailing ``;``.

A line carrying ``# noqa`` is exempt.  Run from the repository root::

    python tools/lint_lite.py                 # src tests benchmarks examples tools
    python tools/lint_lite.py src/repro/core  # or any files / directories

Prints one ``path:line:col: CODE message`` per finding; exits 1 if there
are any.
"""

from __future__ import annotations

import ast
import io
import os
import sys
import tokenize
from bisect import bisect_left
from typing import Iterable, Iterator, List, Set, Tuple

#: Longest allowed line, in characters (``[tool.ruff] line-length``).
MAX_LINE = 100
#: What a bare ``python tools/lint_lite.py`` checks.
DEFAULT_PATHS = ("src", "tests", "benchmarks", "examples", "tools")

Finding = Tuple[str, int, int, str, str]
_SKIPPED_TOKENS = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
}


def python_files(paths: Iterable[str]) -> Iterator[str]:
    """Every ``.py`` file under *paths*, in a stable order."""
    for path in paths:
        if os.path.isfile(path):
            yield path
            continue
        for root, dirs, files in os.walk(path):
            dirs[:] = sorted(d for d in dirs if d != "__pycache__" and not d.startswith("."))
            for name in sorted(files):
                if name.endswith(".py"):
                    yield os.path.join(root, name)


def _line_findings(path: str, lines: List[str]) -> Iterator[Finding]:
    for number, line in enumerate(lines, start=1):
        if len(line) > MAX_LINE:
            yield path, number, MAX_LINE + 1, "E501", f"line too long ({len(line)} > {MAX_LINE})"
        stripped = line.rstrip()
        if len(stripped) != len(line):
            yield path, number, len(stripped) + 1, "W291", "trailing whitespace"


def _names_in_annotation(node: ast.AST) -> Iterator[str]:
    """Names an annotation uses, including those inside string annotations."""
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            yield child.id
        elif isinstance(child, ast.Constant) and isinstance(child.value, str):
            try:
                parsed = ast.parse(child.value, mode="eval")
            except SyntaxError:
                continue
            yield from _names_in_annotation(parsed)


def _annotations(tree: ast.AST) -> Iterator[ast.AST]:
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _exported(tree: ast.Module) -> Set[str]:
    """The string entries of a module-level ``__all__``."""
    names: Set[str] = set()
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
                for child in ast.walk(node.value):
                    if isinstance(child, ast.Constant) and isinstance(child.value, str):
                        names.add(child.value)
    return names


def _unused_imports(path: str, tree: ast.Module) -> Iterator[Finding]:
    if os.path.basename(path) == "__init__.py":
        return
    bound: List[Tuple[str, str, ast.AST]] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound.append((alias.asname or alias.name.partition(".")[0], alias.name, node))
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    bound.append((alias.asname or alias.name, alias.name, node))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in _annotations(tree):
        used.update(_names_in_annotation(annotation))
    used |= _exported(tree)
    for name, imported, node in bound:
        if name not in used:
            message = f"{imported!r} imported but unused"
            yield path, node.lineno, node.col_offset + 1, "F401", message


def _statement_findings(path: str, tree: ast.Module, source: str) -> Iterator[Finding]:
    """E701 / E702 / E703, from the token before and after every statement."""
    tokens = [
        token
        for token in tokenize.generate_tokens(io.StringIO(source).readline)
        if token.type not in _SKIPPED_TOKENS
    ]
    starts = [token.start for token in tokens]
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt):
            continue
        position = bisect_left(starts, (node.lineno, node.col_offset))
        if position == 0:
            continue
        before = tokens[position - 1]
        if before.type == tokenize.OP and before.start[0] == node.lineno:
            if before.string == ":":
                yield path, node.lineno, node.col_offset + 1, "E701", "statement after a colon"
            elif before.string == ";":
                yield path, node.lineno, node.col_offset + 1, "E702", "statements joined by ';'"
    for token, after in zip(tokens, tokens[1:]):
        if token.string == ";" and after.type in (tokenize.NEWLINE, tokenize.ENDMARKER):
            yield path, token.start[0], token.start[1] + 1, "E703", "trailing ';'"


def lint_file(path: str) -> List[Finding]:
    """Every finding in one file, in line order."""
    with open(path, encoding="utf-8") as handle:
        source = handle.read()
    try:
        tree = ast.parse(source, path)
        compile(tree, path, "exec", dont_inherit=True)
    except SyntaxError as error:
        return [(path, error.lineno or 1, error.offset or 1, "E999", error.msg)]
    lines = source.splitlines()
    findings = [
        *_line_findings(path, lines),
        *_unused_imports(path, tree),
        *_statement_findings(path, tree, source),
    ]
    return sorted(
        finding for finding in findings if "# noqa" not in lines[finding[1] - 1]
    )


def lint(paths: Iterable[str] = DEFAULT_PATHS) -> List[Finding]:
    """Every finding under *paths*."""
    return [finding for path in python_files(paths) for finding in lint_file(path)]


def main(argv: List[str]) -> int:
    findings = lint(argv or DEFAULT_PATHS)
    for path, line, column, code, message in findings:
        print(f"{path}:{line}:{column}: {code} {message}")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
