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

A line carrying ``# noqa`` is exempt from those.  A bare run also makes one
whole-tree pass that ``ruff`` has no rule for:

* ``V001`` — a ``src/repro`` function, class, method or property that
  nothing outside ``tests/`` reaches (see :func:`dead_code`).  There is no
  ``# noqa`` for it: a symbol is either called from a root, deleted, or
  listed in :data:`DEAD_CODE_ALLOWLIST` with the caller that needs it.

Run from the repository root::

    python tools/lint_lite.py                 # src tests benchmarks examples tools + V001
    python tools/lint_lite.py src/repro/core  # or any files / directories

Prints one ``path:line:col: CODE message`` per finding; exits 1 if there
are any.
"""

from __future__ import annotations

import ast
import io
import os
import re
import sys
import tokenize
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

#: Longest allowed line, in characters (``[tool.ruff] line-length``).
MAX_LINE = 100
#: What a bare ``python tools/lint_lite.py`` checks.
DEFAULT_PATHS = ("src", "tests", "benchmarks", "examples", "tools")
#: The package whose symbols the dead-code pass judges.
DEAD_CODE_PACKAGE = os.path.join("src", "repro")
#: Where a caller keeps a ``src`` symbol alive.  Python files count by their
#: code; the rest by every identifier outside ``#`` comments.  ``tests/`` is
#: deliberately not a root: a symbol only a test reaches does no work.
DEAD_CODE_ROOTS = (
    "src",
    "benchmarks",
    "examples",
    os.path.join(".github", "workflows"),
    "setup.py",
    "pyproject.toml",
)
#: Qualified names (or module / class prefixes) the pass must not flag, each
#: with the caller outside the roots' reach that needs it.  At most three.
DEAD_CODE_ALLOWLIST: Dict[str, str] = {
    "repro.storage.index": (
        "benchmarks/e2e/tracing.py builds a SpatialIndex; the module goes whole "
        "(ROADMAP 4(iii)) once that benchmark stops, so its probes are not cut one by one"
    ),
}

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


@dataclass
class _Symbol:
    """One dead-code candidate: a module-level def or class, or a method."""

    qualname: str
    name: str
    path: str
    line: int
    parent: Optional[int]
    uses: Set[str] = field(default_factory=set)


def _is_documentation(node: ast.AST) -> bool:
    """A bare string statement (a docstring) or an ``__all__`` assignment."""
    if isinstance(node, ast.Expr):
        return isinstance(node.value, ast.Constant) and isinstance(node.value.value, str)
    if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets)
    return False


#: Marks a use that can reach a method: an attribute access or a string key.
_MEMBER = "."


def _collect(
    tree: ast.Module, module: Optional[str], path: str, symbols: List[_Symbol], roots: Set[str]
) -> None:
    """Add *tree*'s candidates to *symbols*, and each name it uses to its owner.

    A name used outside every candidate's body goes to *roots*.  With *module*
    ``None`` (a benchmark, an example) the file declares no candidates.
    """

    Declares = Optional[Tuple[str, Optional[int]]]

    def visit(node: ast.AST, owner: Optional[int], declares: Declares) -> None:
        # *declares*: (qualified prefix, parent class) when *node*'s defs are candidates.
        uses = roots if owner is None else symbols[owner].uses
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            uses.add(node.id)
        elif isinstance(node, ast.Attribute):
            uses.add(_MEMBER + node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            uses.add(_MEMBER + node.value)
        for child in ast.iter_child_nodes(node):
            if _is_documentation(child):
                continue
            named = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            # A dunder method runs whenever its class is used: its body is the class's.
            dunder = named and child.name.startswith("__") and child.name.endswith("__")
            if declares is None or not named or dunder:
                visit(child, owner, None)
                continue
            prefix, parent = declares
            qualname = f"{prefix}.{child.name}"
            symbols.append(_Symbol(qualname, child.name, path, child.lineno, parent))
            index = len(symbols) - 1
            is_class = isinstance(child, ast.ClassDef) and parent is None
            visit(child, index, (qualname, index) if is_class else None)

    visit(tree, None, None if module is None else (module, None))


def _root_files(root: str) -> Iterator[str]:
    for entry in DEAD_CODE_ROOTS:
        path = os.path.normpath(os.path.join(root, entry))
        if os.path.isfile(path):
            yield path
        elif os.path.isdir(path):
            for base, dirs, files in os.walk(path):
                dirs[:] = sorted(d for d in dirs if d != "__pycache__" and not d.startswith("."))
                yield from (os.path.join(base, name) for name in sorted(files))


def dead_code(root: str = ".", allowlist: Dict[str, str] = DEAD_CODE_ALLOWLIST) -> List[Finding]:
    """``V001`` for every ``src/repro`` symbol no root reaches.

    Candidates are the module-level functions and classes of ``src/repro``
    plus every non-dunder method and property of those classes.  A symbol is
    used when its name appears as an ``Attribute`` or a string constant (a
    ``getattr`` key) in live code; a module-level symbol also when it
    appears as a bare ``Name`` (a method is never reached by one, so a
    local variable that shares its name keeps nothing alive).  Live code is a root file's
    code outside any candidate, plus the body of every live candidate — so a
    helper only dead code calls is dead too, and a symbol's own body never
    keeps it alive.  A method is live only while its class is.  Docstrings,
    comments, ``__all__`` entries and imports (so ``__init__`` re-exports)
    are no use.  Names, not bindings, are matched: a use of ``run`` anywhere
    live keeps every ``run`` method of a live class alive.
    """
    symbols: List[_Symbol] = []
    roots: Set[str] = set()
    package = os.path.normpath(os.path.join(root, DEAD_CODE_PACKAGE))
    for path in _root_files(root):
        if not path.endswith((".py", ".toml", ".yml", ".yaml")):
            continue
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
        # setup.py counts as text: its entry points are strings ("repro.cli:main").
        if not path.endswith(".py") or os.path.basename(path) == "setup.py":
            words = set(re.findall(r"[A-Za-z_]\w*", re.sub(r"(?m)(^|\s)#.*$", "", text)))
            roots |= words | {_MEMBER + word for word in words}
            continue
        module = None
        if os.path.commonpath([package, path]) == package:
            relative = os.path.relpath(path, os.path.dirname(package))[: -len(".py")]
            module = relative.replace(os.sep, ".").removesuffix(".__init__")
        try:
            tree = ast.parse(text, path)
        except SyntaxError:
            continue  # the per-file pass reports it as E999
        _collect(tree, module, path, symbols, roots)

    live: Set[int] = set()
    used = set(roots)
    changed = True
    while changed:
        changed = False
        for index, symbol in enumerate(symbols):
            reached = _MEMBER + symbol.name in used or (
                symbol.parent is None and symbol.name in used
            )
            if index in live or not reached:
                continue
            if symbol.parent is None or symbol.parent in live:
                live.add(index)
                used |= symbol.uses
                changed = True

    def allowed(qualname: str) -> bool:
        return any(qualname == key or qualname.startswith(key + ".") for key in allowlist)

    return [
        (symbol.path, symbol.line, 1, "V001", f"{symbol.qualname!r} is never used outside tests")
        for index, symbol in enumerate(symbols)
        if index not in live
        and (symbol.parent is None or symbol.parent in live)
        and not allowed(symbol.qualname)
    ]


def main(argv: List[str]) -> int:
    findings = lint(argv or DEFAULT_PATHS)
    if not argv:
        findings += dead_code()
    for path, line, column, code, message in findings:
        print(f"{path}:{line}:{column}: {code} {message}")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
