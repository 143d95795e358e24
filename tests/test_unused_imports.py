"""Every module-level import in ``src/repro`` is used.

No linter runs in CI, so this AST scan stands in for pyflakes' F401 on
module-level imports.  A name counts as used when it is read anywhere in
its module, appears in a string annotation, or is listed in ``__all__``;
an import line marked ``# noqa: F401`` is a deliberate re-export.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


def _module_imports(tree, lines):
    """``{name: line}`` bound by imports at module level (also inside
    top-level ``if``/``try`` blocks)."""
    imported = {}
    pending = list(tree.body)
    while pending:
        node = pending.pop()
        if isinstance(node, ast.If):
            pending.extend(node.body + node.orelse)
        elif isinstance(node, ast.Try):
            pending.extend(node.body + node.orelse + node.finalbody)
            for handler in node.handlers:
                pending.extend(handler.body)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) == "__future__":
                continue
            if "noqa: F401" in lines[node.lineno - 1]:
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    return imported


def _string_names(node):
    """Names read by the string constants under ``node``."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            try:
                parsed = ast.parse(sub.value, mode="eval")
            except SyntaxError:
                continue
            names |= {n.id for n in ast.walk(parsed) if isinstance(n, ast.Name)}
    return names


def _used_names(tree):
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            annotations.append(node.value)
        for annotation in annotations:
            if annotation is not None:
                used |= _string_names(annotation)
    return used


def test_no_unused_module_level_imports():
    unused = []
    for path in sorted(SRC.rglob("*.py")):
        text = path.read_text(encoding="utf-8")
        tree = ast.parse(text, filename=str(path))
        imported = _module_imports(tree, text.splitlines())
        used = _used_names(tree)
        for name, line in sorted(imported.items(), key=lambda kv: kv[1]):
            if name not in used:
                unused.append(f"{path.relative_to(SRC.parent)}:{line}: {name}")
    assert not unused, "unused imports:\n" + "\n".join(unused)
