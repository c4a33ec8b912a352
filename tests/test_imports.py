"""Module layout: package-internal imports are public and at top level."""

import ast
from pathlib import Path

import antipodal

_SRC = Path(antipodal.__file__).parent


def _internal_imports(tree: ast.Module):
    """(node, names) for every import of a package module, at any depth."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
            node.level > 0 or (node.module or "").split(".")[0] == "antipodal"
        ):
            yield node, [alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            names = [a.name for a in node.names if a.name.split(".")[0] == "antipodal"]
            if names:
                yield node, names


def test_internal_imports_are_public_and_top_level():
    problems = []
    files = sorted(_SRC.glob("*.py"))
    assert files
    for path in files:
        tree = ast.parse(path.read_text(), filename=str(path))
        top = set(map(id, tree.body))
        for node, names in _internal_imports(tree):
            where = f"{path.name}:{node.lineno}"
            if id(node) not in top:
                problems.append(f"{where}: import inside a function or block")
            for name in names:
                if name.split(".")[-1].startswith("_"):
                    problems.append(f"{where}: imports private name {name}")
    assert not problems, "\n".join(problems)
