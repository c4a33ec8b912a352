"""Module layout: package-internal imports are public and at top level,
every deliberate raise names a class of the error taxonomy, the package
namespace republishes exactly the modules' public names, and each of
those names is used by the package, a script or the benchmark, or is an
object of the paper; each public method and property of an exported
class is used."""

import ast
import types
from pathlib import Path

import antipodal

_SRC = Path(antipodal.__file__).parent
_ROOT = Path(__file__).resolve().parents[1]

_MODULES = [
    "bounds", "circle", "constructions", "errors", "familyfile", "search", "setfamilies", "theorem1", "vectors",
]

# Exported names that no code in src/antipodal, scripts/ or benchmark/
# refers to, each kept as an object of the paper.  The benchmark's tracer
# wraps the first four by their names as strings.
PAPER_OBJECTS = {
    "proposition1_holds": "Proposition 1 for one pair of families",
    "lemma3_count": "Lemma 3 for one permutation sigma: |H(sigma) & F|",
    "subfamily": "the slice F(A, B) of the proof of Theorem 1",
    "family_b": "the family B_T of the proof of Theorem 1",
    "is_intersecting": "the intersection predicate of the EKR theorem",
}


def _exported() -> dict[str, object]:
    """The union of the modules' public names, each with the object it
    binds: `from module import *` binds the module's __all__ (errors.py,
    which has none, every exception class)."""
    exported = {}
    for name in _MODULES:
        namespace = {}
        exec(f"from antipodal.{name} import *", namespace)
        namespace.pop("__builtins__")
        exported |= namespace
    return exported


def _public_members() -> set[str]:
    """The public methods and properties that the package's exported
    classes define themselves (dataclass fields are data, not members)."""
    kinds = (types.FunctionType, property, classmethod, staticmethod)
    return {
        f"{cls.__name__}.{name}"
        for cls in _exported().values()
        if isinstance(cls, type) and cls.__module__.startswith("antipodal.")
        for name, value in vars(cls).items()
        if not name.startswith("_") and isinstance(value, kinds)
    }


def test_package_namespace_is_the_union_of_module_exports():
    # The package adds only its submodules.
    exported = _exported().keys()
    assert {"comb_exceeds", "check_pair_cap", "AntipodalError"} <= exported
    submodules = {path.stem for path in _SRC.glob("*.py") if not path.stem.startswith("_")}
    assert submodules == set(_MODULES) | {"cli"}
    public = {name for name in vars(antipodal) if not name.startswith("_")}
    assert public - submodules == exported
    assert antipodal.__version__ == "0.1.0"


def test_every_export_is_used_or_a_paper_object():
    # A use is a name or an attribute in code; strings, docstrings and
    # tests do not count.  A method or property of an exported class
    # counts as used when an attribute anywhere has its name.
    used = set()
    for folder in ("src/antipodal", "scripts", "benchmark"):
        for path in (_ROOT / folder).glob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
                if isinstance(node, ast.Name):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
    unused = _exported().keys() - used
    assert not unused - PAPER_OBJECTS.keys(), f"exported, used by nothing: {sorted(unused - PAPER_OBJECTS.keys())}"
    assert not PAPER_OBJECTS.keys() - unused, f"listed, but used or not exported: {sorted(PAPER_OBJECTS.keys() - unused)}"
    members = _public_members()
    assert {"VectorFamily.from_codes", "SignedVector.plus", "Graph.n"} <= members
    unused_members = {m for m in members if m.split(".")[1] not in used}
    assert not unused_members, f"public members used by nothing: {sorted(unused_members)}"


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


def _raises(node: ast.AST, func: str | None = None):
    """(raise node, name of its innermost enclosing function) at any depth."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Raise):
            yield child, func
        inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else func
        yield from _raises(child, inner)


def _raised_name(exc: ast.expr) -> str:
    if isinstance(exc, ast.Call):
        exc = exc.func
    if isinstance(exc, ast.Attribute):
        return exc.attr
    return exc.id if isinstance(exc, ast.Name) else ast.unparse(exc)


def test_deliberate_raises_use_the_taxonomy():
    # errors.py classes for bad input; RuntimeError for self-check faults;
    # the solver's private timeout; KeyError only from __getitem__.
    errors = ast.parse((_SRC / "errors.py").read_text())
    allowed = {node.name for node in errors.body if isinstance(node, ast.ClassDef)}
    allowed |= {"RuntimeError", "_OutOfTime"}
    problems = []
    for path in sorted(_SRC.glob("*.py")):
        for node, func in _raises(ast.parse(path.read_text(), filename=str(path))):
            if node.exc is None:  # bare re-raise
                continue
            name = _raised_name(node.exc)
            if name not in allowed and not (name == "KeyError" and func == "__getitem__"):
                problems.append(f"{path.name}:{node.lineno}: raises {name}")
    assert not problems, "\n".join(problems)


def test_only_vectors_converts_between_masks_and_index_sets():
    # Coordinate i is bit i - 1, and a mask's bits are listed, in vectors
    # alone: no other module imports itertools.combinations or calls bin().
    offenders = set()
    for path in sorted(_SRC.glob("*.py")):
        if path.stem == "vectors":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and node.module == "itertools":
                if any(alias.name == "combinations" for alias in node.names):
                    offenders.add(path.stem)
            elif isinstance(node, ast.Attribute) and node.attr == "combinations":
                offenders.add(path.stem)
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "bin":
                offenders.add(path.stem)
    assert not offenders, f"convert between masks and index sets outside vectors: {sorted(offenders)}"
