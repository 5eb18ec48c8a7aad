"""Every name a module imports is read somewhere in that module.

An import nothing reads hides a module's real dependencies and outlives the
code that once needed it.  The scan covers every module under ``src/repro``
except the package ``__init__`` files, whose imports are re-exports.  A name
read only inside a string annotation (``"DType"``) counts as read.  Exempt:
``from __future__`` imports and import statements marked ``# noqa: F401``
(deliberate bindings, such as the kernel builders that ``kernels.sharding``
and ``analysis.runtime`` rebind so a profiler can wrap them there).
"""

import ast
from pathlib import Path

import repro

PACKAGE_ROOT = Path(repro.__file__).resolve().parent


def _bound_names(node):
    """The names an import statement binds in its module."""
    for alias in node.names:
        if alias.name == "*":
            continue
        if alias.asname:
            yield alias.asname
        elif isinstance(node, ast.Import):
            yield alias.name.split(".")[0]
        else:
            yield alias.name


def _string_annotation_names(tree):
    """Names inside annotations written as strings."""
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    names = set()
    for annotation in filter(None, annotations):
        for part in ast.walk(annotation):
            if isinstance(part, ast.Constant) and isinstance(part.value, str):
                parsed = ast.parse(part.value, mode="eval")
                names.update(
                    sub.id for sub in ast.walk(parsed) if isinstance(sub, ast.Name)
                )
    return names


def _unused_imports(path):
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source, filename=str(path))
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)
    }
    read |= _string_annotation_names(tree)
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        statement = lines[node.lineno - 1 : node.end_lineno]
        if any("noqa: F401" in line for line in statement):
            continue
        unused.extend(name for name in _bound_names(node) if name not in read)
    return unused


def test_every_imported_name_is_read():
    modules = sorted(
        path for path in PACKAGE_ROOT.rglob("*.py") if path.name != "__init__.py"
    )
    assert modules, f"no modules found under {PACKAGE_ROOT}"
    offences = [
        f"{path.relative_to(PACKAGE_ROOT.parent)}: {name}"
        for path in modules
        for name in _unused_imports(path)
    ]
    assert not offences, "imported but never read:\n" + "\n".join(offences)
