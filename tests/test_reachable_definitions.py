"""Every definition under ``src/repro`` is reached from what the program runs.

A helper that only tests call is a second implementation to keep in step
with the first; a test oracle belongs in ``tests/``.  The scan is name-based
and computes a fixed point:

* Roots: the module-level statements of every module under ``src/repro``
  except the package ``__init__`` files (whose imports are re-exports),
  including the decorators of module-level definitions.  A module-level
  definition that a project decorator wraps (``@register_experiment``,
  ``@trial_runner``) is a root itself, since the decorator registers it.
  Every name in ``examples/``, ``benchmarks/`` and ``perfbench/`` is a root
  too, and so is every part of a string there that is a dotted name:
  perfbench's tracer names its targets in strings.  ``tests/`` never counts.
* A module-level function, class or constant is reached when reached code
  names it.  A method is reached when its class is reached and reached code
  reads that attribute.  The dunder methods of a reached class are reached
  with it, and so is the rest of its body (fields, defaults, decorators).

A definition reached only through a computed name (``getattr(obj, name)``)
goes on ``ALLOWLIST`` with a one-line reason.  Being name-based, the scan
can miss a dead definition that shares its name with live code.
"""

import ast
import re
import textwrap
import tokenize
from pathlib import Path

import repro

PACKAGE_ROOT = Path(repro.__file__).resolve().parent
REPO_ROOT = PACKAGE_ROOT.parents[1]
ROOT_DIRECTORIES = ("examples", "benchmarks", "perfbench")

#: Qualified name (module path below ``repro``, then the definition) -> reason.
ALLOWLIST = {
    "kernels.memo.build_memo_rows": "tests observe the build memo's row bound",
}

_DOTTED_NAME_STRING = re.compile(r"[rRbBuU]*(['\"])([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)\1")


class Definition:
    """A module-level definition, or a method of a module-level class."""

    def __init__(self, path, qualname, line, body, owner=None):
        self.path = path
        self.qualname = qualname
        self.name = qualname.rsplit(".", 1)[-1]
        self.line = line
        self.body = body
        self.owner = owner

    def location(self, base=PACKAGE_ROOT.parent):
        return f"{self.path.relative_to(base).as_posix()}:{self.line} {self.name}"


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def _read(nodes, names, attributes):
    """Add the names and the attributes the given nodes read, at any depth."""
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Store):
                names.add(sub.id)
            elif isinstance(sub, ast.Attribute) and not isinstance(sub.ctx, ast.Store):
                attributes.add(sub.attr)


def _root_tokens(path):
    """Every name of one file, and every part of a string that is a dotted
    name (``"CycleApproximateSimulator.run"``); prose strings do not count."""
    names = set()
    with path.open("rb") as handle:
        for token in tokenize.tokenize(handle.readline):
            if token.type == tokenize.NAME:
                names.add(token.string)
            elif token.type == tokenize.STRING:
                match = _DOTTED_NAME_STRING.fullmatch(token.string)
                if match:
                    names.update(match.group(2).split("."))
    return names


def _decorator_name(decorator):
    if isinstance(decorator, ast.Call):
        decorator = decorator.func
    if isinstance(decorator, ast.Attribute):
        return decorator.attr
    return getattr(decorator, "id", None)


def _modules(package_root=PACKAGE_ROOT):
    for path in sorted(package_root.rglob("*.py")):
        if path.name != "__init__.py":
            yield path, ".".join(path.relative_to(package_root).with_suffix("").parts)


def scan_module(path, module):
    """(definitions, module-level root nodes, (definition, decorators) pairs)."""
    tree = ast.parse(path.read_text(), filename=str(path))
    definitions, roots, decorated = [], [], []
    for statement in tree.body:
        if not isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            roots.append(statement)
            if isinstance(statement, (ast.Assign, ast.AnnAssign)):
                targets = getattr(statement, "targets", [getattr(statement, "target", None)])
                definitions.extend(
                    Definition(path, f"{module}.{target.id}", statement.lineno, [])
                    for target in targets
                    if isinstance(target, ast.Name) and not _is_dunder(target.id)
                )
            continue
        qualname = f"{module}.{statement.name}"
        if isinstance(statement, ast.ClassDef):
            methods = [
                member
                for member in statement.body
                if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef))
            ]
            rest = [member for member in statement.body if member not in methods]
            rest += [decorator for method in methods for decorator in method.decorator_list]
            definition = Definition(path, qualname, statement.lineno, rest)
            definitions.append(definition)
            definitions.extend(
                Definition(path, f"{qualname}.{method.name}", method.lineno, [method], definition)
                for method in methods
            )
            roots += statement.bases + [keyword.value for keyword in statement.keywords]
        else:
            definition = Definition(path, qualname, statement.lineno, [statement])
            definitions.append(definition)
        roots += statement.decorator_list
        if statement.decorator_list:
            decorated.append((definition, statement.decorator_list))
    return definitions, roots, decorated


def unreached_definitions(
    package_root=PACKAGE_ROOT,
    root_directories=tuple(REPO_ROOT / directory for directory in ROOT_DIRECTORIES),
    allowlist=ALLOWLIST,
):
    """The definitions under ``package_root`` that nothing reaches, in file order."""
    definitions, roots, decorated = [], [], []
    for path, module in _modules(package_root):
        found, module_roots, module_decorated = scan_module(path, module)
        definitions += found
        roots += module_roots
        decorated += module_decorated
    names, attributes = set(), set()
    _read(roots, names, attributes)
    for directory in root_directories:
        for path in sorted(directory.rglob("*.py")):
            tokens = _root_tokens(path)
            names |= tokens
            attributes |= tokens

    project_functions = {
        d.name
        for d in definitions
        if d.owner is None and d.body and isinstance(d.body[0], ast.FunctionDef)
    }
    reached = set()
    for definition, decorators in decorated:
        if any(_decorator_name(decorator) in project_functions for decorator in decorators):
            reached.add(definition)
            _read(definition.body, names, attributes)
    changed = True
    while changed:
        changed = False
        for definition in definitions:
            if definition in reached:
                continue
            if definition.owner is None:
                hit = definition.name in names or definition.name in attributes
            else:
                hit = definition.owner in reached and (
                    _is_dunder(definition.name) or definition.name in attributes
                )
            if hit:
                reached.add(definition)
                _read(definition.body, names, attributes)
                changed = True
    return [
        definition
        for definition in definitions
        if definition not in reached and definition.qualname not in allowlist
    ]


def test_every_definition_is_reached():
    unreached = unreached_definitions()
    assert not unreached, (
        "defined under src/repro but reached only from tests (delete it, move it "
        "into tests/, or allowlist it with a reason):\n"
        + "\n".join(definition.location() for definition in unreached)
    )


def test_allowlist_names_existing_definitions_with_reasons():
    defined = {
        definition.qualname
        for path, module in _modules()
        for definition in scan_module(path, module)[0]
    }
    for qualname, reason in ALLOWLIST.items():
        assert qualname in defined, f"allowlisted {qualname} is not defined"
        assert reason.strip(), f"allowlisted {qualname} needs a reason"


# -- the scan's rules, on small synthetic trees ---------------------------------------


def _unreached(tmp_path, files, allowlist=None):
    """Write ``files`` (relative path -> source) under ``tmp_path`` and scan
    its ``pkg`` package with ``examples/`` as the only root directory."""
    for name, source in files.items():
        path = tmp_path / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
    (tmp_path / "examples").mkdir(exist_ok=True)
    return [
        definition.qualname
        for definition in unreached_definitions(
            tmp_path / "pkg", (tmp_path / "examples",), allowlist or {}
        )
    ]


def test_a_definition_only_tests_name_is_unreached(tmp_path):
    files = {
        "pkg/a.py": "def helper():\n    return 1\n",
        "tests/test_a.py": "from pkg.a import helper\n\nassert helper() == 1\n",
    }
    assert _unreached(tmp_path, files) == ["a.helper"]


def test_module_level_statements_are_roots(tmp_path):
    files = {"pkg/a.py": "def used():\n    return 1\n\n\nused()\n"}
    assert _unreached(tmp_path, files) == []


def test_package_init_imports_are_not_roots(tmp_path):
    files = {
        "pkg/__init__.py": 'from . import a\n\nhelper = a.helper\n__all__ = ["helper"]\n',
        "pkg/a.py": "def helper():\n    return 1\n",
    }
    assert _unreached(tmp_path, files) == ["a.helper"]


def test_reach_is_a_fixed_point_across_modules(tmp_path):
    files = {
        "pkg/a.py": """
            from .b import middle


            def dead():
                return middle()


            middle()
        """,
        "pkg/b.py": """
            def leaf():
                return 1


            def middle():
                return leaf()
        """,
    }
    assert _unreached(tmp_path, files) == ["a.dead"]


def test_a_module_constant_is_reached_by_name(tmp_path):
    files = {
        "pkg/a.py": """
            LIMIT = 4
            UNUSED = 5


            def bound():
                return LIMIT


            bound()
        """
    }
    assert _unreached(tmp_path, files) == ["a.UNUSED"]


def test_a_project_decorator_makes_what_it_wraps_a_root(tmp_path):
    files = {
        "pkg/a.py": """
            REGISTRY = []


            def register(function):
                REGISTRY.append(function)
                return function


            @register
            def trial():
                return helper()


            def helper():
                return 1
        """
    }
    assert _unreached(tmp_path, files) == []


def test_a_foreign_decorator_does_not_make_a_root(tmp_path):
    files = {
        "pkg/a.py": """
            import functools


            @functools.lru_cache(maxsize=None)
            def cached():
                return 1
        """
    }
    assert _unreached(tmp_path, files) == ["a.cached"]


def test_a_method_needs_its_class_reached(tmp_path):
    files = {
        "pkg/a.py": """
            class Box:
                def open(self):
                    return 1


            def run(thing):
                return thing.open()


            run(None)
        """
    }
    assert _unreached(tmp_path, files) == ["a.Box", "a.Box.open"]


def test_a_method_needs_its_attribute_read(tmp_path):
    files = {
        "pkg/a.py": """
            class Box:
                def open(self):
                    return 1

                def close(self):
                    return 0


            Box().open()
        """
    }
    assert _unreached(tmp_path, files) == ["a.Box.close"]


def test_a_bare_name_does_not_reach_a_method(tmp_path):
    files = {
        "pkg/a.py": """
            class Box:
                def open(self):
                    return 1


            def run(open):
                return open


            run(Box())
        """
    }
    assert _unreached(tmp_path, files) == ["a.Box.open"]


def test_base_classes_are_roots(tmp_path):
    files = {
        "pkg/a.py": """
            class Base:
                pass


            class Child(Base):
                pass
        """
    }
    assert _unreached(tmp_path, files) == ["a.Child"]


def test_decorator_arguments_are_roots(tmp_path):
    files = {
        "pkg/a.py": """
            import functools

            SIZE = 8


            @functools.lru_cache(maxsize=SIZE)
            def cached():
                return 1
        """
    }
    assert _unreached(tmp_path, files) == ["a.cached"]


def test_dunders_and_the_class_body_come_with_a_reached_class(tmp_path):
    files = {
        "pkg/a.py": """
            def default_size():
                return 1


            def helper():
                return 2


            class Box:
                size: int = default_size()

                def __init__(self):
                    self.extra = helper()

                def __len__(self):
                    return self.size


            Box()
        """
    }
    assert _unreached(tmp_path, files) == []


def test_names_in_root_directories_are_roots(tmp_path):
    files = {
        "pkg/a.py": "def helper():\n    return 1\n",
        "examples/demo.py": "from pkg.a import helper\n\nhelper()\n",
    }
    assert _unreached(tmp_path, files) == []


def test_dotted_name_strings_in_root_directories_are_roots(tmp_path):
    files = {
        "pkg/a.py": """
            class Box:
                def open(self):
                    return 1

                def close(self):
                    return 0
        """,
        "examples/trace_targets.py": 'TARGETS = ["Box.open"]\n',
    }
    assert _unreached(tmp_path, files) == ["a.Box.close"]


def test_prose_strings_in_root_directories_are_not_roots(tmp_path):
    files = {
        "pkg/a.py": "def helper():\n    return 1\n",
        "examples/demo.py": 'print("call helper first")\n',
    }
    assert _unreached(tmp_path, files) == ["a.helper"]


def test_an_allowlisted_definition_is_not_reported(tmp_path):
    files = {"pkg/a.py": "def helper():\n    return 1\n\n\ndef other():\n    return 2\n"}
    allowlist = {"a.helper": "reached through a computed name"}
    assert _unreached(tmp_path, files, allowlist) == ["a.other"]


def test_a_failure_names_path_line_and_definition(tmp_path):
    _unreached(tmp_path, {"pkg/sub/a.py": "import os\n\n\ndef helper():\n    return os.sep\n"})
    (definition,) = unreached_definitions(tmp_path / "pkg", (), {})
    assert definition.qualname == "sub.a.helper"
    assert definition.location(tmp_path) == "pkg/sub/a.py:4 helper"
