"""Each package ``__init__`` under ``src/repro`` re-exports exactly its ``__all__``.

Every ``__all__`` entry must be bound in the package, and every public name
the ``__init__`` imports must be listed in ``__all__``: an import left out of
``__all__`` is a second, undeclared export surface that outlives its callers.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

import repro

PACKAGE_ROOT = Path(repro.__file__).resolve().parent
PACKAGES = sorted(
    ".".join(("repro",) + path.parent.relative_to(PACKAGE_ROOT).parts)
    for path in PACKAGE_ROOT.rglob("__init__.py")
)


def _imported_public_names(init_path):
    tree = ast.parse(init_path.read_text(), filename=str(init_path))
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if not name.startswith("_"):
                    names.add(name)
    return names


def export_mismatches(module):
    """(``__all__`` entries the package leaves unbound, public names its
    ``__init__`` imports but leaves out of ``__all__``), each sorted."""
    exported = set(module.__all__)
    unbound = sorted(name for name in exported if not hasattr(module, name))
    unlisted = sorted(_imported_public_names(Path(module.__file__)) - exported)
    return unbound, unlisted


@pytest.mark.parametrize("package", PACKAGES)
def test_init_reexports_exactly_its_all(package):
    unbound, unlisted = export_mismatches(importlib.import_module(package))
    assert not unbound, f"{package}.__all__ names unbound {unbound}"
    assert not unlisted, f"{package} imports {unlisted} but leaves them out of __all__"


def _load_init(tmp_path, source):
    """Execute ``source`` as the ``__init__`` of a throwaway package."""
    init = tmp_path / "scratch_package" / "__init__.py"
    init.parent.mkdir()
    init.write_text(source)
    spec = importlib.util.spec_from_file_location(
        "scratch_package", init, submodule_search_locations=[str(init.parent)]
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_an_unbound_all_entry_is_reported(tmp_path):
    module = _load_init(tmp_path, 'from os.path import join\n\n__all__ = ["join", "missing"]\n')
    assert export_mismatches(module) == (["missing"], [])


def test_an_import_left_out_of_all_is_reported(tmp_path):
    source = 'import json\nfrom os.path import join, split\n\n__all__ = ["join"]\n'
    assert export_mismatches(_load_init(tmp_path, source)) == ([], ["json", "split"])


def test_private_imports_and_the_version_are_not_exports(tmp_path):
    source = 'from os.path import join as _join\n\n__version__ = _join("1", "0")\n__all__ = []\n'
    assert export_mismatches(_load_init(tmp_path, source)) == ([], [])
