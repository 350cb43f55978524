"""No module of the package and no test imports a name it never uses, no
package module uses another's underscore-prefixed functions or classes, and
neither the package nor its command line loads any module of scipy or of
jsonschema and its dependencies."""

import ast
import functools
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = sorted((ROOT / "src" / "stlfunnel").glob("*.py"))
FILES = SRC + sorted((ROOT / "tests").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement and never read; ``__all__`` entries count as read."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return sorted(imported - used)


def test_scan_finds_unused_and_spares_exported():
    source = "import os, numpy as np\nfrom . import a, b\nimport x.y\n__all__ = ['b']\nnp.zeros(a)\n"
    assert unused_imports(source) == ["os", "x"]


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def _private(name: str) -> bool:
    """An underscore-prefixed function or class name; all-caps constants are exempt."""
    return name.startswith("_") and not name.startswith("__") and not name.isupper()


def private_reads(source: str) -> list[str]:
    """Private names taken from other package modules, as "module.name".

    Counts ``from .m import _f`` and, for a module bound by ``from . import m``,
    every read of ``m._f``.
    """
    tree = ast.parse(source)
    found, modules = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module == "stlfunnel"):
            for a in node.names:
                if node.module in (None, "stlfunnel"):
                    modules.add(a.asname or a.name)
                elif _private(a.name):
                    found.append(f"{node.module}.{a.name}")
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and _private(node.attr)):
            found.append(f"{node.value.id}.{node.attr}")
    return sorted(found)


def test_scan_finds_private_reads_and_spares_constants():
    source = (
        "from .kernels import _leaf_readout, _DEG, u_xi_eval\n"
        "from . import plants\nfrom numpy import _private\n"
        "plants._Maps(plants._DEG, plants.__name__, _private)\n"
    )
    assert private_reads(source) == ["kernels._leaf_readout", "plants._Maps"]


@pytest.mark.parametrize("path", SRC, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_private_reads_across_modules(path):
    assert private_reads(path.read_text()) == []


PACKAGES = ("scipy", "jsonschema", "referencing", "rpds", "attrs")


@functools.lru_cache(maxsize=None)
def loaded_packages(module: str) -> list[str]:
    """Modules of ``PACKAGES`` loaded by ``import module`` in one fresh interpreter."""
    code = (f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); import {module}; "
            f"print(sorted(m for m in sys.modules if m.split('.')[0] in {PACKAGES!r}))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    return ast.literal_eval(out.stdout.strip())


# One interpreter per module serves all five packages' cases.
@pytest.mark.parametrize("package", PACKAGES)
@pytest.mark.parametrize("module", ["stlfunnel", "stlfunnel.cli"])
def test_import_loads_no_scipy(module, package):
    found = loaded_packages(module)
    assert [m for m in found if m.split(".")[0] == package] == [], f"import {module} loads {found}"
