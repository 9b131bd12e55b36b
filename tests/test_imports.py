"""Every module of the package uses each name it imports, and imports the
package's own modules at its top.

The package's ``__init__`` re-exports names, so it is left out; every other
module is parsed with ``ast`` and each imported binding must be read
somewhere in the module.  Only third-party imports may sit inside a
function, so that ``numpy`` and ``mpmath`` load when first needed.  The
benchmark's traced run wraps functions by name, and each name must resolve.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "splicefan"
BENCH_RUN = Path(__file__).resolve().parents[1] / "bench" / "run.py"


def unused_imports(source):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize(
    "module",
    sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py"),
)
def test_module_uses_every_import(module):
    assert unused_imports((PACKAGE / module).read_text()) == []


def test_an_unused_import_is_reported():
    source = "from math import gcd, lcm\nimport os.path\n\nprint(lcm(2, 3))\n"
    assert unused_imports(source) == [(1, "gcd"), (2, "os")]


def function_local_package_imports(source):
    """(line, module) of each import of the package made inside a function."""
    out = []
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(fn):
            if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "splicefan"
            ):
                out.append((node.lineno, "." * node.level + (node.module or "")))
            elif isinstance(node, ast.Import):
                out.extend(
                    (node.lineno, alias.name) for alias in node.names
                    if alias.name.split(".")[0] == "splicefan"
                )
    return sorted(set(out))


@pytest.mark.parametrize(
    "module",
    sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py"),
)
def test_module_imports_the_package_at_its_top(module):
    assert function_local_package_imports((PACKAGE / module).read_text()) == []


def test_a_function_local_package_import_is_reported():
    source = (
        "from .exact import rref\n"
        "import numpy\n\n"
        "def f():\n"
        "    from .system import build_system\n"
        "    import numpy as np\n"
        "    from mpmath.libmp import fzero\n"
        "    def g():\n"
        "        import splicefan.fan\n"
        "        from splicefan import cli\n"
        "    return build_system, np, fzero, g\n"
    )
    assert function_local_package_imports(source) == [
        (5, ".system"), (9, "splicefan.fan"), (10, "splicefan"),
    ]


def test_every_traced_name_is_a_callable_of_its_module():
    """``bench/run.py --trace 1`` wraps splicefan.<module>.<function> for each
    name in its LAYERS; every one must exist.  The module is imported by
    name, since a package attribute can shadow it (``splicefan.recover`` is
    the function)."""
    spec = importlib.util.spec_from_file_location("bench_run", BENCH_RUN)
    bench_run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_run)
    names = [(mod, fn) for mod, fns in bench_run.LAYERS.items() for fn in fns]
    assert len(names) >= 20
    for mod, fn in names:
        module = importlib.import_module(f"splicefan.{mod}")
        assert callable(getattr(module, fn, None)), f"splicefan.{mod}.{fn}"
