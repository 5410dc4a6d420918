"""Import guard over the package sources, read as syntax trees.

Every import must be relative or name a standard-library module, except
numpy, which may be imported only under ``if TYPE_CHECKING:`` or inside
the functions that build numpy arrays: a run that builds none never loads
it.  The check reads the sources, so it needs no subprocess.
"""

import ast
import sys
from pathlib import Path

import pytest

import distqc

SRC = Path(distqc.__file__).parent
# per module, the qualified names of the functions that may import numpy
NUMPY_USERS = {
    "netmodel.py": {"QuotientGraph.distance_matrix"},
    "steiner.py": {"_levels", "steiner_tree_exact"},
}


def _imports(nodes, scope: str, typing_only: bool):
    """Each import statement among `nodes` and below, with the qualified
    name of the function or class it sits in ("" at module level) and
    whether it sits under ``if TYPE_CHECKING:``."""
    for node in nodes:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node, scope, typing_only
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from _imports(node.body, f"{scope}.{node.name}" if scope else node.name, typing_only)
        elif isinstance(node, ast.If) and isinstance(node.test, ast.Name) and node.test.id == "TYPE_CHECKING":
            yield from _imports(node.body, scope, True)
            yield from _imports(node.orelse, scope, typing_only)
        else:
            yield from _imports(ast.iter_child_nodes(node), scope, typing_only)


def import_faults(source: str, numpy_users: set[str]) -> list[str]:
    """One line per import of `source` that breaks the rule above."""
    faults = []
    for node, scope, typing_only in _imports(ast.parse(source).body, "", False):
        if isinstance(node, ast.ImportFrom):
            if node.level:
                continue  # relative: inside the package
            names = [node.module]
        else:
            names = [alias.name for alias in node.names]
        for name in names:
            top = name.split(".")[0]
            where = f"line {node.lineno} ({scope or 'module level'})"
            if top == "numpy":
                if not (typing_only or scope in numpy_users):
                    faults.append(f"{where}: numpy imported eagerly")
            elif top not in sys.stdlib_module_names:
                faults.append(f"{where}: {name} is not in the standard library")
    return faults


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_imports_are_stdlib_relative_or_lazy_numpy(path):
    assert import_faults(path.read_text(), NUMPY_USERS.get(path.name, set())) == []


def test_guard_flags_eager_numpy_and_third_party_imports():
    source = (
        "from typing import TYPE_CHECKING\n"
        "if TYPE_CHECKING:\n"
        "    import numpy as np\n"
        "else:\n"
        "    import numpy\n"
        "import networkx\n"
        "class Graph:\n"
        "    def matrix(self):\n"
        "        import numpy as np\n"
        "    def other(self):\n"
        "        from numpy import zeros\n"
    )
    assert import_faults(source, {"Graph.matrix"}) == [
        "line 5 (module level): numpy imported eagerly",
        "line 6 (module level): networkx is not in the standard library",
        "line 11 (Graph.other): numpy imported eagerly",
    ]
