"""Every module-level import of the package is used in its module.

No linter is among the test dependencies, so this check walks each
module's syntax tree: an imported name must be referenced as a name, or
as the root of an attribute, somewhere in its module.  A name that
appears only inside a string, such as a quoted annotation, is unused.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "plapminres"


def unused_imports(source: str) -> list[str]:
    """Names bound by the module-level imports of ``source`` that the
    module never references; ``from __future__`` imports are exempt."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.split(".")[0]
                      for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in used]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda path: path.name)
def test_module_imports_are_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_checker_reads_names_attributes_and_strings():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import numpy as np\n"
        "from .mesh import Mesh, MeshError\n"
        "from .spaces import DofMap\n"
        "CACHE: 'dict[Mesh, int]' = {}\n"
        "def f(dm: DofMap):\n"
        "    return np.zeros(os.path.sep.count('/'))\n"
    )
    assert unused_imports(source) == ["Mesh", "MeshError"]
