"""Every name a module imports is read by that module.

The library has no linter, and a refactor that moves a check leaves its
helpers' imports behind. The check parses the source with ``ast`` alone,
so it runs wherever the tests run, scipy or not.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted([*(ROOT / "src" / "charcap").glob("*.py"), *(ROOT / "tests").glob("*.py")])


def unused_imports(source):
    """The names that the imports of ``source`` bind and that no
    expression of it reads, in the order of the imports."""
    tree = ast.parse(source)
    bound = [alias.asname or alias.name.split(".")[0]
             for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
             for alias in node.names if alias.name != "*"]
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [name for name in bound if name not in read]


def test_every_imported_name_is_read():
    unused = [f"{path.relative_to(ROOT)}: {name}" for path in SOURCES
              for name in unused_imports(path.read_text(encoding="utf-8"))]
    assert not unused, "imported and never read:\n" + "\n".join(unused)


def test_the_check_names_what_is_not_read():
    source = ("import os\nimport numpy as np\nfrom a.b import c, d as e\nimport x.y\n"
              "np.zeros(e)\nc = 1\n")
    assert unused_imports(source) == ["os", "c", "x"]
