"""The package's export list is kept by hand: it must name exactly what
``pobounds/__init__.py`` imports from its submodules."""

import ast
from pathlib import Path

import pobounds


def test_all_names_exactly_the_imported_names():
    tree = ast.parse(Path(pobounds.__file__).read_text(encoding="utf-8"))
    imported = [alias.asname or alias.name for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1
                for alias in node.names]
    (listed,) = [ast.literal_eval(node.value) for node in tree.body if isinstance(node, ast.Assign)
                 and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)]
    assert len(listed) == len(set(listed))
    assert sorted(imported) == sorted(listed)
    assert all(hasattr(pobounds, name) for name in listed)
