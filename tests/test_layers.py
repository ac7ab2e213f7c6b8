"""The layering of qram's modules, read from their source with ast."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "qram"

# each module may import only the modules before it; the package's
# __init__ loads every layer
LAYERS = (
    "record", "series", "divisors", "generators", "weighted", "numeric", "identities", "cli",
    "__init__",
)


def test_imports_sit_at_module_level_and_point_down():
    assert sorted(p.stem for p in SRC.glob("*.py")) == sorted(LAYERS)
    for rank, name in enumerate(LAYERS):
        tree = ast.parse((SRC / f"{name}.py").read_text())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                nested = [n.lineno for n in ast.walk(node) if isinstance(n, (ast.Import, ast.ImportFrom))]
                assert not nested, f"{name}.py imports inside a function, line {nested[0]}"
            elif isinstance(node, ast.ImportFrom) and node.level:
                imported.update([node.module] if node.module else (a.name for a in node.names))
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                # qram imports itself only relatively
                names = [a.name for a in node.names] if isinstance(node, ast.Import) else [node.module]
                assert not [n for n in names if n.split(".")[0] == "qram"], f"{name}.py: {names}"
        above = imported - set(LAYERS[:rank])
        assert not above, f"{name}.py imports {sorted(above)}, not below it"
