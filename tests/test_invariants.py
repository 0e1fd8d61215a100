"""Source guard: invariant checks in the package must survive ``python -O``,
so they raise `InvariantError` instead of using ``assert``."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "mfann"


def test_package_has_no_assert_statements():
    sources = sorted(PACKAGE.glob("*.py"))
    assert len(sources) >= 10, f"package sources not found under {PACKAGE}"
    found = [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"assert statements vanish under python -O: {found}"
