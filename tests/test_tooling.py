import ast
from pathlib import Path

import exunits


def test_library_has_no_assert():
    """Guards on results must raise: ``python -O`` strips every ``assert``."""
    sources = sorted(Path(exunits.__file__).parent.glob("*.py"))
    assert sources
    offenders = [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert offenders == []
