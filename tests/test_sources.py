from __future__ import annotations

import ast
from pathlib import Path

import exposure_bandits

SOURCES = sorted(Path(exposure_bandits.__file__).parent.glob("*.py"))


def test_the_sources_state_no_contract_as_an_assert():
    # python -O strips assert statements, so a check the package relies on
    # raises an exception instead (ContractError, ValueError, ...)
    assert SOURCES
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
