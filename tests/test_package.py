"""The package surface: every exported name is part of the program."""

import ast
from pathlib import Path

import unipm

PACKAGE = Path(unipm.__file__).resolve().parent

# exported names that no other module of the package calls, and why
UNCALLED_EXPORTS = {
    "kotzig_peel": "the reference verifier",
    "apply_op1": "the paper's first operation",
    "apply_op2": "the paper's second operation",
    "normalize_endpoints": "the endpoint remapping utility README documents",
    "is_clique": "the public clique predicate beside is_simplicial",
}


def _names_used_by_package() -> set[str]:
    used = set()
    for path in PACKAGE.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


def test_every_export_is_used_by_the_package():
    used = _names_used_by_package()
    exported = set(unipm.__all__)
    unused = exported - used - UNCALLED_EXPORTS.keys()
    assert not unused, f"exported only for tests or demos: {sorted(unused)}"
    # an entry for a name the package now calls, or no longer exports, is stale
    stale = [name for name in UNCALLED_EXPORTS
             if name in used or name not in exported]
    assert not stale, f"stale UNCALLED_EXPORTS entries: {stale}"
