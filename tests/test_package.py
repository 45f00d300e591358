"""The package surface: every exported name is part of the program."""

import ast
from pathlib import Path

import pytest

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


def test_graph_counts_are_never_assigned():
    # live_count and edge_count are counted from the removal flags; a
    # property without a setter raises only on a path that runs, so the
    # source is searched for writes on paths no test runs.  The one
    # edge_count that is a stored field, PmincfStats', is always
    # written through a name `stats`, and is let through.
    writes = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            else:
                continue
            for target in targets:
                for sub in ast.walk(target):
                    if (isinstance(sub, ast.Attribute)
                            and sub.attr in ("live_count", "edge_count")
                            and not (isinstance(sub.value, ast.Name)
                                     and sub.value.id == "stats")):
                        writes.append(f"{path.name}:{sub.lineno}")
    assert not writes, f"a graph count is assigned at {writes}"


def test_decide_is_exported_from_cli():
    # imported on first use, so `python -m unipm.cli` loads cli once;
    # the -O subprocess tests in test_cli.py see no double-import warning
    from unipm import cli
    assert unipm.decide is cli.decide and unipm.Decision is cli.Decision
    with pytest.raises(AttributeError):
        unipm.no_such_name
