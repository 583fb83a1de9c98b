"""src/gainrank holds what the program runs.

Every public module-level function and class must be read somewhere in
src/gainrank besides its own definition and the package `__init__`
re-exports, or be a documented entry point named below. Reference routes
that only tests call live in tests/twins.py.
"""
from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "gainrank"

# public names nothing in src/gainrank reads, each with why it stays
ENTRY_POINTS = {
    "certify_equivalences": "documented",  # README: the certification, programmatically
    "cycle_inertia": "documented",  # README: a library entry point
    "double_square_pendant": "documented",  # generators: an extremal constructor
    "make_cycle": "documented",  # generators: an extremal constructor
    "make_extremal": "documented",  # generators: an extremal constructor
}


def _modules() -> list[tuple[Path, ast.Module]]:
    return [(p, ast.parse(p.read_text(encoding="utf-8"))) for p in sorted(SRC.rglob("*.py"))]


def _public_definitions() -> dict[str, list[str]]:
    """public function and class name -> the modules that define it."""
    out: dict[str, list[str]] = {}
    for path, tree in _modules():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                out.setdefault(node.name, []).append(str(path.relative_to(SRC)))
    return out


def _references() -> set[str]:
    """Names read outside the `__init__` files, through any import alias,
    leaving out a definition's reads of its own name."""
    read: set[str] = set()
    for path, tree in _modules():
        if path.name == "__init__.py":
            continue
        alias = {
            a.asname: a.name
            for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
            for a in node.names if a.asname
        }
        for top in tree.body:
            own = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
            for node in ast.walk(top):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    name = alias.get(node.id, node.id)
                    if name != own:
                        read.add(name)
    return read


def test_every_public_name_in_src_is_read_by_the_program_or_an_entry_point():
    defined = _public_definitions()
    # names are matched by spelling, so each must have one definition
    assert {name: where for name, where in defined.items() if len(where) > 1} == {}
    read = _references()
    unread = {name for name in defined if name not in read}
    assert unread - set(ENTRY_POINTS) == set(), "public names only tests read: move them to tests/twins.py"
    # the list names exactly the exceptions, so it cannot go stale
    assert set(ENTRY_POINTS) - unread == set()
