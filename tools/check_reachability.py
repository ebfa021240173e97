#!/usr/bin/env python3
"""Reachability checker: every line under ``src/`` has a production caller.

Parses ``src/repro`` plus the other production trees (``bench/``,
``examples/``, ``tools/``) with :mod:`ast` and verifies that

* every module under ``src/repro`` is imported by some file other than the
  ``__init__`` of a package that contains it — ``tests/`` is not
  searched, so a module only its tests import is an orphan;
* every public top-level function or class is referenced (as a name or an
  attribute) somewhere outside its own definition — ``__init__`` imports
  and ``__all__`` lists are re-exports, not references.  A module none of
  whose functions and classes is referenced is reported once, as a module:
  a constant somebody imports does not keep the code beside it alive;
* every :data:`ALLOWLIST` entry is still needed: one that matches nothing,
  or whose target has gained a production reference, is itself an error.

Names are matched as bare identifiers, so a method that happens to share a
function's name keeps it alive; the check errs on the side of silence.

Run from the repository root (CI does)::

    python tools/check_reachability.py            # exit 1 on any orphan

Kept dependency-free on purpose; ``tests/test_docs.py`` runs it as part of
the tier-1 suite.
"""

from __future__ import annotations

import argparse
import ast
import sys
from fnmatch import fnmatchcase
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Set, Tuple

#: Production trees whose references count, relative to the repository root.
SEARCH_ROOTS = ("src", "bench", "examples", "tools")

#: What may stay without a production reference, and why.  Keys are paths
#: relative to ``src/`` — a module, a ``*`` glob over modules, or
#: ``module.py::name`` for one top-level function or class.
ALLOWLIST: Dict[str, str] = {
    "repro/__main__.py": "entry point: run by `python -m repro`, never imported",
    "repro/experiments/*": "reached through the EXPERIMENTS registry in the package __init__",
    "repro/baselines/*": "reached through BASELINE_REGISTRY in the package __init__",
    "repro/compiler/reference.py::im2col_reference": (
        "reference implementation: tests compare the implicit-im2col AGU walk against it"
    ),
    "repro/core/agu.py::reference_address_sequence": (
        "reference implementation: tests compare the AGU's addresses against it"
    ),
    "repro/memory/addressing.py::decode_address_bit_permutation": (
        "reference implementation: tests compare decode_address against the bit-level form"
    ),
    "repro/engine/base.py::EventDriven": (
        "interface: the typed form of the target protocol supports_event_protocol checks"
    ),
    "repro/workloads/generate.py::shrink": (
        "fuzz harness: the parity fuzz suite minimises a failing workload with it"
    ),
    "repro/workloads/generate.py::regression_snippet": (
        "fuzz harness: prints the paste-ready regression test of a shrunken failure"
    ),
    "repro/config.py::override": "test seam: scoped RuntimeConfig replacement",
    "repro/config.py::reset_config": "test seam: restores the environment-derived RuntimeConfig",
}


def python_files(root: Path) -> Iterator[Path]:
    """Every production file: the search roots minus their ``tests/``."""
    for tree in SEARCH_ROOTS:
        for path in sorted((root / tree).rglob("*.py")):
            if "tests" not in path.relative_to(root).parts:
                yield path


def module_name(path: Path, source: Path) -> Optional[str]:
    """Dotted name of a file under ``src/`` (``None`` for files elsewhere)."""
    try:
        parts = list(path.relative_to(source).with_suffix("").parts)
    except ValueError:
        return None
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def absolute_module(node: ast.ImportFrom, package: Optional[str]) -> str:
    """The dotted module a ``from … import`` names (relative ones resolved)."""
    base = node.module or ""
    if node.level and package is not None:
        anchor = package.split(".")
        anchor = anchor[: len(anchor) - (node.level - 1)]
        base = ".".join(anchor + ([base] if base else []))
    return base


def reexports(tree: ast.Module, package: str) -> Dict[str, Tuple[str, str]]:
    """Names a package ``__init__`` binds by import: name → (module, original)."""
    bound: Dict[str, Tuple[str, str]] = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom):
            base = absolute_module(node, package)
            for alias in node.names:
                bound[alias.asname or alias.name] = (base, alias.name)
    return bound


def imported_modules(
    tree: ast.AST, package: Optional[str], packages: Dict[str, Dict[str, Tuple[str, str]]]
) -> Set[str]:
    """Every dotted module name the file's import statements reach.

    ``from pkg import name`` reaches ``pkg.name`` when that is a module, and
    otherwise the module ``pkg/__init__`` re-exports ``name`` from: importing
    through a re-export is a call on the module that defines the name.
    """
    found: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = absolute_module(node, package)
            found.add(base)
            for alias in node.names:
                module, name = base, alias.name
                # `from . import sub` binds sub to (package, sub): stop there.
                while packages.get(module, {}).get(name, (module, name)) != (module, name):
                    module, name = packages[module][name]
                    found.add(module)
                found.add(f"{module}.{name}")
    return found


def referenced_names(tree: ast.AST, skip: Optional[ast.AST] = None) -> Set[str]:
    """Identifiers a file uses: names and attribute accesses, not imports."""
    names: Set[str] = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return names


def public_definitions(tree: ast.Module) -> List[ast.AST]:
    return [
        node
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
    ]


def allows(entry: str, key: str) -> bool:
    """A module entry (or glob) covers modules, a ``::name`` entry one name."""
    return ("::" in entry) == ("::" in key) and fnmatchcase(key, entry)


def without_reexports(tree: ast.Module) -> ast.Module:
    """A package ``__init__`` minus its imports and ``__all__``: re-exports
    are not references, anything else an ``__init__`` does is."""
    body = [
        node
        for node in tree.body
        if not isinstance(node, (ast.Import, ast.ImportFrom))
        and not (
            isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
        )
    ]
    return ast.Module(body=body, type_ignores=[])


def find_unreachable(root: Path) -> Tuple[Dict[str, str], Set[str]]:
    """``(unreachable, existing)``: allowlist-style key → message for every
    orphan, and every key that could be named at all."""
    source = root / "src"
    trees: Dict[Path, ast.Module] = {}
    dotted: Dict[Path, str] = {}  # files under src/ only
    for path in python_files(root):
        trees[path] = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        name = module_name(path, source)
        if name:
            dotted[path] = name
    packages = {
        name: reexports(trees[path], name)
        for path, name in dotted.items()
        if path.name == "__init__.py"
    }

    # Who imports which module, and which identifiers each file uses.
    importers: Dict[str, Set[Path]] = {
        name: set() for path, name in dotted.items() if path.name != "__init__.py"
    }
    uses: Dict[Path, Set[str]] = {}
    for path, tree in trees.items():
        name = dotted.get(path)
        is_init = path.name == "__init__.py"
        package = name if is_init else (name.rpartition(".")[0] if name else None)
        for target in imported_modules(tree, package, packages):
            if target not in importers or target == name:
                continue
            if is_init and name is not None and target.startswith(name + "."):
                continue  # a package re-exporting its own contents
            importers[target].add(path)
        if is_init:
            trees[path] = tree = without_reexports(tree)
        uses[path] = referenced_names(tree)

    def used_outside(path: Path, definition: ast.AST) -> bool:
        return any(definition.name in names for other, names in uses.items() if other != path)

    unreachable: Dict[str, str] = {}
    existing: Set[str] = set()
    for path, name in sorted(dotted.items()):
        relative = path.relative_to(source).as_posix()
        definitions = public_definitions(trees[path])
        existing.add(relative)
        existing.update(f"{relative}::{d.name}" for d in definitions)
        is_module = path.name != "__init__.py"  # a package is reached through its modules
        if is_module and not importers[name]:
            unreachable[relative] = (
                f"src/{relative}: module has no importer outside its package "
                f"__init__ and tests/"
            )
        elif is_module and definitions and not any(used_outside(path, d) for d in definitions):
            unreachable[relative] = (
                f"src/{relative}: module is imported, but none of its functions "
                f"and classes ({', '.join(d.name for d in definitions)}) is "
                f"referenced outside it and tests/"
            )
        else:
            for definition in definitions:
                if used_outside(path, definition) or definition.name in referenced_names(
                    trees[path], skip=definition
                ):
                    continue
                unreachable[f"{relative}::{definition.name}"] = (
                    f"src/{relative}: {definition.name} is referenced nowhere in "
                    f"{', '.join(tree + '/' for tree in SEARCH_ROOTS)} outside its "
                    f"own definition and __init__ re-exports"
                )
    return unreachable, existing


def check(root: Path) -> List[str]:
    """Return a list of human-readable problems found under ``root``."""
    unreachable, existing = find_unreachable(root)
    problems: List[str] = []
    covered: Set[str] = set()
    for entry, reason in ALLOWLIST.items():
        if not reason.strip():
            problems.append(f"allowlist: {entry!r} carries no reason")
        matched = [key for key in unreachable if allows(entry, key)]
        covered.update(matched)
        if matched:
            continue
        problems.append(
            f"allowlist: {entry!r} is reachable without it; drop the entry"
            if any(allows(entry, key) for key in existing)
            else f"allowlist: {entry!r} matches nothing under src/; drop the entry"
        )
    problems.extend(message for key, message in unreachable.items() if key not in covered)
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--root",
        default=Path(__file__).resolve().parent.parent,
        type=Path,
        help="repository root (default: the checkout containing this script)",
    )
    args = parser.parse_args(argv)

    if not (args.root / "src" / "repro").is_dir():
        print("error: no src/repro found — wrong --root?", file=sys.stderr)
        return 2
    problems = check(args.root)
    if problems:
        print(f"{len(problems)} reachability problem(s):", file=sys.stderr)
        for problem in problems:
            print(f"  {problem}", file=sys.stderr)
        return 1
    print("reachability ok: every module and public top-level name under src/ has a caller")
    return 0


if __name__ == "__main__":
    sys.exit(main())
