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
* every public method or property of a class under ``src/repro`` is
  referenced outside its own definition in the same trees — ``tests/``
  again does not count;
* every name in a package's ``__all__`` is imported *through* that package
  (``from repro.x import n``, ``repro.x.n`` or a relative import) by some
  file outside it.  Here ``tests/`` and the fenced Python in ``docs/*.md``
  and ``README.md`` count: an export is only an alias, and the rules above
  already demand a production caller for what it names.  ``__all__`` also
  names only what the ``__init__`` binds (by import or definition), and
  every name it binds by import bar those its own body uses (a registry's
  classes);
* every :data:`ALLOWLIST` entry is still needed: one that matches nothing,
  or whose target has gained a production reference, is itself an error.

Names are matched as bare identifiers, so a method that happens to share a
function's name keeps it alive; the check errs on the side of silence.
What may stay without a production caller is an entry with its reason:
an entry point, a registry-reached module, a reference implementation the
tests compare production against, a hook the standard library calls, what
the engine referee reads to compare engines, the fuzz harness, a test seam.

Run from the repository root (CI does)::

    python tools/check_reachability.py            # exit 1 on any orphan

Kept dependency-free on purpose; ``tests/test_docs.py`` runs it as part of
the tier-1 suite.
"""

from __future__ import annotations

import argparse
import ast
import re
import sys
from collections import Counter
from fnmatch import fnmatchcase
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Set, Tuple

#: Production trees whose references count, relative to the repository root.
SEARCH_ROOTS = ("src", "bench", "examples", "tools")

#: Where an import through a package counts as a use of its export.
EXPORT_ROOTS = SEARCH_ROOTS + ("tests",)
EXPORT_DOCS = ("docs/*.md", "README.md")

#: What may stay without a production reference, and why.  Keys are paths
#: relative to ``src/`` — a module, a ``*`` glob over modules,
#: ``module.py::name`` for one top-level function or class, or
#: ``module.py::Class.member`` for one method or property.
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
    "repro/cluster/service.py::ClusterService.wait_idle": (
        "test seam: journal-recovery tests wait on the resubmitted backlog with it"
    ),
    "repro/obs/http.py::Handler.do_GET": (
        "stdlib hook: BaseHTTPRequestHandler dispatches each GET to it"
    ),
    "repro/obs/http.py::Handler.log_message": (
        "stdlib hook: BaseHTTPRequestHandler logs each request through it"
    ),
    "repro/core/streamer.py::DataMaestro.channel_statistics": (
        "engine referee: the parity and step-identity tests compare engines on its rows"
    ),
    "repro/memory/bank.py::MemoryBank.read_count": (
        "engine referee: the parity and step-identity tests compare engines on bank reads"
    ),
    "repro/memory/bank.py::MemoryBank.write_count": (
        "engine referee: the parity and step-identity tests compare engines on bank writes"
    ),
    "repro/memory/subsystem.py::MemorySubsystem.requester_stats": (
        "engine referee: the parity tests compare engines on each port's grants and retries"
    ),
    "repro/memory/subsystem.py::MemorySubsystem.outstanding_count": (
        "engine referee: the parity fuzz holds the per-port in-flight identity with it"
    ),
    "repro/workloads/generate.py::WorkloadGenerator.draw_many": (
        "fuzz harness: the parity fuzz suite draws its cases with it"
    ),
}


def export_sources(root: Path) -> Iterator[Tuple[Path, ast.Module]]:
    """Every file whose imports may use an export: the Python files of
    :data:`EXPORT_ROOTS`, tests included, and each fenced Python block of
    the docs that parses."""
    for tree in EXPORT_ROOTS:
        for path in sorted((root / tree).rglob("*.py")):
            yield path, ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for pattern in EXPORT_DOCS:
        for path in sorted(root.glob(pattern)):
            for block in re.findall(r"^```python\n(.*?)^```", path.read_text(), re.M | re.S):
                try:
                    yield path, ast.parse(block)
                except SyntaxError:  # a block mixing shell lines or `...` elisions
                    continue


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


def scan(tree: ast.AST) -> Tuple[Counter, List[ast.AST]]:
    """One walk over a tree: how often it uses each identifier (names and
    attribute accesses — import aliases and ``__all__`` strings are not
    identifiers), and its import, attribute and class nodes."""
    names: Counter = Counter()
    nodes: List[ast.AST] = []
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
            nodes.append(node)
        elif isinstance(node, (ast.Import, ast.ImportFrom, ast.ClassDef)):
            nodes.append(node)
        stack.extend(ast.iter_child_nodes(node))
    return names, nodes


def imported_modules(
    nodes: List[ast.AST], package: Optional[str], packages: Dict[str, Dict[str, Tuple[str, str]]]
) -> Set[str]:
    """Every dotted module name the file's import statements reach.

    ``from pkg import name`` reaches ``pkg.name`` when that is a module, and
    otherwise the module ``pkg/__init__`` re-exports ``name`` from: importing
    through a re-export is a call on the module that defines the name.
    """
    found: Set[str] = set()
    for node in nodes:
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


def export_uses(nodes: List[ast.AST], package: Optional[str]) -> Set[Tuple[str, str]]:
    """``(module, name)`` for every name the file takes through a module:
    ``from module import name`` (relative ones resolved) or ``module.name``."""
    aliases: Dict[str, str] = {}
    found: Set[Tuple[str, str]] = set()
    for node in nodes:
        if isinstance(node, ast.Import):
            for alias in node.names:
                top = alias.name.partition(".")[0]
                aliases[alias.asname or top] = alias.name if alias.asname else top
        elif isinstance(node, ast.ImportFrom):
            base = absolute_module(node, package)
            for alias in node.names:
                found.add((base, alias.name))
                aliases[alias.asname or alias.name] = f"{base}.{alias.name}"

    def dotted(node: ast.AST) -> Optional[str]:
        if isinstance(node, ast.Name):
            return aliases.get(node.id)
        if isinstance(node, ast.Attribute):
            base = dotted(node.value)
            return base and f"{base}.{node.attr}"
        return None

    for node in nodes:
        if isinstance(node, ast.Attribute):
            base = dotted(node.value)
            if base:
                found.add((base, node.attr))
    return found


def public_definitions(tree: ast.Module) -> List[ast.AST]:
    return [
        node
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
    ]


def public_members(nodes: List[ast.AST]) -> Dict[Tuple[str, str], List[ast.AST]]:
    """``(class, member)`` → its definitions, for every public method or
    property of every class in the file (a setter is a second definition)."""
    members: Dict[Tuple[str, str], List[ast.AST]] = {}
    for node in nodes:
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
                    item.name.startswith("_")
                ):
                    members.setdefault((node.name, item.name), []).append(item)
    return members


def declared_exports(tree: ast.Module) -> List[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return list(ast.literal_eval(node.value))
    return []


def defined_names(tree: ast.Module) -> Set[str]:
    """Names a module body binds other than by import."""
    names: Set[str] = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def allows(entry: str, key: str) -> bool:
    """A module entry (or glob) covers modules, a ``::name`` entry one name
    or member."""
    return ("::" in entry) == ("::" in key) and fnmatchcase(key, entry)


def find_unreachable(root: Path) -> Tuple[Dict[str, str], Set[str], Counter]:
    """``(unreachable, existing, counts)``: allowlist-style key → message for
    every orphan and export problem, every key that could be named at all,
    and how many modules, top-level names, members and exports were checked."""
    source = root / "src"
    unreachable: Dict[str, str] = {}
    existing: Set[str] = set()
    counts: Counter = Counter()
    scans = [(path, tree, *scan(tree)) for path, tree in export_sources(root)]
    trees: Dict[Path, ast.Module] = {}
    uses: Dict[Path, Counter] = {}
    nodes_of: Dict[Path, List[ast.AST]] = {}
    for path, tree, names, nodes in scans:
        parts = path.relative_to(root).parts
        if path.suffix == ".py" and parts[0] in SEARCH_ROOTS and "tests" not in parts:
            trees[path], uses[path], nodes_of[path] = tree, names, nodes
    total = sum(uses.values(), Counter())
    dotted: Dict[Path, str] = {}  # files under src/ only
    for path in trees:
        name = module_name(path, source)
        if name:
            dotted[path] = name
    inits = {name: path for path, name in dotted.items() if path.name == "__init__.py"}
    packages = {name: reexports(trees[path], name) for name, path in inits.items()}

    def anchor(path: Path) -> Optional[str]:
        """The package a file's relative imports start from."""
        name = module_name(path, source) if path.suffix == ".py" else None
        if path.name == "__init__.py" or name is None:
            return name
        return name.rpartition(".")[0]

    # Who imports which module.
    importers: Dict[str, Set[Path]] = {
        name: set() for path, name in dotted.items() if path.name != "__init__.py"
    }
    for path, nodes in nodes_of.items():
        name = dotted.get(path)
        is_init = path.name == "__init__.py"
        for target in imported_modules(nodes, anchor(path), packages):
            if target not in importers or target == name:
                continue
            if is_init and name is not None and target.startswith(name + "."):
                continue  # a package re-exporting its own contents
            importers[target].add(path)

    def used_outside(path: Path, definition: ast.AST) -> bool:
        return total[definition.name] > uses[path][definition.name]

    def used_beside(path: Path, name: str, definitions: List[ast.AST]) -> bool:
        """Whether ``name`` is used outside ``definitions`` (one name's)."""
        own = uses[path][name]
        return total[name] > own or own > sum(scan(d)[0][name] for d in definitions)

    searched = ", ".join(tree + "/" for tree in SEARCH_ROOTS)
    for path, name in sorted(dotted.items()):
        relative = path.relative_to(source).as_posix()
        definitions = public_definitions(trees[path])
        existing.add(relative)
        existing.update(f"{relative}::{d.name}" for d in definitions)
        is_module = path.name != "__init__.py"  # a package is reached through its modules
        counts["modules"] += is_module
        counts["top-level names"] += len(definitions)
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
                if used_beside(path, definition.name, [definition]):
                    continue
                unreachable[f"{relative}::{definition.name}"] = (
                    f"src/{relative}: {definition.name} is referenced nowhere in "
                    f"{searched} outside its own definition and __init__ re-exports"
                )
        for (owner, member), nodes in public_members(nodes_of[path]).items():
            key = f"{relative}::{owner}.{member}"
            existing.add(key)
            counts["members"] += 1
            if used_beside(path, member, nodes):
                continue
            unreachable[key] = (
                f"src/{relative}: {owner}.{member} is referenced nowhere in "
                f"{searched} outside its own definition"
            )

    # Exports: each __all__ name is taken through its package from outside it.
    taken: Set[Tuple[str, str]] = set()
    for path, _, _, nodes in scans:
        name = module_name(path, source) if path.suffix == ".py" else None
        taken.update(
            (package, export)
            for package, export in export_uses(nodes, anchor(path))
            if package in inits and not (name and (name + ".").startswith(package + "."))
        )
    for package, path in sorted(inits.items()):
        relative = path.relative_to(source).as_posix()
        exported = declared_exports(trees[path])
        counts["exports"] += len(exported)
        bound = set(packages[package]) | defined_names(trees[path])
        for export in exported:
            if export not in bound:
                unreachable[f"{relative}::__all__.{export}"] = (
                    f"src/{relative}: __all__ names {export}, which the __init__ does not bind"
                )
            elif (package, export) not in taken:
                unreachable[f"{relative}::__all__.{export}"] = (
                    f"src/{relative}: __all__ exports {export}, which nothing outside "
                    f"the package imports from it"
                )
        for imported in sorted(set(packages[package]) - set(exported) - set(uses[path])):
            unreachable[f"{relative}::{imported}"] = (
                f"src/{relative}: imports {imported} but neither exports it in "
                f"__all__ nor uses it"
            )
    return unreachable, existing, counts


def check(root: Path) -> Tuple[List[str], Counter]:
    """Human-readable problems found under ``root``, and what was checked."""
    unreachable, existing, counts = find_unreachable(root)
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
    return problems, counts


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
    problems, counts = check(args.root)
    if problems:
        print(f"{len(problems)} reachability problem(s):", file=sys.stderr)
        for problem in problems:
            print(f"  {problem}", file=sys.stderr)
        return 1
    print(
        f"reachability ok: checked {counts['modules']} modules, "
        f"{counts['top-level names']} top-level names, {counts['members']} members "
        f"and {counts['exports']} exports under src/; each has a caller or an "
        f"allowlist reason"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
