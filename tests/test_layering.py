"""Import-graph ratchet over ``src/repro``.

Packages are ordered from the bottom up; an import from a lower package
into a higher one is an *upward* import.  Only the pairs recorded in
``ALLOWED_UPWARD`` may import upward, each at no more sites than it has
today, so the list can shrink but never grow.  Every import statement
counts, including lazy imports inside function bodies and
``TYPE_CHECKING`` blocks.  docs/ARCHITECTURE.md ("Package map") states
the same rule.
"""

from __future__ import annotations

import ast
import collections
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"

#: Bottom-up package order.  ``repro.obs`` sits below everything (it
#: imports nothing else from ``repro``); the root package's own modules
#: (``__init__``, ``__main__``, ``cli``) form the top layer.
ORDER = (
    "obs",
    "util",
    "memory",
    "machine",
    "runtime",
    "engine",
    "workloads",
    "core",
    "cluster",
    "figures",
    "checks",
    "api",
    "plan",
    "serve",
    "cli",
)

#: The upward imports that exist today, with their site counts.
ALLOWED_UPWARD = {
    ("core", "api"): 2,
    ("core", "checks"): 2,
    ("core", "figures"): 1,
    ("engine", "core"): 5,
    ("engine", "workloads"): 1,
}


def _layer_of_file(path: pathlib.Path) -> str:
    parts = path.relative_to(SRC).parts
    if len(parts) == 1:
        return "cli"  # __init__.py, __main__.py, cli.py
    return parts[0]


def _imported_layers(node: ast.AST) -> list[str]:
    """Layers named by one import statement.

    Importing the bare root package (``import repro``) is not an edge:
    Python has already run ``repro/__init__.py`` before any submodule.
    """
    if isinstance(node, ast.Import):
        modules = [alias.name for alias in node.names]
    elif isinstance(node, ast.ImportFrom):
        assert node.level == 0, "relative imports are not used in repro"
        if node.module == "repro":
            modules = [f"repro.{alias.name}" for alias in node.names]
        else:
            modules = [node.module or ""]
    else:
        return []
    layers = []
    for module in modules:
        parts = module.split(".")
        if parts[0] != "repro" or len(parts) < 2:
            continue
        if parts[1] in ORDER:
            layers.append(parts[1])
    return layers


def import_edges() -> dict[tuple[str, str], list[str]]:
    """Every cross-package import: (from, to) -> ["file:line", ...]."""
    edges: dict[tuple[str, str], list[str]] = collections.defaultdict(list)
    for path in sorted(SRC.rglob("*.py")):
        source = _layer_of_file(path)
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            for target in _imported_layers(node):
                if target != source:
                    site = f"{path.relative_to(SRC.parent)}:{node.lineno}"
                    edges[(source, target)].append(site)
    return edges


def upward_edges() -> dict[tuple[str, str], list[str]]:
    rank = {name: i for i, name in enumerate(ORDER)}
    return {
        pair: sites
        for pair, sites in import_edges().items()
        if rank[pair[0]] < rank[pair[1]]
    }


def test_every_package_has_a_layer():
    packages = {
        p.name for p in SRC.iterdir() if p.is_dir() and (p / "__init__.py").exists()
    }
    assert packages == set(ORDER) - {"cli"}


def test_obs_imports_nothing_else_from_repro():
    outgoing = {
        pair: sites for pair, sites in import_edges().items() if pair[0] == "obs"
    }
    assert outgoing == {}


def test_no_new_upward_imports():
    found = upward_edges()
    unexpected = {
        pair: sites for pair, sites in found.items() if pair not in ALLOWED_UPWARD
    }
    assert unexpected == {}, f"upward imports outside the allowlist: {unexpected}"
    grown = {
        pair: sites
        for pair, sites in found.items()
        if len(sites) > ALLOWED_UPWARD[pair]
    }
    assert grown == {}, f"allowed upward pairs gained sites: {grown}"


def test_allowlist_has_no_stale_entries():
    """A removed upward import must also leave the allowlist (ratchet)."""
    found = upward_edges()
    stale = {
        pair: count
        for pair, count in ALLOWED_UPWARD.items()
        if len(found.get(pair, ())) < count
    }
    assert stale == {}, f"lower these allowlist counts (or drop the pair): {stale}"
