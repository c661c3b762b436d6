"""monoext.discretize is the only bridge between the continuum modules and
the discrete solver: the import graph of the package keeps the two sides
apart everywhere else."""

import ast
from pathlib import Path

import monoext

PACKAGE = Path(monoext.__file__).parent
CONTINUUM = {"func1d", "continuous", "process"}
DISCRETE = {"grid", "poset", "values", "solver", "oracle"}
BRIDGES = {"discretize", "cli", "selftest", "__init__"}
NEUTRAL = {"errors"}
# (importer, module, name): the only imports allowed across the two sides
# outside the bridges.
CROSSINGS = set()


def _imports(path):
    """(module, name) for each name ``path`` imports from the package;
    ``from . import m`` gives (m, None)."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0:
                if not module.startswith("monoext."):
                    continue
                module = module[len("monoext."):]
            for alias in node.names:
                if module:
                    yield module.split(".")[0], alias.name
                else:
                    yield alias.name, None
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("monoext."):
                    yield alias.name.split(".")[1], None


def test_only_the_bridges_import_from_both_sides():
    imports = {path.stem: set(_imports(path)) for path in PACKAGE.glob("*.py")}
    assert set(imports) == CONTINUUM | DISCRETE | BRIDGES | NEUTRAL
    both = set()
    for importer, pairs in imports.items():
        targets = {module for module, name in pairs
                   if (importer, module, name) not in CROSSINGS}
        if importer in CONTINUUM:
            assert not targets & (DISCRETE | {"discretize"}), importer
        if importer in DISCRETE:
            assert not targets & (CONTINUUM | {"discretize"}), importer
        if targets & CONTINUUM and targets & DISCRETE:
            both.add(importer)
    assert "discretize" in both
    assert both <= BRIDGES, both - BRIDGES


def test_the_solver_reads_sets_without_numpy_or_the_grid():
    # The solver reads every poset's sets through the methods the set
    # views share, so it needs neither the grid's arithmetic nor numpy.
    modules = set()
    for node in ast.walk(ast.parse((PACKAGE / "solver.py").read_text())):
        if isinstance(node, ast.Import):
            modules |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and not node.level:
            modules.add(node.module.split(".")[0])
    assert "numpy" not in modules
    assert "grid" not in {module for module, _ in _imports(PACKAGE / "solver.py")}


def test_values_takes_only_the_computed_sequence_base_from_the_grid():
    # Scale values are a computed view on the grid views' base; nothing of
    # the grid's arithmetic reaches the values layer.
    names = {name for module, name in _imports(PACKAGE / "values.py") if module == "grid"}
    assert names == {"_ComputedSequence"}
