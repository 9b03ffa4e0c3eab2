"""The package's modules form one chain of layers: each module imports only
modules earlier in LAYERS, and only at its top level, so there is no import
cycle and no import hidden inside a function.  The package root imports
nothing, so importing a module loads only that module and the modules below
it that it imports, and the whole package loads no standard module that it
does not use: neither dataclasses nor, through it, inspect."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import qmatalg

LAYERS = ["laurent", "exactla", "qalgebra", "hookcomb", "uqaction", "invariants", "rmat_hecke", "cli"]
PACKAGE = Path(qmatalg.__file__).parent


def _package_imports(tree):
    """(node, target module) for each relative import in tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            for target in [node.module] if node.module else [alias.name for alias in node.names]:
                yield node, target


def _violations(source, module):
    tree = ast.parse(source)
    top = set(map(id, tree.body))
    bad = []
    for node, target in _package_imports(tree):
        if id(node) not in top:
            bad.append(f"{module}:{node.lineno} imports {target} inside a block")
        if module in LAYERS and LAYERS.index(target) >= LAYERS.index(module):
            bad.append(f"{module}:{node.lineno} imports {target}, which is not below it")
    return bad


def test_every_module_is_in_a_layer():
    modules = {path.stem for path in PACKAGE.glob("*.py")}
    assert modules == set(LAYERS) | {"__init__", "__main__"}


def test_modules_import_only_lower_layers_at_top_level():
    bad = []
    for path in sorted(PACKAGE.glob("*.py")):
        bad += _violations(path.read_text(), path.stem)
    assert bad == []


def test_a_function_level_or_upward_import_is_caught():
    source = "from .laurent import ONE\n\ndef f():\n    from .hookcomb import dims_check\n"
    assert _violations(source, "qalgebra") == [
        "qalgebra:4 imports hookcomb inside a block",
        "qalgebra:4 imports hookcomb, which is not below it",
    ]
    assert _violations("from .laurent import ONE\n", "laurent") == [
        "laurent:1 imports laurent, which is not below it"
    ]
    assert _violations("from . import hookcomb, cli\n", "hookcomb") == [
        "hookcomb:1 imports hookcomb, which is not below it",
        "hookcomb:1 imports cli, which is not below it",
    ]


def _probe(source):
    """stdout of source run in a fresh interpreter that finds this package."""
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    return subprocess.run([sys.executable, "-c", source], env=env, capture_output=True,
                          text=True, check=True).stdout


def test_importing_the_package_loads_neither_dataclasses_nor_inspect():
    probe = "import sys, qmatalg.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    assert _probe(probe) == "[]\n"


def test_importing_a_layer_loads_only_the_layers_it_imports():
    below = {
        "laurent": [],
        "exactla": ["laurent"],
        "qalgebra": ["laurent"],
        "hookcomb": ["laurent", "qalgebra"],
        "uqaction": ["laurent", "exactla", "qalgebra"],
        "invariants": ["laurent", "exactla", "qalgebra", "hookcomb", "uqaction"],
        "rmat_hecke": ["laurent", "exactla", "qalgebra", "hookcomb"],
        "cli": LAYERS[:-1],
    }
    assert set(below) == set(LAYERS)
    for module, imported in below.items():
        probe = (f"import sys, qmatalg.{module}; "
                 "print(sorted(n for n in sys.modules if n.startswith('qmatalg.')))")
        assert _probe(probe) == f"{sorted('qmatalg.' + m for m in imported + [module])}\n", module
