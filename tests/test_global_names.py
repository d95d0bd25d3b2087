"""Every global name a function of the package reads must exist, and every
module-level function or class must have a caller.

Python resolves ``LOAD_GLOBAL`` only when the line runs, so a missing import
stays hidden until some rarely taken branch executes.  The first test walks
every code object of every ``fpaut`` module with ``dis`` and checks each
global name against the module namespace and the builtins.  The second parses
the sources with ``ast`` and fails on a definition that nothing in the
package refers to outside its own body and ``__init__.py``: being exported
and tested is not a use.  Both use only the standard library.
"""

import ast
import builtins
import dis
import importlib
import pkgutil
from pathlib import Path

import fpaut

# Definitions with no caller inside the package, each kept for a reason
# outside it.
ENTRY_POINTS = {
    ("automorphisms", "apply_inverse"): "bench target (bench/tracer.py)",
    ("cli", "automorphism_to_dict"): "bench/fixtures.py writes its inputs with it",
    ("dynamics", "no_twin_implication_check"):
        "test oracle: cross-checks atoroidal_search against twin_search",
    ("graph_maps", "_enumerate_paths"):
        "test oracle: brute-force reference for the nielsen_search walk",
    ("mapping_torus", "abelianized_action"): "bench target (bench/tracer.py)",
    ("mapping_torus", "block_orbit_solve"): "bench target (bench/tracer.py)",
    ("mapping_torus", "OrbitConstraint"): "the input record of block_orbit_solve",
}


def _code_objects(code):
    yield code
    for const in code.co_consts:
        if hasattr(const, "co_code"):
            yield from _code_objects(const)


def _module_codes(module):
    with open(module.__file__, encoding="utf-8") as fh:
        source = fh.read()
    return _code_objects(compile(source, module.__file__, "exec"))


def test_every_loaded_global_is_defined():
    missing, walked = [], set()
    for info in pkgutil.iter_modules(fpaut.__path__):
        walked.add(info.name)
        module = importlib.import_module(f"fpaut.{info.name}")
        known = set(vars(module)) | set(dir(builtins))
        for code in _module_codes(module):
            for ins in dis.get_instructions(code):
                if ins.opname == "LOAD_GLOBAL" and ins.argval not in known:
                    missing.append(f"{info.name}.{code.co_name}: {ins.argval}")
    assert {"matrices", "mapping_torus", "dynamics", "graph_maps"} <= walked
    assert not missing, missing


def _references(node):
    """Names that `node` reads: bare names, attributes, and imports as
    {bound name: imported name}."""
    loaded, imported = set(), {}
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            loaded.add(n.id)
        elif isinstance(n, ast.Attribute):
            loaded.add(n.attr)
        elif isinstance(n, ast.ImportFrom):
            for alias in n.names:
                imported[alias.asname or alias.name] = alias.name
    return loaded, imported


def uncalled_definitions(package: Path) -> set:
    """(module, name) of every module-level def or class in `package` that
    no module other than ``__init__`` refers to outside its own body."""
    defined, used = set(), set()
    for path in sorted(package.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        loaded, imported = set(), {}
        for top in tree.body:
            own = getattr(top, "name", None)
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
                defined.add((path.stem, own))
            names, imports = _references(top)
            loaded |= names - {own}
            imported.update(imports)
        used |= loaded
        used |= {name for bound, name in imported.items() if bound in loaded}
    return {(module, name) for module, name in defined if name not in used}


def test_every_definition_has_a_caller():
    uncalled = uncalled_definitions(Path(fpaut.__file__).parent)
    assert not uncalled - set(ENTRY_POINTS), sorted(uncalled - set(ENTRY_POINTS))
    # an entry point that gained a caller, or was deleted, leaves the list
    assert set(ENTRY_POINTS) <= uncalled, sorted(set(ENTRY_POINTS) - uncalled)
