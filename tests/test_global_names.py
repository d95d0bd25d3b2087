"""Every global name a function of the package reads must exist, every
module-level function or class must have a caller, every name taken by a
relative import must be read, and no check may be an ``assert``.

Python resolves ``LOAD_GLOBAL`` only when the line runs, so a missing import
stays hidden until some rarely taken branch executes.  The first test walks
every code object of every ``fpaut`` module with ``dis`` and checks each
global name against the module namespace and the builtins.  The second parses
the sources with ``ast`` and fails on a definition that nothing in the
package refers to outside its own body and ``__init__.py``: being exported
and tested is not a use.  A reference is resolved to a (module, name) pair,
so ``words.power`` imported as ``word_power`` is no use of
``automorphisms.power``.  The third fails on a name that a module takes
from a sibling by relative import and never reads (annotations count as
reads; ``__init__.py``, which re-exports, is exempt).  The fourth fails on
any ``assert`` statement in the package: ``python -O`` strips them, so a
self-check must raise ``SelfCheckFailed`` instead.  All four use only the
standard library.
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
    ("automorphisms", "apply_power"):
        "bench target (bench/tracer.py)",
    ("automorphisms", "check_central_condition"):
        "bench target (bench/tracer.py)",
    ("automorphisms", "power"):
        "bench target (bench/tracer.py); bench/fixtures.py builds fib2 with it",
    ("cli", "automorphism_to_dict"): "bench/fixtures.py writes its inputs with it",
    ("mapping_torus", "abelianized_action"): "bench target (bench/tracer.py)",
    ("mapping_torus", "block_orbit_solve"): "bench target (bench/tracer.py)",
    ("mapping_torus", "OrbitConstraint"): "the input record of block_orbit_solve",
    ("matrices", "kernel_vector"): "bench target (bench/tracer.py)",
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


def _bindings(tree) -> dict:
    """What each name a relative import binds stands for: (module, name)
    for ``from .m import name``, the module for ``from . import m``."""
    bound = {}
    for n in ast.walk(tree):
        if isinstance(n, ast.ImportFrom) and n.level:
            for alias in n.names:
                bound[alias.asname or alias.name] = (
                    (n.module, alias.name) if n.module else alias.name)
    return bound


def _references(node, module: str, bound: dict) -> set:
    """(module, name) of every definition that `node`, in `module`, reads:
    an imported name by its source module, ``m.name`` on a module name
    bound by an import, any other bare name in `module` itself."""
    refs = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            target = bound.get(n.id, (module, n.id))
            if isinstance(target, tuple):
                refs.add(target)
        elif (isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name)
              and isinstance(bound.get(n.value.id), str)):
            refs.add((bound[n.value.id], n.attr))
    return refs


def uncalled_definitions(package: Path) -> set:
    """(module, name) of every module-level def or class in `package` that
    no module other than ``__init__`` refers to outside its own body."""
    defined, used = set(), set()
    for path in sorted(package.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        bound = _bindings(tree)
        for top in tree.body:
            own = (path.stem, getattr(top, "name", None))
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
                defined.add(own)
            used |= _references(top, path.stem, bound) - {own}
    return defined - used


def test_every_definition_has_a_caller():
    uncalled = uncalled_definitions(Path(fpaut.__file__).parent)
    assert not uncalled - set(ENTRY_POINTS), sorted(uncalled - set(ENTRY_POINTS))
    # an entry point that gained a caller, or was deleted, leaves the list
    assert set(ENTRY_POINTS) <= uncalled, sorted(set(ENTRY_POINTS) - uncalled)


def unused_sibling_imports(package: Path) -> list:
    """``module: name`` for every name a module of `package` other than
    ``__init__`` binds by relative import and never loads."""
    found = []
    for path in sorted(package.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {n.id for n in ast.walk(tree)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        found += [f"{path.stem}: {name}" for name in _bindings(tree)
                  if name not in read]
    return found


def test_every_sibling_import_is_read():
    found = unused_sibling_imports(Path(fpaut.__file__).parent)
    assert not found, found


def test_no_assert_statement_in_the_package():
    found = []
    for path in sorted(Path(fpaut.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found += [f"{path.name}:{n.lineno}" for n in ast.walk(tree)
                  if isinstance(n, ast.Assert)]
    assert not found, found
