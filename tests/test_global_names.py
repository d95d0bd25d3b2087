"""Every global name a function of the package reads must exist.

Python resolves ``LOAD_GLOBAL`` only when the line runs, so a missing import
stays hidden until some rarely taken branch executes.  This walks every code
object of every ``fpaut`` module with ``dis`` and checks each global name
against the module namespace and the builtins, using only the standard
library.
"""

import builtins
import dis
import importlib
import pkgutil

import fpaut


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
