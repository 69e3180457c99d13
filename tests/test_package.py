import ast
from pathlib import Path

import imcperf
from imcperf import components, macro, mapper, system, workload

MODULES = (components, macro, workload, mapper, system)


def test_namespace_is_every_module_list():
    assert imcperf.__all__ == ["__version__"] + [
        name for module in MODULES for name in module.__all__]
    for module in MODULES:
        for name in module.__all__:
            assert getattr(imcperf, name) is getattr(module, name), name


def _imported_names(path):
    """Each name an import statement of the file binds, as an absolute dotted
    path: a module, or a module's attribute. Function bodies count too."""
    for node in ast.walk(ast.parse(Path(path).read_text())):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ("imcperf" if node.level else "", node.module)))
            yield from (f"{base}.{alias.name}" for alias in node.names)


def test_mapper_imports_nothing_from_the_system_model():
    # the search lives in the system model, so the mapper never reaches back
    names = set(_imported_names(mapper.__file__))
    assert "imcperf.macro.layer_precisions" in names
    assert [name for name in names
            if name == "imcperf.system" or name.startswith("imcperf.system.")] == []


def test_search_is_exported_from_the_system_model():
    assert imcperf.best_mapping is system.best_mapping
    assert imcperf.OBJECTIVES is system.OBJECTIVES
