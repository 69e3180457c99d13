import imcperf
from imcperf import components, macro, mapper, system, workload

MODULES = (components, macro, workload, mapper, system)


def test_namespace_is_every_module_list():
    assert imcperf.__all__ == ["__version__"] + [
        name for module in MODULES for name in module.__all__]
    for module in MODULES:
        for name in module.__all__:
            assert getattr(imcperf, name) is getattr(module, name), name
