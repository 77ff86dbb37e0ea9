import gumbelkit
from gumbelkit import distributions, losses, mdp, regression, rng, stats, value_fitting

SUBMODULES = (distributions, losses, mdp, regression, rng, stats, value_fitting)


def test_exports_are_the_submodule_lists_in_module_order():
    expected = ["__version__"] + [name for module in SUBMODULES for name in module.__all__]
    assert gumbelkit.__all__ == expected
    assert len(set(gumbelkit.__all__)) == len(gumbelkit.__all__)


def test_each_export_is_its_submodule_object():
    for module in SUBMODULES:
        for name in module.__all__:
            assert getattr(gumbelkit, name) is getattr(module, name), (module.__name__, name)
