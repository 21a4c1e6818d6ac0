import kahlerpinch
from kahlerpinch import chern, curvature, experiments, forms, pinching, space


def test_package_exports_every_submodule_name():
    submodules = (space, forms, curvature, pinching, chern, experiments)
    expected = {name for module in submodules for name in module.__all__} | {"errors", "__version__"}
    assert set(kahlerpinch.__all__) == expected
    assert len(kahlerpinch.__all__) == len(expected)
    for name in kahlerpinch.__all__:
        assert hasattr(kahlerpinch, name), name
    for module in submodules:
        for name in module.__all__:
            assert getattr(kahlerpinch, name) is getattr(module, name)
