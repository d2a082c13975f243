import inspect

import codapol


def test_all_exports_only_classes_and_functions():
    assert codapol.__all__
    for name in codapol.__all__:
        obj = getattr(codapol, name)
        assert inspect.isclass(obj) or inspect.isfunction(obj), name
