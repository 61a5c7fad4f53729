import sys

import pytest

import comlie


def test_star_import_binds_every_export_to_its_defining_object():
    namespace = {}
    exec("from comlie import *", namespace)
    assert namespace["__version__"] == comlie.__version__
    for name in comlie.__all__:
        if name != "__version__":
            obj = namespace[name]
            assert getattr(sys.modules[obj.__module__], name) is obj, name


def test_dir_lists_every_export():
    assert set(comlie.__all__) <= set(dir(comlie))


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="nope"):
        comlie.nope
    assert not hasattr(comlie, "nope")


def test_exports_are_not_stored_in_the_package():
    for name in comlie.__all__:
        if name != "__version__":
            getattr(comlie, name)
            assert name not in vars(comlie), name
