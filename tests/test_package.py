"""The package namespace: every public name is read from its defining module
on first access (PEP 562)."""

import importlib

import pytest

import qmckay
import qmckay.crc as crc
import qmckay.numeric as numeric


@pytest.mark.parametrize("name", qmckay.__all__)
def test_every_public_name_is_its_defining_modules_object(name):
    value = getattr(qmckay, name)
    if name == "__version__":
        assert isinstance(value, str)
        return
    if name == "DEFAULT_DPS":
        assert value == 64 and crc.DEFAULT_DPS is value
        return
    assert value.__name__ == name
    assert getattr(importlib.import_module(value.__module__), name) is value


# crc's public names: the package's names that crc or numeric defines, and
# every mpf view that crc reads from numeric
CRC_NAMES = sorted({
    name for name in qmckay.__all__
    if getattr(getattr(qmckay, name), "__module__", None) in (crc.__name__, numeric.__name__)
} | set(numeric.__all__))


@pytest.mark.parametrize("name", CRC_NAMES)
def test_every_crc_name_is_one_object_from_the_package_crc_and_its_module(name):
    value = getattr(crc, name)
    assert getattr(importlib.import_module(value.__module__), name) is value
    if name in qmckay.__all__:
        assert getattr(qmckay, name) is value


def test_dir_lists_every_public_name():
    assert set(qmckay.__all__) <= set(dir(qmckay))


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from qmckay import *", namespace)
    assert {name: namespace[name] for name in qmckay.__all__} == {
        name: getattr(qmckay, name) for name in qmckay.__all__
    }


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'nonexistent'"):
        qmckay.nonexistent  # noqa: B018

