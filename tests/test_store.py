"""The stores of pinned numbers under tests/pins/ (``store``, ``regen``).

Each store reads back as it was written, regen writes every one, a test
module reads each, and every oracle point is one that a module reads.
"""

import importlib
import inspect

import pytest

import regen
import store
from oracles import g_mpmath


def _names():
    return {path.name.removesuffix(".txt") for path in store.PINS.iterdir()}


def test_every_store_reserialises_byte_for_byte():
    for name in _names():
        if (store.PINS / name).is_dir():
            assert {f"{key}.txt" for key in store.load(name)} == {
                path.name for path in (store.PINS / name).iterdir()}, name
        else:
            text = (store.PINS / f"{name}.txt").read_text()
            assert store.dumps(store.load(name)) == text, name


def test_every_store_is_written_by_regen_and_read_by_its_module():
    assert _names() == {*regen.STORES, "oracle"}
    for name, module in regen.STORES.items():
        module = importlib.import_module(module)
        assert f'store.load("{name}")' in inspect.getsource(module) and module.pins, name


def test_every_oracle_point_is_read_by_a_test_module():
    assert set(store.load("oracle")) == regen.oracle_points()


def test_a_missing_oracle_point_names_its_regeneration():
    with pytest.raises(LookupError, match="python tests/regen.py oracle"):
        store.oracle(0.123, 0.5, 0.5, False)


def test_a_live_oracle_integral_fails_the_test():
    with pytest.raises(pytest.fail.Exception, match="live 30-digit integral"):
        g_mpmath(0.5, 0.5, 0.5)
