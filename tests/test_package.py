"""The package's public names: each loads its home module on first access."""

import dataclasses
import importlib
import pkgutil
from array import array

import pytest

import autopatch
from autopatch import bitstream, circuit, machine


@pytest.mark.parametrize("name", [name for name in autopatch.__all__ if name != "__version__"])
def test_export_is_its_home_attribute(name):
    value = getattr(autopatch, name)
    home = importlib.import_module(value.__module__)
    assert home.__name__.startswith("autopatch.")
    assert getattr(home, value.__name__) is value
    assert vars(autopatch)[name] is value


def test_decode_names():
    assert autopatch.decode is machine.decode
    assert autopatch.decode_image is bitstream.decode


def test_row_vocabulary_lives_in_machine():
    assert machine.NodeKind.__module__ == machine.Port.__module__ == "autopatch.machine"
    assert circuit.NodeKind is machine.NodeKind
    assert circuit.Port is machine.Port


def test_dependency_order_lives_in_machine():
    assert machine.LoopError.__module__ == machine.dependency_order.__module__ == "autopatch.machine"
    assert circuit.LoopError is machine.LoopError
    assert circuit.dependency_order is machine.dependency_order


def test_only_machine_records_are_dataclasses():
    """Every other record is a NamedTuple or a plain `__slots__` class: a
    dataclass costs its module generated code, run with `exec`, per class
    at import."""
    found = set()
    for info in pkgutil.iter_modules(autopatch.__path__):
        module = importlib.import_module(f"autopatch.{info.name}")
        found |= {
            f"{module.__name__}.{name}"
            for name, value in vars(module).items()
            if isinstance(value, type) and value.__module__ == module.__name__ and dataclasses.is_dataclass(value)
        }
    assert found == {"autopatch.machine.MachineSpec", "autopatch.machine.CoefficientCode", "autopatch.machine.MachineConfig"}


def _module_classes():
    """Every class that an autopatch module defines."""
    for info in pkgutil.iter_modules(autopatch.__path__):
        module = importlib.import_module(f"autopatch.{info.name}")
        yield from (value for value in vars(module).values() if isinstance(value, type) and value.__module__ == module.__name__)


def test_every_error_class_is_a_value_error():
    """`cli.main` turns a `ValueError` into one diagnostic line, so every
    error an autopatch layer raises is one by type."""
    errors = [cls for cls in _module_classes() if issubclass(cls, Exception) and not issubclass(cls, Warning)]
    assert len(errors) >= 14
    assert [cls for cls in errors if not issubclass(cls, ValueError)] == []


def test_models_and_traces_are_values():
    from autopatch import sim

    model = sim.Model((), (), (), {}, None)
    trace = sim.Trace(array("d"), {}, [], {})
    for record, field in ((model, "taps"), (trace, "peaks")):
        with pytest.raises(AttributeError):
            setattr(record, field, {})
    assert [cls for cls in _module_classes() if "__hash__" in vars(cls) and cls.__hash__ is None] == []


def test_version_is_eager():
    assert "__version__" in vars(autopatch)
    assert autopatch.__version__ == "0.1.0"


def test_unknown_attribute():
    with pytest.raises(AttributeError, match="module 'autopatch' has no attribute 'no_such_name'"):
        autopatch.no_such_name


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from autopatch import *", namespace)
    for name in autopatch.__all__:
        assert namespace[name] is getattr(autopatch, name)
