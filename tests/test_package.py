"""The package's public names: each loads its home module on first access."""

import ast
import dataclasses
import importlib
import pkgutil
from array import array
from pathlib import Path

import pytest

import autopatch
from autopatch import bitstream, circuit, machine

ROOT = Path(__file__).resolve().parent.parent


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
    assert sorted(f"{cls.__module__.removeprefix('autopatch.')}.{cls.__name__}" for cls in errors) == [
        "bitstream.FormatError", "bitstream.RangeError", "bitstream.SpecMismatchError", "bitstream.ValidationError",
        "circuit.DegreeError", "dsl.LexError", "dsl.ParseError", "dsl.SourceError", "dsl.ValidateError",
        "machine.LoopError", "router.CapacityError", "sim.NonFiniteError", "sim.UnroutedTapError",
    ]
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


#: methods that a framework calls, so no autopatch source names them
FRAMEWORK_HOOKS = {"cli._ArgumentParser.error"}  # argparse reports a usage error through it


def _definitions(scope, prefix=""):
    """(qualified name, node) of every function or class in `scope`'s body,
    and of every method of those classes."""
    for node in scope.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield prefix + node.name, node
            if isinstance(node, ast.ClassDef):
                yield from _definitions(node, f"{prefix}{node.name}.")


def test_every_definition_has_a_caller_outside_the_tests():
    """No function, class or method under src/ exists only for the tests:
    each is named in src/, scripts/ or perfbench/ outside its own body.
    Dunders, the package's public names and framework hooks are exempt."""
    uses = {}  # name -> [(path, line)]
    trees = {}
    for path in sorted(p for top in ("src", "scripts", "perfbench") for p in (ROOT / top).rglob("*.py")):
        tree = trees[path] = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            name = node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute) else None
            if isinstance(node, ast.alias):
                name = node.name.rpartition(".")[2]
            if name is not None:
                uses.setdefault(name, []).append((path, node.lineno))
    exempt = FRAMEWORK_HOOKS | {f"{module}.{name}" for module, name in autopatch._EXPORTS.values()}
    unreached = []
    for path in sorted((ROOT / "src" / "autopatch").glob("*.py")):
        for qualified, node in _definitions(trees[path], f"{path.stem}."):
            name = node.name
            if name.startswith("__") and name.endswith("__") or qualified in exempt:
                continue
            if not any(at != path or not node.lineno <= line <= node.end_lineno for at, line in uses.get(name, ())):
                unreached.append(qualified)
    assert unreached == []
