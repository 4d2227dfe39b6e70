"""Every annotation in the package resolves: typing.get_type_hints succeeds on
each function and class a gpi module defines, and on each of their methods."""

import importlib
import inspect
import pkgutil
import typing

import gpi


def defined_names():
    for info in pkgutil.iter_modules(gpi.__path__):
        module = importlib.import_module(f"gpi.{info.name}")
        for name, obj in vars(module).items():
            if not (inspect.isfunction(obj) or inspect.isclass(obj)):
                continue
            if obj.__module__ != module.__name__:
                continue
            yield f"{module.__name__}.{name}", obj
            if inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    if inspect.isfunction(member):
                        yield f"{module.__name__}.{name}.{attr}", member


def test_type_hints_resolve():
    unresolved = {}
    for name, obj in defined_names():
        try:
            typing.get_type_hints(obj)
        except NameError as exc:
            unresolved[name] = str(exc)
    assert unresolved == {}
