"""The benchmark tracer's function names resolve in cktlab.

`perfbench/tracing.py` wraps functions by name; a renamed function or a
dropped `lru_cache` would otherwise surface only in a traced benchmark run.
The tracer module is read, not changed.
"""

import importlib
import importlib.util
import pathlib

import pytest

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _tracing()


def resolve(name):
    module, function = name.split(".")
    return getattr(importlib.import_module(f"cktlab.{module}"), function, None)


@pytest.mark.parametrize("name", tracing.FUNCTIONS)
def test_traced_function_exists(name):
    assert callable(resolve(name)), f"{name} is traced but not defined in cktlab"


@pytest.mark.parametrize("name", tracing.CACHED)
def test_cached_function_keeps_its_cache(name):
    assert name in tracing.FUNCTIONS
    assert hasattr(resolve(name), "cache_info"), f"{name} lost its lru_cache"
