"""Name gate for the benchmark tracer: every stratsys name that
``benchmark/tracer.py`` wraps must exist, so that a rename or a deletion in
the package fails here instead of in a traced benchmark run.  The tracer is
loaded by path and never installed."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parent.parent / "benchmark" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("stratsys_benchmark_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACER = _load_tracer()


def _stratsys(module: str):
    return importlib.import_module(f"stratsys.{module}")


@pytest.mark.parametrize("module, attr", sorted({*TRACER.SPANS, *TRACER.COUNTED}),
                         ids=lambda part: part)
def test_every_wrapped_function_exists(module, attr):
    # ``install`` rebinds plain functions only, so anything else would go unwrapped
    assert inspect.isfunction(getattr(_stratsys(module), attr, None))


@pytest.mark.parametrize("module, cls, method", sorted(TRACER.COUNTED_METHODS),
                         ids=lambda part: part)
def test_every_counted_method_exists(module, cls, method):
    # a method may be wrapped by a decorator (``functools.cache``)
    assert callable(getattr(getattr(_stratsys(module), cls, None), method, None))


@pytest.mark.parametrize("module", TRACER.SEARCH_MODULES)
def test_every_search_module_exists(module):
    assert _stratsys(module).__name__ == f"stratsys.{module}"
