"""The benchmark harness wraps crdi functions by module and name: every name it
lists must still be bound, or a rename shows up only as an aborted workload."""
import importlib
import importlib.util
import types
from pathlib import Path

import pytest

_TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _tracing()


@pytest.mark.parametrize("module_name, attr", [(m, a) for m, a, _ in tracing.TRACED])
def test_traced_function_is_bound(module_name, attr):
    assert isinstance(getattr(importlib.import_module(module_name), attr, None),
                      types.FunctionType)


@pytest.mark.parametrize("attr", sorted(tracing.STAGES))
def test_stage_is_bound_where_run_experiment_calls_it(attr):
    module = importlib.import_module(tracing.STAGE_MODULE)
    assert isinstance(getattr(module, attr, None), types.FunctionType)
