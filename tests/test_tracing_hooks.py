"""The benchmark's traced run (perfbench/tracing.py) wraps library
functions by module and name; every name it binds must exist."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("module_name, attr",
                         [(m, a) for m, a, _ in load_tracing().SPANS])
def test_traced_name_resolves(module_name, attr):
    module = importlib.import_module(f"modalreg.{module_name}")
    assert callable(getattr(module, attr, None)), f"modalreg.{module_name}.{attr}"


def test_patched_class_and_counter_targets_resolve():
    from modalreg import sylvester
    from modalreg.exosystem import ExoState

    assert callable(sylvester.quadrature_pi_column)
    assert callable(ExoState.to_csv)
