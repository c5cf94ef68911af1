"""The benchmark's traced run (perfbench/tracing.py) wraps library
functions by module and name; every name it binds must exist."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
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


TRACED_RUN = """
import importlib.util, json, sys
spec = importlib.util.spec_from_file_location("perfbench_tracing", sys.argv[1])
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
tracer = tracing.Tracer()
tracing.install(tracer)
from modalreg.cli import main
for command in ("solve", "simulate"):
    assert main([command, "--config", sys.argv[2],
                 "--out", f"{sys.argv[3]}/{command}"]) == 0
print(json.dumps(dict(tracer.counts)))
"""


def test_traced_write_counters_match_the_files(tmp_path):
    """Under the traced run, the write counters equal the data rows and
    the sizes of the artifacts actually written."""
    config = tmp_path / "run.ini"
    config.write_text("[scenario]\nkind = diagonal\nn_plant = 30\nn_exo = 20\n"
                      "gamma = 2.0\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", TRACED_RUN, str(TRACING),
                           str(config), str(tmp_path / "out")],
                          env=env, capture_output=True, text=True, check=True)
    counts = json.loads(proc.stdout.splitlines()[-1])
    files = sorted((tmp_path / "out").glob("*/*"))
    csvs = [f for f in files if f.suffix == ".csv"]
    assert {f.name for f in csvs} == {"L.csv", "Pi.csv", "trajectory.csv", "w0.csv"}
    assert counts["cli.rows_written"] == sum(
        len(f.read_text().splitlines()) - 1 for f in csvs)
    assert counts["cli.bytes_written"] == sum(f.stat().st_size for f in files)
