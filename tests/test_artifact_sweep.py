"""The artifact sweep tool (``tools/artifact_sweep.py``) and its README
description agree."""

import importlib.util
import re
from pathlib import Path

ROOT = Path(__file__).parents[1]
NUMBER_WORDS = ("zero one two three four five six seven eight nine ten "
                "eleven twelve").split()


def load_sweep():
    spec = importlib.util.spec_from_file_location(
        "artifact_sweep", ROOT / "tools" / "artifact_sweep.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_readme_counts_match_the_tool():
    sweep = load_sweep()
    calls = list(sweep.invocations())
    closed_form = [name for name in sweep.CONFIGS if name != "random"]
    readme = " ".join((ROOT / "README.md").read_text().split())
    found = re.search(r"It runs (\d+) fixed command-line invocations in one "
                      r"process \((\w+) closed-form configs", readme)
    assert found, "README no longer describes the sweep's size"
    assert int(found.group(1)) == len(calls)
    assert NUMBER_WORDS.index(found.group(2)) == len(closed_form)
    # and the tool's own docstring names the same number of configs
    assert f"* {found.group(2)} closed-form configs" in sweep.__doc__
