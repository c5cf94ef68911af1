"""The pair comparison tool (``tools/bench_pairs.py``) on synthetic
benchmark result lines; no benchmark is started."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).parents[1]
BOUND = 0.25


def load_pairs():
    spec = importlib.util.spec_from_file_location(
        "bench_pairs", ROOT / "tools" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def result_line(**values) -> str:
    return json.dumps({"correct": True, "attempted": 4, "failed": 0,
                       "metrics": {k: {"value": v, "unit": "s"}
                                   for k, v in values.items()}})


def test_the_last_line_is_the_result():
    stdout = "a table line\n" + result_line(check_s=0.5) + "\n"
    result = load_pairs().parse_result(stdout)
    assert result["metrics"]["check_s"]["value"] == 0.5


@pytest.mark.parametrize("parent, change, word", [
    # 9 of 10 won, medians 0.2 apart against a quartile spread of 0.045
    ([1.0, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.0, 1.04, 0.96],
     [0.8, 0.82, 0.78, 0.81, 0.79, 0.83, 0.77, 0.8, 0.84, 1.1], "better"),
    # the same gain in 5 of 5 pairs: too few pairs to claim it
    ([1.0, 1.02, 0.98, 1.01, 0.99], [0.8, 0.82, 0.78, 0.81, 0.79],
     "no worse"),
    # every pair won, but by less than the parent's quartile spread
    ([1.0, 1.2, 0.8, 1.1, 0.9], [0.99, 1.19, 0.79, 1.09, 0.89], "no worse"),
    # 30 % worse against a 25 % bound
    ([1.0, 1.0, 1.0, 1.0, 1.0], [1.3, 1.3, 1.3, 1.3, 1.3], "worse"),
    # spread 0.5 of the median, wider than the bound
    ([1.0, 0.5, 1.5, 0.7, 1.3], [1.1, 0.6, 1.4, 0.8, 1.2], "unresolved"),
    # wider, gain 0.13 within the spread of 1.95, but every change run
    # is better than every parent run
    ([1.0, 1.05, 1.1, 3.0, 5.0], [0.99, 0.98, 0.97, 0.96, 0.95], "no worse"),
])
def test_verdicts(parent, change, word):
    assert load_pairs().compare(parent, change, BOUND, True)[-1] == word


def test_higher_is_better_mirrors_lower():
    pairs = load_pairs()
    parent, change = [1.0] * 10, [1.5] * 10
    assert pairs.compare(parent, change, BOUND, False)[-1] == "better"
    assert pairs.compare(parent, change, BOUND, True)[-1] == "worse"


@pytest.mark.parametrize("change, word", [(43.9, "no worse"),
                                          (44.1, "worse")])
def test_the_bound_is_a_share_of_the_median(change, word):
    """peak_rss_mb's bound of 0.1 allows 4 MB at a median of 40 MB."""
    assert load_pairs().compare([40.0] * 10, [change] * 10, 0.1,
                                True)[-1] == word


def test_ties_count_for_neither():
    _, _, rel, width, wins, _ = load_pairs().compare(
        [1.0, 2.0, 3.0, 4.0], [1.0, 1.5, 3.0, 5.0], BOUND, True)
    assert wins == 1
    assert width == pytest.approx(1.5)
    assert rel == pytest.approx(2.25 / 2.5 - 1.0)


def test_runs_alternate_and_rows_follow_the_benchmark(tmp_path, monkeypatch,
                                                      capsys):
    pairs = load_pairs()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bench["end_to_end"] = [m for m in bench["end_to_end"]
                           if m["name"] in ("check_s", "peak_rss_mb")]
    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
        (tmp_path / side / "BENCHMARK.json").write_text(json.dumps(bench))
    calls = []

    def fake_run(checkout, workload, seed, seconds):
        calls.append((checkout.name, seed))
        value = 1.0 if checkout.name == "parent" else 0.5
        return json.loads(result_line(check_s=value, peak_rss_mb=40.0))

    monkeypatch.setattr(pairs, "run_side", fake_run)
    code = pairs.main([str(tmp_path / "parent"), str(tmp_path / "change"),
                       "--workload", "wave-resonant", "--pairs", "10",
                       "--seconds", "1"])
    assert code == 0
    assert [side for side, _ in calls] == [
        "parent", "change", "change", "parent"] * 5
    assert [seed for _, seed in calls] == [s for s in range(41, 51)
                                           for _ in "pc"]
    out = capsys.readouterr().out.splitlines()
    assert out[2].split()[0] == "check_s" and out[2].endswith("better")
    assert out[3].split()[0] == "peak_rss_mb" and out[3].endswith("no worse")
    assert out[0].endswith("seeds=41...50")
    assert out[4] == "parent: 0 of 10 runs incorrect, 0/40 failed"
