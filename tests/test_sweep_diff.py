"""The sweep comparison tool (``tools/sweep_diff.py``) on two small
synthetic sweeps."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).parents[1]


def load_diff():
    spec = importlib.util.spec_from_file_location(
        "sweep_diff", ROOT / "tools" / "sweep_diff.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def make_sweep(root: Path, runs: dict) -> Path:
    """A sweep directory with ``runs``: key -> (exit code, {name: text})."""
    for key, (code, files) in runs.items():
        run = root / "runs" / key
        run.mkdir(parents=True)
        (run / "exit_code.txt").write_text(f"{code}\n")
        for name, text in files.items():
            (run / name).write_text(text)
    codes = {key: code for key, (code, _) in runs.items()}
    (root / "codes.json").write_text(json.dumps(codes))
    return root


TABLE = "t,a,b,label\n1,2.0,-4.0,x\n2,0.5,8.0,y\n3,0.25,0,z\n"
REPORT = "Assumption 1: PASS\n  slope = -1.25\nnorm = 3.0\n"


def test_identical_sweeps(tmp_path, capsys):
    runs = {"s000-check": (0, {"report.txt": REPORT, "table.csv": TABLE})}
    a = make_sweep(tmp_path / "a", runs)
    b = make_sweep(tmp_path / "b", runs)
    assert load_diff().main([str(a), str(b)]) == 0
    assert capsys.readouterr().out == (
        "1 invocations, 0 differ: 0 exit codes changed, 0 files added, "
        "0 removed, 0 changed\n")


def test_every_kind_of_difference(tmp_path, capsys):
    a = make_sweep(tmp_path / "a", {
        "s000-check": (0, {"report.txt": REPORT, "table.csv": TABLE}),
        "s000-solve": (0, {"stdout.txt": "ok\n", "Pi.csv": TABLE}),
        "s001-decay": (1, {"stdout.txt": "same\n"}),
    })
    b = make_sweep(tmp_path / "b", {
        "s000-check": (0, {
            "report.txt": REPORT.replace("-1.25", "-1.2500000000000002")
                                .replace("PASS", "FAIL"),
            "table.csv": TABLE.replace("8.0", "8.5").replace(",y", ",w")
                              .replace("-4.0", "-4.000000000000001")}),
        "s000-solve": (1, {"stdout.txt": "ok\n", "run.json": "{}\n"}),
        "s001-decay": (1, {"stdout.txt": "same\n"}),
    })
    assert load_diff().main([str(a), str(b)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "s000-check",
        "  report.txt: 2 lines changed, 1 beyond their numbers",
        "  table.csv b: 2 rows changed, max |d| / max |column| = 0.062, "
        "max |d| / |a| = 0.062",
        "  table.csv label: 1 rows changed, max |d| / max |column| = n/a",
        "s000-solve",
        "  exit 0 -> 1",
        "  + run.json",
        "  - Pi.csv",
        "3 invocations, 2 differ: 1 exit codes changed, 1 files added, "
        "1 removed, 2 changed",
    ]


def test_row_count_and_zero_column(tmp_path, capsys):
    table = "t,v\n1,0\n2,0\n"
    a = make_sweep(tmp_path / "a", {"k": (0, {"x.csv": table})})
    b = make_sweep(tmp_path / "b", {"k": (0, {"x.csv": table.replace(
        "2,0\n", "2,1e-300\n3,0\n")})})
    assert load_diff().main([str(a), str(b)]) == 1
    assert capsys.readouterr().out.splitlines()[1:3] == [
        "  x.csv: rows 2 -> 3",
        "  x.csv v: 1 rows changed, max |d| / max |column| = 1e-300, "
        "max |d| / |a| = n/a",
    ]


def test_relative_change_of_a_small_entry(tmp_path, capsys):
    """A tail column spanning twelve decades: the last-bit change of its
    smallest entry is 2.6e-28 of the column maximum, 1.3e-15 of itself;
    the entry that was 0 counts only towards the first ratio."""
    table = "h,tail\n10,7.75\n20,3e-5\n40,1.5e-12\n80,0\n"
    a = make_sweep(tmp_path / "a", {"k": (0, {"x.csv": table})})
    b = make_sweep(tmp_path / "b", {"k": (0, {"x.csv": table.replace(
        "1.5e-12", "1.5000000000000021e-12").replace("80,0", "80,1e-40")})})
    assert load_diff().main([str(a), str(b)]) == 1
    assert capsys.readouterr().out.splitlines()[1] == (
        "  x.csv tail: 2 rows changed, max |d| / max |column| = 2.6e-28, "
        "max |d| / |a| = 1.3e-15")
