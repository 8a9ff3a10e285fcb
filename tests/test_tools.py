"""The repository's tools: code_lines.py, same_outputs.py and job_times.py."""

import importlib.util
import json
import shutil
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _tool(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


SOURCE = '''"""A module docstring
over two lines."""

import os  # a trailing comment counts


def f(x):
    """A function docstring."""
    # a comment line does not count
    return os.sep + x
'''


def test_code_lines_counts_only_code():
    # the import, the def and the return
    assert _tool("code_lines").code_lines(SOURCE) == 3


def _example(same_outputs, name):
    return [run for run in same_outputs.example_runs() if run.name == f"examples/{name}"]


def test_same_outputs_finds_an_example_identical_to_itself(tmp_path, capsys):
    same_outputs = _tool("same_outputs")
    runs = _example(same_outputs, "euclidean_weyl_d1.cfg")
    assert same_outputs.compare(ROOT, runs, tmp_path) == 0
    assert capsys.readouterr().out == "examples/euclidean_weyl_d1.cfg  exit 0  identical\n"
    # both runs wrote the curve
    assert [p.name for p in tmp_path.rglob("*.csv")] == ["euclidean_weyl_d1.csv"] * 2


def test_same_outputs_names_the_file_another_tree_writes_differently(tmp_path, capsys):
    # a copy of the checkout whose curves are written with one digit less
    other = tmp_path / "other"
    shutil.copytree(ROOT / "src", other / "src", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(ROOT / "examples", other / "examples")
    weyl = other / "src" / "weylcs" / "weyl.py"
    text = weyl.read_text()
    assert 'fh.write(",".join("%.17g" % v for v in row)' in text
    weyl.write_text(text.replace('",".join("%.17g" % v', '",".join("%.16g" % v'))
    same_outputs = _tool("same_outputs")
    runs = _example(same_outputs, "euclidean_weyl_d1.cfg")
    assert same_outputs.compare(other, runs, tmp_path / "work") == 1
    assert capsys.readouterr().out == ("examples/euclidean_weyl_d1.cfg  exit 0  "
                                       "differs: euclidean_weyl_d1.csv\n")


def test_job_times_prints_medians_of_a_cli_and_a_script_run(tmp_path, capsys, monkeypatch):
    # the benchmark's runs replaced by an example and a small mask-count job
    same_outputs = _tool("same_outputs")  # job_times imports it as a sibling module
    job_times = _tool("job_times")
    (tmp_path / "in.json").write_text(json.dumps({"lambdas": [250.0],
                                                  "points": [[1.0, 2.0, 0.5, 0.5]]}))
    mask = job_times.Run("mask-count", lambda out: [
        "perfbench/mask_count.py", "--input", str(tmp_path / "in.json"),
        "--out", str(out / "m.txt")])
    runs = _example(same_outputs, "euclidean_weyl_d1.cfg") + [mask]
    monkeypatch.setattr(same_outputs, "workload_runs", lambda inputs: runs)
    assert job_times.main(["--repeat", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["run", "wall_s", "import_s", "work_s"]
    names = ["pass", "import numpy", "import numpy, scipy.sparse.linalg",
             "examples/euclidean_weyl_d1.cfg", "mask-count"]
    rows = {line[:-26].strip(): [float(v) for v in line[-26:].split()] for line in lines[1:]}
    assert list(rows) == names
    for name, (wall, imp, work) in rows.items():
        assert 0.0 <= imp and 0.0 <= work and imp + work <= wall, name
    assert rows["pass"][1:] == [0.0, 0.0]  # at three decimals
    assert rows["import numpy"][2] == 0.0 < rows["import numpy"][1]
    assert rows["mask-count"][2] > 0.0  # the counts ran, after the import


def test_job_times_command_line_rejects_no_repetition(capsys):
    _tool("same_outputs")
    with pytest.raises(SystemExit):
        _tool("job_times").main(["--repeat", "0"])
    assert "--repeat must be at least 1" in capsys.readouterr().err
