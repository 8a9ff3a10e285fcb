"""The repository's tools: code_lines.py and same_outputs.py."""

import importlib.util
import shutil
import sys
from pathlib import Path

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
