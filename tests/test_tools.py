"""The repository's tools: code_lines.py, same_outputs.py and job_times.py;
the rule that every name of the package has a reader outside the tests; and
the package namespace, which holds its modules and __version__ only."""

import ast
import importlib.util
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import subprocess_env

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


def test_code_lines_refuses_a_path_that_holds_no_module(tmp_path, capsys):
    # a misspelt directory, a module file and an empty directory once printed
    # "0  total" and exited 0
    code_lines = _tool("code_lines")
    for path in (ROOT / "src" / "weylc", ROOT / "src" / "weylcs" / "cli.py", tmp_path):
        assert code_lines.main(["code_lines.py", str(path)]) == 2
        assert capsys.readouterr() == ("", f"code_lines.py: {path} is not a directory "
                                           "with *.py files\n")
    assert code_lines.main(["code_lines.py", str(ROOT / "tools")]) == 0
    assert capsys.readouterr().out.endswith("  total\n")


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
    # a copy of the checkout whose curves are written with one digit less,
    # and whose weyl module writes a note to stderr
    other = tmp_path / "other"
    shutil.copytree(ROOT / "src", other / "src", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(ROOT / "examples", other / "examples")
    weyl = other / "src" / "weylcs" / "weyl.py"
    text = weyl.read_text()
    assert 'fh.write(",".join("%.17g" % v for v in row)' in text
    weyl.write_text(text.replace('",".join("%.17g" % v', '",".join("%.16g" % v')
                    + '\nimport sys\nsys.stderr.write("a note\\n")\n')
    same_outputs = _tool("same_outputs")
    runs = _example(same_outputs, "euclidean_weyl_d1.cfg")
    assert same_outputs.compare(other, runs, tmp_path / "work") == 1
    # the first line that differs, its number and both texts: the same row
    # written with 17 and with 16 digits
    this, theirs = (tmp_path / "work" / tree / "0" / "euclidean_weyl_d1.csv"
                    for tree in ("this", "other"))
    line, mine, other_line = next((i, a, b) for i, (a, b) in enumerate(
        zip(this.read_text().splitlines(), theirs.read_text().splitlines()), 1) if a != b)
    assert other_line == ",".join("%.16g" % float(v) for v in mine.split(","))
    assert capsys.readouterr().out == (
        "examples/euclidean_weyl_d1.cfg  exit 0  differs: stderr, euclidean_weyl_d1.csv\n"
        "  stderr line 1: this None, other 'a note'\n"
        f"  euclidean_weyl_d1.csv line {line}: this {mine!r}, other {other_line!r}\n")


def test_same_outputs_runs_a_count_that_brackets_lambda(tmp_path):
    # lam_max is eigenvalue k = 25 of the interval at h = 0.02 (closed form)
    # and of the hyperbolic unit square at h = 0.02 (Sturm counts and
    # multisection): the gate fails there, and the bracket moves the shift
    # below it and warns
    same_outputs = _tool("same_outputs")
    for run, shift in zip(same_outputs.BRACKET_RUNS, ["4999.99", "603.96786440"]):
        code, _, stderr, files = same_outputs.outcome(ROOT, run, tmp_path / run.name)
        assert code == 0 and list(files) == ["spectrum.txt"]
        assert stderr.decode().startswith(f"warning: count_below: shift perturbed to {shift}")
        values = [line for line in files["spectrum.txt"].decode().splitlines()
                  if not line.startswith("#")]
        assert len(values) == 24


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
    assert lines[0].split() == ["run", "wall_s", "wall_q1", "wall_q3", "import_s", "import_q1",
                                "import_q3", "work_s", "work_q1", "work_q3"]
    names = ["pass", "import numpy", "import numpy, scipy.sparse.linalg",
             "examples/euclidean_weyl_d1.cfg", "mask-count"]
    rows = {}
    for line in lines[1:]:
        name, *values = line.rsplit(None, 9)
        rows[name] = [float(v) for v in values]
    assert list(rows) == names
    for name, values in rows.items():
        # one repetition: both quartiles are the one sample, the median
        wall, imp, work = values[::3]
        assert values == [t for t in (wall, imp, work) for _ in range(3)], name
        assert 0.0 <= imp and 0.0 <= work and imp + work <= wall, name
    assert rows["pass"][3:] == [0.0] * 6  # at three decimals
    assert rows["import numpy"][6] == 0.0 < rows["import numpy"][3]
    assert rows["mask-count"][6] > 0.0  # the counts ran, after the import


def test_job_times_quartiles_interpolate_between_the_sorted_samples():
    _tool("same_outputs")
    quartiles = _tool("job_times").quartiles
    assert quartiles([5.0, 1.0, 4.0, 2.0, 3.0]) == (3.0, 2.0, 4.0)
    assert quartiles([4.0, 1.0]) == (2.5, 1.75, 3.25)
    assert quartiles([0.5]) == (0.5, 0.5, 0.5)


def test_job_times_command_line_rejects_no_repetition(capsys):
    _tool("same_outputs")
    with pytest.raises(SystemExit):
        _tool("job_times").main(["--repeat", "0"])
    assert "--repeat must be at least 1" in capsys.readouterr().err


# names kept without a reader: the documented file formats and criterion 1's
# oracles
KEPT_WITHOUT_READER = {"save_mask", "load_mask", "export_matrix", "load_spectrum",
                       "save_phase", "load_phase", "forward", "adjoint"}


def _definitions(tree):
    """The functions and classes a module defines, at module level or in a
    class body, and its module-level assigned names."""
    names = []

    def visit(body, top):
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names.append(node.name)
                if isinstance(node, ast.ClassDef):
                    visit(node.body, False)
            elif top and isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names.extend(n.id for t in targets for n in ast.walk(t)
                             if isinstance(n, ast.Name))

    visit(tree.body, True)
    return names


def _readers(path, outside):
    """The names a module reads: the names it imports from the package and
    the attributes it reads; in the package its bare names too, and outside
    it every identifier in its string literals (the span table of
    perfbench/tracing.py names functions so).  A name a module outside the
    package binds itself, as a def, a parameter or a local, is no reader."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) \
                and (node.level or node.module.split(".")[0] == "weylcs"):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            found.add(node.attr)
        elif not outside and isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif outside and isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.update(re.findall(r"[A-Za-z_]\w*", node.value))
    return found


def test_every_package_name_has_a_reader_outside_the_tests():
    modules = [p for p in sorted((ROOT / "src" / "weylcs").glob("*.py"))
               if p.name != "__init__.py"]
    readers = set().union(*[_readers(p, outside=False) for p in modules])
    for tree in ("perfbench", "tools"):
        for path in sorted((ROOT / tree).glob("*.py")):
            readers |= _readers(path, outside=True)
    # a class's __init__ is read by calling the class; no other dunder is exempt
    unread = [f"{p.name}: {name}" for p in modules
              for name in _definitions(ast.parse(p.read_text(encoding="utf-8")))
              if name not in readers and name not in KEPT_WITHOUT_READER and name != "__init__"]
    assert unread == []


def _fresh(code):
    """The JSON a fresh interpreter prints after running code on this checkout."""
    run = subprocess.run([sys.executable, "-c", code], env=subprocess_env(),
                         capture_output=True, text=True, check=True)
    return json.loads(run.stdout)


WEYLCS_MODULES = """
import json, sys
def weylcs_modules():
    return sorted(m for m in sys.modules if m.startswith("weylcs."))
"""


def test_the_package_binds_only_its_version():
    # every public name has one import path, weylcs.<module>.<name>
    tree = ast.parse((ROOT / "src" / "weylcs" / "__init__.py").read_text(encoding="utf-8"))
    assert ast.get_docstring(tree)
    body = tree.body[1:]
    assert [type(node) for node in body] == [ast.Assign]
    assert [ast.unparse(t) for t in body[0].targets] == ["__version__"]


def test_import_weylcs_loads_no_module_and_finds_each_on_demand():
    bare, named = _fresh(WEYLCS_MODULES + """
import weylcs
bare = weylcs_modules()
from weylcs import domains, eigen, frames, operators, windows
named = [m.__name__ for m in (domains, eigen, frames, operators, windows)]
print(json.dumps([bare, named]))
""")
    assert bare == []
    assert named == ["weylcs.domains", "weylcs.eigen", "weylcs.frames", "weylcs.operators",
                     "weylcs.windows"]


def test_import_weylcs_cli_loads_every_module():
    # perfbench/tracing.py looks each one up in sys.modules after this import
    loaded = _fresh(WEYLCS_MODULES + "import weylcs.cli\nprint(json.dumps(weylcs_modules()))")
    assert loaded == ["weylcs." + m for m in ("cli", "domains", "eigen", "frames", "operators",
                                              "weyl", "windows")]
