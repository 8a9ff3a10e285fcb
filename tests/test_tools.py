"""The repository's tools: code_lines.py, and same_outputs.py, which starts
every run through one timed launcher and times both trees in alternating
pairs; the rule that every name of the package has a reader outside the
tests; the package namespace, which holds its modules and __version__ only;
and the README's library example."""

import ast
import importlib.util
import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import subprocess_env
from weylcs.weyl import CURVE_HEADER, euclidean_leading

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


CLOCKS = r"wall (\S+) \[(\S+), (\S+)\]  import (\S+) \[(\S+), (\S+)\]  work (\S+) \[(\S+), (\S+)\]"


def _times(lines, repeat):
    """Check the three lines that close a run's report: each tree's median
    and quartiles of wall, import and work, in order, and the pairs each tree
    won on wall."""
    for line, tree in zip(lines, ("this ", "other")):
        values = [float(v) for v in re.fullmatch(f"  {tree}  {CLOCKS}", line).groups()]
        for m, q1, q3 in zip(values[::3], values[1::3], values[2::3]):
            assert 0.0 <= q1 <= m <= q3, line
    this, other = map(int, re.fullmatch(
        f"  wall wins of {repeat} pairs: this (\\d+), other (\\d+)", lines[2]).groups())
    assert this + other <= repeat


def test_same_outputs_finds_an_example_identical_to_itself(tmp_path, capsys):
    same_outputs = _tool("same_outputs")
    runs = _example(same_outputs, "euclidean_weyl_d1.cfg")
    assert same_outputs.compare(ROOT, runs, tmp_path, repeat=2) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "examples/euclidean_weyl_d1.cfg  exit 0  identical"
    _times(lines[1:], 2)
    assert len(lines) == 4
    # each of the two pairs' starts wrote the curve
    assert [p.name for p in tmp_path.rglob("*.csv")] == ["euclidean_weyl_d1.csv"] * 4


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
    this, theirs = (tmp_path / "work" / tree / "0" / "0" / "euclidean_weyl_d1.csv"
                    for tree in ("this", "other"))
    line, mine, other_line = next((i, a, b) for i, (a, b) in enumerate(
        zip(this.read_text().splitlines(), theirs.read_text().splitlines()), 1) if a != b)
    assert other_line == ",".join("%.16g" % float(v) for v in mine.split(","))
    lines = capsys.readouterr().out.splitlines()
    assert lines[:3] == [
        "examples/euclidean_weyl_d1.cfg  exit 0  differs: stderr, euclidean_weyl_d1.csv",
        "  stderr line 1: this None, other 'a note'",
        f"  euclidean_weyl_d1.csv line {line}: this {mine!r}, other {other_line!r}"]
    _times(lines[3:], 1)
    assert len(lines) == 6


def test_same_outputs_runs_a_count_that_brackets_lambda(tmp_path):
    # lam_max is eigenvalue k = 25 of the interval at h = 0.02 (closed form)
    # and of the hyperbolic unit square at h = 0.02 (Sturm counts and
    # multisection), and 576 the triple eigenvalue of the plus mask (sparse
    # LDL^T): the gate fails there, and the bracket moves the shift below it
    # and warns
    same_outputs = _tool("same_outputs")
    for run, shift in zip(same_outputs.BRACKET_RUNS, ["4999.99", "603.96786440"]):
        code, _, stderr, files, _ = same_outputs.outcome(ROOT, run, tmp_path / run.name)
        assert code == 0 and list(files) == ["spectrum.txt"]
        assert stderr.decode().startswith(f"warning: count_below: shift perturbed to {shift}")
        values = [line for line in files["spectrum.txt"].decode().splitlines()
                  if not line.startswith("#")]
        assert len(values) == 24
    run = same_outputs.SPARSE_BRACKET_RUN
    code, stdout, stderr, files, _ = same_outputs.outcome(ROOT, run, tmp_path / "sparse")
    assert (code, stderr, files) == (0, b"", {})
    cert, warning = stdout.decode().splitlines()
    assert cert.startswith("Certificate(count_method='sparse-ldl', count=1, shift=575.99")
    assert "bracketed=True" in cert
    assert warning.startswith("count_below: shift perturbed to 575.99")
    assert warning.endswith("(lambda too close to an eigenvalue)")


def test_same_outputs_runs_a_sparse_spectrum_cut_at_an_eigenvalue(tmp_path):
    # the first cut of the two-block mask's span lands on an eigenvalue; the
    # cut takes the bracket's lower end and does not warn
    same_outputs = _tool("same_outputs")
    run = same_outputs.SPARSE_CUT_RUN
    code, stdout, stderr, files, _ = same_outputs.outcome(ROOT, run, tmp_path / "cut")
    assert (code, stderr, files) == (0, b"", {})
    assert stdout.decode() == "630 630 True\n"


def test_same_outputs_runs_a_whole_spectrum_record(tmp_path):
    # the 49 values of dense_spectrum on the h = 1/8 hyperbolic square: the
    # file's cutoff is inf, it holds no kind or h line, and it reads back whole
    same_outputs = _tool("same_outputs")
    run = same_outputs.WHOLE_SPECTRUM_RUN
    code, stdout, stderr, files, _ = same_outputs.outcome(ROOT, run, tmp_path / "whole")
    assert (code, stdout, stderr, list(files)) == (0, b"inf 49\n", b"", ["spectrum.txt"])
    lines = files["spectrum.txt"].decode().splitlines()
    assert lines[:3] == ["# weylcs spectrum v1", "# cutoff=inf", "# certified=true"]
    assert len(lines) == 3 + 49


def test_same_outputs_runs_the_library_file_formats(tmp_path):
    # the two matrices list their entries sorted by row then column, and the
    # adjoint inverts the forward transform it was saved from
    same_outputs = _tool("same_outputs")
    run = same_outputs.FORMATS_RUN
    code, stdout, stderr, files, _ = same_outputs.outcome(ROOT, run, tmp_path / "formats")
    assert (code, stderr) == (0, b"")
    assert sorted(files) == ["adjoint.npy", "dilated.txt", "disk.txt", "eroded.mask",
                             "phase.bin"]
    assert float(stdout) < 1e-12
    for name in ("disk.txt", "dilated.txt"):
        lines = files[name].decode().splitlines()
        assert lines[0] == "# weylcs matrix v1" and lines[1].startswith("# kind=hyperbolic")
        entries = [tuple(map(int, line.split()[:2])) for line in lines[2:]]
        assert entries and entries == sorted(set(entries))


def test_same_outputs_runs_a_euclidean_discrete_curve(tmp_path):
    # source=discrete with the euclidean operator: the curve whose volume is
    # weighted_volume("euclidean", op.grid), 1 on the unit square
    same_outputs = _tool("same_outputs")
    run = same_outputs.DISCRETE_CURVE_RUN
    code, stdout, stderr, files, _ = same_outputs.outcome(ROOT, run, tmp_path / "curve")
    assert (code, stderr, list(files)) == (0, b"", ["curve.csv"])
    assert stdout.startswith(b"remainder_fit slope=")
    lines = files["curve.csv"].decode().splitlines()
    assert {"# kind=euclidean", "# source=discrete", "# h=0.014285714285714285"} <= set(lines)
    rows = [[float(v) for v in line.split(",")]
            for line in lines[lines.index(CURVE_HEADER) + 1:]]
    assert (len(rows), rows[0][0], rows[-1][0]) == (40, 20.0, 2000.0)
    assert [row[2] for row in rows] == [euclidean_leading(1.0, 2, row[0]) for row in rows]


def test_same_outputs_runs_an_exact_curve_of_a_3d_box(tmp_path):
    # source=exact on a box with offset lower ends: the closed-form spectrum
    # of exact_spectrum_box, whose volume 1 * 2 * 3 sets the leading term
    same_outputs = _tool("same_outputs")
    run = same_outputs.EXACT_CURVE_RUN
    code, stdout, stderr, files, _ = same_outputs.outcome(ROOT, run, tmp_path / "curve")
    assert (code, stderr, list(files)) == (0, b"", ["curve.csv"])
    assert stdout.startswith(b"remainder_fit slope=")
    lines = files["curve.csv"].decode().splitlines()
    assert {"# kind=euclidean", "# source=exact", "# dim=3"} <= set(lines)
    rows = [[float(v) for v in line.split(",")]
            for line in lines[lines.index(CURVE_HEADER) + 1:]]
    assert (len(rows), rows[0][0], rows[-1][0]) == (40, 20.0, 2000.0)
    assert [row[2] for row in rows] == [euclidean_leading(6.0, 3, row[0]) for row in rows]


def test_same_outputs_lists_the_workload_runs_without_the_reference_solvers(
        tmp_path, monkeypatch):
    # the dense solvers fill only the oracles' reference spectra, which took
    # seconds and no run checks
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import workloads

    called = []
    for name in ("eigvalsh", "hyperbolic_mask_dense"):
        monkeypatch.setattr(workloads, name, lambda *args, name=name: called.append(name))
    runs = _tool("same_outputs").workload_runs(tmp_path / "inputs")
    assert called == []
    box_jobs = ("spectrum-hyperbolic", "spectrum-euclidean", "weyl-curve", "frame-check")
    assert [run.name for run in runs] == (
        [f"box-spectrum seed={seed} {job}" for seed in (1, 2, 3) for job in box_jobs]
        + [f"mask-count seed={seed} mask-count" for seed in (1, 2, 3)])
    assert all((tmp_path / "inputs" / f"mask-count-seed{seed}" / "mask-inputs.json").is_file()
               for seed in (1, 2, 3))


def test_the_timed_launch_writes_what_a_plain_start_writes(tmp_path):
    # an example (python -m weylcs), a small mask-count job (a library
    # script), the sparse count (python -c) and mask-count without its
    # arguments (a usage error naming the script), each started through the
    # launcher's clock and as perfbench/run.py starts a job
    same_outputs = _tool("same_outputs")
    (tmp_path / "in.json").write_text(json.dumps({"lambdas": [250.0],
                                                  "points": [[1.0, 2.0, 0.5, 0.5]]}))
    mask = same_outputs.Run("mask-count", lambda out: [
        "perfbench/mask_count.py", "--input", str(tmp_path / "in.json"),
        "--out", str(out / "m.txt")])
    usage = same_outputs.Run("mask-count usage", lambda out: ["perfbench/mask_count.py"])
    runs = _example(same_outputs, "euclidean_weyl_d1.cfg") + [
        mask, same_outputs.SPARSE_BRACKET_RUN, usage]
    for i, run in enumerate(runs):
        *timed, (wall, imp, work) = same_outputs.outcome(ROOT, run, tmp_path / f"timed{i}")
        out = tmp_path / f"plain{i}"
        out.mkdir()
        plain = subprocess.run([sys.executable, *run.argv(out)], cwd=ROOT,
                               env=same_outputs.run_env(ROOT), capture_output=True)
        files = {p.relative_to(out).as_posix(): p.read_bytes()
                 for p in sorted(out.rglob("*")) if p.is_file()}
        assert timed == [plain.returncode, plain.stdout, plain.stderr, files], run.name
        assert timed[0] == (2 if run is usage else 0), run.name
        assert 0.0 <= imp and 0.0 < work and imp + work <= wall, run.name
    assert timed[2].decode().startswith("usage: mask_count.py ")


def test_the_timed_launch_reports_a_process_that_dies_before_its_clocks(tmp_path):
    # os._exit skips the launcher's finally, so no clocks are written: the
    # outcome still holds the exit code, and nan for import and work
    same_outputs = _tool("same_outputs")
    run = same_outputs.Run("killed", lambda out: ["-c", "import os; os._exit(3)"])
    *timed, (wall, imp, work) = same_outputs.outcome(ROOT, run, tmp_path / "killed")
    assert timed == [3, b"", b"", {}]
    assert wall > 0.0 and math.isnan(imp) and math.isnan(work)


def test_same_outputs_alternates_trees_counts_no_tie_and_flags_one_differing_pair(
        tmp_path, capsys, monkeypatch):
    # a launcher that records each start and gives it a preset wall time:
    # pair 0 ties, pair 1 goes to this tree, pairs 2 and 3 to the other;
    # only the other tree's start in pair 2 prints a line
    same_outputs = _tool("same_outputs")
    walls = {"this": [1.0, 2.0, 5.0, 4.0], "other": [1.0, 3.0, 4.0, 3.5]}
    starts = []

    def launch(root, run, out):
        starts.append(root.name)
        pair = (len(starts) - 1) // 2
        stdout = b"x\n" if (root.name, pair) == ("other", 2) else b""
        return 0, stdout, b"", {}, (walls[root.name][pair], 0.0, 0.0)

    monkeypatch.setattr(same_outputs, "outcome", launch)
    run = same_outputs.Run("fake", lambda out: [])
    assert same_outputs.compare(tmp_path / "other", [run], tmp_path, repeat=4,
                                root=tmp_path / "this") == 1
    assert starts == ["this", "other", "other", "this", "this", "other", "other", "this"]
    assert capsys.readouterr().out.splitlines() == [
        "fake  exit 0  differs: stdout",
        "  stdout line 1: this None, other 'x'",
        "  this   wall 3.000 [1.750, 4.250]" + "  import 0.000 [0.000, 0.000]"
        + "  work 0.000 [0.000, 0.000]",
        "  other  wall 3.250 [2.500, 3.625]" + "  import 0.000 [0.000, 0.000]"
        + "  work 0.000 [0.000, 0.000]",
        "  wall wins of 4 pairs: this 1, other 2"]


def test_same_outputs_quartiles_interpolate_between_the_sorted_samples():
    quartiles = _tool("same_outputs").quartiles
    assert quartiles([5.0, 1.0, 4.0, 2.0, 3.0]) == (3.0, 2.0, 4.0)
    assert quartiles([4.0, 1.0]) == (2.5, 1.75, 3.25)
    assert quartiles([0.5]) == (0.5, 0.5, 0.5)


def test_same_outputs_command_line_rejects_no_repetition(capsys):
    with pytest.raises(SystemExit) as exit_:
        _tool("same_outputs").main([str(ROOT), "--repeat", "0"])
    assert exit_.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: ") and "--repeat must be at least 1" in err


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


def test_the_readme_library_example_prints_one_ratio():
    # the fenced python block under "## Library example", run as a user would
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library example\n", 1)[1]
    code = re.search(r"^```python\n(.*?)^```$", section, re.S | re.M).group(1)
    run = subprocess.run([sys.executable, "-c", code], env=subprocess_env(),
                         capture_output=True, text=True, check=True)
    ratio = float(run.stdout)
    assert run.stdout == f"{ratio}\n" and 0.0 < ratio < math.inf
