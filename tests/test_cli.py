"""Command-line front-end: configs, exit codes, output determinism."""

import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import weylcs.cli
import weylcs.eigen
from conftest import lattice_measure, subprocess_env
from weylcs.cli import COMMANDS, ConfigError, ExperimentConfig, _apply_kv, \
    load_config, main
from weylcs.domains import GridDomain, rectangle_domain
from weylcs.eigen import DENSE_LIMIT, DenseLimitError, count_certificate, load_spectrum
from weylcs.operators import assemble_euclidean
from weylcs.weyl import CURVE_HEADER, euclidean_leading
from weylcs.windows import c_constants, make_bump_window, scale


def write_config(path, text):
    path.write_text(text)
    return str(path)


def test_load_config_and_overrides(tmp_path):
    cfg_path = write_config(tmp_path / "exp.cfg", """
# experiment record
kind = euclidean
dim = 1
box = 0,3.141592653589793
h = 0.01  # spacing
lam_max = 500
""")
    cfg = load_config(cfg_path)
    assert cfg.kind == "euclidean"
    assert cfg.h == 0.01
    assert cfg.lam_max == 500.0
    _apply_kv(cfg, " lam_count = 7 ", "--set value")
    assert cfg.lam_count == 7
    with pytest.raises(ConfigError, match="unknown config key 'no_such_key'"):
        _apply_kv(cfg, "no_such_key=1", "--set value")
    with pytest.raises(ConfigError, match="bad config line 'lam_count'"):
        _apply_kv(cfg, "lam_count", "config line")


def test_bad_config_line(tmp_path):
    cfg_path = write_config(tmp_path / "bad.cfg", "this is not a pair\n")
    with pytest.raises(ConfigError):
        load_config(cfg_path)


def test_header_lines_embed_version_and_fields():
    lines = ExperimentConfig().header_lines()
    assert any(line.startswith("weylcs_version=") for line in lines)
    assert any(line.startswith("kind=") for line in lines)
    assert any(line.startswith("seed=") for line in lines)


def test_invalid_h_exits_1(tmp_path, capsys):
    rc = main(["spectrum", "--set", "h=-0.1",
               "--out", str(tmp_path / "s.txt")])
    assert rc == 1
    assert "error" in capsys.readouterr().err


def test_unknown_kind_exits_1(tmp_path, capsys):
    rc = main(["spectrum", "--set", "kind=parabolic",
               "--out", str(tmp_path / "s.txt")])
    assert rc == 1


@pytest.mark.parametrize("command", ["spectrum", "symbol-check", "frame-check"])
@pytest.mark.parametrize("key, value", [("source", "bogus"), ("lam_scale", "nope")])
def test_unknown_choice_exits_1(tmp_path, capsys, command, key, value):
    # before, spectrum accepted both and wrote them into its output header
    out = tmp_path / "out.txt"
    rc = main([command, "--set", f"{key}={value}", "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 1
    assert err == f"error: unknown {key} {value!r}\n"
    assert not out.exists()


def test_spectrum_lam_zero_empty_file(tmp_path):
    out = tmp_path / "empty.txt"
    rc = main(["spectrum", "--set", "lam_max=0", "--set", "h=0.05",
               "--set", "box=0,1", "--out", str(out)])
    assert rc == 0
    spec = load_spectrum(out)
    assert len(spec.values) == 0 and spec.certified


def test_spectrum_small_run(tmp_path):
    out = tmp_path / "spec.txt"
    rc = main(["spectrum", "--set", "box=0,1", "--set", "h=0.01",
               "--set", "lam_max=2000", "--out", str(out)])
    assert rc == 0
    spec = load_spectrum(out)
    assert spec.certified and np.all(spec.values < 2000.0)
    ref = (np.arange(1, len(spec.values) + 1) * math.pi) ** 2
    assert np.all(np.abs(spec.values - ref) / ref < 0.05)


def test_spectrum_repeatable_in_one_process(tmp_path):
    # few eigenvalues against n, so the eigsh branch runs
    args = ["spectrum", "--set", "box=0,1", "--set", "h=0.01",
            "--set", "lam_max=2000"]
    out1, out2 = tmp_path / "a.txt", tmp_path / "b.txt"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


# each case's argv, and the parts its error line must show: a too-large
# input names the parameters to change
EXIT_1_CASES = [
    (["spectrum", "--set", "dim=abc"], []),
    (["spectrum", "--set", "h=nan"], ["h must be finite, got nan"]),
    (["spectrum", "--no-such-flag"], []),
    (["weyl-curve", "--set", "lam_min=1e-9"],  # eps = lambda^(-1/3) = 1000: c3 overflows
     ["lam_min=1e-09 ", "out of range"]),
    (["weyl-curve", "--set", "source=discrete", "--set", "dim=2",
      "--set", "box=0,1;0,1", "--set", "h=0.0138",
      "--set", "lam_max=2e4"], []),  # spectrum_below raises DenseLimitError (patched below)
    (["frame-check", "--set", "n_vectors=-3"],  # no Parseval vector would be checked
     ["n_vectors must be at least 1, got -3"]),
    (["spectrum", "--set", "box=0,1", "--set", "h=0.9999999999"], []),  # no interior node
    (["weyl-curve", "--set", "lam_min=100", "--set", "lam_max=100",
      "--set", "lam_count=3"], []),  # three lambdas, none between the ends
    # sizes no host can grant, refused before anything is allocated
    (["spectrum", "--set", "box=0,1", "--set", "h=1e-15"], []),  # a 909 TiB mask
    (["weyl-curve", "--set", "box=0,1", "--set", "h=0.01", "--set", "lam_min=1e307",
      "--set", "lam_max=1e308"],  # more exact modes than an array can hold
     ["lam=1e+308", "side of length 1.0"]),
    (["weyl-curve", "--set", "box=0,1e300", "--set", "h=1", "--set", "lam_min=1e300",
      "--set", "lam_max=1e308"],  # a mode count past the largest float
     ["box ((0.0, 1e+300),)", "h=1.0"]),  # the box's lattice is checked first
    (["spectrum", "--set", "box=-1e308,1e308", "--set", "h=1"], []),  # b - a overflows
    (["spectrum", "--config", "latin1.cfg"], []),  # a non-UTF-8 byte (written below)
    (["spectrum", "--set", "box=0,1e300", "--set", "h=1e-10"],  # a node count past inf
     ["box ((0.0, 1e+300),)", "h=1e-10"]),
    (["spectrum", "--set", "box=0,1e10", "--set", "h=1e-10"],  # 1e20 nodes, past np.intp
     ["box ((0.0, 10000000000.0),)", "h=1e-10"]),
    (["spectrum", "--set", "seed=-1"], ["seed must be >= 0, got -1"]),
    (["weyl-curve", "--set", "eps_alpha=0.5"],  # the eps schedule is fixed
     ["unknown config key 'eps_alpha'"]),
    (["spectrum", "--set", "box=abc"], ["bad box spec 'abc'"]),
    (["spectrum", "--set", "box=0,inf"], ["box needs at least one (a, b) pair",
                                          "got box=((0.0, inf),)"]),
    (["spectrum", "--set", "dim=2", "--set", "box=0,1"], ["box has 1 axes, dim is 2"]),
    (["weyl-curve", "--set", "lam_min=0"],
     ["needs 0 < lam_min <= lam_max, got lam_min=0.0, lam_max=10000.0"]),
    (["weyl-curve", "--set", "kind=hyperbolic", "--set", "dim=2", "--set", "box=0,1;0,1",
      "--set", "h=0.1"], ["exact spectra are euclidean-only above one dimension"]),
    (["spectrum", "--set", "foo"], ["bad --set value 'foo'"]),
    (["frame-check", "--set", "window=gauss"], ["unknown window 'gauss'"]),
    # a window of half-width eps/sqrt(2) = 0.007 per axis holds no node near
    # some symbol points at h = 0.05: the symbol is nan there, not a number
    (["symbol-check", "--set", "dim=2", "--set", "h=0.05", "--set", "box=0,1;0,1",
      "--set", "eps=0.01"], ["eps=0.01 ", "h=0.05"]),
    # the leading term lambda^(3/2) overflows from lambda = 1e225 on
    (["weyl-curve", "--set", "dim=1", "--set", "box=0,1", "--set", "h=0.1",
      "--set", "source=discrete", "--set", "lam_min=1", "--set", "lam_max=1e300",
      "--set", "lam_count=5"], ["lam_max=1e+300 ", "lambda = 1e+225"]),
]


@pytest.mark.parametrize("args, named", EXIT_1_CASES,
                         ids=[f"args{i}" for i in range(len(EXIT_1_CASES))])
def test_usage_and_limit_errors_exit_1(tmp_path, capsys, monkeypatch, args, named):
    # no CLI command reaches dense_spectrum, the one source of DenseLimitError,
    # so the patch makes spectrum_below raise it past the dense limit to check
    # that the CLI maps it to exit 1; the other cases fail before it or below it
    spectrum_below = weylcs.cli.spectrum_below

    def too_large(op, lam):
        if op.n <= DENSE_LIMIT:
            return spectrum_below(op, lam)
        raise DenseLimitError(f"n={op.n} exceeds dense limit {DENSE_LIMIT}")

    monkeypatch.setattr(weylcs.cli, "spectrum_below", too_large)
    (tmp_path / "latin1.cfg").write_bytes(b"box = 0,1  # 1 \xb5m\n")
    monkeypatch.chdir(tmp_path)
    argv = args + ["--out", str(tmp_path / "o.txt")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and "Traceback" not in err
    assert all(part in err for part in named), err
    if named:  # the same line from a fresh interpreter
        run = subprocess.run([sys.executable, "-m", "weylcs"] + argv, env=subprocess_env(),
                             capture_output=True, text=True)
        assert (run.returncode, run.stderr) == (1, err)
        assert "RuntimeWarning" not in run.stderr


def test_a_command_without_an_output_path_exits_1(capsys):
    # the harness above always appends --out
    assert main(["spectrum"]) == 1
    assert capsys.readouterr().err == "error: spectrum requires an output path\n"


def test_weyl_curve_discrete_past_the_dense_limit(tmp_path, monkeypatch):
    # n = 72^2 > DENSE_LIMIT and N(lam_max) > n/4: the box path needs no dense
    # solver, and its Riesz means are those of the closed-form mode sums
    out = tmp_path / "curve.csv"
    h = 0.0138
    rc = main(["weyl-curve", "--set", "source=discrete", "--set", "dim=2",
               "--set", "box=0,1;0,1", "--set", f"h={h}", "--set", "lam_max=2e4",
               "--set", "lam_count=6", "--out", str(out)])
    assert rc == 0
    rows = [line.split(",") for line in out.read_text().splitlines()
            if not line.startswith("#")][1:]
    lams, riesz = (np.array([float(r[i]) for r in rows]) for i in (0, 1))
    k = np.arange(1, 73)
    axis = 4.0 / h ** 2 * np.sin(k * math.pi / (2.0 * 73)) ** 2
    exact = (axis[:, None] + axis[None, :]).ravel()
    want = [np.sum(lam - exact[exact < lam]) for lam in lams]
    assert len(rows) == 6 and np.allclose(riesz, want, rtol=1e-11, atol=0.0)
    # the sparse LDL^T count of the same matrix agrees
    monkeypatch.setattr(weylcs.eigen, "_box_modes", lambda op: None)
    op = assemble_euclidean(rectangle_domain(((0.0, 1.0), (0.0, 1.0)), h))
    assert op.n == 72 ** 2 > DENSE_LIMIT
    cert = count_certificate(op, 2e4)
    assert cert.count_method == "sparse-ldl"
    assert cert.count == int(np.sum(exact < 2e4)) > op.n // 4


def test_weyl_curve_leading_term_needs_no_exact_box(tmp_path, monkeypatch):
    # a discrete curve's leading term reads the domain's mask, not a closed
    # form of a declared box: here the box declares sides twice those of its
    # rows
    doms = []

    def plain_box(box, h):
        dom = rectangle_domain(box, h)
        doms.append(GridDomain(h=h, origin=dom.origin, mask=dom.mask,
                               box=tuple((a, 2.0 * b - a) for a, b in dom.box)))
        return doms[-1]

    monkeypatch.setattr(weylcs.cli, "rectangle_domain", plain_box)
    out = tmp_path / "curve.csv"
    with contextlib.redirect_stdout(io.StringIO()):
        rc = main(["weyl-curve", "--set", "kind=euclidean", "--set", "dim=2",
                   "--set", "source=discrete",
                   "--set", "box=0,1;0,2", "--set", "h=0.05", "--set", "lam_min=100",
                   "--set", "lam_max=1000", "--set", "lam_count=6", "--out", str(out)])
    assert rc == 0 and len(doms) == 1 and doms[0].exact_box is None
    rows = [line.split(",") for line in out.read_text().splitlines()
            if not line.startswith("#")][1:]
    assert len(rows) == 6
    for row in rows:
        lam, leading = float(row[0]), float(row[2])
        assert leading == euclidean_leading(lattice_measure(doms[0]), 2, lam)


HYPERBOLIC_FAR = ["--set", "kind=hyperbolic", "--set", "frame_n=8", "--set", "n_vectors=2"]


@pytest.mark.parametrize("command, box, h", [
    ("spectrum", "0,1000;0,1000", 10), ("symbol-check", "0,1000;0,1000", 10),
    ("frame-check", "0,1000;0,1000", 10),
    ("spectrum", "0,354;0,1", 0.25),  # exp(2 x_1) finite, exp(2 x_1)/h^2 not
    # exp(2 x_1) is finite at the grid's one x_1 node, 320, not at a symbol point
    ("symbol-check", "0,600;0,600", 320), ("frame-check", "0,600;0,600", 320)])
def test_hyperbolic_overflow_exits_1_in_two_dimensions(tmp_path, capsys, command, box, h):
    argv = [command, "--set", "dim=2", "--set", f"box={box}", "--set", f"h={h}"]
    assert main(argv + HYPERBOLIC_FAR + ["--out", str(tmp_path / "o.txt")]) == 1
    err = capsys.readouterr().err
    assert ("error: matrix entries not finite" in err or "error: exp(2 y_1) overflows" in err) \
        and "Traceback" not in err


@pytest.mark.parametrize("command", ["symbol-check", "frame-check"])
def test_hyperbolic_symbol_far_out_in_one_dimension(tmp_path, command):
    # in d = 1 the tilde terms vanish: the symbol is the euclidean one.  A
    # window of radius eps = 30 holds nodes at h = 10 and 5 (at the default
    # 0.2 it holds none, and the symbols would be nan)
    out = tmp_path / "o.txt"
    argv = [command, "--set", "box=0,1000", "--set", "h=10", "--set", "eps=30"] + \
        HYPERBOLIC_FAR + ["--out", str(out)]
    assert main(argv) == 0
    hyperbolic = out.read_text().splitlines()[-3:]
    assert "nan" not in " ".join(hyperbolic)
    argv[argv.index("kind=hyperbolic")] = "kind=euclidean"
    assert main(argv) == 0
    assert out.read_text().splitlines()[-3:] == hyperbolic


def test_weyl_curve_takes_the_volume_before_the_spectrum(tmp_path, capsys, monkeypatch):
    # exp(-y_1) overflows on the box; the spectrum would take seconds
    def no_spectrum(op, lam):
        raise AssertionError("spectrum_below called")

    monkeypatch.setattr(weylcs.cli, "spectrum_below", no_spectrum)
    rc = main(["weyl-curve", "--set", "kind=hyperbolic", "--set", "dim=2",
               "--set", "box=-800,0;0,1", "--set", "h=0.25", "--set", "source=discrete",
               "--set", "lam_min=10", "--set", "lam_max=50",
               "--out", str(tmp_path / "curve.csv")])
    assert rc == 1
    assert "overflows on the box, got box=((-800.0, 0.0), (0.0, 1.0))" in \
        capsys.readouterr().err


SQUARE_05 = ["--set", "kind=hyperbolic", "--set", "dim=2", "--set", "box=0,1;0,1",
             "--set", "h=0.05"]


# (command, kind settings, eps) whose window constants leave the float range;
# the rest of both kinds x eps in {1e-300, 1e-120, 1000} do not reach them:
# the euclidean symbol at eps = 1000 is finite, and frame-check stops at the
# frame, exit 1 with its own message, for eps = 1000 (the window spans the
# grid) and
# for the 2-D window at eps = 1e-300 (its lattice sum overflows)
WINDOW_RANGE_CASES = [
    ("symbol-check", [], "1e-300"), ("symbol-check", [], "1e-120"),
    ("symbol-check", SQUARE_05, "1e-300"), ("symbol-check", SQUARE_05, "1e-120"),
    ("symbol-check", SQUARE_05, "1000"),
    ("frame-check", [], "1e-300"), ("frame-check", [], "1e-120"),
    ("frame-check", SQUARE_05, "1e-120"),
]


@pytest.mark.parametrize("command, kind, eps", WINDOW_RANGE_CASES,
                         ids=[f"{c}-{'hyp' if k else 'euc'}-{e}" for c, k, e in WINDOW_RANGE_CASES])
def test_window_constants_out_of_range_name_eps(tmp_path, command, kind, eps):
    argv = [command, *kind, "--set", f"eps={eps}", "--set", "frame_n=20",
            "--set", "n_vectors=2", "--out", str(tmp_path / "o.txt")]
    run = subprocess.run([sys.executable, "-m", "weylcs"] + argv, env=subprocess_env(),
                         capture_output=True, text=True)
    assert run.returncode == 1
    assert run.stderr.startswith("error: the window constants leave the float range at "
                                 f"eps = {float(eps):g} (")
    assert "RuntimeWarning" not in run.stderr and "exp(2 y_1)" not in run.stderr


EXAMPLES = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "examples")


@pytest.mark.parametrize("name", sorted(os.listdir(EXAMPLES)))
def test_example_config_runs(tmp_path, name):
    # the first line of every example is the command that runs it
    path = os.path.join(EXAMPLES, name)
    with open(path) as fh:
        usage = fh.readline().split()
    assert name.endswith(".cfg")
    assert usage[:2] == ["#", "weylcs"] and usage[3:5] == ["--config", f"examples/{name}"]
    command = usage[2]
    fast = ["--set", "n_vectors=2"] if command == "frame-check" else []
    with contextlib.redirect_stdout(io.StringIO()):
        assert main([command, "--config", path, "--out", str(tmp_path / "out")] + fast) == 0
    # every number below the '#' header is finite
    for line in (tmp_path / "out").read_text().splitlines():
        if not line.startswith("#"):
            tokens = [t.lower().lstrip("+-") for t in re.split(r"[\s,=]+", line)]
            assert not {"nan", "inf"} & set(tokens), line


BOX_RUNS = '''
import json, os, sys
import numpy
before = set(sys.modules)
import weylcs.cli
added = set(sys.modules) - before
import sysconfig  # after the snapshot, which must see the CLI import it
paths = sysconfig.get_paths()
def under(name, key):
    return (getattr(sys.modules[name], "__file__", None) or "").startswith(paths[key] + os.sep)
def third_party(name):
    # the standard library is the names Python lists plus the files of its
    # directory outside site-packages, such as the private _sysconfigdata_*
    if name.split(".")[0] in sys.stdlib_module_names | {"weylcs"}:
        return False
    return not under(name, "stdlib") or under(name, "purelib") or under(name, "platlib")
def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
loaded = {"import": scipy_modules(), "import adds": sorted(filter(third_party, added)),
          "numpy.ma": {}}
for command in sys.argv[1:]:
    args = ["--set", "kind=hyperbolic", "--set", "dim=2", "--set", "box=0,1;0,1",
            "--set", "h=0.025", "--set", "lam_max=250", "--set", "source=discrete",
            "--set", "lam_min=20", "--set", "lam_count=6", "--out", command + ".out"]
    if command == "frame-check":
        args = ["--set", "dim=2", "--set", "frame_n=16", "--set", "h=0.05",
                "--set", "box=0,0.8;0,0.8", "--set", "n_vectors=2", "--out", command + ".out"]
    assert weylcs.cli.main([command] + args) == 0
    loaded[command] = scipy_modules()
    loaded["numpy.ma"][command] = "numpy.ma" in sys.modules
print(json.dumps(loaded))
'''


def run_box_commands(tmp_path, commands, **env):
    """Run the commands through cli.main in one fresh process, in tmp_path;
    the scipy modules loaded after the import and after each command, and
    whether numpy.ma is loaded after each command."""
    out = subprocess.run([sys.executable, "-c", BOX_RUNS] + commands, cwd=tmp_path,
                         env=dict(subprocess_env(), **env), capture_output=True,
                         text=True, check=True)
    return json.loads(out.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def box_runs(tmp_path_factory):
    """spectrum and weyl-curve on a box in fresh processes with one and with
    two BLAS threads, the first followed by symbol-check and frame-check: the
    scipy modules loaded, and the box output bytes."""
    runs = {}
    for threads, extra in (("1", ["symbol-check", "frame-check"]), ("2", [])):
        run_dir = tmp_path_factory.mktemp(f"blas{threads}")
        loaded = run_box_commands(run_dir, ["spectrum", "weyl-curve"] + extra,
                                  OPENBLAS_NUM_THREADS=threads)
        runs[threads] = loaded, [(run_dir / f"{c}.out").read_bytes()
                                 for c in ("spectrum", "weyl-curve")]
    return runs


def test_box_commands_load_no_scipy(box_runs):
    # past numpy, importing the CLI loads only the standard library and weylcs
    for loaded, _ in box_runs.values():
        assert loaded["import adds"] == []
    # a box needs numpy only: import, spectrum and a discrete Weyl curve
    for loaded, _ in box_runs.values():
        assert [loaded[c] for c in ("import", "spectrum", "weyl-curve")] == [[], [], []]
    # symbols sum the operator's edge weights, with no assembled matrix
    assert box_runs["1"][0]["symbol-check"] == []
    # frame-check passes its diagonal trace operator as (row, col, value) triplets
    assert box_runs["1"][0]["frame-check"] == []


def test_box_commands_load_no_numpy_ma(box_runs):
    # np.unique imports numpy.ma on its first call, a cost no box command needs
    commands = ["spectrum", "weyl-curve", "symbol-check", "frame-check"]
    assert box_runs["1"][0]["numpy.ma"] == dict.fromkeys(commands, False)
    assert box_runs["2"][0]["numpy.ma"] == dict.fromkeys(commands[:2], False)


MASK_SYMBOLS = '''
import json, sys
import numpy as np
from weylcs import domains, frames, operators, windows
box = domains.rectangle_domain(((0.0, 1.0), (0.0, 1.0)), 1 / 40)
x, y = box.axis_coords(0)[:, None] - 0.5, box.axis_coords(1)[None, :] - 0.5
omega = domains.GridDomain(h=box.h, origin=box.origin, mask=box.mask & (x * x + y * y < 0.2),
                           box=box.box)
doms = [domains.erode(omega, 0.05), omega, domains.dilate(omega, 0.05)]
ops = [operators.assemble_hyperbolic(d) for d in doms]
frame = frames.build_frame(((0.0, 1.0), (0.0, 1.0)), box.h,
                           windows.scale(windows.make_cosine_window(2), 0.1))
values = [frames.symbol(frame, op, (3.0, -2.0), (0.5, 0.45)).value for op in ops]
assert all(np.isfinite(values))
small = frames.build_frame(((0.0, 0.5), (0.0, 0.5)), box.h, frame.window)
d = np.arange(1.0, small.n + 1.0)
diagonal = (np.arange(small.n), np.arange(small.n), d)
assert abs(frames.trace_via_frame(small, diagonal) - d.sum()) <= 1e-12 * d.sum()
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
'''


def test_mask_symbols_load_no_scipy():
    # erode, dilate, assembly and symbols off a box, and the trace of a
    # diagonal's triplets: numpy only, in particular neither scipy.ndimage nor the
    # scipy.special it loads, nor scipy.sparse
    out = subprocess.run([sys.executable, "-c", MASK_SYMBOLS], env=subprocess_env(),
                         capture_output=True, text=True, check=True)
    assert json.loads(out.stdout.splitlines()[-1]) == []


def test_box_outputs_independent_of_blas_threads(box_runs):
    outputs = {threads: out for threads, (_, out) in box_runs.items()}
    assert outputs["1"] == outputs["2"]
    assert b"certified=true" in outputs["1"][0]


CONFIG_KEYS = [f.name for f in fields(ExperimentConfig) if f.name != "out"]
GARBAGE = ["abc", "nan", "inf", "-1", "0", "", "1,2"]


@given(command=st.sampled_from(sorted(COMMANDS)),
       sets=st.lists(st.tuples(st.sampled_from(CONFIG_KEYS + ["abc"]),
                               st.sampled_from(GARBAGE)), max_size=3),
       seed=st.sampled_from([None] + GARBAGE),
       flag=st.sampled_from([[], ["--threads", "1"], ["--set", "abc"]]))
@settings(max_examples=40, deadline=None)
def test_cli_exit_codes_without_traceback(tmp_path_factory, command, sets, seed, flag):
    argv = [command, "--out", str(tmp_path_factory.mktemp("fuzz") / "o.txt")]
    for key, value in sets:
        argv += ["--set", f"{key}={value}"]
    if seed is not None:
        argv += ["--seed", seed]
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        rc = main(argv + flag)
    assert rc in (0, 1, 2)
    assert "Traceback" not in err.getvalue()


def test_weyl_curve_output(tmp_path, capsys):
    out = tmp_path / "curve.csv"
    rc = main(["weyl-curve", "--set", "lam_min=100", "--set", "lam_max=1000",
               "--set", "lam_count=8", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    header = [line for line in lines if line.startswith("#")]
    assert any("weylcs_version=" in line for line in header)
    assert any("remainder_fit" in line for line in header)
    assert CURVE_HEADER in lines
    data = [line for line in lines if not line.startswith("#")][1:]
    assert len(data) == 8
    assert "remainder_fit slope=" in capsys.readouterr().out


def test_weyl_curve_bump_window_on_a_linear_grid(tmp_path):
    # the window and lam_scale settings the example configs leave at their defaults
    out = tmp_path / "curve.csv"
    rc = main(["weyl-curve", "--set", "kind=euclidean", "--set", "dim=1",
               "--set", "source=exact", "--set", "window=bump", "--set", "lam_scale=linear",
               "--set", "lam_min=100", "--set", "lam_max=1000", "--set", "lam_count=7",
               "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    rows = np.array([[float(v) for v in line.split(",")]
                     for line in lines[lines.index(CURVE_HEADER) + 1:]])
    lambdas = np.linspace(100.0, 1000.0, 7)
    assert np.array_equal(rows[:, 0], lambdas)
    eps = lambdas ** (-1.0 / 3.0)
    want = [c_constants(scale(make_bump_window(1), e)) for e in eps]
    assert np.array_equal(rows[:, 6:], [[c.c1, c.c2, c.c3] for c in want])


@pytest.mark.parametrize("kind, dim, box", [("euclidean", 2, "0,1;0,2"), ("hyperbolic", 1, "0,1")])
def test_exact_weyl_curve_builds_no_operator(tmp_path, monkeypatch, kind, dim, box):
    # an exact curve needs no operator and no domain: its spectrum and its
    # weighted volume are closed forms of the box
    def no_operator(dom):
        raise AssertionError("an exact weyl-curve assembled an operator")

    def no_domain(box, h):
        raise AssertionError("an exact weyl-curve built a grid domain")

    monkeypatch.setattr(weylcs.cli, "assemble_euclidean", no_operator)
    monkeypatch.setattr(weylcs.cli, "assemble_hyperbolic", no_operator)
    monkeypatch.setattr(weylcs.cli, "rectangle_domain", no_domain)
    assert main(["weyl-curve", "--set", f"kind={kind}", "--set", f"dim={dim}",
                 "--set", f"box={box}", "--set", "h=0.01", "--set", "source=exact",
                 "--out", str(tmp_path / "curve.csv")]) == 0


def test_exact_weyl_curve_does_not_depend_on_h(tmp_path):
    # the same rows at every h: at h = 0.002 on the unit cube (a 499^3
    # lattice, whose mask alone is 124 MB) the run peaks within 10 MiB of
    # h = 0.01, and an h with no interior node runs too
    rows, peaks = [], []
    for h in (0.01, 0.002, 1.0 - 1e-10):
        out = tmp_path / f"curve-{h}.csv"
        tracemalloc.start()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(["weyl-curve", "--set", "dim=3", "--set", "box=0,1;0,1;0,1",
                             "--set", f"h={h!r}", "--set", "lam_max=2000",
                             "--set", "lam_count=8", "--out", str(out)]) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        rows.append([line for line in out.read_text().splitlines()
                     if not line.startswith("# h=")])
    assert rows[0] == rows[1] == rows[2]
    assert peaks[1] < peaks[0] + 10 * 2 ** 20


def test_weyl_curve_reports_why_the_fit_is_unavailable(tmp_path, capsys):
    # three lambdas, all with a nonzero remainder: too few samples to fit
    out = tmp_path / "curve.csv"
    rc = main(["weyl-curve", "--set", "box=0,3", "--set", "lam_count=3", "--out", str(out)])
    assert rc == 0
    summary = "remainder_fit unavailable (need at least 5 samples with nonzero remainder)"
    assert capsys.readouterr().out == summary + "\n"
    lines = out.read_text().splitlines()
    assert "# " + summary in lines
    rows = np.array([[float(v) for v in line.split(",")]
                     for line in lines[lines.index(CURVE_HEADER) + 1:]])
    assert len(rows) == 3 and np.all(rows[:, 3] != 0.0)


SHIFT_WARNING = ("count_below: shift perturbed to 4999.999999989978 "
                 "(lambda too close to an eigenvalue)")


def test_weyl_curve_discrete_warns_past_validity(tmp_path, capsys):
    # lambda = 5000 is the eigenvalue k = 25 of the interval at h = 0.02, so
    # the count at it moves its shift below it
    out = tmp_path / "curve.csv"
    with pytest.warns(UserWarning, match=re.escape(SHIFT_WARNING)):
        rc = main(["weyl-curve", "--set", "source=discrete", "--set", "box=0,1",
                   "--set", "h=0.02", "--set", "lam_min=100",
                   "--set", "lam_max=5000", "--set", "lam_count=6",
                   "--out", str(out)])
    assert rc == 0
    assert "validity bound" in capsys.readouterr().err


def test_a_shift_warning_reaches_the_user_as_one_line(tmp_path, monkeypatch):
    # the shift warning at the eigenvalue lambda = 5000 prints like the CLI's own
    # warnings, and still passes through warnings.showwarning, where a
    # caller may count it
    argv = ["spectrum", "--set", "box=0,1", "--set", "h=0.02", "--set", "lam_max=5000"]
    run = subprocess.run([sys.executable, "-m", "weylcs"] + argv + ["--out", str(tmp_path / "a")],
                         env=subprocess_env(), capture_output=True, text=True)
    assert run.returncode == 0 and run.stderr == f"warning: {SHIFT_WARNING}\n"
    shown, formatted = [], warnings.formatwarning
    monkeypatch.setattr(warnings, "showwarning",
                        lambda *args: shown.append(warnings.formatwarning(*args[:4])))
    assert main(argv + ["--out", str(tmp_path / "b")]) == 0
    assert shown == [f"warning: {SHIFT_WARNING}\n"] and warnings.formatwarning is formatted


def test_frame_check_deterministic(tmp_path):
    args = ["frame-check", "--seed", "3", "--set", "frame_n=64",
            "--set", "h=0.05", "--set", "box=0,3.2", "--set", "eps=0.2"]
    out1, out2 = tmp_path / "a.txt", tmp_path / "b.txt"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    body = out1.read_text()
    assert "parseval_defect=" in body and "trace_defect=" in body
    defect = float(body.split("parseval_defect=")[1].splitlines()[0])
    assert defect <= 1e-10


def test_frame_check_repeatable_across_processes(tmp_path):
    env = subprocess_env()
    args = ["frame-check", "--seed", "5", "--set", "dim=2", "--set", "frame_n=16",
            "--set", "h=0.05", "--set", "box=0,0.8;0,0.8", "--set", "n_vectors=5"]
    outs = [tmp_path / "a.txt", tmp_path / "b.txt"]
    for out in outs:
        subprocess.run([sys.executable, "-m", "weylcs"] + args + ["--out", str(out)],
                       env=env, capture_output=True, check=True)
    assert outs[0].read_bytes() == outs[1].read_bytes()
    assert "parseval_defect=" in outs[0].read_text()


def test_frame_check_holds_no_n_squared_array(tmp_path):
    # at frame_n = 64 in d = 2 the whole transform of one vector is 64^4
    # complex values (268 MB) and a dense diagonal operator 134 MB; the
    # streamed moment and the diagonal's triplets need a small part of that
    args = ["frame-check", "--set", "dim=2", "--set", "frame_n=64", "--set", "h=0.05",
            "--set", "box=0,3.2;0,3.2", "--set", "n_vectors=1", "--out", str(tmp_path / "f.txt")]
    tracemalloc.start()
    try:
        assert main(args) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2 ** 20


def test_frame_check_runs_in_three_dimensions(tmp_path):
    # 32^3 grid nodes, 36 positions and 5 frequencies per axis
    out = tmp_path / "f.txt"
    rc = main(["frame-check", "--set", "dim=3", "--set", "box=0,1;0,1;0,1",
               "--set", "frame_n=32", "--set", "h=0.05", "--set", "n_vectors=2",
               "--out", str(out)])
    assert rc == 0
    defects = dict(line.split("=") for line in out.read_text().splitlines()
                   if line.startswith(("parseval_defect=", "trace_defect=")))
    assert sorted(defects) == ["parseval_defect", "trace_defect"]
    assert all(float(v) <= 1e-10 for v in defects.values())


def test_frame_check_window_spanning_the_grid_exits_1(tmp_path, capsys):
    rc = main(["frame-check", "--set", "eps=0.6", "--set", "frame_n=20",
               "--set", "h=0.05", "--set", "box=0,1.5",
               "--out", str(tmp_path / "f.txt")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "2*eps = 1.2 >= L = 1" in err


def test_frame_check_d2_window_narrower_than_the_grid_exits_0(tmp_path):
    # 2 eps = 1.2 >= L = 1, but each axis of the support spans 2 eps/sqrt(2) = 0.85
    out = tmp_path / "f.txt"
    rc = main(["frame-check", "--set", "dim=2", "--set", "box=0,1;0,1", "--set", "h=0.05",
               "--set", "frame_n=20", "--set", "eps=0.6", "--out", str(out)])
    assert rc == 0
    defects = dict(line.split("=") for line in out.read_text().splitlines()
                   if line.startswith(("parseval_defect=", "trace_defect=")))
    assert sorted(defects) == ["parseval_defect", "trace_defect"]
    assert all(float(v) < 1e-12 for v in defects.values())


def test_frame_check_overflowing_window_exits_1(tmp_path, capsys):
    # at eps = 1e-300 the window's lattice sum overflows to inf
    out = tmp_path / "f.txt"
    rc = main(["frame-check", "--set", "dim=2", "--set", "frame_n=20", "--set", "h=0.05",
               "--set", "box=0,1;0,1", "--set", "eps=1e-300", "--out", str(out)])
    assert rc == 1 and not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "overflows at eps = 1e-300" in err
    assert "Traceback" not in err


# (eps, window); the id names a window other than the default cosine one
REFUSED_EPS = [pytest.param(eps, window, id=eps if window == "cosine" else f"{eps}-{window}")
               for window in ("cosine", "bump") for eps in ("1000", "1e-300", "1e-120", "1e-320")]


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("eps, window", REFUSED_EPS)
def test_frame_check_refused_eps_prints_one_error_line(tmp_path, dim, eps, window):
    # the window spans the grid at 1000; at the small scales, subnormal
    # 1e-320 too, the lattice sum or the window constants overflow, and no
    # warning of numpy's reaches stderr
    argv = ["frame-check", "--set", f"dim={dim}", "--set", "box=" + ";".join(["0,1"] * dim),
            "--set", "h=0.1", "--set", "frame_n=10", "--set", "n_vectors=2",
            "--set", f"window={window}", "--set", f"eps={eps}", "--out", str(tmp_path / "f.txt")]
    run = subprocess.run([sys.executable, "-m", "weylcs"] + argv, env=subprocess_env(),
                         capture_output=True, text=True)
    assert run.returncode == 1
    [line] = run.stderr.splitlines()
    assert line.startswith("error: ") and "eps" in line


def test_frame_check_nan_parseval_defect_exits_2(tmp_path, capsys, monkeypatch):
    # a nan moment after the first vector: the defect keeps it, no report
    moment, calls = weylcs.cli.phase_space_moment, []

    def nan_second(frame, f, symbol):
        calls.append(None)
        return math.nan if len(calls) == 2 else moment(frame, f, symbol)

    monkeypatch.setattr(weylcs.cli, "phase_space_moment", nan_second)
    out = tmp_path / "f.txt"
    rc = main(["frame-check", "--set", "frame_n=20", "--set", "h=0.05", "--set", "box=0,1",
               "--set", "n_vectors=3", "--out", str(out)])
    assert rc == 2 and not out.exists() and len(calls) == 3
    assert "parseval_defect=nan" in capsys.readouterr().err


def test_symbol_check_reports_ratios(tmp_path):
    out = tmp_path / "sym.txt"
    rc = main(["symbol-check", "--set", "kind=hyperbolic", "--set", "dim=2",
               "--set", "box=0,1;0,1", "--set", "h=0.05",
               "--set", "eps=0.28284271247461906", "--seed", "0",
               "--out", str(out)])
    assert rc == 0
    body = out.read_text()
    assert "error_ratios=" in body
    assert body.count("max_symbol_error=") == 2


def test_missing_output_dir_exits_1(tmp_path, capsys):
    rc = main(["spectrum", "--set", "box=0,1", "--set", "h=0.05",
               "--out", str(tmp_path / "no" / "dir" / "s.txt")])
    assert rc == 1


def test_flag_overrides_config(tmp_path):
    cfg_path = write_config(tmp_path / "exp.cfg", "seed = 1\nlam_max = 50\n")
    out = tmp_path / "s.txt"
    rc = main(["spectrum", "--config", cfg_path, "--seed", "9",
               "--set", "box=0,1", "--set", "h=0.05", "--out", str(out)])
    assert rc == 0
    body = out.read_text()
    assert "# seed=9" in body
    assert "# lam_max=50" in body
