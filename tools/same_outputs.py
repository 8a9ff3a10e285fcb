"""Check that another checkout writes the same outputs as this one, run by
run, and time both.

    python tools/same_outputs.py OTHER_ROOT [--repeat N]   # default N = 1

OTHER_ROOT is another checkout of the repository, for example the parent
commit's, made with `git worktree add ../parent HEAD~1`.  In both trees the
tool runs

  - three reference processes: `python -c` with `pass`, `import numpy` and
    `import numpy, scipy.sparse.linalg`;
  - each examples/*.cfg, with the weylcs command on the example's first line;
  - symbol-check and frame-check at the default config (frame-check: the
    1-D frame of frame_n = 128 nodes at h = pi/200, P = 25);
  - two spectra whose lam_max is an eigenvalue, so that their counts are
    bracketed and warn of the shift: on the interval (0, 1) at h = 0.02 with
    lam_max = 5000, the eigenvalue k = 25, read in closed form; and on the
    hyperbolic unit square at h = 0.02 with lam_max = 603.9678644437523, the
    eigenvalue k = 25, where the bracket takes Sturm counts and multisects;
  - a count at an eigenvalue on the sparse path: count_certificate at the
    triple eigenvalue 576 = 4/h^2 of five nodes in a plus at h = 1/12,
    where SuperLU fails inside a supernode and the bracket decides; it
    prints the certificate's repr and each warning's message on stdout;
  - a sparse spectrum whose first slice cut lands on an eigenvalue:
    spectrum_below on two 20 x 20 blocks of the h = 1/50 lattice at twice
    their 61st distinct eigenvalue; it prints the certificate's count, the
    number of values, whether all lie within 1e-10 relative of the blocks'
    closed form, and each warning's message on stdout (not the values,
    which off a box need not be byte-reproducible);
  - a whole spectrum record: dense_spectrum of the hyperbolic unit square at
    h = 1/8, written by save_spectrum into the output directory; it prints
    the cutoff load_spectrum reads back and the number of values (no CLI
    command writes a whole spectrum);
  - the library's file formats: in the output directory, export_matrix of
    the hyperbolic operator on a disk of radius 0.3 in the unit square at
    h = 1/16 and on its dilation by 2h, save_mask of its erosion by h,
    save_phase of forward(frame, f) for the 2-D cosine frame of eps = 0.2 on
    the unit square at h = 1/8, with f complex from np.random.default_rng(0),
    and adjoint(frame, F) of that array through np.save; it prints the
    largest |adjoint(forward(f)) - f| (no CLI command writes these files or
    calls adjoint);
  - a weyl-curve of the euclidean operator from its discrete spectrum
    (source=discrete) on the unit square at h = 1/70, lambda from 20 to 2000;
  - a weyl-curve from the exact spectrum (source=exact) of the 3-D box
    (0.5, 1.5) x (-1, 1) x (0, 3), lambda from 20 to 2000;
  - every job of the workloads in perfbench/workloads.py, at seeds 1, 2, 3;

each the way perfbench/run.py runs a job: in a fresh process started from
the tree's root, with that tree's src first on PYTHONPATH and one BLAS
thread.  The runs and the workloads' generated inputs are taken from this
checkout, and every start writes into an empty directory of its own.  The
workloads are built without the reference spectra of their oracles, which
the tool never runs.

Each run is started N times in each tree, in N pairs: pair k starts this
tree first when k is even and OTHER first when k is odd.  Every process is
started through one launcher, `outcome`, whose clock wrapper times it:

  wall    the process, from start to exit, timed from outside;
  import  inside it, importing the entry point: weylcs.cli for a CLI job,
          a library script's top level up to its main; none for `-c` code;
  work    inside it, the call of the entry point's main, or the `-c` code.

What is left of wall is the interpreter's own start and exit.  For each
pair the tool compares the exit code, stdout, stderr and every output file
byte for byte, and prints one line per run; a run differs if any of its
pairs differs, and the tool exits 1 if any run differs.  Under the line of
a differing run it prints, for stdout, stderr and each output file that
differs in the first differing pair and is text in both trees, the first
line that differs, with its number and both texts.  Under every run it
prints, for each tree, the median and quartiles of wall, import and work
seconds, and the number of pairs each tree won on wall (a tie counts for
neither):

    box-spectrum seed=1 frame-check  exit 0  differs: frame.txt
      frame.txt line 16: this 'parseval_defect=6.50...e-16', other 'parseval_defect=4.27...e-16'
      this   wall 0.201 [0.195, 0.214]  import 0.085 [0.082, 0.090]  work 0.058 [0.056, 0.060]
      other  wall 0.205 [0.196, 0.219]  import 0.086 [0.083, 0.092]  work 0.057 [0.055, 0.061]
      wall wins of 10 pairs: this 6, other 4

A line past the end of the shorter text shows as None.  To time a single
tree, pass a second checkout of the same commit as OTHER_ROOT: that run
gives the tree's own spread, which a claimed gain must exceed.
"""

from __future__ import annotations

import argparse
import itertools
import os
import shlex
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable
from unittest import mock

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 2, 3)
BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass(frozen=True)
class Run:
    name: str
    argv: Callable[[Path], list]  # the Python arguments, given the output directory


REFERENCES = [Run(code, lambda out, code=code: ["-c", code])
              for code in ("pass", "import numpy", "import numpy, scipy.sparse.linalg")]


def example_runs(root=ROOT):
    """One run per examples/*.cfg: the weylcs command on its first line, with
    the file named by --out moved into the output directory."""
    runs = []
    for cfg in sorted((root / "examples").glob("*.cfg")):
        words = shlex.split(cfg.read_text().splitlines()[0].lstrip("# "))
        if words[0] != "weylcs" or "--out" not in words:
            raise SystemExit(f"{cfg}: the first line is not a weylcs command with --out")
        at = words.index("--out") + 1
        runs.append(Run(f"examples/{cfg.name}", lambda out, w=words, at=at: [
            "-m", "weylcs", *w[1:at], str(out / Path(w[at]).name), *w[at + 1:]]))
    return runs


def _cli_run(name, command, output, *keys):
    """A run of a weylcs command with the config keys given as --set
    KEY=VALUE, writing the file output."""
    return Run(name, lambda out: ["-m", "weylcs", command,
                                  *[arg for key in keys for arg in ("--set", key)],
                                  "--out", str(out / output)])


DEFAULT_RUNS = [_cli_run(command, command, f"{command}.txt")
                for command in ("symbol-check", "frame-check")]


BRACKET_RUNS = [
    _cli_run("spectrum at an eigenvalue", "spectrum", "spectrum.txt",
             "box=0,1", "h=0.02", "lam_max=5000"),
    _cli_run("hyperbolic spectrum at an eigenvalue", "spectrum", "spectrum.txt",
             "dim=2", "kind=hyperbolic", "box=0,1;0,1", "h=0.02", "lam_max=603.9678644437523")]


DISCRETE_CURVE_RUN = _cli_run("euclidean discrete weyl-curve", "weyl-curve", "curve.csv",
                              "dim=2", "box=0,1;0,1", "h=%r" % (1 / 70), "source=discrete",
                              "lam_min=20", "lam_max=2000")


EXACT_CURVE_RUN = _cli_run("exact weyl-curve of a 3-D box", "weyl-curve", "curve.csv",
                           "dim=3", "box=0.5,1.5;-1,1;0,3", "source=exact",
                           "lam_min=20", "lam_max=2000")


def _mask_run(name, h, cells, body):
    """A run of python -c code on the euclidean operator op of a mask on the
    unit square's lattice at spacing h, true on the two index expressions of
    cells.  body, indented by four spaces, runs with the warnings recorded;
    their messages are printed on stdout after it."""
    return Run(name, lambda out: ["-c", f"""
import warnings
import numpy as np
from weylcs.domains import GridDomain, rectangle_domain
from weylcs.eigen import count_certificate, spectrum_below
from weylcs.operators import assemble_euclidean
h = {h}
box = rectangle_domain(((0.0, 1.0), (0.0, 1.0)), h)
mask = np.zeros(box.shape, dtype=bool)
mask[{cells[0]}] = mask[{cells[1]}] = True
op = assemble_euclidean(GridDomain(h=h, origin=box.origin, mask=mask, box=box.box))
with warnings.catch_warnings(record=True) as caught:
    warnings.simplefilter("always")
{body}
for warning in caught:
    print(warning.message)
"""])


SPARSE_BRACKET_RUN = _mask_run("sparse count at an eigenvalue", "1 / 12", ("6, 5:8", "5:8, 6"),
                               "    print(repr(count_certificate(op, 576.0)))")


SPARSE_CUT_RUN = _mask_run("sparse spectrum cut at an eigenvalue", "1 / 50",
                           ("2:22, 2:22", "26:46, 26:46"), """\
    block = 4 / h ** 2 * np.sin(np.arange(1, 21) * np.pi / 42) ** 2
    modes = np.repeat(np.sort((block[:, None] + block[None, :]).ravel()), 2)
    lam = 2 * np.unique(modes)[60]
    spec = spectrum_below(op, lam)
    print(spec.certificate.count, len(spec.values),
          bool(np.allclose(spec.values, modes[modes < lam], rtol=1e-10, atol=0.0)))""")


WHOLE_SPECTRUM_RUN = Run("whole spectrum record", lambda out: ["-c", f"""
from weylcs.domains import rectangle_domain
from weylcs.eigen import dense_spectrum, load_spectrum, save_spectrum
from weylcs.operators import assemble_hyperbolic
path = {str(out / "spectrum.txt")!r}
square = rectangle_domain(((0.0, 1.0), (0.0, 1.0)), 1 / 8)
save_spectrum(dense_spectrum(assemble_hyperbolic(square)), path)
print(load_spectrum(path).cutoff, len(load_spectrum(path).values))
"""])


FORMATS_RUN = Run("library formats", lambda out: ["-c", f"""
import numpy as np
from weylcs.domains import GridDomain, dilate, erode, rectangle_domain, save_mask
from weylcs.frames import adjoint, build_frame, forward, save_phase
from weylcs.operators import assemble_hyperbolic, export_matrix
from weylcs.windows import make_cosine_window, scale
out = {str(out)!r}
h = 1 / 16
box = rectangle_domain(((0.0, 1.0), (0.0, 1.0)), h)
x, y = np.meshgrid(box.axis_coords(0), box.axis_coords(1), indexing="ij")
disk = GridDomain(h=h, origin=box.origin, mask=(x - 0.5) ** 2 + (y - 0.5) ** 2 < 0.09,
                  box=box.box)
export_matrix(assemble_hyperbolic(disk), out + "/disk.txt")
export_matrix(assemble_hyperbolic(dilate(disk, 2 * h)), out + "/dilated.txt")
save_mask(erode(disk, h), out + "/eroded.mask")
frame = build_frame(((0.0, 1.0), (0.0, 1.0)), 1 / 8, scale(make_cosine_window(2), 0.2))
rng = np.random.default_rng(0)
f = rng.standard_normal(frame.n) + 1j * rng.standard_normal(frame.n)
F = forward(frame, f)
save_phase(frame, F, out + "/phase.bin")
back = adjoint(frame, F)
np.save(out + "/adjoint.npy", back)
print(np.max(np.abs(back - f)))
"""])


def workload_runs(inputs):
    """Every job of perfbench's workloads at each seed, as perfbench/run.py
    starts an untraced one; the workloads write their inputs under inputs,
    with their oracles' dense solvers stubbed out."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    runs = []
    for name, workload in workloads.WORKLOADS.items():
        for seed in SEEDS:
            run_dir = inputs / f"{name}-seed{seed}"
            run_dir.mkdir(parents=True)
            # the dense solvers fill only the oracles' reference spectra, which
            # no run here checks; patch.object raises if either name is gone
            with mock.patch.object(workloads, "eigvalsh"), \
                    mock.patch.object(workloads, "hyperbolic_mask_dense"):
                jobs = workload(seed, run_dir).jobs
            for i, job in enumerate(jobs(run_dir)):
                script = ["-m", "weylcs"] if job.target == "cli" else ["perfbench/mask_count.py"]
                runs.append(Run(f"{name} seed={seed} {job.name}",
                                lambda out, jobs=jobs, i=i, script=script:
                                script + list(jobs(out)[i].args)))
    return runs


def run_env(root):
    """The environment of a run in the tree at root: its src first on
    PYTHONPATH, one BLAS thread."""
    env = dict(os.environ, **dict.fromkeys(BLAS_THREADS, "1"))
    env["PYTHONPATH"] = os.pathsep.join([str(root / "src")] + (
        [env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


# The launcher of every run: python -c CLOCK CLOCKS ARGS, where ARGS are the
# run's Python arguments: -m weylcs and its arguments, a library script and
# its arguments, or -c and the code.  It writes the seconds of the entry
# point's import and of its main, or of the code, to the file CLOCKS.
CLOCK = """
import sys, time
path, entry, *args = sys.argv[1:]
start = time.perf_counter()
if entry == "-m":
    import weylcs.cli
    main, args = weylcs.cli.main, args[1:]
elif entry == "-c":
    main = lambda args: exec(args[0], {"__name__": "__main__"})
else:
    import runpy
    sys.argv = [entry, *args]
    main = runpy.run_path(entry, run_name="timed")["main"]
loaded = time.perf_counter()
try:
    code = main(args)
finally:
    with open(path, "w") as fh:
        fh.write(f"{loaded - start!r} {time.perf_counter() - loaded!r}")
sys.exit(code)
"""


def outcome(root, run, out):
    """Exit code, stdout, stderr, output files {relative path: bytes} and
    (wall, import, work) seconds of run in the tree at root, started through
    CLOCK and writing into the new directory out; import and work are nan
    when the process dies before CLOCK writes them."""
    out.mkdir(parents=True)
    clocks = out.parent / f"{out.name}.clocks"
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", CLOCK, str(clocks), *run.argv(out)],
                          cwd=root, env=run_env(root), capture_output=True)
    wall = time.perf_counter() - start
    files = {p.relative_to(out).as_posix(): p.read_bytes()
             for p in sorted(out.rglob("*")) if p.is_file()}
    inside = clocks.read_text().split() if clocks.exists() else ["nan"] * 2
    return proc.returncode, proc.stdout, proc.stderr, files, (wall, *map(float, inside))


def _part(outcome, part):
    """The bytes of a part, stdout, stderr or an output file, of an outcome;
    None for a file it does not write."""
    _, stdout, stderr, files, _ = outcome
    return {"stdout": stdout, "stderr": stderr}.get(part, files.get(part))


def differences(mine, theirs):
    """The parts in which two outcomes differ; empty when they are identical."""
    parts = [f"exit code {mine[0]} != {theirs[0]}"] if mine[0] != theirs[0] else []
    names = ["stdout", "stderr"] + sorted(mine[3].keys() | theirs[3].keys())
    return parts + [name for name in names if _part(mine, name) != _part(theirs, name)]


def first_difference(mine, theirs, part):
    """(number, this tree's line, the other's line) at the first line where
    the part, stdout, stderr or an output file, differs between two
    outcomes, a line past the end of a text being None; None unless both
    hold it as UTF-8 text with a differing line."""
    texts = [_part(outcome, part) for outcome in (mine, theirs)]
    if None in texts:  # an exit code, or a file one tree does not write
        return None
    try:
        lines = [text.decode().splitlines() for text in texts]
    except UnicodeDecodeError:
        return None
    return next(((i, a, b) for i, (a, b) in enumerate(itertools.zip_longest(*lines), 1)
                 if a != b), None)


def quartiles(samples):
    """(median, lower quartile, upper quartile) of samples, interpolated
    between the sorted samples; all three the sample when there is one."""
    if len(samples) == 1:
        return (samples[0],) * 3
    q1, median, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return median, q1, q3


def timing(samples):
    """'wall M [Q1, Q3]  import ...  work ...': the median and quartiles of
    each clock over samples of (wall, import, work) seconds."""
    return "  ".join(f"{clock} {m:.3f} [{q1:.3f}, {q3:.3f}]" for clock, (m, q1, q3)
                     in zip(("wall", "import", "work"), map(quartiles, zip(*samples))))


def compare(other, runs, work, repeat=1, root=ROOT):
    """Start each run repeat times in root and in other, in pairs that
    alternate which tree starts first; print one line per run, the first
    differing pair's first differing lines and both trees' times; return 1
    if any pair of any run differs, else 0."""
    status = 0
    trees = [("this", root), ("other", other)]
    for i, run in enumerate(runs):
        pairs = []
        for k in range(repeat):
            done = {name: outcome(tree, run, work / name / str(i) / str(k))
                    for name, tree in (trees if k % 2 == 0 else trees[::-1])}
            pairs.append((done["this"], done["other"]))
        mine, theirs = next((pair for pair in pairs if differences(*pair)), pairs[0])
        parts = differences(mine, theirs)
        verdict = "differs: " + ", ".join(parts) if parts else "identical"
        print(f"{run.name}  exit {mine[0]}  {verdict}")
        for part in parts:
            found = first_difference(mine, theirs, part)
            if found:
                print(f"  {part} line {found[0]}: this {found[1]!r}, other {found[2]!r}")
        for side, name in enumerate(("this", "other")):
            print(f"  {name:<5}  {timing([pair[side][4] for pair in pairs])}")
        walls = [(a[4][0], b[4][0]) for a, b in pairs]
        print(f"  wall wins of {repeat} pairs: this {sum(a < b for a, b in walls)}, "
              f"other {sum(b < a for a, b in walls)}", flush=True)
        status |= bool(parts)
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("other", metavar="OTHER_ROOT", type=Path,
                        help="another checkout of the repository")
    parser.add_argument("--repeat", type=int, default=1,
                        help="pairs of starts per run (median and quartiles)")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        runs = (REFERENCES + example_runs() + DEFAULT_RUNS + BRACKET_RUNS
                + [SPARSE_BRACKET_RUN, SPARSE_CUT_RUN, WHOLE_SPECTRUM_RUN, FORMATS_RUN,
                   DISCRETE_CURVE_RUN, EXACT_CURVE_RUN]
                + workload_runs(work / "inputs"))
        return compare(args.other.resolve(), runs, work, args.repeat)


if __name__ == "__main__":
    sys.exit(main())
