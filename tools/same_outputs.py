"""Check that another checkout writes the same outputs as this one, run by run.

    python tools/same_outputs.py OTHER_ROOT

OTHER_ROOT is another checkout of the repository, for example the parent
commit's, made with `git worktree add ../parent HEAD~1`.  In both trees the
tool runs

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
  - a weyl-curve of the euclidean operator from its discrete spectrum
    (source=discrete) on the unit square at h = 1/70, lambda from 20 to 2000;
  - every job of the workloads in perfbench/workloads.py, at seeds 1, 2, 3;

each the way perfbench/run.py runs a job: in a fresh process started from
the tree's root, with that tree's src first on PYTHONPATH and one BLAS
thread.  The runs and the workloads' generated inputs are taken from this
checkout, and every run writes into an empty directory of its own.  For
each run the tool compares the exit code, stdout, stderr and every output
file byte for byte and prints one line; it exits 1 if any run differs.
Under the line of a differing run it prints, for stdout, stderr and each
output file that differs and is text in both trees, the first line that
differs, with its number and both texts:

    box-spectrum seed=1 frame-check  exit 0  differs: frame.txt
      frame.txt line 16: this 'parseval_defect=6.50...e-16', other 'parseval_defect=4.27...e-16'

A line past the end of the shorter text shows as None.
"""

from __future__ import annotations

import itertools
import os
import shlex
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 2, 3)
BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass(frozen=True)
class Run:
    name: str
    argv: Callable[[Path], list]  # the Python arguments, given the output directory


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


SPARSE_BRACKET_RUN = Run("sparse count at an eigenvalue", lambda out: ["-c", """
import warnings
import numpy as np
from weylcs.domains import GridDomain, rectangle_domain
from weylcs.eigen import count_certificate
from weylcs.operators import assemble_euclidean
h = 1 / 12
box = rectangle_domain(((0.0, 1.0), (0.0, 1.0)), h)
mask = np.zeros(box.shape, dtype=bool)
mask[6, 5:8] = mask[5:8, 6] = True
op = assemble_euclidean(GridDomain(h=h, origin=box.origin, mask=mask, box=box.box))
with warnings.catch_warnings(record=True) as caught:
    warnings.simplefilter("always")
    print(repr(count_certificate(op, 576.0)))
for warning in caught:
    print(warning.message)
"""])


SPARSE_CUT_RUN = Run("sparse spectrum cut at an eigenvalue", lambda out: ["-c", """
import warnings
import numpy as np
from weylcs.domains import GridDomain, rectangle_domain
from weylcs.eigen import spectrum_below
from weylcs.operators import assemble_euclidean
h = 1 / 50
box = rectangle_domain(((0.0, 1.0), (0.0, 1.0)), h)
mask = np.zeros(box.shape, dtype=bool)
mask[2:22, 2:22] = mask[26:46, 26:46] = True
op = assemble_euclidean(GridDomain(h=h, origin=box.origin, mask=mask, box=box.box))
block = 4 / h ** 2 * np.sin(np.arange(1, 21) * np.pi / 42) ** 2
modes = np.repeat(np.sort((block[:, None] + block[None, :]).ravel()), 2)
lam = 2 * np.unique(modes)[60]
with warnings.catch_warnings(record=True) as caught:
    warnings.simplefilter("always")
    spec = spectrum_below(op, lam)
print(spec.certificate.count, len(spec.values),
      bool(np.allclose(spec.values, modes[modes < lam], rtol=1e-10, atol=0.0)))
for warning in caught:
    print(warning.message)
"""])


def workload_runs(inputs):
    """Every job of perfbench's workloads at each seed, as perfbench/run.py
    starts an untraced one; the workloads write their inputs under inputs."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import WORKLOADS

    runs = []
    for name, workload in WORKLOADS.items():
        for seed in SEEDS:
            run_dir = inputs / f"{name}-seed{seed}"
            run_dir.mkdir(parents=True)
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


def outcome(root, run, out):
    """Exit code, stdout, stderr and output files {relative path: bytes} of run
    in the tree at root, writing into the new directory out."""
    out.mkdir(parents=True)
    proc = subprocess.run([sys.executable, *run.argv(out)], cwd=root, env=run_env(root),
                          capture_output=True)
    files = {p.relative_to(out).as_posix(): p.read_bytes()
             for p in sorted(out.rglob("*")) if p.is_file()}
    return proc.returncode, proc.stdout, proc.stderr, files


def _part(outcome, part):
    """The bytes of a part, stdout, stderr or an output file, of an outcome;
    None for a file it does not write."""
    _, stdout, stderr, files = outcome
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


def compare(other, runs, work, root=ROOT):
    """Run each run in root and in other, print one line per run, and return
    1 if any run differs, else 0."""
    status = 0
    for i, run in enumerate(runs):
        mine = outcome(root, run, work / "this" / str(i))
        theirs = outcome(other, run, work / "other" / str(i))
        parts = differences(mine, theirs)
        verdict = "differs: " + ", ".join(parts) if parts else "identical"
        print(f"{run.name}  exit {mine[0]}  {verdict}", flush=True)
        for part in parts:
            found = first_difference(mine, theirs, part)
            if found:
                print(f"  {part} line {found[0]}: this {found[1]!r}, other {found[2]!r}",
                      flush=True)
        status |= bool(parts)
    return status


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        runs = (example_runs() + DEFAULT_RUNS + BRACKET_RUNS + [SPARSE_BRACKET_RUN]
                + [SPARSE_CUT_RUN, DISCRETE_CURVE_RUN] + workload_runs(work / "inputs"))
        return compare(Path(argv[1]).resolve(), runs, work)


if __name__ == "__main__":
    sys.exit(main(sys.argv))
