"""Check that another checkout writes the same outputs as this one, run by run.

    python tools/same_outputs.py OTHER_ROOT

OTHER_ROOT is another checkout of the repository, for example the parent
commit's, made with `git worktree add ../parent HEAD~1`.  In both trees the
tool runs

  - each examples/*.cfg, with the weylcs command on the example's first line;
  - symbol-check at the default config;
  - every job of the workloads in perfbench/workloads.py, at seeds 1, 2, 3;

each the way perfbench/run.py runs a job: in a fresh process started from
the tree's root, with that tree's src first on PYTHONPATH and one BLAS
thread.  The runs and the workloads' generated inputs are taken from this
checkout, and every run writes into an empty directory of its own.  For
each run the tool compares the exit code, stdout and every output file
byte for byte and prints one line; it exits 1 if any run differs.
"""

from __future__ import annotations

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


SYMBOL_CHECK = Run("symbol-check", lambda out: [
    "-m", "weylcs", "symbol-check", "--out", str(out / "symbol-check.txt")])


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
    """Exit code, stdout and output files {relative path: bytes} of run in the
    tree at root, writing into the new directory out."""
    out.mkdir(parents=True)
    proc = subprocess.run([sys.executable, *run.argv(out)], cwd=root, env=run_env(root),
                          capture_output=True)
    files = {p.relative_to(out).as_posix(): p.read_bytes()
             for p in sorted(out.rglob("*")) if p.is_file()}
    return proc.returncode, proc.stdout, files


def differences(mine, theirs):
    """The parts in which two outcomes differ; empty when they are identical."""
    (code, stdout, files), (other_code, other_stdout, other_files) = mine, theirs
    parts = [f"exit code {code} != {other_code}"] if code != other_code else []
    parts += ["stdout"] if stdout != other_stdout else []
    return parts + [name for name in sorted(files.keys() | other_files.keys())
                    if files.get(name) != other_files.get(name)]


def compare(other, runs, work, root=ROOT):
    """Run each run in root and in other, print one line per run, and return
    1 if any run differs, else 0."""
    status = 0
    for i, run in enumerate(runs):
        mine = outcome(root, run, work / "this" / str(i))
        parts = differences(mine, outcome(other, run, work / "other" / str(i)))
        verdict = "differs: " + ", ".join(parts) if parts else "identical"
        print(f"{run.name}  exit {mine[0]}  {verdict}", flush=True)
        status |= bool(parts)
    return status


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        runs = example_runs() + [SYMBOL_CHECK] + workload_runs(work / "inputs")
        return compare(Path(argv[1]).resolve(), runs, work)


if __name__ == "__main__":
    sys.exit(main(sys.argv))
