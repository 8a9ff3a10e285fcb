"""Median and quartiles of each benchmark run's wall, import and work seconds.

    python tools/job_times.py [--repeat N]   # default N = 5

The runs are those tools/same_outputs.py compares for the workloads in
perfbench/workloads.py (every job at seeds 1, 2, 3), after three reference
processes: `python -c pass`, `import numpy` and
`import numpy, scipy.sparse.linalg`.  Each is started N times, round robin,
the way same_outputs.py starts a run: a fresh process from the root of the
checkout, with src first on PYTHONPATH and one BLAS thread.  One line per run
gives the median of each of these times, followed by its lower and upper
quartile (_q1, _q3; both that one sample when N = 1):

  wall_s    the process, from start to exit, timed from outside;
  import_s  inside it, importing the entry point: weylcs.cli for a CLI job,
            a library script's top level up to its main, the reference's
            imports;
  work_s    inside it, the call of the entry point's main.

What is left of wall_s is the interpreter's own start and exit.
"""

from __future__ import annotations

import argparse
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import same_outputs
from same_outputs import ROOT, Run

# The measured process: argv is the file for its two times, the entry point
# and the entry point's arguments.  The entry point is "-m" (python -m
# weylcs ARGS), a script path, or a reference's Python statement.
CHILD = """
import sys, time
path, entry, *args = sys.argv[1:]
start = time.perf_counter()
if entry == "-m":
    import weylcs.cli
    run, args = weylcs.cli.main, args[1:]
elif entry.endswith(".py"):
    import runpy
    run = runpy.run_path(entry, run_name="timed")["main"]
else:
    exec(entry)
    run = None
loaded = time.perf_counter()
code = run(args) if run else 0
done = time.perf_counter()
with open(path, "w") as fh:
    fh.write(f"{loaded - start!r} {done - loaded!r}")
sys.exit(code)
"""

REFERENCES = [Run(statement, lambda out, s=statement: [s]) for statement in
              ("pass", "import numpy", "import numpy, scipy.sparse.linalg")]


def measure(run, out):
    """(wall, import, work) seconds of one fresh process of run, writing into
    the new directory out; SystemExit naming the run if it fails."""
    out.mkdir(parents=True)
    times = out / "times.txt"
    argv = [sys.executable, "-c", CHILD, str(times), *run.argv(out)]
    start = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, env=same_outputs.run_env(ROOT), capture_output=True)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise SystemExit(f"{run.name}: exit {proc.returncode}\n{proc.stderr.decode()}")
    return (wall, *map(float, times.read_text().split()))


def quartiles(samples):
    """(median, lower quartile, upper quartile) of samples, interpolated
    between the sorted samples; all three the sample when there is one."""
    if len(samples) == 1:
        return (samples[0],) * 3
    q1, median, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return median, q1, q3


def summaries(runs, repeat, work):
    """{run name: quartiles of wall, of import and of work} over repeat
    rounds of runs."""
    samples = {run.name: [] for run in runs}
    for r in range(repeat):
        for i, run in enumerate(runs):
            samples[run.name].append(measure(run, work / f"{r}-{i}"))
    return {name: [quartiles(t) for t in zip(*s)] for name, s in samples.items()}


def table(rows):
    width = max(len(name) for name in rows)
    head = "".join(f"  {c + '_s':>8}  {c + '_q1':>9}  {c + '_q3':>9}"
                   for c in ("wall", "import", "work"))
    lines = [f"{'run':<{width}}{head}"]
    lines += [f"{name:<{width}}" + "".join(f"  {m:8.3f}  {q1:9.3f}  {q3:9.3f}"
                                            for m, q1, q3 in times)
              for name, times in rows.items()]
    return "\n".join(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=5,
                        help="processes per run (median and quartiles)")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        runs = REFERENCES + same_outputs.workload_runs(work / "inputs")
        print(table(summaries(runs, args.repeat, work / "runs")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
