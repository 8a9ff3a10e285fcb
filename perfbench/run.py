"""weylcs benchmark: end-to-end and per-module timings of fixed workloads.

    python3 perfbench/run.py --workload box-spectrum --seed 1 --seconds 36 --trace 0

Run from the root of a source checkout (the program is imported from
``src/``).  Workloads are in workloads.py; every one is single-process and
sequential, a closed loop with one client: the next job starts only after the
previous one ends.  A pass runs the workload's jobs once, each in a fresh
process, as a user runs them.  A run makes ``--seconds`` divided by the
workload's nominal pass time passes, at least two, so the number of jobs, and
with it ``attempted`` and ``failed``, depends only on the arguments.

``--trace 0`` reports the end-to-end metrics (wall_s, setup_s, cpu_s,
peak_rss_mib).  ``--trace 1`` alternates untraced passes with passes whose
jobs run under tracing.py, and reports the per-module metrics derived from
the spans, plus the tracing overhead.

Every output is checked against an oracle (workloads.py) and against the
first pass's output: passes with the same config and seed must write
byte-identical files.  The last stdout line is one JSON object with the keys
correct, attempted, failed and metrics; everything else, with the samples and
spans, goes to .perfbench_run/<workload>-seed<seed>-trace<trace>/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".perfbench_run"
SETUP_FIRST = 3  # set-up samples before the first pass, which they also warm up
SETUP_SPREAD = 2  # set-up samples spread evenly over the run, between passes
HARD_LIMIT_S = 170.0  # a run must end within 180 s, jobs are killed before
# One thread: measured back to back on a 2-vCPU shared host, the import alone
# took 0.7-1.0 s with two threads and 0.56-0.62 s with one, and with two a
# stall of either vCPU stalls the job.
BLAS_THREADS = 1

# fixed before numpy loads, here and in every job
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def job_env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def git_commit():
    """Commit of the checkout, read from .git without leaving it; None if absent."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed):
    import numpy
    import scipy

    def blas_version(mod):
        try:
            return mod.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version")
        except (TypeError, KeyError):
            return None

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "numpy_openblas": blas_version(numpy),
            "scipy_openblas": blas_version(scipy), "nproc": len(os.sched_getaffinity(0)),
            "blas_threads": BLAS_THREADS, "commit": git_commit(), "seed": seed,
            "machine": platform.machine()}


def run_process(argv, env, stdout, stderr, deadline):
    """Wall time, CPU time and peak RSS of one child; killed at the deadline."""
    with open(stdout, "w") as so, open(stderr, "w") as se:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=so, stderr=se)
        timer = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted or terminated: leave no job behind
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime,
            "rss_mib": usage.ru_maxrss / 1024.0, "returncode": proc.returncode}


def measure_setup(env, run_dir, deadline, samples):
    """Append the wall time of a process that only imports weylcs.cli."""
    src = (ROOT / "src").resolve()
    code = "import weylcs.cli; print(weylcs.cli.__file__)"
    i = len(samples)
    out, err = run_dir / f"setup-{i}.stdout", run_dir / f"setup-{i}.stderr"
    res = run_process([sys.executable, "-c", code], env, out, err, deadline)
    loaded = Path(out.read_text().strip() or ".").resolve()
    if res["returncode"] != 0 or src not in loaded.parents:
        raise SystemExit(f"error: weylcs.cli does not import from {src}:\n" + err.read_text())
    samples.append(res["wall_s"])


def job_argv(job, traced, spans, pass_id):
    if traced:
        return [sys.executable, str(BENCH / "tracing.py"), "--spans", str(spans),
                "--job", job.name, "--pass", str(pass_id), job.target, *job.args]
    if job.target == "cli":
        return [sys.executable, "-m", "weylcs", *job.args]
    return [sys.executable, str(BENCH / "mask_count.py"), *job.args]


def run_pass(workload, pass_id, traced, env, run_dir, deadline):
    pass_dir = run_dir / f"pass-{pass_id:03d}"
    pass_dir.mkdir()
    jobs = []
    t0 = time.perf_counter()
    for job in workload.jobs(pass_dir):
        spans = pass_dir / f"{job.name}.spans.json"
        res = run_process(job_argv(job, traced, spans, pass_id), env,
                          pass_dir / f"{job.name}.stdout", pass_dir / f"{job.name}.stderr",
                          deadline)
        jobs.append({"job": job, "spans": spans, **res})
    wall = time.perf_counter() - t0
    for j in jobs:
        j["spans"] = json.loads(j["spans"].read_text()) if j["spans"].is_file() else []
    return {"pass": pass_id, "traced": traced, "wall_s": wall,
            "cpu_s": sum(j["cpu_s"] for j in jobs), "jobs": jobs}


def run_passes(workload, trace, seconds, env, run_dir, deadline, setup):
    """Closed loop: a fixed number of passes back to back.

    Set-up samples are taken between passes, so that they cover the whole
    run and not only its first seconds.
    """
    count = max(2, round(seconds / workload.pass_s))
    passes = []
    while len(passes) < count:
        if passes and time.monotonic() + max(p["wall_s"] for p in passes) > deadline:
            break  # a host far slower than usual: end within the time limit
        passes.append(run_pass(workload, len(passes), is_traced(trace, len(passes)),
                               env, run_dir, deadline))
        while len(setup) < SETUP_FIRST + round(SETUP_SPREAD * len(passes) / count):
            measure_setup(env, run_dir, deadline, setup)
    return passes


def is_traced(trace, pass_id):
    """Traced runs alternate untraced and traced passes, untraced first."""
    return bool(trace) and pass_id % 2 == 1


def check_passes(workload, passes):
    """Problems of each job run: exit code, traceback, oracle, byte determinism."""
    first_digest = {}
    for p in passes:
        for j in p["jobs"]:
            job, problems = j["job"], []
            stderr = (job.out.parent / f"{job.name}.stderr").read_text()
            stdout = (job.out.parent / f"{job.name}.stdout").read_text()
            if j["returncode"] != 0:
                problems.append(("exit", f"exit code {j['returncode']}"))
            if "Traceback" in stderr:
                problems.append(("traceback", "Traceback on stderr"))
            if not job.out.is_file():
                problems.append(("oracle", "no output file"))
            else:
                try:
                    problems += [("oracle", m) for m in workload.check(job, stdout)]
                except (ValueError, KeyError, IndexError) as exc:
                    problems.append(("oracle", f"unreadable output: {exc!r}"))
                digest = hashlib.sha256(job.out.read_bytes()).hexdigest()
                j["sha256"] = digest
                ref = first_digest.setdefault(job.name, (p["pass"], digest))
                if ref[1] != digest:
                    problems.append(("determinism",
                                     f"output differs from pass {ref[0]} ({digest[:12]} != "
                                     f"{ref[1][:12]})"))
            j["problems"] = problems


def tail_percentile(samples):
    """Highest percentile with at least ten samples beyond it, or None."""
    n = len(samples)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, sorted(samples)[n - 11]


def describe(name, samples, unit):
    tail = tail_percentile(samples)
    tail_text = ("p%.0f %.4f %s" % (tail[0], tail[1], unit) if tail
                 else "no tail percentile (needs 11 samples)")
    return (f"{name}: median {statistics.median(samples):.4f} {unit}, {tail_text}, "
            f"{len(samples)} samples")


def end_to_end(passes, setup):
    jobs = [j for p in passes for j in p["jobs"]]
    return {"wall_s": statistics.median(p["wall_s"] for p in passes),
            "setup_s": statistics.median(setup),
            "cpu_s": statistics.median(p["cpu_s"] for p in passes),
            "peak_rss_mib": max(j["rss_mib"] for j in jobs)}


def per_layer(passes):
    traced = [p for p in passes if p["traced"]]
    per_pass = [tracing.layer_metrics([j["spans"] for j in p["jobs"]]) for p in traced]
    out = {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
    untraced = [p["wall_s"] for p in passes if not p["traced"]]
    out["trace.overhead_s"] = (statistics.median(p["wall_s"] for p in traced)
                               - statistics.median(untraced))
    return out, per_pass


def declared_units(trace):
    """Metric names and units, in order, as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None):
    parser = argparse.ArgumentParser(description="weylcs benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + HARD_LIMIT_S
    # SIGTERM unwinds like an exception, so the running job is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "weylcs" / "__init__.py").is_file():
        print(f"error: no weylcs sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    env = job_env()
    run_dir = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)

    t0 = time.perf_counter()
    workload = WORKLOADS[args.workload](args.seed, run_dir)  # inputs and oracle references
    reference_s = time.perf_counter() - t0
    # also the warm-up: the imports fill the file cache before the first pass
    setup = []
    for _ in range(SETUP_FIRST):
        measure_setup(env, run_dir, deadline, setup)
    passes = run_passes(workload, args.trace, args.seconds, env, run_dir, deadline, setup)
    check_passes(workload, passes)

    runs = [j for p in passes for j in p["jobs"]]
    failed = [j for j in runs if j["problems"]]
    wrong = [j for j in runs if any(kind != "determinism" for kind, _ in j["problems"])]
    if args.trace:
        metrics, per_pass = per_layer(passes)
    else:
        metrics, per_pass = end_to_end(passes, setup), None
    env_record = environment(args.seed)

    print("env " + json.dumps(env_record, sort_keys=True))
    print(f"workload {args.workload}: {len(passes)} passes of {len(passes[0]['jobs'])} jobs, "
          f"closed loop, 1 client, reference set-up {reference_s:.3f} s")
    untraced = [p for p in passes if not p["traced"]]
    print(describe("wall_s", [p["wall_s"] for p in untraced], "s"))
    print(describe("cpu_s", [p["cpu_s"] for p in untraced], "s"))
    print(describe("setup_s", setup, "s"))
    for name in sorted({j["job"].name for j in runs}):
        print(describe(f"job {name} wall", [j["wall_s"] for p in untraced for j in p["jobs"]
                                            if j["job"].name == name], "s"))
    kinds = {}
    for j in failed:
        for kind, _ in j["problems"]:
            kinds[kind] = kinds.get(kind, 0) + 1
    print(f"fail_frac: {len(failed)}/{len(runs)} = {len(failed) / len(runs):.4f} "
          f"(problems by kind: {json.dumps(kinds, sort_keys=True)})")
    for j in failed:
        for kind, message in j["problems"]:
            print(f"  {j['job'].name} [{kind}]: {message}")

    record = {"args": vars(args), "env": env_record, "setup_samples_s": setup,
              "reference_s": reference_s, "metrics": metrics, "per_pass_layers": per_pass,
              "passes": [{**p, "jobs": [{**{k: v for k, v in j.items() if k not in ("job", "spans")},
                                         "name": j["job"].name} for j in p["jobs"]]}
                         for p in passes]}
    (run_dir / "record.json").write_text(json.dumps(record, indent=1, default=str))
    if args.trace:
        (run_dir / "spans.json").write_text(json.dumps([s for j in runs for s in j["spans"]]))

    units = declared_units(args.trace)
    if set(units) != set(metrics):
        raise RuntimeError(f"metrics {sorted(metrics)} differ from BENCHMARK.json {sorted(units)}")
    print(json.dumps({"correct": not wrong, "attempted": len(runs), "failed": len(failed),
                      "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
