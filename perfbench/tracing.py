"""In-process spans around the public functions of each weylcs module.

Run as a job wrapper:

    python3 perfbench/tracing.py --spans OUT.json --job NAME --pass K cli ARGS...
    python3 perfbench/tracing.py --spans OUT.json --job NAME --pass K mask ARGS...

It imports weylcs, installs the wrappers, calls ``weylcs.cli.main(ARGS)`` (or
the mask-count library script's ``main``), keeps every span in memory and
writes them to OUT.json when the job ends.  Each job runs in a fresh process,
exactly like the untraced job, so the traced and untraced runs differ only by
the wrappers.

``cli.py`` binds imported names (``from .eigen import spectrum_below``), so a
wrapper replaces every binding of the original function object in every
loaded weylcs module, not only the defining one.  Nested calls therefore come
out as parent and child spans (``spectrum_below`` -> ``count_below``).

``layer_metrics`` turns the spans of one pass into the per-module metrics.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
import warnings

# (defining module, function, span name).  The tables below map span names to
# per-module metrics.
TARGETS = [
    ("weylcs.cli", "main", "cli.main"),
    ("weylcs.domains", "rectangle_domain", "domains.rectangle_domain"),
    ("weylcs.domains", "erode", "domains.erode"),
    ("weylcs.domains", "dilate", "domains.dilate"),
    ("weylcs.operators", "assemble_euclidean", "operators.assemble_euclidean"),
    ("weylcs.operators", "assemble_hyperbolic", "operators.assemble_hyperbolic"),
    ("weylcs.eigen", "count_below", "eigen.count_below"),
    ("weylcs.eigen", "spectrum_below", "eigen.spectrum_below"),
    ("weylcs.eigen", "dense_spectrum", "eigen.dense_spectrum"),
    ("weylcs.frames", "build_frame", "frames.build_frame"),
    ("weylcs.frames", "forward", "frames.forward"),
    ("weylcs.frames", "adjoint", "frames.adjoint"),
    ("weylcs.frames", "trace_via_frame", "frames.trace_via_frame"),
    ("weylcs.frames", "symbol", "frames.symbol"),
    ("weylcs.weyl", "build_curve", "weyl.build_curve"),
    ("weylcs.weyl", "riesz_mean", "weyl.riesz_mean"),
    ("weylcs.weyl", "hyperbolic_leading", "weyl.hyperbolic_leading"),
    ("weylcs.weyl", "euclidean_leading", "weyl.euclidean_leading"),
    ("weylcs.weyl", "fit_remainder_exponent", "weyl.fit_remainder_exponent"),
    ("weylcs.windows", "c_constants", "windows.c_constants"),
]

# metric -> span names whose self time it sums
SELF_TIME_GROUPS = {
    "cli.main.self_s": ["cli.main"],
    "domains.build.self_s": ["domains.rectangle_domain", "domains.erode", "domains.dilate"],
    "operators.assemble.self_s": ["operators.assemble_euclidean",
                                  "operators.assemble_hyperbolic"],
    "eigen.count_below.self_s": ["eigen.count_below"],
    "eigen.spectrum_below.self_s": ["eigen.spectrum_below"],
    "eigen.dense_spectrum.self_s": ["eigen.dense_spectrum"],
    "frames.forward.self_s": ["frames.forward"],
    "frames.adjoint.self_s": ["frames.adjoint"],
    "frames.trace.self_s": ["frames.trace_via_frame"],
    "frames.symbol.self_s": ["frames.symbol"],
    "weyl.build_curve.self_s": ["weyl.build_curve"],
    "weyl.leading.self_s": ["weyl.hyperbolic_leading", "weyl.euclidean_leading"],
    "weyl.fit.self_s": ["weyl.fit_remainder_exponent"],
    "windows.c_constants.self_s": ["windows.c_constants"],
}

# metric -> span name whose calls it counts
CALL_COUNTS = {
    "eigen.count_below.calls": "eigen.count_below",
    "frames.forward.calls": "frames.forward",
    "frames.symbol.calls": "frames.symbol",
    "weyl.riesz_mean.calls": "weyl.riesz_mean",
    "windows.c_constants.calls": "windows.c_constants",
}

# metric -> span attribute it sums (attributes are computed from the inputs
# and outputs of the wrapped call, see _attrs)
ATTR_SUMS = {
    "cli.out_bytes": "out_bytes",
    "domains.nodes": "nodes",
    "operators.n": "n",
    "operators.nnz": "nnz",
    "eigen.certified_eigs": "certified_eigs",
    "eigen.dense_bytes": "dense_bytes",
    "eigen.shift_retries": "shift_retries",
    "eigen.cert_failures": "cert_failures",
    "frames.trace_bytes": "trace_bytes",
}

SHIFT_WARNING = "count_below: shift perturbed"


def _attrs(name, args, kwargs, result, exc):
    """Counts computed from a wrapped call's inputs and outputs."""
    if exc is not None:
        if name == "eigen.spectrum_below" and type(exc).__name__ == "CertificationError":
            return {"cert_failures": 1}
        return {}
    if name == "cli.main":
        argv = list(args[0])
        out = argv[argv.index("--out") + 1] if "--out" in argv else None
        return {"out_bytes": os.path.getsize(out)} if out and os.path.exists(out) else {}
    if name.startswith("domains."):
        return {"nodes": int(result.mask.sum())}
    if name.startswith("operators."):
        return {"n": int(result.n), "nnz": int(result.matrix.nnz)}
    if name in ("eigen.spectrum_below", "eigen.dense_spectrum") and result.certified:
        return {"certified_eigs": int(len(result.values))}
    if name == "frames.build_frame":
        return {"frame_n": int(result.n),
                "support_nodes": int((result.g_grid != 0).sum())}
    if name == "frames.trace_via_frame":
        # computed: the y-loop sweeps the densified n x n float64 T once per
        # y position, and there are n y positions
        n = int(args[0].n)
        return {"trace_bytes": n * n * n * 8}
    return {}


class Tracer:
    """Spans (id, name, start, end, parent, pass, job, attrs) kept in memory."""

    def __init__(self, pass_id, job):
        self.pass_id = pass_id
        self.job = job
        self.spans = []
        self.stack = []

    def _open(self, name):
        span = {"id": len(self.spans), "name": name, "start": time.perf_counter(),
                "end": None, "parent": self.stack[-1] if self.stack else None,
                "pass": self.pass_id, "job": self.job, "attrs": {}}
        self.spans.append(span)
        self.stack.append(span["id"])
        return span

    def _close(self, span):
        span["end"] = time.perf_counter()
        self.stack.pop()

    def current(self):
        return self.spans[self.stack[-1]] if self.stack else None

    def add(self, key, value):
        """Add to an attribute of the innermost open span."""
        span = self.current()
        if span is not None:
            span["attrs"][key] = span["attrs"].get(key, 0) + value

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._close(span)
                span["attrs"].update(_attrs(name, args, kwargs, None, exc))
                raise
            self._close(span)
            span["attrs"].update(_attrs(name, args, kwargs, result, None))
            return result
        return wrapper

    @staticmethod
    def _rebind(original, replacement, modules):
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)

    def install(self, extra_modules=()):
        import scipy.linalg

        import weylcs.cli  # noqa: F401  (loads every weylcs module)

        modules = [m for k, m in sys.modules.items()
                   if k == "weylcs" or k.startswith("weylcs.")] + list(extra_modules)
        for mod_name, fn_name, span_name in TARGETS:
            original = getattr(sys.modules[mod_name], fn_name)
            self._rebind(original, self.wrap(span_name, original), modules)
        # computed n^2 * 8 bytes per dense operand factorized or diagonalized
        # inside an eigen span
        for fn_name in ("ldl", "eigvalsh"):
            original = getattr(scipy.linalg, fn_name)
            self._rebind(original, self._dense_counter(original), [scipy.linalg])
        # "always": the default filter would hide a repeated message
        warnings.simplefilter("always")
        self._showwarning = warnings.showwarning
        warnings.showwarning = self._count_warning

    def _dense_counter(self, fn):
        @functools.wraps(fn)
        def counted(a, *args, **kwargs):
            span = self.current()
            if span is not None and span["name"].startswith("eigen."):
                shape = getattr(a, "shape", ())
                if len(shape) == 2:
                    self.add("dense_bytes", int(shape[0]) * int(shape[1]) * 8)
            return fn(a, *args, **kwargs)
        return counted

    def _count_warning(self, message, category, filename, lineno, file=None, line=None):
        if str(message).startswith(SHIFT_WARNING):
            self.add("shift_retries", 1)
        self._showwarning(message, category, filename, lineno, file, line)


def _self_times(spans):
    child = {}
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] = child.get(s["parent"], 0.0) + (s["end"] - s["start"])
    return {s["id"]: (s["end"] - s["start"]) - child.get(s["id"], 0.0) for s in spans}


def layer_metrics(jobs_spans):
    """Per-module metrics of one pass; jobs_spans holds one span list per job."""
    out = {name: 0.0 for name in SELF_TIME_GROUPS}
    out.update({name: 0 for name in list(CALL_COUNTS) + list(ATTR_SUMS)})
    frame_n = support = 0
    for spans in jobs_spans:
        selft = _self_times(spans)
        for s in spans:
            for metric, names in SELF_TIME_GROUPS.items():
                if s["name"] in names:
                    out[metric] += selft[s["id"]]
            for metric, name in CALL_COUNTS.items():
                if s["name"] == name:
                    out[metric] += 1
            for metric, key in ATTR_SUMS.items():
                out[metric] += s["attrs"].get(key, 0)
            if s["name"] == "frames.build_frame" and s["attrs"]["frame_n"] > frame_n:
                frame_n = s["attrs"]["frame_n"]
                support = s["attrs"]["support_nodes"]
    out["frames.n"] = frame_n
    # useful share of each y-term: window support nodes / n
    out["frames.support_frac"] = support / frame_n if frame_n else 0.0
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description="run one weylcs job with spans")
    parser.add_argument("--spans", required=True, help="where to write the spans")
    parser.add_argument("--job", required=True)
    parser.add_argument("--pass", type=int, required=True, dest="pass_id")
    parser.add_argument("target", choices=("cli", "mask"))
    parser.add_argument("args", nargs=argparse.REMAINDER)
    opts = parser.parse_args(argv)
    tracer = Tracer(opts.pass_id, opts.job)
    if opts.target == "mask":
        import mask_count  # next to this file, so on sys.path

        tracer.install([mask_count])
        entry = mask_count.main
    else:
        tracer.install()
        import weylcs.cli

        entry = weylcs.cli.main
    try:
        return entry(opts.args)
    finally:
        with open(opts.spans, "w") as fh:
            json.dump(tracer.spans, fh)


if __name__ == "__main__":
    sys.exit(main())
