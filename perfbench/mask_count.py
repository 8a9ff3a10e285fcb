"""mask-count workload: inertia counts on a general (non-box) mask.

The CLI only accepts boxes, so this is a library script, run the way a user
runs one:

    PYTHONPATH=src python3 perfbench/mask_count.py --input IN.json --out OUT.txt

IN.json holds the generated inputs: ``lambdas`` (the count sweep, first entry
250), ``points`` (phase-space points [xi1, xi2, y1, y2]).  The script takes a
disk of radius 0.45 in (0,1)^2 at h = 1/70, builds the shrunk and fattened
sets Omega_eps and Omega^eps (eps = 0.05), assembles the hyperbolic operator
on all three, counts eigenvalues below each lambda, computes the certified
partial spectrum of Omega below 250 and the discrete symbol at each point.
"""

from __future__ import annotations

import argparse
import json
import sys

from weylcs import domains, eigen, frames, operators, windows

H = 1.0 / 70.0
CENTER = (0.5, 0.5)
RADIUS = 0.45
EPS = 0.05
SPECTRUM_LAMBDA = 250.0
WINDOW_EPS = 0.1
SETS = ("inner", "omega", "outer")


def disk_domain(h):
    box = domains.rectangle_domain(((0.0, 1.0), (0.0, 1.0)), h)
    x = box.axis_coords(0)[:, None] - CENTER[0]
    y = box.axis_coords(1)[None, :] - CENTER[1]
    mask = box.mask & (x * x + y * y < RADIUS * RADIUS)
    return domains.GridDomain(h=h, origin=box.origin, mask=mask, box=box.box)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--input", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    with open(args.input) as fh:
        inputs = json.load(fh)
    lambdas = [float(v) for v in inputs["lambdas"]]

    omega = disk_domain(H)
    doms = {"inner": domains.erode(omega, EPS), "omega": omega,
            "outer": domains.dilate(omega, EPS)}
    ops = {k: operators.assemble_hyperbolic(d) for k, d in doms.items()}
    counts = {k: [eigen.count_below(ops[k], lam) for lam in lambdas] for k in SETS}
    spec = eigen.spectrum_below(ops["omega"], SPECTRUM_LAMBDA)
    frame = frames.build_frame(((0.0, 1.0), (0.0, 1.0)), H,
                               windows.scale(windows.make_cosine_window(2), WINDOW_EPS))
    symbols = [frames.symbol(frame, ops["omega"], p[:2], p[2:]) for p in inputs["points"]]

    with open(args.out, "w") as fh:
        fh.write("# weylcs mask-count v1\n")
        fh.write("nodes " + " ".join(f"{k}={ops[k].n}" for k in SETS) + "\n")
        for i, lam in enumerate(lambdas):
            fh.write("count lambda=%.17g " % lam
                     + " ".join(f"{k}={counts[k][i]}" for k in SETS) + "\n")
        fh.write("spectrum cutoff=%.17g certified=%s\n"
                 % (SPECTRUM_LAMBDA, str(spec.certified).lower()))
        for v in spec.values:
            fh.write("eig %.17g\n" % v)
        for p, s in zip(inputs["points"], symbols):
            fh.write("symbol point=%s value=%.17g truncated=%d\n"
                     % (",".join("%.17g" % c for c in p), s.value, s.truncated))
    return 0


if __name__ == "__main__":
    sys.exit(main())
