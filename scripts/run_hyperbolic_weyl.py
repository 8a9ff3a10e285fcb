#!/usr/bin/env python3
"""Discrete-spectrum Weyl curve for H = -d^2/dx1^2 - e^{2 x1} Lap_tilde.

Assembles the operator on (0,1)^2, computes the certified spectrum below
lam_max, and compares Riesz means against the closed-form leading term at
each lambda.
"""

import argparse
import sys

import numpy as np

from weylcs.domains import rectangle_domain
from weylcs.eigen import spectrum_below
from weylcs.operators import assemble_hyperbolic
from weylcs.weyl import build_curve, hyperbolic_leading, save_curve
from weylcs.windows import make_cosine_window


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--h", type=float, default=1 / 70)
    ap.add_argument("--lam-min", type=float, default=20.0)
    ap.add_argument("--lam-max", type=float, default=250.0)
    ap.add_argument("--count", type=int, default=24)
    ap.add_argument("--out", default="hyperbolic_weyl_d2.csv")
    args = ap.parse_args()

    dom = rectangle_domain(((0.0, 1.0), (0.0, 1.0)), args.h)
    op = assemble_hyperbolic(dom)
    print(f"assembled n={op.n} at h={args.h:g}; spectrum below {args.lam_max:g}...")
    spec = spectrum_below(op, args.lam_max)
    lams = np.geomspace(args.lam_min, args.lam_max, args.count)
    curve = build_curve(spec, lams, lambda lam: hyperbolic_leading(dom, lam),
                        window=make_cosine_window(2),
                        meta={"kind": "hyperbolic", "h": args.h})
    save_curve(curve, args.out, comments=[f"h={args.h!r}"])
    print(f"ratio at lambda={lams[-1]:g}: {curve.ratio[-1]:.4f} -> {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
