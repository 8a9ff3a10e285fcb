"""End-to-end acceptance checks, one test per criterion.

Each test prints a single PASS/FAIL line with the measured quantities before
asserting, so the verdict survives in captured output either way.
"""

import math
import time

import numpy as np

from conftest import li_yau_bound
from weylcs.cli import main
from weylcs.domains import rectangle_domain
from weylcs.frames import analytic_symbol, build_frame, forward, symbol, \
    trace_via_frame
from weylcs.operators import assemble_euclidean, assemble_hyperbolic
from weylcs.weyl import (
    build_curve,
    exact_spectrum_box,
    exact_spectrum_interval,
    fit_remainder_exponent,
    hyperbolic_leading,
    riesz_mean,
)
from weylcs.windows import c_constants, make_cosine_window, scale


def verdict(num, ok, detail):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def test_criterion_01_frame_tightness():
    t0 = time.monotonic()
    rng = np.random.default_rng(0)
    defects = []
    for d, N in ((1, 128), (2, 32)):
        win = scale(make_cosine_window(d), 0.2)
        fr = build_frame(((0.0, (N + 1) * 0.05),) * d, 0.05, win)
        worst = 0.0
        for _ in range(100):
            f = rng.standard_normal(fr.n) + 1j * rng.standard_normal(fr.n)
            nf = fr.grid_norm_sq(f)
            F = forward(fr, f)
            worst = max(worst, abs(np.sum(np.abs(F) ** 2) / fr.P ** d - nf) / nf)
        defects.append(worst)
    elapsed = time.monotonic() - t0
    ok = max(defects) <= 1e-10 and elapsed < 10.0
    assert verdict(1, ok, "parseval defects 1d=%.3e 2d=%.3e, %.1fs"
                   % (defects[0], defects[1], elapsed))


def test_criterion_02_trace_formula():
    h = math.pi / 201.0
    dom = rectangle_domain(((0.0, math.pi),), h)
    op = assemble_euclidean(dom)
    assert op.n == 200
    A = op.matrix.toarray()
    vals, vecs = np.linalg.eigh(A)
    lam = float(np.median(vals))
    T = (vecs * np.clip(lam - vals, 0.0, None)) @ vecs.T
    tr = float(np.sum(np.clip(lam - vals, 0.0, None)))

    # the frame on the operator's own nodes
    win = scale(make_cosine_window(1), 0.2)
    fr = build_frame(dom.box, h, win)
    assert fr.n == op.n
    row, col = np.nonzero(T)
    got = trace_via_frame(fr, (row, col, T[row, col]))
    rel = abs(got - tr) / tr
    assert verdict(2, rel <= 1e-10, "trace rel defect %.3e (n=200)" % rel)


def test_criterion_03_symbol_convergence():
    eps = 0.2 * math.sqrt(2.0)
    win = scale(make_cosine_window(2), eps)
    points = [((1.3, -0.7), (0.45, 0.5)),
              ((0.0, 2.0), (0.5, 0.35)),
              ((-2.1, 1.1), (0.6, 0.6)),
              ((3.0, 0.5), (0.35, 0.65)),
              ((0.7, -2.5), (0.55, 0.45))]
    errs = {}
    for h in (1 / 40, 1 / 80):
        dom = rectangle_domain(((0.0, 1.0), (0.0, 1.0)), h)
        op = assemble_hyperbolic(dom)
        fr = build_frame(((0.0, 1.0), (0.0, 1.0)), h, win)
        errs[h] = []
        for xi, y in points:
            sv = symbol(fr, op, xi, y)
            assert not sv.truncated
            errs[h].append(abs(sv.value - analytic_symbol("hyperbolic", win, xi, y)))
    ratios = [a / b for a, b in zip(errs[1 / 40], errs[1 / 80])]
    ok = all(3.0 <= r <= 5.0 for r in ratios)
    assert verdict(3, ok, "symbol error ratios " +
                   " ".join("%.3f" % r for r in ratios))


def test_criterion_04_euclidean_weyl_d1():
    spec = exact_spectrum_interval(math.pi, 1.05e4)
    lams = np.geomspace(1e2, 1e4, 40)
    curve = build_curve(spec, lams, math.pi, make_cosine_window(1))
    li_yau_ok = all(riesz_mean(spec, lam) <= li_yau_bound(math.pi, 1, lam)
                    for lam in lams)
    ratio = curve.ratio[-1]
    ok = 0.98 <= ratio <= 1.0 and li_yau_ok
    assert verdict(4, ok, "ratio(1e4)=%.7f, Li-Yau exact=%s" % (ratio, li_yau_ok))


def test_criterion_05_euclidean_weyl_d2():
    spec = exact_spectrum_box((math.pi, math.pi), 2100.0)
    lams = np.geomspace(1e2, 2e3, 25)
    vol = math.pi ** 2
    curve = build_curve(spec, lams, vol, make_cosine_window(2))
    li_yau_ok = all(riesz_mean(spec, lam) <= li_yau_bound(vol, 2, lam)
                    for lam in lams)
    ratio = curve.ratio[-1]
    ok = 0.93 <= ratio <= 1.0 and li_yau_ok
    assert verdict(5, ok, "ratio(2000)=%.7f, Li-Yau exact=%s" % (ratio, li_yau_ok))


def test_criterion_06_remainder_exponents():
    spec1 = exact_spectrum_interval(math.pi, 1.05e4)
    lams = np.geomspace(1e2, 1e4, 40)
    c1 = build_curve(spec1, lams, math.pi, make_cosine_window(1))
    slope1 = fit_remainder_exponent(c1).slope
    spec2 = exact_spectrum_box((math.pi, math.pi), 1.05e4)
    c2 = build_curve(spec2, lams, math.pi ** 2, make_cosine_window(2))
    slope2 = fit_remainder_exponent(c2).slope
    ok = slope1 <= 7.0 / 6.0 + 0.05 and slope2 <= 5.0 / 3.0 + 0.05
    assert verdict(6, ok, "slopes d1=%.4f (<=%.4f) d2=%.4f (<=%.4f)"
                   % (slope1, 7 / 6 + 0.05, slope2, 5 / 3 + 0.05))


def test_criterion_07_hyperbolic_weyl_d2(hyperbolic_square_spectrum):
    t0 = time.monotonic()
    lam = 250.0
    results = {}
    for denom in (35, 70):
        dom = rectangle_domain(((0.0, 1.0), (0.0, 1.0)), 1.0 / denom)
        spec = hyperbolic_square_spectrum(denom)
        leading = hyperbolic_leading(dom, lam)
        r = riesz_mean(spec, lam)
        results[denom] = (r / leading, abs(r - leading))
    elapsed = time.monotonic() - t0
    ratio70 = results[70][0]
    shrinks = results[70][1] < results[35][1]
    ok = 0.85 <= ratio70 <= 1.05 and shrinks and elapsed < 600.0
    assert verdict(7, ok, "ratio(h=1/70)=%.4f dev 1/35=%.3f 1/70=%.3f "
                   "shrinks=%s %.1fs"
                   % (ratio70, results[35][1], results[70][1], shrinks, elapsed))


def test_criterion_08_c_constant_scalings():
    win = make_cosine_window(2)
    sweep = (0.4, 0.2, 0.1)
    cc = {e: c_constants(scale(win, e)) for e in sweep}
    c1e2 = [cc[e].c1 * e ** 2 for e in sweep]
    c1_ok = (max(c1e2) - min(c1e2)) <= 1e-8 * c1e2[0]
    dev = [abs(cc[e].c3 - 1.0) / e for e in sweep]
    c3_ok = all(v <= 1.5 * dev[0] for v in dev)
    c2_ratio = c_constants(scale(win, 0.1)).c2 / cc[0.2].c2
    c2_ok = 3.5 <= c2_ratio <= 4.5
    ok = c1_ok and c3_ok and c2_ok
    assert verdict(8, ok, "c1*eps^2 spread %.2e, |c3-1|/eps %s, c2 ratio %.3f"
                   % (max(c1e2) - min(c1e2),
                      " ".join("%.4f" % v for v in dev), c2_ratio))


def test_criterion_09_d1_consistency(tmp_path):
    h = math.pi / 200.0
    base = ["weyl-curve", "--set", "dim=1", "--set", "box=0,%r" % math.pi,
            "--set", "h=%r" % h, "--set", "lam_min=100",
            "--set", "lam_max=10000", "--set", "lam_count=20"]
    out_e = tmp_path / "euclidean.csv"
    out_h = tmp_path / "hyperbolic.csv"
    assert main(base + ["--set", "kind=euclidean", "--out", str(out_e)]) == 0
    assert main(base + ["--set", "kind=hyperbolic", "--out", str(out_h)]) == 0

    def data_rows(path):
        return [line for line in path.read_bytes().split(b"\n")
                if not line.startswith(b"#")]

    rows_ok = data_rows(out_e) == data_rows(out_h)
    dom = rectangle_domain(((0.0, math.pi),), h)
    a = assemble_euclidean(dom).matrix
    b = assemble_hyperbolic(dom).matrix
    mat_ok = (np.array_equal(a.indptr, b.indptr)
              and np.array_equal(a.indices, b.indices)
              and np.array_equal(a.data, b.data))
    ok = rows_ok and mat_ok
    assert verdict(9, ok, "curve rows identical=%s, matrices identical=%s"
                   % (rows_ok, mat_ok))


def test_criterion_10_jensen_direction():
    rng = np.random.default_rng(123)
    worst = -np.inf
    for _ in range(1000):
        n = int(rng.integers(2, 33))
        B = rng.standard_normal((n, n))
        A = 0.5 * (B + B.T)
        e = rng.standard_normal(n)
        e /= np.linalg.norm(e)
        lam = float(rng.uniform(-3.0, 3.0))
        vals, vecs = np.linalg.eigh(A)
        T = (vecs * np.clip(lam - vals, 0.0, None)) @ vecs.T
        violation = max(lam - e @ A @ e, 0.0) - e @ T @ e
        worst = max(worst, violation)
    ok = worst <= 1e-12
    assert verdict(10, ok, "worst Jensen violation %.3e (1000 triples)" % worst)
