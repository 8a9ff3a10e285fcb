"""Batch front-end: spectrum, weyl-curve, symbol-check, frame-check.

Configuration is plain-text key=value (one per line, '#' comments); command
line flags override file values.  Every output embeds the resolved config and
library version as '#'-prefixed header lines.  Exit codes: 0 success, 1
usage, config or input error, 2 numerical certification failure; main is the
one place that turns an exception into an exit code.
"""

from __future__ import annotations

import argparse
import math
import sys
import warnings
from dataclasses import dataclass, fields

import numpy as np

from . import __version__
from .domains import _rectangle_shape, box_sides, rectangle_domain
from .eigen import CertificationError, save_spectrum, spectrum_below
from .frames import (FrameError, analytic_symbol, build_frame, phase_space_moment,
                     rayleigh_symbol, trace_via_frame)
from .operators import KINDS, assemble_euclidean, assemble_hyperbolic, weighted_axes
from .weyl import (
    LeadingOverflowError,
    build_curve,
    exact_spectrum_box,
    fit_remainder_exponent,
    save_curve,
    weighted_box_volume,
    weighted_volume,
)
from .windows import make_bump_window, make_cosine_window, scale


class ConfigError(ValueError):
    pass


@dataclass
class ExperimentConfig:
    kind: str = "euclidean"
    dim: int = 1
    box: tuple = ((0.0, math.pi),)
    h: float = math.pi / 200.0
    source: str = "exact"  # exact | discrete
    lam_min: float = 100.0
    lam_max: float = 10000.0
    lam_count: int = 40
    lam_scale: str = "log"  # log | linear
    window: str = "cosine"
    eps: float = 0.2
    frame_n: int = 128
    n_vectors: int = 100
    out: str | None = None
    seed: int = 0

    def header_lines(self):
        lines = [f"weylcs_version={__version__}"]
        for f in fields(self):
            if f.name == "out":
                # self-evident from the file location; keeping it would break
                # byte-determinism across output paths
                continue
            v = getattr(self, f.name)
            if f.name == "box":
                v = ";".join("%.17g,%.17g" % (a, b) for a, b in v)
            lines.append(f"{f.name}={v}")
        return lines


def _parse_box(text):
    try:
        return tuple((float(a), float(b))
                     for a, b in (part.split(",") for part in text.split(";")))
    except ValueError as exc:
        raise ConfigError(f"bad box spec {text!r}: need one a,b pair per axis") from exc


def _apply_kv(cfg, item, source):
    """Set a key of cfg from one 'key=value' item, both sides stripped: the
    one reader of config lines and --set values.  An item without '=' is a
    ConfigError "bad <source> <item>"."""
    if "=" not in item:
        raise ConfigError(f"bad {source} {item!r}")
    key, value = (t.strip() for t in item.split("=", 1))
    if not hasattr(cfg, key):
        raise ConfigError(f"unknown config key {key!r}")
    cur = getattr(cfg, key)
    if key == "box":
        value = _parse_box(value)
    elif isinstance(cur, (int, float)):
        try:
            value = type(cur)(value)
        except ValueError as exc:
            raise ConfigError(f"bad value {value!r} for {key}") from exc
    setattr(cfg, key, value)


def load_config(path) -> ExperimentConfig:
    cfg = ExperimentConfig()
    try:
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                line = line.split("#", 1)[0].strip()
                if line:
                    _apply_kv(cfg, line, "config line")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    return cfg


_WINDOWS = {"cosine": make_cosine_window, "bump": make_bump_window}

# the allowed values of each string-valued config key
_CHOICES = {
    "kind": KINDS,
    "window": tuple(_WINDOWS),
    "source": ("exact", "discrete"),
    "lam_scale": ("log", "linear"),
}


def _validate(cfg):
    """Check cfg before any work is done.

    The CLI's own rules come first: the string choices, finite numbers,
    positive counts, a seed >= 0 and one box axis per dimension.  Box, h,
    window and eps then pass the checks of the library functions that use
    them (domains._rectangle_shape, the window makers and windows.scale), so
    the CLI rejects what the library would, with the library's message.  A
    discrete lam_max past 1/h^2 only warns.
    """
    for key, allowed in _CHOICES.items():
        if getattr(cfg, key) not in allowed:
            raise ConfigError(f"unknown {key} {getattr(cfg, key)!r}")
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"{f.name} must be finite, got {value!r}")
    for key in ("lam_count", "frame_n", "n_vectors"):
        if getattr(cfg, key) < 1:
            raise ConfigError(f"{key} must be at least 1, got {getattr(cfg, key)!r}")
    if cfg.seed < 0:
        raise ConfigError(f"seed must be >= 0, got {cfg.seed!r}")
    if len(cfg.box) != cfg.dim:
        raise ConfigError(f"box has {len(cfg.box)} axes, dim is {cfg.dim}")
    _rectangle_shape(cfg.box, cfg.h)
    scale(_window(cfg), cfg.eps)
    if cfg.source == "discrete" and cfg.lam_max > 1.0 / cfg.h ** 2:
        print(f"warning: lambda_max {cfg.lam_max:g} exceeds the discretization "
              f"validity bound 1/h^2 = {1.0 / cfg.h ** 2:g}", file=sys.stderr)


def _window(cfg):
    return _WINDOWS[cfg.window](cfg.dim)


def _lambda_grid(cfg):
    if not 0 < cfg.lam_min <= cfg.lam_max:
        raise ConfigError("the lambda grid needs 0 < lam_min <= lam_max, "
                          f"got lam_min={cfg.lam_min!r}, lam_max={cfg.lam_max!r}")
    spacing = np.geomspace if cfg.lam_scale == "log" else np.linspace
    grid = spacing(cfg.lam_min, cfg.lam_max, cfg.lam_count)
    if np.any(np.diff(grid) <= 0.0):
        raise ConfigError(f"lam_min..lam_max leaves no room for {cfg.lam_count} "
                          "strictly increasing lambdas")
    return grid


def _operator(cfg, h):
    """The cfg.kind operator on the grid domain of cfg.box at spacing h (op.grid)."""
    # looked up per call: perfbench/tracing.py replaces both by wrappers
    assemble = {"euclidean": assemble_euclidean, "hyperbolic": assemble_hyperbolic}[cfg.kind]
    return assemble(rectangle_domain(cfg.box, h))


def cmd_spectrum(cfg) -> int:
    op = _operator(cfg, cfg.h)
    spec = spectrum_below(op, max(0.0, cfg.lam_max))
    save_spectrum(spec, cfg.out, kind=cfg.kind, h=cfg.h, extra=cfg.header_lines())
    return 0


def cmd_weyl_curve(cfg) -> int:
    lambdas = _lambda_grid(cfg)
    window = _window(cfg)
    # the volume before the spectrum: it fails at once where it overflows
    if cfg.source == "exact":
        if weighted_axes(cfg.kind, cfg.dim):
            raise ConfigError("exact spectra are euclidean-only above one dimension")
        vol = weighted_box_volume(cfg.kind, cfg.box)
        spec = exact_spectrum_box(box_sides(cfg.box), cfg.lam_max)
    else:
        op = _operator(cfg, cfg.h)
        vol = weighted_volume(cfg.kind, op.grid)
        spec = spectrum_below(op, cfg.lam_max)

    try:
        curve = build_curve(spec, lambdas, vol, window)
    except LeadingOverflowError as exc:
        raise ConfigError(f"lam_max={cfg.lam_max:g} is too large: {exc}") from exc
    except OverflowError as exc:
        raise ConfigError(f"lam_min={cfg.lam_min:g} puts the window scale "
                          "eps = lambda^(-1/3) out of range for the window constants") from exc
    try:
        fit = fit_remainder_exponent(curve)
        summary = ("remainder_fit slope=%.17g intercept=%.17g residual=%.17g"
                   % (fit.slope, fit.intercept, fit.residual))
    except ValueError as exc:
        summary = f"remainder_fit unavailable ({exc})"
    save_curve(curve, cfg.out, comments=cfg.header_lines() + [summary])
    print(summary)
    return 0


def _symbol_report(cfg):
    """Symbol errors at h and h/2 against the continuum symbol at five random points."""
    window = scale(_window(cfg), cfg.eps)
    rng = np.random.default_rng(cfg.seed)
    points = []
    for _ in range(5):
        xi = rng.uniform(-3.0, 3.0, size=cfg.dim)
        y = np.array([a + (0.35 + 0.3 * rng.random()) * (b - a) for a, b in cfg.box])
        points.append((xi, y))
    lines, errors, exact = [], [], []
    for h in (cfg.h, cfg.h / 2.0):
        op = _operator(cfg, h)
        if not exact:  # once, after the first operator, whose overflow check comes first
            exact = [analytic_symbol(cfg.kind, window, xi, y) for xi, y in points]
        values = [rayleigh_symbol(op, window, xi, y).value for xi, y in points]
        if any(math.isnan(v) for v in values):  # no interior node under a window
            raise ConfigError(f"eps={cfg.eps:g} leaves a symbol point's window without "
                              f"an interior node of the grid at h={h:g}")
        errors.append([abs(v - e) for v, e in zip(values, exact)])
        lines.append("h=%.17g max_symbol_error=%.17g" % (h, max(errors[-1])))
    ratios = [e1 / e2 if e2 > 0 else math.inf for e1, e2 in zip(*errors)]
    lines.append("error_ratios=" + " ".join("%.6g" % r for r in ratios))
    return lines


def _write_report(cfg, lines):
    with open(cfg.out, "w") as fh:
        for line in ["# " + head for head in cfg.header_lines()] + lines:
            fh.write(line + "\n")


def cmd_symbol_check(cfg) -> int:
    _write_report(cfg, _symbol_report(cfg))
    return 0


def cmd_frame_check(cfg) -> int:
    window = scale(_window(cfg), cfg.eps)
    # frame_n nodes per axis: the grid of rectangle_domain on (0, (frame_n + 1) h)
    frame = build_frame(((0.0, (cfg.frame_n + 1) * cfg.h),) * cfg.dim, cfg.h, window)
    rng = np.random.default_rng(cfg.seed)
    defect = 0.0
    for _ in range(cfg.n_vectors):
        f = rng.standard_normal(frame.n) + 1j * rng.standard_normal(frame.n)
        nf = frame.grid_norm_sq(f)
        defect = np.maximum(defect, abs(phase_space_moment(frame, f, lambda xi, y: 1.0) - nf) / nf)
    diag = rng.random(frame.n)
    tr = trace_via_frame(frame, (np.arange(frame.n), np.arange(frame.n), diag))
    trace_defect = abs(tr - diag.sum()) / diag.sum()
    if not (np.isfinite(defect) and np.isfinite(trace_defect)):
        raise FrameError(f"frame defects not finite: parseval_defect={defect:g}, "
                         f"trace_defect={trace_defect:g}")
    lines = ["parseval_defect=%.17g" % defect, "trace_defect=%.17g" % trace_defect]
    _write_report(cfg, lines + _symbol_report(cfg))
    return 0


COMMANDS = {
    "spectrum": cmd_spectrum,
    "weyl-curve": cmd_weyl_curve,
    "symbol-check": cmd_symbol_check,
    "frame-check": cmd_frame_check,
}


def build_parser():
    parser = argparse.ArgumentParser(prog="weylcs")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="key=value config file")
        p.add_argument("--out", default=None, help="output path")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override a config key (repeatable; flags win)")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # --help exits 0; usage errors exit 1, not 2
        return 1 if exc.code else 0
    # a library warning reaches the user as one line, through warnings.showwarning
    shown, warnings.formatwarning = warnings.formatwarning, lambda msg, *_: f"warning: {msg}\n"
    try:
        cfg = load_config(args.config) if args.config else ExperimentConfig()
        for item in args.set:
            _apply_kv(cfg, item, "--set value")
        if args.out is not None:
            cfg.out = args.out
        if args.seed is not None:
            cfg.seed = args.seed
        _validate(cfg)
        if cfg.out is None:
            raise ConfigError(f"{args.command} requires an output path")
        return COMMANDS[args.command](cfg)
    except (CertificationError, FrameError) as exc:
        print(f"certification failure: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError, MemoryError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        warnings.formatwarning = shown


if __name__ == "__main__":
    sys.exit(main())
