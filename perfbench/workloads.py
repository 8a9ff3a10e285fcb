"""The benchmark's workloads: their jobs, generated inputs and output oracles.

Every oracle uses numpy and scipy only, never weylcs, so a defect in the code
under test cannot also hide in its check.  ``check`` returns a list of
problems; an empty list means the output is correct.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.linalg import eigvalsh, eigvalsh_tridiagonal
from scipy.spatial import cKDTree

H_BOX = 1.0 / 70.0  # n = 69^2 = 4761 on the unit square
BOX = "box=0,1;0,1"


@dataclass(frozen=True)
class Job:
    name: str
    target: str  # "cli": python -m weylcs ARGS; "mask": perfbench/mask_count.py ARGS
    args: tuple
    out: Path


def _close(got, want, rtol, atol=0.0):
    return abs(got - want) <= atol + rtol * abs(want)


def _read_values(path):
    """Header dict and float body of a weylcs spectrum file."""
    header, values = {}, []
    for line in Path(path).read_text().splitlines():
        if line.startswith("#"):
            body = line[1:].strip()
            if "=" in body:
                k, v = body.split("=", 1)
                header[k.strip()] = v.strip()
        elif line.strip():
            values.append(float(line))
    return header, np.asarray(values)


def _check_spectrum(path, reference, cutoff, seed):
    header, vals = _read_values(path)
    problems = []
    if header.get("certified") != "true":
        problems.append("spectrum not certified")
    if header.get("seed") != str(seed):
        problems.append(f"header seed {header.get('seed')!r} != {seed}")
    want = reference[reference < cutoff]
    if len(vals) != len(want):
        return problems + [f"{len(vals)} eigenvalues below {cutoff:g}, reference has {len(want)}"]
    if np.any(np.diff(vals) < 0):
        problems.append("eigenvalues not nondecreasing")
    err = np.max(np.abs(vals - want) / np.maximum(1.0, np.abs(want)), initial=0.0)
    if err > 1e-9:
        problems.append(f"eigenvalues differ from reference by {err:.3g} (relative)")
    return problems


def _dirichlet_modes(h):
    """Eigenvalues 4/h^2 sin^2(k pi h/2), k = 1..m, of the 1-D second difference on (0,1)."""
    m = int(round(1.0 / h)) - 1
    k = np.arange(1, m + 1)
    return 4.0 / h ** 2 * np.sin(k * math.pi * h / 2.0) ** 2


def euclidean_box_reference(h):
    """Closed-form spectrum of the 2-D discrete Dirichlet Laplacian on (0,1)^2."""
    mu = _dirichlet_modes(h)
    return np.sort((mu[:, None] + mu[None, :]).ravel())


def hyperbolic_box_reference(h):
    """Separable spectrum of -d^2/dx1^2 - e^{2x1} Lap_tilde on (0,1)^2.

    On a box the operator is A1 (x) I + diag(e^{2 x1}) (x) A_tilde; in the
    sine basis of the tilde axis it splits into one tridiagonal
    A1 + mu * diag(e^{2 x1}) per tilde mode mu.
    """
    mu = _dirichlet_modes(h)
    m = len(mu)
    x1 = h * np.arange(1, m + 1)
    off = np.full(m - 1, -1.0 / h ** 2)
    blocks = [eigvalsh_tridiagonal(2.0 / h ** 2 + m_k * np.exp(2.0 * x1), off) for m_k in mu]
    return np.sort(np.concatenate(blocks))


def hyperbolic_mask_dense(mask, h):
    """Dense Dirichlet hyperbolic operator on the true nodes of a mask over the
    interior lattice of (0,1)^2 (node [i, j] at ((i+1)h, (j+1)h)).

    Every node gets w on the diagonal for each of its 4 edges; an edge between
    two true nodes adds -w off the diagonal.  w = 1/h^2 along x1 and
    e^{2 x1}/h^2 along x2.
    """
    n = int(mask.sum())
    row = -np.ones(mask.shape, dtype=int)
    row[mask] = np.arange(n)
    i, j = np.nonzero(mask)
    w_tilde = np.exp(2.0 * h * (i + 1)) / h ** 2
    a = np.diag(2.0 / h ** 2 + 2.0 * w_tilde)
    for (di, dj), w in (((1, 0), np.full(n, 1.0 / h ** 2)), ((0, 1), w_tilde)):
        ni, nj = i + di, j + dj
        inside = (ni < mask.shape[0]) & (nj < mask.shape[1])
        nb = np.full(n, -1)
        nb[inside] = row[ni[inside], nj[inside]]
        edge = nb >= 0
        a[np.arange(n)[edge], nb[edge]] = -w[edge]
        a[nb[edge], np.arange(n)[edge]] = -w[edge]
    return a


class BoxSpectrum:
    """The CLI jobs, all on boxes: two certified partial spectra and a discrete
    Weyl curve on the unit square, and the frame check.

    The frame check runs here and not as a workload of its own: alone, its
    runs were the least steady, because its short FFT-bound job slows by up
    to a third while a neighbour on the host is busy, and a run long enough
    to average that out did not fit the time all runs must share.
    """

    name = "box-spectrum"
    pass_s = 19.0  # nominal pass wall time on a 2-vCPU VM; sets the pass count (run.py)
    CURVE = dict(lam_min=20.0, lam_max=250.0, lam_count=24)
    FRAME = ("--set", "dim=2", "--set", "frame_n=20", "--set", "h=0.05",
             "--set", "box=0,1.6;0,1.6")

    def __init__(self, seed, run_dir):
        self.seed = seed
        self.hyperbolic = hyperbolic_box_reference(H_BOX)
        self.euclidean = euclidean_box_reference(H_BOX)

    def jobs(self, out_dir):
        common = ("--set", "dim=2", "--set", BOX, "--set", "h=%r" % H_BOX,
                  "--seed", str(self.seed))
        curve = tuple(a for k, v in self.CURVE.items() for a in ("--set", f"{k}={v:g}"))
        return [
            Job("spectrum-hyperbolic", "cli",
                ("spectrum", *common, "--set", "kind=hyperbolic", "--set", "lam_max=250",
                 "--out", str(out_dir / "spectrum-hyperbolic.txt")),
                out_dir / "spectrum-hyperbolic.txt"),
            Job("spectrum-euclidean", "cli",
                ("spectrum", *common, "--set", "kind=euclidean", "--set", "lam_max=2000",
                 "--out", str(out_dir / "spectrum-euclidean.txt")),
                out_dir / "spectrum-euclidean.txt"),
            Job("weyl-curve", "cli",
                ("weyl-curve", *common, "--set", "kind=hyperbolic", "--set", "source=discrete",
                 *curve, "--out", str(out_dir / "curve.csv")),
                out_dir / "curve.csv"),
            Job("frame-check", "cli",
                ("frame-check", *self.FRAME, "--seed", str(self.seed),
                 "--out", str(out_dir / "frame.txt")),
                out_dir / "frame.txt"),
        ]

    def check(self, job, stdout):
        if job.name == "spectrum-hyperbolic":
            return _check_spectrum(job.out, self.hyperbolic, 250.0, self.seed)
        if job.name == "spectrum-euclidean":
            return _check_spectrum(job.out, self.euclidean, 2000.0, self.seed)
        if job.name == "frame-check":
            return self._check_frame(job.out)
        return self._check_curve(job.out, stdout)

    def _check_curve(self, path, stdout):
        lines = [ln for ln in Path(path).read_text().splitlines() if not ln.startswith("#")]
        if not lines or lines[0] != "lambda,riesz,leading,remainder,ratio,epsilon,c1,c2,c3":
            return ["curve header missing or wrong"]
        rows = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
        c = self.CURVE
        lambdas = np.geomspace(c["lam_min"], c["lam_max"], c["lam_count"])
        if rows.shape != (len(lambdas), 9):
            return [f"curve has shape {rows.shape}"]
        problems = []
        if not np.allclose(rows[:, 0], lambdas, rtol=1e-12, atol=0.0):
            problems.append("curve lambda grid differs from geomspace(20, 250, 24)")
        ref = self.hyperbolic
        for lam, riesz, leading in rows[:, :3]:
            want = float(np.sum(lam - ref[ref < lam]))
            if not _close(riesz, want, 1e-9, 1e-8):
                problems.append(f"riesz({lam:.6g}) = {riesz!r}, reference {want!r}")
            # C_2 (1 - e^{-1}) lam^2 / (2 pi)^2 with C_2 = pi/2
            lead = math.pi / 2.0 * (1.0 - math.exp(-1.0)) * lam ** 2 / (2.0 * math.pi) ** 2
            if not _close(leading, lead, 1e-12):
                problems.append(f"leading({lam:.6g}) = {leading!r}, closed form {lead!r}")
        if not stdout.startswith("remainder_fit slope="):
            problems.append("weyl-curve printed no remainder fit")
        return problems

    def _check_frame(self, path):
        fields = {}
        for line in Path(path).read_text().splitlines():
            body = line.lstrip("# ")
            key, sep, value = body.partition("=")
            if sep and " " not in key:
                fields[key] = value
        problems = []
        if fields.get("seed") != str(self.seed):
            problems.append(f"header seed {fields.get('seed')!r} != {self.seed}")
        for key in ("parseval_defect", "trace_defect"):
            value = float(fields.get(key, "nan"))
            if not value <= 1e-10:
                problems.append(f"{key}={value!r} exceeds 1e-10")
        if "error_ratios" not in fields:
            problems.append("symbol error ratios missing")
        return problems


class MaskCount:
    """Library script on a disk mask: inertia counts on Omega_eps, Omega, Omega^eps."""

    name = "mask-count"
    pass_s = 9.5  # nominal pass wall time on a 2-vCPU VM; sets the pass count (run.py)
    H = 1.0 / 70.0
    CENTER = (0.5, 0.5)
    RADIUS = 0.45
    EPS = 0.05
    WINDOW_RADIUS = 0.1  # cosine window support radius at eps = 0.1
    N_POINTS = 200

    def __init__(self, seed, run_dir):
        rng = np.random.default_rng(seed)
        self.lambdas = [250.0] + sorted(float(v) for v in rng.uniform(250.0, 2000.0, 3))
        r = 0.44 * np.sqrt(rng.random(self.N_POINTS))
        theta = 2.0 * math.pi * rng.random(self.N_POINTS)
        xi = rng.uniform(-30.0, 30.0, size=(self.N_POINTS, 2))
        y = np.stack([self.CENTER[0] + r * np.cos(theta),
                      self.CENTER[1] + r * np.sin(theta)], axis=1)
        self.points = np.concatenate([xi, y], axis=1).tolist()
        self.input = Path(run_dir) / "mask-inputs.json"
        self.input.write_text(json.dumps({"lambdas": self.lambdas, "points": self.points}))
        m = int(round(1.0 / self.H)) - 1
        c = self.H * np.arange(1, m + 1)
        dx, dy = c[:, None] - self.CENTER[0], c[None, :] - self.CENTER[1]
        disk = dx * dx + dy * dy < self.RADIUS ** 2
        self.disk_nodes = int(disk.sum())
        self.omega_spectrum = eigvalsh(hyperbolic_mask_dense(disk, self.H))
        # Omega_eps: disk nodes farther than eps from every other lattice node
        # (no lattice distance equals eps = 3.5h, so there are no ties)
        lattice = self.H * np.stack(np.meshgrid(np.arange(-1, m + 3), np.arange(-1, m + 3),
                                                indexing="ij"), axis=-1)
        in_disk = np.zeros(lattice.shape[:2], dtype=bool)
        in_disk[2:m + 2, 2:m + 2] = disk
        clearance, _ = cKDTree(lattice[~in_disk]).query(lattice[in_disk])
        self.inner_nodes = int(np.sum(clearance > self.EPS))

    def jobs(self, out_dir):
        out = out_dir / "mask-count.txt"
        return [Job("mask-count", "mask", ("--input", str(self.input), "--out", str(out)), out)]

    def check(self, job, stdout):
        nodes, counts, eigs, syms, certified = {}, [], [], [], None
        for line in Path(job.out).read_text().splitlines():
            head, _, rest = line.partition(" ")
            fields = dict(tok.split("=", 1) for tok in rest.split()) if "=" in rest else {}
            if head == "nodes":
                nodes = {k: int(v) for k, v in fields.items()}
            elif head == "count":
                counts.append((float(fields.pop("lambda")), {k: int(v) for k, v in fields.items()}))
            elif head == "spectrum":
                certified = fields.get("certified")
            elif head == "eig":
                eigs.append(float(rest))
            elif head == "symbol":
                syms.append(([float(v) for v in fields["point"].split(",")],
                             float(fields["value"]), fields["truncated"] == "1"))
        problems = []
        if nodes.get("omega") != self.disk_nodes:
            problems.append(f"omega has {nodes.get('omega')} nodes, lattice disk has "
                            f"{self.disk_nodes}")
        if nodes.get("inner") != self.inner_nodes:
            problems.append(f"Omega_eps has {nodes.get('inner')} nodes, expected "
                            f"{self.inner_nodes}")
        if not nodes.get("inner", 0) < nodes.get("omega", 0) < nodes.get("outer", 0):
            problems.append(f"node counts not nested: {nodes}")
        if [lam for lam, _ in counts] != self.lambdas:
            return problems + ["count sweep does not match the generated lambdas"]
        for key in ("inner", "omega", "outer"):
            seq = [c[key] for _, c in counts]
            if any(b < a for a, b in zip(seq, seq[1:])):
                problems.append(f"N_{key}(lambda) decreases: {seq}")
        for lam, c in counts:
            # the operator on a sub-mask is a principal submatrix: Cauchy interlacing
            if not c["inner"] <= c["omega"] <= c["outer"]:
                problems.append(f"interlacing violated at lambda={lam:g}: {c}")
            want = int(np.sum(self.omega_spectrum < lam))
            if c["omega"] != want:
                problems.append(f"N_omega({lam:g}) = {c['omega']}, dense reference {want}")
        eigs = np.asarray(eigs)
        if certified != "true":
            problems.append("partial spectrum not certified")
        if len(eigs) != counts[0][1]["omega"]:
            problems.append(f"{len(eigs)} eigenvalues below 250, inertia count "
                            f"{counts[0][1]['omega']}")
        if np.any(eigs <= 0) or np.any(eigs >= 250.0) or np.any(np.diff(eigs) < 0):
            problems.append("partial spectrum out of (0, 250) or not sorted")
        else:
            want = self.omega_spectrum[:len(eigs)]
            err = np.max(np.abs(eigs - want) / want, initial=0.0)
            if err > 1e-9:
                problems.append(f"partial spectrum differs from reference by {err:.3g}")
        problems += self._check_symbols(syms)
        return problems

    def _check_symbols(self, syms):
        if len(syms) != self.N_POINTS:
            return [f"{len(syms)} symbol values, expected {self.N_POINTS}"]
        h = self.H
        # Rayleigh quotient of a positive definite matrix, below the Gershgorin
        # bound 4/h^2 (1 + e^{2 x1}) with x1 < 1
        upper = 4.0 / h ** 2 * (1.0 + math.exp(2.0))
        problems = []
        for (point, value, truncated), want in zip(syms, self.points):
            if point != want:
                return ["symbol points do not match the generated points"]
            if not 0.0 < value <= upper:
                problems.append(f"symbol {value!r} at {point} outside (0, {upper:g}]")
            # truncated iff the nearest node's clearance + h < window radius;
            # decide only where the analytic clearance is 3h away from the edge
            clear = self.RADIUS - math.hypot(point[2] - self.CENTER[0], point[3] - self.CENTER[1])
            margin = clear - (self.WINDOW_RADIUS - h)
            if (margin < -3 * h and not truncated) or (margin > 3 * h and truncated):
                problems.append(f"truncated={truncated} at clearance {clear:.4f}")
        return problems


WORKLOADS = {w.name: w for w in (BoxSpectrum, MaskCount)}
