"""Masked grid domains: construction, morphology, measure, RLE export."""

import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import weylcs.domains
from conftest import lattice_measure
from weylcs.cli import main
from weylcs.domains import (
    EmptyErosionError,
    GridDomain,
    dilate,
    erode,
    lattice_dist2,
    load_mask,
    rectangle_domain,
    save_mask,
)
from weylcs.frames import build_frame
from weylcs.weyl import weighted_box_volume, weighted_volume
from weylcs.windows import make_cosine_window, scale


def unit_square(h):
    return rectangle_domain(((0.0, 1.0), (0.0, 1.0)), h)


def test_interval_node_count():
    dom = rectangle_domain(((0.0, math.pi),), math.pi / 100.0)
    assert int(dom.mask.sum()) == 99


@pytest.mark.parametrize("k", [2, 3, 7, 70, 5844, 5845, 5846, 5886, 299999])
def test_the_lattice_of_the_unit_interval_at_h_1_over_k_has_k_plus_1_nodes(k):
    # the tolerance on the number of steps is relative: 1e-9*h added to s/h
    # (a length to a step count) lost the node at 1 for h = 1/5845 and 1/5886
    assert rectangle_domain(((0.0, 1.0),), 1.0 / k).shape == (k + 1,)


def test_the_lattice_of_a_huge_box_at_a_tenth_of_its_side_has_11_nodes():
    # the tolerance 1e-9*h on 1e300/1e299 asked for about 1e290 nodes
    dom = rectangle_domain(((0.0, 1e300),), 1e299)
    assert dom.shape == (11,) and int(dom.mask.sum()) == 9


@pytest.mark.parametrize("h", [0.1, 0.05, 0.0125, 1 / 70, 1 / 3])
def test_a_frame_on_n_steps_of_h_has_n_nodes_per_axis(h):
    # the frame's nodes are the interior nodes of the rectangle's lattice,
    # whose steps domains.whole_steps counts: N + 1 steps of h hold N
    for N in (2, 3, 7, 20, 70, 129):
        L = N * h
        fr = build_frame(((0.0, (N + 1) * h),), h, scale(make_cosine_window(1), 0.3 * L))
        assert fr.shape == (N,) and fr.origin == (h,)
        assert rectangle_domain(((0.0, L),), h).shape == (N + 1,)


def test_unit_square_measure():
    h = 0.1
    assert abs(lattice_measure(unit_square(h)) - 1.0) < 2 * h


def test_degenerate_box_rejected():
    with pytest.raises(ValueError):
        rectangle_domain(((0.0, 0.0),), 0.1)
    with pytest.raises(ValueError):
        rectangle_domain(((0.0, 1.0),), 2.0)
    # a NaN spacing names h; a side b - a that overflows to inf names the box
    with pytest.raises(ValueError, match="h=nan"):
        rectangle_domain(((0.0, 1.0),), math.nan)
    with pytest.raises(ValueError, match=re.escape("got box=((-1e+308, 1e+308),)")):
        rectangle_domain(((-1e308, 1e308),), 1.0)
    # lattices that cannot be indexed: 1e20 nodes, and a node count past inf
    for box, h in [(((0.0, 1e10),), 1e-10), (((0.0, 1e300), (0.0, 1e300)), 1e-10)]:
        with pytest.raises(ValueError, match=r"lattice of box \(\(0\.0, .* at h=1e-10"):
            rectangle_domain(box, h)


def _mask_file_with_box(path, box):
    """A saved interval mask whose header declares box."""
    save_mask(rectangle_domain(((0.0, 1.0),), 0.1), path)
    line = "box=" + " ".join("%.17g,%.17g" % ab for ab in box) + "\n"
    path.write_text(path.read_text().replace("box=0,1\n", line, 1))
    return path


BOX_ROUTINES = {
    "rectangle_domain": lambda box, tmp_path: rectangle_domain(box, 0.1),
    "build_frame": lambda box, tmp_path: build_frame(box, 0.1, scale(make_cosine_window(1), 0.2)),
    "weighted_box_volume": lambda box, tmp_path: weighted_box_volume("hyperbolic", box),
    "load_mask": lambda box, tmp_path: load_mask(_mask_file_with_box(tmp_path / "m.txt", box)),
}


@pytest.mark.parametrize("box", [(), ((1.0, 0.0),), ((0.5, 0.5),), ((0.0, math.nan),),
                                 ((0.0, math.inf),), ((-math.inf, 0.0),), ((-1e308, 1e308),)],
                         ids=["empty", "reversed", "zero-side", "nan-side", "inf-side", "-inf-end",
                              "overflow"])
@pytest.mark.parametrize("routine", list(BOX_ROUTINES) + ["cli"])
def test_every_routine_rejects_a_bad_box_by_the_one_rule(box, routine, tmp_path, capsys):
    # before, these took a weighted volume of -1.0 or nan, blamed h, raised
    # "min() arg is an empty sequence", or loaded a mask whose box is reversed
    if routine == "cli":
        spec = ";".join("%.17g,%.17g" % ab for ab in box)
        assert main(["spectrum", "--set", f"box={spec}", "--out", str(tmp_path / "o.txt")]) == 1
        message = capsys.readouterr().err
    else:
        with pytest.raises(ValueError) as info:
            BOX_ROUTINES[routine](box, tmp_path)
        message = str(info.value)
    if routine == "cli" and not box:  # the CLI cannot parse an empty box spec
        assert "bad box spec ''" in message, message
    else:
        assert "box needs at least one (a, b) pair" in message, message
        assert f"got box={box!r}" in message, message


def test_weighted_box_volume_names_the_box_where_the_weight_overflows():
    # exp(-k a_1) = exp(710) is past the largest float: this was "math range error"
    box = ((-710.0, 0.0), (0.0, 1.0))
    with pytest.raises(OverflowError, match=re.escape(f"exp(-1 y_1) overflows on the box, "
                                                      f"got box={box!r}")):
        weighted_box_volume("hyperbolic", box)
    with pytest.raises(OverflowError, match=re.escape(f"got box={box!r}")):
        weighted_volume("hyperbolic", rectangle_domain(box, 0.25))
    assert weighted_box_volume("euclidean", box) == 710.0


def test_erode_square():
    h = 0.02
    dom = erode(unit_square(h), 0.1)
    assert abs(lattice_measure(dom) - 0.64) < 4 * h


def test_erode_zero_is_identity():
    dom = unit_square(0.05)
    assert erode(dom, 0.0) is dom
    with pytest.raises(ValueError, match="eps must be >= 0"):
        erode(dom, -0.01)


def test_erode_empty_raises():
    with pytest.raises(EmptyErosionError):
        erode(unit_square(0.1), 0.6)


def test_dilate_square():
    h = 0.01
    target = 1.0 + 4 * 0.1 + math.pi * 0.01
    assert abs(lattice_measure(dilate(unit_square(h), 0.1)) - target) < 6 * h


def test_dilate_zero_is_identity():
    dom = unit_square(0.05)
    assert dilate(dom, 0.0) is dom
    with pytest.raises(ValueError, match="eps must be >= 0"):
        dilate(dom, -0.01)


@pytest.mark.parametrize("eps", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("morph", [erode, dilate])
def test_morphology_rejects_an_eps_that_is_not_finite(morph, eps):
    with pytest.raises(ValueError, match=f"eps must be >= 0 and finite, got {eps!r}"):
        morph(unit_square(0.1), eps)


def test_dilation_too_large_to_index():
    with pytest.raises(ValueError, match=r"dilation by eps=1e\+300 at h=0\.1 has too many nodes"):
        dilate(unit_square(0.1), 1e300)


def test_erosion_radius_stops_at_the_grid(monkeypatch):
    # eps/h = 1e5 steps on an 11 x 11 grid: no node lies farther than 11
    # steps from the outside, so the distances are searched out to 12 only
    lattice = weylcs.domains.lattice_dist2
    radii = []

    def recording(target, r):
        radii.append(r)
        return lattice(target, r)

    monkeypatch.setattr(weylcs.domains, "lattice_dist2", recording)
    for eps in (1e4, 1e300):
        with pytest.raises(EmptyErosionError):
            erode(unit_square(0.1), eps)
    assert radii == [12, 12]


@st.composite
def masks_and_radii(draw):
    """A mask in d = 1-3 of up to 24, 12 and 6 nodes per axis (random bits, or
    a filled block with a few nodes flipped, whose clearance reaches about
    half the grid) and an erosion radius in steps, up to 1.5 grid widths."""
    d = draw(st.integers(1, 3))
    shape = tuple(draw(st.integers(1, {1: 24, 2: 12, 3: 6}[d])) for _ in range(d))
    if draw(st.booleans()):
        mask = draw(arrays(bool, shape))
    else:
        mask = np.zeros(shape, dtype=bool)
        lo = [draw(st.integers(0, m - 1)) for m in shape]
        mask[tuple(slice(a, draw(st.integers(a + 1, m))) for a, m in zip(lo, shape))] = True
        for _ in range(draw(st.integers(0, 2))):
            mask[tuple(draw(st.integers(0, m - 1)) for m in shape)] ^= True
    return mask, draw(st.floats(0.3, 1.5)) * max(shape)


@given(case=masks_and_radii())
@settings(max_examples=100, deadline=None)
def test_erosion_equals_the_uncapped_search(case):
    # the radius r = ceil(eps/h) + 1, uncapped, finds every distance that
    # decides the threshold; the search capped at the grid must decide alike
    mask, steps = case
    h, d = 0.1, mask.ndim
    eps = steps * h
    dom = GridDomain(h=h, origin=(0.0,) * d, mask=mask, box=((-h, 3.0),) * d)
    outside = np.pad(~mask, 1, constant_values=True)
    dist2 = lattice_dist2(outside, int(math.ceil(eps / h)) + 1)
    want = (h * np.sqrt(dist2) > eps)[(slice(1, -1),) * d]
    try:
        got = erode(dom, eps).mask
    except EmptyErosionError:
        got = np.zeros_like(mask)
    assert np.array_equal(got, want)


def test_erode_dilate_contains_original():
    h = 0.02
    eps = 0.07
    dom = unit_square(h)
    back = erode(dilate(dom, eps), eps)
    pad = round((dom.origin[0] - back.origin[0]) / h)
    window = back.mask[pad:pad + dom.shape[0], pad:pad + dom.shape[1]]
    assert np.all(window[dom.mask])


@given(st.floats(0.01, 0.2), st.floats(0.01, 0.2))
@settings(max_examples=20, deadline=None)
def test_morphology_monotone(e1, e2):
    dom = unit_square(0.02)
    lo, hi = sorted((e1, e2))
    m = lattice_measure
    assert m(erode(dom, hi)) <= m(erode(dom, lo)) <= m(dom)
    assert m(dom) <= m(dilate(dom, lo)) <= m(dilate(dom, hi))


def test_nesting():
    dom = unit_square(0.02)
    eps = 0.08
    inner2 = erode(dom, 2 * eps).mask
    inner1 = erode(dom, eps).mask
    assert np.all(~inner2 | inner1)
    assert np.all(~inner1 | dom.mask)


def test_boundary_layer_linear_in_eps():
    # |Omega| - |Omega_{2 eps}| <= C eps with C about twice the perimeter
    dom = unit_square(0.005)
    base = lattice_measure(dom)
    for eps in (0.05, 0.1, 0.2):
        loss = base - lattice_measure(erode(dom, 2 * eps))
        assert loss / eps < 8.5


@st.composite
def disk_unions(draw):
    """A union of balls in (0,1)^d on a lattice of spacing h, d = 1..3."""
    d = draw(st.integers(1, 3))
    h = 1.0 / draw(st.sampled_from({1: [12, 25, 40, 60], 2: [12, 15, 24, 30],
                                     3: [8, 10, 12]}[d]))
    box = rectangle_domain(((0.0, 1.0),) * d, h)
    coords = np.stack(np.meshgrid(*(box.axis_coords(a) for a in range(d)),
                                  indexing="ij"), axis=-1)
    mask = np.zeros(box.shape, dtype=bool)
    balls = draw(st.lists(st.tuples(st.lists(st.floats(0.2, 0.8), min_size=d, max_size=d),
                                    st.floats(0.1, 0.4)), min_size=1, max_size=3))
    for centre, r in balls:
        mask |= np.sum((coords - centre) ** 2, axis=-1) < r * r
    mask &= box.mask
    assume(mask.any())
    return GridDomain(h=h, origin=box.origin, mask=mask, box=box.box)


def edt_dist2(target, h):
    """Distance transform of scipy.ndimage: its rounded distances to the
    nearest True node of target at spacing h, and their exact squares in
    lattice units."""
    from scipy.ndimage import distance_transform_edt

    dist, feature = distance_transform_edt(~target, sampling=h, return_indices=True)
    offsets = feature - np.indices(target.shape)
    return dist, np.sum(offsets * offsets, axis=0)


@given(dom=disk_unions(),
       steps=st.one_of(st.floats(0.3, 6.0), st.sampled_from([2.0, 5.0])))
@settings(max_examples=60, deadline=None)
def test_erode_dilate_match_the_distance_transform(dom, steps):
    h, eps = dom.h, steps * dom.h
    # erode: clearance to the complement, bounded at r = ceil(eps/h) + 1
    outside = np.pad(~dom.mask, 1, constant_values=True)
    dist, k = edt_dist2(outside, h)
    r = int(math.ceil(eps / h)) + 1
    assert np.array_equal(lattice_dist2(outside, r), np.minimum(k, r * r + 1))
    inner = (slice(1, -1),) * dom.d
    try:
        thin = erode(dom, eps).mask
    except EmptyErosionError:
        thin = np.zeros_like(dom.mask)
    assert np.array_equal(thin, (h * np.sqrt(k) > eps)[inner])
    # dilate: distance to the domain on the padded grid, bounded at the pad
    pad = int(math.ceil(eps / h)) + 1
    padded = np.pad(dom.mask, pad, constant_values=False)
    dist_out, k_out = edt_dist2(padded, h)
    assert np.array_equal(lattice_dist2(padded, pad), np.minimum(k_out, pad * pad + 1))
    fat = dilate(dom, eps).mask
    assert np.array_equal(fat, padded | (h * np.sqrt(k_out) < eps + 0.5 * h))
    # away from ties the rounded distances of the transform decide alike
    if np.all(np.abs(dist[inner] - eps) > 1e-9 * eps):
        assert np.array_equal(thin, dist[inner] > eps)
    if np.all(np.abs(dist_out - (eps + 0.5 * h)) > 1e-9 * eps):
        assert np.array_equal(fat, padded | (dist_out < eps + 0.5 * h))


def test_erode_at_a_lattice_distance_ignores_its_direction():
    # one hole in the square: (13, 14) lies at (3, 4) from it, (15, 10) at
    # (5, 0), both 5h away and farther from the boundary.  The scipy
    # transform rounds the first distance to 5h plus one ulp at h = 1/30
    h = 1.0 / 30.0
    dom = unit_square(h)
    mask = dom.mask.copy()
    mask[10, 10] = False
    eroded = erode(GridDomain(h=h, origin=dom.origin, mask=mask, box=dom.box), 5 * h).mask
    assert not eroded[13, 14] and not eroded[15, 10]
    assert eroded[14, 14] and eroded[16, 10]


def test_mask_roundtrip_rectangle(tmp_path):
    dom = rectangle_domain(((0.0, 1.0), (-0.5, 0.7)), 0.04)
    path = tmp_path / "mask.txt"
    save_mask(dom, path)
    back = load_mask(path)
    assert back.h == dom.h
    assert back.origin == dom.origin
    assert back.box == dom.box
    assert back.exact_box == dom.exact_box
    assert np.array_equal(back.mask, dom.mask)


def test_mask_load_allows_spaces_around_the_header_equals(tmp_path):
    dom = rectangle_domain(((0.0, 1.0), (-0.5, 0.7)), 0.04)
    path = tmp_path / "mask.txt"
    save_mask(dom, path)
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(line.replace("=", " = ", 1) for line in lines))
    assert " = " in path.read_text()
    back = load_mask(path)
    assert (back.h, back.origin, back.box) == (dom.h, dom.origin, dom.box)
    assert np.array_equal(back.mask, dom.mask)


@given(arrays(bool, (6, 9)))
@settings(max_examples=50, deadline=None)
def test_mask_roundtrip_random(tmp_path_factory, mask):
    if not mask.any():
        mask[2, 3] = True
    dom = GridDomain(h=0.1, origin=(0.0, 0.0), mask=mask,
                     box=((-0.05, 0.55), (-0.05, 0.85)))
    path = tmp_path_factory.mktemp("rle") / "mask.txt"
    save_mask(dom, path)
    back = load_mask(path)
    assert np.array_equal(back.mask, mask)
    assert back.exact_box is None


def _edited_mask_file(tmp_path, dom, old, new):
    path = tmp_path / "mask.txt"
    save_mask(dom, path)
    text = path.read_text()
    assert old in text
    path.write_text(text.replace(old, new, 1))
    return path


@pytest.mark.parametrize("old, new", [("d=2\n", "d=3\n"), ("origin=0 -0.5\n", "origin=0\n")])
def test_mask_load_rejects_a_header_of_another_dimension(tmp_path, old, new):
    dom = rectangle_domain(((0.0, 1.0), (-0.5, 0.7)), 0.04)
    with pytest.raises(ValueError, match="mask header"):
        load_mask(_edited_mask_file(tmp_path, dom, old, new))


@pytest.mark.parametrize("key", ["d", "h", "origin", "box", "shape"])
def test_mask_load_names_a_missing_header_key(tmp_path, key):
    dom = rectangle_domain(((0.0, 1.0), (-0.5, 0.7)), 0.04)
    path = tmp_path / "mask.txt"
    save_mask(dom, path)
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(line for line in lines if not line.startswith(key + "=")))
    with pytest.raises(ValueError, match=f"mask header lacks '{key}'"):
        load_mask(path)


def test_mask_load_names_the_expected_and_found_row_counts(tmp_path):
    dom = rectangle_domain(((0.0, 1.2), (0.0, 1.2)), 0.1)
    path = tmp_path / "mask.txt"
    save_mask(dom, path)
    assert dom.shape == (13, 13)
    text = path.read_text()
    path.write_text(text[:text.rstrip("\n").rindex("\n") + 1])  # drop the last row
    with pytest.raises(ValueError, match="needs 13 rows, found 12"):
        load_mask(path)
    path.write_text(text.rstrip("\n") + " 0x1\n")  # a last row 14 nodes wide
    with pytest.raises(ValueError, match="mask row 13: RLE row length mismatch, 14 nodes "
                                         "for a shape width of 13"):
        load_mask(path)
    # a run is BxN with B 0 or 1 and N >= 1; any other token is named with
    # its row, not read as a bit of 1 or left to int() or np.repeat
    last = text.rstrip("\n").rindex("\n") + 1
    for run in ["2x13", "1x", "ax13", "1x3.5", "1x-3 0x16", "1x0 0x13", "1x13x"]:
        path.write_text(text[:last] + run + "\n")
        with pytest.raises(ValueError, match=f"mask row 13: bad run '{run.split()[0]}'"):
            load_mask(path)


def _with_legacy_exact_box(path, box):
    """Add the exact_box= line that older versions of save_mask wrote after shape=."""
    text = path.read_text()
    line = "exact_box=" + " ".join("%.17g,%.17g" % (a, b) for a, b in box) + "\n"
    at = text.index("\n", text.index("shape=")) + 1
    path.write_text(text[:at] + line + text[at:])


def test_mask_load_reads_the_box_from_the_rows(tmp_path):
    # rows of (0, 0.5) x (0, 1) under the header of the unit square, with or
    # without an older file's exact_box line for the square: the volume is the
    # rows' lattice sum (the square's closed form gave a leading term of
    # 251.5, not 156.6)
    h = 1 / 40
    half = rectangle_domain(((0.0, 0.5), (0.0, 1.0)), h)
    unit = ((0.0, 1.0), (0.0, 1.0))
    path = tmp_path / "mask.txt"
    save_mask(GridDomain(h=h, origin=half.origin, mask=half.mask, box=unit), path)
    lattice = float(np.sum(half.mask.sum(axis=1) * np.exp(-half.axis_coords(0)))) * h ** 2
    for legacy in (False, True):
        if legacy:
            _with_legacy_exact_box(path, unit)
        back = load_mask(path)
        assert back.box == unit and back.exact_box is None
        assert weighted_volume("hyperbolic", back) == lattice
        assert lattice == pytest.approx(1.0 - math.exp(-0.5), abs=3 * h)


def test_mask_load_of_an_older_box_file(tmp_path):
    # an older file's exact_box line is ignored; the box is read from the rows
    dom = rectangle_domain(((0.0, 1.0), (-0.5, 0.7)), 0.04)
    path = tmp_path / "mask.txt"
    save_mask(dom, path)
    assert "exact_box" not in path.read_text()
    _with_legacy_exact_box(path, dom.box)
    back = load_mask(path)
    assert back.exact_box == dom.box
    assert weighted_volume("hyperbolic", back) == weighted_volume("hyperbolic", dom) \
        == (1.0 - math.exp(-1.0)) * (0.7 - -0.5)  # the closed form


def test_hand_built_rectangle_mask_is_an_exact_box(monkeypatch):
    dom = rectangle_domain(((0.0, 1.0), (-0.5, 0.7)), 0.04)
    same = GridDomain(h=dom.h, origin=dom.origin, mask=dom.mask.copy(), box=dom.box)
    assert same.exact_box == dom.box == dom.exact_box
    # a declared box far larger than the rows is told apart by its shape alone
    monkeypatch.setattr(weylcs.domains, "rectangle_domain", None)
    assert GridDomain(h=dom.h, origin=dom.origin, mask=dom.mask,
                      box=((0.0, 1e3), (-0.5, 0.7))).exact_box is None
    monkeypatch.undo()
    mask = dom.mask.copy()
    mask[5, 5] = False
    for other in (GridDomain(h=dom.h, origin=dom.origin, mask=mask, box=dom.box),
                  GridDomain(h=dom.h, origin=(0.0, -0.46), mask=dom.mask, box=dom.box),
                  GridDomain(h=dom.h, origin=dom.origin, mask=dom.mask[1:], box=dom.box),
                  GridDomain(h=0.05, origin=dom.origin, mask=dom.mask, box=dom.box),
                  GridDomain(h=math.nan, origin=dom.origin, mask=dom.mask, box=dom.box)):
        assert other.exact_box is None


@pytest.mark.parametrize("new", ["h=0", "h=-0.1", "h=nan", "h=inf", "origin=0 nan",
                                 "box=0,inf -0.5,0.7", "box=-inf,1 -0.5,0.7", "box=0,1,2 0,1",
                                 "d=x", "h=abc", "origin=0 zero", "box=0;1 0,1", "shape=26 x",
                                 "shape=26 -3", "shape=26 0"])
def test_mask_load_checks_its_numbers(tmp_path, new):
    # before: h=0 divided by zero, h=-0.1 loaded (the unit square's hyperbolic
    # volume came out as 1.38, not 0.632), h=nan hung count_below, a box
    # entry of three numbers loaded (dilate then failed to unpack it), d=x
    # and h=abc raised int() and float() messages that named no key, and
    # shape=26 -3 raised "RLE row length mismatch"
    dom = rectangle_domain(((0.0, 1.0), (0.0, 1.0)), 0.04)
    path = tmp_path / "mask.txt"
    save_mask(dom, path)
    key = new.split("=")[0]
    path.write_text("".join(new + "\n" if line.startswith(key + "=") else line
                            for line in path.read_text().splitlines(keepends=True)))
    with pytest.raises(ValueError, match=f"mask header: {key} "):
        load_mask(path)


def oracle_exact_box(dom):
    """exact_box by its definition: the box when rectangle_domain(box, h) has
    the domain's shape, origin and mask, None when it differs or raises."""
    try:
        ref = rectangle_domain(dom.box, dom.h)
    except ValueError:
        return None
    same = ref.shape == dom.shape and ref.origin == tuple(dom.origin) \
        and np.array_equal(ref.mask, dom.mask)
    return dom.box if same else None


@st.composite
def box_variants(draw):
    """A box and spacing in d = 1-3, each side 1 to 9 lattice steps (ending on
    a node or between two), and a domain that is its rectangle or one edit of it."""
    d = draw(st.integers(1, 3))
    h = draw(st.floats(0.01, 2.0))
    lows = [draw(st.floats(-5.0, 5.0)) for _ in range(d)]
    box = tuple((a, a + (draw(st.integers(1, 8)) + draw(st.sampled_from([0.0, 0.3, 1.0]))) * h)
                for a in lows)
    try:
        dom = rectangle_domain(box, h)
    except ValueError:  # no interior node
        assume(False)
    edit = draw(st.sampled_from(["none", "flip", "origin", "slice", "h", "nan", "empty",
                                 "random"]))
    mask, origin = dom.mask.copy(), dom.origin
    if edit == "flip":
        mask[tuple(draw(st.integers(0, m - 1)) for m in mask.shape)] ^= True
    elif edit == "origin":
        origin = (origin[0] + draw(st.sampled_from([-0.5, 0.5])) * h,) + origin[1:]
    elif edit == "slice":
        axis = draw(st.integers(0, d - 1))
        mask = mask[(slice(None),) * axis + (slice(draw(st.integers(0, 1)), -1),)]
    elif edit == "h":
        h *= draw(st.sampled_from([0.5, 0.999, 1.001, 2.0]))
    elif edit == "nan":
        h = math.nan
    elif edit == "empty":
        mask[...] = False
    elif edit == "random":
        mask = draw(arrays(bool, mask.shape))
    return GridDomain(h=h, origin=origin, mask=mask, box=dom.box), edit


@given(case=box_variants())
@settings(max_examples=300, deadline=None)
def test_exact_box_matches_its_definition(case):
    dom, edit = case
    assert dom.exact_box == oracle_exact_box(dom)
    if edit == "none":
        assert dom.exact_box == dom.box


def test_weighted_volume_of_a_rectangle_builds_no_second_mask(monkeypatch):
    # exact_box matches the rectangle per axis: it builds no mask to compare
    dom = rectangle_domain(((0.0, 1.0), (-0.5, 0.7)), 0.04)

    def refuse(box, h):
        raise AssertionError("rectangle_domain called")

    monkeypatch.setattr(weylcs.domains, "rectangle_domain", refuse)
    assert weighted_volume("hyperbolic", dom) == (1.0 - math.exp(-1.0)) * (0.7 - -0.5)
    assert dom.exact_box == dom.box
