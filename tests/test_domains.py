"""Masked grid domains: construction, morphology, measure, RLE export."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from weylcs.domains import (
    EmptyErosionError,
    GridDomain,
    dilate,
    erode,
    lattice_dist2,
    load_mask,
    measure,
    rectangle_domain,
    save_mask,
)


def unit_square(h):
    return rectangle_domain(((0.0, 1.0), (0.0, 1.0)), h)


def test_interval_node_count():
    dom = rectangle_domain(((0.0, math.pi),), math.pi / 100.0)
    assert int(dom.mask.sum()) == 99


def test_unit_square_measure():
    h = 0.1
    assert abs(measure(unit_square(h)) - 1.0) < 2 * h


def test_y1_range_within_h():
    dom = unit_square(0.01)
    assert abs(dom.y1_min - 0.0) <= 0.01 + 1e-12
    assert abs(dom.y1_max - 1.0) <= 0.01 + 1e-12


def test_degenerate_box_rejected():
    with pytest.raises(ValueError):
        rectangle_domain(((0.0, 0.0),), 0.1)
    with pytest.raises(ValueError):
        rectangle_domain(((0.0, 1.0),), 2.0)


def test_erode_square():
    h = 0.02
    dom = erode(unit_square(h), 0.1)
    assert abs(measure(dom) - 0.64) < 4 * h


def test_erode_zero_is_identity():
    dom = unit_square(0.05)
    assert erode(dom, 0.0) is dom


def test_erode_empty_raises():
    with pytest.raises(EmptyErosionError):
        erode(unit_square(0.1), 0.6)


def test_dilate_square():
    h = 0.01
    target = 1.0 + 4 * 0.1 + math.pi * 0.01
    assert abs(measure(dilate(unit_square(h), 0.1)) - target) < 6 * h


def test_dilate_zero_is_identity():
    dom = unit_square(0.05)
    assert dilate(dom, 0.0) is dom


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
    assert measure(erode(dom, hi)) <= measure(erode(dom, lo)) <= measure(dom)
    assert measure(dom) <= measure(dilate(dom, lo)) <= measure(dilate(dom, hi))


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
    base = measure(dom)
    for eps in (0.05, 0.1, 0.2):
        loss = base - measure(erode(dom, 2 * eps))
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
