"""Contour segments, graded splitting, panel bookkeeping, and panels laid
a segment at a time with the bits of a panel-by-panel layout."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from perch.assembly import (GRADE_LEVELS, PANEL_ORDER, PANEL_REAL,
                            TAG_PANEL_LEN, build_master_contour, panelize)
from perch.contour import GRADE_RATIO, Segment, build_panels, split_points
from perch.errors import BadGeometry


def test_segment_validation():
    with pytest.raises(BadGeometry):
        Segment("line", a=1 + 1j, b=1 + 1j)
    with pytest.raises(BadGeometry):
        Segment("arc", center=0j, radius=-1.0, phi1=0.0, phi2=1.0)
    with pytest.raises(BadGeometry):
        Segment("blob")


def test_segment_length():
    s = Segment("line", a=0j, b=3 + 4j)
    assert s.length == 5.0
    arc = Segment("arc", center=1j, radius=2.0, phi1=0.0, phi2=np.pi / 2)
    assert abs(arc.length - np.pi) < 1e-15


def test_split_points_graded_end():
    seg = Segment("line", a=0j, b=1 + 0j, grade_end=True)
    us = split_points(seg, target_len=0.5, levels=3)
    assert us[0] == 0.0 and us[-1] == 1.0
    assert np.all(np.diff(us) > 0)
    gaps = np.diff(us)
    # graded end: last gaps shrink by GRADE_RATIO toward u=1
    assert gaps[-1] < gaps[-2] < gaps[-3]
    assert abs(gaps[-2] / gaps[-1] - 1.0 / GRADE_RATIO) < 1e-12


def test_split_points_graded_both_ends():
    seg = Segment("line", a=-1 + 0j, b=1 + 0j, grade_start=True, grade_end=True)
    us = split_points(seg, target_len=0.7, levels=3)
    gaps = np.diff(us)
    assert gaps[0] < gaps[1] and gaps[-1] < gaps[-2]


def test_panelset_bookkeeping():
    segs = [
        Segment("line", a=-1 + 0j, b=0j, label="left"),
        Segment("arc", center=0j, radius=0.5, phi1=0.0, phi2=np.pi, label="top"),
    ]
    ps = build_panels(segs, order=6, target_len=0.4)
    assert ps.n == sum(len(p.nodes) for p in ps.panels)
    assert ps.offsets[-1] == ps.n
    for q in range(len(ps.panels)):
        sl = ps.node_slice(q)
        np.testing.assert_array_equal(ps.nodes[sl], ps.panels[q].nodes)
        assert np.all(ps.panel_index[sl] == q)
        assert np.all(ps.labels[sl] == ps.panels[q].label)
    labels = {p.label for p in ps.panels}
    assert labels == {"left", "top"}


def test_per_label_len_overrides():
    segs = [
        Segment("line", a=0j, b=2 + 0j, label="coarse"),
        Segment("line", a=0j, b=2j, label="fine"),
    ]
    ps = build_panels(segs, order=4, target_len=1.0, per_label_len={"fine": 0.25})
    n_coarse = sum(1 for p in ps.panels if p.label == "coarse")
    n_fine = sum(1 for p in ps.panels if p.label == "fine")
    assert n_coarse == 2
    assert n_fine == 8


def test_arc_panel_nodes_lie_on_circle():
    seg = Segment("arc", center=2 - 1j, radius=0.7, phi1=1.0, phi2=-0.5)
    ps = build_panels([seg], order=8, target_len=0.3)
    np.testing.assert_allclose(np.abs(ps.nodes - (2 - 1j)), 0.7, atol=1e-14)
    # clockwise travel: weights integrate dz, so the sum telescopes to the
    # endpoint difference of z itself
    total = np.sum(ps.weights)
    want = 0.7 * (np.exp(-0.5j) - np.exp(1.0j))
    assert abs(total - want) < 1e-13


@settings(max_examples=25, deadline=None)
@given(st.floats(min_value=0.05, max_value=0.9),
       st.integers(min_value=1, max_value=5))
def test_weights_integrate_dz(target, order_bump):
    # sum of complex weights along any segment equals b - a exactly
    seg = Segment("line", a=-0.3 + 0.2j, b=1.1 - 0.7j)
    ps = build_panels([seg], order=3 + order_bump, target_len=target)
    np.testing.assert_allclose(np.sum(ps.weights), seg.b - seg.a, atol=1e-13)


def _panels_one_by_one(segments, order, target_len=None, levels=4,
                       per_label_len=None):
    """Reference: each panel's (nodes, weights, mid, half, phic, beta) laid
    one panel at a time, as build_panels laid them before it took a
    segment's panels in one array pass."""
    tau, wref = np.polynomial.legendre.leggauss(order)
    out = []
    for seg in segments:
        tl = (per_label_len or {}).get(seg.label, target_len or seg.length)
        us = split_points(seg, tl, levels)
        for u0, u1 in zip(us[:-1], us[1:]):
            if seg.kind == "line":
                a = seg.a + (seg.b - seg.a) * u0
                b = seg.a + (seg.b - seg.a) * u1
                mid, half = 0.5 * (a + b), 0.5 * (b - a)
                out.append((mid + half * tau, wref.astype(complex) * half,
                            mid, half, 0.0, 0.0))
            else:
                p1 = seg.phi1 + (seg.phi2 - seg.phi1) * u0
                p2 = seg.phi1 + (seg.phi2 - seg.phi1) * u1
                phic, beta = 0.5 * (p1 + p2), 0.5 * (p2 - p1)
                nodes = seg.center + seg.radius * np.exp(
                    1j * (phic + beta * tau))
                weights = wref * 1j * beta * seg.radius * np.exp(
                    1j * (phic + beta * tau))
                out.append((nodes, weights, 0j, 0j, phic, beta))
    return out


def _assert_panel_bits(ps, want):
    def bits(x):
        return np.ascontiguousarray(np.asarray(x, dtype=complex)).view(
            np.uint64)

    assert len(ps.panels) == len(want)
    for p, w in zip(ps.panels, want):
        got = (p.nodes, p.weights, p.mid, p.half, p.phic, p.beta)
        for g, r in zip(got, w):
            assert np.array_equal(bits(g), bits(r))


GRADED = [
    Segment("line", a=-1.3 + 0j, b=2.1 + 0j, grade_start=True, grade_end=True),
    Segment("line", a=complex(-0.0, 0.0), b=0.7 + 0j, grade_end=True),
    Segment("line", a=0j, b=-0.45j, grade_start=True),
    Segment("line", a=0.3 - 0.2j, b=-1.1 + 0.9j, grade_start=True),
    Segment("arc", center=0j, radius=0.5, phi1=0.0, phi2=np.pi / 2,
            grade_start=True, grade_end=True),
    Segment("arc", center=-0.5j, radius=0.1, phi1=np.pi - 0.2,
            phi2=2 * np.pi + 0.2, grade_end=True),
    Segment("arc", center=2 - 1j, radius=0.7, phi1=1.0, phi2=-0.5,
            grade_start=True),
]


@pytest.mark.parametrize("order, target, levels", [(12, 0.3, 4), (5, 1.0, 7),
                                                   (8, 5.0, 1)])
def test_graded_segments_get_the_bits_of_a_panel_by_panel_layout(order,
                                                                 target,
                                                                 levels):
    ps = build_panels(GRADED, order=order, target_len=target, levels=levels)
    _assert_panel_bits(ps, _panels_one_by_one(GRADED, order, target, levels))


@pytest.mark.parametrize("name", ["sr_zero", "sr_bump", "sr_asym",
                                  "sr_hbump"])
def test_master_contours_get_the_bits_of_a_panel_by_panel_layout(request,
                                                                 name):
    mc = build_master_contour(request.getfixturevalue(name))
    _assert_panel_bits(panelize(mc), _panels_one_by_one(
        mc, PANEL_ORDER, PANEL_REAL, GRADE_LEVELS, TAG_PANEL_LEN))

