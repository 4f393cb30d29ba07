"""Quadrature and Cauchy-transform core: exactness, Plemelj, convergence."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from perch import cauchy
from perch.assembly import build_master_contour, panelize
from perch.branch import SheetedR
from perch.config import ContourConfig
from perch.contour import Segment, build_panels
from perch.cauchy import (NEAR_PARAM, CauchyOperator, _boundary_rows,
                          _near_rows, _param_preimage, leg_Q, param_distance)
from perch.errors import BadGeometry, TooCloseToContour


def circle_segments(radius=0.5, center=0j):
    # full circle as two arcs so panel junctions are exercised
    return [
        Segment("arc", center=center, radius=radius, phi1=0.0, phi2=np.pi),
        Segment("arc", center=center, radius=radius, phi1=np.pi, phi2=2 * np.pi),
    ]


def test_panel_weights_reproduce_arclength_and_interval():
    ps = build_panels(circle_segments(0.5), order=12, target_len=0.3)
    assert abs(np.sum(np.abs(ps.weights)) - np.pi) < 1e-12
    seg = [Segment("line", a=-1.0 + 0j, b=1.0 + 0j)]
    ps2 = build_panels(seg, order=12, target_len=0.4)
    assert abs(np.sum(ps2.weights) - 2.0) < 1e-13
    assert ps2.n == len(ps2.panels) * 12


def test_legendre_Q_matches_series_lowest_orders():
    z = np.array([2.0 + 1.0j, -3.0 + 0.2j, 0.3 + 0.8j])
    Q = leg_Q(z, 3)
    q0 = 0.5 * np.log((z + 1) / (z - 1))
    np.testing.assert_allclose(Q[:, 0], q0, rtol=1e-13)
    np.testing.assert_allclose(Q[:, 1], z * q0 - 1, rtol=1e-13)
    np.testing.assert_allclose(Q[:, 2], 0.5 * (3 * z**2 - 1) * q0 - 1.5 * z, rtol=1e-12)


@pytest.mark.parametrize("k,expect", [
    (0.1 + 0.05j, 0.0),            # inside: residues of 1/s/(s-k) cancel
    (0.9 + 0.4j, None),            # outside: -1/k
    (0.5 * np.exp(0.7j) * (1 + 2e-6), None),   # just outside the curve
    (0.5 * np.exp(2.1j) * (1 - 2e-6), 0.0),    # just inside the curve
])
def test_cauchy_of_reciprocal_on_circle(k, expect):
    ps = build_panels(circle_segments(0.5), order=12, target_len=0.25)
    op = CauchyOperator(ps)
    rho = 1.0 / ps.nodes
    val = (op.offcontour_rows(np.array([k])) @ rho)[0]
    want = 0.0 if expect is not None else -1.0 / k
    assert abs(val - want) < 1e-11


def test_cauchy_of_identity_near_boundary():
    ps = build_panels(circle_segments(0.5), order=12, target_len=0.25)
    op = CauchyOperator(ps)
    rho = ps.nodes.copy()
    for k in [0.49 * np.exp(1.3j), 0.5 * np.exp(0.4j) * (1 - 1e-7)]:
        val = (op.offcontour_rows(np.array([k])) @ rho)[0]
        assert abs(val - k) < 1e-11


def circle_and_line():
    segs = circle_segments(0.5) + [Segment("line", a=-2.0 + 0j, b=-1.0 + 0j)]
    return build_panels(segs, order=10, target_len=0.3)


def test_plemelj_difference_is_identity():
    ps = circle_and_line()
    op = CauchyOperator(ps)
    Kp = op.boundary_matrix("plus")
    Km = op.boundary_matrix("minus")
    d = Kp - Km
    assert np.max(np.abs(d - np.eye(ps.n))) < 1e-12


def test_boundary_values_match_interior_limits():
    ps = build_panels(circle_segments(0.5), order=12, target_len=0.25)
    op = CauchyOperator(ps)
    rho = 1.0 / ps.nodes
    Km = op.boundary_matrix("minus")
    Kp = op.boundary_matrix("plus")
    # C_plus = 0 (inside limit), C_minus = -1/s (outside limit)
    np.testing.assert_allclose(Kp @ rho, np.zeros(ps.n), atol=1e-11)
    np.testing.assert_allclose(Km @ rho, -1.0 / ps.nodes, atol=1e-11)
    # C_plus[1] = 1 inside a closed curve
    np.testing.assert_allclose(Kp @ np.ones(ps.n), np.ones(ps.n), atol=1e-12)


def test_offnode_boundary_rows():
    ps = build_panels(circle_segments(0.5), order=12, target_len=0.25)
    op = CauchyOperator(ps)
    rho = ps.nodes**2
    taus = np.array([-0.55, 0.0, 0.37])
    rows = op.boundary_rows_at(3, taus, "plus")
    pts = ps.panels[3].s_of_tau(taus)
    # C_plus of s^2 on the circle equals k^2 inside
    np.testing.assert_allclose(rows @ rho, pts**2, atol=1e-11)


def per_panel_matrix(op, side):
    """The boundary matrix built panel by panel, both sides apart: the far
    formula, exact rows on near targets, one-sided rows on the panel's own
    nodes."""
    ps = op.ps
    N = ps.n
    K = (ps.weights[None, :] / (ps.nodes[None, :] - ps.nodes[:, None]
                                + np.eye(N))) / (2j * np.pi)
    for q, panel in enumerate(ps.panels):
        cols = ps.node_slice(q)
        zeta = _param_preimage(panel, ps.nodes)
        near = param_distance(zeta) < NEAR_PARAM
        near[cols] = False
        K[near, cols] = _near_rows(panel, op.proj, zeta[near])
        K[cols, cols] = _boundary_rows(panel, op.proj, panel.tau, side)
    return K


@pytest.fixture(scope="module")
def contours(request):
    def hbump():
        # the benchmark's sweep contour: bump(-0.8) at window factor 1.5
        window = ContourConfig(k_window_factor=1.5)
        sr = SheetedR(request.getfixturevalue("sd_hbump"), ccfg=window)
        return panelize(build_master_contour(sr))
    return {"circle+line": circle_and_line, "hbump@1.5": hbump}


@pytest.mark.parametrize("order", [("plus", "minus"), ("minus", "plus")])
@pytest.mark.parametrize("name", ["circle+line", "hbump@1.5"])
def test_both_sides_come_from_one_side_free_fill(contours, name, order,
                                                 monkeypatch):
    # each side equals the per-panel construction to the bit, in either
    # order; the caller may overwrite the first side (the benchmark takes
    # C+ - C- in place) without touching the second, which reuses the fill
    # and makes no preimage or near-row call; then the operator lets go
    ps = contours[name]()
    op = CauchyOperator(ps)
    want = {side: per_panel_matrix(op, side) for side in order}
    calls = []

    def counted(fn):
        def wrapper(*args):
            calls.append(fn.__name__)
            return fn(*args)
        return wrapper

    for fn in (_near_rows, _param_preimage):
        monkeypatch.setattr(cauchy, fn.__name__, counted(fn))
    first = op.boundary_matrix(order[0])
    assert np.array_equal(first, want[order[0]])
    assert {"_near_rows", "_param_preimage"} <= set(calls)
    calls.clear()
    first -= want[order[1]]
    second = op.boundary_matrix(order[1])
    assert calls == []
    assert np.array_equal(second, want[order[1]])
    assert [v for v in vars(op).values()
            if isinstance(v, np.ndarray) and v.size >= ps.n**2] == []


def per_panel_rows(op, ks, skip=None):
    """Rows of C at targets ks built panel by panel: exact rows on near
    targets, the far formula on the rest, a target on a panel refused;
    the block of panel skip stays zero."""
    rows = np.zeros((len(ks), op.ps.n), dtype=complex)
    for q, panel in enumerate(op.ps.panels):
        if q == skip:
            continue
        cols = op.ps.node_slice(q)
        zeta = _param_preimage(panel, ks)
        d = param_distance(zeta)
        if np.any(d < 1e-13):
            raise TooCloseToContour("target lies on a panel")
        near = d < NEAR_PARAM
        rows[near, cols] = _near_rows(panel, op.proj, zeta[near])
        rows[~near, cols] = (panel.weights[None, :]
                             / (panel.nodes[None, :] - ks[~near, None])
                             ) / (2j * np.pi)
    return rows


def near_and_far_targets(ps):
    # off every fourth panel at parameter heights 0.05, 0.3 and 1.2 above
    # and below it; the first two lie within NEAR_PARAM of their panel
    taus = np.array([-0.8, 0.1, 0.6])
    heights = np.array([0.05, 0.3, 1.2, -0.05, -0.3, -1.2])
    ks = [ps.panels[q].s_of_tau(taus[:, None] + 1j * heights[None, :]).ravel()
          for q in range(0, len(ps.panels), 4)]
    return np.concatenate(ks)


@pytest.mark.parametrize("name", ["circle+line", "hbump@1.5"])
def test_offcontour_and_offnode_rows_match_the_per_panel_rows(contours, name):
    # the one fill gives every target the rows the per-panel construction
    # gives it, to the bit; the targets fall near several panels and far
    # from others
    ps = contours[name]()
    op = CauchyOperator(ps)
    ks = near_and_far_targets(ps)
    d = np.array([param_distance(_param_preimage(p, ks)) for p in ps.panels])
    assert np.sum(np.any(d < NEAR_PARAM, axis=1)) > len(ps.panels) // 4
    assert np.sum(np.any(d >= NEAR_PARAM, axis=1)) == len(ps.panels)
    assert np.array_equal(op.offcontour_rows(ks), per_panel_rows(op, ks))
    taus = np.array([-0.93, -0.31, 0.02, 0.57, 0.88])
    for q in range(0, len(ps.panels), max(1, len(ps.panels) // 7)):
        panel = ps.panels[q]
        for side in ("plus", "minus"):
            want = per_panel_rows(op, panel.s_of_tau(taus), skip=q)
            want[:, ps.node_slice(q)] = _boundary_rows(panel, op.proj, taus,
                                                       side)
            assert np.array_equal(op.boundary_rows_at(q, taus, side), want)


def test_offcontour_target_on_a_panel_is_refused():
    # a node, and a point between nodes, of a panel; the far sum's
    # division by zero at that node stays silent
    ps = circle_and_line()
    op = CauchyOperator(ps)
    for k in (ps.nodes[27], ps.panels[5].s_of_tau(0.3)):
        with pytest.raises(TooCloseToContour, match="lies on a panel"):
            op.offcontour_rows(np.array([0.3 + 0.1j, k]))


def test_unknown_side_is_refused():
    # only "plus" and "minus" name a side; anything else is not the minus
    # one, and it is refused before the N x N fill is allocated, leaving
    # the operator as it was
    ps = circle_and_line()
    op = CauchyOperator(ps)
    tracemalloc.start()
    with pytest.raises(BadGeometry, match="'left'"):
        op.boundary_matrix("left")
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak < 16 * ps.n**2 / 8
    with pytest.raises(BadGeometry, match="'left'"):
        op.boundary_rows_at(3, np.array([0.1]), "left")
    assert np.array_equal(op.boundary_matrix("plus"), per_panel_matrix(op, "plus"))
    with pytest.raises(BadGeometry, match="'left'"):
        op.boundary_matrix("left")
    assert np.array_equal(op.boundary_matrix("minus"),
                          per_panel_matrix(op, "minus"))


def test_doubling_panels_contracts_error_fast():
    # smooth but non-polynomial density on a line; doubling panel count
    # must shrink the off-contour error by at least 2**(order-1)
    seg = [Segment("line", a=-1.0 - 0.3j, b=1.0 + 0.5j)]
    k = 0.1 + 0.9j
    f = lambda s: np.exp(2.0 * s) / (s - 3.0 - 1j)
    vals = {}
    for n in (2, 4):
        ps = build_panels(seg, order=8, target_len=abs(seg[0].b - seg[0].a) / n)
        op = CauchyOperator(ps)
        vals[n] = (op.offcontour_rows(np.array([k])) @ f(ps.nodes))[0]
    ref_ps = build_panels(seg, order=16, target_len=0.1)
    ref = (CauchyOperator(ref_ps).offcontour_rows(np.array([k])) @ f(ref_ps.nodes))[0]
    e2, e4 = abs(vals[2] - ref), abs(vals[4] - ref)
    assert e4 < e2 / 2**7


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=7),
       st.floats(min_value=-0.8, max_value=0.8),
       st.floats(min_value=0.01, max_value=0.65))
def test_polynomial_density_exact_on_line(deg, xr, yi):
    # polynomial densities are transformed exactly by the Q-form; targets
    # stay within the near-evaluation window where that form is used
    seg = [Segment("line", a=-1.0 + 0j, b=1.0 + 0j)]
    ps = build_panels(seg, order=8, target_len=2.0)
    op = CauchyOperator(ps)
    k = xr + 1j * yi
    rho = ps.nodes.real**deg
    val = (op.offcontour_rows(np.array([k])) @ rho.astype(complex))[0]
    # reference: Gauss-Legendre of (t^deg - k^deg)/(t-k) plus k^deg log term
    t, w = np.polynomial.legendre.leggauss(40)
    smooth = np.where(np.abs(t - k) > 0, (t**deg - k**deg) / (t - k), 0.0)
    ref = (np.sum(w * smooth) + k**deg * (np.log(1 - k) - np.log(-1 - k))) / (2j * np.pi)
    assert abs(val - ref) < 1e-12
