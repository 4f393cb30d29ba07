"""Quadrature and Cauchy-transform core: exactness, Plemelj, convergence."""

import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from perch import cauchy
from perch.assembly import build_master_contour, panelize
from perch.branch import SheetedR
from perch.config import ContourConfig
from perch.contour import Segment, build_panels
from perch.cauchy import (NEAR_PARAM, CauchyOperator, _cot_minus_inv,
                          _param_preimage, _reach_disc, _rows, leg_Q,
                          leg_Q_side, param_distance)
from perch.errors import BadGeometry, OutOfRange, TooCloseToContour
from test_assembly import RES_DISK, with_pole


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


def q_by_quadrature(z):
    """Q_m(z) = 1/2 int P_m(t) / (z - t) dt, m < 12, by 200-point
    Gauss-Legendre: within 1.6e-14 of a 40-digit mpmath quadrature at
    every zeta the tests below take."""
    t, w = np.polynomial.legendre.leggauss(200)
    P = np.polynomial.legendre.legvander(t, 11)
    return 0.5 * (w / (z - t)) @ P


@pytest.mark.parametrize("x, bound", [(1.2, 1e-13), (-1.2, 1e-13),
                                      (1.683, 4e-12), (-1.683, 4e-12)])
@pytest.mark.parametrize("imag", [0.0, -0.0], ids=["+0", "-0"])
def test_legendre_Q_on_the_real_axis_matches_quadrature(x, bound, imag):
    # a real zeta off [-1, 1] is what a target on a line panel's own line
    # gives; the bound is the forward recurrence's loss (2e-14 at 1.2,
    # 1.9e-12 at 1.683) doubled; a -0 imaginary part at zeta < -1 once
    # put i pi P_m on Q_m
    z = complex(x, imag)
    assert np.max(np.abs(leg_Q(np.array([z]), 12)[0]
                         - q_by_quadrature(z))) < bound


@pytest.mark.parametrize("z, bound", [(1.663 + 0.192j, 1.6e-12),
                                      (-1.695 + 0.021j, 2.3e-11),
                                      (-1.7 + 0.3j, 3.7e-12)])
def test_legendre_Q_near_a_panel_matches_quadrature(z, bound):
    # zeta off the axis near [-1, 1]: the first two lie within NEAR_PARAM
    # of it, where the fill takes a near row from leg_Q, -1.7 + 0.3i just
    # beyond (0.76); each bound is the forward recurrence's loss there
    # doubled (8.0e-13; 1.13e-11, the worst of a 0.001 grid over the
    # region's part beyond |Re zeta| = 1.1; 1.8e-12), the floor a
    # backward recurrence would lower
    assert np.max(np.abs(leg_Q(np.array([z]), 12)[0]
                         - q_by_quadrature(z))) < bound


def test_cot_minus_inv_keeps_the_bits_of_both_forms_picked():
    # the series and the direct form each taken on every element and one
    # picked by |z| < 0.25 give the bits that each form taken only where
    # it is picked gives, at seeded z of both sizes, on the switch
    # |z| = 0.25, at 0 (where the direct form is nan) and at |z| >> 1
    rng = np.random.default_rng(11)
    z = (rng.uniform(-0.4, 0.4, (40, 12))
         + 1j * rng.uniform(-0.4, 0.4, (40, 12)))
    z[0, :8] = [0.25, -0.25, 0.25j, -0.25j, 0.0, -0.0, complex(-0.0, -0.0),
                1e-300]
    z[1, :6] = [40.0 + 30.0j, -200.5, 3e3 + 300.0j, 1.5 - 60.0j, 7.0,
                -1e4 + 1e-3j]
    small = np.abs(z) < 0.25
    zs = np.where(small, z, 1.0)
    series = -zs / 3.0 - zs**3 / 45.0 - 2.0 * zs**5 / 945.0 - zs**7 / 4725.0
    zb = np.where(small, 1.0, z)
    direct = np.cos(zb) / np.sin(zb) - 1.0 / zb
    want = np.where(small, series, direct)
    assert 0.3 < small.mean() < 0.6 and not small[0, :4].any()
    assert np.array_equal(_cot_minus_inv(z).view(np.uint64),
                          want.view(np.uint64))


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


def near_rows(panel, proj, zeta):
    """Exact rows of one panel at targets with preimages zeta."""
    return _rows([panel], proj, leg_Q(zeta, len(proj)), zeta, [len(zeta)])[0]


def side_rows(panel, proj, taus, side):
    """One-sided rows of one panel at parameter positions taus on it."""
    return _rows([panel], proj, leg_Q_side(taus, len(proj), side),
                 np.asarray(taus, dtype=complex), [len(taus)])[0]


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
        K[near, cols] = near_rows(panel, op.proj, zeta[near])
        K[cols, cols] = side_rows(panel, op.proj, panel.tau, side)
    return K


CONTOURS = ["circle+line", "hbump@1.5", "bump@1.5", "disks"]


@pytest.fixture(scope="module")
def contours(request):
    window = ContourConfig(k_window_factor=1.5)

    def at_window(sd):
        # the benchmark's window: bump(-0.8) at factor 1.5 is its sweep
        # contour, bump(0.5) cuts the imaginary axis
        sr = SheetedR(request.getfixturevalue(sd), ccfg=window)
        return panelize(build_master_contour(sr))

    def disks():
        # the residue disks of test_assembly's synthetic pole at -0.3i,
        # small quarter-circle arcs about the pole and its mirror
        sr = with_pole(request.getfixturevalue("sr_bump"), RES_DISK)
        return panelize([s for s in build_master_contour(sr)
                         if s.label == "disk"])
    return {"circle+line": circle_and_line,
            "hbump@1.5": lambda: at_window("sd_hbump"),
            "bump@1.5": lambda: at_window("sd_bump"), "disks": disks}


@pytest.mark.parametrize("order", [("plus", "minus"), ("minus", "plus")])
@pytest.mark.parametrize("name", CONTOURS)
def test_both_sides_come_from_one_side_free_fill(contours, name, order,
                                                 monkeypatch):
    # each side equals the per-panel construction to the bit, in either
    # order; the caller may overwrite the first side (the benchmark takes
    # C+ - C- in place) without touching the second, which reuses the fill
    # and takes no preimage and no Q off the panels; then the operator
    # lets go
    ps = contours[name]()
    op = CauchyOperator(ps)
    want = {side: per_panel_matrix(op, side) for side in order}
    calls = []

    def counted(fn):
        def wrapper(*args):
            calls.append(fn.__name__)
            return fn(*args)
        return wrapper

    for fn in (leg_Q, _param_preimage):
        monkeypatch.setattr(cauchy, fn.__name__, counted(fn))
    first = op.boundary_matrix(order[0])
    assert np.array_equal(first, want[order[0]])
    assert {"leg_Q", "_param_preimage"} <= set(calls)
    calls.clear()
    first -= want[order[1]]
    second = op.boundary_matrix(order[1])
    assert calls == []
    assert np.array_equal(second, want[order[1]])
    assert [v for v in vars(op).values()
            if isinstance(v, np.ndarray) and v.size >= ps.n**2] == []


@pytest.mark.parametrize("name", ["bump@1.5", "hbump@1.5"])
def test_c_minus_is_equivariant_under_k_to_minus_k(contours, name):
    # (C_- f)(-k) = (C_s [eps f(-.)])(k): k -> -k keeps the vertical cuts'
    # orientation (eps = +1, s = minus) and reverses every other piece
    # (eps = -1, s = plus); both contours are symmetric, so -k of a node
    # is a node.  The worst defect of a random density is 1.1e-11 on
    # bump@1.5, whose cut on the imaginary axis once gave 1.5e5, and
    # 1.9e-11 on hbump@1.5
    ps = contours[name]()
    k = ps.nodes
    image = np.argmin(np.abs(k[None, :] + k[:, None]), axis=1)
    assert np.max(np.abs(k[image] + k)) < 1e-15
    vert = ps.labels == "cut_vert"
    assert np.any(vert) == (name == "bump@1.5")
    op = CauchyOperator(ps)
    Cm = op.boundary_matrix("minus")
    Cp = op.boundary_matrix("plus")
    rng = np.random.default_rng(11)
    f = rng.standard_normal(ps.n) + 1j * rng.standard_normal(ps.n)
    g = np.where(vert, 1.0, -1.0) * f[image]
    want = np.where(vert, Cm @ g, Cp @ g)
    assert np.max(np.abs((Cm @ f)[image] - want)) < 5e-11


def test_the_fill_takes_preimages_only_inside_the_reach_discs(contours,
                                                              monkeypatch):
    # on the sweep contour a preimage is taken for under 3 % of the
    # target-panel pairs, and one Q recurrence serves every near row
    ps = contours["hbump@1.5"]()
    n_near = sum(int(np.sum((param_distance(_param_preimage(p, ps.nodes))
                             < NEAR_PARAM) & (ps.panel_index != q)))
                 for q, p in enumerate(ps.panels))
    preimage, leg = cauchy._param_preimage, cauchy.leg_Q
    sizes, q_calls = [], []

    def counted_preimage(panel, ks):
        sizes.append(len(ks))
        return preimage(panel, ks)

    def counted_leg_Q(z, p):
        q_calls.append(len(z))
        return leg(z, p)

    monkeypatch.setattr(cauchy, "_param_preimage", counted_preimage)
    monkeypatch.setattr(cauchy, "leg_Q", counted_leg_Q)
    CauchyOperator(ps).boundary_matrix("plus")
    assert n_near <= sum(sizes) <= 0.03 * ps.n * len(ps.panels)
    assert q_calls == [n_near]


def reach_points(panel, seed):
    """Points s(zeta) of the panel's near field: zeta seeded in the
    rectangle around [-1, 1], kept within NEAR_PARAM of it, plus the line
    bound's tight points zeta = +-(1 + NEAR_PARAM)."""
    rng = np.random.default_rng(seed)
    reach = 1.0 + NEAR_PARAM
    zeta = (rng.uniform(-reach, reach, 4000)
            + 1j * rng.uniform(-NEAR_PARAM, NEAR_PARAM, 4000))
    zeta = zeta[param_distance(zeta) < NEAR_PARAM]
    tight = np.array([reach, -reach, np.nextafter(reach, 0.0),
                      -np.nextafter(reach, 0.0)])
    return panel.s_of_tau(np.concatenate([zeta, tight]))


@settings(max_examples=40, deadline=None)
@given(st.complex_numbers(max_magnitude=5.0),
       st.floats(min_value=1e-3, max_value=10.0),
       st.floats(min_value=-np.pi, max_value=np.pi),
       st.floats(min_value=1e-6, max_value=3.0),
       st.booleans(), st.integers(0, 2**32 - 1))
@example(0.5j, 1.0, 0.3, 2.5, False, 1)     # 1.7 |beta| > pi / |beta|
@example(0j, 10.0, 0.0, 3.0, True, 2)
def test_reach_disc_holds_the_near_field(center, radius, phi, beta,
                                         clockwise, seed):
    # a line from center to center + 2 radius e^{i phi}, and an arc of
    # half-angle beta on the circle of that centre and radius; |beta|
    # starts at 1e-6, as a shorter arc sits within the rounding of its
    # own points
    beta = -beta if clockwise else beta
    for seg in (Segment("line", a=center,
                        b=center + 2.0 * radius * np.exp(1j * phi)),
                Segment("arc", center=center, radius=radius,
                        phi1=phi - beta, phi2=phi + beta)):
        (panel,) = build_panels([seg], order=12, target_len=seg.length).panels
        mid, reach = _reach_disc(panel)
        assert np.all(np.abs(reach_points(panel, seed) - mid) <= reach)


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
        rows[near, cols] = near_rows(panel, op.proj, zeta[near])
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


@pytest.mark.parametrize("name", CONTOURS)
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
            want[:, ps.node_slice(q)] = side_rows(panel, op.proj, taus, side)
            assert np.array_equal(op.boundary_rows_at(q, taus, side), want)


def test_the_scale_multiplies_as_numpy_divides_by_2j_pi():
    # the far sum scales by SCALE where it divided by 2j * pi, as the
    # per-panel references still do; numpy divides by a divisor with a
    # zero real part as a product with its rounded reciprocal, so both
    # give the same bits from 1e-320 to 1e300, subnormals and signed
    # zeros included
    rng = np.random.default_rng(30)
    parts = (rng.choice([-1.0, 1.0], 2 * 200_000)
             * 10.0 ** rng.uniform(-320.0, 300.0, 2 * 200_000))
    parts[:8] = [0.0, -0.0, -0.0, 0.0, 1e-320, -1e-320, 2.2e-308, -1e-310]
    x = parts.view(complex)
    assert np.sum(np.abs(parts) < np.finfo(float).tiny) > 1000
    want = (x / (2j * np.pi)).view(np.uint64)
    assert np.array_equal((x * cauchy.SCALE).view(np.uint64), want)
    y = x.copy()
    y *= cauchy.SCALE
    assert np.array_equal(y.view(np.uint64), want)
    # below that, a part within three steps of zero scales to a zero
    # whose sign may differ between the two (5e-324 - 5e-324j gives +0
    # and -0 real parts); the values stay equal
    tiny = np.array([1, 2, 3, -1, -2, -3]) * 5e-324
    x = (tiny[:, None] + 1j * tiny[None, :]).ravel()
    assert np.all(x * cauchy.SCALE == 0) and np.all(x / (2j * np.pi) == 0)


def test_the_banded_fill_gives_the_same_bits_on_any_number_of_workers(
        contours, monkeypatch):
    # on the sweep contour (N = 2112) both boundary matrices and the
    # off-contour rows are the same arrays from one band in the caller's
    # thread, from this machine's CPUs and from three uneven bands
    ps = contours["hbump@1.5"]()
    ks = near_and_far_targets(ps)
    made = []

    def counted(n):
        made.append(n)
        return ThreadPoolExecutor(n)
    monkeypatch.setattr(cauchy, "ThreadPoolExecutor", counted)

    def outputs():
        op = CauchyOperator(ps)
        return [op.boundary_matrix("minus"), op.boundary_matrix("plus"),
                op.offcontour_rows(ks)]
    want = outputs()
    for workers in (1, 3):
        monkeypatch.setattr(cauchy, "_workers", lambda: workers)
        made.clear()
        got = outputs()
        # the first side's fill and its copy, then the off-contour rows'
        # fill; the second side neither fills nor copies
        assert made == ([] if workers == 1 else [3, 3, 3])
        assert all(np.array_equal(g, w) for g, w in zip(got, want))


def test_a_fill_of_a_few_targets_starts_no_thread(contours, monkeypatch):
    # under BAND_ELEMENTS a fill is one band in the caller's thread,
    # however many CPUs there are; with one CPU so is every fill
    ps = contours["hbump@1.5"]()
    op = CauchyOperator(ps)
    rows = [op.offcontour_rows(near_and_far_targets(ps)[:3]),
            op.boundary_rows_at(7, np.array([-0.5, 0.1, 0.9]), "plus")]

    def no_pool(n):
        raise AssertionError("a thread pool was made")
    monkeypatch.setattr(cauchy, "ThreadPoolExecutor", no_pool)
    monkeypatch.setattr(cauchy, "_workers", lambda: 64)
    assert 3 * ps.n < cauchy.BAND_ELEMENTS
    assert np.array_equal(
        op.offcontour_rows(near_and_far_targets(ps)[:3]), rows[0])
    assert np.array_equal(
        op.boundary_rows_at(7, np.array([-0.5, 0.1, 0.9]), "plus"), rows[1])
    monkeypatch.setattr(cauchy, "_workers", lambda: 1)
    assert np.array_equal(op.boundary_matrix("plus"),
                          per_panel_matrix(op, "plus"))


def test_offcontour_target_that_is_not_finite_is_refused(monkeypatch):
    # refused before the N-wide fill, with no warning on the way; no
    # target gives no rows
    ps = circle_and_line()
    op = CauchyOperator(ps)

    def no_fill(*args):
        raise AssertionError("the fill ran")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert op.offcontour_rows([]).shape == (0, ps.n)
        monkeypatch.setattr(cauchy, "_by_bands", no_fill)
        for k in (np.nan, np.inf, -np.inf, complex(0.1, np.inf),
                  complex(np.nan, 0.2)):
            with pytest.raises(OutOfRange, match="is not finite"):
                op.offcontour_rows(np.array([0.3 + 0.1j, k]))


def test_offcontour_target_on_a_panel_is_refused():
    # a node, and a point between nodes, of a panel; the far sum's
    # division by zero at that node stays silent
    ps = circle_and_line()
    op = CauchyOperator(ps)
    for k in (ps.nodes[27], ps.panels[5].s_of_tau(0.3)):
        with pytest.raises(TooCloseToContour, match="lies on a panel"):
            op.offcontour_rows(np.array([0.3 + 0.1j, k]))


def one_line():
    seg = [Segment("line", a=-1.0 + 0j, b=1.0 + 0j)]
    return build_panels(seg, order=8, target_len=2.0)


@pytest.mark.parametrize("make", [one_line,
                                  lambda: build_panels(circle_segments(0.5),
                                                       order=12,
                                                       target_len=0.25)],
                         ids=["line", "circle"])
def test_offnode_position_off_its_panel_is_refused(make):
    # past an end of the panel, at an end, or not a number: on a lone
    # line the rows would come out non-finite, on a circle the point may
    # or may not lie on the next panel; both are refused before the fill
    op = CauchyOperator(make())
    for tau in (1.5, -3.0, 1.0, -1.0, np.nan, np.inf):
        with pytest.raises(OutOfRange, match=r"outside \(-1, 1\) on panel 0"):
            op.boundary_rows_at(0, np.array([0.2, tau]), "plus")
    rows = op.boundary_rows_at(0, np.array([-0.999, 0.999]), "minus")
    assert np.all(np.isfinite(rows))


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
