"""Tests for the branch layer: the monodromy trace and its axis slope,
branch-point location and cut pairing, the sheeted root pair with its
boundary values and origin limits, and the pole/residue machinery.
"""

import copy
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perch import branch
from perch.assembly import JumpSpec, build_master_contour, panelize
from perch.branch import (ANCHOR_APART, ANCHOR_ZERO, SheetedR, TraceFunction,
                          branch_report, locate_branch_points)
from perch.config import ORIGIN_OFFSET, ContourConfig
from perch.errors import (BadGeometry, BranchSelectionError, ContourClash,
                          CrossValidationFailure, DoubleZeroUnresolved,
                          NearPole, NonGenericCase, OutOfRange,
                          TooCloseToContour, VerificationFailure,
                          WindowTooSmall)
from perch.initial import compute_momentum, load_initial_data
from perch.mat2 import det2
from perch.scattering import ScatteringData

L = 2.0


@pytest.fixture(scope="module")
def sr_fault(sd_asym):
    # the other sheet, on purpose: the anchored sign is flipped while the
    # sheet is built, at sr_asym's window.  It builds and passes every
    # _validate check: the quadratic, unimodularity and reflection
    # identities hold on both sheets, so they check the evaluator, and
    # only the anchor tells the sheets apart
    anchored = branch._anchored_sign
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(branch, "_anchored_sign", lambda anchor: -anchored(anchor))
        return SheetedR(sd_asym, ccfg=ContourConfig(k_window_factor=5.5))


def cut_mid(c):
    m = 0.5 * (c.lo + c.hi)
    # the midpoint of an origin-straddling cut is 0 itself; probe off center
    return 0.25 * c.lo + 0.75 * c.hi if abs(m) < 2e-4 else m


def offcut_probes(sr, n=24, seed=7):
    rng = np.random.default_rng(seed)
    pts = (rng.uniform(-0.8, 0.8, n) * sr.k_max +
           1j * rng.uniform(0.07, 0.95, n) * rng.choice([-1.0, 1.0], n))
    keep = np.ones(n, dtype=bool)
    for mu in [p.mu for p in sr.poles] + [0.5j, -0.5j]:
        keep &= np.abs(pts - mu) > 0.06
    return pts[keep]


# ------------------------------------------------------------------- trace


def test_trace_zero_momentum_closed_form(sd_zero):
    tf = TraceFunction(sd_zero)
    ks = np.array([0.3, 2.7, -5.1, 0.2j, 1.4 - 0.3j])
    assert np.max(np.abs(tf(ks) - 2.0 * np.cos(ks * sd_zero.theta))) < 1e-10


@settings(max_examples=60, deadline=None)
@given(k=st.floats(min_value=-12.0, max_value=12.0).filter(
    lambda k: abs(k) >= 1e-3))
def test_trace_zero_momentum_property(sd_zero, k):
    # k = 0 itself is excluded: the wave basis is singular there and the
    # evaluator refuses it in favor of the dedicated origin expansion
    got = TraceFunction(sd_zero)(complex(k))
    assert abs(got - 2.0 * np.cos(k * sd_zero.theta)) < 1e-10


def test_trace_even_and_real_on_axes(sd_bump):
    tf = TraceFunction(sd_bump)
    ks = np.array([0.4, 1.9, 7.3, 0.1j, 0.35j, 2.0 + 0.6j])
    assert np.max(np.abs(tf(-ks) - tf(ks))) < 1e-10
    # on_axis validates Im Delta <= 1e-9 internally
    re = tf.on_axis("real", np.array([0.2, 1.1, 6.4]))
    im = tf.on_axis("imag", np.array([0.05, 0.2, 0.45]))
    assert re.dtype == float and im.dtype == float


def test_trace_finite_through_origin(sd_bump):
    # the i rho / k poles of a and a* cancel in the sum
    vals = TraceFunction(sd_bump)(np.array([1e-4, 1e-5, 1e-6], dtype=complex))
    assert np.max(np.abs(np.diff(vals))) < 1e-6


def test_trace_anchor_at_half_i(sd_bump):
    got = TraceFunction(sd_bump)(0.5j)
    assert abs(got - 2.0 * np.cosh(L / 2)) < 1e-9


# ------------------------------------------------------- branch location


def test_trivial_data_empty_cut_set(sd_zero):
    cs = locate_branch_points(TraceFunction(sd_zero), sd_zero.k_window())
    assert cs.cuts == () and cs.branch_points == ()
    assert any("trivial" in line for line in cs.pairing)
    # every zero of Delta -+ 2 is a double zero at a trace extremum: all
    # gaps are closed and logged with zero width
    assert len(cs.dropped) >= 12
    assert max(d.width for d in cs.dropped) <= 1e-9
    assert all(d.axis == "real" for d in cs.dropped)


def test_trivial_sheet_keeps_the_located_cut_set(sd_zero, sr_zero):
    # every sheet takes its cut set from locate_branch_points, the trivial
    # one included, so its closed gaps reach branch_report
    cs = locate_branch_points(TraceFunction(sd_zero), sr_zero.k_max)
    assert sr_zero.cuts == cs
    rep = branch_report(sr_zero)
    assert len(rep["dropped_gaps"]) == len(cs.dropped) >= 12
    assert rep["pairing"] == list(cs.pairing)


def test_bump_cut_geometry(sr_bump):
    cs = sr_bump.cuts
    assert len(cs.real_cuts) == 16
    assert len(cs.imag_cuts) == 1
    assert len(cs.branch_points) == 34
    assert len(cs.dropped) == 8
    ci = cs.imag_cuts[0]
    assert abs(ci.lo + 0.223833013) < 1e-8
    assert abs(ci.hi - 0.223833013) < 1e-8
    inner = min((c for c in cs.real_cuts if c.lo > 0), key=lambda c: c.lo)
    assert abs(inner.lo - 1.313040817) < 1e-8
    assert abs(inner.hi - 1.470140716) < 1e-8
    assert not cs.covers("real", 0.0)
    assert cs.covers("imag", 0.0) and ci.lo < 0.0 < ci.hi
    # ends included; pad widens every cut
    x = np.array([inner.lo, 1.4, inner.hi, inner.hi + 1e-9])
    assert cs.covers("real", x).tolist() == [True, True, True, False]
    assert cs.covers("real", x, pad=1e-8).all()


def test_origin_gap_cut_geometry(sr_hbump):
    cs = sr_hbump.cuts
    assert len(cs.real_cuts) == 25
    assert len(cs.imag_cuts) == 0
    assert len(cs.branch_points) == 50
    assert cs.covers("real", 0.0)
    (oc,) = [c for c in cs.real_cuts if c.lo < 0.0 < c.hi]
    assert abs(oc.lo + 0.405398064) < 1e-8
    assert abs(oc.hi - 0.405398064) < 1e-8


def test_branch_points_are_simple_zeros(sr_asym):
    tf = sr_asym.trace
    cs = sr_asym.cuts
    assert len(cs.real_cuts) == 10 and len(cs.imag_cuts) == 1
    zs = np.array(cs.branch_points)
    assert np.max(np.abs(tf(zs) ** 2 - 4.0)) <= 1e-8
    for z in cs.branch_points:
        axis, coord = ("real", z.real) if abs(z.imag) < 1e-12 \
            else ("imag", z.imag)
        slope = abs(tf.axis_slope(axis, abs(coord))[0])
        assert slope > 1e-7


@pytest.mark.parametrize("axis, xs", [
    ("real", [0.05, 0.4053981, 1.3131, 7.5, 16.9]),
    ("imag", [0.0061, 0.06, 0.21, 0.4999])])
def test_axis_slope_is_the_two_call_central_difference(mp_bump, axis, xs):
    # axis_slope sends both sides of every difference to the trace in one
    # call; each side must keep the bits of a call of its own, each on an
    # evaluator of its own, so no side is served from the other's store
    x = np.array(xs)
    hs = 1e-7 * np.maximum(1.0, np.abs(x))
    plus = TraceFunction(ScatteringData(mp_bump)).on_axis(axis, x + hs)
    minus = TraceFunction(ScatteringData(mp_bump)).on_axis(axis, x - hs)
    got = TraceFunction(ScatteringData(mp_bump)).axis_slope(axis, x)
    want = (plus - minus) / (2 * hs)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("axis", ["real", "imag"])
def test_an_empty_axis_array_gives_an_empty_trace(sd_bump, axis):
    got = TraceFunction(sd_bump).on_axis(axis, [])
    assert got.shape == (0,) and got.dtype == float


def test_cut_interiors_and_mirror_symmetry(sr_bump):
    tf = sr_bump.trace
    for c in sr_bump.cuts.cuts:
        # mirror cut exists
        assert any(abs(d.lo + c.hi) < 1e-9 and abs(d.hi + c.lo) < 1e-9
                   for d in sr_bump.cuts.cuts if d.axis == c.axis)
        x = cut_mid(c)
        d = float(tf.on_axis(c.axis, np.array([abs(x)]))[0])
        if c.axis == "real":
            assert abs(d) > 2.0
        else:
            assert abs(d) < 2.0


def test_window_stability_keeps_interior_cuts(sr_asym):
    base = sr_asym.k_max
    wide = locate_branch_points(sr_asym.trace, base + 1.0)
    inner = [c for c in sr_asym.cuts.real_cuts if c.hi <= base]
    assert len(inner) == 10
    for c in inner:
        match = [d for d in wide.real_cuts if abs(d.lo - c.lo) < 1e-6]
        assert match and abs(match[0].hi - c.hi) < 1e-9
    ci, cw = sr_asym.cuts.imag_cuts[0], wide.imag_cuts[0]
    assert abs(ci.lo - cw.lo) < 1e-9 and abs(ci.hi - cw.hi) < 1e-9


def test_band_edge_at_origin_rejected():
    # on this family Delta(0) - 2 is linear in the amplitude, so a tiny
    # bump sits inside the non-generic gate while staying far above the
    # trivial floor
    sd = ScatteringData(compute_momentum(load_initial_data("bump(1e-6)",
                                                           L=L, n=64)))
    with pytest.raises(NonGenericCase):
        locate_branch_points(TraceFunction(sd), sd.k_window())


def test_pairing_check_fires_on_a_mislabelled_interval(sr_bump, monkeypatch):
    # without the ends A0, A1 of the first real gap [1.313, 1.470] the
    # walk reads it as part of the band [0, 2.79]; that band's midpoint
    # 1.398 lies inside the gap, where |Delta| > 2
    interlaced = branch._interlaced

    def mislabel(periodic, anti):
        edges = interlaced(periodic, anti)
        assert [e[0] for e in edges[:4]] == ["P0", "A0", "A1", "P1"]
        return edges[:1] + edges[3:]
    monkeypatch.setattr(branch, "_interlaced", mislabel)
    with pytest.raises(VerificationFailure,
                       match="pairing mismatch on the real axis"):
        locate_branch_points(sr_bump.trace, sr_bump.k_max)


@pytest.mark.parametrize("fixture", ["sr_bump", "sr_hbump"])
@pytest.mark.parametrize("drop, names", [
    (("P", 0), ("A0", "P0")), (("A", 1), ("P1", "A1")),
    (("P", 4), ("A4", "P4")), (("A", 7), ("P7", "A7"))])
def test_hill_edges_out_of_oscillation_order_are_refused(
        request, monkeypatch, fixture, drop, names):
    # one eigenvalue lost from either list shifts the labels of the rest,
    # and the interlaced edges then fall in mu; before the order check the
    # walk blamed the window (WindowTooSmall)
    sr = request.getfixturevalue(fixture)
    spectrum = branch._hill_spectrum
    which, j = drop

    def lossy(m0, L, n_modes):
        periodic, anti = spectrum(m0, L, n_modes)
        if which == "P":
            return np.delete(periodic, j), anti
        return periodic, np.delete(anti, j)
    monkeypatch.setattr(branch, "_hill_spectrum", lossy)
    with pytest.raises(VerificationFailure, match=(
            r"Hill edges out of order: {} = \S+ lies below {} = ".format(
                *names))):
        locate_branch_points(sr.trace, sr.k_max)


def test_window_edge_collision_rejected(sr_asym):
    with pytest.raises(WindowTooSmall):
        locate_branch_points(sr_asym.trace, 6.7097)


@pytest.mark.parametrize("name,factor", [
    ("sd_hbump", 12.0), ("sd_bump", 4.0), ("sd_bump", 6.0)])
def test_integer_window_factors_build(request, name, factor):
    # these window edges lie next to gaps near n pi / theta but inside
    # bands, so the sheet builds, validated, with unimodular jumps
    sd = request.getfixturevalue(name)
    sr = SheetedR(sd, ccfg=ContourConfig(k_window_factor=factor))
    assert abs(sr.R(0.5j)) <= ANCHOR_ZERO
    mc = build_master_contour(sr)
    js = JumpSpec(sd, sr, mc)
    for p in panelize(mc).panels:
        J = js.jump_stack(0.0, 0.0, p.nodes, p.label)
        assert np.max(np.abs(det2(J) - 1.0)) <= 1e-12, p.label


@pytest.mark.parametrize("factor", [0.0, -1.5, np.nan, np.inf])
def test_window_factor_must_be_finite_and_positive(sd_hbump, factor):
    # a factor of 0 would build a contour with no real axis, and a
    # negative or NaN one failed deep in the walk with an untyped error
    ccfg = ContourConfig(k_window_factor=factor)
    with pytest.raises(OutOfRange, match="k_window_factor"):
        sd_hbump.k_window(ccfg)
    with pytest.raises(OutOfRange, match="k_window_factor"):
        SheetedR(sd_hbump, ccfg=ccfg)


def test_double_zero_guard(sr_asym, monkeypatch):
    monkeypatch.setattr(branch, "TAU_SIMPLE", 1e3)
    with pytest.raises(DoubleZeroUnresolved):
        locate_branch_points(sr_asym.trace, sr_asym.k_max)


# ------------------------------------------------------- sheet selection


@pytest.mark.parametrize("name", ["sr_bump", "sr_hbump", "sr_asym"])
def test_sheet_flags(request, name):
    sr = request.getfixturevalue(name)
    assert sr.sigma == 1.0
    assert not sr.trivial
    assert abs(sr.R(0.5j)) <= ANCHOR_ZERO
    assert abs(sr.R(-0.5j)) <= 1e-9


@pytest.mark.parametrize("sigma", [1.0, -1.0])
def test_anchored_sign_isolates_the_anchor(sigma):
    anchor = {sigma: ANCHOR_ZERO, -sigma: ANCHOR_APART}
    assert branch._anchored_sign(anchor) == sigma


@pytest.mark.parametrize("small,other", [
    (0.0, 0.5 * ANCHOR_ZERO),           # both roots vanish at i/2
    (2 * ANCHOR_ZERO, 1.0),             # neither does
    (0.0, 0.5 * ANCHOR_APART),          # the other sign is not apart
])
def test_anchored_sign_refuses_unsettled_anchors(small, other):
    for anchor in ({1.0: small, -1.0: other}, {1.0: other, -1.0: small}):
        with pytest.raises(BranchSelectionError, match="no sign isolates"):
            branch._anchored_sign(anchor)


def test_origin_miss_is_an_accuracy_failure(sr_asym, monkeypatch):
    # both roots tend to -1 at k = 0, so the check cannot tell the sheets
    # apart: a miss is a failure of value_at_zero, not of the sheet
    monkeypatch.setattr(SheetedR, "value_at_zero", lambda self: -1.0 + 2e-6)
    with pytest.raises(VerificationFailure, match="origin anchor"):
        sr_asym._validate()


@pytest.mark.parametrize("call, what", [
    (0, "quadratic residual"),       # the root at the probes, perturbed
    (1, "unimodularity defect"),     # the other root at their conjugates
    (2, "reflection defect"),        # the other root at their negatives
])
def test_validate_refuses_a_faulty_evaluator(sr_bump, call, what):
    # _validate evaluates the root at its probes, at their conjugates and
    # at their negatives, in that order; a copy of the sheet gets one of
    # the three wrong
    sr = copy.copy(sr_bump)
    calls = []

    def faulty(ks, sigma=None):
        calls.append(ks)
        if len(calls) - 1 != call:
            return sr_bump._raw(ks, sigma)
        if call == 0:
            return 1.001 * sr_bump._raw(ks)
        return sr_bump._raw(ks, sigma=-sr_bump.sigma)
    sr._raw = faulty
    with pytest.raises(BranchSelectionError, match=what):
        sr._validate()


def test_far_field_decay(sr_bump):
    angles = np.exp(1j * np.array([0.55, 1.1, 2.0, 2.6]))
    near = np.abs(sr_bump.R(0.45 * sr_bump.k_max * angles))
    far = np.abs(sr_bump.R(0.80 * sr_bump.k_max * angles))
    assert np.all(far < near)
    assert np.max(far) < 0.05


def test_trivial_root_vanishes(sr_zero):
    ks = np.array([0.3, 1.0 + 0.2j, -0.4j, 5.0])
    assert np.max(np.abs(sr_zero.R(ks))) == 0.0
    assert sr_zero.trivial
    assert sr_zero.value_at_zero() == 0.0


# --------------------------------------------------------- root identities


@pytest.mark.parametrize("name", ["sr_bump", "sr_hbump", "sr_asym"])
def test_offcut_identities(request, name):
    sr = request.getfixturevalue(name)
    pts = offcut_probes(sr)
    a, b, astar, bstar = sr.sd.ab(pts)
    K = sr.R(pts)
    Kstar = sr.R_star(pts)
    ph2 = np.exp(2j * pts * sr.theta)
    quad = np.abs(-ph2 * bstar * K * K + (ph2 * astar - a) * K + b)
    assert np.max(quad) <= 1e-9
    unim = np.abs((a - b * Kstar) * (astar - bstar * K) - 1.0)
    assert np.max(unim) <= 1e-8
    refl = np.abs(sr.R(-pts) - Kstar)
    assert np.max(refl) <= 1e-9


@pytest.mark.parametrize("name", ["sr_bump", "sr_hbump", "sr_asym"])
def test_root_pair_sum_and_product(request, name):
    sr = request.getfixturevalue(name)
    pts = offcut_probes(sr, seed=3)
    a, b, astar, bstar = sr.sd.ab(pts)
    K1 = sr._raw(pts, sigma=sr.sigma)
    K2 = sr._raw(pts, sigma=-sr.sigma)
    e = np.exp(-2j * pts * sr.theta)
    assert np.max(np.abs(K1 * K2 + b * e / bstar)) <= 1e-8
    assert np.max(np.abs(K1 + K2 - (astar - a * e) / bstar)) <= 1e-8


@pytest.mark.parametrize("name", ["sr_bump", "sr_hbump"])
def test_exact_axis_band_value_is_continuous(request, name):
    # points exactly on the real axis inside a band take the common value
    # of both half planes; the wrong sign of s there gives the companion
    # root, an O(1) jump against the limits from above and below
    sr = request.getfixturevalue(name)
    xs = np.linspace(0.05, 0.9 * sr.k_max, 61)
    xs = np.concatenate([xs, -xs])
    xs = xs[np.abs(sr.trace.on_axis("real", xs)) < 1.9]
    assert xs.size >= 40
    on_axis = sr.R(xs.astype(complex))
    for off in (1e-8j, -1e-8j):
        assert np.max(np.abs(on_axis - sr.R(xs + off))) < 1e-6


@pytest.mark.parametrize("name", ["sr_bump", "sr_hbump", "sr_asym"])
def test_cut_boundary_identities(request, name):
    sr = request.getfixturevalue(name)
    worst8 = worst9 = 0.0
    for c in sr.cuts.cuts:
        x = np.array([cut_mid(c)])
        k = c.embed(x)
        a, b, astar, bstar = sr.sd.ab(k)
        Kp = sr.boundary(c.axis, x, +1)
        Km = sr.boundary(c.axis, x, -1)
        Ksp = sr.boundary_star(c.axis, x, +1)
        Ksm = sr.boundary_star(c.axis, x, -1)
        worst8 = max(worst8, float(np.max(np.abs(Kp * Ksm - 1.0))),
                     float(np.max(np.abs(Km * Ksp - 1.0))))
        conn = (astar - bstar * Km) - np.exp(-2j * k * sr.theta) * (a - b * Ksp)
        worst9 = max(worst9, float(np.max(np.abs(conn))))
    assert worst8 <= 1e-7
    assert worst9 <= 1e-7


@pytest.mark.parametrize("name", ["sr_bump", "sr_hbump", "sr_asym"])
def test_boundary_values_are_the_one_sided_limits(request, name):
    # approach +1 is the limit from Im k > 0 on a real cut and from
    # Re k > 0 on an imaginary one; Kp Km* = 1 and the connection identity
    # hold with the sides swapped, so only the limit itself pins them.
    # The root varies on the scale of a gap's width (down to 1.2e-6), so
    # the probe 1e-9 off the cut must sit near its own side, not on it
    sr = request.getfixturevalue(name)
    for c in sr.cuts.cuts:
        # three interior points, bounded away from the origin
        x = c.lo + np.array([0.21, 0.47, 0.74]) * c.length
        x = x[np.abs(x) > max(0.02 * c.length, 2 * ORIGIN_OFFSET)]
        normal = 1j if c.axis == "real" else 1.0
        for approach in (+1, -1):
            off = sr.R(c.embed(x) + approach * 1e-9 * normal)
            on = sr.boundary(c.axis, x, approach)
            other = sr.boundary(c.axis, x, -approach)
            assert np.all(np.abs(off - on) < 1e-2 * np.abs(other - on)), c


def test_thin_gap_boundary_regression(sr_bump):
    # the outermost kept gaps are ~1e-6 wide, where |(X - Y) -+ s| ~ 2|b|
    # is tiny: the product R+ R*- = 1 must hold to rounding across the
    # gap and its mirror, from both sides, not only at one midpoint
    outer = max(sr_bump.cuts.real_cuts, key=lambda c: c.lo)
    mirror = min(sr_bump.cuts.real_cuts, key=lambda c: c.lo)
    assert outer.length < 1e-5
    assert (mirror.lo, mirror.hi) == (-outer.hi, -outer.lo)
    fr = np.array([0.1, 0.25, 0.5, 0.75, 0.9])
    for c in (outer, mirror):
        x = c.lo + fr * c.length
        for approach in (+1, -1):
            v = (sr_bump.boundary("real", x, approach)
                 * sr_bump.boundary_star("real", x, -approach))
            assert np.max(np.abs(v - 1.0)) <= 1e-10


# ------------------------------------------------------------ origin data


@pytest.mark.parametrize("name,want", [
    ("sr_bump", -1.0), ("sr_hbump", -1.0), ("sr_asym", -1.0)])
def test_value_at_zero(request, name, want):
    v0 = request.getfixturevalue(name).value_at_zero()
    assert abs(v0 - want) <= 1e-6
    assert abs(v0 - want) <= 2e-8     # regression margin


# --------------------------------------------------- boundary conventions


def test_boundary_guards(sr_bump, sr_hbump):
    with pytest.raises(BadGeometry):
        sr_bump.boundary("real", np.array([0.5]), +1)   # between cuts
    with pytest.raises(BadGeometry):
        sr_hbump.boundary("real", np.array([5e-5]), +1)  # origin window
    with pytest.raises(TooCloseToContour):
        sr_bump.R(0.1j)          # on the imaginary cut, no side requested
    with pytest.raises(TooCloseToContour):
        sr_bump.R(1.4 + 0j)      # on a real cut, no side requested


# --------------------------------------------------------- poles/residues


# the two zeros of b* of asym at window 5.5, mirrors under k -> -conj(k)
MU_ASYM = 6.741005022412 + 0.031206534215j
MUS_ASYM = (-np.conj(MU_ASYM), MU_ASYM)
RES_FAULT = 1.69657403 + 3.94442659j    # residue at MU_ASYM, flipped sheet


def test_no_poles_on_selected_sheet(sr_asym):
    assert sr_asym.poles == ()
    assert sr_asym.other_sheet_zeros == ()   # off the axis: not searched
    for z in MUS_ASYM:
        assert sr_asym._residue_at(z) is None    # bounded on this sheet


def test_trivial_has_no_poles(sr_zero):
    assert sr_zero.poles == () and sr_zero.other_sheet_zeros == ()


def test_fault_exposes_companion_poles(sr_fault):
    assert abs(sr_fault.R(0.5j)) >= ANCHOR_APART
    assert sr_fault.poles == () and sr_fault.other_sheet_zeros == ()
    c1, c2 = (sr_fault._residue_at(z) for z in MUS_ASYM)
    assert abs(c2.residue - RES_FAULT) < 1e-6
    for p in (c1, c2):
        scale = max(1.0, abs(p.residue))
        assert abs(p.residue - p.residue_ring) <= 1e-7 * scale
    # reflection symmetry of the root forces residue antisymmetry across
    # the mirror pair {mu, -conj(mu)}
    assert abs(c1.residue + np.conj(c2.residue)) < 1e-7


def test_fault_residue_lookup_and_guards(sr_fault):
    fault = copy.copy(sr_fault)
    fault.poles = (sr_fault._residue_at(MU_ASYM),)
    assert abs(fault.poles[0].residue - RES_FAULT) < 1e-6
    with pytest.raises(NearPole):
        fault.R(MU_ASYM + 5e-5)


def test_ring_check_needs_clearance(sr_bump):
    c = min((d for d in sr_bump.cuts.real_cuts if d.lo > 0),
            key=lambda d: d.lo)
    with pytest.raises(CrossValidationFailure, match="too close to a cut"):
        sr_bump._residue_at(cut_mid(c) + 1e-6j)


# ------------------------------------------------------------- diagnostics


def test_branch_report_round_trip(sr_asym):
    rep = json.loads(json.dumps(branch_report(sr_asym)))
    assert rep["sigma"] == 1.0
    assert len(rep["cuts"]) == 11
    assert len(rep["branch_points"]) == 22
    assert rep["other_sheet_zeros"] == []
    assert rep["poles"] == []
    assert abs(rep["theta"] - 2.341040005) < 1e-8


# ------------------------------------------------------------ contour room


def origin_cut(gap):
    """Vertical origin cut ending gap below i/2 (and above -i/2)."""
    return branch.Cut("imag", -(0.5 - gap), 0.5 - gap)


def test_far_cuts_keep_the_full_eps_radius():
    assert branch._eps_radius((origin_cut(0.3), branch.Cut("real", 1, 2))) \
        == branch.EPS_CIRCLE


@pytest.mark.parametrize("gap, eps", [(0.105, 0.095), (0.0952, 0.0852)])
def test_eps_radius_keeps_clearance_from_cuts(gap, eps):
    with pytest.warns(UserWarning, match="shrunk from 0.1 to"):
        assert abs(branch._eps_radius((origin_cut(gap),)) - eps) < 1e-15


def test_eps_radius_floor():
    with pytest.raises(ContourClash, match="comes within 0.025 of i/2"):
        branch._eps_radius((origin_cut(0.025),))


def poles_at(*nus):
    return [complex(0.0, -nu) for nu in nus]


# one pad of 1.25 DISK_RADIUS = 0.025 about each disk centre
@pytest.mark.parametrize("nus, cuts, meets", [
    ((0.38,), (), "the eps-circle about -i/2"),
    ((0.222,), (origin_cut(0.3),), r"the cut \[-0.2, 0.2\]"),
    ((0.2, 0.24), (), "the residue disk at 0-0.24j"),
    ((0.02,), (), "the real axis"),
    ((0.48,), (), r"\|k\| = 1/2"),
])
def test_residue_disk_clash(nus, cuts, meets):
    pattern = rf"residue disk at 0-\S+j meets {meets}"
    with pytest.raises(ContourClash, match=pattern):
        branch._check_geometry(cuts, poles_at(*nus), 0.1)


def test_residue_disks_with_room_pass():
    branch._check_geometry((origin_cut(0.3),), poles_at(0.25, 0.32), 0.1)
