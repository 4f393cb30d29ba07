"""Sheet selection and pole search on low Fourier-mode profiles

    m0 = sum_j a_j sin(2 pi j x / L) + b_j (cos(2 pi j x / L) - 1),

which vanish at the period ends for any coefficients.  Pinned profiles
cover a build that a ray-decay sheet test could not settle, a pole
search that must end in a valid sheet, a zero of b* on the other sheet,
a genuine pole too close to the origin cut, and two vertical origin cuts
ending near i/2 that shrink the eps-circles; a hypothesis sweep covers
the family at large.  The seeded family sweep (family) reproduces the
pinned near-i/2 profiles, and three of its seeds are pinned as builds
through every jump and check_jumps: two narrow real origin cuts, where
the origin limit R(0) = -1 needs small probe radii, and a vertical
origin cut shorter than the ungraded stub at k = 0; seven more seeds
whose origin limit once missed -1 are pinned as sheet builds.  The sign
of the trace slope on a vertical cut is checked against the monodromy on
these profiles and the fixtures.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from perch.assembly import JumpSpec, build_master_contour, check_jumps
from perch.branch import (ANCHOR_ZERO, CLEARANCE, EPS_CIRCLE, SheetedR,
                          TraceFunction, locate_branch_points)
from perch.config import ORIGIN_OFFSET, ContourConfig
from perch.errors import ContourClash, PerchError
from perch.initial import InitialProfile, compute_momentum, solve_helmholtz
from perch.scattering import ScatteringData

# far-field ratio of the two signs only 642 at the ray probes
ANCHOR_ONLY = (1.918961, [(1, 0.917972, -1.359565)])
NEAR_I_HALF = {
    # seed of the family sweep: (L, modes, eps the sheet settles)
    1068: (3.442408, [(1, 0.31887, -0.68657), (2, 0.491956, -0.314687),
                      (3, -0.356243, -0.638427)], 0.0954725),
    1184: (2.93397, [(1, -0.253945, -1.152444), (2, -0.434289, -0.735677)],
           0.0851854),
}

WINDOW = ContourConfig(k_window_factor=5.5)
N = 128


def fourier_m0(L, modes):
    x = np.arange(N) * (L / N)
    m0 = np.zeros(N)
    for j, a, b in modes:
        w = 2 * np.pi * j * x / L
        m0 += a * np.sin(w) + b * (np.cos(w) - 1.0)
    return x, m0


def family(seed):
    """(L, modes) of the family sweep at one seed.

    L is uniform in [1, 4) with one to three modes, whose coefficients
    are standard normal divided by the mode number.  The scale
    min(0.9 u / (-min m), 3 / max m), u uniform in [0, 1), keeps
    m0 + 1 > 0.1 and max m0 <= 3 on the N-point grid.
    """
    rng = np.random.default_rng(seed)
    L = rng.uniform(1.0, 4.0)
    n = int(rng.integers(1, 4))
    c = rng.normal(size=2 * n)
    u = rng.uniform()
    modes = [(j, c[2 * j - 2] / j, c[2 * j - 1] / j) for j in range(1, n + 1)]
    m = fourier_m0(L, modes)[1]
    scale = min(0.9 * u / -np.min(m), 3.0 / np.max(m))
    return L, [(j, scale * a, scale * b) for j, a, b in modes]


def fourier_sd(L, modes):
    x, m0 = fourier_m0(L, modes)
    prof = InitialProfile(L=L, n=N, x=x, u0=solve_helmholtz(m0, L), m0=m0,
                          source="fourier")
    return ScatteringData(compute_momentum(prof))


def assert_valid_sheet(sr):
    assert abs(sr.R(0.5j)) <= ANCHOR_ZERO
    for p in sr.poles:
        assert p.mu.real == 0.0 and -0.5 < p.mu.imag < 0.0


def test_sheet_anchor_settles_where_ray_decay_did_not():
    sr = SheetedR(fourier_sd(*ANCHOR_ONLY), ccfg=WINDOW)
    assert sr.sigma == 1.0
    assert_valid_sheet(sr)


def test_pole_search_settles_a_valid_sheet():
    sr = SheetedR(fourier_sd(1.852375, [(1, -0.15386, 0.026207)]),
                  ccfg=WINDOW)
    assert_valid_sheet(sr)


def test_axis_zero_of_bstar_on_the_other_sheet():
    sd = fourier_sd(2.142463, [(1, 0.386074, 0.024151),
                               (2, -0.17186, 0.168875),
                               (3, 0.095531, -0.141196)])
    sr = SheetedR(sd, ccfg=WINDOW)
    assert_valid_sheet(sr)
    assert sr.poles == ()
    (z,) = sr.other_sheet_zeros
    assert z.real == 0.0 and abs(z - (-0.2098951285j)) < 1e-10
    assert abs(sd.ab(np.array([z]))[3][0]) < 1e-12
    assert sr._residue_at(z) is None      # bounded on this sheet


def test_pole_next_to_the_origin_cut_is_refused():
    sd = fourier_sd(2.736101, [(1, -0.313834, -0.15928),
                               (2, -0.141982, 0.103046),
                               (3, 0.155356, 0.061261)])
    with pytest.raises(ContourClash, match=r"residue disk at 0-0\.0114626j"):
        SheetedR(sd, ccfg=WINDOW)


@pytest.mark.parametrize("seed", sorted(NEAR_I_HALF))
def test_cut_near_half_i_shrinks_the_eps_circles(seed, monkeypatch):
    # 1184's cut ends 0.0952 below i/2, inside a circle of radius
    # EPS_CIRCLE; it builds once the circles keep CLEARANCE from it
    L, modes, eps = NEAR_I_HALF[seed]
    scans = []
    scan = ScatteringData._axis_zeros

    def spy(self, nus):
        scans.append(nus)
        return scan(self, nus)
    monkeypatch.setattr(ScatteringData, "_axis_zeros", spy)
    with pytest.warns(UserWarning, match="eps-circle radius shrunk"):
        sr = SheetedR(fourier_sd(L, modes), ccfg=WINDOW)
    assert_valid_sheet(sr)
    assert abs(sr.eps - eps) < 1e-7 and sr.eps < EPS_CIRCLE
    (cut,) = sr.cuts.imag_cuts
    assert abs(0.5 - cut.hi - sr.eps - CLEARANCE) < 1e-15
    # the b* scan reaches the circle, past the 0.4 of a fixed radius
    (nus,) = scans
    assert nus[-2] < 0.5 - sr.eps <= nus[-1]
    radii = {seg.radius for seg in build_master_contour(sr)
             if seg.label in ("eps_outer", "eps_inner")}
    assert radii == {sr.eps}


@pytest.mark.parametrize("seed", sorted(NEAR_I_HALF))
def test_family_reproduces_the_pinned_profiles(seed):
    L, modes = family(seed)
    assert round(float(L), 6) == NEAR_I_HALF[seed][0]
    assert [(j, round(float(a), 6), round(float(b), 6))
            for j, a, b in modes] == NEAR_I_HALF[seed][1]


@pytest.mark.parametrize("seed, axis, half", [
    (1078, "imag", 0.0159917697),    # shorter than ORIGIN_STUB, 0.03
    (1102, "real", 0.0147471919),    # R(0) missed by 1.1e-4 at r = 1e-3
    (1105, "real", 0.0331739733),    # missed by 3.1e-4
])
def test_family_seeds_with_a_narrow_origin_cut_build(seed, axis, half):
    # the piece of a cut at k = 0 is one ungraded panel, so its nodes keep
    # ORIGIN_OFFSET from 0 on a cut shorter than the stub too, and every
    # node of the contour carries a jump
    sd = fourier_sd(*family(seed))
    sr = SheetedR(sd, ccfg=WINDOW)
    (cut,) = [c for c in sr.cuts.cuts if c.lo < 0.0 < c.hi]
    assert cut.axis == axis and abs(cut.hi - half) < 1e-9
    assert abs(sr.value_at_zero() + 1.0) < 1e-9
    js = JumpSpec(sd, sr, build_master_contour(sr))
    assert min(np.min(np.abs(p.nodes)) for p in js.ps.panels) > ORIGIN_OFFSET
    for p in js.ps.panels:
        js.jump_stack(0.0, 0.0, p.nodes, p.label)
    check_jumps(js)


@pytest.mark.parametrize("seed, axis", [
    (1024, "real"), (1025, "real"),
    (1030, "imag"),                  # half-length 0.0173, under ORIGIN_STUB
    (1032, "real"), (1081, "real"), (1096, "real"), (1099, "real")])
def test_family_seeds_meet_the_origin_limit(seed, axis):
    # with 1102 and 1105 above, the seeds whose R(0) missed -1 by up to
    # 3.1e-4 at the old probe radius; now they miss by 1e-12 to 3e-11
    sr = SheetedR(fourier_sd(*family(seed)), ccfg=WINDOW)
    (cut,) = [c for c in sr.cuts.cuts if c.lo < 0.0 < c.hi]
    assert cut.axis == axis
    assert abs(sr.value_at_zero() + 1.0) < 1e-9


@pytest.mark.parametrize("case", ["sd_bump", "sd_asym", "anchor_only",
                                  *sorted(NEAR_I_HALF)])
def test_band_slope_sign_is_the_monodromy_sign(request, case):
    # SheetedR.boundary reads sign(dDelta/dnu) on a vertical cut as the
    # sign of X - Y + b/ph - b* ph = 2 nu T12 (branch module docstring);
    # the difference quotient of the trace must agree at every node
    if case == "anchor_only":
        sd = fourier_sd(*ANCHOR_ONLY)
    elif case in NEAR_I_HALF:
        sd = fourier_sd(*NEAR_I_HALF[case][:2])
    else:
        sd = request.getfixturevalue(case)
    tf = TraceFunction(sd)
    (cut,) = locate_branch_points(tf, sd.k_window(WINDOW)).imag_cuts
    nu = np.linspace(cut.lo, cut.hi, 202)[1:-1]
    nu = nu[np.abs(nu) >= ORIGIN_OFFSET]
    k = 1j * nu
    a, b, astar, bstar = sd.ab(k)
    ph = np.exp(1j * k * sd.theta)
    got = np.sign((a / ph - astar * ph + b / ph - bstar * ph).real)
    want = np.sign(tf.axis_slope("imag", nu))
    assert set(want) == {-1.0, 1.0}
    assert np.array_equal(got, want)


coef = st.floats(-0.35, 0.35, allow_nan=False)


@settings(max_examples=8, deadline=None, derandomize=True)
@given(L=st.floats(1.0, 4.0), ab=st.lists(coef, min_size=6, max_size=6))
def test_fourier_family_builds_or_raises_typed(L, ab):
    modes = [(j + 1, ab[2 * j], ab[2 * j + 1]) for j in range(3)]
    assume(np.min(fourier_m0(L, modes)[1]) > -0.9)
    try:
        sr = SheetedR(fourier_sd(L, modes), ccfg=WINDOW)
    except PerchError:
        return
    assert_valid_sheet(sr)
