"""Sheet selection and pole search on low Fourier-mode profiles

    m0 = sum_j a_j sin(2 pi j x / L) + b_j (cos(2 pi j x / L) - 1),

which vanish at the period ends for any coefficients.  Pinned profiles
cover a build that a ray-decay sheet test could not settle, a pole
search that must end in a valid sheet, a zero of b* on the other sheet,
a genuine pole too close to the origin cut, and two vertical origin cuts
ending near i/2 that shrink the eps-circles; a hypothesis sweep covers
the family at large.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from perch.assembly import build_master_contour
from perch.branch import (ANCHOR_ZERO, CLEARANCE, EPS_CIRCLE, SheetedR,
                          residues_of_R)
from perch.config import ContourConfig
from perch.errors import ContourClash, NotAPole, PerchError
from perch.initial import InitialProfile, compute_momentum, solve_helmholtz
from perch.scattering import ScatteringData

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
    # far-field ratio of the two signs only 642 at the ray probes
    sr = SheetedR(fourier_sd(1.918961, [(1, 0.917972, -1.359565)]),
                  ccfg=WINDOW)
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
    with pytest.raises(NotAPole):
        residues_of_R(sr, z)


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
    radii = {seg.radius for seg in build_master_contour(sr).segments
             if seg.label in ("eps_outer", "eps_inner")}
    assert radii == {sr.eps}


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
