"""Tests for the jump assembly: unimodular jumps on every region tag, the
(y, t) phase conjugation, the diagonal eps-circle jumps, the circle jump
inside the eps-circles against the shifted G-functions written out, the
guard on region tags, and check_jumps on its two symmetry rules and the
junction at k = +-1/2.
"""

import numpy as np
import pytest

from perch.assembly import (ALL_TAGS, UPPER_LOWER_TAGS, JumpSpec,
                            build_master_contour, check_jumps, panelize)
from perch.errors import JumpConsistencyError, UnknownRegion
from perch.mat2 import det2, inv2

FIXTURES = ["sr_zero", "sr_hbump"]


@pytest.fixture(scope="module")
def jumps(request):
    """JumpSpec and panels by region tag (all of them), per fixture name."""
    out = {}

    def get(name):
        if name not in out:
            sr = request.getfixturevalue(name)
            mc = build_master_contour(sr)
            panels = {}
            for p in panelize(mc).panels:
                panels.setdefault(p.label, []).append(p)
            out[name] = JumpSpec(sr.sd, sr, mc), panels
        return out[name]
    return get


@pytest.mark.parametrize("name", FIXTURES)
def test_jump_det_one_on_every_tag(jumps, name):
    js, panels = jumps(name)
    assert set(panels) <= set(ALL_TAGS)
    assert {"real_outer", "real_inner", "circle", "circle_eps",
            "eps_outer", "eps_inner"} <= set(panels)
    for y, t in ((0.0, 0.0), (0.3 * js.theta, 0.7)):
        for tag, ps in panels.items():
            J = js.jump_stack(y, t, ps[0].nodes, tag)
            assert np.max(np.abs(det2(J) - 1.0)) < 1e-12, tag


@pytest.mark.parametrize("name", FIXTURES)
def test_jump_phase_conjugation(jumps, name):
    # J12(y, t) = exp(-2ik p(y, t, k)) J12(0, 0), p = y - t / (2(k^2 + 1/4));
    # the real_outer panel nearest |k| = 1/2 keeps J12 well above rounding
    js, panels = jumps(name)
    k = min(panels["real_outer"], key=lambda p: np.min(np.abs(p.nodes))).nodes
    y, t = 0.3 * js.theta, 0.7
    J0 = js.jump_stack(0.0, 0.0, k, "real_outer")[:, 0, 1]
    J = js.jump_stack(y, t, k, "real_outer")[:, 0, 1]
    if not js.sr.trivial:
        assert np.min(np.abs(J0)) > 1e-6
    phase = np.exp(-2j * k * (y - t / (2.0 * (k * k + 0.25))))
    assert np.max(np.abs(J - phase * J0)) < 1e-12 * max(1.0, np.max(np.abs(J0)))


@pytest.mark.parametrize("name", FIXTURES)
def test_unknown_tag_rejected(jumps, name):
    js, panels = jumps(name)
    with pytest.raises(UnknownRegion):
        js.jump_stack(0.0, 0.0, panels["real_outer"][0].nodes, "real_middle")


@pytest.mark.parametrize("name", FIXTURES)
def test_eps_jumps_are_diagonal(jumps, name):
    # the root vanishes at i/2, so the upper eps arcs carry
    # D = diag(e^{ik(L - theta)}, e^{-ik(L - theta)}) and the lower ones,
    # by the antiholomorphic rule, D^{-1}
    js, panels = jumps(name)
    y, t = 0.3 * js.theta, 0.7
    for tag in ("eps_outer", "eps_inner"):
        k = np.concatenate([p.nodes for p in panels[tag]])
        assert np.any(k.imag > 0) and np.any(k.imag < 0)
        J = js.jump_stack(y, t, k, tag)
        ph = np.exp(1j * k * (js.L - js.theta))
        d = np.where(k.imag > 0, ph, 1.0 / ph)
        assert np.max(np.abs(J[:, 0, 0] - d)) < 1e-14, tag
        assert np.max(np.abs(J[:, 1, 1] - 1.0 / d)) < 1e-14, tag
        assert np.all(J[:, 0, 1] == 0.0) and np.all(J[:, 1, 0] == 0.0), tag


def shifted_circle_jump(sd, sr, k):
    """Circle jump from the shifted G-functions, upper half plane.

    They are G and G1 with (a, b) multiplied and b* divided by
    e^{ik(L - theta)}, and e^{-2ik theta} replaced by e^{-2ik L}.
    """
    L = sd.mp.L
    a, b, _, bstar = sd.ab(k)
    ph = np.exp(1j * k * (L - sr.theta))
    at, bt, bts = a * ph, b * ph, bstar / ph
    K, Ks = sr.R(k), sr.R_star(k)
    G_shift = Ks * np.exp(-2j * k * L) + bts / at
    G1_shift = at * at * K - at * bt
    J = np.ones(k.shape + (2, 2), dtype=complex)
    J[:, 0, 0] = 1.0 - G1_shift * G_shift
    J[:, 0, 1] = -G1_shift
    J[:, 1, 0] = G_shift
    return J


@pytest.mark.parametrize("name", FIXTURES)
def test_circle_eps_jump_is_the_shifted_circle_jump(jumps, name):
    js, panels = jumps(name)
    k = np.concatenate([p.nodes for p in panels["circle_eps"]])
    k = k[k.imag > 0]
    assert len(k) > 0
    ref = shifted_circle_jump(js.sd, js.sr, k)
    scale = max(1.0, np.max(np.abs(ref)))
    assert np.max(np.abs(js.j0_stack(k, "circle_eps") - ref)) < 1e-13 * scale
    if not js.sr.trivial:
        # the plain circle jump differs there, so the check has teeth
        plain = js.j0_stack(k, "circle")
        assert np.max(np.abs(plain - ref)) > 1e-3 * scale


@pytest.mark.parametrize("yt", [(0.0, 0.0), (0.3, 0.7)])
@pytest.mark.parametrize("name", ["sr_zero", "sr_bump", "sr_hbump",
                                  "sr_asym"])
def test_check_jumps_passes(request, name, yt):
    sr = request.getfixturevalue(name)
    js = JumpSpec(sr.sd, sr, build_master_contour(sr))
    d = check_jumps(js, y=yt[0] * sr.theta, t=yt[1])
    assert d["nodes_checked"] == 200
    assert max(d["det"], d["holomorphic"], d["antiholomorphic"],
               d["junction"]) <= 1e-9


class LowerArcsWithoutInverse(JumpSpec):
    """Mutant: the lower arcs take sigma1 conj(J(conj k)) sigma1."""

    def j0_stack(self, ks, tag):
        out = super().j0_stack(ks, tag)
        if tag in UPPER_LOWER_TAGS:
            low = np.atleast_1d(ks).imag < 0
            out[low] = inv2(out[low])
        return out


@pytest.mark.parametrize("name", ["sr_bump", "sr_hbump"])
def test_check_jumps_catches_lower_arcs_without_inverse(request, name):
    # on sr_zero both forms agree to rounding, so it cannot tell them apart
    sr = request.getfixturevalue(name)
    js = LowerArcsWithoutInverse(sr.sd, sr, build_master_contour(sr))
    with pytest.raises(JumpConsistencyError):
        check_jumps(js)
