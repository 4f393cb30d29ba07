"""Tests for the jump assembly: unimodular jumps on every region tag, the
(y, t) phase conjugation, the t-independent jump built once per own
region tag and equal to a fresh build, a memo in the PanelSet's node
order whose read-only J0, phase factors and stack cover every own node,
warm jumps taking the phase in one pass over every own node per (y, t),
with an earlier (y, t) giving its bits back and a caller's overwrite or
another node array's (y, t) reaching no later call, a cold pass that
builds each region tag of the spec's own panels in one stack, bit-equal
to a panel-by-panel build on an evaluator of its own and integrating
each tag once per step count, other node arrays built alone at every
call and kept nowhere, a failed build kept nowhere and failing every own
panel's call until it builds, an empty node array getting an empty
stack on every tag, the diagonal eps-circle jumps, the circle jump
inside the eps-circles against the shifted G-functions written out, the
guard on region tags, check_jumps reading every own panel's served jump
and building each own tag once, with det J = 1 on every node, its two
symmetry rules and the junction at k = +-1/2 with every region tag
sampled, and a det defect outside the sample caught, a cold pass that
integrates only the lower half of a vertical cut, a vertical cut off the
origin, the typed refusals of off-axis cut nodes and of a collapsed or
inconsistent root, the residue-disk jumps of a synthetic pole with
a node off every disk refused, one read-only PanelSet per contour bit
pattern shared by panelize's callers and JumpSpec, and the real-axis
jump's k^-2 tail against |m0''(0)| / 16.
"""

import copy
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from perch import assembly, scattering
from perch.assembly import (ALL_TAGS, GRADE_LEVELS, PANEL_ORDER, PANEL_REAL,
                            TAG_PANEL_LEN, UPPER_LOWER_TAGS,
                            JumpSpec, _g_core, build_master_contour,
                            check_jumps, jump_diagnostics, panelize)
from perch.branch import PoleData, SheetedR, _check_geometry
from perch.config import DISK_RADIUS, ContourConfig
from perch.contour import build_panels
from perch.errors import (BadGeometry, CrossValidationFailure,
                          DenominatorCollapse, JumpConsistencyError,
                          PerchError, UnknownRegion)
from perch.initial import _fourier_modes, compute_momentum, load_initial_data
from perch.mat2 import det2, inv2

FIXTURES = ["sr_zero", "sr_hbump"]


@pytest.fixture(scope="module")
def jumps(request):
    """JumpSpec and panels by region tag (all of them), per fixture name."""
    out = {}

    def get(name):
        if name not in out:
            sr = request.getfixturevalue(name)
            js = JumpSpec(sr.sd, sr, build_master_contour(sr))
            panels = {}
            for p in js.ps.panels:
                panels.setdefault(p.label, []).append(p)
            out[name] = js, panels
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


class CountingJumps(JumpSpec):
    """Records each t-independent build as (tag, node count), and fails
    the builds of the tags in failing."""

    def __init__(self, *args):
        super().__init__(*args)
        self.builds = []
        self.failing = set()

    def j0_stack(self, ks, tag):
        self.builds.append((tag, len(ks)))
        if tag in self.failing:
            raise DenominatorCollapse("injected failure")
        return super().j0_stack(ks, tag)


def tag_sizes(js):
    """Node count of every region tag of the spec's own panels but the
    disks, in the order the tags first appear, the order the memo builds
    them in."""
    sizes = Counter()
    for p in js.ps.panels:
        if p.label != "disk":
            sizes[p.label] += len(p.nodes)
    return sizes


def test_t_independent_jump_is_built_once_per_node_array(sr_hbump):
    # one panel of every tag at three (y, t): one build per tag, each
    # result bit-equal to a fresh JumpSpec's, and the caller may write
    # into what it gets back
    mc = build_master_contour(sr_hbump)
    panels = {p.label: p for p in panelize(mc).panels}
    js = CountingJumps(sr_hbump.sd, sr_hbump, mc)
    grid = [(0.0, 0.0), (0.3 * js.theta, 0.7), (0.7 * js.theta, 0.3)]
    for tag, panel in panels.items():
        for y, t in grid + grid[:1]:
            J = js.jump_stack(y, t, panel.nodes, tag)
            fresh = JumpSpec(sr_hbump.sd, sr_hbump, mc)
            assert np.array_equal(J, fresh.jump_stack(y, t, panel.nodes, tag))
            J[:] = np.nan
    assert len(js.builds) == len(panels) >= 6


def bits(a):
    return a.view(np.uint64)


def with_phase(j0, k, y, t):
    """j0 conjugated by the phase, written out as the module docstring has
    it: J12 times e = exp(-2ik p(y, t, k)), J21 divided by it."""
    out = j0.copy()
    e = np.exp(-2j * k * (y - t / (2.0 * (k * k + 0.25))))
    out[:, 0, 1] *= e
    out[:, 1, 0] /= e
    return out


@pytest.mark.parametrize("name, factor", [("sr_bump", None),
                                          ("sr_hbump", 12.5)])
def test_a_cold_pass_builds_each_tag_once_bit_equal_to_panel_builds(
        request, name, factor):
    # the reference builds panel by panel on a sheet and evaluator of its
    # own, so it shares no cached (a, b, a*, b*) with the pass
    sr = request.getfixturevalue(name)
    mc = build_master_contour(sr)
    js = CountingJumps(sr.sd, sr, mc)
    ccfg = ContourConfig(k_window_factor=factor) if factor else None
    own = SheetedR(scattering.ScatteringData(sr.sd.mp), ccfg=ccfg)
    assert own.k_max == sr.k_max
    ref = JumpSpec(own.sd, own, build_master_contour(own))
    for y, t in ((0.0, 0.0), (0.3 * sr.theta, 0.7)):
        for p in js.ps.panels:
            want = with_phase(ref.j0_stack(p.nodes, p.label), p.nodes, y, t)
            assert np.array_equal(js.jump_stack(y, t, p.nodes, p.label), want)
    assert sorted(js.builds) == sorted(tag_sizes(js).items())


@pytest.fixture(scope="module")
def sweep_sr(sd_hbump):
    """The benchmark's sweep sheet: bump(-0.8) at window factor 1.5."""
    return SheetedR(sd_hbump, ccfg=ContourConfig(k_window_factor=1.5))


def test_warm_jumps_take_the_phase_from_read_only_factors(sweep_sr):
    # the memo keeps each own panel's rows of the PanelSet, and J0, -2ik,
    # 2 (k^2 + 1/4) and the last stack of every node in the PanelSet's
    # order, none of them writable; on the benchmark's sweep contour every
    # warm jump set is the panel's J0 times the phase written out, to the
    # bit, also after the caller has overwritten what an earlier call
    # returned
    js = JumpSpec(sweep_sr.sd, sweep_sr, build_master_contour(sweep_sr))
    ps = js.ps
    j0 = [js.j0_stack(p.nodes, p.label) for p in ps.panels]
    for y, t in ((0.3 * js.theta, 0.7), (0.7 * js.theta, 1.9),
                 (-0.2 * js.theta, 0.05)):
        for p, j in zip(ps.panels, j0):
            J = js.jump_stack(y, t, p.nodes, p.label)
            assert np.array_equal(J, with_phase(j, p.nodes, y, t))
            J[:] = np.nan
    assert list(js._rows.values()) == [ps.node_slice(q)
                                       for q in range(len(ps.panels))]
    memo = (js._j0, js._m2k, js._den, js._stack)
    assert all(len(a) == ps.n for a in memo)
    assert not any(a.flags.writeable for a in memo)
    for q, j in enumerate(j0):
        assert np.array_equal(bits(js._j0[ps.node_slice(q)]), bits(j))


def test_a_warm_jump_set_takes_the_phase_once(sweep_sr, monkeypatch):
    # on the sweep contour: one phase over every own node per (y, t), -0.0
    # apart from 0.0, none when the (y, t) repeats; an earlier (y, t)
    # gives its first bits back; an overwritten stack leaves the next call
    # alone; and -k of a panel, no panel and built whole at each call,
    # never gets a stack of another (y, t)
    js = JumpSpec(sweep_sr.sd, sweep_sr, build_master_contour(sweep_sr))
    panels = js.ps.panels
    phases = []
    with_phase_of = assembly._with_phase

    def counted(j0, *args):
        phases.append(len(j0))
        return with_phase_of(j0, *args)
    monkeypatch.setattr(assembly, "_with_phase", counted)
    grid = [(0.3 * js.theta, 0.7), (0.7 * js.theta, 1.9), (-0.0, 0.0),
            (0.0, 0.0)]
    sets = []
    for y, t in grid + grid[:1]:
        phases.clear()
        for _ in range(2):
            sets.append([js.jump_stack(y, t, p.nodes, p.label)
                         for p in panels])
        assert phases == [js.ps.n]
    for first, again in zip(sets[0], sets[-1]):
        assert np.array_equal(bits(first), bits(again))
    p = panels[40]
    J = js.jump_stack(*grid[0], p.nodes, p.label)
    J[:] = np.nan
    assert np.array_equal(bits(js.jump_stack(*grid[0], p.nodes, p.label)),
                          bits(sets[0][40]))
    k = -p.nodes
    assert (p.label, k.shape, k.tobytes()) not in js._rows
    j0 = js.j0_stack(k, p.label)
    for y, t in grid[:2] + grid[:1]:
        js.jump_stack(y, t, p.nodes, p.label)
        for yk, tk in grid[:2]:
            assert np.array_equal(bits(js.jump_stack(yk, tk, k, p.label)),
                                  bits(with_phase(j0, k, yk, tk)))


def test_a_cold_pass_integrates_each_tag_once_per_step_count(sd_hbump,
                                                             monkeypatch):
    # ab integrates its misses in one call per step count, and j0_stack
    # takes the lower arcs of a tag from the upper ones at conj k, so a
    # tag built in one stack makes at most two calls per step count; a
    # build per 12-node panel makes about one call per panel (616 calls
    # on these 610 panels).  Each call is put down to the tag j0_stack
    # is building, as the first own panel's call builds every tag
    sd = scattering.ScatteringData(sd_hbump.mp)
    sr = SheetedR(sd, ccfg=ContourConfig(k_window_factor=12.5))
    js = CountingJumps(sd, sr, build_master_contour(sr))
    calls = []
    integrate = scattering.integrate_transfer

    def counting(m0, L, ks, n_steps):
        calls.append((js.builds[-1][0], n_steps))
        return integrate(m0, L, ks, n_steps)

    monkeypatch.setattr(scattering, "integrate_transfer", counting)
    for p in panelize(js.mc).panels:
        js.jump_stack(0.0, 0.0, p.nodes, p.label)
    assert js.builds == list(tag_sizes(js).items())
    per = Counter(calls)
    assert len(per) >= 6
    assert max(per.values()) <= 2, per.most_common(3)


def test_an_array_that_is_no_panel_is_built_alone(sr_hbump):
    # -k of a real_outer panel is real_outer too, but no panel of the
    # spec: it is built by itself at every call and kept nowhere, and
    # every own tag is still built whole at the first call on a panel
    js = CountingJumps(sr_hbump.sd, sr_hbump, build_master_contour(sr_hbump))
    panels = [p for p in js.ps.panels if p.label == "real_outer"]
    k = -panels[0].nodes
    js.jump_stack(0.0, 0.0, k, "real_outer")
    js.jump_stack(0.0, 0.0, k, "real_outer")
    assert js.builds == [("real_outer", len(k))] * 2
    assert js._j0 is None
    for p in panels:
        js.jump_stack(0.3, 0.7, p.nodes, "real_outer")
    stack = js._stack
    js.jump_stack(0.7, 0.3, k, "real_outer")
    assert js.builds == [("real_outer", len(k))] * 2 + list(
        tag_sizes(js).items()) + [("real_outer", len(k))]
    assert js._stack is stack


def test_a_failed_build_is_not_kept(sr_hbump):
    # a build that raises keeps nothing: while one tag fails, every own
    # panel's call fails, of any tag, and each call builds the tags again
    # up to the failing one; once it builds, the jumps are a fresh spec's
    mc = build_master_contour(sr_hbump)
    js = CountingJumps(sr_hbump.sd, sr_hbump, mc)
    first = {}
    for p in js.ps.panels:
        first.setdefault(p.label, p)
    bad, good = first["circle"], first["real_outer"]
    order = list(tag_sizes(js).items())
    upto = order[:list(tag_sizes(js)).index("circle") + 1]
    js.failing = {"circle"}
    for p in (bad, bad, good):
        with pytest.raises(PerchError):
            js.jump_stack(0.0, 0.0, p.nodes, p.label)
        assert js._j0 is None and js._stack is None
    js.failing = set()
    fresh = JumpSpec(sr_hbump.sd, sr_hbump, mc)
    for p in js.ps.panels:
        if p.label == "circle":
            assert np.array_equal(
                bits(js.jump_stack(0.3, 0.7, p.nodes, "circle")),
                bits(fresh.jump_stack(0.3, 0.7, p.nodes, "circle")))
    assert js.builds == upto * 3 + order


@pytest.mark.parametrize("tag", ALL_TAGS)
def test_an_empty_node_array_gets_an_empty_stack(jumps, tag):
    # sr_hbump has cuts on the real axis, so its G-functions, the cut
    # rules and the disk rule all take the empty array
    js, _ = jumps("sr_hbump")
    J = js.jump_stack(0.3 * js.theta, 0.7, [], tag)
    assert J.shape == (0, 2, 2) and J.dtype == complex


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


class RecordingJumps(JumpSpec):
    """Records the points each region tag's jump is evaluated at."""

    def __init__(self, *args):
        super().__init__(*args)
        self.seen = {}

    def jump_stack(self, y, t, ks, tag, side=None):
        self.seen.setdefault(tag, []).append(np.atleast_1d(ks))
        return super().jump_stack(y, t, ks, tag)


@pytest.mark.parametrize("yt", [(0.0, 0.0), (0.3, 0.7)])
@pytest.mark.parametrize("name", ["sr_zero", "sr_bump", "sr_hbump",
                                  "sr_asym"])
def test_check_jumps_passes(request, name, yt):
    sr = request.getfixturevalue(name)
    js = RecordingJumps(sr.sd, sr, build_master_contour(sr))
    y, t = yt[0] * sr.theta, yt[1]
    d = check_jumps(js, y=y, t=t)
    assert 0 < d["nodes_checked"] <= 200
    assert max(d["det"], d["holomorphic"], d["antiholomorphic"],
               d["junction"]) <= 1e-9
    # every own panel is read through jump_stack, so det covers each node
    seen = {(tag, k.tobytes()) for tag, calls in js.seen.items()
            for k in calls}
    assert all((p.label, p.nodes.tobytes()) in seen for p in js.ps.panels)
    # every region tag present is sampled at its own nodes, and the
    # sample reaches the symmetry rules: one jump_stack call on the tag
    # builds its images -k and conj(k)
    own = {}
    for p in js.ps.panels:
        own.setdefault(p.label, []).append(p.nodes)
    samples = sampled(js, 200)
    assert set(samples) == set(own)
    for tag, k in samples.items():
        assert 0 < len(k) and np.all(np.isin(k, np.concatenate(own[tag])))
        images = np.concatenate([-k, np.conj(k)])
        assert sum(np.array_equal(c, images) for c in js.seen[tag]) == 1
    J = np.concatenate([js.jump_stack(y, t, p.nodes, p.label)
                        for p in js.ps.panels])
    assert d["det"] == float(np.max(np.abs(det2(J) - 1.0)))


def sampled(js, n, seed=5):
    """The nodes jump_diagnostics draws per region tag, max(1, n // tags)
    each, with its seeded generator."""
    ps = js.ps
    tags = np.unique(ps.labels)
    rng = np.random.default_rng(seed)
    return {tag: ps.nodes[rng.permutation(np.flatnonzero(ps.labels == tag))[
        :max(1, n // len(tags))]] for tag in tags}


def drawn(js, n, seed=5):
    """The nodes jump_diagnostics draws and their images -k and conj(k)."""
    k = np.concatenate(list(sampled(js, n, seed).values()))
    return np.concatenate([k, -k, np.conj(k)])


def test_check_jumps_catches_a_det_defect_outside_its_sample(sr_hbump):
    # a mutant whose J0 has det 4 on one real_outer panel that neither
    # sample (n = 200, n = 32) nor its images touch: a check of the sample
    # alone passes it, the det over every served node does not
    mc = build_master_contour(sr_hbump)
    ps = panelize(mc)
    touched = np.concatenate([drawn(JumpSpec(sr_hbump.sd, sr_hbump, mc), n)
                              for n in (200, 32)])
    bad = next(p for p in reversed(ps.panels) if p.label == "real_outer"
               and not np.any(np.isin(p.nodes, touched)))

    class DetOffOnOnePanel(JumpSpec):
        def j0_stack(self, ks, tag):
            out = super().j0_stack(ks, tag)
            out[np.isin(np.atleast_1d(ks), bad.nodes)] *= 2.0
            return out

    for n in (200, 32):
        js = DetOffOnOnePanel(sr_hbump.sd, sr_hbump, mc)
        with pytest.raises(JumpConsistencyError, match="^jump defects "
                           r"exceed 1e-9: det 3, holomorphic [0-9.e-]+, "):
            check_jumps(js, n=n)
        d = jump_diagnostics(js, n=n)
        assert max(d["holomorphic"], d["antiholomorphic"]) < 1e-9


def test_check_jumps_builds_the_own_tags_once(sr_hbump):
    # the images, samples and junction points check_jumps builds are kept
    # nowhere: over 4 seeds at 3 (y, t) each own tag is built once, every
    # call builds the sampled tags' images and the 3 junction arrays
    # alone, and the memo holds J0 of the own nodes, a fresh spec's bits
    mc = build_master_contour(sr_hbump)
    js = CountingJumps(sr_hbump.sd, sr_hbump, mc)
    for y, t in ((0.0, 0.0), (0.3 * js.theta, 0.7), (-0.0, 1.9)):
        for seed in range(1, 5):
            check_jumps(js, y=y, t=t, seed=seed)
    own = list(tag_sizes(js).items())
    assert js.builds[:len(own)] == own
    assert len(js.builds) == len(own) + 12 * (len(own) + 3)
    fresh = JumpSpec(sr_hbump.sd, sr_hbump, mc)
    fresh.jump_stack(0.0, 0.0, js.ps.panels[0].nodes, js.ps.panels[0].label)
    assert np.array_equal(bits(js._j0), bits(fresh._j0))


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


# ------------------------------------------------------------ cut jumps


def test_a_cold_pass_integrates_only_the_lower_half_of_a_vertical_cut(
        sd_bump):
    # the upper piece reads K*+ there, the conjugate root at -k, and the
    # lower piece K+, so no upper node asks for (a, b, a*, b*) of its own.
    # The evaluator integrates i nu and -i nu as one lam, so the rule is
    # read from the k ab is asked for, not from what it integrates
    sd = scattering.ScatteringData(sd_bump.mp)
    asked = set()
    ab = sd.ab

    def recording(ks):
        asked.update(np.atleast_1d(ks).tolist())
        return ab(ks)

    sd.ab = recording
    sr = SheetedR(sd)
    js = JumpSpec(sd, sr, build_master_contour(sr))
    for p in js.ps.panels:
        js.jump_stack(0.0, 0.0, p.nodes, p.label)
    check_jumps(js)
    k = np.concatenate([p.nodes for p in js.ps.panels
                        if p.label == "cut_vert"])
    upper, lower = k[k.imag > 0].tolist(), k[k.imag < 0].tolist()
    assert len(upper) == len(lower) > 0
    assert not any(z in asked for z in upper)
    assert all(z in asked for z in lower)


def test_a_vertical_cut_off_the_origin():
    # bump(2.0) on L = 6 has a real cut through 0 and vertical cuts
    # +-i[0.2055, 0.3583]: each is one piece, graded at both branch
    # points and running away from the origin
    mp = compute_momentum(load_initial_data("bump(2.0)", L=6.0))
    sd = scattering.ScatteringData(mp)
    sr = SheetedR(sd, ccfg=ContourConfig(k_window_factor=1.5))
    assert sr.cuts.covers("real", 0.0)
    assert sorted((round(c.lo, 9), round(c.hi, 9))
                  for c in sr.cuts.imag_cuts) == [
        (-0.358267281, -0.205462196), (0.205462196, 0.358267281)]
    mc = build_master_contour(sr)
    vert = [s for s in mc if s.label == "cut_vert"]
    assert len(vert) == 2
    for s in vert:
        assert 0.2 < abs(s.a) < abs(s.b) and s.a.real == s.b.real == 0.0
        assert s.grade_start and s.grade_end
    js = JumpSpec(sd, sr, mc)
    for p in js.ps.panels:
        js.jump_stack(0.0, 0.0, p.nodes, p.label)
    check_jumps(js, n=32)


def test_cut_tags_refuse_nodes_off_their_axis(sr_bump):
    js = JumpSpec(sr_bump.sd, sr_bump, build_master_contour(sr_bump))
    with pytest.raises(BadGeometry, match="real axis"):
        js.jump_stack(0.0, 0.0, np.array([1.4 + 1e-6j]), "cut_hor_outer")
    with pytest.raises(BadGeometry, match="imaginary axis"):
        js.jump_stack(0.0, 0.0, np.array([1e-6 - 0.1j]), "cut_vert")


def test_g_functions_refuse_a_collapsed_or_inconsistent_root(sr_bump):
    # copies of the evaluator and the sheet with one value corrupted:
    # a = 0 trips the denominator guard, a perturbed R* the dual forms
    k = np.array([0.3 + 0.2j, -0.7 - 0.4j])
    sd = copy.copy(sr_bump.sd)
    sd.ab = lambda ks: (0.0 * sr_bump.sd.ab(ks)[0],) + sr_bump.sd.ab(ks)[1:]
    with pytest.raises(DenominatorCollapse, match="^a fell under"):
        _g_core(sd, sr_bump, k)
    sr = copy.copy(sr_bump)
    sr.R_star = lambda ks: 1.001 * sr_bump.R_star(ks)
    with pytest.raises(CrossValidationFailure, match="G forms disagree"):
        _g_core(sr_bump.sd, sr, k)


# ------------------------------------------------------------ residue disks

# No profile seen so far has a pole whose disk clears the contour, so the
# disks are checked on a synthetic pole of the bump sheet, on -i(0, 1/2)
# as every pole is, with an imaginary residue as every residue there is.
MU_DISK = -0.3j
RES_DISK = 0.2j


def with_pole(sr, residue):
    """Copy of sr with one synthetic pole at MU_DISK."""
    sr = copy.copy(sr)
    sr.poles = (PoleData(mu=MU_DISK, residue=residue, residue_ring=residue),)
    _check_geometry(sr.cuts.cuts, [MU_DISK], sr.eps)
    return sr


def disk_jumps(sr, residue):
    """JumpSpec of sr with one pole at MU_DISK, on its disks alone."""
    sr = with_pole(sr, residue)
    disks = [s for s in build_master_contour(sr) if s.label == "disk"]
    assert len(disks) == 4
    assert {s.center for s in disks} == {MU_DISK, MU_DISK.conjugate()}
    return JumpSpec(sr.sd, sr, disks)


def test_disk_jump_is_the_residue_condition(sr_bump):
    # about mu the (1,2) entry -c e^{2i mu (theta - p(mu))} / (k - mu),
    # about conj(mu) the (2,1) entry with conj(c) and the opposite phase
    js = disk_jumps(sr_bump, RES_DISK)
    y, t = 0.3 * js.theta, 0.7
    for panel in js.ps.panels:
        k = panel.nodes
        lower = panel.center.imag < 0
        m, c, sgn = ((MU_DISK, RES_DISK, 1.0) if lower else
                     (np.conj(MU_DISK), np.conj(RES_DISK), -1.0))
        p_m = y - t / (2.0 * (m * m + 0.25))
        want = -c * np.exp(sgn * 2j * m * (js.theta - p_m)) / (k - m)
        assert np.max(np.abs(np.abs(k - m) - DISK_RADIUS)) < 1e-15
        J = js.jump_stack(y, t, k, "disk")
        i, j = (0, 1) if lower else (1, 0)
        assert np.all(J[:, 0, 0] == 1.0) and np.all(J[:, 1, 1] == 1.0)
        assert np.all(J[:, j, i] == 0.0)
        assert np.max(np.abs(J[:, i, j] - want)) < 1e-14 * np.max(np.abs(want))


@pytest.mark.parametrize("yt", [(0.0, 0.0), (0.3, 0.7)])
def test_disk_jumps_obey_both_rules(sr_bump, yt):
    js = disk_jumps(sr_bump, RES_DISK)
    d = check_jumps(js, y=yt[0] * js.theta, t=yt[1])
    assert d["nodes_checked"] == js.ps.n == 96
    assert max(d["det"], d["holomorphic"], d["antiholomorphic"]) < 1e-14


def test_a_node_off_every_disk_is_refused(sr_bump):
    js = disk_jumps(sr_bump, RES_DISK)
    with pytest.raises(BadGeometry, match="not on a residue disk"):
        js.jump_stack(0.0, 0.0, np.array([MU_DISK + 0.1]), "disk")


def test_check_jumps_catches_a_residue_with_a_real_part(sr_bump):
    # conj(c) = -c fails: the holomorphic rule breaks, the other holds
    js = disk_jumps(sr_bump, 0.2 + 0.2j)
    d = jump_diagnostics(js)
    assert d["holomorphic"] > 1.0 and d["antiholomorphic"] < 1e-14
    with pytest.raises(JumpConsistencyError, match=r", holomorphic [1-9]"):
        check_jumps(js)


def test_check_jumps_samples_the_disks_on_every_seed(sr_bump):
    # on the whole contour (5448 nodes, 96 of them on the disks) a
    # sample of 32 nodes, as the benchmark takes, still reaches the disks
    sr = with_pole(sr_bump, 0.2 + 0.2j)
    js = JumpSpec(sr.sd, sr, build_master_contour(sr))
    for seed in range(1, 5):
        with pytest.raises(JumpConsistencyError, match=r", holomorphic [1-9]"):
            check_jumps(js, n=32, seed=seed)


def test_one_panel_set_per_contour(sr_hbump):
    # the caller's panelize and JumpSpec share one object, and a fresh
    # segment list with the same bits finds it too
    mc = build_master_contour(sr_hbump)
    ps = panelize(mc)
    assert panelize(mc) is ps
    assert panelize(build_master_contour(sr_hbump)) is ps
    assert JumpSpec(sr_hbump.sd, sr_hbump, mc).ps is ps


def test_a_shared_panel_set_refuses_writes(sr_hbump):
    ps = panelize(build_master_contour(sr_hbump))
    arrays = [ps.nodes, ps.weights, ps.offsets, ps.panel_index, ps.labels]
    for p in ps.panels[:3] + ps.panels[-3:]:
        arrays += [p.nodes, p.weights, p.tau, p.wref]
    for a in arrays:
        with pytest.raises(ValueError):
            a[0] = a[0]


def test_contours_apart_only_in_the_sign_of_a_zero_get_their_own_panels(
        sr_hbump):
    # -0.0 == 0.0, so equal segment tuples; the memo keys on bits
    mc = build_master_contour(sr_hbump)
    i = next(i for i, s in enumerate(mc) if s.kind == "line" and s.a == 0.0)
    flipped = list(mc)
    flipped[i] = replace(mc[i], a=complex(-0.0, -0.0))
    assert flipped == mc
    ps, ps_flipped = panelize(mc), panelize(flipped)
    assert ps_flipped is not ps
    assert panelize(list(flipped)) is ps_flipped
    fresh = build_panels(flipped, order=PANEL_ORDER, target_len=PANEL_REAL,
                         levels=GRADE_LEVELS, per_label_len=TAG_PANEL_LEN)
    assert np.array_equal(ps_flipped.nodes.view(np.uint64),
                          fresh.nodes.view(np.uint64))


# k^2 |J - I| at mid-band on real_outer nodes, relative to |m0''(0)| / 16:
# the largest deviation measured at n = 28 is 0.0176 (bump(-0.8)), against
# 0.0036 (bump(0.5)) and 0.0128 (asym); each falls from n = 20 to n = 28
TAIL_N = (20, 28)
TAIL_REL = 0.02


def sr_jumps(sr):
    return JumpSpec(sr.sd, sr, build_master_contour(sr))


@pytest.mark.parametrize("name", ["sr_bump", "sr_hbump", "sr_asym"])
def test_the_real_axis_jump_tail_is_m0pp_over_16_k_squared(request, name):
    """k^2 max_ij |J - I|_ij at mid-band k = (n + 1/2) pi / theta tends to
    |m0''(0)| / 16.

    The norm is the largest entry modulus; the off-diagonal entries carry
    it, the diagonal ones are O(k^-4).  The constant: in the Liouville
    form -phi'' + V phi = k^2 phi on y in [0, theta], the gauge m0(0) = 0
    and these profiles' m0'(0) = 0 give V(0) = m0''(0) / 4.  The endpoint
    terms of the period integral leave
    |b(k)| = |V(0)| |e^{2ik theta} - 1| / (4 k^2) + O(k^-3), so
    |b| = |m0''(0)| / (8 k^2) at e^{2ik theta} = -1, and the real_outer
    jump's off-diagonal entry is b / (a - e^{2ik theta} a*) to leading
    order, whose denominator has modulus sqrt(4 - Delta^2 + 4 |b|^2), 2
    at mid-band.  The bound on the deviation is measured (TAIL_REL).
    """
    sr = request.getfixturevalue(name)
    c, freq = _fourier_modes(sr.sd.mp.m0)
    dk = 2j * np.pi * freq / sr.sd.mp.L
    assert abs(np.sum(c * dk).real) < 1e-12           # m0'(0) = 0
    want = abs(np.sum(c * dk * dk).real) / 16.0
    k = (np.array(TAIL_N) + 0.5) * np.pi / sr.theta
    J = sr_jumps(sr).jump_stack(0.0, 0.0, k, "real_outer")
    dev = np.abs(k**2 * np.max(np.abs(J - np.eye(2)), axis=(1, 2)) / want
                 - 1.0)
    assert dev[1] <= TAIL_REL
    assert dev[1] < dev[0]


def test_the_real_axis_jump_is_the_identity_on_zero(sr_zero):
    k = (np.array(TAIL_N) + 0.5) * np.pi / sr_zero.theta
    J = sr_jumps(sr_zero).jump_stack(0.0, 0.0, k, "real_outer")
    assert np.max(np.abs(J - np.eye(2))) <= 1e-15
