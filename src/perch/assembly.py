"""Master contour and piecewise jump matrix for the (y, t) problem.

build_master_contour lays out the oriented segment set the solver
integrates over: the truncated real axis, the circle |k| = 1/2, small
circles of radius eps about +-i/2, every branch cut of the selected
root, and one positively oriented disk per root pole carrying its
residue condition as an equivalent jump.  The sheet settles eps
(SheetedR.eps) and checks every residue disk against the rest of the
contour, so the layout here takes both as given.  Orientations follow
one fixed rule set: real-axis pieces run left to right, the circle runs
from +1/2 toward -1/2 through each half-plane (counterclockwise above,
clockwise below), the eps-circle at i/2 is clockwise and its mirror at
-i/2 counterclockwise, vertical cuts run away from the origin, and
residue disks are counterclockwise.  The plus side of every piece is
the left side when walking along it.  Each node carries one jump J,
M_+ = M_- J; on a cut it is built from the root's plus boundary values,
and a residue disk's from the pole and residue in sr.poles.

M(k) = sigma1 M(-k) sigma1 and M(k) = sigma1 conj(M(conj k)) sigma1 carry
M_+ = M_- J from a piece to its image.  The rotation k -> -k keeps the
left side on the left and the reflection k -> conj(k) swaps it, so with
the mapped direction running (a) along or (b) against the image's
orientation

  k -> -k        (a) J(k) = sigma1 J(-k) sigma1
                 (b) J(k) = sigma1 J(-k)^{-1} sigma1
  k -> conj(k)   (a) J(k) = sigma1 conj(J(conj k))^{-1} sigma1
                 (b) J(k) = sigma1 conj(J(conj k)) sigma1

k -> -k runs against every piece but the vertical cuts, which still run
away from the origin, and the residue disks; k -> conj(k) runs along
every piece but the disks: it fixes the real axis and takes the upper
circle arc and the clockwise eps-circle onto the lower arc and the
counterclockwise one.  Poles lie on -i(0, 1/2), so both maps take the
counterclockwise disk about mu onto the one about conj(mu) = -mu, the
rotation keeping its sense and the reflection reversing it.  So the
holomorphic rule takes the inverse on every tag but cut_vert and disk,
the antiholomorphic rule on every tag but disk; the lower halves of the
circle and eps pieces are built from the upper ones by the latter.  On
the disks the holomorphic rule asks conj(c) = -c of the residue c, which
holds as a, a* and b* are real on the imaginary axis (see
branch.SheetedR._residue_at).  Where pieces cross, M stays
bounded only if, counterclockwise around the point, the product of J
over the pieces leaving it and J^{-1} over those arriving is I: at
k = 1/2, J_real_outer J_circle,up J_real_inner^{-1} J_circle,low = I,
and at k = -1/2 the inverse of a cyclic shift of the same product.

Region tags on segments select the jump formula:

  real_outer / real_inner        plain real axis, |k| above / below 1/2
  cut_hor_outer / cut_hor_inner  real-axis pieces covered by a cut
  circle                         |k| = 1/2 away from the eps-disks
  circle_eps                     |k| = 1/2 inside an eps-disk
  eps_outer / eps_inner          eps-circle arcs, |k| above / below 1/2
  cut_vert                       cuts on the imaginary axis
  disk                           residue disks

The jumps are built from one root R of the global-relation quadratic.
SheetedR picks the sheet by the anchor R(i/2) = 0, so the root anchored
at i/2 is R itself: the shifted G-functions use the same root, and the
eps-circle arcs carry the diagonal jump
D = diag(e^{ik(L - theta)}, e^{-ik(L - theta)}).  The shifted
G-functions are exactly e^{-2ik(L - theta)} G and e^{2ik(L - theta)} G1,
so the piece of |k| = 1/2 inside the eps-circles carries the circle jump
conjugated by that same D: circle_eps = D J_circle D^{-1}.

The time dependence enters through the scalar phase
p(y, t, k) = y - t / (2 (k^2 + 1/4)): the jump at (y, t) is the k-fixed
matrix J0 conjugated by exp(-i k p sigma3), except on residue disks, where
the phase is evaluated at the pole itself.  So JumpSpec keeps one memo
laid out like its PanelSet, in the row order of the Cauchy boundary
matrices: J0 of every own node, built in one stack per region tag, and
the jump stack of all of them at the last (y, t), taken in one phase
pass; each panel's call copies its rows.  Any other node array (an image
-k or conj k, a junction point, a caller's sample) is built whole at
every call, and so are the disks, whose jump is not J0 times a phase at
each node.
"""

import functools
import struct
from dataclasses import replace

import numpy as np

from .config import DISK_PAD, DISK_RADIUS
from .contour import Segment, build_panels
from .errors import (BadGeometry, CrossValidationFailure,
                     DenominatorCollapse, JumpConsistencyError,
                     UnknownRegion)
from .mat2 import det2, frob, inv2, sigma1_conj

REAL_TAGS = ("real_outer", "real_inner", "cut_hor_outer", "cut_hor_inner")
UPPER_LOWER_TAGS = ("circle", "circle_eps", "eps_outer", "eps_inner")
CUT_TAGS = ("cut_hor_outer", "cut_hor_inner", "cut_vert")   # perfbench reads it
ALL_TAGS = REAL_TAGS + UPPER_LOWER_TAGS + ("cut_vert", "disk")

ORIGIN_STUB = 0.03        # ungraded panel length abutting k = 0
AXIS_TOL = 1e-9           # how close to an axis counts as on it
PANEL_ORDER = 12          # Gauss-Legendre nodes per panel
PANEL_REAL = 1.0          # target panel length on the real axis
PANEL_CIRCLE = 0.35       # target arc length on |k| = 1/2 and on cuts
# target panel length per region tag; the plain real axis takes PANEL_REAL
TAG_PANEL_LEN = {"circle": PANEL_CIRCLE, "circle_eps": 0.6 * PANEL_CIRCLE,
                 "eps_outer": 0.6 * PANEL_CIRCLE,
                 "eps_inner": 0.6 * PANEL_CIRCLE,
                 "cut_vert": PANEL_CIRCLE,
                 "cut_hor_outer": PANEL_CIRCLE,
                 "cut_hor_inner": PANEL_CIRCLE,
                 "disk": 0.5 * np.pi * DISK_RADIUS}
GRADE_LEVELS = 4          # geometric refinements toward flagged endpoints
PANEL_MEMO = 32           # contours whose PanelSet panelize keeps
DENOM_FLOOR = 1e-10       # smallest |a| and |a - b K*| the G-functions take


# ------------------------------------------------------------ contour


def _real_axis_segments(sr):
    k_max = sr.k_max
    pts = {-k_max, k_max, -0.5, 0.5, 0.0, -ORIGIN_STUB, ORIGIN_STUB}
    branch_pts = set()
    for c in sr.cuts.real_cuts:
        pts.update((c.lo, c.hi))
        branch_pts.update((c.lo, c.hi))
    xs = sorted(x for x in pts if -k_max <= x <= k_max)
    xs = [x for i, x in enumerate(xs) if i == 0 or x - xs[i - 1] > 1e-9]
    segs = []
    for x0, x1 in zip(xs[:-1], xs[1:]):
        mid = 0.5 * (x0 + x1)
        tag = (("cut_hor_" if sr.cuts.covers("real", mid) else "real_")
               + ("outer" if abs(mid) > 0.5 else "inner"))
        # a piece at k = 0 is one ungraded panel: grading it would put
        # nodes within ORIGIN_OFFSET of 0 on a cut shorter than ORIGIN_STUB
        whole = 0.0 in (x0, x1)
        gs = not whole and (x0 in branch_pts or x0 in (-0.5, 0.5)
                            or x0 == ORIGIN_STUB)
        ge = not whole and (x1 in branch_pts or x1 in (-0.5, 0.5)
                            or x1 == -ORIGIN_STUB)
        segs.append(Segment("line", a=complex(x0), b=complex(x1), label=tag,
                            grade_start=gs, grade_end=ge))
    return segs


def _circle_segments(eps):
    """|k| = 1/2 counterclockwise over the upper half, then its mirror
    phi -> -phi over the lower half, split where the eps-circles meet it."""
    lo = float(np.arcsin(1.0 - 2.0 * eps * eps))
    hi = np.pi - lo
    up = [Segment("arc", center=0j, radius=0.5, phi1=p1, phi2=p2, label=lab,
                  grade_start=True, grade_end=True)
          for p1, p2, lab in [(0.0, lo, "circle"),
                              (lo, np.pi / 2, "circle_eps"),
                              (np.pi / 2, hi, "circle_eps"),
                              (hi, np.pi, "circle")]]
    return up + [replace(s, phi1=-s.phi1, phi2=-s.phi2) for s in up]


def _eps_segments(eps):
    h = float(np.arcsin(eps))
    upper = [Segment("arc", center=0.5j, radius=eps, phi1=np.pi + h,
                     phi2=-h, label="eps_outer"),
             Segment("arc", center=0.5j, radius=eps, phi1=-h,
                     phi2=-np.pi + h, label="eps_inner")]
    lower = [Segment("arc", center=-0.5j, radius=eps, phi1=np.pi - h,
                     phi2=2 * np.pi + h, label="eps_outer"),
             Segment("arc", center=-0.5j, radius=eps, phi1=h,
                     phi2=np.pi - h, label="eps_inner")]
    return upper + lower


def _vertical_cut_segments(sr):
    """Vertical cuts as segments running away from the origin.

    A cut through 0 splits there; each half starts with an ungraded stub
    of length ORIGIN_STUB, or is one ungraded segment when it is no
    longer than that (see _real_axis_segments).
    """
    segs = []
    for c in sr.cuts.imag_cuts:
        pieces = []
        if c.lo < 0.0 < c.hi:
            pieces.append((0.0, c.hi))
            pieces.append((0.0, c.lo))
        else:
            far = c.hi if abs(c.hi) >= abs(c.lo) else c.lo
            near = c.lo if far is c.hi else c.hi
            pieces.append((near, far))
        for near, far in pieces:
            if near == 0.0 and abs(far) > ORIGIN_STUB:
                near = ORIGIN_STUB * np.sign(far)
                segs.append(Segment("line", a=0j, b=1j * near,
                                    label="cut_vert"))
            graded = near != 0.0
            segs.append(Segment("line", a=1j * near, b=1j * far,
                                label="cut_vert", grade_start=graded,
                                grade_end=graded))
    return segs


def _disk_segments(sr):
    """Two half-circle arcs per residue disk, counterclockwise.

    Poles lie on -i(0, 1/2) (ScatteringData.bstar_zeros), so each pole
    mu gets a lower-inner disk D3 and its mirror conj(mu) a disk D2;
    JumpSpec._disk_stack reads both from sr.poles.
    """
    segs = []
    for p in sr.poles:
        for center in (complex(p.mu), complex(np.conj(p.mu))):
            for p1, p2 in ((-np.pi / 2, np.pi / 2),
                           (np.pi / 2, 3 * np.pi / 2)):
                segs.append(Segment("arc", center=center, radius=DISK_RADIUS,
                                    phi1=p1, phi2=p2, label="disk"))
    return segs


def build_master_contour(sr, *, ccfg=None):
    """The master contour: the oriented segments for one sheet, as a list.

    The eps-circles take the radius the sheet settled (sr.eps), whose
    residue disks it has already checked against every other piece.
    Splits every piece so that each segment carries a single region
    tag, and keeps k = 0, +-1/2 and +-i/2 as segment endpoints only,
    never interior quadrature targets.  The circle_eps pieces carry the
    circle jump conjugated by D = diag(e^{ik(L - theta)},
    e^{-ik(L - theta)}), the diagonal jump of the eps arcs.  The window
    comes from sr; ccfg is accepted for callers that pass the window
    config along (perfbench/workloads.py) and is not read.
    """
    segs = _real_axis_segments(sr)
    segs += _circle_segments(sr.eps)
    segs += _eps_segments(sr.eps)
    segs += _vertical_cut_segments(sr)
    segs += _disk_segments(sr)
    return segs


def _segment_bits(seg):
    """A segment's exact bits: kind, label, grading flags and every
    coordinate packed as doubles, so -0.0 and 0.0 differ (a plain
    tuple compares them equal)."""
    return (seg.kind, seg.label, seg.grade_start, seg.grade_end,
            struct.pack("9d", seg.a.real, seg.a.imag, seg.b.real, seg.b.imag,
                        seg.center.real, seg.center.imag, seg.radius,
                        seg.phi1, seg.phi2))


def panelize(mc, ccfg=None):
    """Gauss-Legendre panels over the master contour mc (a segment list).

    One PanelSet per contour: the PANEL_MEMO most recent are kept, keyed
    by the segments' exact bits, so every caller that panelizes the same
    contour (JumpSpec and the caller that built it) shares one object,
    whose arrays are read-only (contour.PanelSet).
    """
    # ccfg is not read; perfbench/workloads.py passes its window config here
    return _panels(tuple(map(_segment_bits, mc)), tuple(mc))


@functools.lru_cache(maxsize=PANEL_MEMO)
def _panels(bits, mc):
    # keyed on bits; mc rides along to be panelized on a miss, and is
    # equal whenever the bits are
    return build_panels(mc, order=PANEL_ORDER, target_len=PANEL_REAL,
                        levels=GRADE_LEVELS, per_label_len=TAG_PANEL_LEN)


# ------------------------------------------------------------ phase


def _phase_raw(y, t, k):
    return y - t / (2.0 * (k * k + 0.25))


def _phase_factors(k):
    """The k-only factors of _phase_raw, -2ik and 2 (k^2 + 1/4)."""
    return -2j * k, 2.0 * (k * k + 0.25)


def _with_phase(j0, m2k, den, y, t):
    """j0 conjugated by exp(-ik p(y, t, k) sigma3), from m2k, den =
    _phase_factors(k) in _phase_raw's order of operations: J12 times
    e = exp(-2ik p), J21 divided by it."""
    out = j0.copy()
    e = np.exp(m2k * (y - t / den))
    out[..., 0, 1] *= e
    out[..., 1, 0] /= e
    return out


# ------------------------------------------------------------ G-functions


def _cross_check(name, first, second, ks):
    scale = np.maximum(1.0, np.maximum(np.abs(first), np.abs(second)))
    bad = np.abs(first - second) > 1e-8 * scale
    if np.any(bad):
        i = int(np.argmax(np.abs(first - second) / scale))
        raise CrossValidationFailure(
            f"{name} forms disagree at k = {ks[i]:.6g}: "
            f"{first[i]:.9g} vs {second[i]:.9g}")


def _guard_denominator(name, value):
    if np.any(np.abs(value) < DENOM_FLOOR):
        raise DenominatorCollapse(
            f"{name} fell under {DENOM_FLOOR:g}; the sheet labeling is wrong "
            "upstream")


def _g_core(sd, sr, ks, on_cut=False):
    """Vectorized pair (G, G1) with dual-form checks.

    On a real cut (on_cut) the root takes its plus boundary values, from
    Im k > 0, as real cuts run rightward.  Each function is
    formed in two algebraically equivalent ways that must agree, and
    every denominator is guarded.  The shifted pair of the eps-circles
    is e^{-2ik(L - theta)} G and e^{2ik(L - theta)} G1
    (JumpSpec._j0_upper).
    """
    flat = np.atleast_1d(np.asarray(ks, dtype=complex))
    if sr.trivial:
        z = np.zeros(flat.shape, dtype=complex)
        return z, z
    a, b, _, bstar = sd.ab(flat)
    if on_cut:
        if np.any(np.abs(flat.imag) > AXIS_TOL):
            raise BadGeometry("a real cut's nodes must lie on the real axis")
        K = sr.boundary("real", flat.real, 1.0)
        Ks = sr.boundary_star("real", flat.real, 1.0)
    else:
        K, Ks = sr.R(flat), sr.R_star(flat)
    e2t = np.exp(-2j * flat * sr.theta)
    den = a - b * Ks
    _guard_denominator("a", a)
    _guard_denominator("a - b K*", den)
    G_div = Ks / (a * den)
    G = Ks * e2t + bstar / a
    G1_div = a * K / (den * e2t)
    G1 = a * a * K - a * b
    _cross_check("G", G_div, G, flat)
    _cross_check("G1", G1_div, G1, flat)
    return G, G1


# ------------------------------------------------------------ jumps


class JumpSpec:
    """Evaluator for the piecewise jump matrix on the master contour.

    j0_stack gives the t-independent matrix J0 per region tag; jump_stack
    conjugates it with the phase exponential.  The spec takes mc's
    panels from panelize (ps), the one read-only PanelSet that every
    caller panelizing mc shares, so mc is laid out once.  jump_stack
    keeps one memo in ps's node order and nothing else: the first call
    on an own panel builds J0 of every own node, one j0_stack call per
    region tag on that tag's nodes, so the integrator sees each tag at
    once.  The memo keeps the stack at the last (y, t) it served: a call
    at that (y, t) costs a lookup and a copy of the panel's rows, a call
    at a new one takes the phase once over every own node.  So a jump
    set, every own panel at one (y, t), takes one phase pass.  A node
    array that is no own panel (-k, conj k, a sample, a junction point)
    is built whole at every call.  A j0_stack that raises leaves nothing
    kept: while one tag's build fails, so does every own-panel call, of
    any tag, and the next call builds every tag again.  Residue disks are
    the one exception: their nilpotent entry carries the phase evaluated
    at the pole, exactly as the residue conditions prescribe, so
    jump_stack builds them whole at every call, j0_stack has no disk
    rule, and the memo's disk rows stay unused.
    """

    def __init__(self, sd, sr, mc):
        self.sd = sd
        self.sr = sr
        self.mc = mc
        self.theta = sr.theta
        self.L = sd.mp.L
        self.ps = panelize(mc)
        # per own non-disk panel's key (tag, shape, bytes), its rows of ps
        self._rows = {(p.label, p.nodes.shape, p.nodes.tobytes()):
                      self.ps.node_slice(q)
                      for q, p in enumerate(self.ps.panels)
                      if p.label != "disk"}
        self._j0 = self._yt = self._stack = None

    # -------------------------------------------- t = 0 matrices

    def _j0_real(self, flat, tag):
        a, b, astar, bstar = self.sd.ab(flat)
        r = bstar / a
        rs = b / astar
        mid = np.empty(flat.shape + (2, 2), dtype=complex)
        mid[..., 0, 0] = 1.0 - r * rs
        mid[..., 0, 1] = rs
        mid[..., 1, 0] = -r
        mid[..., 1, 1] = 1.0
        G, G1 = _g_core(self.sd, self.sr, flat, tag.startswith("cut_hor"))
        left = np.zeros_like(mid)
        right = np.zeros_like(mid)
        left[..., 0, 0] = left[..., 1, 1] = 1.0
        right[..., 0, 0] = right[..., 1, 1] = 1.0
        if tag.endswith("outer"):
            left[..., 1, 0] = -np.conj(G1)
            right[..., 0, 1] = G1
        else:
            left[..., 0, 1] = -np.conj(G)
            right[..., 1, 0] = G
        return left @ mid @ right

    def _j0_upper(self, flat, tag):
        out = np.zeros(flat.shape + (2, 2), dtype=complex)
        ph = np.exp(1j * flat * (self.L - self.theta))
        if tag in ("circle", "circle_eps"):
            G, G1 = _g_core(self.sd, self.sr, flat)
            out[..., 0, 0] = 1.0 - G1 * G
            out[..., 0, 1] = -G1
            out[..., 1, 0] = G
            out[..., 1, 1] = 1.0
            if tag == "circle_eps":
                # D J D^{-1}, D = diag(ph, 1/ph): the eps arcs' jump
                out[..., 0, 1] *= ph * ph
                out[..., 1, 0] /= ph * ph
            return out
        out[..., 0, 0] = ph
        out[..., 1, 1] = 1.0 / ph
        return out

    def _j0_vert(self, flat):
        # vertical cuts run away from the origin, so their plus side is
        # Re k < 0 on the upper piece and Re k > 0 on the lower one; the
        # upper piece reads only K*+ and the lower only K+.  R(-conj k) =
        # conj R(k) takes the plus side onto the minus side: K- = conj K+,
        # so K+ - K- = 2i Im K+
        if np.any(np.abs(flat.real) > AXIS_TOL):
            raise BadGeometry("a vertical cut's nodes must lie on the "
                              "imaginary axis")
        out = np.zeros(flat.shape + (2, 2), dtype=complex)
        out[..., 0, 0] = out[..., 1, 1] = 1.0
        up = flat.imag > 0
        e2t = np.exp(-2j * flat * self.theta)
        if np.any(up):
            Ksp = self.sr.boundary_star("imag", flat.imag[up], -1.0)
            out[up, 1, 0] = e2t[up] * (2j * Ksp.imag)
        if not np.all(up):
            Kp = self.sr.boundary("imag", flat.imag[~up], 1.0)
            out[~up, 0, 1] = (2j * Kp.imag) / e2t[~up]
        return out

    def j0_stack(self, ks, tag):
        """Stacked t-independent jump matrices for one region tag."""
        flat = np.atleast_1d(np.asarray(ks, dtype=complex))
        if tag in REAL_TAGS:
            return self._j0_real(flat, tag)
        if tag in UPPER_LOWER_TAGS:
            out = np.empty(flat.shape + (2, 2), dtype=complex)
            up = flat.imag >= 0.0
            if np.any(up):
                out[up] = self._j0_upper(flat[up], tag)
            if np.any(~up):
                # antiholomorphic rule: sigma1 conj(J(conj k))^{-1} sigma1
                ref = self._j0_upper(np.conj(flat[~up]), tag)
                out[~up] = sigma1_conj(inv2(np.conj(ref)))
            return out
        if tag == "cut_vert":
            return self._j0_vert(flat)
        raise UnknownRegion(f"no jump rule for region tag {tag!r}")

    def _own_stack(self, y, t):
        """The jumps of every own node at (y, t) in ps order, read-only.

        J0 and the phase factors are built at the first call, the stack
        again at each new (y, t), compared by its bits, as -0.0 and 0.0
        may give different zeros in it.
        """
        if self._j0 is None:
            ps = self.ps
            j0 = np.zeros((ps.n, 2, 2), dtype=complex)
            for tag in dict.fromkeys(p.label for p in ps.panels):
                if tag != "disk":
                    own = ps.labels == tag
                    j0[own] = self.j0_stack(ps.nodes[own], tag)
            self._m2k, self._den = _phase_factors(ps.nodes)
            for a in (j0, self._m2k, self._den):
                a.flags.writeable = False
            self._j0 = j0
        yt = struct.pack("4d", y.real, y.imag, t.real, t.imag)
        if yt != self._yt:
            self._stack = _with_phase(self._j0, self._m2k, self._den, y, t)
            self._stack.flags.writeable = False
            self._yt = yt
        return self._stack

    # -------------------------------------------- disks

    def _disk_stack(self, y, t, flat):
        # D3 about each pole mu with its residue c, D2 about conj(mu) with
        # conj(c); the sheet keeps the centres 2 DISK_PAD apart, so a node,
        # at DISK_RADIUS from its own centre, lies within DISK_PAD of no
        # other, and one stack may hold the nodes of several disks
        disks = [(p.mu, p.residue, -1.0) for p in self.sr.poles]
        disks += [(np.conj(mu), np.conj(c), 1.0) for mu, c, _ in disks]
        out = np.zeros(flat.shape + (2, 2), dtype=complex)
        out[..., 0, 0] = out[..., 1, 1] = 1.0
        off = np.ones(flat.shape, dtype=bool)
        for mu, c, sgn in disks:
            on = np.abs(flat - mu) < DISK_PAD
            off &= ~on
            w = (np.exp(-sgn * 2j * mu * self.theta) * c
                 * np.exp(sgn * 2j * mu * _phase_raw(y, t, mu)))
            out[(on, 0, 1) if sgn < 0 else (on, 1, 0)] = -w / (flat[on] - mu)
        if np.any(off):
            raise BadGeometry(f"{flat[off][0]:.6g} is not on a residue disk")
        return out

    # -------------------------------------------- assembled jump

    def jump_stack(self, y, t, ks, tag, side=None):
        """Jump matrices at (y, t) for nodes sharing one region tag.

        An own panel's call at the (y, t) the memo last served copies its
        rows of the memo's stack; a call at another (y, t) first takes the
        phase over every own node (_own_stack).  Any other node array is
        built whole.  J0 and the phase are elementwise, so every call
        returns what a cold call on its own nodes returns, to the bit.
        """
        # side is not read; perfbench/workloads.py passes it by position
        flat = np.atleast_1d(np.asarray(ks, dtype=complex))
        if tag == "disk":
            return self._disk_stack(y, t, flat)
        rows = self._rows.get((tag, flat.shape, flat.tobytes()))
        if rows is None:
            return _with_phase(self.j0_stack(flat, tag),
                               *_phase_factors(flat), y, t)
        return self._own_stack(y, t)[rows].copy()


# ------------------------------------------------------------ diagnostics


JUNCTION_OFFSET = 1e-12   # distance of the circle samples from k = +-1/2


def _junction_defect(js, y, t):
    """Worst |J_out J_circle,up J_in^{-1} J_circle,low - I| at k = +-1/2."""
    d = 2.0 * JUNCTION_OFFSET          # the angle for radius 1/2
    arcs = js.jump_stack(y, t, 0.5 * np.exp(1j * np.array(
        [d, -d, np.pi - d, d - np.pi])), "circle").reshape(2, 2, 2, 2)
    # the cut set is symmetric under k -> -k, so one tag serves both points
    pre = "cut_hor_" if js.sr.cuts.covers("real", 0.5) else "real_"
    xs = np.array([0.5, -0.5])
    j_out = js.jump_stack(y, t, xs, pre + "outer")
    j_in = js.jump_stack(y, t, xs, pre + "inner")
    prod = j_out @ arcs[:, 0] @ inv2(j_in) @ arcs[:, 1]
    return float(np.max(frob(prod - np.eye(2))))


def jump_diagnostics(js, y=0.0, t=0.0, n=200, seed=5):
    """Worst |det J - 1|, symmetry-rule and junction defects.

    Takes every own panel's jump through jump_stack, the jumps a jump set
    serves, and checks det J = 1 on every node of js.ps.  Samples
    max(1, n // tags) quadrature nodes of every region tag present, so a
    tag with few nodes (a residue disk) is checked on every seed, and
    compares their served jumps with those at their images -k and conj(k)
    under the two rules of the module docstring, the images of one tag
    built in one stack.
    """
    ps = js.ps
    served = np.concatenate([js.jump_stack(y, t, p.nodes, p.label)
                             for p in ps.panels])
    det_defect = float(np.max(np.abs(det2(served) - 1.0)))
    rng = np.random.default_rng(seed)
    tags = np.unique(ps.labels)
    share = max(1, n // len(tags))
    holo = anti = 0.0
    checked = 0
    for tag in tags:
        pick = rng.permutation(np.flatnonzero(ps.labels == tag))[:share]
        j, k = served[pick], ps.nodes[pick]
        checked += len(k)
        j_neg, j_conj = np.split(js.jump_stack(
            y, t, np.concatenate([-k, np.conj(k)]), tag), 2)
        if tag not in ("cut_vert", "disk"):
            j_neg = inv2(j_neg)
        j_conj = np.conj(j_conj) if tag == "disk" else inv2(np.conj(j_conj))
        holo = max(holo, float(np.max(frob(j - sigma1_conj(j_neg)))))
        anti = max(anti, float(np.max(frob(j - sigma1_conj(j_conj)))))
    return {"det": det_defect, "holomorphic": holo, "antiholomorphic": anti,
            "junction": _junction_defect(js, y, t),
            "nodes_checked": checked}


def check_jumps(js, **kw):
    """Raise JumpConsistencyError when a defect exceeds 1e-9.

    The junction defect on the fixture profiles is at most 1.9e-12.  It
    reads the jumps jump_stack serves on every own panel, so a panel that
    cannot carry a jump raises here, and det J = 1 is checked on every
    node; the symmetry rules on jump_diagnostics' sample of at most n
    nodes."""
    d = jump_diagnostics(js, **kw)
    keys = ("det", "holomorphic", "antiholomorphic", "junction")
    if max(d[key] for key in keys) > 1e-9:
        raise JumpConsistencyError(
            "jump defects exceed 1e-9: " + ", ".join(
                f"{key} {d[key]:.3g}" for key in keys))
    return d
