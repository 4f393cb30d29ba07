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
the phase is evaluated at the pole itself.  So JumpSpec builds J0 once
per region tag and node array and reuses it at every (y, t); the disks,
whose jump is not J0 times a phase at each node, are built whole at
every call.
"""

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
GRADE_LEVELS = 4          # geometric refinements toward flagged endpoints
GRADE_RATIO = 0.5         # size ratio between successive graded panels


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
        gs = x0 in branch_pts or x0 in (-0.5, 0.5) or x0 == ORIGIN_STUB
        ge = x1 in branch_pts or x1 in (-0.5, 0.5) or x1 == -ORIGIN_STUB
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
    h = float(np.arcsin(min(eps, 0.999)))
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
            if near == 0.0:
                stub = ORIGIN_STUB * np.sign(far)
                segs.append(Segment("line", a=0j, b=1j * stub,
                                    label="cut_vert"))
                segs.append(Segment("line", a=1j * stub, b=1j * far,
                                    label="cut_vert", grade_start=True,
                                    grade_end=True))
            else:
                segs.append(Segment("line", a=1j * near, b=1j * far,
                                    label="cut_vert", grade_start=True,
                                    grade_end=True))
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


def panelize(mc, ccfg=None):
    """Gauss-Legendre panels over the master contour mc (a segment list)."""
    # ccfg is not read; perfbench/workloads.py passes its window config here
    per = {"circle": PANEL_CIRCLE, "circle_eps": 0.6 * PANEL_CIRCLE,
           "eps_outer": 0.6 * PANEL_CIRCLE,
           "eps_inner": 0.6 * PANEL_CIRCLE,
           "cut_vert": PANEL_CIRCLE,
           "cut_hor_outer": PANEL_CIRCLE,
           "cut_hor_inner": PANEL_CIRCLE,
           "disk": 0.5 * np.pi * DISK_RADIUS}
    return build_panels(mc, order=PANEL_ORDER,
                        target_len=PANEL_REAL, levels=GRADE_LEVELS,
                        ratio=GRADE_RATIO, per_label_len=per)


# ------------------------------------------------------------ phase


def _phase_raw(y, t, k):
    return y - t / (2.0 * (k * k + 0.25))


# ------------------------------------------------------------ G-functions


def _sided_roots(sr, ks):
    """Plus boundary values of the root and its conjugate on a cut.

    plus is the left side of the contour orientation: the upper half
    plane on real cuts (they run rightward), the side away from the
    travel direction's right on vertical cuts (Re k < 0 on the upper
    piece, Re k > 0 on the lower one).
    """
    flat = np.atleast_1d(ks)
    K = np.empty(flat.shape, dtype=complex)
    Ks = np.empty(flat.shape, dtype=complex)
    on_real = np.abs(flat.imag) <= AXIS_TOL
    on_imag = ~on_real & (np.abs(flat.real) <= AXIS_TOL)
    if np.any(~(on_real | on_imag)):
        raise BadGeometry("sided evaluation requires points on an axis cut")
    if np.any(on_real):
        xs = flat.real[on_real]
        K[on_real] = sr.boundary("real", xs, 1.0)
        Ks[on_real] = sr.boundary_star("real", xs, 1.0)
    for sgn in (1.0, -1.0):
        sel = on_imag & (np.sign(flat.imag) == sgn)
        if not np.any(sel):
            continue
        xs = flat.imag[sel]
        K[sel] = sr.boundary("imag", xs, -sgn)
        Ks[sel] = sr.boundary_star("imag", xs, -sgn)
    return K, Ks


def _cross_check(name, first, second, ks):
    scale = np.maximum(1.0, np.maximum(np.abs(first), np.abs(second)))
    bad = np.abs(first - second) > 1e-8 * scale
    if np.any(bad):
        i = int(np.argmax(np.abs(first - second) / scale))
        raise CrossValidationFailure(
            f"{name} forms disagree at k = {ks[i]:.6g}: "
            f"{first[i]:.9g} vs {second[i]:.9g}")


def _guard_denominator(name, value, floor=1e-10):
    if np.any(np.abs(value) < floor):
        raise DenominatorCollapse(
            f"{name} fell under {floor:g}; the sheet labeling is wrong "
            "upstream")


def _g_core(sd, sr, ks, on_cut=False):
    """Vectorized pair (G, G1) with dual-form checks.

    On a cut the root takes its plus boundary values.  Each function is
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
        K, Ks = _sided_roots(sr, flat)
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
    conjugates it with the phase exponential.  jump_stack keeps J0 per
    (tag, node array), so a node array asked for again at another (y, t)
    costs a lookup, a copy and the phase; a j0_stack that raises leaves
    nothing kept.  Residue disks are the one exception: their
    nilpotent entry carries the phase evaluated at the pole, exactly as
    the residue conditions prescribe, so jump_stack builds them whole at
    every call and j0_stack has no disk rule.
    """

    def __init__(self, sd, sr, mc):
        self.sd = sd
        self.sr = sr
        self.mc = mc
        self.theta = sr.theta
        self.L = sd.mp.L
        self._j0 = {}

    # -------------------------------------------- t = 0 matrices

    def _j0_real(self, flat, tag):
        a, b, astar, bstar = self.sd.ab(flat)
        r = bstar / a
        rs = b / astar
        out = np.empty(flat.shape + (2, 2), dtype=complex)
        mid = np.empty_like(out)
        mid[..., 0, 0] = 1.0 - r * rs
        mid[..., 0, 1] = rs
        mid[..., 1, 0] = -r
        mid[..., 1, 1] = 1.0
        G, G1 = _g_core(self.sd, self.sr, flat, tag.startswith("cut_hor"))
        left = np.zeros_like(out)
        right = np.zeros_like(out)
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
        # R(-conj k) = conj R(k) takes the plus side of the imaginary axis
        # onto the minus side: K- = conj K+, so K+ - K- = 2i Im K+
        Kp, Ksp = _sided_roots(self.sr, flat)
        out = np.zeros(flat.shape + (2, 2), dtype=complex)
        out[..., 0, 0] = out[..., 1, 1] = 1.0
        upper = flat.imag > 0
        e2t = np.exp(-2j * flat * self.theta)
        out[..., 1, 0] = np.where(upper, e2t * (2j * Ksp.imag), 0.0)
        out[..., 0, 1] = np.where(upper, 0.0, (2j * Kp.imag) / e2t)
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

    # -------------------------------------------- disks

    def _disk_stack(self, y, t, flat):
        # D3 about each pole mu with its residue c, D2 about conj(mu) with
        # conj(c); the sheet keeps the centres 2 DISK_PAD apart, so k, at
        # DISK_RADIUS from its own centre, lies within DISK_PAD of no other
        k = complex(flat.ravel()[0])
        disks = [(p.mu, p.residue, -1.0) for p in self.sr.poles]
        disks += [(np.conj(mu), np.conj(c), 1.0) for mu, c, _ in disks]
        for mu, c, sgn in disks:
            if abs(k - mu) < DISK_PAD:
                break
        else:
            raise BadGeometry(f"{k:.6g} is not on a residue disk")
        w = (np.exp(-sgn * 2j * mu * self.theta) * c
             * np.exp(sgn * 2j * mu * _phase_raw(y, t, mu)))
        out = np.zeros(flat.shape + (2, 2), dtype=complex)
        out[..., 0, 0] = out[..., 1, 1] = 1.0
        out[(..., 0, 1) if sgn < 0 else (..., 1, 0)] = -w / (flat - mu)
        return out

    # -------------------------------------------- assembled jump

    def jump_stack(self, y, t, ks, tag, side=None):
        """Jump matrices at (y, t) for nodes sharing one region tag."""
        # side is not read; perfbench/workloads.py passes it by position
        flat = np.atleast_1d(np.asarray(ks, dtype=complex))
        if tag == "disk":
            return self._disk_stack(y, t, flat)
        key = (tag, flat.shape, flat.tobytes())
        j0 = self._j0.get(key)
        if j0 is None:
            j0 = self._j0[key] = self.j0_stack(flat, tag)
        out = j0.copy()
        e = np.exp(-2j * flat * _phase_raw(y, t, flat))
        out[..., 0, 1] *= e
        out[..., 1, 0] /= e
        return out


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

    Samples max(1, n // tags) quadrature nodes of every region tag
    present, so a tag with few nodes (a residue disk) is checked on
    every seed, and evaluates them, panel by panel, as one stack with
    their images -k and conj(k) under the two rules of the module
    docstring.
    """
    ps = panelize(js.mc)
    rng = np.random.default_rng(seed)
    node_tags = np.array([p.label for p in ps.panels])[ps.panel_index]
    tags = np.unique(node_tags)
    share = max(1, n // len(tags))
    idx = np.concatenate([rng.permutation(np.flatnonzero(node_tags == tag))
                          [:share] for tag in tags])
    panel = ps.panel_index[idx]
    det_defect = holo = anti = 0.0
    for q in np.unique(panel):
        tag = ps.panels[q].label
        k = ps.nodes[idx[panel == q]]
        j = js.jump_stack(y, t, k, tag)
        det_defect = max(det_defect, float(np.max(np.abs(det2(j) - 1.0))))
        j_neg = js.jump_stack(y, t, -k, tag)
        if tag not in ("cut_vert", "disk"):
            j_neg = inv2(j_neg)
        j_conj = np.conj(js.jump_stack(y, t, np.conj(k), tag))
        if tag != "disk":
            j_conj = inv2(j_conj)
        holo = max(holo, float(np.max(frob(j - sigma1_conj(j_neg)))))
        anti = max(anti, float(np.max(frob(j - sigma1_conj(j_conj)))))
    return {"det": det_defect, "holomorphic": holo, "antiholomorphic": anti,
            "junction": _junction_defect(js, y, t),
            "nodes_checked": int(len(idx))}


def check_jumps(js, **kw):
    """Raise JumpConsistencyError when a defect exceeds 1e-9.

    The junction defect on the fixture profiles is at most 1.9e-12."""
    d = jump_diagnostics(js, **kw)
    keys = ("det", "holomorphic", "antiholomorphic", "junction")
    if max(d[key] for key in keys) > 1e-9:
        raise JumpConsistencyError(
            "jump defects exceed 1e-9: " + ", ".join(
                f"{key} {d[key]:.3g}" for key in keys))
    return d
