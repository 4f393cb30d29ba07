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
the left side when walking along it.

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
matrix conjugated by exp(-i k p sigma3), except on residue disks, where
the phase is evaluated at the pole itself.
"""

from dataclasses import dataclass, field

import numpy as np

from .config import DISK_RADIUS
from .contour import Segment, build_panels
from .errors import (BadGeometry, CrossValidationFailure,
                     DenominatorCollapse, JumpConsistencyError,
                     SideRequired, UnknownRegion)
from .mat2 import det2, frob, sigma1_conj

REAL_TAGS = ("real_outer", "real_inner", "cut_hor_outer", "cut_hor_inner")
UPPER_LOWER_TAGS = ("circle", "circle_eps", "eps_outer", "eps_inner")
CUT_TAGS = ("cut_hor_outer", "cut_hor_inner", "cut_vert")
ALL_TAGS = REAL_TAGS + UPPER_LOWER_TAGS + ("cut_vert", "disk")

ORIGIN_STUB = 0.03        # ungraded panel length abutting k = 0
AXIS_TOL = 1e-9           # how close to an axis counts as on it
PANEL_ORDER = 12          # Gauss-Legendre nodes per panel
PANEL_REAL = 1.0          # target panel length on the real axis
PANEL_CIRCLE = 0.35       # target arc length on |k| = 1/2 and on cuts
GRADE_LEVELS = 4          # geometric refinements toward flagged endpoints
GRADE_RATIO = 0.5         # size ratio between successive graded panels


# ------------------------------------------------------------ contour


@dataclass
class MasterContour:
    """Oriented segments of the jump contour plus build notes."""
    segments: list
    notes: list = field(default_factory=list)

    def by_label(self, label):
        return [s for s in self.segments if s.label == label]


def _real_axis_segments(sr, k_max, notes):
    cuts = sr.cuts.real_cuts
    pts = {-k_max, k_max, -0.5, 0.5, 0.0, -ORIGIN_STUB, ORIGIN_STUB}
    branch_pts = set()
    for c in cuts:
        pts.update((c.lo, c.hi))
        branch_pts.update((c.lo, c.hi))
        if c.lo < -0.5 < c.hi or c.lo < 0.5 < c.hi:
            notes.append(f"horizontal cut [{c.lo:.6g}, {c.hi:.6g}] straddles "
                         "|k| = 1/2; split at the circle")
    xs = sorted(x for x in pts if -k_max <= x <= k_max)
    xs = [x for i, x in enumerate(xs) if i == 0 or x - xs[i - 1] > 1e-9]
    segs = []
    for x0, x1 in zip(xs[:-1], xs[1:]):
        mid = 0.5 * (x0 + x1)
        on_cut = sr.cuts.on_cut("real", mid) is not None
        tag = (("cut_hor_" if on_cut else "real_")
               + ("outer" if abs(mid) > 0.5 else "inner"))
        gs = x0 in branch_pts or x0 in (-0.5, 0.5) or x0 == ORIGIN_STUB
        ge = x1 in branch_pts or x1 in (-0.5, 0.5) or x1 == -ORIGIN_STUB
        segs.append(Segment("line", a=complex(x0), b=complex(x1), label=tag,
                            grade_start=gs, grade_end=ge))
    return segs


def _circle_segments(eps):
    lo = float(np.arcsin(1.0 - 2.0 * eps * eps))
    hi = np.pi - lo
    up = [Segment("arc", center=0j, radius=0.5, phi1=p1, phi2=p2, label=lab,
                  grade_start=gs, grade_end=ge)
          for p1, p2, lab, gs, ge in
          [(0.0, lo, "circle", True, True),
           (lo, np.pi / 2, "circle_eps", True, True),
           (np.pi / 2, hi, "circle_eps", True, True),
           (hi, np.pi, "circle", True, True)]]
    down = [Segment("arc", center=0j, radius=0.5, phi1=-p1, phi2=-p2,
                    label=lab, grade_start=gs, grade_end=ge)
            for p1, p2, lab, gs, ge in
            [(0.0, lo, "circle", True, True),
             (lo, np.pi / 2, "circle_eps", True, True),
             (np.pi / 2, hi, "circle_eps", True, True),
             (hi, np.pi, "circle", True, True)]]
    return up + down


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
    mu gets a lower-inner disk D3 and its mirror conj(mu) a disk D2.
    """
    segs = []
    for p in sr.poles:
        mu = complex(p.mu)
        c = complex(p.residue)
        plain = ("D3", np.exp(2j * mu * sr.theta) * c)
        conj = ("D2", np.exp(-2j * np.conj(mu) * sr.theta) * np.conj(c))
        for center, (dreg, wconst) in ((mu, plain), (np.conj(mu), conj)):
            meta = {"mu": center, "dregion": dreg, "wconst": wconst}
            for p1, p2 in ((-np.pi / 2, np.pi / 2),
                           (np.pi / 2, 3 * np.pi / 2)):
                segs.append(Segment("arc", center=center, radius=DISK_RADIUS,
                                    phi1=p1, phi2=p2, label="disk",
                                    meta=dict(meta)))
    return segs


def build_master_contour(sr, *, ccfg=None):
    """Assemble the full oriented contour for one set of scattering data.

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
    notes = []
    segs = _real_axis_segments(sr, sr.k_max, notes)
    segs += _circle_segments(sr.eps)
    segs += _eps_segments(sr.eps)
    segs += _vertical_cut_segments(sr)
    segs += _disk_segments(sr)
    if sr.poles:
        notes.append(f"{2 * len(sr.poles)} residue disks of radius "
                     f"{DISK_RADIUS:g}")
    return MasterContour(segments=segs, notes=notes)


def panelize(mc, ccfg=None):
    """Gauss-Legendre panels over the master contour."""
    # ccfg is not read; perfbench/workloads.py passes its window config here
    per = {"circle": PANEL_CIRCLE, "circle_eps": 0.6 * PANEL_CIRCLE,
           "eps_outer": 0.6 * PANEL_CIRCLE,
           "eps_inner": 0.6 * PANEL_CIRCLE,
           "cut_vert": PANEL_CIRCLE,
           "cut_hor_outer": PANEL_CIRCLE,
           "cut_hor_inner": PANEL_CIRCLE,
           "disk": 0.5 * np.pi * DISK_RADIUS}
    return build_panels(mc.segments, order=PANEL_ORDER,
                        target_len=PANEL_REAL, levels=GRADE_LEVELS,
                        ratio=GRADE_RATIO, per_label_len=per)


# ------------------------------------------------------------ phase


def _phase_raw(y, t, k):
    return y - t / (2.0 * (k * k + 0.25))


# ------------------------------------------------------------ G-functions


def _sided_roots(sr, ks, side):
    """Boundary values of the root and its conjugate on a cut.

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
        app = 1.0 if side == "plus" else -1.0
        xs = flat.real[on_real]
        K[on_real] = sr.boundary("real", xs, app)
        Ks[on_real] = sr.boundary_star("real", xs, app)
    for sgn in (1.0, -1.0):
        sel = on_imag & (np.sign(flat.imag) == sgn)
        if not np.any(sel):
            continue
        app = -sgn if side == "plus" else sgn
        xs = flat.imag[sel]
        K[sel] = sr.boundary("imag", xs, app)
        Ks[sel] = sr.boundary_star("imag", xs, app)
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


def _g_core(sd, sr, ks, side):
    """Vectorized pair (G, G1) with dual-form checks.

    Each function is formed in two algebraically equivalent ways that
    must agree, and every denominator is guarded.  The shifted pair of
    the eps-circles is e^{-2ik(L - theta)} G and e^{2ik(L - theta)} G1
    (JumpSpec._j0_upper).
    """
    flat = np.atleast_1d(np.asarray(ks, dtype=complex))
    if sr.trivial:
        z = np.zeros(flat.shape, dtype=complex)
        return z, z
    a, b, _, bstar = sd.ab(flat)
    if side == "off":
        K, Ks = sr.R(flat), sr.R_star(flat)
    elif side in ("plus", "minus"):
        K, Ks = _sided_roots(sr, flat, side)
    else:
        raise BadGeometry(f"unknown side {side!r}")
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

    j0_stack gives the t-independent matrix per region tag; jump_stack
    conjugates it with the phase exponential.  Residue disks are the one
    exception: their nilpotent entry carries the phase evaluated at the
    pole, exactly as the residue conditions prescribe.
    """

    def __init__(self, sd, sr, mc):
        self.sd = sd
        self.sr = sr
        self.mc = mc
        self.theta = sr.theta
        self.L = sd.mp.L

    # -------------------------------------------- t = 0 matrices

    def _j0_real(self, flat, tag, side):
        a, b, astar, bstar = self.sd.ab(flat)
        r = bstar / a
        rs = b / astar
        out = np.empty(flat.shape + (2, 2), dtype=complex)
        mid = np.empty_like(out)
        mid[..., 0, 0] = 1.0 - r * rs
        mid[..., 0, 1] = rs
        mid[..., 1, 0] = -r
        mid[..., 1, 1] = 1.0
        g_side = side if tag.startswith("cut_hor") else "off"
        G, G1 = _g_core(self.sd, self.sr, flat, g_side)
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
            G, G1 = _g_core(self.sd, self.sr, flat, "off")
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

    def _j0_vert(self, flat, side):
        if side not in ("plus", "minus"):
            raise SideRequired("vertical-cut jump needs side plus or minus")
        Kp, Ksp = _sided_roots(self.sr, flat, "plus")
        Km, Ksm = _sided_roots(self.sr, flat, "minus")
        out = np.zeros(flat.shape + (2, 2), dtype=complex)
        out[..., 0, 0] = out[..., 1, 1] = 1.0
        upper = flat.imag > 0
        e2t = np.exp(-2j * flat * self.theta)
        out[..., 1, 0] = np.where(upper, e2t * (Ksp - Ksm), 0.0)
        out[..., 0, 1] = np.where(upper, 0.0, (Kp - Km) / e2t)
        return out

    def j0_stack(self, ks, tag, side=None):
        """Stacked t-independent jump matrices for one region tag."""
        flat = np.atleast_1d(np.asarray(ks, dtype=complex))
        if tag in CUT_TAGS and side not in ("plus", "minus"):
            raise SideRequired(f"region {tag} needs side plus or minus")
        if tag in ("real_outer", "real_inner", "cut_hor_outer",
                   "cut_hor_inner"):
            return self._j0_real(flat, tag, side)
        if tag in UPPER_LOWER_TAGS:
            out = np.empty(flat.shape + (2, 2), dtype=complex)
            up = flat.imag >= 0.0
            if np.any(up):
                out[up] = self._j0_upper(flat[up], tag)
            if np.any(~up):
                ref = self._j0_upper(np.conj(flat[~up]), tag)
                out[~up] = sigma1_conj(np.conj(ref))
            return out
        if tag == "cut_vert":
            return self._j0_vert(flat, side)
        if tag == "disk":
            return self.jump_stack(0.0, 0.0, flat, tag)
        raise UnknownRegion(f"no jump rule for region tag {tag!r}")

    # -------------------------------------------- disks

    def _disk_meta(self, k):
        best, dist = None, np.inf
        for s in self.mc.by_label("disk"):
            d = abs(complex(k) - s.center)
            if d < dist:
                best, dist = s, d
        if best is None or dist > 3.0 * DISK_RADIUS:
            raise BadGeometry(f"{complex(k):.6g} is not on a residue disk")
        return best.meta

    def _disk_stack(self, y, t, flat, meta):
        mu = meta["mu"]
        sgn = -1.0 if meta["dregion"] == "D3" else 1.0
        w = meta["wconst"] * np.exp(sgn * 2j * mu * _phase_raw(y, t, mu))
        out = np.zeros(flat.shape + (2, 2), dtype=complex)
        out[..., 0, 0] = out[..., 1, 1] = 1.0
        entry = -w / (flat - mu)
        if sgn < 0:
            out[..., 0, 1] = entry
        else:
            out[..., 1, 0] = entry
        return out

    # -------------------------------------------- assembled jump

    def jump_stack(self, y, t, ks, tag, side=None):
        """Jump matrices at (y, t) for nodes sharing one region tag."""
        flat = np.atleast_1d(np.asarray(ks, dtype=complex))
        if tag == "disk":
            return self._disk_stack(y, t, flat, self._disk_meta(flat.ravel()[0]))
        out = self.j0_stack(flat, tag, side).copy()
        e = np.exp(-2j * flat * _phase_raw(y, t, flat))
        out[..., 0, 1] *= e
        out[..., 1, 0] /= e
        return out

    def jump(self, y, t, k, tag, side=None):
        return self.jump_stack(y, t, complex(k), tag, side)[0]


# ------------------------------------------------------------ diagnostics


def _node_side(tag):
    return "plus" if tag in CUT_TAGS else None


def jump_diagnostics(js, y=0.0, t=0.0, n=200, seed=5):
    """Determinant, symmetry, and seam defects over sampled nodes.

    Samples up to n quadrature nodes, evaluates the jump at each node k
    and at its images -k and -conj(k) (same region tag by symmetry of
    the contour), and reports the worst determinant defect |det - 1|,
    the two symmetry defects, and the factorization seam mismatch at
    k = +-1/2.  Cut tags compare against the side-mapped image: the
    reflection k -> -conj(k) keeps the side on horizontal cuts and swaps
    it on vertical ones, and k -> -k does the opposite.
    """
    ps = panelize(js.mc)
    rng = np.random.default_rng(seed)
    idx = rng.permutation(ps.n)[:n]
    det_defect = 0.0
    sym1 = 0.0
    sym2 = 0.0
    for i in idx:
        panel = ps.panel_of_node(i)
        tag = panel.label
        k = complex(ps.nodes[i])
        side = _node_side(tag)
        if tag == "disk":
            j = js.jump_stack(y, t, np.array([k]), tag)[0]
            det_defect = max(det_defect, abs(det2(j) - 1.0))
            continue
        j = js.jump(y, t, k, tag, side)
        det_defect = max(det_defect, abs(det2(j) - 1.0))
        if tag == "cut_vert":
            s1, s2 = ("minus", "plus")
        elif tag in ("cut_hor_outer", "cut_hor_inner"):
            s1, s2 = ("plus", "minus")
        else:
            s1 = s2 = None
        j_refl = js.jump(y, t, -np.conj(k), tag, s1)
        j_neg = js.jump(y, t, -k, tag, s2)
        sym1 = max(sym1, float(frob(j - np.conj(j_refl))))
        sym2 = max(sym2, float(frob(j - sigma1_conj(j_neg))))
    seam = 0.0
    for x in (0.5, -0.5):
        if js.sr.cuts.on_cut("real", x) is not None:
            continue
        j_out = js.jump(y, t, complex(x), "real_outer")
        j_in = js.jump(y, t, complex(x), "real_inner")
        seam = max(seam, float(frob(j_out - j_in)))
    return {"det": det_defect, "sym_reflect": sym1, "sym_negate": sym2,
            "seam": seam, "nodes_checked": int(len(idx))}


def check_jumps(js, **kw):
    """Raise JumpConsistencyError when diagnostics exceed tolerance."""
    d = jump_diagnostics(js, **kw)
    if d["det"] > 1e-9 or d["sym_reflect"] > 1e-9 or d["sym_negate"] > 1e-9:
        raise JumpConsistencyError(
            f"jump det/symmetry defects {d['det']:.3g}, "
            f"{d['sym_reflect']:.3g}, {d['sym_negate']:.3g} exceed 1e-9")
    if d["seam"] > 1e-7:
        raise JumpConsistencyError(
            f"factorization seam defect {d['seam']:.3g} exceeds 1e-7")
    return d

