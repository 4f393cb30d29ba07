"""Sheet structure of the global-relation root pair.

The monodromy trace

    Delta(k) = e^{-ik theta} a(k) + e^{ik theta} a*(k)

is real on both coordinate axes and acts as the discriminant of the
quadratic

    -e^{2ik theta} b* K^2 + (e^{2ik theta} a* - a) K + b = 0,

whose root pair involves sqrt(Delta^2 - 4) and therefore lives on a
two-sheeted surface branched at the simple zeros of Delta^2 - 4.  Delta
is the discriminant of the weighted Hill equation

    -psi'' + psi/4 = mu w psi,     mu = k^2 + 1/4,  w = m0 + 1 > 0,

on the period [0, L]: Delta = 2 at its periodic eigenvalues P_n and
Delta = -2 at its antiperiodic ones A_n.  By the oscillation theorem
(Magnus-Winkler, Hill's Equation; Eastham, The Spectral Theory of
Periodic Differential Equations, for the weighted form) they interlace,

    P0 < A0 <= A1 < P1 <= P2 < A2 <= A3 < P3 <= ...,

and |Delta| > 2 exactly on the gaps (-inf, P0), (A0, A1), (P1, P2), ...,
while the bands [P0, A0], [A1, P1], ... carry |Delta| <= 2.  Every
eigenvalue is real, so every zero of Delta^2 - 4 lies on the two axes:
mu > 1/4 is k = +-sqrt(mu - 1/4) on the real axis, mu < 1/4 is
k = +-i sqrt(1/4 - mu) on the imaginary one.  -D^2 + 1/4 and w are
positive, so every eigenvalue is positive and nothing lies on or above
i/2 (mu <= 0); the gap (-inf, P0) holds all of it.  Below i/2 nothing
keeps the bands away: a vertical cut can end just under i/2.  The
contour's eps-circles about +-i/2 then shrink from EPS_CIRCLE to keep
CLEARANCE from every cut (SheetedR.eps), and SheetedR raises
ContourClash only when that would take them under EPS_FLOOR.
locate_branch_points reads the cuts off one Fourier-Galerkin solve of
this eigenproblem.

Cut placement follows the root that vanishes at i/2.  Its realization
below is

    s_eff(k) = sigma sign(Im k) Delta(k) sqrt(1 - 4 / Delta(k)^2)

with the principal square root and one global sign sigma, the one whose
root vanishes at i/2.  Crossing the real axis inside a band flips both
sign(Im k) and the principal branch, so s_eff is continuous there;
crossing inside a gap flips only sign(Im k), and crossing the imaginary
axis inside a band flips only the principal branch.  The root
therefore jumps exactly across

    real-axis gap segments  (Delta^2 > 4 between paired zeros), and
    imaginary-axis band segments  (Delta^2 < 4 between paired zeros),

and those segments are the stored cuts; no path tracking is needed.
On real cuts the boundary values are exact, not limits: the upper side
carries s = +sigma Delta sqrt(1 - 4/Delta^2) (a real number with the
sign of Delta) and the lower side its negative.  The real-axis symmetry
a*(k) = conj(a(k)) gives Y = conj(X), hence X - Y = 2i Im X, and this
makes the root unimodular there since |(X - Y) -+ s|^2 = 4 Im^2 X
+ Delta^2 - 4 = 4|b|^2.  The evaluator imposes Y = conj(X) on real
cuts: X - Y formed from separately rounded X and Y keeps a real part
of one ulp, which against |(X - Y) -+ s| ~ 2|b| loses about six digits
of R+ R*- = 1 on gaps about 1e-6 wide.

On imaginary cuts the right side (Re k > 0) carries
s = -i sigma sign(nu) sign(dDelta/dnu) sqrt(4 - Delta^2) and the left
side the opposite sign.  The slope sign needs no difference quotient.
With T = W^{-1} M W the transfer matrix of (psi, psi_x) (see
scattering) and ph = e^{ik theta}, X - Y + b/ph - b* ph = 2 nu T12 at
k = i nu, and varying mu = k^2 + 1/4 gives the classical quadratic form
(Magnus-Winkler, Hill's Equation) in the fundamental solutions phi1,
phi2 (phi1 = phi2' = 1, phi1' = phi2 = 0 at x = 0)

    dDelta/dmu = int_0^L w (-T12 phi1^2 + (T11 - T22) phi1 phi2
                            + T21 phi2^2) dx.

Its discriminant is Delta^2 - 4 < 0 in a band, so it is definite with
the sign of -T12 (T12 vanishes only at the Dirichlet eigenvalues, in
the gap closures), and dmu/dnu = -2 nu makes sign(dDelta/dnu) =
sign(2 nu T12): boundary reads it off values it already holds.  It
turns over by itself inside a closed (dropped) gap, which is the
continuation through it.

A point taken exactly on the real axis inside a band is a regular
point with the common value s = i sigma sign(Delta') sqrt(4 - Delta^2).
There |X|^2 = 1 + |b|^2 and Re X = Delta/2, so (Im X)^2 >= 1 -
Delta^2/4 > 0 inside a band: Im X never vanishes there.  It shares its
sign with Delta' (as in the free case X = e^{-ik theta}, and neither
turns over inside a band), so the evaluator reads the sign from X and
spends no integration on the slope.

With X = e^{-ik theta} a and Y = e^{ik theta} a*, the evaluator
switches between the difference form ((X - Y) - s_eff)/(-2 e^{ik
theta} b*) and the equivalent cancellation-free form

    K = 2 b e^{-ik theta} / ((X - Y) + s_eff),

whichever numerator is better conditioned; the two are tied by
((X - Y) - s)((X - Y) + s) = -4 b b*.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh, toeplitz

from .config import DISK_PAD, ORIGIN_OFFSET
from .errors import (BadGeometry, BranchSelectionError, ContourClash,
                     CrossValidationFailure, DoubleZeroUnresolved,
                     NearPole, NonGenericCase, TooCloseToContour,
                     VerificationFailure, WindowTooSmall)
from .initial import _fourier_modes

POLE_GUARD = 1e-4
RING_RADIUS = 1e-3
RING_NODES = 64
ANCHOR_ZERO = 1e-9        # |R(i/2)| at most this on the selected sheet
ANCHOR_APART = 1e-3       # and at least this with the other sign
DELTA_GAP = 1e-6          # gaps narrower than this count as closed
TAU_SIMPLE = 1e-7         # |Delta'| floor for a simple-zero label
EPS_CIRCLE = 0.1          # radius of the circles about +-i/2, at most
EPS_FLOOR = 0.02          # smallest admissible eps-circle radius
CLEARANCE = 0.01          # required gap between eps-circles and cuts
TRACE_REAL = 1e-9         # |Im Delta| / max(1, |Re Delta|) allowed on an axis


# ------------------------------------------------------------ trace


def _axis_embed(axis, x):
    x = np.asarray(x, dtype=float)
    return x.astype(complex) if axis == "real" else 1j * x


def _real_trace(vals, where):
    """Re Delta of Delta values on an axis, which must be real there."""
    scale = np.maximum(1.0, np.abs(vals.real))
    worst = float(np.max(np.abs(vals.imag) / scale, initial=0.0))
    if worst > TRACE_REAL:
        raise VerificationFailure(
            f"trace not real {where}: |Im Delta| = {worst:.3g}")
    return vals.real


class TraceFunction:
    """Monodromy trace Delta(k) with axis restrictions and slopes."""

    def __init__(self, sd):
        self.sd = sd

    def __call__(self, ks):
        scalar = np.asarray(ks).shape == ()
        out = self.sd.floquet_discriminant(np.atleast_1d(np.asarray(ks, complex)))
        return complex(out[0]) if scalar else out

    def on_axis(self, axis, x):
        """Delta restricted to one axis, validated real."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        return _real_trace(self(_axis_embed(axis, x)), f"on the {axis} axis")

    def axis_slope(self, axis, x):
        """d Delta / d x along the axis coordinate, by central differences.

        Both sides of every difference go to the trace in one on_axis
        call; a k's value does not depend on its batch, so the slope is
        that of two separate calls, to the bit.
        """
        x = np.atleast_1d(np.asarray(x, dtype=float))
        hs = 1e-7 * np.maximum(1.0, np.abs(x))
        plus, minus = np.split(self.on_axis(axis, np.concatenate([x + hs,
                                                                  x - hs])), 2)
        return (plus - minus) / (2 * hs)


# ------------------------------------------------------------ cut geometry


@dataclass(frozen=True)
class Cut:
    """One branch cut: a segment of the real or imaginary axis.

    lo/hi are coordinates along the axis (x for real, nu for imaginary)
    with lo < hi, both simple zeros of Delta^2 - 4.  Real cuts span gap
    intervals (Delta^2 > 4 inside), imaginary cuts span band intervals
    (Delta^2 < 4 inside); a cut may straddle the origin.
    """
    axis: str
    lo: float
    hi: float

    @property
    def length(self):
        return self.hi - self.lo

    def embed(self, x):
        x = np.asarray(x, dtype=float)
        return _axis_embed(self.axis, x)


@dataclass(frozen=True)
class DroppedGap:
    """A gap narrower than the threshold, logged and closed over."""
    axis: str
    position: float
    width: float
    excess: float       # |Delta| - 2 at the gap midpoint


@dataclass(frozen=True)
class BranchCutSet:
    """Branch points of sqrt(Delta^2 - 4) paired into axis cuts."""
    k_max: float
    cuts: tuple
    dropped: tuple
    branch_points: tuple
    pairing: tuple = ()

    @property
    def real_cuts(self):
        return tuple(c for c in self.cuts if c.axis == "real")

    @property
    def imag_cuts(self):
        return tuple(c for c in self.cuts if c.axis == "imag")

    def covers(self, axis, x, pad=0.0):
        """Whether each coordinate x along the axis lies on one of its cuts,
        ends included, with the cuts widened by pad."""
        x = np.asarray(x, dtype=float)
        inside = np.zeros(x.shape, dtype=bool)
        for c in self.cuts:
            if c.axis == axis:
                inside |= (x >= c.lo - pad) & (x <= c.hi + pad)
        return inside


def _segment_distance(z, cut):
    """Euclidean distance from a complex point to a cut segment."""
    z = complex(z)
    if cut.axis == "real":
        along, off = z.real, z.imag
    else:
        along, off = z.imag, z.real
    out = max(cut.lo - along, 0.0, along - cut.hi)
    return float(np.hypot(out, off))


# ------------------------------------------------------------ root finding


def _hill_spectrum(m0, L, n_modes):
    """Periodic and antiperiodic eigenvalues of -psi'' + psi/4 = mu w psi.

    Fourier-Galerkin in e^{i(2 pi j + phi) x / L}, |j| <= n_modes, with
    phi = 0 (periodic) and phi = pi (antiperiodic).  The weight
    w = m0 + 1 enters through the Toeplitz matrix of the coefficients of
    the trigonometric interpolant of m0, the function the RK8 kernel
    integrates.  Returns the two ascending eigenvalue lists; the top few
    carry the truncation error, the bottom ones converge spectrally.
    """
    c, freq = _fourier_modes(m0)
    span = 2 * n_modes
    what = np.zeros(2 * span + 1, dtype=complex)     # w_d for |d| <= span
    near = np.abs(freq) <= span
    np.add.at(what, freq[near] + span, c[near])
    what[span] += 1.0
    weight = toeplitz(what[span:], what[span::-1])
    j = np.arange(-n_modes, n_modes + 1)
    return tuple(eigh(np.diag(((2 * np.pi * j + phi) / L) ** 2 + 0.25),
                      weight, eigvals_only=True)
                 for phi in (0.0, np.pi))


def _interlaced(periodic, anti):
    """The Hill edges P0, A0, A1, P1, P2, A2, A3, ... as (name, mu, level).

    The intervals between them alternate gap, band, gap, ..., from the
    gap (-inf, P0); level is Delta at the edge, 2 for P and -2 for A.
    The oscillation theorem orders them by mu; where mu decreases from
    one edge to the next, VerificationFailure names both.
    """
    lists = {"P": (periodic, 2.0), "A": (anti, -2.0)}
    order = [("P", 0)] + [("A" if i % 2 else "P", j)
                          for i in range(1, min(len(periodic), len(anti)))
                          for j in (i - 1, i)]
    edges = [(f"{n}{j}", float(lists[n][0][j]), lists[n][1])
             for n, j in order]
    for (a, mu_a, _), (b, mu_b, _) in zip(edges, edges[1:]):
        if mu_b < mu_a:
            raise VerificationFailure(
                f"Hill edges out of order: {b} = {mu_b:.9g} lies below "
                f"{a} = {mu_a:.9g}")
    return edges


def _polish_edges(tf, axis, edges):
    """Polished coordinates of (coord, level) edges, checked simple.

    Three Newton steps drive Delta(x) - level to zero along the axis,
    two trace calls a step (the value and axis_slope); the slope of the
    last step decides whether each zero is simple.
    """
    if not edges:
        return []
    x, level = (np.array(v) for v in zip(*edges))
    for _ in range(3):
        f = tf.on_axis(axis, x) - level
        df = tf.axis_slope(axis, x)
        safe = np.abs(df) > 1e-300
        x = x - np.where(safe, f / np.where(safe, df, 1.0), 0.0)
    slopes = np.abs(df)
    weak = slopes <= TAU_SIMPLE
    if np.any(weak):
        raise DoubleZeroUnresolved(
            f"|Delta'| = {slopes[weak][0]:.3g} at {axis} "
            f"{x[weak][0]:.9g}: zero too close to double")
    return x.tolist()


def _pair_cuts(tf, edges, k_max, x_hi, trivial):
    """Cuts, dropped gaps and pairing log from one walk over the edges.

    The rule, with mu = k^2 + 1/4: every gap that reaches mu > 1/4 is a
    real cut, every band that reaches mu < 1/4 a vertical cut, and the
    interval holding mu = 1/4 a cut through 0; each off the origin comes
    with its mirror.  Gaps narrower than DELTA_GAP in k (real) or nu
    (imaginary) close first, merging their neighbouring bands.  The real
    axis is walked up to x_hi, the imaginary one up to i/2, and at the
    midpoint of every walked interval |Delta| > 2 exactly when it is a
    gap, or VerificationFailure.
    """
    def along(mu):       # k for mu > 1/4, nu for mu < 1/4
        return float(np.sqrt(abs(mu - 0.25)))

    def label(gap, lo, hi):
        ends = ("-inf" if lo is None else lo[0],
                "+inf" if hi is None else hi[0])
        return ("gap ({}, {})" if gap else "band [{}, {}]").format(*ends)

    kept, closed = edges[:1], {"real": [], "imag": []}
    for lo, hi in zip(edges[1::2], edges[2::2]):       # every gap past P0
        axis = "real" if lo[1] > 0.25 else "imag" if hi[1] < 0.25 else None
        a, b = sorted((along(lo[1]), along(hi[1])))
        if axis is None or b - a >= DELTA_GAP:
            kept += [lo, hi]
        elif axis == "imag" or 0.5 * (a + b) <= x_hi:
            closed[axis].append((label(True, lo, hi), a, b))

    dropped, log = [], []
    for axis, recs in closed.items():
        if not recs:
            continue
        mids = np.array([0.5 * (a + b) for _, a, b in recs])
        excess = np.abs(tf.on_axis(axis, mids)) - 2.0
        for (name, a, b), x, ex in zip(recs, mids, excess):
            dropped += [DroppedGap(axis, s * float(x), b - a, float(ex))
                        for s in (1.0, -1.0)]
            log.append(f"{axis}: {name} closed at +-{x:.9g}, width "
                       f"{b - a:.3g}")
    if trivial:
        log.append("trivial data: empty cut set")
        return [], dropped, log

    # (is gap, lo, hi) in ascending mu, None standing for -inf and +inf
    bounds = [None] + kept + [None]
    intervals = [(j % 2 == 0, lo, hi)
                 for j, (lo, hi) in enumerate(zip(bounds, bounds[1:]))]
    # (label, lo, hi) per axis, with (coordinate, level) ends along the
    # axis and lo None on a cut through the origin
    spans = {"real": [], "imag": []}
    for axis, end in (("real", x_hi), ("imag", 0.5 - ORIGIN_OFFSET)):
        real = axis == "real"

        def on(e):       # the edge lies on this axis, off the origin
            return e is not None and (e[1] > 0.25 if real else e[1] < 0.25)

        mids, gaps = [], []
        for gap, lo, hi in intervals if real else intervals[::-1]:
            near, far = (lo, hi) if real else (hi, lo)
            if far is not None and not on(far):
                continue                        # wholly on the other axis
            a = along(near[1]) if on(near) else 0.0
            b = np.inf if far is None else along(far[1])
            if a > end:
                break
            mids.append(0.5 * (a + min(b, end)))
            gaps.append(gap)
            if gap != real:
                continue                        # no cut on this axis
            name = label(gap, lo, hi)
            if real and a < k_max < b:
                raise WindowTooSmall(
                    f"window edge {k_max:.6g} inside the {name} = "
                    f"[{a:.6g}, {b:.6g}]; widen or narrow the window")
            if real and a > k_max:
                log.append(f"real: {name} [{a:.9g}, {b:.9g}] beyond the "
                           "window, not stored")
                continue
            spans[axis].append((name, (a, near[2]) if on(near) else None,
                                (b, far[2])))
        # dropped gaps leave |Delta| - 2 at rounding level, hence the slack
        vals = np.abs(tf.on_axis(axis, np.array(mids)))
        bad = np.flatnonzero(np.where(gaps, vals <= 2.0 - 1e-9,
                                      vals >= 2.0 + 1e-9))
        if bad.size:
            i = bad[0]
            raise VerificationFailure(
                f"pairing mismatch on the {axis} axis: |Delta| = "
                f"{vals[i]:.9g} at {mids[i]:.6g} inside a supposed "
                f"{'gap' if gaps[i] else 'band'} interval")

    cuts = []
    for axis, recs in spans.items():
        unit = "" if axis == "real" else "i"
        ends = [e for _, lo, hi in recs for e in (lo, hi) if e is not None]
        fixed = iter(_polish_edges(tf, axis, ends))
        for name, lo, hi in recs:
            a = None if lo is None else next(fixed)
            b = next(fixed)
            if a is None:
                cuts.append(Cut(axis, -b, b))
                log.append(f"{axis}: {name} -> cut through 0 up to "
                           f"+-{unit}{b:.9g}")
                continue
            cuts.extend([Cut(axis, a, b), Cut(axis, -b, -a)])
            log.append(f"{axis}: {name} -> cut [{unit}{a:.9g}, {unit}{b:.9g}]"
                       f" width {b - a:.3g} and mirror")
    if not spans["real"]:
        log.append("real: no open gaps within the window")
    if not spans["imag"]:
        log.append("imag: no band intervals, hence no vertical cuts")
    return cuts, dropped, log


def _hill_window(sd, k_max):
    """Real-axis reach x_hi of the branch-point walk, k_max plus 3/4 of
    the gap spacing pi/theta, and the Fourier mode count of the Hill
    solve that resolves its eigenvalues up to x_hi."""
    x_hi = k_max + 0.75 * np.pi / sd.theta
    return x_hi, int(np.ceil(x_hi * sd.wmax * sd.mp.L / np.pi)) + 32


def locate_branch_points(tf, k_max):
    """Find branch points on both axes and pair them into cuts.

    One Fourier-Galerkin eigen solve (_hill_spectrum) gives every
    branch point, and _pair_cuts pairs them by the interlacing of the
    module docstring.  The real axis is read up to k_max plus a margin;
    gaps narrower than DELTA_GAP close (and are logged), and the kept
    edges are polished by Newton steps on the integrated trace.  A
    window edge inside a kept real gap raises WindowTooSmall.  The
    pairing log names the eigenvalue interval of each cut and dropped
    gap.  The branch points are the cut ends (bands have positive width,
    so no two coincide); |Delta^2 - 4| above 1e-8 at any of them raises
    VerificationFailure.
    """
    trivial = tf.sd.b_vanishes()
    x_hi, n_modes = _hill_window(tf.sd, k_max)

    d0 = float(tf.on_axis("real", np.array([ORIGIN_OFFSET]))[0])
    if not trivial and abs(abs(d0) - 2.0) < 1e-6:
        raise NonGenericCase(
            f"|Delta(0)| = {abs(d0):.9g} sits at a band edge: the origin "
            "itself is a branch point")

    mp = tf.sd.mp
    edges = _interlaced(*_hill_spectrum(mp.m0, mp.L, n_modes))
    cuts, dropped, log = _pair_cuts(tf, edges, k_max, x_hi, trivial)
    cuts = sorted(cuts, key=lambda c: (c.axis, c.lo))
    bp = sorted((complex(c.embed(x)) for c in cuts for x in (c.lo, c.hi)),
                key=lambda z: (abs(z.imag) > 1e-12, z.real, z.imag))
    if bp:
        worst = float(np.max(np.abs(tf(np.array(bp)) ** 2 - 4.0)))
        if worst > 1e-8:
            raise VerificationFailure(
                f"branch point residual |Delta^2 - 4| = {worst:.3g} > 1e-8")
    return BranchCutSet(k_max=k_max, cuts=tuple(cuts), dropped=tuple(dropped),
                        branch_points=tuple(bp), pairing=tuple(log))


# ------------------------------------------------------------ sheeted root


@dataclass(frozen=True)
class PoleData:
    """A pole of the selected root at a simple zero of b*."""
    mu: complex
    residue: complex
    residue_ring: complex


def _anchored_sign(anchor):
    """The sign whose root vanishes at i/2, given |R(i/2)| per sign."""
    for s in (1.0, -1.0):
        if anchor[s] <= ANCHOR_ZERO and anchor[-s] >= ANCHOR_APART:
            return s
    raise BranchSelectionError(
        f"no sign isolates the anchor R(i/2) = 0: |R(i/2)| = "
        f"{anchor[1.0]:.3g} (sigma +1), {anchor[-1.0]:.3g} (sigma -1)")


def _eps_radius(cuts):
    """Radius of the eps-circles about +-i/2: they keep CLEARANCE from cuts.

    EPS_CIRCLE unless a cut comes nearer; a radius under EPS_FLOOR
    raises ContourClash, and a shrunk one warns.
    """
    eps = EPS_CIRCLE
    for c in cuts:
        for z, name in ((0.5j, "i/2"), (-0.5j, "-i/2")):
            d = _segment_distance(z, c)
            if d - CLEARANCE < EPS_FLOOR:
                raise ContourClash(
                    f"cut [{c.lo:.6g}, {c.hi:.6g}] on the {c.axis} axis comes "
                    f"within {d:.6g} of {name}: no eps-circle of radius "
                    f"{EPS_FLOOR:g} clears it by {CLEARANCE:g}")
            eps = min(eps, d - CLEARANCE)
    if eps < EPS_CIRCLE:
        warnings.warn(f"eps-circle radius shrunk from {EPS_CIRCLE:g} to "
                      f"{eps:.6g} to clear the cuts", stacklevel=3)
    return eps


def _check_geometry(cuts, poles, eps):
    """Every residue disk must clear the rest of the contour.

    The disks sit at each pole mu and its mirror conj(mu).  Each centre
    must keep DISK_PAD from the real axis, the circle |k| = 1/2, the
    eps-circles of radius eps about +-i/2 and every cut, and twice that
    from every other centre.
    """
    centers = [z for mu in poles for z in (complex(mu), complex(np.conj(mu)))]
    for i, z in enumerate(centers):
        gaps = [("the real axis", abs(z.imag)),
                ("|k| = 1/2", abs(abs(z) - 0.5))]
        gaps += [(f"the eps-circle about {name}", abs(z - c) - eps)
                 for c, name in ((0.5j, "i/2"), (-0.5j, "-i/2"))]
        gaps += [(f"the cut [{c.lo:.6g}, {c.hi:.6g}] on the {c.axis} axis",
                  _segment_distance(z, c)) for c in cuts]
        gaps += [(f"the residue disk at {w:.6g}", abs(z - w) - DISK_PAD)
                 for w in centers[i + 1:]]
        for what, gap in gaps:
            if gap < DISK_PAD:
                raise ContourClash(f"residue disk at {z:.6g} meets {what}")


class SheetedR:
    """The root of the global-relation quadratic on the selected sheet.

    The sheet is fixed by the anchor R(i/2) = 0: sigma is the sign whose
    root vanishes at i/2 (|R| <= ANCHOR_ZERO) while the other sign's does
    not (|R| >= ANCHOR_APART); anything else raises BranchSelectionError.
    That root is the component ratio of the Floquet solution that decays
    as x -> +infinity when Im k > 0 (see ScatteringData.bstar_zeros),
    so it vanishes as k -> infinity in both half planes;
    test_far_field_decay checks this consequence.  Off the cuts R is
    evaluated from the principal-branch product form carrying sigma
    times sign(Im k); on a cut the one-sided limits come from exact
    boundary formulas, so no continuity bookkeeping is needed.

    _anchored_sign is the one home of sigma, and the anchor alone tells
    the sheets apart (_validate checks the evaluator).  The window k_max
    is read from ccfg here, once, and handed down as a value; every
    sheet, the trivial one too, takes its cuts from locate_branch_points;
    whether b vanishes identically is one cached probe
    (ScatteringData.b_vanishes).

    eps is the radius of the contour's circles about +-i/2, derived from
    the cuts, not set: EPS_CIRCLE, shrunk to keep CLEARANCE from every
    cut (_eps_radius).  The b* zero search runs up to 1/2 - eps, and
    every residue disk must clear the real axis, |k| = 1/2, the
    eps-circles, the cuts and the other disks (_check_geometry); either
    rule raises ContourClash.
    """

    def __init__(self, sd, *, ccfg=None):
        self.sd = sd
        self.trace = TraceFunction(sd)
        self.theta = sd.theta
        self.k_max = sd.k_window(ccfg)
        self.trivial = sd.b_vanishes()
        self.cuts = locate_branch_points(self.trace, self.k_max)
        if self.trivial:
            self.sigma = 1.0
            self.eps = EPS_CIRCLE
            self.poles = ()
            self.other_sheet_zeros = ()
            return
        anchor = {s: abs(complex(self._raw(np.array([0.5j]), sigma=s)[0]))
                  for s in (1.0, -1.0)}
        self.sigma = _anchored_sign(anchor)
        self.eps = _eps_radius(self.cuts.cuts)
        self.poles, self.other_sheet_zeros = self._classify_poles()
        _check_geometry(self.cuts.cuts, [p.mu for p in self.poles], self.eps)
        self._validate()

    # ---------------------------------------------- core evaluation

    def _raw(self, ks, sigma=None):
        """Product-form root off the cuts, no guards.

        The half-plane factor sign(Im k) keeps the root decaying at
        infinity on both sides of the real axis.  Points taken exactly
        on the real axis get the band common value; exactly-real points
        inside a gap are cut points and belong to the guard layer, not
        here.
        """
        sigma = self.sigma if sigma is None else sigma
        ks = np.asarray(ks, dtype=complex)
        flat = ks.ravel()
        a, b, astar, bstar = self.sd.ab(flat)
        ph = np.exp(1j * flat * self.theta)
        X = a / ph
        Y = astar * ph
        delta = X + Y
        half = np.sign(flat.imag)
        with np.errstate(divide="ignore", invalid="ignore"):
            s = sigma * half * delta * np.sqrt(1.0 - 4.0 / (delta * delta))
        on_axis = flat.imag == 0.0
        if np.any(on_axis):
            d = delta.real[on_axis]
            s = s.copy()
            s[on_axis] = (sigma * 1j * np.sign(X.imag[on_axis])
                          * np.sqrt(np.maximum(4.0 - d * d, 0.0)))
        return self._combine(b, bstar, ph, X, Y, s).reshape(ks.shape)

    @staticmethod
    def _combine(b, bstar, ph, X, Y, s):
        """Pick the better conditioned of the two equivalent root forms."""
        diff = X - Y
        num = diff - s
        with np.errstate(divide="ignore", invalid="ignore"):
            direct = num / (-2.0 * ph * bstar)
            stable = 2.0 * b / (ph * (diff + s))
        use_direct = np.abs(num) >= 0.125 * (np.abs(diff) + np.abs(s))
        return np.where(use_direct, direct, stable)

    def _guard(self, ks):
        # only confirmed poles: the root is finite at -i/2 (the difference
        # numerator and b* vanish together there) and at other-sheet zeros
        flat = np.atleast_1d(ks).ravel()
        for p in self.poles:
            if np.any(np.abs(flat - p.mu) < POLE_GUARD):
                raise NearPole(f"evaluation within {POLE_GUARD:g} of the "
                               f"pole at {p.mu:.6g}")
        for axis, along, off, name in (
                ("real", flat.real, flat.imag, "a real-axis"),
                ("imag", flat.imag, flat.real, "an imaginary-axis")):
            near = np.abs(off) < 1e-11
            if np.any(near) and np.any(self.cuts.covers(axis, along[near])):
                raise TooCloseToContour(
                    f"point lies on {name} cut; take a side from boundary")

    def R(self, k):
        """Root vanishing at infinity in both half planes."""
        ks = np.asarray(k, dtype=complex)
        if self.trivial:
            out = np.zeros(ks.shape, dtype=complex)
        else:
            self._guard(ks)
            out = self._raw(ks)
        return complex(out) if out.shape == () else out

    def R_star(self, k):
        """Conjugate root R*(k) = conj(R(conj k))."""
        ks = np.conj(np.asarray(k, dtype=complex))
        out = np.conj(self.R(ks))
        return complex(out) if np.asarray(out).shape == () else out

    # ---------------------------------------------- boundary values

    def boundary(self, axis, x, approach):
        """One-sided limits of the root on an axis cut.

        approach +1 is the limit from Im k > 0 on a real cut and from
        Re k > 0 on an imaginary cut; -1 is the other side.  x holds
        coordinates along the axis, each on a stored cut and at least
        the origin offset away from 0.  On real cuts the two sides are
        exact algebraic values (s real, odd in the side); on imaginary
        cuts they are first-order limits of the principal branch.
        """
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if self.trivial:
            return np.zeros(x.shape, dtype=complex)
        if not np.all(self.cuts.covers(axis, x, pad=1e-12)):
            raise BadGeometry("coordinate off every stored cut of the "
                              f"{axis} axis")
        if np.any(np.abs(x) < ORIGIN_OFFSET):
            raise BadGeometry("boundary values are ill conditioned within "
                              f"{ORIGIN_OFFSET:g} of the origin")
        k = _axis_embed(axis, x)
        a, b, astar, bstar = self.sd.ab(k)
        ph = np.exp(1j * k * self.theta)
        X = a / ph
        Y = astar * ph
        delta = _real_trace(X + Y, "on a cut")
        if axis == "real":
            # a*(k) = conj(a(k)) on the real axis makes X - Y = 2i Im X;
            # X - Y from separately rounded X and Y keeps a one-ulp real
            # part, which against |(X - Y) -+ s| ~ 2|b| loses about six
            # digits of R+ R*- = 1 on gaps about 1e-6 wide
            Y = np.conj(X)
            # delta^2 - 4 = 4(|b|^2 - Im^2 X) on the real axis; the right
            # side stays relatively accurate on hair-thin gaps where the
            # direct difference cancels to rounding noise
            gap2 = np.abs(b) ** 2 - X.imag ** 2
            root = 2.0 * np.sign(delta) * np.sqrt(np.maximum(gap2, 0.0))
            s = self.sigma * float(approach) * root.astype(complex)
        else:
            # 2 nu T12, which shares its sign with dDelta/dnu in a band
            slope = np.sign((X - Y + b / ph - bstar * ph).real)
            root = np.sqrt(np.maximum(4.0 - delta * delta, 0.0))
            s = (self.sigma * np.sign(x) * (-1j * float(approach))
                 * slope * root)
        return self._combine(b, bstar, ph, X, Y, s)

    def boundary_star(self, axis, x, approach):
        """One-sided limits of the conjugate root on an axis cut."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if axis == "real":
            return np.conj(self.boundary("real", x, -approach))
        return np.conj(self.boundary("imag", -x, approach))

    # ---------------------------------------------- poles and residues

    def _clearance(self, mu):
        d = [abs(mu - 0.5j), abs(mu + 0.5j)]
        d.extend(_segment_distance(mu, c) for c in self.cuts.cuts)
        return min(d) if d else np.inf

    def _residue_at(self, mu):
        """Residue by ring quadrature, cross-checked in closed form.

        At a simple zero mu of b* the selected root has either a simple
        pole with residue (a*(mu) - a(mu) e^{-2i mu theta}) / db*(mu)
        or stays bounded, in which case the zero belongs to the other
        sheet and None is returned.  db*(mu) is the ring mean of
        b*(mu + r e^{i phi}) e^{-i phi} / r, Cauchy's formula, exact to
        rounding on 64 nodes: b* is analytic except at k = 0, and r is at
        most half the distance to any cut, hence to 0, which lies on one.
        """
        mu = complex(mu)
        r = min(RING_RADIUS, 0.5 * self._clearance(mu))
        if r < 1e-5:
            raise CrossValidationFailure(
                f"pole at {mu:.6g} sits too close to a cut for a ring check")
        ang = (np.arange(RING_NODES) + 0.5) * (2 * np.pi / RING_NODES)
        nodes = mu + r * np.exp(1j * ang)
        vals = self._raw(nodes)
        ring = complex(np.mean(vals * np.exp(1j * ang)) * r)
        strength = float(np.max(np.abs(vals))) * r
        a, _, astar, _ = self.sd.ab(np.array([mu]))
        # Cauchy's formula on the same ring (its a, b, a*, b* are cached)
        dbstar = np.mean(self.sd.ab(nodes)[3] * np.exp(-1j * ang)) / r
        closed = complex((astar[0] - a[0] * np.exp(-2j * mu * self.theta))
                         / dbstar)
        # a pole on this sheet makes strength comparable to |closed|;
        # a regular point leaves it at radius * |R| with a tiny ring
        if (strength < 1e-2 * max(1.0, abs(closed))
                and abs(ring) < 1e-4 * max(abs(closed), 1e-8)):
            return None
        if abs(ring - closed) > 1e-7 * max(1.0, abs(closed)):
            raise CrossValidationFailure(
                f"residue mismatch at {mu:.6g}: ring {ring:.9g} vs "
                f"closed form {closed:.9g}")
        return PoleData(mu=mu, residue=closed, residue_ring=ring)

    def _classify_poles(self):
        poles, others = [], []
        for mu in self.sd.bstar_zeros(self.eps):
            data = self._residue_at(mu)
            if data is None:
                others.append(complex(mu))
            else:
                poles.append(data)
        return tuple(poles), tuple(others)

    # ---------------------------------------------- anchors at k = 0

    def _origin_mean(self, r):
        """Mean of the root over the probe pair (+p, -p), off every cut.

        Generically the origin lies on exactly one cut: on a vertical
        (imaginary-axis) cut the approach is along the real axis, where
        the root is continuous across the surrounding band; on a
        horizontal (real-axis) cut it is along the imaginary axis.
        """
        if self.cuts.covers("real", 0.0):
            probes = np.array([1j * r, -1j * r])
        else:
            probes = np.array([r, -r], dtype=complex)
        return np.mean(self._raw(probes))

    def value_at_zero(self):
        """Limit of the root at k = 0, extrapolated; -1 generically.

        The two-sided mean over the cut-free axis is linear in the
        probe radius (the half-axes carry conjugate slopes), so two
        Richardson stages over radii r, r/2, r/4 cancel the linear and
        quadratic error terms, and the miss falls as r^3.  A narrow
        real origin cut brings the cubic term close: at r = 1e-3, 1e-4
        and 1e-5 the miss of one Fourier profile (a cut of half-width
        0.033) is 3.1e-4, 3.8e-7 and 3.8e-10.  The probes may sit
        inside ORIGIN_OFFSET, which guards sided values on a cut: they
        lie off every cut, where the product form keeps its rounding
        near 1e-14 down to r = 1e-7.
        """
        if self.trivial:
            return 0.0j
        r = 1e-5
        v1, v2, v4 = (self._origin_mean(s) for s in (r, r / 2, r / 4))
        return complex((4.0 * (2.0 * v4 - v2) - (2.0 * v2 - v1)) / 3.0)

    # ---------------------------------------------- validation

    def _validate(self):
        """Identity checks on the root evaluator.

        The quadratic residual, the unimodularity identity
        (a - b R*)(a* - b* R) = 1 and the reflection identity
        R(-k) = R*(k) raise BranchSelectionError.  They hold on both
        sheets, so they catch a faulty evaluation, not the wrong sheet,
        which only the anchor (_anchored_sign) can tell.  The origin limit
        R(0) = -1 is an accuracy check of value_at_zero, not a sheet
        check either: a and b have the simple pole a ~ i rho / k,
        b ~ -i rho / k at k = 0, so there the quadratic is
        -(i rho / k)(K + 1)^2 to leading order, both roots tend to -1,
        and a miss raises VerificationFailure.
        """
        rng = np.random.default_rng(20)
        n = 32
        pts = (rng.uniform(-0.85, 0.85, n) * self.k_max +
               1j * rng.uniform(0.06, 1.0, n) * rng.choice([-1.0, 1.0], n))
        keep = np.ones(n, dtype=bool)
        for mu in [p.mu for p in self.poles] + [0.5j, -0.5j]:
            keep &= np.abs(pts - mu) > 0.05
        pts = pts[keep]
        a, b, astar, bstar = self.sd.ab(pts)
        K = self._raw(pts)
        Kstar = np.conj(self._raw(np.conj(pts)))
        ph2 = np.exp(2j * pts * self.theta)
        quad = np.abs(-ph2 * bstar * K * K + (ph2 * astar - a) * K + b)
        if np.max(quad) > 1e-9:
            raise BranchSelectionError(
                f"quadratic residual {np.max(quad):.3g} > 1e-9")
        unim = np.abs((a - b * Kstar) * (astar - bstar * K) - 1.0)
        if np.max(unim) > 1e-8:
            raise BranchSelectionError(
                f"unimodularity defect {np.max(unim):.3g} > 1e-8")
        refl = np.abs(self._raw(-pts) - Kstar)
        if np.max(refl) > 1e-9:
            raise BranchSelectionError(
                f"reflection defect {np.max(refl):.3g} > 1e-9")
        v0 = self.value_at_zero()
        if abs(v0 + 1.0) > 1e-6:
            raise VerificationFailure(
                f"origin anchor R(0) = {v0:.9g} differs from -1")


# ------------------------------------------------------------ module ops


def branch_report(sr):
    """JSON-ready summary of the sheet structure."""
    cs = sr.cuts
    return {
        "theta": float(sr.theta),
        "k_max": float(cs.k_max),
        "sigma": float(sr.sigma),
        "trivial": bool(sr.trivial),
        "branch_points": [[z.real, z.imag] for z in cs.branch_points],
        "cuts": [{"axis": c.axis, "lo": c.lo, "hi": c.hi}
                 for c in cs.cuts],
        "dropped_gaps": [{"axis": g.axis, "position": g.position,
                          "width": g.width, "excess": g.excess}
                         for g in cs.dropped],
        "poles": [{"mu": [p.mu.real, p.mu.imag],
                   "residue": [p.residue.real, p.residue.imag]}
                  for p in sr.poles],
        "other_sheet_zeros": [[z.real, z.imag] for z in sr.other_sheet_zeros],
        "pairing": list(cs.pairing),
    }
