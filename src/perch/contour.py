"""Oriented contour segments and composite Gauss-Legendre panels.

A contour is a list of Segment objects (straight lines and circular arcs).
Each segment is parametrized by tau in [-1, 1]; its orientation is the
direction of increasing tau, and the "+" side of the curve is the side on
the left when walking in that direction.  build_panels subdivides every
segment into panels, optionally grading panel lengths geometrically toward
flagged endpoints (branch points, k = 0, the junctions at k = +-1/2), and
lays down Gauss-Legendre nodes on each panel.

The panel data is consumed by cauchy.py, which needs, for every panel, the
parameter map s(tau) and enough geometry to decide when a target point is
"near" the panel.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import BadGeometry


@dataclass(frozen=True)
class Segment:
    """One oriented piece of a contour.

    kind "line": from a to b.
    kind "arc": circle of radius r about center, from angle phi1 to phi2
    (radians, phi2 may be smaller than phi1 for clockwise travel).
    label tags the jump rule that applies on this piece; meta carries
    rule-specific payload (e.g. the pole location for a residue disk).
    """
    kind: str
    a: complex = 0j
    b: complex = 0j
    center: complex = 0j
    radius: float = 0.0
    phi1: float = 0.0
    phi2: float = 0.0
    label: str = ""
    grade_start: bool = False
    grade_end: bool = False
    meta: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        if self.kind == "line":
            if self.a == self.b:
                raise BadGeometry("zero-length line segment")
        elif self.kind == "arc":
            if self.radius <= 0 or self.phi1 == self.phi2:
                raise BadGeometry("arc needs positive radius and distinct angles")
        else:
            raise BadGeometry(f"unknown segment kind {self.kind!r}")

    @property
    def length(self):
        if self.kind == "line":
            return abs(self.b - self.a)
        return abs(self.phi2 - self.phi1) * self.radius

    def point(self, u):
        """Map u in [0, 1] along the segment to the complex plane."""
        u = np.asarray(u, dtype=float)
        if self.kind == "line":
            return self.a + (self.b - self.a) * u
        phi = self.phi1 + (self.phi2 - self.phi1) * u
        return self.center + self.radius * np.exp(1j * phi)


def _graded_knots(levels, ratio):
    """Breakpoints in (0,1) packing geometrically toward 0."""
    # smallest cell has relative size ratio**levels
    sizes = [ratio ** (levels - i) for i in range(levels + 1)]
    total = sum(sizes)
    knots = np.cumsum([s / total for s in sizes])[:-1]
    return list(knots)


def split_points(seg, target_len, levels, ratio):
    """Panel breakpoints (in u) for one segment, honoring grading flags."""
    n = max(1, int(np.ceil(seg.length / target_len)))
    base = list(np.linspace(0.0, 1.0, n + 1))
    pts = set(base)
    if seg.grade_start and n >= 1:
        w = base[1] - base[0]
        pts.update(base[0] + w * np.asarray(_graded_knots(levels, ratio)))
    if seg.grade_end and n >= 1:
        w = base[-1] - base[-2]
        pts.update(base[-1] - w * np.asarray(_graded_knots(levels, ratio)))
    return sorted(pts)


@dataclass
class Panel:
    """One quadrature panel with its parameter map.

    For lines:   s(tau) = mid + half * tau.
    For arcs:    s(tau) = center + r exp(i (phic + beta tau)).
    nodes/weights are the mapped Gauss-Legendre rule for integrals in ds.
    """
    kind: str
    label: str
    nodes: np.ndarray      # complex, shape (p,)
    weights: np.ndarray    # complex, ds-weights, shape (p,)
    tau: np.ndarray        # reference nodes, shape (p,)
    wref: np.ndarray       # reference GL weights, shape (p,)
    # line data
    mid: complex = 0j
    half: complex = 0j
    # arc data
    center: complex = 0j
    radius: float = 0.0
    phic: float = 0.0
    beta: float = 0.0

    def s_of_tau(self, tau):
        tau = np.asarray(tau)
        if self.kind == "line":
            return self.mid + self.half * tau
        return self.center + self.radius * np.exp(1j * (self.phic + self.beta * tau))

    @property
    def scale(self):
        """Characteristic size used for near/far decisions."""
        if self.kind == "line":
            return abs(self.half)
        return abs(self.beta) * self.radius


class PanelSet:
    """All panels of a contour plus flat node/weight arrays."""

    def __init__(self, panels):
        self.panels = panels
        self.nodes = np.concatenate([p.nodes for p in panels])
        self.weights = np.concatenate([p.weights for p in panels])
        self.offsets = np.cumsum([0] + [len(p.nodes) for p in panels])
        self.labels = np.concatenate(
            [np.full(len(p.nodes), i, dtype=int) for i, p in enumerate(panels)])

    @property
    def n(self):
        return len(self.nodes)

    def panel_of_node(self, i):
        return self.panels[self.labels[i]]

    def node_slice(self, ipanel):
        return slice(self.offsets[ipanel], self.offsets[ipanel + 1])

    def min_gap_near(self, k):
        """Distance from k to the nearest node (cheap guard radius)."""
        return float(np.min(np.abs(self.nodes - k)))


def build_panels(segments, order=12, target_len=None, levels=4, ratio=0.5,
                 per_label_len=None):
    """Lay Gauss-Legendre panels over a list of segments.

    target_len is the default panel length; per_label_len maps a segment
    label to its own target.  Grading flags on a segment refine the first or
    last panel geometrically (levels halvings at the given ratio).
    """
    tau, wref = np.polynomial.legendre.leggauss(order)
    panels = []
    for seg in segments:
        tl = (per_label_len or {}).get(seg.label, target_len or seg.length)
        us = split_points(seg, tl, levels, ratio)
        for u0, u1 in zip(us[:-1], us[1:]):
            if seg.kind == "line":
                a = seg.a + (seg.b - seg.a) * u0
                b = seg.a + (seg.b - seg.a) * u1
                mid, half = 0.5 * (a + b), 0.5 * (b - a)
                nodes = mid + half * tau
                weights = wref.astype(complex) * half
                panels.append(Panel("line", seg.label, nodes, weights, tau,
                                    wref, mid=mid, half=half))
            else:
                p1 = seg.phi1 + (seg.phi2 - seg.phi1) * u0
                p2 = seg.phi1 + (seg.phi2 - seg.phi1) * u1
                phic, beta = 0.5 * (p1 + p2), 0.5 * (p2 - p1)
                nodes = seg.center + seg.radius * np.exp(1j * (phic + beta * tau))
                weights = wref * 1j * beta * seg.radius * np.exp(1j * (phic + beta * tau))
                panels.append(Panel("arc", seg.label, nodes, weights, tau,
                                    wref, center=seg.center,
                                    radius=seg.radius, phic=phic, beta=beta))
    return PanelSet(panels)
