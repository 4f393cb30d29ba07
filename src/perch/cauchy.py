"""Cauchy transforms over panelized contours.

C[rho](k) = (1/2/pi/i) int_Sigma rho(s)/(s-k) ds.

On each panel the density is identified with its Legendre interpolant
through the panel's Gauss-Legendre nodes.  The transform of P_m against the
Cauchy kernel has a closed form in terms of Legendre functions of the
second kind,

    int_{-1}^{1} P_m(t)/(t - z) dt = -2 Q_m(z),

which is exact for any target z off [-1, 1], including targets arbitrarily
close to the panel, and carries over to boundary values through

    Q_m(x +- i0) = Q_m^PV(x) -+ (i pi / 2) P_m(x).

Straight panels use this directly (the parameter map is affine, so the
kernel is exactly 1/(t - z)).  Circular-arc panels split the kernel as
1/(t - t*) plus a smooth closed-form remainder (singularity subtraction),
with t* the parameter preimage of the target, and apply the same Q-form to
the singular part.  Far targets fall back to the plain quadrature sum.

The "+" side of a panel is the left side walking in the direction of
increasing parameter; with this convention C_plus - C_minus equals the
density exactly (discrete Christoffel-Darboux identity), which the solver
relies on.
"""

import numpy as np

from .errors import BadGeometry, TooCloseToContour

# parameter-plane distance below which the Q-form replaces the plain sum
NEAR_PARAM = 0.7


def leg_P(x, p):
    """P_0..P_{p-1} at x (real or complex); shape x.shape + (p,)."""
    x = np.asarray(x)
    out = np.empty(x.shape + (p,), dtype=complex)
    out[..., 0] = 1.0
    if p > 1:
        out[..., 1] = x
    for m in range(1, p - 1):
        out[..., m + 1] = ((2 * m + 1) * x * out[..., m] - m * out[..., m - 1]) / (m + 1)
    return out


def _leg_Q_forward(z, p, q0):
    """Forward Q recurrence from a supplied Q_0; stable near the cut."""
    z = np.asarray(z, dtype=complex)
    out = np.empty(z.shape + (p,), dtype=complex)
    out[..., 0] = q0
    if p > 1:
        out[..., 1] = z * q0 - 1.0
    for m in range(1, p - 1):
        out[..., m + 1] = ((2 * m + 1) * z * out[..., m] - m * out[..., m - 1]) / (m + 1)
    return out


def leg_Q(z, p):
    """Q_m(z) off the cut [-1, 1]; branch cut exactly on the segment."""
    z = np.asarray(z, dtype=complex)
    q0 = 0.5 * (np.log(z + 1.0) - np.log(z - 1.0))
    return _leg_Q_forward(z, p, q0)


def leg_Q_side(x, p, side):
    """Boundary values Q_m(x + i0) [side=+1] or Q_m(x - i0) [side=-1]."""
    x = np.asarray(x, dtype=float)
    q0 = 0.5 * np.log((1.0 + x) / (1.0 - x)) - side * 0.5j * np.pi
    return _leg_Q_forward(x.astype(complex), p, q0)


def projection_matrix(tau, wref):
    """Node values -> Legendre coefficients, exact through degree p-1."""
    p = len(tau)
    V = leg_P(tau, p).real            # (p, p), V[j, m] = P_m(tau_j)
    D = (2.0 * np.arange(p) + 1.0) / 2.0
    return (V * wref[:, None]).T * D[:, None]


def _cot_minus_inv(z):
    """cot(z) - 1/z, series-switched so z -> 0 is exact."""
    z = np.asarray(z, dtype=complex)
    small = np.abs(z) < 0.25
    zs = np.where(small, z, 1.0)
    series = -zs / 3.0 - zs**3 / 45.0 - 2.0 * zs**5 / 945.0 - zs**7 / 4725.0
    zb = np.where(small, 1.0, z)
    direct = np.cos(zb) / np.sin(zb) - 1.0 / zb
    return np.where(small, series, direct)


def _arc_smooth_part(panel, taustar):
    """g(tau_j; t*) for the arc kernel split, shape (targets, p).

    s'(t)/(s(t)-k) = 1/(t - t*) + g(t),
    g(t) = (beta/2) (cot(beta (t-t*)/2) - 2/(beta (t-t*))) + i beta/2.
    """
    beta = panel.beta
    z = 0.5 * beta * (panel.tau[None, :] - np.asarray(taustar)[:, None])
    return 0.5 * beta * _cot_minus_inv(z) + 0.5j * beta


def _param_preimage(panel, ks):
    """Parameter-plane image of targets: zeta for lines, t* for arcs."""
    ks = np.asarray(ks, dtype=complex)
    if panel.kind == "line":
        return (ks - panel.mid) / panel.half
    w = (ks - panel.center) / panel.radius
    phi = -1j * np.log(w)             # principal; aliases shifted by 2 pi / beta
    t = (phi.real - panel.phic) / panel.beta + 1j * phi.imag / panel.beta
    period = 2.0 * np.pi / abs(panel.beta)
    t_re = np.real(t)
    shift = np.round(t_re / period) * period
    return t - shift


def param_distance(zeta):
    """Distance from zeta to the reference interval [-1, 1]."""
    zeta = np.asarray(zeta, dtype=complex)
    dx = np.maximum(np.abs(zeta.real) - 1.0, 0.0)
    return np.hypot(dx, zeta.imag)


def _rows(panel, proj, Q, taus):
    """Rows from the Q values at the targets' parameter positions taus."""
    rows = (-2.0 * Q) @ proj
    if panel.kind == "arc":
        g = _arc_smooth_part(panel, taus)            # (t, p)
        rows = rows + g * panel.wref[None, :]
    return rows / (2j * np.pi)


def _near_rows(panel, proj, zeta):
    """Exact rows for targets given by parameter preimages zeta (off curve)."""
    return _rows(panel, proj, leg_Q(zeta, len(panel.tau)), zeta)


def _side_Q(taus, p, side):
    """Q_0..Q_{p-1} at taus + i0 (side "plus") or taus - i0 ("minus")."""
    if side not in ("plus", "minus"):
        raise BadGeometry(f"side must be 'plus' or 'minus', not {side!r}")
    return leg_Q_side(taus, p, +1 if side == "plus" else -1)


def _boundary_rows(panel, proj, taus, side):
    """Rows for boundary values at parameter positions taus on the panel."""
    taus = np.asarray(taus, dtype=float)
    Q = _side_Q(taus, len(panel.tau), side)
    return _rows(panel, proj, Q, taus.astype(complex))


class CauchyOperator:
    """Precomputed Cauchy machinery for one PanelSet.

    build_panels lays one Gauss-Legendre rule on every panel, so one
    projection matrix serves them all, and the Q values at the nodes of
    every panel are the same on each side.

    One fill (_fill) serves every target, nodes, points off the contour
    and off-node points of a panel; the block of the panel a target lies
    on belongs to the caller.  The two boundary matrices differ only in
    those blocks, so the first boundary_matrix call fills the nodes once
    and each side writes its self blocks over that fill.  The operator
    keeps the fill until both sides have been handed out; the last side
    is written into the kept array itself, which the operator then drops.
    So while it has handed out only one side, an operator holds one extra
    N x N complex array (71 MB at N = 2112); after both, none.
    """

    def __init__(self, panelset):
        self.ps = panelset
        first = panelset.panels[0]
        self.proj = projection_matrix(first.tau, first.wref)
        self._kept = None        # the node fill, until both sides are served
        self._owed = set()       # sides not yet served from self._kept

    def _fill(self, ks, owner):
        """Rows of C at targets ks, target i lying on panel owner[i] (-1:
        none): the far sum, then exact rows on near panels but the owner,
        whose block the caller fills; a target on another panel is refused."""
        ps = self.ps
        K = np.empty((len(ks), ps.n), dtype=complex)
        np.subtract(ps.nodes[None, :], ks[:, None], out=K)
        # a node target divides by zero at its own node, in its owner block
        with np.errstate(divide="ignore", invalid="ignore"):
            np.divide(ps.weights[None, :], K, out=K)
            K /= 2j * np.pi
        for q, panel in enumerate(ps.panels):
            zeta = _param_preimage(panel, ks)
            d = param_distance(zeta)
            other = owner != q
            if np.any(other & (d < 1e-13)):
                raise TooCloseToContour("target lies on a panel")
            near = other & (d < NEAR_PARAM)
            if np.any(near):
                K[near, ps.node_slice(q)] = _near_rows(panel, self.proj,
                                                       zeta[near])
        return K

    def offcontour_rows(self, ks):
        """(len(ks), N) matrix mapping node values to C[rho](ks)."""
        ks = np.atleast_1d(np.asarray(ks, dtype=complex))
        return self._fill(ks, np.full(len(ks), -1))

    def boundary_matrix(self, side):
        """(N, N) matrix of one-sided boundary values at all nodes."""
        tau = self.ps.panels[0].tau
        Q = _side_Q(tau, len(tau), side)
        if self._kept is None:
            self._kept = self._fill(self.ps.nodes, self.ps.panel_index)
            self._owed = {"plus", "minus"}
        self._owed.discard(side)
        if self._owed:
            K = self._kept.copy()
        else:
            K, self._kept = self._kept, None
        taus = tau.astype(complex)
        for q, panel in enumerate(self.ps.panels):
            cols = self.ps.node_slice(q)
            K[cols, cols] = _rows(panel, self.proj, Q, taus)
        return K

    def boundary_rows_at(self, ipanel, taus, side):
        """Rows for one-sided values at off-node positions on panel ipanel."""
        panel = self.ps.panels[ipanel]
        taus = np.atleast_1d(np.asarray(taus, dtype=float))
        own = _boundary_rows(panel, self.proj, taus, side)
        out = self._fill(panel.s_of_tau(taus), np.full(len(taus), ipanel))
        out[:, self.ps.node_slice(ipanel)] = own
        return out
