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

A target is near a panel when its preimage lies within NEAR_PARAM of
[-1, 1].  Each panel carries a reach disc that holds every such target, so
only the targets inside it need a preimage (a complex log on arcs).  A
target in the disc lies in the disc's strip of real parts, so the fill
sorts the targets by real part once and tests only those in each strip
against the disc.  On the benchmark's sweep contour that tests 23,366 of
the 371,712 target-panel pairs and takes 6,234 preimages.
Every row comes from one builder, _rows, which takes a stack of panels and
gives one block per panel: the near rows of all panels in one pass, with
one Q recurrence over all their preimages, and a side's self blocks in
another, from one Q at the rule's nodes.  A self block depends on the
panel's kind and, on an arc, its angle beta alone, so a side builds one
block per (kind, beta) and writes it on every panel of that shape: 43
blocks for the 176 panels of the sweep contour.  The arc smooth part is
elementwise, so a pass takes it once over all its arc rows.  The product
of Q with the projection matrix stays one per panel, since one product
over the stack differs from the per-panel products in the last bits under
OpenBLAS, and the per-panel rows are what the tests pin.

The far sum, w_j / (s_j - k) / (2 pi i) for every target and node, is
three elementwise passes over an N-wide row per target: subtract, divide
the weights, scale.  numpy runs them without the GIL, so _by_bands splits
the rows into contiguous bands, one per CPU the process may run on
(_workers), and runs the bands on a thread pool made for that call; a
fill under two bands of BAND_ELEMENTS runs in the caller's thread and
starts none.  Each element is computed as before, so the bands change no
bit.  The scale is a product with SCALE = -i / (2 pi): numpy divides by a
divisor whose real part is zero as a product with its rounded
reciprocal, so the product gives the division's bits.  A test pins this
from 1e-320 to 1e300; only a part within three subnormal steps of zero,
which scales to zero, may come out as a zero of the other sign.  The
near rows, the self blocks and every matrix product stay in the caller's
thread.

The "+" side of a panel is the left side walking in the direction of
increasing parameter; with this convention C_plus - C_minus equals the
density exactly (discrete Christoffel-Darboux identity), which the solver
relies on.
"""

import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .errors import BadGeometry, OutOfRange, TooCloseToContour

# parameter-plane distance below which the Q-form replaces the plain sum.
# Every target within it of a panel lies in the panel's reach disc about
# s(0) (_reach_disc).  A line maps zeta to mid + half zeta with
# |zeta| <= 1 + NEAR_PARAM, so |k - mid| <= (1 + NEAR_PARAM) |half|,
# tight at zeta = +-(1 + NEAR_PARAM).  An arc maps tau + i eta, with
# |eta| < NEAR_PARAM and |tau| < 1 + NEAR_PARAM, to
# k = c + rho e^{i psi}, rho = r e^{-beta eta}, psi = phic + beta tau; so
# k - s(0) = (rho - r) e^{i phic} + rho (e^{i psi} - e^{i phic}) and
# |k - s(0)| <= r (e^{NEAR_PARAM |beta|} - 1)
#               + r e^{NEAR_PARAM |beta|} min((1 + NEAR_PARAM) |beta|, 2).
NEAR_PARAM = 0.7
# relative margin on a reach disc's radius, for the rounding of targets
# on a tight line bound
REACH_MARGIN = 1e-6
# 1 / (2 pi i), rounded as numpy rounds it when it divides by 2j * pi (see
# the module docstring)
SCALE = complex(0.0, -(1.0 / (2.0 * np.pi)))
# fewest elements of a band worth a thread of its own (2 MB of complex)
BAND_ELEMENTS = 1 << 17


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
    """Q_m(z) off the cut [-1, 1]; branch cut exactly on the segment.

    Q_0(z) = arctanh(1/z), whose cuts are those of Q_0 and no more: a real
    z outside [-1, 1] takes the real value whatever the sign of its zero
    imaginary part, where 1/2 (log(z + 1) - log(z - 1)) gains i pi at
    z < -1 with a -0 imaginary part.
    """
    z = np.asarray(z, dtype=complex)
    q0 = np.arctanh(1.0 / z)
    return _leg_Q_forward(z, p, q0)


def leg_Q_side(x, p, side):
    """Boundary values Q_m(x + i0) (side "plus") or Q_m(x - i0) ("minus");
    any other side is refused."""
    if side not in ("plus", "minus"):
        raise BadGeometry(f"side must be 'plus' or 'minus', not {side!r}")
    sign = 1 if side == "plus" else -1
    x = np.asarray(x, dtype=float)
    q0 = 0.5 * np.log((1.0 + x) / (1.0 - x)) - sign * 0.5j * np.pi
    return _leg_Q_forward(x.astype(complex), p, q0)


def projection_matrix(tau, wref):
    """Node values -> Legendre coefficients, exact through degree p-1."""
    p = len(tau)
    V = leg_P(tau, p).real            # (p, p), V[j, m] = P_m(tau_j)
    D = (2.0 * np.arange(p) + 1.0) / 2.0
    return (V * wref[:, None]).T * D[:, None]


def _cot_minus_inv(z):
    """cot(z) - 1/z, series-switched so z -> 0 is exact: the series where
    |z| < 0.25, the direct form only elsewhere."""
    z = np.asarray(z, dtype=complex)
    small = np.abs(z) < 0.25
    out = np.empty_like(z)
    zs, zb = z[small], z[~small]
    out[small] = (-zs / 3.0 - zs**3 / 45.0 - 2.0 * zs**5 / 945.0
                  - zs**7 / 4725.0)
    out[~small] = np.cos(zb) / np.sin(zb) - 1.0 / zb
    return out


def _arc_smooth_part(beta, tau, taustar):
    """g(tau_j; t*) for the arc kernel split, shape (targets, p).

    s'(t)/(s(t)-k) = 1/(t - t*) + g(t),
    g(t) = (beta/2) (cot(beta (t-t*)/2) - 2/(beta (t-t*))) + i beta/2,
    with beta the arc angle of each target's panel, one per row.
    """
    beta = np.asarray(beta)[:, None]
    z = 0.5 * beta * (tau[None, :] - np.asarray(taustar)[:, None])
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


def _reach_disc(panel):
    """Centre s(0) and radius of a disc holding every target whose
    parameter preimage lies within NEAR_PARAM of the panel (see there)."""
    if panel.kind == "line":
        radius = (1.0 + NEAR_PARAM) * abs(panel.half)
    else:
        beta = abs(panel.beta)
        grow = np.exp(NEAR_PARAM * beta)
        radius = panel.radius * (grow - 1.0 + grow * min(
            (1.0 + NEAR_PARAM) * beta, 2.0))
    return panel.s_of_tau(0.0), radius * (1.0 + REACH_MARGIN)


def param_distance(zeta):
    """Distance from zeta to the reference interval [-1, 1]."""
    zeta = np.asarray(zeta, dtype=complex)
    dx = np.maximum(np.abs(zeta.real) - 1.0, 0.0)
    return np.hypot(dx, zeta.imag)


def _workers():
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _by_bands(work, rows, cols):
    """work(band) over contiguous row bands of a rows x cols array, one
    band per CPU of the process but none under BAND_ELEMENTS; a lone band
    runs in the caller's thread, more on a pool made for this call."""
    n = max(1, min(_workers(), rows * cols // BAND_ELEMENTS))
    bands = [slice(i * rows // n, (i + 1) * rows // n) for i in range(n)]
    if n == 1:
        work(bands[0])
        return
    with ThreadPoolExecutor(n) as pool:
        list(pool.map(work, bands))


def _rows(panels, proj, Q, taus, sizes):
    """Rows from the Q values at the targets' parameter positions taus.

    Panel i of the stack takes the next sizes[i] rows of Q and taus, and
    the rows come back as one block per panel.  Each panel's (-2 Q) @ proj
    is a product of its own (see the module docstring); the arc smooth
    part is elementwise, so it is taken once for all arc rows.
    """
    cuts = np.cumsum(sizes)[:-1]
    rows = np.concatenate([(-2.0 * q) @ proj for q in np.split(Q, cuts)])
    arc = np.repeat([p.kind == "arc" for p in panels], sizes)
    if np.any(arc):
        beta = np.repeat([p.beta for p in panels], sizes)[arc]
        g = _arc_smooth_part(beta, panels[0].tau, taus[arc])
        rows[arc] += g * panels[0].wref[None, :]
    return np.split(rows / (2j * np.pi), cuts)


class CauchyOperator:
    """Precomputed Cauchy machinery for one PanelSet.

    build_panels lays one Gauss-Legendre rule on every panel, so one
    projection matrix serves them all, and the Q values at the nodes of
    every panel are the same on each side.

    One fill (_fill) serves every target, nodes, points off the contour
    and off-node points of a panel; the block of the panel a target lies
    on belongs to the caller.  The fill takes the far sum for every
    target and panel, then the exact rows of the pairs it finds near: it
    takes the parameter preimage only of the targets inside each panel's
    reach disc (_reach_disc), which it looks for in the disc's strip of
    real parts, and builds all near rows in one _rows pass (see the
    module docstring).  The owner blocks are one-sided rows from
    _own_rows, the same _rows pass on one side's Q, one block per panel
    shape (kind and arc angle) shared by its panels.  The two boundary
    matrices differ only in the self blocks, so the first boundary_matrix
    call fills the nodes once and each side writes its self blocks over
    that fill.  The operator keeps the fill until both sides have been
    handed out; the last side is written into the kept array itself,
    which the operator then drops.  So while it has handed out only one
    side, an operator holds one extra N x N complex array (71 MB at
    N = 2112); after both, none.  The far sum and the copy of the kept
    fill for the first side run by row bands on every CPU the process
    may use (see the module docstring); the rest runs in the caller's
    thread.
    """

    def __init__(self, panelset):
        self.ps = panelset
        first = panelset.panels[0]
        self.proj = projection_matrix(first.tau, first.wref)
        centres, radii = zip(*map(_reach_disc, panelset.panels))
        self._centres = np.array(centres, dtype=complex)
        self._reach = np.array(radii)
        # the panels of each shape; a self block depends on the panel's
        # kind and arc angle alone (lines have beta = 0)
        shapes = {}
        for q, p in enumerate(panelset.panels):
            shapes.setdefault((p.kind, p.beta), []).append(q)
        self._shapes = list(shapes.values())
        self._kept = None        # the node fill, until both sides are served
        self._served = set()     # sides served from self._kept

    def _fill(self, ks, owner):
        """Rows of C at targets ks, target i lying on panel owner[i] (-1:
        none): the far sum, then exact rows on near panels but the owner,
        whose block the caller fills; a target on another panel is refused."""
        ps = self.ps
        K = np.empty((len(ks), ps.n), dtype=complex)

        def far(band):
            out = K[band]
            np.subtract(ps.nodes[None, :], ks[band, None], out=out)
            # a node target divides by zero at its own node, in its owner
            # block; errstate is per thread, so each band sets its own
            with np.errstate(divide="ignore", invalid="ignore"):
                np.divide(ps.weights[None, :], out, out=out)
                out *= SCALE
        _by_bands(far, len(ks), ps.n)
        # a target on or near a panel lies in its reach disc, and so in
        # the disc's strip of real parts; the candidates stay in ascending
        # order, which keeps the near rows' bits
        order = np.argsort(ks.real)
        xs = ks.real[order]
        los = np.searchsorted(xs, self._centres.real - self._reach, "left")
        his = np.searchsorted(xs, self._centres.real + self._reach, "right")
        near, zetas = [], []
        for q in np.flatnonzero(his > los):
            cand = np.sort(order[los[q]:his[q]])
            cand = cand[(np.abs(ks[cand] - self._centres[q]) <= self._reach[q])
                        & (owner[cand] != q)]
            if not len(cand):
                continue
            zeta = _param_preimage(ps.panels[q], ks[cand])
            d = param_distance(zeta)
            if np.any(d < 1e-13):
                raise TooCloseToContour("target lies on a panel")
            hit = d < NEAR_PARAM
            if np.any(hit):
                near.append((q, cand[hit]))
                zetas.append(zeta[hit])
        if near:
            zeta = np.concatenate(zetas)
            blocks = _rows([ps.panels[q] for q, _ in near], self.proj,
                           leg_Q(zeta, len(self.proj)), zeta,
                           [len(z) for z in zetas])
            for (q, targets), block in zip(near, blocks):
                K[targets, ps.node_slice(q)] = block
        return K

    def _own_rows(self, owners, taus, side):
        """One-sided rows at parameter positions taus on each panel of
        owners, one block per owner: one Q for all, a product each."""
        Q = leg_Q_side(taus, len(self.proj), side)
        n = len(owners)
        return _rows([self.ps.panels[q] for q in owners], self.proj,
                     np.tile(Q, (n, 1)), np.tile(taus.astype(complex), n),
                     [len(taus)] * n)

    def offcontour_rows(self, ks):
        """(len(ks), N) matrix mapping node values to C[rho](ks); a target
        that is not finite is refused."""
        ks = np.atleast_1d(np.asarray(ks, dtype=complex))
        bad = ~np.isfinite(ks)
        if np.any(bad):
            raise OutOfRange(f"target k = {ks[bad][0]} is not finite")
        return self._fill(ks, np.full(len(ks), -1))

    def boundary_matrix(self, side):
        """(N, N) matrix of one-sided boundary values at all nodes."""
        blocks = self._own_rows([qs[0] for qs in self._shapes],
                                self.ps.panels[0].tau, side)
        if self._kept is None:
            self._kept = self._fill(self.ps.nodes, self.ps.panel_index)
            self._served = set()
        self._served.add(side)
        if len(self._served) < 2:
            K = np.empty_like(self._kept)
            _by_bands(lambda band: np.copyto(K[band], self._kept[band]),
                      *K.shape)
        else:
            K, self._kept = self._kept, None
        for qs, block in zip(self._shapes, blocks):
            for q in qs:
                cols = self.ps.node_slice(q)
                K[cols, cols] = block
        return K

    def boundary_rows_at(self, ipanel, taus, side):
        """Rows for one-sided values at off-node positions taus in (-1, 1)
        on panel ipanel; a position outside it is refused."""
        taus = np.atleast_1d(np.asarray(taus, dtype=float))
        off = ~(np.abs(taus) < 1.0)
        if np.any(off):
            raise OutOfRange(f"tau = {taus[off][0]} outside (-1, 1) "
                             f"on panel {ipanel}")
        (own,) = self._own_rows([ipanel], taus, side)
        ks = self.ps.panels[ipanel].s_of_tau(taus)
        out = self._fill(ks, np.full(len(taus), ipanel))
        out[:, self.ps.node_slice(ipanel)] = own
        return out
