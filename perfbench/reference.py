"""Independent reference for the spectral functions (a, b, a*, b*).

Integrates the Lax-pair system Y' = (0 1; q 0) Y over [0, L], with
q(x, k) = 1/4 - (k^2 + 1/4)(m0(x) + 1) and Y(0) = I, by scipy's adaptive
DOP853, and maps the transfer matrix T = Y(L) to the spectral functions
through the wave basis

    W = (1/2) (1, -1/(ik); 1, 1/(ik)),    W^{-1} = (1, 1; -ik, ik),
    M = W T W^{-1} = ( a e^{-ik theta},  -b e^{-ik theta}
                      -b* e^{ik theta},   a* e^{ik theta} ),

with theta = int_0^L sqrt(1 + m0) from scipy's quad.  The momentum m0 is
taken in closed form, never from perch's sampled profile, and nothing
here imports perch: agreement with perch is evidence, not a tautology.

PoleCauchy, below, gives the one-sided Cauchy transforms of the
densities 1/(s - z0) over a panelled contour in closed form, from the
panels' parameter maps alone.
"""

import numpy as np
from scipy.integrate import quad, solve_ivp

L = 2.0
RTOL = 1e-13
ATOL = 1e-15


def bump(c):
    """m0 of the preset bump(c): c sin^2(pi x / L)."""
    return lambda x: c * np.sin(np.pi * x / L) ** 2


def asym(x):
    """m0 of the asymmetric test profile, which breaks x -> L - x."""
    s = np.sin(np.pi * x / L) ** 2
    return s * (0.8 + 0.79 * np.sin(2 * np.pi * x / L))


def zero(x):
    return 0.0 * x


MOMENTA = {"bump(0.5)": bump(0.5), "bump(-0.8)": bump(-0.8),
           "asym": asym, "zero": zero}


class Reference:
    """Reference evaluator for one closed-form momentum m0 on [0, L]."""

    def __init__(self, m0):
        self.m0 = m0
        self.theta = quad(lambda x: np.sqrt(1.0 + m0(x)), 0.0, L,
                          epsabs=1e-13, epsrel=1e-13, limit=200)[0]

    def transfer(self, k):
        """T(k) = Y(L) for Y' = (0 1; q 0) Y, Y(0) = I."""
        k = complex(k)
        lam = k * k + 0.25

        def rhs(x, y):
            q = 0.25 - lam * (self.m0(x) + 1.0)
            # y holds the columns of Y: (Y11, Y21, Y12, Y22)
            return np.array([y[1], q * y[0], y[3], q * y[2]])

        sol = solve_ivp(rhs, (0.0, L), np.array([1, 0, 0, 1], dtype=complex),
                        method="DOP853", rtol=RTOL, atol=ATOL)
        if not sol.success:
            raise RuntimeError(f"reference integration failed at k = {k}: "
                               f"{sol.message}")
        y = sol.y[:, -1]
        return np.array([[y[0], y[2]], [y[1], y[3]]])

    def spectral(self, k):
        """(a, b, a*, b*, Delta) at one k != 0, Delta = tr T."""
        k = complex(k)
        T = self.transfer(k)
        ik = 1j * k
        W = 0.5 * np.array([[1.0, -1.0 / ik], [1.0, 1.0 / ik]])
        Winv = np.array([[1.0, 1.0], [-ik, ik]])
        M = W @ T @ Winv
        e = np.exp(1j * k * self.theta)
        a = M[0, 0] * e
        b = -M[0, 1] * e
        bstar = -M[1, 0] / e
        astar = M[1, 1] / e
        return a, b, astar, bstar, T[0, 0] + T[1, 1]


def zero_closed_form(k):
    """(a, b, a*, b*, Delta) of m0 = 0: a = a* = 1, b = b* = 0, 2 cos kL."""
    return 1.0, 0.0, 1.0, 0.0, 2.0 * np.cos(complex(k) * L)


# ------------------------------------------- Cauchy transform of a pole


def _ends(panel):
    """Start and end of a line or arc panel, from its parameter map."""
    if panel.kind == "line":
        return panel.mid - panel.half, panel.mid + panel.half
    return (panel.center + panel.radius * np.exp(1j * (panel.phic - panel.beta)),
            panel.center + panel.radius * np.exp(1j * (panel.phic + panel.beta)))


def panel_log(panel, a, inside=None):
    """int over one panel of ds / (s - a), for points a off the panel.

    A straight panel turns s - a by less than pi, so the principal log of
    (B - a) / (A - a) is exact.  On an arc s = c + r exp(i phi), write
    s - a = (s - c)(1 + (c - a)/(s - c)) for |a - c| < r and
    s - a = (c - a)(1 + (s - c)/(c - a)) otherwise: the second factor has
    a positive real part along the whole arc, so its principal argument
    is continuous, and arg(s - c) turns by 2 beta.  `inside` picks the
    form for points on the arc's own circle (one-sided limits).
    """
    a = np.asarray(a, dtype=complex)
    A, B = _ends(panel)
    if panel.kind == "line":
        return np.log((B - a) / (A - a))
    c = panel.center
    if inside is None:
        inside = np.abs(a - c) < panel.radius
    turn_in = (2.0 * panel.beta + np.angle(1.0 + (c - a) / (B - c))
               - np.angle(1.0 + (c - a) / (A - c)))
    turn_out = (np.angle(1.0 + (B - c) / (c - a))
                - np.angle(1.0 + (A - c) / (c - a)))
    return (np.log(np.abs(B - a) / np.abs(A - a))
            + 1j * np.where(inside, turn_in, turn_out))


def panel_log_sided(panel, side):
    """One-sided limit of panel_log at the panel's own nodes.

    The "plus" side is the left of the direction of increasing parameter:
    +i pi on a line, the inside of a counter-clockwise arc.
    """
    k = panel.nodes
    if panel.kind == "line":
        A, B = _ends(panel)
        sign = 1.0 if side == "plus" else -1.0
        return np.log(np.abs(B - k) / np.abs(A - k)) + 1j * np.pi * sign
    return panel_log(panel, k, inside=(side == "plus") == (panel.beta > 0))


class PoleCauchy:
    """C+-[rho] at every node for rho(s) = 1/(s - z0), in closed form.

    With Lam(a) = int ds / (s - a) over the whole contour,
    C[rho](k) = (Lam(z0) - Lam(k)) / (2 pi i (z0 - k)), and the boundary
    values take the one-sided Lam at a node.  Only the panels' parameter
    maps and nodes are read.
    """

    def __init__(self, panels):
        self.panels = panels
        self.nodes = np.concatenate([p.nodes for p in panels])
        self.lam = {side: self._lam_nodes(side) for side in ("plus", "minus")}

    def _lam_nodes(self, side):
        out = np.zeros(len(self.nodes), dtype=complex)
        start = 0
        for p in self.panels:
            v = panel_log(p, self.nodes)
            v[start:start + len(p.nodes)] = panel_log_sided(p, side)
            out += v
            start += len(p.nodes)
        return out

    def values(self, z0, side):
        lam_z = sum(complex(panel_log(p, z0)) for p in self.panels)
        return (lam_z - self.lam[side]) / (2j * np.pi * (z0 - self.nodes))
