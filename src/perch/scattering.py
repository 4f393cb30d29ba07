"""Direct scattering for the periodic spectral problem at t = 0.

The scalar problem

    psi_xx = (1/4) psi + lam (m0(x) + 1) psi,     lam = -k^2 - 1/4,

is integrated over one period [0, L] as a first-order 2x2 system, giving
the transfer matrix T(k) for (psi, psi_x).  The system is linear, so each
step of the fixed-step RK8 scheme acts as a propagator P_n, and
T = P_{N-1} ... P_0.  The integrator forms every increment E_n = P_n - I
in one vectorised pass and multiplies them by a pairwise product in that
increment form, adding I once at the end.  Because m0 vanishes at the
period endpoints, the wave-basis change

    W = (1/2) (1, -1/(ik); 1, 1/(ik)),     W^{-1} = (1, 1; -ik, ik)

is the same constant matrix at both ends, and the monodromy in that basis
factorizes into spectral functions:

    M(k) = W T(k) W^{-1} = ( a e^{-ik theta},  -b e^{-ik theta}
                            -b* e^{ik theta},   a* e^{ik theta} ).

Here theta = y(L) and a*(k) = conj(a(conj(k))), b*(k) = conj(b(conj(k))).
One integration per k yields all four functions; det T = 1 forces
a a* - b b* = 1, and a(-k) = conj(a(conj(k))) ties the two half planes.

Also computed here: the k -> 0 pole data (a ~ i rho / k + a0,
b ~ -i rho / k + b0), the zeros of a on the segment (0, i/2) with their
norming constants, and the zeros of b* on -i(0, 1/2), the only places
where the sheeted quadratic root can have poles.  a and b are real on
the imaginary axis, so both searches are sign-change scans refined by
batched bisection; an argument-principle winding (phase continuation on
a cell boundary) confirms the count of zeros of a.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate._ivp import dop853_coefficients as _dop

from .config import ORIGIN_OFFSET, ContourConfig
from .errors import (BasisSingular, ClusterUnresolved, DerivativeTooSmall,
                     IdenticallyZero, MultiplicityDetected, NonGenericCase,
                     StiffnessFailure, VerificationFailure)
from .initial import trig_eval_steps

_STAGES = _dop.N_STAGES                       # 12-stage order-8 scheme
_A = _dop.A[:_STAGES, :_STAGES]
_B = _dop.B
_C = _dop.C[:_STAGES]
_A_ROWSUM = np.array([math.fsum(row) for row in _A])   # exact, then rounded
_B_SUM = math.fsum(_B)

ODE_STEPS_MIN = 192       # RK8 steps across [0, L] for small |k|
ODE_STEPS_PER_K = 12.0    # extra steps ~ this * |k| * L
SLAB_STEPK = 8192         # steps x k per pass of the kernel, about 6 MB
IMAG_GUARD = 60.0         # refuse |Im k| * theta beyond this
FD_STEP = 1e-6            # central-difference step for k-derivatives
ZERO_FIT_RADII = (1e-3, 2e-3)   # |k| radii for the k->0 pole fit
B_FLOOR = 1e-12           # b and b* under this on the probe line: b == 0
# nu grid of the sign-change scan for zeros of b* on i(0, 1/2)
IMAG_SCAN_NUS = np.linspace(ORIGIN_OFFSET, 0.4999, 480)


def rk8_tableau():
    """(A, B, C) of the order-8 explicit scheme used by the integrator."""
    return _A.copy(), _B.copy(), _C.copy()


def integrate_transfer(m0, L, ks, n_steps):
    """Fixed-step RK8 for Y' = (0 1; q 0) Y over [0, L], batched over k.

    q(x, k) = 1/4 - (k^2 + 1/4)(m0(x) + 1).  Returns Y(L) with Y(0) = I,
    shape (len(ks), 2, 2).  The step count is chosen by the caller from
    the phase rate |k| sqrt(max m0 + 1).

    The system is linear, so the RK step n maps Y to P_n Y, where the
    step propagator P_n is the step applied to the identity, and
    Y(L) = P_{N-1} ... P_1 P_0.  Every P_n is formed at once, in the
    increment form E_n = P_n - I, and the product is taken pairwise,
    (I + E_hi)(I + E_lo) = I + (E_hi + E_lo + E_hi E_lo), with I added
    once at the end.  Keeping I out of the factors keeps its rounding
    from repeating at every step, which would otherwise cost det Y = 1
    a digit when all the P_n are alike.  k is taken in slabs of at most
    SLAB_STEPK steps x k.
    """
    ks = np.asarray(ks, dtype=complex)
    h = L / n_steps
    w = trig_eval_steps(m0, n_steps, _C) + 1.0    # m0 + 1 at (step, stage)
    lam = -(ks**2 + 0.25)
    per_slab = max(1, SLAB_STEPK // n_steps)
    Y = np.empty((len(ks), 2, 2), dtype=complex)
    for s in range(0, len(ks), per_slab):
        E = _step_increments(w, h, lam[s:s + per_slab])
        Y[s:s + per_slab] = _pairwise_product(E).transpose(2, 0, 1)
    Y[:, 0, 0] += 1.0
    Y[:, 1, 1] += 1.0
    return Y


def _step_increments(w, h, lam):
    """E_n = P_n - I for every step n and k, as E[row, col, n, k].

    One RK8 step from the identity, all steps at once.  With the stage
    values Z_i = I + D_i, each stage derivative splits as
    K_i = A_i Z_i = A_i + G_i, where G_i = A_i D_i = (D_i[1]; q_i D_i[0]):

        D_i = h sum_j a_ij A_j + h sum_j a_ij G_j,
        E   = h sum_i b_i A_i  + h sum_i b_i G_i.

    The sums of A_j = (0 1; q_j 0) are formed from the exact row sums of
    the tableau and from w = m0 + 1 relative to its first stage, so the
    large alternating tableau weights act only on G_j and w_j - w_0,
    which vanish with h, and never on the O(1) part of A_j.  The G sums
    apply the real tableau to float views of the complex stage arrays.
    """
    n_steps, nk = len(w), len(lam)
    dw = w - w[:, :1]
    aw = np.multiply.outer(w[:, 0], _A_ROWSUM) + dw @ _A.T   # sum_j a_ij w_j
    bw = _B_SUM * w[:, 0] + dw @ _B                          # sum_i b_i w_i
    hA, hB = h * _A, h * _B
    G0 = np.zeros((_STAGES, 2, n_steps, nk), dtype=complex)  # row 0 of G_i
    G1 = np.zeros_like(G0)                                   # row 1 of G_i
    g0 = G0.reshape(_STAGES, -1).view(float)
    g1 = G1.reshape(_STAGES, -1).view(float)
    for i in range(1, _STAGES):
        d0 = (hA[i, :i] @ g0[:i]).view(complex).reshape(2, n_steps, nk)
        d1 = (hA[i, :i] @ g1[:i]).view(complex).reshape(2, n_steps, nk)
        d0[1] += h * _A_ROWSUM[i]
        d1[0] += h * (0.25 * _A_ROWSUM[i] + np.multiply.outer(aw[:, i], lam))
        G0[i] = d1
        np.multiply(0.25 + np.multiply.outer(w[:, i], lam), d0, out=G1[i])
    e0 = (hB @ g0).view(complex).reshape(2, n_steps, nk)
    e1 = (hB @ g1).view(complex).reshape(2, n_steps, nk)
    e0[1] += h * _B_SUM
    e1[0] += h * (0.25 * _B_SUM + np.multiply.outer(bw, lam))
    return np.stack([e0, e1])


def _pairwise_product(E):
    """F with I + F = (I + E_{N-1}) ... (I + E_0), by halving the step axis.

    E[row, col, n, k] holds E_n; F[row, col, k] is returned.  Each level
    pairs neighbours as E_hi + E_lo + E_hi E_lo, the 2x2 product written
    out; an odd last factor is carried to the next level unchanged.
    """
    while E.shape[2] > 1:
        n = E.shape[2]
        m = n // 2 * 2
        hi, lo = E[:, :, 1:m:2], E[:, :, 0:m:2]
        F = hi + lo
        for r in range(2):
            for c in range(2):
                F[r, c] += hi[r, 0] * lo[0, c]
                F[r, c] += hi[r, 1] * lo[1, c]
        E = np.concatenate([F, E[:, :, m:]], axis=2) if m < n else F
    return E[:, :, 0]


def _step_count(kabs, wmax, L, steps_min, steps_per_k):
    n = max(steps_min, int(np.ceil(steps_per_k * kabs * wmax * L)))
    return ((n + 63) // 64) * 64               # bucket for batch reuse


@dataclass(frozen=True)
class ZeroExpansion:
    """Pole data of a and b at k = 0: a ~ i rho / k + a0, b ~ -i rho/k + b0."""
    rho: float
    a0: float
    b0: float
    rho_from_b: float
    fit_residual: float


@dataclass(frozen=True)
class EigenRecord:
    """One zero i nu of a on (0, i/2) with its norming data."""
    nu: float
    b_j: complex
    c_j: complex
    adot: complex


class ScatteringData:
    """Cached evaluator of (a, b, a*, b*) built from one MomentumProfile."""

    def __init__(self, mp):
        self.mp = mp
        self.theta = mp.theta
        # ten times the default real-axis truncation window
        self.kmax_guard = (10.0 * ContourConfig().k_window_factor * np.pi
                           / mp.theta)
        self.wmax = float(np.sqrt(np.max(mp.m0) + 1.0))
        self._cache = {}
        self._coarse = {}
        self._vanishes = {}

    # -------------------------------------------------- core evaluation

    def ab(self, ks):
        """Vectorized (a, b, a*, b*) at the given k values (k != 0)."""
        ks = np.atleast_1d(np.asarray(ks, dtype=complex))
        if np.any(ks == 0):
            raise BasisSingular("the wave basis is singular at k = 0; "
                                "use expand_at_zero for the pole data")
        guard = np.max(np.abs(ks.imag)) * self.theta
        if guard > IMAG_GUARD:
            raise StiffnessFailure(
                f"|Im k| * theta = {guard:.3g} beyond the guard")
        kabs = np.max(np.abs(ks))
        if kabs > self.kmax_guard:
            raise StiffnessFailure(
                f"|k| = {kabs:.3g} beyond the {self.kmax_guard:.3g} guard")
        missing = sorted({k for k in ks.tolist() if k not in self._cache},
                         key=lambda z: (abs(z), z.real, z.imag))
        if missing:
            self._integrate_batch(np.asarray(missing))
        out = np.array([self._cache[k] for k in ks.tolist()])
        return out[:, 0], out[:, 1], out[:, 2], out[:, 3]

    def _integrate_batch(self, ks):
        steps = np.array([_step_count(abs(k), self.wmax, self.mp.L,
                                      ODE_STEPS_MIN, ODE_STEPS_PER_K)
                          for k in ks])
        for n in np.unique(steps):
            sel = ks[steps == n]
            T = integrate_transfer(self.mp.m0, self.mp.L, sel, int(n))
            A, Bv, As, Bs = _unpack_monodromy(sel, T, self.theta)
            for i, k in enumerate(sel.tolist()):
                self._cache[k] = (A[i], Bv[i], As[i], Bs[i])

    def ab_coarse(self, ks):
        """Low-accuracy (~1e-4) evaluation for windings and the b probe.

        One step bucket per batch, set by its largest |k|, makes each
        batch one integrator call; integer windings are insensitive to
        this accuracy.
        """
        ks = np.atleast_1d(np.asarray(ks, dtype=complex))
        missing = [k for k in ks.tolist() if k not in self._coarse]
        if missing:
            arr = np.asarray(missing)
            n = _step_count(float(np.max(np.abs(arr))), self.wmax, self.mp.L,
                            64, 1.5)
            T = integrate_transfer(self.mp.m0, self.mp.L, arr, n)
            A, Bv, As, Bs = _unpack_monodromy(arr, T, self.theta)
            for i, k in enumerate(arr.tolist()):
                self._coarse[k] = (A[i], Bv[i], As[i], Bs[i])
        out = np.array([self._coarse[k] for k in ks.tolist()])
        return out[:, 0], out[:, 1], out[:, 2], out[:, 3]

    def floquet_discriminant(self, ks):
        """Delta(k) = a e^{-ik theta} + a* e^{ik theta}, the monodromy trace."""
        ks = np.atleast_1d(np.asarray(ks, dtype=complex))
        a, _, astar, _ = self.ab(ks)
        ph = np.exp(1j * ks * self.theta)
        return a / ph + astar * ph

    def ab_deriv(self, ks):
        """d/dk of (a, b, a*, b*) by central differences."""
        ks = np.atleast_1d(np.asarray(ks, dtype=complex))
        hs = FD_STEP * np.maximum(1.0, np.abs(ks))
        vp = self.ab(ks + hs)
        vm = self.ab(ks - hs)
        return tuple((p - m) / (2 * hs) for p, m in zip(vp, vm))

    # -------------------------------------------------- k -> 0 expansion

    def expand_at_zero(self):
        """Fit the simple pole of a and b at k = 0 on small circles."""
        n_fit, tau_rho = 16, 1e-8
        rows, va, vb = [], [], []
        for r in ZERO_FIT_RADII:
            ang = (np.arange(n_fit) + 0.5) * (2 * np.pi / n_fit)
            kc = r * np.exp(1j * ang)
            a, b, _, _ = self.ab(kc)
            rows.append(np.stack([1.0 / kc, np.ones(n_fit), kc, kc**2], axis=1))
            va.append(a)
            vb.append(b)
        X = np.vstack(rows)
        ca, res_a = _lstsq_resid(X, np.concatenate(va))
        cb, res_b = _lstsq_resid(X, np.concatenate(vb))
        rho_a = complex(-1j * ca[0])
        rho_b = complex(1j * cb[0])
        scale = max(abs(rho_a), abs(rho_b))
        if scale < tau_rho:
            raise NonGenericCase(
                f"|rho| = {scale:.2e} below {tau_rho:.0e}: k = 0 is not a "
                "simple pole of a, the generic-case pipeline does not apply")
        r0 = min(ZERO_FIT_RADII)
        if max(res_a, res_b) > 1e-6 * (scale / r0):
            raise VerificationFailure(
                f"pole fit residual {max(res_a, res_b):.2e} too large")
        for name, v in (("rho", rho_a), ("a0", complex(ca[1])),
                        ("b0", complex(cb[1]))):
            if abs(v.imag) > 1e-8 * max(1.0, abs(v)):
                raise VerificationFailure(
                    f"{name} = {v:.3e} should be real to 1e-8")
        if abs(rho_a - rho_b) > 1e-6 * max(1.0, scale):
            raise VerificationFailure(
                f"rho from a ({rho_a:.6e}) and from b ({rho_b:.6e}) disagree")
        return ZeroExpansion(rho_a.real, ca[1].real, cb[1].real,
                             rho_b.real, float(max(res_a, res_b)))

    # -------------------------------------------------- discrete spectrum

    def discrete_spectrum(self):
        """Zeros i nu of a on (0, i/2): nu, b_j = b(i nu), c_j = 1/(b_j da)."""
        edge = 1e-3
        roots = self._axis_zeros(np.linspace(edge, 0.5 - edge, 600), 0)
        count = self._winding(lambda z: self.ab_coarse(z)[0],
                              -0.05 + 1j * edge, 0.05 + 1j * (0.5 - edge))
        if count != len(roots):
            raise MultiplicityDetected(
                f"argument principle counts {count} zeros of a in the strip, "
                f"scan found {len(roots)}")
        recs = []
        for nu in roots:
            k0 = 1j * nu
            da = self.ab_deriv(np.array([k0]))[0][0]
            b_j = self.ab(np.array([k0]))[1][0]
            if abs(da) < 1e-8:
                raise DerivativeTooSmall(f"|da/dk| = {abs(da):.2e} at k = {k0}")
            if abs(b_j) < 1e-12:
                raise DerivativeTooSmall(f"|b| = {abs(b_j):.2e} at k = {k0}")
            c_j = 1.0 / (b_j * da)
            if abs(c_j.real) > 1e-6 * abs(c_j):
                raise VerificationFailure(
                    f"norming constant {c_j:.3e} should be purely imaginary")
            recs.append(EigenRecord(float(nu), complex(b_j), complex(c_j),
                                    complex(da)))
        return recs

    def _axis_zeros(self, nus, comp):
        """Zeros i nu of a or b (comp 0 or 1) between the samples i nus.

        Both are real on the imaginary axis, by a(-conj k) = conj a(k)
        and likewise for b.  Each sign change between neighbouring
        samples is refined by batched grid bisection: one evaluator call
        per 17x shrink.
        """
        v = self.ab(1j * nus)[comp]
        if np.max(np.abs(v.imag)) > 1e-7 * (1 + np.max(np.abs(v))):
            raise VerificationFailure(
                f"{'ab'[comp]} is not real on the imaginary axis")
        v = v.real
        roots = []
        for i in np.flatnonzero(np.signbit(v[:-1]) != np.signbit(v[1:])):
            lo, hi = nus[i], nus[i + 1]
            for _ in range(14):
                grid = np.linspace(lo, hi, 18)
                vals = self.ab(1j * grid)[comp].real
                idx = np.flatnonzero(np.signbit(vals[:-1])
                                     != np.signbit(vals[1:]))
                if len(idx) == 0:
                    break
                lo, hi = grid[idx[0]], grid[idx[0] + 1]
                if hi - lo < 1e-15:
                    break
            roots.append(0.5 * (lo + hi))
        return roots

    # -------------------------------------------------- b* zero search

    def b_vanishes(self, k_hi):
        """Whether b vanishes identically, probed up to Re k = k_hi.

        True when |b| and |b*| stay under B_FLOOR at 40 coarse points on
        Im k = 0.037, 0.13 <= Re k <= k_hi.  The probe runs once per
        window; the sheeted root, the cut search and the b* zero search
        all ask it.
        """
        if k_hi not in self._vanishes:
            probes = np.linspace(0.13, k_hi, 40) + 0.037j
            _, b, _, bstar = self.ab_coarse(probes)
            scale = float(max(np.max(np.abs(b)), np.max(np.abs(bstar))))
            self._vanishes[k_hi] = scale < B_FLOOR
        return self._vanishes[k_hi]

    def bstar_zeros(self, eps, ccfg=None):
        """Zeros of b* on -i(0, 1/2 - eps): the only candidate poles.

        The selected root R has (R, 1) as an eigenvector of the monodromy
        M(k) of the module docstring,

            M (R, 1)^T = mu (R, 1)^T,     mu = e^{ik theta} (a* - b* R),

        so R is the ratio of the wave-basis components (c1, c2) of a
        Floquet solution psi, with psi(x + L) = mu psi(x).  With
        psi(0) = c1 + c2 and psi'(0) = ik (c2 - c1), R has a pole exactly
        where c2 = 0, i.e. psi'(0) = -ik psi(0).

        In Im k > 0 off the vertical cuts, mu + 1/mu = Delta and |mu| = 1
        only where Delta is in [-2, 2], which happens nowhere there; at
        infinity mu -> e^{ik theta}.  So |mu| < 1 on that connected
        region, and psi decays as x -> +infinity.  (At lam = 0 the
        decaying solution e^{-x/2} has c1 = 0, which is the anchor
        R(i/2) = 0 that selects the sheet.)  Multiply
        psi'' = psi/4 + lam w psi, with w = m0 + 1 > 0, by conj(psi) and
        integrate over (0, infinity) using psi'(0) = -ik psi(0):

            ik |psi(0)|^2 - int |psi'|^2 - (1/4) int |psi|^2
                = lam int w |psi|^2,          lam = -k^2 - 1/4.

        The imaginary part gives
        Re k (|psi(0)|^2 + 2 Im k int w |psi|^2) = 0, so Re k = 0; the
        real part at k = is gives (s^2 - 1/4) int w |psi|^2 < 0, so
        s < 1/2.  Im k < 0 is the mirror case on (-infinity, 0).  Poles
        therefore lie on +-i(0, 1/2): none in the upper-outer region
        |k| > 1/2, and in the lower-inner one only on -i(0, 1/2).

        There b(-conj k) = conj b(k) makes b(i nu) real and
        b*(-i nu) = b(i nu), so the zeros come from sign changes of b on
        the nu grid IMAG_SCAN_NUS, refined by bisection.  The scan runs up
        to nu = 1/2 - eps, where eps is the radius of the eps-circles
        that the sheet settled (SheetedR.eps); zeros inside the circle
        about -i/2 are not reported (b vanishes at i/2 for every
        profile).  Whether a zero is a pole of the selected root or lies
        on the other sheet is decided by the residue ring check in
        SheetedR.
        """
        if self.b_vanishes(self.k_window(ccfg)):
            raise IdenticallyZero("b vanishes identically; no poles to find")
        top = 0.5 - eps
        nus = IMAG_SCAN_NUS[:np.searchsorted(IMAG_SCAN_NUS, top) + 1]
        return tuple(complex(0.0, -nu) for nu in self._axis_zeros(nus, 1)
                     if nu < top)

    def k_window(self, ccfg=None):
        """Half-width of the truncation window on the real axis."""
        ccfg = ccfg or ContourConfig()
        return ccfg.k_window_factor * np.pi / self.theta

    def _samples_per_unit(self):
        # phase rate of b, b* along real directions is bounded by the
        # oscillation of e^{+-ik theta} and e^{+-ikL}: keep steps well
        # under a radian of worst-case phase
        return 4.0 * (2 * self.theta + self.mp.L + 2.0)

    def _winding(self, f, lo, hi, nodes=256):
        """Winding number of f about the rectangle with corners lo, hi.

        The boundary samples are densified 4x and then 16x while the
        phase continuation cannot resolve them.
        """
        for mult in (1, 4, 16):
            wnd = _phase_winding(f(_rect_boundary(
                lo, hi, nodes * mult, self._samples_per_unit() * mult)))
            if wnd is not None:
                return wnd
        raise ClusterUnresolved(
            "the winding cell kept failing after 16x densification; a zero "
            "sits on or next to its boundary")


def _unpack_monodromy(ks, T, theta):
    """Spectral functions (a, b, a*, b*) from T via the wave basis."""
    ik = 1j * ks
    tw00 = T[:, 0, 0] - ik * T[:, 0, 1]
    tw01 = T[:, 0, 0] + ik * T[:, 0, 1]
    tw10 = T[:, 1, 0] - ik * T[:, 1, 1]
    tw11 = T[:, 1, 0] + ik * T[:, 1, 1]
    m11 = 0.5 * (tw00 - tw10 / ik)
    m12 = 0.5 * (tw01 - tw11 / ik)
    m21 = 0.5 * (tw00 + tw10 / ik)
    m22 = 0.5 * (tw01 + tw11 / ik)
    ph = np.exp(1j * ks * theta)
    return m11 * ph, -m12 * ph, m22 / ph, -m21 / ph


def _lstsq_resid(X, y):
    c, *_ = np.linalg.lstsq(X, y, rcond=None)
    return c, float(np.max(np.abs(X @ c - y)))


def _phase_winding(v):
    """Winding number from phase continuation; None if sampling too coarse."""
    if np.any(~np.isfinite(v)) or np.any(v == 0):
        return None
    dphi = np.angle(v[1:] / v[:-1])
    if np.max(np.abs(dphi)) > 2.2:
        return None
    return int(np.rint(np.sum(dphi) / (2 * np.pi)))


def _rect_boundary(lo, hi, min_nodes, per_unit):
    """Closed sample loop on a rectangle boundary, density per unit length."""
    x0, y0, x1, y1 = lo.real, lo.imag, hi.real, hi.imag
    sides = []
    for p, q in (((x0, y0), (x1, y0)), ((x1, y0), (x1, y1)),
                 ((x1, y1), (x0, y1)), ((x0, y1), (x0, y0))):
        length = np.hypot(q[0] - p[0], q[1] - p[1])
        m = max(int(min_nodes) // 4, int(np.ceil(length * per_unit)), 8)
        t = np.arange(m) / m
        sides.append(p[0] + (q[0] - p[0]) * t + 1j * (p[1] + (q[1] - p[1]) * t))
    loop = np.concatenate(sides)
    return np.append(loop, loop[0])
