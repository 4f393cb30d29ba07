"""Direct scattering for the periodic spectral problem at t = 0.

The scalar problem

    psi_xx = (1/4) psi + lam (m0(x) + 1) psi,     lam = -k^2 - 1/4,

is integrated over one period [0, L] as a first-order 2x2 system, giving
the transfer matrix T(k) for (psi, psi_x).  The system is linear, so each
step of the fixed-step RK8 scheme acts as a propagator P_n, and
T = P_{N-1} ... P_0.  k enters only through lam, so every increment
E_n = P_n - I is a polynomial in lam of degree at most 6, with real
coefficients that depend on (m0, L, N) alone.  The integrator multiplies
the P_n by a pairwise product in that increment form, adding I once at
the end.  Its first two levels pair polynomials that do not depend on k,
so they are taken once per (m0, L, N) on the coefficients: four steps
make one factor F_m = P_{4m+3} ... P_{4m} - I of degree at most
(24 23; 24 24) in lam.  A third level would reach degree 48, whose
smallest coefficients fall into the subnormal range.  The integrator
keeps the factor coefficients, evaluates the N/4 factors by one matrix
product per group of at most MATMUL_K k, and takes the rest of the
product once per slab of at most SLAB_STEPK steps x k, in float64 where
lam is real and in complex arithmetic elsewhere.

Because m0 vanishes at the period endpoints, the wave-basis change

    W = (1/2) (1, -1/(ik); 1, 1/(ik)),     W^{-1} = (1, 1; -ik, ik)

is the same constant matrix at both ends, and the monodromy in that basis
factorizes into spectral functions:

    M(k) = W T(k) W^{-1} = ( a e^{-ik theta},  -b e^{-ik theta}
                            -b* e^{ik theta},   a* e^{ik theta} ).

Here theta = y(L) and a*(k) = conj(a(conj(k))), b*(k) = conj(b(conj(k))).
One transfer matrix yields all four functions; det T = 1 forces
a a* - b b* = 1, and a(-k) = conj(a(conj(k))) ties the two half planes.

T depends on k only through lam, so T(-k) = T(k), T(conj k) = conj T(k),
and T is real wherever lam is: on the real and the imaginary axis
(Magnus and Winkler, Hill's Equation, 1966).  ScatteringData therefore
integrates one T per lam up to conjugation, and integrate_transfer takes
a real lam in real arithmetic.  Neither changes a bit of T.  (-k)^2 and
conj(k)^2 round to k^2 and its conjugate, and the rest is sums and
products with real coefficients, each of which commutes with
conjugation exactly, so the integration at conj(k) gives conj T(k).
With every imaginary part an exact 0, each complex sum and product
rounds as its real part alone, and the factor evaluation's real matrix
product gets the same columns, only not the zero ones (MATMUL_K).

Also found here: the zeros of b* on -i(0, 1/2), the only places where
the sheeted quadratic root can have poles (bstar_zeros derives why).  b
is real on the imaginary axis, so the search is a sign-change scan
refined by batched bisection.

The zeros of a need no search and carry no residue condition.  a is
real on i(0, 1/2) as well and can change sign there (bump(0.5) near
i 0.0601, inside its vertical origin cut), but it enters the jump
matrices only as a denominator: in the G-functions (assembly._g_core,
on real-axis and circle nodes) and in the reflection coefficients b*/a
and b/a* of the real-axis jump (JumpSpec._j0_real).  On the real axis
a* = conj(a) and b* = conj(b), so a a* - b b* = 1 reads
|a|^2 = 1 + |b|^2 >= 1 and neither a nor a* can vanish; every node
that reaches _g_core, real or circle, also passes
_guard_denominator("a", a).  The vertical-cut jump uses only the sided
roots, never a.
"""

import functools
import math

import numpy as np
from scipy.integrate._ivp import dop853_coefficients as _dop

from .config import ORIGIN_OFFSET, ContourConfig
from .errors import (BasisSingular, IdenticallyZero, OutOfRange,
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
# k per matrix product of the factor evaluation.  A k's value must not
# depend on its batch, and only that BLAS product could make it: with
# OpenBLAS 0.3.31 (Haswell kernel) a product 97 k or more wide can give its
# last one to three columns other bits than a product one k wide, and
# DYNAMIC_ARCH builds pick their kernel per CPU, so 42 stays well under it.
# A complex k takes two columns (real and imaginary part), a real lam one;
# a product one column wide goes to gemv, whose bits differ from gemm's in
# every entry, so _evaluate_increments never takes it (widths 2 to 128
# give the bits of the complex path)
MATMUL_K = 42
# steps x k per slab of the pairwise product, 4 MB of factor values.  The
# product holds two of its levels at a time, at most a half and a quarter
# of that, and a temporary of a quarter, so a call peaks near 9 MB however
# many k it takes (8.9 MB for 5000 k at 192 steps, tracemalloc)
SLAB_STEPK = 2**18
# (profile, step count) pairs whose four-step factors are kept, 200 bytes a
# step each: one spectra round of four profiles uses 27 (2.0 MB), a cold
# Riemann-Hilbert pass of three profiles 6
COEFF_MEMO = 32
# degree in lam of E_n = P_n - I, per (row, col); _step_coefficients derives it
DEGREE_BOUND = np.array([[6, 5], [6, 6]])
IMAG_GUARD = 60.0         # refuse |Im k| * theta beyond this
B_FLOOR = 1e-12           # b and b* under this on the probe line: b == 0
# nu grid of the sign-change scan for zeros of b* on i(0, 1/2)
IMAG_SCAN_NUS = np.linspace(ORIGIN_OFFSET, 0.4999, 480)


def integrate_transfer(m0, L, ks, n_steps):
    """Fixed-step RK8 for Y' = (0 1; q 0) Y over [0, L], batched over k.

    q(x, k) = 1/4 + lam (m0(x) + 1) with lam = -k^2 - 1/4.  Returns Y(L)
    with Y(0) = I, shape (len(ks), 2, 2).  The step count is chosen by
    the caller from the phase rate |k| sqrt(max m0 + 1).

    The system is linear, so the RK step n maps Y to P_n Y, where the
    step propagator P_n is the step applied to the identity, and
    Y(L) = P_{N-1} ... P_1 P_0.  k enters only through the scalar lam:
    the RK step is built from the tableau, h and q at the stages, and q is
    1/4 + w lam with w = m0 + 1 real.  So each increment E_n = P_n - I is
    a polynomial in lam,

        E_n(lam) = sum_d C[d, :, :, n] lam^d,     d = 0 .. 6,

    whose coefficients are real and depend on (m0, L, n_steps) alone; the
    degree bound is derived in _step_coefficients.  The product is taken
    pairwise, (I + E_hi)(I + E_lo) = I + (E_hi + E_lo + E_hi E_lo), with
    I added once at the end.  Keeping I out of the factors keeps its
    rounding from repeating at every step, which would otherwise cost
    det Y = 1 a digit when all the P_n are alike.

    The first two levels of that product pair polynomials whose
    coefficients do not depend on k, so _factor_coefficients takes them
    on the coefficients, once per (m0, L, n_steps), and keeps the result
    (the COEFF_MEMO most recent): the factors F_m with I + F_m =
    P_{4m+3} ... P_{4m}, of degree at most (24 23; 24 24) in lam.  Each
    k then costs the evaluation of the N/4 factors and the rest of the
    pairwise product.

    The evaluation keeps that increment form's rounding.  I never enters
    the sum, so F_m carries a few ulps of its own terms F_d lam^d, not
    of 1.  In E_n the terms fall by about h^2 |lam| w / ((2d + 1)(2d + 2))
    per degree past the leading one, which the callers' step counts keep
    well under 1, and F_m, a product of four such steps, falls alike, so
    no cancellation grows with the degree.

    k is taken in slabs of at most SLAB_STEPK steps x k, which bounds the
    memory, and the pairwise product runs once per slab.  The factors are
    evaluated in groups of at most MATMUL_K k, one matrix product each,
    which keeps each k's bits independent of its batch.  The k whose lam
    is real, on the real and the imaginary axis, are taken apart in
    float64 by the same evaluation and product, with the bits the complex
    path would give them (module docstring), in half its memory, half
    its matrix product and a quarter of its pairwise multiplications.
    """
    ks = np.asarray(ks, dtype=complex)
    F = _factor_coefficients(np.asarray(m0, dtype=float).tobytes(), float(L),
                             int(n_steps))
    lam = -(ks**2 + 0.25)
    real = lam.imag == 0
    per_slab = max(1, SLAB_STEPK // n_steps)
    Y = np.empty((len(ks), 2, 2), dtype=complex)
    for sel, lam_sel in ((~real, lam[~real]), (real, lam[real].real)):
        at = np.flatnonzero(sel)
        for s in range(0, len(lam_sel), per_slab):
            lam_s = lam_sel[s:s + per_slab]
            E = np.empty(F.shape[1:] + lam_s.shape, dtype=lam_s.dtype)
            for g in range(0, len(lam_s), MATMUL_K):
                E[..., g:g + MATMUL_K] = _evaluate_increments(
                    F, lam_s[g:g + MATMUL_K])
            Y[at[s:s + per_slab]] = _pairwise_product(E).transpose(2, 0, 1)
    Y[:, 0, 0] += 1.0
    Y[:, 1, 1] += 1.0
    return Y


@functools.lru_cache(maxsize=COEFF_MEMO)
def _factor_coefficients(m0_bytes, L, n_steps):
    """F[d, row, col, m]: four steps in one factor, I + F_m = P_4m+3 ... P_4m.

    The step polynomials of _step_coefficients, paired as
    _pairwise_product pairs their values, F = E_hi + E_lo + E_hi E_lo
    with hi the odd and lo the even factors, but on the coefficients:
    E_hi E_lo is a convolution along the degree axis.  The algebra is
    that of the product taken at each k; only the rounding differs.  A
    level is taken only while the factor count is even, so a bucket of
    steps (a multiple of 64) gives N/4 factors, and a single step one.

    Degree bound.  A product entry (r, c) has degree
    max_j deg(r, j) + deg(j, c), so (6 5; 6 6) becomes (12 11; 12 12) and
    then (24 23; 24 24).  Every coefficient above it is an exact 0, a sum
    of products with a zero factor.  The coefficients fall steeply with
    the degree, since the terms of each step do (integrate_transfer).
    """
    F = _step_coefficients(m0_bytes, L, n_steps)
    # two levels, not three: at degree (24 23; 24 24) the smallest nonzero
    # coefficient is 1e-110 to 1e-197 on the test profiles at 64 to 1792
    # steps, but a third level, of degree 48, falls to 2e-307 and below
    # (down to 5e-324) at 512 steps, subnormal, where digits are lost
    for _ in range(2):
        if F.shape[-1] % 2:
            break
        hi, lo = F[..., 1::2], F[..., 0::2]
        deg = len(F)
        F = np.zeros((2 * deg - 1,) + hi.shape[1:])
        F[:deg] = hi + lo
        for d in range(2 * deg - 1):
            i = np.arange(max(0, d - deg + 1), min(d, deg - 1) + 1)
            F[d] += np.einsum("irjm,ijcm->rcm", hi[i], lo[d - i])
    F.flags.writeable = False
    return F


def _step_coefficients(m0_bytes, L, n_steps):
    """C[d, row, col, n] with E_n = P_n - I = sum_d C[d] lam^d.

    One RK8 step from the identity, all steps at once, on the
    coefficients of polynomials in lam.  With the stage values
    Z_i = I + D_i, each stage derivative splits as K_i = A_i Z_i =
    A_i + G_i, where G_i = A_i D_i = (D_i[1]; q_i D_i[0]):

        D_i = h sum_j a_ij A_j + h sum_j a_ij G_j,
        E   = h sum_i b_i A_i  + h sum_i b_i G_i.

    The sums of A_j = (0 1; q_j 0) are formed from the exact row sums of
    the tableau and from w = m0 + 1 relative to its first stage, so the
    large alternating tableau weights act only on G_j and w_j - w_0,
    which vanish with h, and never on the O(1) part of A_j.  The tableau
    is linear and acts on each coefficient alike; the one product,
    q_i D_i[0] with q_i = 1/4 + w_i lam, scales the coefficients by 1/4
    and adds them, times w_i, one degree up.

    Degree bound.  G_0 = 0, and the A-part of D_i has degree 0 in
    column 1 (row 0, h c_i) and 1 in column 0 (row 1, h sum_j a_ij q_j).
    Row 0 of G_i is row 1 of D_i, and row 1 of G_i is row 0 of D_i raised
    one degree by q_i.  The first subdiagonal of the tableau has no zero,
    so D_i reaches the degrees of G_{i-1}, and row 1 gains one power of
    lam every second stage: in column 0, G_i has degrees
    (ceil(i/2), floor(i/2) + 1), and column 1 lags one stage behind.  The
    last stage is i = 11, so E has degree at most (6 5; 6 6), DEGREE_BOUND:
    for constant w these are the degrees of a polynomial of degree 12 in
    h A, since (h A)^2 = h^2 q I.  Every coefficient above the bound is
    an exact 0, a sum of zeros.
    """
    m0 = np.frombuffer(m0_bytes)
    h = L / n_steps
    w = trig_eval_steps(m0, n_steps, _C) + 1.0    # m0 + 1 at (step, stage)
    dw = w - w[:, :1]
    aw = np.multiply.outer(w[:, 0], _A_ROWSUM) + dw @ _A.T   # sum_j a_ij w_j
    bw = _B_SUM * w[:, 0] + dw @ _B                          # sum_i b_i w_i
    hA, hB = h * _A, h * _B
    deg = DEGREE_BOUND.max() + 1
    G0 = np.zeros((_STAGES, deg, 2, n_steps))     # row 0 of G_i, by degree
    G1 = np.zeros_like(G0)                        # row 1 of G_i, by degree
    g0 = G0.reshape(_STAGES, -1)
    g1 = G1.reshape(_STAGES, -1)
    for i in range(1, _STAGES):
        d0 = (hA[i, :i] @ g0[:i]).reshape(deg, 2, n_steps)
        d1 = (hA[i, :i] @ g1[:i]).reshape(deg, 2, n_steps)
        d0[0, 1] += h * _A_ROWSUM[i]
        d1[0, 0] += h * 0.25 * _A_ROWSUM[i]
        d1[1, 0] += h * aw[:, i]
        G0[i] = d1
        np.multiply(0.25, d0, out=G1[i])
        G1[i, 1:] += w[:, i] * d0[:-1]
    e0 = (hB @ g0).reshape(deg, 2, n_steps)
    e1 = (hB @ g1).reshape(deg, 2, n_steps)
    e0[0, 1] += h * _B_SUM
    e1[0, 0] += h * 0.25 * _B_SUM
    e1[1, 0] += h * bw
    return np.stack([e0, e1], axis=1)


def _evaluate_increments(C, lam):
    """E[row, col, n, k] = sum_d C[d, row, col, n] lam_k^d, in lam's dtype.

    The powers of lam are formed once per k, and one real matrix product
    takes every (row, col, n) at once, with complex powers seen as float
    pairs: C is real, so the real and imaginary parts of each power take
    the same coefficients, and a real lam takes one column.  Horner's
    rule gives the same digits here, since the terms fall with the
    degree, but on the four-step factors it needs 24 elementwise passes
    over E, 9 to 17 times slower a slab at 192 to 1792 steps (one Xeon
    core, OpenBLAS).
    """
    powers = np.ones((len(C), len(lam)), dtype=lam.dtype)
    for d in range(1, len(C)):
        powers[d] = powers[d - 1] * lam
    cols = powers.view(float)
    width = cols.shape[1]
    if width == 1:
        # numpy takes a one-column product by gemv, whose bits differ from
        # gemm's (MATMUL_K): a lone real lam is taken twice
        cols = np.repeat(cols, 2, axis=1)
    E = (C.reshape(len(C), -1).T @ cols)[:, :width]
    return E.view(lam.dtype).reshape(C.shape[1:] + lam.shape)


def _pairwise_product(E):
    """F with I + F = (I + E_{N-1}) ... (I + E_0), by halving the step axis.

    E[row, col, n, k] holds E_n, real or complex; F[row, col, k] is
    returned in E's dtype.  Each level pairs neighbours as
    E_hi + E_lo + E_hi E_lo, the 2x2 product written out; an odd last
    factor is carried to the next level unchanged.  Every operation acts
    on each k alone, so integrate_transfer passes a whole slab of k at
    once: numpy's call overhead, not the arithmetic, sets the cost of a
    narrow slab.  Each level writes into one new array, the carried
    factor into its tail, and takes row r of the product by one
    broadcast multiply-add per j, F[r] += E_hi[r, j] E_lo[j], both
    columns at once: one add and four multiply-adds a level.  Each entry
    keeps the order hi + lo, then the j = 0 term, then the j = 1 term.
    """
    while E.shape[2] > 1:
        n = E.shape[2]
        m = n // 2
        hi, lo = E[:, :, 1:2 * m:2], E[:, :, 0:2 * m:2]
        out = np.empty(E.shape[:2] + (n - m,) + E.shape[3:], dtype=E.dtype)
        F = out[:, :, :m]
        np.add(hi, lo, out=F)
        for r in range(2):
            for j in range(2):
                F[r] += hi[r, j] * lo[j]
        out[:, :, m:] = E[:, :, 2 * m:]
        E = out
    return E[:, :, 0]


def _step_count(kabs, wmax, L, steps_min, steps_per_k):
    """RK8 step counts for the moduli kabs, rounded up to multiples of 64.

    At least steps_min, and steps_per_k steps per unit of phase
    |k| wmax L; the rounding buckets nearby k into one integrator call.
    """
    n = np.maximum(steps_min, np.ceil(steps_per_k * np.asarray(kabs)
                                      * wmax * L)).astype(int)
    return (n + 63) // 64 * 64


class ScatteringData:
    """Cached evaluator of (a, b, a*, b*) built from one MomentumProfile.

    It keeps transfer matrices, not values: one T per canonical lam, the
    one of lam and conj(lam) with Im >= 0, in a sorted key array beside
    an (n, 2, 2) array of T.  k, -k, conj(k) and -conj(k) share one
    integration, taken at a k with the canonical lam, and a flipped lam
    reads conj T.  Each k comes out with the bits of its own integration
    (module docstring), whatever its batch and the calls before it.
    """

    def __init__(self, mp):
        self.mp = mp
        self.theta = mp.theta
        # ten times the default real-axis truncation window
        self.kmax_guard = (10.0 * ContourConfig().k_window_factor * np.pi
                           / mp.theta)
        self.wmax = float(np.sqrt(np.max(mp.m0) + 1.0))
        # the store: sorted canonical lam, and T at each
        self._lams = np.empty(0, dtype=complex)
        self._T = np.empty((0, 2, 2), dtype=complex)
        self._vanishes = None

    # -------------------------------------------------- core evaluation

    def ab(self, ks):
        """Vectorized (a, b, a*, b*) at the given finite k values (k != 0)."""
        ks = np.atleast_1d(np.asarray(ks, dtype=complex))
        if not np.all(np.isfinite(ks)):
            raise OutOfRange("k must be finite")
        if np.any(ks == 0):
            raise BasisSingular("the wave basis is singular at k = 0, where "
                                "a and b have a simple pole")
        # initial=0.0: an empty k array passes the guards, as no k exceeds them
        guard = np.max(np.abs(ks.imag), initial=0.0) * self.theta
        if guard > IMAG_GUARD:
            raise StiffnessFailure(
                f"|Im k| * theta = {guard:.3g} beyond the guard")
        kabs = np.max(np.abs(ks), initial=0.0)
        if kabs > self.kmax_guard:
            raise StiffnessFailure(
                f"|k| = {kabs:.3g} beyond the {self.kmax_guard:.3g} guard")
        lam = -(ks**2 + 0.25)
        flip = lam.imag < 0
        key = np.where(flip, lam.conj(), lam)
        pos = np.searchsorted(self._lams, key)
        hit = pos < len(self._lams)
        hit[hit] = self._lams[pos[hit]] == key[hit]
        if not np.all(hit):
            # one k per new key, at that key: k itself, or conj(k) if flipped
            new, first = np.unique(key[~hit], return_index=True)
            reps = np.where(flip, ks.conj(), ks)[~hit][first]
            self._integrate_keys(new, reps)
            pos = np.searchsorted(self._lams, key)
        T = self._T[pos]
        T[flip] = T[flip].conj()
        return _unpack_monodromy(ks, T, self.theta)

    def _integrate_keys(self, keys, reps):
        """Integrate the sorted new keys at the k reps, by step bucket, and
        merge their transfer matrices into the store.

        Each T depends on its k alone, not on the rest of the batch
        (SLAB_STEPK), so the order of reps changes no digit.
        """
        steps = _step_count(np.abs(reps), self.wmax, self.mp.L,
                            ODE_STEPS_MIN, ODE_STEPS_PER_K)
        T = np.empty((len(reps), 2, 2), dtype=complex)
        for n in np.unique(steps):
            sel = steps == n
            T[sel] = integrate_transfer(self.mp.m0, self.mp.L, reps[sel],
                                        int(n))
        at = np.searchsorted(self._lams, keys)
        self._lams = np.insert(self._lams, at, keys)
        self._T = np.insert(self._T, at, T, axis=0)

    def ab_coarse(self, ks):
        """Low-accuracy (~1e-4) evaluation for the b probe of b_vanishes.

        One step bucket per batch, set by its largest |k|, makes each
        batch one integrator call; comparing |b| with B_FLOOR needs no
        more accuracy than this.  Nothing is cached: b_vanishes keeps
        its one answer.
        """
        ks = np.atleast_1d(np.asarray(ks, dtype=complex))
        n = _step_count(np.max(np.abs(ks)), self.wmax, self.mp.L, 64, 1.5)
        T = integrate_transfer(self.mp.m0, self.mp.L, ks, int(n))
        return _unpack_monodromy(ks, T, self.theta)

    def floquet_discriminant(self, ks):
        """Delta(k) = a e^{-ik theta} + a* e^{ik theta}, the monodromy trace."""
        ks = np.atleast_1d(np.asarray(ks, dtype=complex))
        a, _, astar, _ = self.ab(ks)
        ph = np.exp(1j * ks * self.theta)
        return a / ph + astar * ph

    def _axis_zeros(self, nus):
        """Zeros i nu of b between the samples i nus.

        b is real on the imaginary axis, by b(-conj k) = conj b(k).  Each
        sign change between neighbouring samples is refined by batched
        grid bisection: one evaluator call per 17x shrink.
        """
        v = self.ab(1j * nus)[1]
        if np.max(np.abs(v.imag)) > 1e-7 * (1 + np.max(np.abs(v))):
            raise VerificationFailure("b is not real on the imaginary axis")
        v = v.real
        roots = []
        for i in np.flatnonzero(np.signbit(v[:-1]) != np.signbit(v[1:])):
            lo, hi = nus[i], nus[i + 1]
            for _ in range(14):
                grid = np.linspace(lo, hi, 18)
                vals = self.ab(1j * grid)[1].real
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

    def b_vanishes(self):
        """Whether b vanishes identically.

        True when |b| and |b*| stay under B_FLOOR at 40 coarse points on
        Im k = 0.037, 0.13 <= Re k <= k_window(), the default window.
        The probe runs once; the sheeted root, the cut search and the
        b* zero search all ask it.
        """
        if self._vanishes is None:
            probes = np.linspace(0.13, self.k_window(), 40) + 0.037j
            _, b, _, bstar = self.ab_coarse(probes)
            scale = float(max(np.max(np.abs(b)), np.max(np.abs(bstar))))
            self._vanishes = scale < B_FLOOR
        return self._vanishes

    def bstar_zeros(self, eps):
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
        if self.b_vanishes():
            raise IdenticallyZero("b vanishes identically; no poles to find")
        top = 0.5 - eps
        nus = IMAG_SCAN_NUS[:np.searchsorted(IMAG_SCAN_NUS, top) + 1]
        return tuple(complex(0.0, -nu) for nu in self._axis_zeros(nus)
                     if nu < top)

    def k_window(self, ccfg=None):
        """Half-width of the truncation window on the real axis; a factor
        that is not finite and positive is refused."""
        factor = (ccfg or ContourConfig()).k_window_factor
        if not (np.isfinite(factor) and factor > 0):
            raise OutOfRange(f"k_window_factor = {factor} is not finite "
                             "and positive")
        return factor * np.pi / self.theta


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
