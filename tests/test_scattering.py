"""Tests for the direct-scattering layer: transfer matrices, spectral
functions, the zeros of a on the imaginary axis, and the b* zero search.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp
from scipy.integrate._ivp import dop853_coefficients as dop
from scipy.linalg import expm

from perch import scattering
from perch.branch import EPS_CIRCLE
from perch.errors import (BasisSingular, IdenticallyZero, OutOfRange,
                          StiffnessFailure)
from perch.initial import trig_eval
from perch.scattering import (DEGREE_BOUND, IMAG_GUARD, MATMUL_K,
                              ODE_STEPS_MIN, ODE_STEPS_PER_K, SLAB_STEPK,
                              ScatteringData, _evaluate_increments,
                              _factor_coefficients, _pairwise_product,
                              _step_coefficients, _step_count,
                              integrate_transfer)

L = 2.0
# (A, B, C) of the integrator's order-8 scheme, from its source: the first
# N_STAGES stages of scipy's DOP853 tableau, without the dense-output ones.
# The one test-side copy; test_initial.py imports it
TABLEAU = (dop.A[:dop.N_STAGES, :dop.N_STAGES], dop.B, dop.C[:dop.N_STAGES])


def _rk8_loop(m0, L, ks, n_steps):
    """Reference: the RK8 steps taken one after another on Y itself."""
    A, B, C = TABLEAU
    stages = len(B)
    ks = np.asarray(ks, dtype=complex)
    h = L / n_steps
    xs = (np.arange(n_steps)[:, None] + C[None, :]) * h
    w = trig_eval(m0, L, xs.ravel()).reshape(n_steps, stages) + 1.0
    coef = -(ks**2 + 0.25)
    Y = np.zeros((len(ks), 2, 2), dtype=complex)
    Y[:, 0, 0] = Y[:, 1, 1] = 1.0
    K = np.zeros((stages, len(ks), 2, 2), dtype=complex)
    hA, hB = h * A, h * B
    for n in range(n_steps):
        q = 0.25 + np.multiply.outer(w[n], coef)
        for i in range(stages):
            Z = Y if i == 0 else Y + np.tensordot(hA[i, :i], K[:i], axes=1)
            K[i, :, 0, :] = Z[:, 1, :]
            K[i, :, 1, :] = q[i][:, None] * Z[:, 0, :]
        Y = Y + np.tensordot(hB, K, axes=1)
    return Y


def _rel_diff(T, ref):
    scale = np.max(np.abs(ref), axis=(1, 2))
    return np.max(np.max(np.abs(T - ref), axis=(1, 2)) / scale)


# ---------------------------------------------------------------- integrator


def test_tableau_order_conditions():
    # the integrator runs TABLEAU, so its order conditions hold for what
    # the integrator runs
    A, B, C = scattering._A, scattering._B, scattering._C
    for got, want in zip((A, B, C), TABLEAU):
        assert got.shape == want.shape and np.array_equal(got, want)
    assert np.allclose(A.sum(axis=1), C, atol=1e-14)
    for p in range(8):
        assert abs(B @ C**p - 1.0 / (p + 1)) < 1e-14


def test_zero_momentum_closed_form():
    ks = np.array([0.7, 3.0, -1.2 + 0.4j, 0.5j])
    T = integrate_transfer(np.zeros(64), L, ks, 192)
    want = np.empty_like(T)
    want[:, 0, 0] = want[:, 1, 1] = np.cos(ks * L)
    want[:, 0, 1] = np.sin(ks * L) / ks
    want[:, 1, 0] = -ks * np.sin(ks * L)
    assert np.max(np.abs(T - want)) < 1e-13


def test_constant_momentum_matches_expm():
    c = 0.35
    for k in (1.3, 2.0 - 0.7j, 0.25j):
        q = 0.25 - (k**2 + 0.25) * (1.0 + c)
        want = expm(np.array([[0.0, 1.0], [q, 0.0]]) * L)
        T = integrate_transfer(np.full(64, c), L, np.array([k]), 256)[0]
        assert np.max(np.abs(T - want)) < 1e-11


def test_empirical_convergence_order(mp_bump):
    k = np.array([9.0 + 0.0j])
    ref = integrate_transfer(mp_bump.m0, L, k, 1536)[0]
    errs = [np.max(np.abs(integrate_transfer(mp_bump.m0, L, k, n)[0] - ref))
            for n in (48, 96)]
    assert errs[0] / errs[1] > 100          # eighth order would give 256


def test_against_adaptive_reference(mp_bump):
    def rhs(x, y, kv):
        m = trig_eval(mp_bump.m0, L, np.array([x]))[0]
        q = 0.25 - (kv**2 + 0.25) * (m + 1.0)
        return [y[2], y[3], q * y[0], q * y[1]]

    for kv in (1.7, 9.0, 0.4 + 0.9j, -3.3 + 0.6j):
        sol = solve_ivp(rhs, (0.0, L), np.array([1, 0, 0, 1], dtype=complex),
                        method="DOP853", rtol=1e-11, atol=1e-13, args=(kv,))
        want = sol.y[:, -1].reshape(2, 2)
        T = integrate_transfer(mp_bump.m0, L, np.array([kv]), 192)[0]
        assert np.max(np.abs(T - want)) < 1e-9


def test_transfer_det_one_at_random_k(mp_bump):
    # |Im k| stays in the band the pipeline uses; beyond it the e^{2 Im k w L}
    # dynamic range of T makes a 1e-10 determinant check meaningless in
    # double precision no matter how the integration is done
    rng = np.random.default_rng(2718)
    done = 0
    while done < 50:
        k = complex(rng.uniform(-5, 5), rng.uniform(-1.2, 1.2))
        if abs(k) > 5 or abs(k) < 1e-2:
            continue
        T = integrate_transfer(mp_bump.m0, L, np.array([k]), 192)[0]
        assert abs(T[0, 0] * T[1, 1] - T[0, 1] * T[1, 0] - 1.0) < 1e-10
        done += 1


@pytest.mark.parametrize("n_steps", [192, 320])
@pytest.mark.parametrize("nk", [1, 3, 12, 40, 200])
def test_one_pass_matches_step_loop(mp_bump, nk, n_steps):
    # 192 = 64 * 3 and 320 = 64 * 5 halve down to an odd count of factors
    rng = np.random.default_rng(nk * n_steps)
    ks = rng.uniform(-8, 8, nk) + 1j * rng.uniform(-1, 1, nk)
    T = integrate_transfer(mp_bump.m0, L, ks, n_steps)
    assert _rel_diff(T, _rk8_loop(mp_bump.m0, L, ks, n_steps)) < 1e-13


def test_one_pass_matches_step_loop_across_slabs(mp_bump):
    # a full product slab, then one and a half matrix-product groups
    per_slab = SLAB_STEPK // 1024
    nk = per_slab + MATMUL_K + MATMUL_K // 2
    assert per_slab % MATMUL_K and 1 < MATMUL_K // 2
    rng = np.random.default_rng(1024)
    ks = rng.uniform(-20, 20, nk) + 1j * rng.uniform(-1, 1, nk)
    T = integrate_transfer(mp_bump.m0, L, ks, 1024)
    assert _rel_diff(T, _rk8_loop(mp_bump.m0, L, ks, 1024)) < 1e-13


def test_the_matrix_product_stays_narrow():
    # with OpenBLAS 0.3.31 a real matrix product 97 k or more wide can give
    # its last one to three columns other bits than one k wide, and the
    # threshold moves with the kernel DYNAMIC_ARCH builds pick per CPU.  At
    # the other end a product one column wide, a lone real lam, goes to
    # gemv, whose bits differ from gemm's in every entry, so it is never
    # taken (test_each_k_is_independent_of_its_batch sees a lone real k)
    assert 1 <= MATMUL_K < 97


@pytest.mark.parametrize("n_steps", [64, 192, 320, 1024])
def test_each_k_is_independent_of_its_batch(mp_bump, n_steps):
    # the evaluator keeps each k's value whatever batch computed it, so a
    # k must come out with the same bits alone, in a panel and in a batch
    # of several matrix-product groups (MATMUL_K); 64 is ab_coarse's floor.
    # A third of the k are real and a third imaginary, so lam is real and
    # runs in real arithmetic, in groups of several products too, and
    # alone, as a product that must not be one column wide
    assert 100 > 2 * MATMUL_K
    rng = np.random.default_rng(n_steps + 1)
    ks = np.concatenate([
        rng.uniform(-20, 20, 100) + 1j * rng.uniform(-1, 1, 100),
        rng.uniform(-20, 20, 100) + 0j, 1j * rng.uniform(-1, 1, 100)])
    ks = ks[rng.permutation(300)]
    T = integrate_transfer(mp_bump.m0, L, ks, n_steps)
    for s in range(0, 300, 12):
        panel = integrate_transfer(mp_bump.m0, L, ks[s:s + 12], n_steps)
        assert np.array_equal(panel, T[s:s + 12])
    for i in range(300):
        alone = integrate_transfer(mp_bump.m0, L, ks[i:i + 1], n_steps)
        assert np.array_equal(alone, T[i:i + 1])


@pytest.mark.parametrize("n_steps", [64, 192, 1024])
def test_a_real_lam_gets_the_bits_of_complex_arithmetic(mp_bump, n_steps):
    # integrate_transfer takes a real lam through the same two functions in
    # float64; on lam + 0j the complex path must give the same bits, for a
    # lone lam (a product two columns wide), a pair and a whole group
    F = _factor_coefficients(np.asarray(mp_bump.m0, dtype=float).tobytes(),
                             L, n_steps)
    rng = np.random.default_rng(n_steps)
    ks = np.concatenate([rng.uniform(-20, 20, MATMUL_K // 2),
                         1j * rng.uniform(0, 1, MATMUL_K - MATMUL_K // 2)])
    lam = -(ks**2 + 0.25)
    assert not np.any(lam.imag)
    for width in (1, 2, MATMUL_K):
        real = _pairwise_product(_evaluate_increments(F, lam.real[:width]))
        cplx = _pairwise_product(_evaluate_increments(F, lam[:width]))
        assert real.dtype == float and not np.any(cplx.imag)
        assert np.array_equal(real.view(np.uint64),
                              np.ascontiguousarray(cplx.real).view(np.uint64))


def _pairwise_product_by_entries(E):
    """Reference: the pairwise product with the 2x2 product taken entry by
    entry, F[r, c] += E_hi[r, j] E_lo[j, c] through one temporary, as
    _pairwise_product took it before it took both columns at once."""
    tmp = np.empty((E.shape[2] // 2,) + E.shape[3:], dtype=E.dtype)
    while E.shape[2] > 1:
        n = E.shape[2]
        m = n // 2
        hi, lo = E[:, :, 1:2 * m:2], E[:, :, 0:2 * m:2]
        out = np.empty(E.shape[:2] + (n - m,) + E.shape[3:], dtype=E.dtype)
        F = out[:, :, :m]
        np.add(hi, lo, out=F)
        t = tmp[:m]
        for r in range(2):
            for c in range(2):
                for j in range(2):
                    np.multiply(hi[r, j], lo[j, c], out=t)
                    F[r, c] += t
        out[:, :, m:] = E[:, :, 2 * m:]
        E = out
    return E[:, :, 0]


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("n_factors", [1, 2, 3, 48, 49, 160])
@pytest.mark.parametrize("n_k", [1, 7, 300])
def test_the_pairwise_product_keeps_the_bits_of_the_entry_loop(dtype,
                                                               n_factors, n_k):
    # one broadcast multiply-add per (r, j) keeps each entry's order of
    # operations, hi + lo, then the j = 0 term, then the j = 1 term; odd
    # factor counts carry a factor through a level
    rng = np.random.default_rng(1000 * n_factors + n_k)
    E = 0.3 * rng.standard_normal((2, 2, n_factors, n_k))
    if dtype is complex:
        E = E + 0.3j * rng.standard_normal(E.shape)
    got = _pairwise_product(E)
    want = _pairwise_product_by_entries(E)
    assert got.dtype == E.dtype and got.shape == (2, 2, n_k)
    assert np.array_equal(np.ascontiguousarray(got).view(np.uint64),
                          np.ascontiguousarray(want).view(np.uint64))


def _bits(abv):
    """(a, b, a*, b*) as uint64 pairs, shape (4, len(k), 2)."""
    return np.stack(abv)[..., None].view(np.uint64)


def _counting_integrations(monkeypatch):
    """The k each integrate_transfer call is given, from here on."""
    counted = []
    integrate = scattering.integrate_transfer

    def counting(m0, L, ks, n_steps):
        counted.extend(np.asarray(ks).tolist())
        return integrate(m0, L, ks, n_steps)

    monkeypatch.setattr(scattering, "integrate_transfer", counting)
    return counted


@pytest.mark.parametrize("k", [1.7 + 0.3j, -3.3 - 0.8j, 2.9, 0.21j])
def test_k_and_its_mirrors_share_one_integration(mp_bump, monkeypatch, k):
    # T depends on k only through lam = -k^2 - 1/4, so -k shares T(k), and
    # conj(k) takes conj T(k); a fresh evaluator integrates the four once,
    # and each comes out with the bits of a fresh evaluator asked for it alone
    ks = np.array([k, -k, np.conj(k), -np.conj(k)], dtype=complex)
    alone = [_bits(ScatteringData(mp_bump).ab(z)) for z in ks]
    counted = _counting_integrations(monkeypatch)
    got = _bits(ScatteringData(mp_bump).ab(ks))
    assert len(counted) == 1
    for i in range(4):
        assert np.array_equal(got[:, i], alone[i][:, 0])


def test_a_shuffled_batch_split_across_calls_gets_the_same_bits(mp_bump):
    # the store merges each call's new lam among the kept ones, and a hit
    # reads what a miss would have computed
    rng = np.random.default_rng(35)
    base = rng.uniform(0.1, 12, 60) + 1j * rng.uniform(0.02, 0.9, 60)
    ks = np.concatenate([base, -base, np.conj(base), -np.conj(base),
                         rng.uniform(-12, 12, 40) + 0j,
                         1j * rng.uniform(0.01, 0.49, 40)])
    want = _bits(ScatteringData(mp_bump).ab(ks))
    sd = ScatteringData(mp_bump)
    for part in np.array_split(rng.permutation(len(ks)), 5):
        assert np.array_equal(_bits(sd.ab(ks[part])), want[:, part])
    assert np.array_equal(_bits(sd.ab(ks)), want)


@pytest.mark.parametrize("k", [np.nan, complex(1.0, np.nan),
                               complex(0.0, np.nan)],
                         ids=["nan", "1+nanj", "nanj"])
def test_a_non_finite_k_is_refused_before_any_integration(mp_bump,
                                                         monkeypatch, k):
    sd = ScatteringData(mp_bump)
    counted = _counting_integrations(monkeypatch)
    for evaluate in (sd.ab, sd.floquet_discriminant):
        with pytest.raises(OutOfRange):
            evaluate(np.array([1.0, k]))
    assert counted == []


def test_each_k_is_independent_of_a_batch_wider_than_a_slab(mp_bump):
    # the pairwise product takes a whole slab of k at once: seeded k, the
    # ends of the slabs and of their matrix-product groups among them,
    # come out as they do alone
    per_slab = SLAB_STEPK // 192
    nk = per_slab + 2 * MATMUL_K + 1
    rng = np.random.default_rng(192)
    ks = rng.uniform(-20, 20, nk) + 1j * rng.uniform(-1, 1, nk)
    T = integrate_transfer(mp_bump.m0, L, ks, 192)
    ends = [0, MATMUL_K - 1, MATMUL_K, per_slab - 1, per_slab,
            per_slab + MATMUL_K, nk - 1]
    for i in sorted(set(ends) | set(rng.integers(0, nk, 40).tolist())):
        alone = integrate_transfer(mp_bump.m0, L, ks[i:i + 1], 192)
        assert np.array_equal(alone, T[i:i + 1])


def test_a_wide_batch_holds_one_product_slab_at_a_time(mp_bump):
    # a slab's factor values take 16 bytes a step x k, and the product's
    # arrays (half of them, a quarter, and an eighth as a temporary) less
    # than as much again; ks, lam, T and a slab's result take under 4 T
    nk, n_steps = 5000, 192
    assert nk * n_steps > 3 * SLAB_STEPK
    rng = np.random.default_rng(5000)
    ks = rng.uniform(-20, 20, nk) + 1j * rng.uniform(-1, 1, nk)
    integrate_transfer(mp_bump.m0, L, ks[:1], n_steps)     # factors kept
    tracemalloc.start()
    try:
        T = integrate_transfer(mp_bump.m0, L, ks, n_steps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 16 * SLAB_STEPK + 4 * T.nbytes


def test_det_one_where_every_step_is_alike(sd_zero):
    # m0 = 0 makes every step propagator the same matrix, so a rounding
    # made once per factor repeats N times instead of averaging out
    ks = 1j * (np.arange(256) + 0.5) / 512
    T = integrate_transfer(sd_zero.mp.m0, L, ks, 192)
    det = T[:, 0, 0] * T[:, 1, 1] - T[:, 0, 1] * T[:, 1, 0]
    assert np.max(np.abs(det - 1.0)) < 1e-14


@pytest.mark.parametrize("k", [60.0, -59.6 + 0.02j, "imag"])
def test_one_pass_matches_step_loop_at_the_guards(sd_bump, k):
    # |k| = 60 on the real axis needs 1792 steps; k = i nu with
    # nu theta just under IMAG_GUARD grows like e^{nu theta}
    if k == "imag":
        k = 0.98j * IMAG_GUARD / sd_bump.theta
    n = int(_step_count(abs(k), sd_bump.wmax, L, ODE_STEPS_MIN,
                        ODE_STEPS_PER_K))
    ks = np.array([k], dtype=complex)
    T = integrate_transfer(sd_bump.mp.m0, L, ks, n)
    assert _rel_diff(T, _rk8_loop(sd_bump.mp.m0, L, ks, n)) < 1e-13


def _structural_degrees():
    """Degree in lam of each entry of E, by the stage recursion's pattern.

    Per column: D_i = h sum_j a_ij (A_j + G_j), G_i = (D_i[1]; q_i D_i[0]),
    counted over the nonzero entries of the tableau only.
    """
    A, B, _ = TABLEAU
    none = -1
    bound = np.zeros((2, 2), dtype=int)
    for col, a_part in ((0, (none, 1)), (1, (0, none))):
        g = []                                  # (row 0, row 1) of each G_i
        for i in range(len(B)):
            js = [j for j in range(i) if A[i, j] != 0]
            if not js:
                g.append((none, none))
                continue
            d0 = max([a_part[0]] + [g[j][0] for j in js])
            d1 = max([a_part[1]] + [g[j][1] for j in js])
            g.append((d1, d0 + 1 if d0 > none else none))
        used = [g[i] for i in range(len(B)) if B[i] != 0]
        bound[0, col] = max([a_part[0]] + [d[0] for d in used])
        bound[1, col] = max([a_part[1]] + [d[1] for d in used])
    return bound


def test_step_coefficients_vanish_above_the_degree_bound(mp_bump):
    assert np.array_equal(_structural_degrees(), DEGREE_BOUND)
    C = _step_coefficients(mp_bump.m0.tobytes(), L, 320)
    assert C.shape == (DEGREE_BOUND.max() + 1, 2, 2, 320)
    for r in range(2):
        for c in range(2):
            d = DEGREE_BOUND[r, c]
            assert np.all(C[d + 1:, r, c] == 0.0)
            assert np.all(C[d, r, c] != 0.0)    # the bound is reached


def test_step_polynomial_is_one_rk8_step_on_zero_momentum():
    # w = 1 makes every step alike, so each column of C is the step of
    # length h from the identity; h |k| up to 2 makes every degree count
    n = 64
    h = L / n
    C = _step_coefficients(np.zeros(64).tobytes(), L, n)
    assert np.all(C == C[..., :1])
    ks = np.array([0.3, 5.0, 40.0, -25.0 + 9.0j, 20.0j, 64.0 + 0.5j])
    lam = -(ks**2 + 0.25)
    E = sum(np.multiply.outer(C[d, :, :, 0], lam**d) for d in range(len(C)))
    P = _rk8_loop(np.zeros(64), h, ks, 1)
    want = (P - np.eye(2)).transpose(1, 2, 0)
    scale = np.max(np.abs(P), axis=(1, 2))
    assert np.max(np.abs(E - want) / scale) < 1e-14
    T = integrate_transfer(np.zeros(64), h, ks, 1)
    assert _rel_diff(T, P) < 1e-14


def _product_degrees(D):
    """Degree of each entry of a product of two 2x2 matrices of degrees D."""
    return np.max(D[:, :, None] + D[None, :, :], axis=1)


FACTOR_DEGREES = _product_degrees(_product_degrees(DEGREE_BOUND))


def test_factor_coefficients_vanish_above_the_composed_bound(mp_bump):
    assert FACTOR_DEGREES.tolist() == [[24, 23], [24, 24]]
    F = _factor_coefficients(mp_bump.m0.tobytes(), L, 320)
    assert F.shape == (FACTOR_DEGREES.max() + 1, 2, 2, 80)
    for r in range(2):
        for c in range(2):
            d = FACTOR_DEGREES[r, c]
            assert np.all(F[d + 1:, r, c] == 0.0)
            assert np.all(F[d, r, c] != 0.0)    # the bound is reached


@pytest.mark.parametrize("name", ["bump", "zero", "asym", "hbump"])
@pytest.mark.parametrize("n_steps", [64, 192, 640, 1792])
def test_factor_coefficients_stay_normal(request, name, n_steps):
    # a third level would reach the subnormal range (at degree 48), where
    # a coefficient keeps fewer digits than its neighbours
    mp = request.getfixturevalue(f"sd_{name}").mp
    F = _factor_coefficients(mp.m0.tobytes(), mp.L, n_steps)
    assert np.min(np.abs(F[F != 0.0])) > 1e-300


@pytest.mark.parametrize("n_steps", [64, 192, 640, 1792])
def test_factor_is_the_product_of_its_four_steps(sd_bump, n_steps):
    mp = sd_bump.mp
    C = _step_coefficients(mp.m0.tobytes(), L, n_steps)
    F = _factor_coefficients(mp.m0.tobytes(), L, n_steps)
    assert F.shape[-1] * 4 == n_steps
    # k up to the largest |k| that _step_count gives this many steps
    kmax = n_steps / (ODE_STEPS_PER_K * sd_bump.wmax * L)
    rng = np.random.default_rng(n_steps)
    ks = rng.uniform(-kmax, kmax, 40) + 1j * rng.uniform(-1, 1, 40)
    lam = -(ks**2 + 0.25)

    def at_lam(X):
        return sum(np.multiply.outer(X[d], lam**d) for d in range(len(X)))

    eye = np.eye(2)[:, :, None, None]
    P = [eye + at_lam(C[..., j::4]) for j in range(4)]
    want = np.einsum("abmk,bcmk,cdmk,demk->aemk", *P[::-1])
    got = eye + at_lam(F)
    scale = np.max(np.abs(want), axis=(0, 1))
    assert np.max(np.max(np.abs(got - want), axis=(0, 1)) / scale) < 1e-14


@pytest.mark.parametrize("n_steps,n_factors", [(1, 1), (2, 1), (6, 3),
                                               (7, 7)])
def test_a_level_is_folded_only_while_the_factor_count_is_even(
        mp_bump, n_steps, n_factors):
    F = _factor_coefficients(mp_bump.m0.tobytes(), L, n_steps)
    assert F.shape[-1] == n_factors
    ks = np.array([0.7, 2.0 - 0.3j, 0.25j])
    T = integrate_transfer(mp_bump.m0, L, ks, n_steps)
    assert _rel_diff(T, _rk8_loop(mp_bump.m0, L, ks, n_steps)) < 1e-13


def test_factor_coefficients_are_memoized_read_only(mp_bump):
    ks = np.array([0.7, 3.1 + 0.2j, 0.25j, 9.0])
    ScatteringData(mp_bump).ab(ks)
    built = _factor_coefficients.cache_info().misses
    fresh = ScatteringData(mp_bump)
    memo = fresh.ab(ks)
    F = _factor_coefficients(mp_bump.m0.tobytes(), L, ODE_STEPS_MIN)
    T = integrate_transfer(mp_bump.m0, L, ks, ODE_STEPS_MIN)
    assert _factor_coefficients.cache_info().misses == built
    with pytest.raises(ValueError):
        F[0, 0, 0, 0] = 1.0
    _factor_coefficients.cache_clear()
    assert np.array_equal(
        _factor_coefficients(mp_bump.m0.tobytes(), L, ODE_STEPS_MIN), F)
    assert np.array_equal(
        integrate_transfer(mp_bump.m0, L, ks, ODE_STEPS_MIN), T)
    again = ScatteringData(mp_bump).ab(ks)
    assert all(np.array_equal(x, y) for x, y in zip(again, memo))


@pytest.mark.parametrize("steps_min,steps_per_k", [
    (ODE_STEPS_MIN, ODE_STEPS_PER_K), (64, 1.5)])
def test_step_buckets_match_the_scalar_formula(sd_bump, steps_min,
                                               steps_per_k):
    def scalar(kabs):
        n = max(steps_min, int(np.ceil(steps_per_k * kabs * sd_bump.wmax * L)))
        return ((n + 63) // 64) * 64

    rate = steps_per_k * sd_bump.wmax * L
    edges = 64 * np.arange(1, int(sd_bump.kmax_guard * rate / 64) + 1) / rate
    rng = np.random.default_rng(64)
    kabs = np.concatenate([
        rng.uniform(0, sd_bump.kmax_guard, 10_000), [0.0, sd_bump.kmax_guard],
        edges, np.nextafter(edges, 0), np.nextafter(edges, np.inf)])
    demand = steps_per_k * kabs * sd_bump.wmax * L
    assert np.any((demand % 64 == 0) & (demand > steps_min))   # on an edge
    got = _step_count(kabs, sd_bump.wmax, L, steps_min, steps_per_k)
    assert got.dtype.kind == "i"
    assert got.tolist() == [scalar(x) for x in kabs]
    assert len(set(got.tolist())) > 5


def test_stiffness_guards(sd_bump):
    with pytest.raises(StiffnessFailure):
        sd_bump.ab(2000.0)
    with pytest.raises(StiffnessFailure):
        sd_bump.ab(40.0j)


def test_an_empty_k_array_gives_empty_spectral_functions(sd_bump):
    # the guards pass an array with no k, as integrate_transfer takes one,
    # and nothing is integrated or stored
    stored = len(sd_bump._lams)
    out = sd_bump.ab([])
    assert [(v.shape, v.dtype) for v in out] == [((0,), complex)] * 4
    assert len(sd_bump._lams) == stored


def test_an_empty_k_array_gives_an_empty_discriminant(sd_bump):
    delta = sd_bump.floquet_discriminant(np.array([]))
    assert delta.shape == (0,) and delta.dtype == complex


# ---------------------------------------------------------- spectral functions


def test_zero_momentum_trivial_ab(sd_zero):
    ks = np.array([0.8, 2.5, 1.1 + 0.3j, 0.4j])
    a, b, astar, bstar = sd_zero.ab(ks)
    assert np.max(np.abs(a - 1)) < 1e-12
    assert np.max(np.abs(b)) < 1e-12
    assert np.max(np.abs(astar - 1)) < 1e-12
    assert np.max(np.abs(bstar)) < 1e-12


def test_unimodular_identity_on_hundred_nodes(sd_bump):
    re = np.linspace(-8.0, 8.0, 20)
    im = np.array([-0.9, -0.35, 0.1, 0.55, 1.0])
    ks = (re[:, None] + 1j * im[None, :]).ravel()
    ks = ks[np.abs(ks) > 0.05]
    a, b, astar, bstar = sd_bump.ab(ks)
    assert np.max(np.abs(a * astar - b * bstar - 1.0)) < 1e-9


def test_symmetry_under_negation(sd_bump):
    rng = np.random.default_rng(7)
    ks = rng.uniform(-6, 6, 12) + 1j * rng.uniform(-1, 1, 12)
    am, bm, _, _ = sd_bump.ab(-ks)
    ac, bc, _, _ = sd_bump.ab(np.conj(ks))
    assert np.max(np.abs(am - np.conj(ac))) < 1e-10
    assert np.max(np.abs(bm - np.conj(bc))) < 1e-10


def test_starred_functions_definitionally_consistent(sd_bump):
    ks = np.array([1.3 + 0.4j, -2.2 + 0.8j, 0.6 - 0.25j])
    _, _, astar, bstar = sd_bump.ab(ks)
    ac, bc, _, _ = sd_bump.ab(np.conj(ks))
    assert np.max(np.abs(astar - np.conj(ac))) < 1e-12
    assert np.max(np.abs(bstar - np.conj(bc))) < 1e-12


def test_values_at_half_i(sd_bump):
    k = np.array([0.5j])
    a, b, astar, _ = sd_bump.ab(k)
    assert abs(a[0] - np.exp((L - sd_bump.theta) / 2)) < 1e-8
    assert abs(a[0] * astar[0] - 1.0) < 1e-9
    assert abs(b[0]) < 1e-9
    # the shifted a~ = e^{ik(L - theta)} a of the jump assembly
    at = a * np.exp(1j * k * (L - sd_bump.theta))
    assert abs(at[0] - 1.0) < 1e-8


def test_a_real_on_imaginary_axis(sd_bump):
    a, _, _, _ = sd_bump.ab(1j * np.linspace(0.05, 0.45, 17))
    assert np.max(np.abs(a.imag)) < 1e-9 * np.max(np.abs(a))


def test_large_k_decay(sd_bump):
    ks = np.geomspace(8.0, 30.0, 25)
    a, b, _, _ = sd_bump.ab(ks)
    assert np.max(np.abs(ks * (a - 1.0))) < 1.0
    assert np.max(np.abs(ks * b)) < 1.0


def test_basis_singular_at_origin(sd_bump):
    with pytest.raises(BasisSingular):
        sd_bump.ab(0.0)
    with pytest.raises(BasisSingular):
        sd_bump.ab(np.array([1.0, 0.0]))


@settings(max_examples=15, deadline=None)
@given(re=st.floats(-8, 8), im=st.floats(-1, 1))
def test_identity_and_symmetry_property(sd_bump, re, im):
    k = complex(re, im)
    if abs(k) < 0.05:
        return
    a, b, astar, bstar = sd_bump.ab(np.array([k, -k]))
    assert abs(a[0] * astar[0] - b[0] * bstar[0] - 1.0) < 1e-9
    assert abs(a[1] - astar[0]) < 1e-10


# ------------------------------------------------------------- zeros of a


@pytest.mark.parametrize("name,nu,cut_hi", [
    ("bump", 0.060098883662, 0.2238), ("asym", 0.093792102786, 0.2680),
    ("hbump", None, None), ("zero", None, None)])
def test_zeros_of_a_lie_inside_the_vertical_origin_cut(request, name, nu,
                                                       cut_hi):
    # a enters the jumps only as a denominator on real-axis and circle
    # nodes, so its zeros on i(0, 1/2) need no residue condition; on the
    # fixtures the one sign change of a sits inside the origin cut
    sd = request.getfixturevalue(f"sd_{name}")
    sr = request.getfixturevalue(f"sr_{name}")
    nus = np.linspace(1e-3, 0.5 - 1e-3, 600)
    a = sd.ab(1j * nus)[0]
    assert np.max(np.abs(a.imag)) <= 1e-12 * (1 + np.max(np.abs(a)))
    flips = np.flatnonzero(np.signbit(a.real[:-1]) != np.signbit(a.real[1:]))
    if nu is None:
        assert len(flips) == 0 and len(sr.cuts.imag_cuts) == 0
        return
    (i,) = flips
    assert nus[i] < nu < nus[i + 1]
    (cut,) = sr.cuts.imag_cuts
    assert abs(cut.hi - cut_hi) < 1e-4
    assert cut.lo < 0.0 < nus[i + 1] < cut.hi


# ------------------------------------------------------------- zeros of b*


def test_bstar_zeros_identically_zero(sd_zero):
    with pytest.raises(IdenticallyZero):
        sd_zero.bstar_zeros(EPS_CIRCLE)


def test_bstar_zeros_empty_for_bump(sd_bump):
    assert sd_bump.bstar_zeros(EPS_CIRCLE) == ()


def test_bstar_zeros_asym(sd_asym):
    # asym's two zeros of b* lie off the imaginary axis, at mu and
    # -conj(mu), where the sheeted root has no poles; the search reports
    # only zeros on -i(0, 1/2)
    assert sd_asym.bstar_zeros(EPS_CIRCLE) == ()
    mu = 6.741005022412 + 0.031206534215j
    assert np.max(np.abs(sd_asym.ab(np.array([mu, -np.conj(mu)]))[3])) < 1e-9
