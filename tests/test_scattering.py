"""Tests for the direct-scattering layer: transfer matrices, spectral
functions, the k -> 0 expansion, the discrete spectrum, and zero searches.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from perch.branch import EPS_CIRCLE
from perch.config import ContourConfig
from perch.errors import (BasisSingular, IdenticallyZero, NonGenericCase,
                          StiffnessFailure)
from perch.initial import trig_eval
from perch.scattering import (SLAB_STEPK, ScatteringData, integrate_transfer,
                              rk8_tableau)

L = 2.0


def _rk8_loop(m0, L, ks, n_steps):
    """Reference: the RK8 steps taken one after another on Y itself."""
    A, B, C = rk8_tableau()
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
    A, B, C = rk8_tableau()
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
    # 100 k at 1024 steps: 12 full slabs of 8 k and a last one of 4
    per_slab = SLAB_STEPK // 1024
    assert 1 < per_slab < 100 and 100 % per_slab
    rng = np.random.default_rng(1024)
    ks = rng.uniform(-20, 20, 100) + 1j * rng.uniform(-1, 1, 100)
    T = integrate_transfer(mp_bump.m0, L, ks, 1024)
    assert _rel_diff(T, _rk8_loop(mp_bump.m0, L, ks, 1024)) < 1e-13


def test_det_one_where_every_step_is_alike(sd_zero):
    # m0 = 0 makes every step propagator the same matrix, so a rounding
    # made once per factor repeats N times instead of averaging out
    ks = 1j * (np.arange(256) + 0.5) / 512
    T = integrate_transfer(sd_zero.mp.m0, L, ks, 192)
    det = T[:, 0, 0] * T[:, 1, 1] - T[:, 0, 1] * T[:, 1, 0]
    assert np.max(np.abs(det - 1.0)) < 1e-14


def test_stiffness_guards(sd_bump):
    with pytest.raises(StiffnessFailure):
        sd_bump.ab(2000.0)
    with pytest.raises(StiffnessFailure):
        sd_bump.ab(40.0j)


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


# ------------------------------------------------------------ k -> 0 expansion


def test_expand_at_zero_bump(sd_bump):
    ze = sd_bump.expand_at_zero()
    assert abs(ze.rho - ze.rho_from_b) < 1e-6
    assert ze.fit_residual < 1e-6 * abs(ze.rho) / 1e-3
    assert abs(ze.rho - (-0.060899021134)) < 1e-8
    assert abs(ze.a0 - 1.013023867233) < 1e-8
    assert abs(ze.b0 - (-0.135830666421)) < 1e-8


def test_expand_at_zero_nongeneric(sd_zero):
    with pytest.raises(NonGenericCase):
        sd_zero.expand_at_zero()


# ------------------------------------------------------------ discrete spectrum


def test_discrete_spectrum_empty_for_zero_momentum(sd_zero):
    assert sd_zero.discrete_spectrum() == []


def test_discrete_spectrum_bump(sd_bump):
    recs = sd_bump.discrete_spectrum()
    assert len(recs) == 1
    r = recs[0]
    assert abs(r.nu - 0.060098883662) < 1e-9
    assert abs(sd_bump.ab(np.array([1j * r.nu]))[0][0]) < 1e-9
    assert abs(r.b_j.imag) < 1e-10
    assert abs(r.c_j.real) < 1e-6 * abs(r.c_j)
    assert abs(r.c_j - 0.06780179293598665j) < 1e-9
    # unimodularity at a zero of a forces b* = -1/b there
    bstar = sd_bump.ab(np.array([1j * r.nu]))[3][0]
    assert abs(bstar + 1.0 / r.b_j) < 1e-8


def test_discrete_spectrum_asym(sd_asym):
    recs = sd_asym.discrete_spectrum()
    assert [round(r.nu, 12) for r in recs] == [0.093792102786]
    assert abs(recs[0].c_j.real) < 1e-6 * abs(recs[0].c_j)


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
    assert sd_asym.bstar_zeros(EPS_CIRCLE,
                               ContourConfig(k_window_factor=5.5)) == ()
    mu = 6.741005022412 + 0.031206534215j
    assert np.max(np.abs(sd_asym.ab(np.array([mu, -np.conj(mu)]))[3])) < 1e-9
