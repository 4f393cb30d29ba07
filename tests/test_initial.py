"""Initial data ingestion, momentum, gauge reduction, and the y-map."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from perch.initial import (GaugeRecord, InitialProfile, compute_momentum,
                           load_initial_data, normalize_gauge, read_csv,
                           save_csv, second_derivative, solve_helmholtz,
                           trig_eval, trig_eval_steps)
from perch.errors import (EndpointViolation, IncompatibleEndpoints,
                          OutOfRange, ParseError, PositivityViolation,
                          SignCondition, SmoothnessViolation, UnknownPreset)
from perch.scattering import rk8_tableau


def test_zero_preset_is_flat():
    p = load_initial_data("zero", L=1.0, n=64)
    assert np.all(p.u0 == 0) and p.n == 64 and p.L == 1.0
    mp = compute_momentum(p)
    assert np.all(mp.m0 == 0)
    assert abs(mp.theta - 1.0) < 1e-14
    np.testing.assert_allclose(mp.y[:-1], p.x, atol=1e-14)


def test_bump_preset_momentum_shape():
    p = load_initial_data("bump(0.5)", L=2.0, n=128)
    mp = compute_momentum(p)
    assert abs(mp.m0[0]) < 1e-12
    assert abs(np.max(mp.m0) - 0.5) < 1e-12
    # u0 solves u - u'' = m0: recompute the momentum spectrally
    np.testing.assert_allclose(p.u0 - second_derivative(p.u0, 2.0), mp.m0,
                               atol=1e-12)


def test_single_mode_differentiation_exact():
    L, n = 3.0, 64
    x = np.arange(n) * (L / n)
    u0 = 0.1 * np.cos(2 * np.pi * x / L)
    p = InitialProfile(L, n, x, u0, None, "mode")
    mp = compute_momentum(p, eps_end=10.0)  # endpoint value is nonzero here
    np.testing.assert_allclose(mp.m0, (1 + (2 * np.pi / L) ** 2) * u0,
                               atol=1e-12)


def test_constant_momentum_geometry():
    # synthetic constant momentum, endpoint check bypassed via eps_end
    L, n, c = 2.0, 64, 0.8
    x = np.arange(n) * (L / n)
    p = InitialProfile(L, n, x, solve_helmholtz(np.full(n, c), L),
                       np.full(n, c), "const")
    mp = compute_momentum(p, eps_end=c + 1)
    assert abs(mp.theta - L * np.sqrt(1 + c)) < 1e-12
    np.testing.assert_allclose(mp.y, np.sqrt(1 + c) * np.concatenate([x, [L]]),
                               atol=1e-12)
    ys = np.linspace(0, mp.theta, 7)
    np.testing.assert_allclose(mp.x_of_y(ys), ys / np.sqrt(1 + c), atol=1e-12)


def test_theta_against_adaptive_quadrature():
    p = load_initial_data("bump(0.5)", L=2.0, n=128)
    mp = compute_momentum(p)
    f = lambda s: np.sqrt(trig_eval(mp.m0, mp.L, s) + 1.0)
    ref, err = quad(f, 0.0, 2.0, epsabs=1e-13, epsrel=1e-13, limit=200)
    assert err < 1e-11
    assert abs(mp.theta - ref) < 1e-10


def test_theta_bounds_and_monotonicity():
    p = load_initial_data("bump(1.7)", L=2.0, n=128)
    mp = compute_momentum(p)
    w = np.sqrt(mp.m0 + 1.0)
    assert mp.L * np.min(w) <= mp.theta <= mp.L * np.max(w)
    assert np.all(np.diff(mp.y) > 0)


def test_composition_roundtrip_on_grid():
    p = load_initial_data("bump(0.5)", L=2.0, n=128)
    mp = compute_momentum(p)
    xs = mp.x_of_y(mp.y[:-1])
    np.testing.assert_allclose(xs, mp.x, atol=1e-8)
    assert abs(mp.x_of_y(mp.theta) - mp.L) < 1e-10
    assert abs(mp.x_of_y(0.0)) < 1e-14


def test_y_map_pinned_and_gauss_rule_built_once(monkeypatch):
    # the y-map of bump(0.5) (L = 2, n = 128) to the last bit, as the
    # 10-point Gauss-Legendre rule gives it; the rule is a module constant,
    # so building a profile must not call leggauss again
    def no_leggauss(order):
        raise AssertionError("leggauss called while building a profile")

    monkeypatch.setattr(np.polynomial.legendre, "leggauss", no_leggauss)
    mp = compute_momentum(load_initial_data("bump(0.5)", L=2.0, n=128))
    assert mp.theta == float.fromhex("0x1.1d7e8c7b44d14p+1")
    pinned = {1: "0x1.00034a1116304p-6", 37: "0x1.38798413d0e07p-1",
              64: "0x1.1d7e8c7b44d15p+0", 101: "0x1.cb77df15a9dbbp+0"}
    for j, h in pinned.items():
        assert mp.y[j] == float.fromhex(h), j
    assert mp.x_of_y(0.7) == float.fromhex("0x1.4fae6514cc1f5p-1")
    assert mp.x_of_y(1.9) == float.fromhex("0x1.ad148d6584dbcp+0")


@pytest.mark.parametrize("n", [128, 63])
def test_trig_eval_steps_matches_trig_eval(n):
    # at the RK8 stage points; an odd grid has no Nyquist mode to split
    L, n_steps = 2.0, 192
    offsets = rk8_tableau()[2]
    x = np.arange(n) * (L / n)
    f = np.sin(np.pi * x / L) ** 2 * (0.8 + 0.79 * np.sin(2 * np.pi * x / L))
    pts = (np.arange(n_steps)[:, None] + offsets[None, :]) * (L / n_steps)
    want = trig_eval(f, L, pts.ravel()).reshape(n_steps, len(offsets))
    got = trig_eval_steps(f, n_steps, offsets)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) < 1e-14


def test_positivity_violation():
    p = load_initial_data("bump(-1.5)", L=2.0, n=64)
    with pytest.raises(PositivityViolation):
        compute_momentum(p)


def test_endpoint_violation():
    L, n = 2.0, 64
    x = np.arange(n) * (L / n)
    m0 = 0.2 + 0.1 * np.sin(np.pi * x / L) ** 2
    p = InitialProfile(L, n, x, solve_helmholtz(m0, L), m0, "offset")
    with pytest.raises(EndpointViolation):
        compute_momentum(p)


def test_smoothness_guard_rejects_noise():
    rng = np.random.default_rng(7)
    L, n = 2.0, 64
    x = np.arange(n) * (L / n)
    p = InitialProfile(L, n, x, rng.standard_normal(n), None, "noise")
    with pytest.raises(SmoothnessViolation):
        compute_momentum(p)


def test_unknown_preset_and_bad_amplitude():
    with pytest.raises(UnknownPreset):
        load_initial_data("wiggle", L=1.0, n=32)
    with pytest.raises(ParseError):
        load_initial_data("bump(abc)", L=1.0, n=32)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_samples_refused_at_load(tmp_path, bad):
    # refused at load, before the y-map meets it
    L, n = 2.0, 32
    x = np.arange(n) * (L / n)
    u0 = np.zeros(n)
    u0[7] = bad
    with pytest.raises(ParseError, match="non-finite"):
        InitialProfile(L, n, x, u0, None, "bad").validate()
    m0 = 0.3 * np.sin(np.pi * x / L) ** 2
    m0[5] = bad
    path = tmp_path / "bad.csv"
    rows = [f"{xi:.17g},{mi:.17g}" for xi, mi in zip(x, m0)]
    path.write_text("\n".join(["# kind=momentum L=2"] + rows) + "\n")
    with pytest.raises(ParseError, match="non-finite"):
        read_csv(str(path))


def test_out_of_range():
    mp = compute_momentum(load_initial_data("zero", L=1.0, n=32))
    with pytest.raises(OutOfRange):
        mp.x_of_y(1.5)
    with pytest.raises(OutOfRange):
        mp.y_of_x(-0.2)


def test_csv_roundtrip_bit_exact(tmp_path):
    p = load_initial_data("bump(0.37)", L=2.0, n=64)
    path = tmp_path / "ic.csv"
    save_csv(p, str(path))
    q = read_csv(str(path))
    assert q.L == p.L and q.n == p.n
    assert np.array_equal(q.m0, p.m0)
    np.testing.assert_allclose(q.u0, p.u0, atol=1e-15)


def test_csv_velocity_kind_and_closing_row(tmp_path):
    L, n = 2.0, 32
    x = np.arange(n) * (L / n)
    u0 = 0.1 * np.sin(2 * np.pi * x / L)
    path = tmp_path / "vel.csv"
    rows = ["# L=2", "x,u0"]
    rows += [f"{xi:.17g},{ui:.17g}" for xi, ui in zip(x, u0)]
    rows += [f"{L:.17g},{u0[0]:.17g}"]      # closing row, should be dropped
    path.write_text("\n".join(rows) + "\n")
    q = read_csv(str(path))
    assert q.n == n and q.m0 is None
    assert np.array_equal(q.u0, u0)


def test_csv_rejects_nonuniform_and_bad_rows(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("0,0\n0.1,0\n0.3,0\n")
    with pytest.raises(ParseError):
        read_csv(str(path))
    path.write_text("0,0,9\n1,0,9\n")
    with pytest.raises(ParseError):
        read_csv(str(path))


def test_gauge_reduction_and_roundtrip():
    L, n, c = 2.0, 64, 0.5
    x = np.arange(n) * (L / n)
    m_raw = 2.0 + c * np.sin(np.pi * x / L) ** 2
    u_raw = solve_helmholtz(m_raw, L)
    prof, rec = normalize_gauge(u_raw, 0.0, L)
    assert rec.A == pytest.approx(2.0, abs=1e-12)
    assert abs(prof.m0[0]) < 1e-12
    assert np.min(prof.m0 + 1) > 0
    np.testing.assert_allclose(rec.invert(prof.u0), u_raw, atol=1e-12)
    # identity case: A = 0, omega = 1
    p0 = load_initial_data("bump(0.3)", L=L, n=n)
    prof2, rec2 = normalize_gauge(p0.u0, 1.0, L)
    np.testing.assert_allclose(prof2.u0, p0.u0, atol=1e-13)
    assert rec2.scale == pytest.approx(1.0)


def test_gauge_constant_profile():
    L, n = 1.0, 32
    u_raw = np.full(n, 3.0)
    prof, rec = normalize_gauge(u_raw, 1.0, L)
    assert np.all(prof.u0 == 0)
    assert rec.A == pytest.approx(3.0)


def test_gauge_sign_condition():
    L, n = 2.0, 64
    x = np.arange(n) * (L / n)
    m_raw = np.cos(2 * np.pi * x / L)      # straddles zero with omega = 0
    with pytest.raises(SignCondition):
        normalize_gauge(solve_helmholtz(m_raw, L), 0.0, L)


def test_gauge_incompatible_endpoints():
    L, n = 2.0, 32
    x = np.concatenate([np.arange(n) * (L / n), [L]])
    u = np.concatenate([np.zeros(n), [0.5]])
    with pytest.raises(IncompatibleEndpoints):
        normalize_gauge(u, 1.0, L, x=x)


@settings(max_examples=15, deadline=None)
@given(st.floats(min_value=-0.9, max_value=3.0))
def test_bump_family_geometry(c):
    mp = compute_momentum(load_initial_data(f"bump({c})", L=2.0, n=64))
    w = np.sqrt(mp.m0 + 1.0)
    assert mp.L * np.min(w) - 1e-12 <= mp.theta <= mp.L * np.max(w) + 1e-12
    assert np.all(np.diff(mp.y) > 0)
