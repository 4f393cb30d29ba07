"""Initial data ingestion, momentum, gauge reduction, and the y-map."""

import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from perch import initial
from perch.initial import (InitialProfile, compute_momentum,
                           load_initial_data, normalize_gauge, read_csv,
                           save_csv, second_derivative, solve_helmholtz,
                           trig_eval, trig_eval_steps)
from perch.errors import (EndpointViolation, IncompatibleEndpoints,
                          OutOfRange, ParseError, PositivityViolation,
                          SignCondition, SmoothnessViolation, UnknownPreset)
from test_scattering import TABLEAU


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


def test_single_mode_differentiation_exact(monkeypatch):
    L, n = 3.0, 64
    x = np.arange(n) * (L / n)
    u0 = 0.1 * np.cos(2 * np.pi * x / L)
    p = InitialProfile(L, n, x, u0, None, "mode")
    monkeypatch.setattr(initial, "EPS_END", 10.0)  # m0(0) is nonzero here
    mp = compute_momentum(p)
    np.testing.assert_allclose(mp.m0, (1 + (2 * np.pi / L) ** 2) * u0,
                               atol=1e-12)


def test_constant_momentum_geometry(monkeypatch):
    # synthetic constant momentum, endpoint check bypassed via EPS_END
    L, n, c = 2.0, 64, 0.8
    x = np.arange(n) * (L / n)
    p = InitialProfile(L, n, x, solve_helmholtz(np.full(n, c), L),
                       np.full(n, c), "const")
    monkeypatch.setattr(initial, "EPS_END", c + 1)
    mp = compute_momentum(p)
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
    np.testing.assert_allclose(xs, mp.x, atol=1e-14)
    assert abs(mp.x_of_y(mp.theta) - mp.L) < 1e-10
    assert abs(mp.x_of_y(0.0)) < 1e-14


def test_composition_roundtrip_on_arrays():
    # off the grid, each element on its own Newton path
    p = load_initial_data("bump(0.5)", L=2.0, n=128)
    mp = compute_momentum(p)
    x = np.random.default_rng(11).uniform(0.0, mp.L, 200)
    y = mp.y_of_x(x)
    assert y.shape == x.shape and np.all(np.diff(y[np.argsort(x)]) > 0)
    assert np.max(np.abs(mp.x_of_y(y) - x)) <= 1e-14
    assert mp.x_of_y(y.reshape(20, 10)).shape == (20, 10)
    assert isinstance(mp.x_of_y(np.float64(0.7)), float)
    assert isinstance(mp.y_of_x(0.7), float)


def test_y_map_memory_bounded_and_modes_taken_once(monkeypatch):
    # the interpolant is summed a block of points at a time, so 2000
    # points cost a few MB rather than 2000 rows of 11 x 129 phase
    # factors (91 MB); m0's modes are taken once per profile, not once
    # per Newton step
    mp = compute_momentum(load_initial_data("bump(0.5)", L=2.0, n=128))
    calls = []

    def counted(samples):
        calls.append(1)
        return fourier_modes(samples)

    fourier_modes = initial._fourier_modes
    monkeypatch.setattr(initial, "_fourier_modes", counted)
    x = np.linspace(0.0, mp.L, 2000)
    for f, arg in ((mp.y_of_x, x), (mp.x_of_y, mp.theta * x / mp.L)):
        tracemalloc.start()
        f(arg)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak < 10e6, f.__name__
    assert len(calls) == 1


def test_y_map_pinned_and_gauss_rule_built_once(monkeypatch):
    # the y-map of bump(0.5) (L = 2, n = 128) to the last bit, as the
    # 10-point Gauss-Legendre rule gives it; the rule is a module constant,
    # so building a profile must not call leggauss again, and it reaches
    # the interpolant of m0 only through trig_eval_steps
    def no_leggauss(order):
        raise AssertionError("leggauss called while building a profile")

    calls = []

    def counted(*args):
        calls.append(args)
        return trig_eval(*args)

    monkeypatch.setattr(np.polynomial.legendre, "leggauss", no_leggauss)
    monkeypatch.setattr(initial, "trig_eval", counted)
    mp = compute_momentum(load_initial_data("bump(0.5)", L=2.0, n=128))
    assert calls == []
    assert mp.theta == float.fromhex("0x1.1d7e8c7b44d15p+1")
    pinned = {1: "0x1.00034a1116304p-6", 37: "0x1.38798413d0e07p-1",
              64: "0x1.1d7e8c7b44d15p+0", 101: "0x1.cb77df15a9dbcp+0"}
    for j, h in pinned.items():
        assert mp.y[j] == float.fromhex(h), j
    assert mp.x_of_y(0.7) == float.fromhex("0x1.4fae6514cc1f5p-1")
    assert mp.x_of_y(1.9) == float.fromhex("0x1.ad148d6584dbbp+0")


RK8_STAGES = TABLEAU[2]                # the integrator's stage points
GL_CELL = 0.5 * (1.0 + np.polynomial.legendre.leggauss(10)[0])
QUARTERS = np.array([0.0, 0.25, 0.5, 0.75])


@pytest.mark.parametrize("n, n_steps, offsets", [
    (128, 192, RK8_STAGES), (63, 192, RK8_STAGES),
    (128, 128, GL_CELL), (63, 63, GL_CELL),
    (128, 128, QUARTERS), (63, 63, QUARTERS)],
    ids=["128", "63", "gl-128", "gl-63", "quarters-128", "quarters-63"])
def test_trig_eval_steps_matches_trig_eval(n, n_steps, offsets):
    # at the RK8 stage points, and at compute_momentum's Gauss-Legendre
    # nodes and refined grid (one step a cell); an odd grid has no
    # Nyquist mode to split
    L = 2.0
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


def test_positivity_violation_between_samples():
    # m0 + 1 dips to -5e-4 at x = 1, which falls between the samples of
    # an odd grid but on the refined one
    p = load_initial_data("bump(-1.0005)", L=2.0, n=63)
    assert np.min(p.m0 + 1.0) > 1e-4
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


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_samples_refused_at_load(tmp_path, bad):
    # refused at load, before numpy or the y-map meets them: any warning
    # on the way fails the test
    L, n = 2.0, 32
    x = np.arange(n) * (L / n)
    u0 = np.zeros(n)
    u0[7] = bad
    m0 = 0.3 * np.sin(np.pi * x / L) ** 2
    m0[5] = bad
    path = tmp_path / "bad.csv"
    rows = [f"{xi:.17g},{mi:.17g}" for xi, mi in zip(x, m0)]
    path.write_text("\n".join(["# kind=momentum L=2"] + rows) + "\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParseError, match="non-finite"):
            InitialProfile(L, n, x, u0, None, "bad").validate()
        with pytest.raises(ParseError, match="non-finite"):
            read_csv(str(path))
        with pytest.raises(ParseError, match="bad bump amplitude"):
            load_initial_data(f"bump({bad})", L=L, n=n)


def test_out_of_range():
    mp = compute_momentum(load_initial_data("zero", L=1.0, n=32))
    with pytest.raises(OutOfRange):
        mp.x_of_y(1.5)
    with pytest.raises(OutOfRange):
        mp.y_of_x(-0.2)
    with pytest.raises(OutOfRange):
        mp.x_of_y(np.array([0.2, 0.5, 1.5, 0.9]))
    with pytest.raises(OutOfRange):
        mp.y_of_x(np.array([[0.1, 0.3], [np.nan, 0.2]]))


def test_csv_roundtrip_bit_exact(tmp_path):
    p = load_initial_data("bump(0.37)", L=2.0, n=64)
    path = tmp_path / "ic.csv"
    save_csv(p, str(path))
    q = read_csv(str(path))
    assert q.L == p.L and q.n == p.n
    assert np.array_equal(q.m0, p.m0)
    np.testing.assert_allclose(q.u0, p.u0, atol=1e-15)
    # a .csv path given to the preset entry is read the same way
    assert np.array_equal(load_initial_data(str(path)).m0, q.m0)


def test_csv_roundtrip_in_exponent_notation(tmp_path):
    # at L = 0.001 the grid is written as 1.5625e-05, ...; such a row is
    # data, not a header, and the round trip stays bit-exact
    p = load_initial_data("bump(0.3)", L=0.001, n=64)
    path = tmp_path / "ic.csv"
    save_csv(p, str(path))
    assert "\n1.5625e-05," in path.read_text()
    q = read_csv(str(path))
    assert q.L == p.L and q.n == p.n
    assert np.array_equal(q.x, p.x) and np.array_equal(q.m0, p.m0)


@pytest.mark.parametrize("x1", ["nan", "inf", "-inf"])
def test_csv_non_finite_x_is_refused(tmp_path, x1):
    # a first field that parses as a float makes a data row, and a
    # non-finite x is refused rather than skipped or gridded
    rows = [f"{j / 16:.17g},0" for j in range(16)]
    rows[5] = f"{x1},0"
    path = tmp_path / "ic.csv"
    path.write_text("\n".join(["# L=1", "x,u0"] + rows) + "\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParseError, match="x holds 1 non-finite"):
            read_csv(str(path))


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


def test_csv_refusals(tmp_path):
    with pytest.raises(ParseError, match="cannot read"):
        read_csv(str(tmp_path / "missing.csv"))
    path = tmp_path / "ic.csv"
    path.write_text("# L=2\nx,u0\n0,0.5\n")
    with pytest.raises(ParseError, match="no data rows"):
        read_csv(str(path))
    path.write_text("# L=2\n0,0.5\n1,0.25\n2,0.75\n")
    with pytest.raises(ParseError, match="closing row at x = L disagrees"):
        read_csv(str(path))


def period_csv(path, comment, kind):
    """A 32-row CSV of bump(0.3) data on [0, 2), velocity or momentum."""
    p = load_initial_data("bump(0.3)", L=2.0, n=32)
    col = p.m0 if kind == "m0" else p.u0
    rows = [comment, f"x,{kind}"]
    rows += [f"{xi:.17g},{vi:.17g}" for xi, vi in zip(p.x, col)]
    path.write_text("\n".join(rows) + "\n")
    return str(path)


@pytest.mark.parametrize("kind", ["u0", "m0"])
@pytest.mark.parametrize("comment, match", [
    ("# L=e5", "bad period 'L=e5'"), ("# period L=-", "bad period 'L=-'"),
    *[(c, "not finite and positive")
      for c in ("# L=0", "# L=-2", "#L=nan", "# L=inf")],
])
def test_csv_period_must_be_a_positive_number(tmp_path, comment, match, kind):
    # refused as ParseError before the Helmholtz solve; any warning on the
    # way fails the test
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParseError, match=match):
            read_csv(period_csv(tmp_path / "p.csv", comment, kind))


def test_csv_period_is_read_only_as_its_own_token(tmp_path):
    # COL=7 and L= inside another word leave L to the grid spacing
    for comment in ("# COL=7", "# data: XL=3 kind=momentum"):
        assert read_csv(period_csv(tmp_path / "p.csv", comment, "m0")).L == 2.0
    assert read_csv(period_csv(tmp_path / "p.csv", "# COL=7 L=2", "u0")).L == 2.0


@pytest.mark.parametrize("L", [0.0, -2.0, np.nan, np.inf])
def test_period_must_be_finite_and_positive(L):
    x = np.arange(32) * 0.0625
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for source in ("bump(0.5)", "zero"):
            with pytest.raises(ParseError, match="not finite and positive"):
                load_initial_data(source, L=L, n=32)
        with pytest.raises(ParseError, match="not finite and positive"):
            InitialProfile(L, 32, x, np.zeros(32), None, "zero").validate()
        with pytest.raises(ParseError, match="not finite and positive"):
            normalize_gauge(np.zeros(32), 1.0, L)


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
