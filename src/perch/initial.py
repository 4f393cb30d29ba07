"""Periodic initial data and its momentum geometry.

A profile u0 on the circle [0, L) determines the momentum

    m0 = u0 - u0'',

computed by trigonometric differentiation.  The data are admissible when
m0 + 1 > 0 everywhere and m0 vanishes at x = 0 (hence, by periodicity, at
x = L).  Admissible data carry a change of spatial variable

    y(x) = int_0^x sqrt(m0(s) + 1) ds,    theta = y(L),

which is strictly increasing; theta sets the phases of the spectral
functions, and MomentumProfile evaluates y(x) and its inverse x(y) on
arrays.  Raw data with a nonzero endpoint momentum A and dispersion
omega are first reduced to this normalized form by the affine gauge
u -> (u - A)/(A + omega).
"""

import re
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (EndpointViolation, IncompatibleEndpoints, OutOfRange,
                     ParseError, PositivityViolation, SignCondition,
                     SmoothnessViolation, UnknownPreset)

EPS_END = 1e-10       # endpoint momentum budget
TAIL_BUDGET = 1e-8    # spectral-tail share of total energy
PHASE_BLOCK = 1 << 16  # phase factors (points x modes) per trig_eval block


# ---------------------------------------------------------------- spectral

def _fourier_modes(samples):
    """Coefficients c and integer wavenumbers k of the interpolant.

    f(x) = Re sum_j c_j exp(2 pi i k_j x / L).  The unpaired highest mode
    of an even-length grid is split between +n/2 and -n/2 so the
    interpolant is real and grid-symmetric.
    """
    f = np.asarray(samples, dtype=float)
    n = len(f)
    c = np.fft.fft(f) / n
    k = np.fft.fftfreq(n, d=1.0 / n)
    if n % 2 == 0:
        c = np.append(c, 0.5 * c[n // 2])
        c[n // 2] *= 0.5
        k = np.append(k, -k[n // 2])
    return c, k.astype(np.int64)


def trig_eval(samples, L, x):
    """Evaluate the trigonometric interpolant of periodic samples at x."""
    return _eval_modes(_fourier_modes(samples), L, x)


def _eval_modes(modes, L, x):
    """The interpolant with modes (c, k) at x, PHASE_BLOCK phase factors
    at a time, so memory does not grow with the number of points."""
    c, k = modes
    x = np.asarray(x, dtype=float)
    flat = x.ravel()
    out = np.empty(flat.shape)
    step = max(1, PHASE_BLOCK // len(k))
    for i in range(0, len(flat), step):
        ph = np.exp((2j * np.pi / L) * np.multiply.outer(flat[i:i + step], k))
        out[i:i + step] = (ph @ c).real
    return out.reshape(x.shape)


def trig_eval_steps(samples, n_steps, offsets):
    """The interpolant at the points (n + offsets[i]) / n_steps of a period.

    Returns shape (n_steps, len(offsets)), row n for step n < n_steps, and
    equals trig_eval at x = (n + offsets[i]) L / n_steps for any period L.
    The phase factorises as exp(2 pi i k n / N) exp(2 pi i k offsets[i] / N):
    the coefficients times the per-offset factor are folded onto k mod N,
    and one inverse FFT of length N sums the per-step factor.  Its callers
    are scattering._step_coefficients, at the RK8 stages, and
    compute_momentum, at the refined positivity grid and the
    Gauss-Legendre nodes of every cell.
    """
    c, k = _fourier_modes(samples)
    shifted = c[:, None] * np.exp((2j * np.pi / n_steps) * np.multiply.outer(
        k, np.asarray(offsets, dtype=float)))
    folded = np.zeros((n_steps, shifted.shape[1]), dtype=complex)
    np.add.at(folded, np.mod(k, n_steps), shifted)
    return (np.fft.ifft(folded, axis=0) * n_steps).real


def second_derivative(samples, L):
    """u'' of periodic samples by Fourier multiplier."""
    n = len(samples)
    k = np.fft.fftfreq(n, d=1.0 / n)
    fac = -((2.0 * np.pi / L) * k) ** 2
    return np.fft.ifft(fac * np.fft.fft(samples)).real


def solve_helmholtz(m_samples, L):
    """Solve u - u'' = m on the periodic grid (Fourier diagonalization)."""
    n = len(m_samples)
    k = np.fft.fftfreq(n, d=1.0 / n)
    denom = 1.0 + ((2.0 * np.pi / L) * k) ** 2
    return np.fft.ifft(np.fft.fft(m_samples) / denom).real


def _tail_energy_fraction(samples):
    c = np.fft.fft(np.asarray(samples, dtype=float))
    n = len(c)
    k = np.abs(np.fft.fftfreq(n, d=1.0 / n))
    total = float(np.sum(np.abs(c[k > 0]) ** 2))
    if total < 1e-300:
        return 0.0
    tail = float(np.sum(np.abs(c[k >= 0.45 * n]) ** 2))
    return tail / total


# ---------------------------------------------------------------- profiles

def _refuse_non_finite(name, v):
    if not np.all(np.isfinite(v)):
        raise ParseError(f"{name} holds {np.sum(~np.isfinite(v))} "
                         "non-finite samples (NaN or inf)")


def _refuse_bad_period(L):
    if not (np.isfinite(L) and L > 0):
        raise ParseError(f"period L = {L} is not finite and positive")


@dataclass(frozen=True)
class InitialProfile:
    """Sampled periodic initial data on x_j = j L / n, j = 0..n-1."""
    L: float
    n: int
    x: np.ndarray
    u0: np.ndarray
    m0: np.ndarray | None   # set when the source specified momentum directly
    source: str

    def validate(self):
        _refuse_bad_period(self.L)
        if self.n < 16:
            raise ParseError(f"need n >= 16 samples, got {self.n}")
        for name, v in (("u0", self.u0), ("m0", self.m0)):
            if v is not None:
                _refuse_non_finite(name, v)
        frac = _tail_energy_fraction(self.u0 if self.m0 is None else self.m0)
        if frac > TAIL_BUDGET:
            raise SmoothnessViolation(
                f"spectral tail carries {frac:.2e} of the energy "
                f"(budget {TAIL_BUDGET:.0e}); refine the grid")
        return self


@dataclass(frozen=True)
class MomentumProfile:
    """Momentum and the y-coordinate geometry."""
    L: float
    n: int
    x: np.ndarray        # shape (n,)
    u0: np.ndarray
    m0: np.ndarray
    theta: float
    y: np.ndarray        # y(x_j) for j = 0..n, with y[n] = theta

    def y_of_x(self, x):
        """y at each x in [0, L]; a 0-d x gives a float."""
        x = np.asarray(x, dtype=float)
        _check_range("x", x, -1e-12, self.L * (1 + 1e-12), self.L)
        y = self._y_and_weight(np.clip(x, 0.0, self.L))[0]
        return float(y) if y.ndim == 0 else y

    def x_of_y(self, y):
        """x at each y in [0, theta] by Newton's method, each element
        stopping once its step is below 1e-14 max(1, L), or after 60."""
        y = np.asarray(y, dtype=float)
        _check_range("y", y, -1e-10, self.theta * (1 + 1e-10), self.theta)
        scalar = y.ndim == 0
        y = np.clip(np.atleast_1d(y), 0.0, self.theta)
        x = np.interp(y, self.y, np.append(self.x, self.L))
        active = np.ones(x.shape, dtype=bool)
        for _ in range(60):
            if not active.any():
                break
            yx, wx = self._y_and_weight(x[active])
            dx = (y[active] - yx) / wx
            x[active] = np.clip(x[active] + dx, 0.0, self.L)
            active[active] = np.abs(dx) >= 1e-14 * max(1.0, self.L)
        return float(x[0]) if scalar else x

    @cached_property
    def _m0_modes(self):
        """m0's Fourier modes, taken once per profile."""
        return _fourier_modes(self.m0)

    def _y_and_weight(self, x):
        """y(x), the cell's start plus Gauss-Legendre over the rest of the
        cell, and sqrt(m0(x) + 1) for x in [0, L], from one evaluation of
        the interpolant on m0's modes."""
        h = self.L / self.n
        j = np.minimum((x / h).astype(np.int64), self.n - 1)
        a = j * h
        mid, half = 0.5 * (a + x), 0.5 * (x - a)
        pts = np.concatenate([mid[..., None] + half[..., None] * _GL_NODES,
                              x[..., None]], axis=-1)
        w = np.sqrt(_eval_modes(self._m0_modes, self.L, pts) + 1.0)
        return self.y[j] + half * (w[..., :-1] @ _GL_WEIGHTS), w[..., -1]


def _check_range(name, v, lo, hi, top):
    bad = ~((v >= lo) & (v <= hi))
    if np.any(bad):
        raise OutOfRange(f"{name} = {v[bad].flat[0]} outside [0, {top}]")


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(10)


# ---------------------------------------------------------------- loading

_BUMP_RE = re.compile(r"^bump\(([^)]+)\)$")


def load_initial_data(source, L=2.0, n=256):
    """Build an InitialProfile from a preset name or a CSV path.

    Presets:
      "zero"      u0 = 0.
      "bump(c)"   momentum m0(x) = c sin^2(pi x / L); u0 recovered by the
                  periodic Helmholtz solve u - u'' = m0.
    Anything containing a path separator or ending in .csv is read as a
    file; see read_csv for the accepted layout.
    """
    if not isinstance(source, str):
        raise UnknownPreset(f"source descriptor must be a string, got {source!r}")
    if source.endswith(".csv") or "/" in source:
        return read_csv(source)
    _refuse_bad_period(L)      # before the grid and the Helmholtz solve
    if source == "zero":
        x = np.arange(n) * (L / n)
        z = np.zeros(n)
        return InitialProfile(L, n, x, z, z.copy(), "zero").validate()
    m = _BUMP_RE.match(source)
    if m:
        try:
            c = float(m.group(1))
        except ValueError:
            c = np.nan
        if not np.isfinite(c):
            raise ParseError(f"bad bump amplitude in {source!r}")
        x = np.arange(n) * (L / n)
        m0 = c * np.sin(np.pi * x / L) ** 2
        u0 = solve_helmholtz(m0, L)
        return InitialProfile(L, n, x, u0, m0, source).validate()
    raise UnknownPreset(f"unknown preset {source!r}")


def read_csv(path):
    """Read a two-column CSV of x,u0 (or x,m0 when flagged kind=momentum).

    Comment lines start with '#'; a row whose first field does not parse
    as a float is a header.  The marker 'kind=momentum' in a comment or
    an 'x,m0' header row switches the second column to momentum.  A
    comment token 'L=<value>' (whitespace-separated) pins the period;
    otherwise L is inferred from the uniform grid spacing.  A duplicated
    final row at x = L is dropped after checking it matches the first.
    """
    kind = "velocity"
    L = None
    xs, vs = [], []
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    for line in text.splitlines():
        s = line.strip()
        if not s:
            continue
        if s.startswith("#"):
            if "kind=momentum" in s:
                kind = "momentum"
            for tok in s.lstrip("#").split():
                if tok.startswith("L="):
                    try:
                        L = float(tok[2:])
                    except ValueError as exc:
                        raise ParseError(f"bad period {tok!r}") from exc
            continue
        parts = s.split(",")
        try:
            xj = float(parts[0])
        except ValueError:          # a header: its first field is no number
            if "m0" in s:
                kind = "momentum"
            continue
        if len(parts) != 2:
            raise ParseError(f"expected two comma-separated columns, got {s!r}")
        try:
            vs.append(float(parts[1]))
        except ValueError as exc:
            raise ParseError(f"non-numeric row {s!r}") from exc
        xs.append(xj)
    if len(xs) < 2:
        raise ParseError(f"no data rows in {path}")
    x = np.asarray(xs)
    v = np.asarray(vs)
    _refuse_non_finite("x", x)      # a NaN would pass the grid check below
    dx = np.diff(x)
    if np.any(dx <= 0) or np.max(np.abs(dx - dx[0])) > 1e-9 * dx[0] + 1e-14:
        raise ParseError("x column must be a uniform increasing grid")
    if L is not None and abs((x[-1] - x[0]) - L) < 0.5 * dx[0]:
        # explicit closing row at x = L
        if abs(v[-1] - v[0]) > 1e-12 * max(1.0, np.max(np.abs(v))):
            raise ParseError("closing row at x = L disagrees with x = 0 row")
        x, v = x[:-1], v[:-1]
    if L is None:
        L = (x[-1] - x[0]) + dx[0]
    _refuse_bad_period(L)      # before the Helmholtz solve
    n = len(x)
    x0 = x - x[0]
    if kind == "momentum":
        _refuse_non_finite("m0", v)    # before the FFT of the Helmholtz solve
        u0 = solve_helmholtz(v, L)
        return InitialProfile(float(L), n, x0, u0, v, str(path)).validate()
    return InitialProfile(float(L), n, x0, v, None, str(path)).validate()


def save_csv(profile, path):
    """Write a profile so that read_csv reproduces it bit-exactly."""
    kind = "momentum" if profile.m0 is not None else "velocity"
    col = profile.m0 if profile.m0 is not None else profile.u0
    lines = [f"# perch initial data kind={kind} L={profile.L:.17g}",
             "x," + ("m0" if kind == "momentum" else "u0")]
    lines += [f"{xj:.17g},{vj:.17g}" for xj, vj in zip(profile.x, col)]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------- momentum

def compute_momentum(profile):
    """Differentiate, check admissibility, and build the y-geometry."""
    profile.validate()
    L, n = profile.L, profile.n
    m0 = profile.m0 if profile.m0 is not None else (
        profile.u0 - second_derivative(profile.u0, L))
    fine = trig_eval_steps(m0, n, (0.0, 0.25, 0.5, 0.75))   # x = j L / 4n
    if np.min(fine) <= -1.0:
        raise PositivityViolation(
            f"m0 + 1 reaches {1.0 + np.min(fine):.3e} <= 0 on the refined grid")
    if abs(m0[0]) > EPS_END:
        raise EndpointViolation(
            f"|m0(0)| = {abs(m0[0]):.3e} exceeds the {EPS_END:.0e} budget")
    w = np.sqrt(trig_eval_steps(m0, n, 0.5 * (1.0 + _GL_NODES)) + 1.0)
    y = np.concatenate([[0.0], np.cumsum((0.5 * L / n) * (w @ _GL_WEIGHTS))])
    return MomentumProfile(L, n, profile.x, profile.u0, m0, float(y[-1]), y)


# ---------------------------------------------------------------- gauge

@dataclass(frozen=True)
class GaugeRecord:
    """Affine reduction u -> (u - A)/(A + omega) and its inverse."""
    A: float
    omega: float

    @property
    def scale(self):
        return self.A + self.omega

    def invert(self, u_tilde):
        return self.scale * np.asarray(u_tilde) + self.A


def normalize_gauge(u_raw, omega, L, x=None):
    """Reduce raw periodic data with endpoint momentum A to normalized form.

    Accepts n periodic samples, or n+1 samples whose final row repeats
    x = 0 at x = L (checked, then dropped).  Either every value of
    m_raw + omega must be positive (with A + omega > 0) or every value
    negative (with A + omega < 0); otherwise no admissible gauge exists.
    """
    _refuse_bad_period(L)      # before the Fourier derivative
    u_raw = np.asarray(u_raw, dtype=float)
    if x is not None:
        x = np.asarray(x, dtype=float)
        if abs((x[-1] - x[0]) - L) < 1e-9 * L:
            if abs(u_raw[-1] - u_raw[0]) > 1e-12 * max(1.0, np.max(np.abs(u_raw))):
                raise IncompatibleEndpoints(
                    "raw samples differ at x = 0 and x = L")
            u_raw = u_raw[:-1]
    n = len(u_raw)
    m_raw = u_raw - second_derivative(u_raw, L)
    A = float(m_raw[0])
    s = A + omega
    shifted = m_raw + omega
    if s > 0 and np.min(shifted) > 0:
        pass
    elif s < 0 and np.max(shifted) < 0:
        pass
    else:
        raise SignCondition(
            f"m_raw + omega in [{np.min(shifted):.3e}, {np.max(shifted):.3e}] "
            f"with A + omega = {s:.3e}: no admissible gauge")
    u0 = (u_raw - A) / s
    xg = np.arange(n) * (L / n)
    prof = InitialProfile(L, n, xg, u0, (m_raw - A) / s, "gauge").validate()
    return prof, GaugeRecord(A, float(omega))

