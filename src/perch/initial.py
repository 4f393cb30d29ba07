"""Periodic initial data and its momentum geometry.

A profile u0 on the circle [0, L) determines the momentum

    m0 = u0 - u0'',

computed by trigonometric differentiation.  The data are admissible when
m0 + 1 > 0 everywhere and m0 vanishes at x = 0 (hence, by periodicity, at
x = L).  Admissible data carry a change of spatial variable

    y(x) = int_0^x sqrt(m0(s) + 1) ds,    theta = y(L),

which is strictly increasing; theta sets the phases of the spectral
functions, and MomentumProfile evaluates y(x) and its inverse x(y)
pointwise.  Raw data with a nonzero endpoint momentum A and dispersion
omega are first reduced to this normalized form by the affine gauge
u -> (u - A)/(A + omega).
"""

import re
from dataclasses import dataclass

import numpy as np

from .errors import (EndpointViolation, IncompatibleEndpoints, OutOfRange,
                     ParseError, PositivityViolation, SignCondition,
                     SmoothnessViolation, UnknownPreset)

EPS_END = 1e-10       # endpoint momentum budget
TAIL_BUDGET = 1e-8    # spectral-tail share of total energy


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
    c, k = _fourier_modes(samples)
    x = np.asarray(x, dtype=float)
    ph = np.exp((2j * np.pi / L) * np.multiply.outer(x, k))
    return (ph @ c).real


def trig_eval_steps(samples, n_steps, offsets):
    """The interpolant at the points (n + offsets[i]) / n_steps of a period.

    Returns shape (n_steps, len(offsets)), row n for step n < n_steps, and
    equals trig_eval at x = (n + offsets[i]) L / n_steps for any period L.
    The phase factorises as exp(2 pi i k n / N) exp(2 pi i k offsets[i] / N):
    the coefficients times the per-offset factor are folded onto k mod N,
    and one inverse FFT of length N sums the per-step factor.
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
        if self.n < 16:
            raise ParseError(f"need n >= 16 samples, got {self.n}")
        for name, v in (("u0", self.u0), ("m0", self.m0)):
            if v is not None and not np.all(np.isfinite(v)):
                raise ParseError(f"{name} holds {np.sum(~np.isfinite(v))} "
                                 "non-finite samples (NaN or inf)")
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

    def m0_at(self, x):
        return trig_eval(self.m0, self.L, x)

    def weight_at(self, x):
        """sqrt(m0(x) + 1), the y-map integrand."""
        return np.sqrt(self.m0_at(x) + 1.0)

    def y_of_x(self, x):
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 0
        out = np.array([self._y_scalar(float(v)) for v in np.atleast_1d(x)])
        return float(out[0]) if scalar else out

    def _y_scalar(self, x):
        if not -1e-12 <= x <= self.L * (1 + 1e-12):
            raise OutOfRange(f"x = {x} outside [0, {self.L}]")
        x = min(max(x, 0.0), self.L)
        h = self.L / self.n
        j = min(int(x / h), self.n - 1)
        return self.y[j] + _gl_integral(self.weight_at, j * h, x)

    def x_of_y(self, y):
        y = np.asarray(y, dtype=float)
        scalar = y.ndim == 0
        out = np.array([self._x_scalar(float(v)) for v in np.atleast_1d(y)])
        return float(out[0]) if scalar else out

    def _x_scalar(self, y):
        if not -1e-10 <= y <= self.theta * (1 + 1e-10):
            raise OutOfRange(f"y = {y} outside [0, {self.theta}]")
        y = min(max(y, 0.0), self.theta)
        xg = np.concatenate([self.x, [self.L]])
        x = float(np.interp(y, self.y, xg))
        for _ in range(60):
            r = self._y_scalar(x) - y
            dx = -r / self.weight_at(x)
            x = min(max(x + dx, 0.0), self.L)
            if abs(dx) < 1e-14 * max(1.0, self.L):
                break
        return x


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(10)


def _gl_integral(f, a, b):
    if b <= a:
        return 0.0
    t, w = _GL_NODES, _GL_WEIGHTS
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return half * float(np.sum(w * f(mid + half * t)))


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
    if source == "zero":
        x = np.arange(n) * (L / n)
        z = np.zeros(n)
        return InitialProfile(L, n, x, z, z.copy(), "zero").validate()
    m = _BUMP_RE.match(source)
    if m:
        try:
            c = float(m.group(1))
        except ValueError as exc:
            raise ParseError(f"bad bump amplitude in {source!r}") from exc
        x = np.arange(n) * (L / n)
        m0 = c * np.sin(np.pi * x / L) ** 2
        u0 = solve_helmholtz(m0, L)
        return InitialProfile(L, n, x, u0, m0, source).validate()
    raise UnknownPreset(f"unknown preset {source!r}")


def read_csv(path):
    """Read a two-column CSV of x,u0 (or x,m0 when flagged kind=momentum).

    Comment lines start with '#'; the marker 'kind=momentum' in a comment
    or an 'x,m0' header row switches the second column to momentum.  A
    comment 'L=<value>' pins the period; otherwise L is inferred from the
    uniform grid spacing.  A duplicated final row at x = L is dropped
    after checking it matches the first.
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
            mt = re.search(r"L=([0-9eE+\-.]+)", s)
            if mt:
                L = float(mt.group(1))
            continue
        first = s.split(",")[0].strip()
        if any(ch.isalpha() for ch in first):
            if "m0" in s:
                kind = "momentum"
            continue
        parts = s.split(",")
        if len(parts) != 2:
            raise ParseError(f"expected two comma-separated columns, got {s!r}")
        try:
            xs.append(float(parts[0]))
            vs.append(float(parts[1]))
        except ValueError as exc:
            raise ParseError(f"non-numeric row {s!r}") from exc
    if len(xs) < 2:
        raise ParseError(f"no data rows in {path}")
    x = np.asarray(xs)
    v = np.asarray(vs)
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
    n = len(x)
    x0 = x - x[0]
    if kind == "momentum":
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

def compute_momentum(profile, eps_end=EPS_END):
    """Differentiate, check admissibility, and build the y-geometry."""
    profile.validate()
    L, n = profile.L, profile.n
    m0 = profile.m0 if profile.m0 is not None else (
        profile.u0 - second_derivative(profile.u0, L))
    fine = trig_eval(m0, L, np.arange(4 * n) * (L / (4 * n)))
    if np.min(fine) <= -1.0:
        raise PositivityViolation(
            f"m0 + 1 reaches {1.0 + np.min(fine):.3e} <= 0 on the refined grid")
    if abs(m0[0]) > eps_end:
        raise EndpointViolation(
            f"|m0(0)| = {abs(m0[0]):.3e} exceeds the {eps_end:.0e} budget")
    w = lambda x: np.sqrt(trig_eval(m0, L, x) + 1.0)
    h = L / n
    cells = np.array([_gl_integral(w, j * h, (j + 1) * h) for j in range(n)])
    y = np.concatenate([[0.0], np.cumsum(cells)])
    theta = float(y[-1])
    return MomentumProfile(L, n, profile.x, profile.u0, m0, theta, y)


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

