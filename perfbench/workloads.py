"""The three workloads: spectra, rhdata and sweep.

Each workload draws its inputs from the run's seed, sets up (builds the
initial profiles and their momentum), then runs a fixed number of whole
rounds of the same operations; the round count follows from --seconds
through ROUND_SECONDS, never from the clock.  Every operation's output
is checked, after the round's clock stops, against the independent
reference or against an identity the method must satisfy.  An
operation that raises a PerchError counts as failed; a check that does
not hold on an operation that did not fail makes the run incorrect.
"""

import statistics
import time

import numpy as np

from perch import assembly, branch, cauchy, initial, scattering
from perch.config import ContourConfig
from perch.errors import PerchError

import reference

L = 2.0
PROFILES = ("bump(0.5)", "bump(-0.8)", "asym", "zero")
# both origin-cut geometries (imaginary axis for bump(0.5), real axis for
# bump(-0.8)) and the trivial sheet; asym is left to spectra for time
RH_PROFILES = ("bump(0.5)", "bump(-0.8)", "zero")
SWEEP_PROFILE = "bump(-0.8)"
# integer window factors park the window edge on a gap of bump(-0.8) and
# raise WindowTooSmall; 1.5 is the smallest half step whose sheet sign
# survives the ray-decay test on both bump profiles
RH_WINDOW = ContourConfig(k_window_factor=1.5)
CHECK_NODES = 32          # nodes check_jumps samples (its own seed, 5)
N_SETUPS = 7
# nominal seconds per round, used only to turn --seconds into a count
ROUND_SECONDS = {"spectra": 10.0, "rhdata": 40.0, "sweep": 3.0}
TOL = 1e-9                # identity checks (perch's tol_identity)
REF_TOL = 1e-9            # relative deviation from the reference
BRANCH_TOL = 1e-8         # | |Delta| - 2 | at branch points
ROOT_TOL = 1e-8           # sheeted-root identities
PLEMELJ_TOL = 1e-10       # C+ - C- = I
CAUCHY_TOL = 1e-8         # C+- against the closed form, relative to max |rho|


def digits(residual):
    """-log10 of a residual, capped at 16 when it rounds to 0."""
    residual = float(residual)
    if not residual > 0.0:
        return 16.0
    return min(16.0, -np.log10(residual))


def rounds_for(workload, seconds):
    return max(1, int(round(seconds / ROUND_SECONDS[workload])))


def make_profile(name, n=128):
    """The four profiles of the test fixtures, built by perch."""
    if name == "asym":
        x = np.arange(n) * (L / n)
        m0 = reference.asym(x)
        return initial.InitialProfile(L=L, n=n, x=x,
                                      u0=initial.solve_helmholtz(m0, L),
                                      m0=m0, source="asym")
    return initial.load_initial_data(name, L=L, n=64 if name == "zero" else n)


def _jitter(rng, n):
    """n stratified points in (0, 1): one per cell of width 1/n."""
    return (np.arange(n) + rng.uniform(0.05, 0.95, n)) / n


class Workload:
    """Set-up, timed rounds and the final checks of one workload."""

    profiles = PROFILES
    jump_sets_per_round = 0

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.problems = []

    def setup(self):
        self.mps = {name: initial.compute_momentum(make_profile(name))
                    for name in self.profiles}

    def fail(self, what, exc):
        self.failed += 1
        self.failures.append(f"{what}: {exc!r}")

    def expect(self, ok, what):
        if not ok:
            self.problems.append(what)


# ---------------------------------------------------------------- spectra


class Spectra(Workload):
    """(a, b, a*, b*) and Delta on dense k-sets, fresh evaluators.

    k-sets per profile, in units of its window W = 12 pi / theta: the real
    axis (0, W] as 2048 stratified points ending at W, the segment
    (0, i/2) as 256, and 128 points of (0, W) x i(0.02, 0.5) with their
    three mirror images under k -> conj k, -k, -conj k.
    """

    N_REAL, N_SEG, N_SCATTER = 2048, 256, 128
    REF_PER_SET = 2           # seeded reference probes per k-set

    def __init__(self, seed):
        super().__init__(seed)
        rng = self.rng
        self.u_real = _jitter(rng, self.N_REAL)
        self.u_real[-1] = 1.0
        self.u_seg = 0.5 * _jitter(rng, self.N_SEG)
        self.u_scat = (_jitter(rng, self.N_SCATTER)[rng.permutation(self.N_SCATTER)],
                       rng.uniform(0.02, 0.5, self.N_SCATTER))
        self.worst_unimod = 0.0
        self.kps = []
        self.last = {}

    def ksets(self, mp):
        W = scattering.ScatteringData(mp).k_window()
        base = W * self.u_scat[0] + 1j * self.u_scat[1]
        scatter = np.concatenate([base, np.conj(base), -base, -np.conj(base)])
        return {"real": W * self.u_real.astype(complex),
                "segment": 1j * self.u_seg, "scatter": scatter}

    def setup(self):
        super().setup()
        self.sets = {name: self.ksets(mp) for name, mp in self.mps.items()}

    def round(self):
        out = {}
        nk = 0
        t0 = time.perf_counter()
        for name, mp in self.mps.items():
            sd = scattering.ScatteringData(mp)
            for kind, ks in self.sets[name].items():
                self.attempted += 1
                try:
                    out[name, kind] = (sd.ab(ks), sd.floquet_discriminant(ks))
                except PerchError as exc:
                    self.fail(f"{name} {kind}", exc)
                nk += len(ks)
        dt = time.perf_counter() - t0
        self.kps.append(nk / dt / 1e3)
        self.last = out
        return dt

    def check_round(self):
        for (name, kind), vals in self.last.items():
            self.check(name, kind, self.sets[name][kind], *vals)

    def check(self, name, kind, ks, abv, delta):
        a, b, astar, bstar = abv
        scale = np.maximum(1.0, np.abs(a * astar))
        unimod = float(np.max(np.abs(a * astar - b * bstar - 1.0) / scale))
        self.worst_unimod = max(self.worst_unimod, unimod)
        self.expect(unimod <= TOL, f"{name} {kind}: unimodularity {unimod:.2e}")
        sa = np.maximum(1.0, np.abs(a))
        if kind == "real":
            sym = max(np.max(np.abs(astar - np.conj(a)) / sa),
                      np.max(np.abs(bstar - np.conj(b)) / sa))
        elif kind == "scatter":
            # ks = [k, conj k, -k, -conj k]: a*(k) = conj a(conj k) and
            # a(-conj k) = conj a(k), likewise for b
            k4 = np.split(np.arange(len(ks)), 4)
            sym = max(np.max(np.abs(astar[k4[0]] - np.conj(a[k4[1]])) / sa[k4[0]]),
                      np.max(np.abs(bstar[k4[0]] - np.conj(b[k4[1]])) / sa[k4[0]]),
                      np.max(np.abs(a[k4[3]] - np.conj(a[k4[0]])) / sa[k4[0]]),
                      np.max(np.abs(b[k4[3]] - np.conj(b[k4[0]])) / sa[k4[0]]))
        else:
            # a(k) = conj a(-conj k) is real on the imaginary axis
            sym = np.max(np.abs(a.imag) / sa)
        self.expect(sym <= TOL, f"{name} {kind}: symmetry {sym:.2e}")
        if kind in ("real", "segment"):
            im = float(np.max(np.abs(delta.imag) / np.maximum(1.0, np.abs(delta))))
            self.expect(im <= TOL, f"{name} {kind}: Im Delta {im:.2e}")
        if name == "zero":
            dev = max(np.max(np.abs(a - 1.0)), np.max(np.abs(b)),
                      np.max(np.abs(delta - 2.0 * np.cos(ks * L))
                             / np.maximum(1.0, np.abs(delta))))
            self.expect(dev <= TOL, f"zero {kind}: closed form {dev:.2e}")

    def finish(self):
        worst = 0.0
        for name in self.mps:
            ref = reference.Reference(reference.MOMENTA[name])
            for kind, ks in self.sets[name].items():
                if (name, kind) not in self.last:
                    continue
                picks = self.rng.choice(len(ks), self.REF_PER_SET,
                                        replace=False)
                if kind == "real":
                    picks = np.append(picks, len(ks) - 1)    # the window edge
                abv, delta = self.last[name, kind]
                for i in picks:
                    r = ref.spectral(ks[i])
                    scale = max(1.0, abs(r[0]), abs(r[1]))
                    got = [v[i] for v in abv] + [delta[i]]
                    dev = max(abs(g - w) for g, w in zip(got, r)) / scale
                    worst = max(worst, dev)
                    if name == "zero":
                        cf = reference.zero_closed_form(ks[i])
                        dz = max(abs(g - w) for g, w in zip(r, cf)) / scale
                        self.expect(dz <= REF_TOL,
                                    f"reference vs closed form {dz:.2e}")
        self.expect(worst <= REF_TOL, f"reference deviation {worst:.2e}")
        return {"spectral_kps": (statistics.median(self.kps), "thousand_k/s"),
                "ref_digits": (digits(worst), "digits"),
                "unimod_digits": (digits(self.worst_unimod), "digits")}


# ---------------------------------------------------------------- rhdata


def _side(tag):
    return "plus" if tag in assembly.CUT_TAGS else None


def jump_set(js, ps, y, t):
    """Jump matrices at (y, t) on every node, panel by panel."""
    return np.concatenate([js.jump_stack(y, t, p.nodes, p.label, _side(p.label))
                           for p in ps.panels])


def max_det_defect(J):
    det = J[:, 0, 0] * J[:, 1, 1] - J[:, 0, 1] * J[:, 1, 0]
    return float(np.max(np.abs(det - 1.0)))


class RHData(Workload):
    """Each profile from initial data to Riemann-Hilbert data, cold."""

    profiles = RH_PROFILES
    ROOT_PROBES = 16          # seeded off-axis probes per non-trivial profile
    CUT_PROBES = 8            # seeded points inside real cuts

    def __init__(self, seed):
        super().__init__(seed)
        self.passes = []
        self.built = {}
        self.det = self.branch_res = self.root_res = 0.0

    def setup(self):
        super().setup()
        self.sources = {name: make_profile(name) for name in self.profiles}

    def round(self):
        built = {}
        t0 = time.perf_counter()
        for name, prof in self.sources.items():
            built[name] = self.one_profile(name, prof)
        dt = time.perf_counter() - t0
        self.passes.append(dt)
        self.built = built
        return dt

    def one_profile(self, name, prof):
        steps = [
            ("momentum", lambda s: {"mp": initial.compute_momentum(prof)}),
            ("scattering", lambda s: {"sd": scattering.ScatteringData(s["mp"])}),
            ("sheet", lambda s: {"sr": branch.SheetedR(s["sd"], ccfg=RH_WINDOW)}),
            ("contour", self._contour),
            ("jumps", lambda s: {"J": jump_set(s["js"], s["ps"], 0.0, 0.0)}),
            ("check", lambda s: {"diag": assembly.check_jumps(s["js"],
                                                              n=CHECK_NODES)}),
        ]
        state = {}
        broken = False
        for step, fn in steps:
            self.attempted += 1
            if broken:
                self.failed += 1
                continue
            try:
                state.update(fn(state))
            except PerchError as exc:
                self.fail(f"{name} {step}", exc)
                broken = True
        return state

    @staticmethod
    def _contour(s):
        mc = assembly.build_master_contour(s["sr"], ccfg=RH_WINDOW)
        ps = assembly.panelize(mc, RH_WINDOW)
        return {"mc": mc, "ps": ps, "js": assembly.JumpSpec(s["sd"], s["sr"], mc)}

    def check_round(self):
        for name, s in self.built.items():
            if "J" not in s:
                continue
            d = max_det_defect(s["J"])
            self.det = max(self.det, d)
            self.expect(d <= TOL, f"{name}: det J defect {d:.2e}")
            sr = s["sr"]
            if sr.trivial:
                continue
            ref = reference.Reference(reference.MOMENTA[name])
            for z in sr.cuts.branch_points:
                r = abs(abs(ref.spectral(z)[4]) - 2.0)
                self.branch_res = max(self.branch_res, r)
            self.root_res = max(self.root_res,
                                self.root_identities(s["sd"], sr))
        self.expect(self.branch_res <= BRANCH_TOL,
                    f"| |Delta| - 2 | at branch points {self.branch_res:.2e}")
        self.expect(self.root_res <= ROOT_TOL,
                    f"root identities {self.root_res:.2e}")

    def finish(self):
        return {"rhdata_s": (statistics.median(self.passes), "s"),
                "branch_digits": (digits(self.branch_res), "digits"),
                "root_digits": (digits(self.root_res), "digits"),
                "jump_det_digits": (digits(self.det), "digits")}

    def root_identities(self, sd, sr):
        """Worst of the four sheeted-root identities at seeded probes."""
        rng, n = self.rng, self.ROOT_PROBES
        pts = (rng.uniform(-0.85, 0.85, n) * sr.k_max
               + 1j * rng.uniform(0.06, 1.0, n) * rng.choice([-1.0, 1.0], n))
        keep = np.ones(n, dtype=bool)
        for mu in [p.mu for p in sr.poles] + list(sr.other_sheet_zeros) + [0.5j, -0.5j]:
            keep &= np.abs(pts - mu) > 0.05
        pts = pts[keep]
        a, b, astar, bstar = sd.ab(pts)
        R, Rs = sr.R(pts), sr.R_star(pts)
        ph2 = np.exp(2j * pts * sr.theta)
        quad = np.abs(-ph2 * bstar * R * R + (ph2 * astar - a) * R + b)
        unim = np.abs((a - b * Rs) * (astar - bstar * R) - 1.0)
        refl = np.abs(sr.R(-pts) - Rs)
        worst = max(np.max(quad), np.max(unim), np.max(refl))
        cuts = sr.cuts.real_cuts
        if cuts:
            which = rng.integers(len(cuts), size=self.CUT_PROBES)
            fr = rng.uniform(0.05, 0.95, self.CUT_PROBES)
            xs = np.array([cuts[i].lo + f * cuts[i].length
                           for i, f in zip(which, fr)])
            xs = xs[np.abs(xs) > 1e-3]       # boundary values stay off 0
            for app in (+1, -1):
                v = sr.boundary("real", xs, app) * sr.boundary_star("real", xs, -app)
                worst = max(worst, float(np.max(np.abs(v - 1.0))))
        return float(worst)


# ---------------------------------------------------------------- sweep


class Sweep(Workload):
    """Warm jump sets over a seeded (y, t) grid plus the Cauchy matrices.

    The build (in set-up) makes the Riemann-Hilbert data of one profile
    and fills the evaluator cache with a cold jump pass at (0, 0), so
    every k of a round is a cache hit.  The checks see the (y, t) work
    and the whole O(N^2) fill: every jump set against the (0, 0) set
    times the paper's phase, det J = 1, and both boundary matrices
    against the closed-form transform of seeded poles and C+ - C- = I.
    """

    profiles = (SWEEP_PROFILE,)
    NY, NT = 6, 4
    jump_sets_per_round = NY * NT
    N_POLES = 4               # seeded poles z0 of the test densities 1/(s - z0)

    def __init__(self, seed):
        super().__init__(seed)
        self.yu = _jitter(self.rng, self.NY)
        self.tt = 2.0 * _jitter(self.rng, self.NT)
        # one pole per quarter turn, 1.5 to 3 times the contour's radius
        self.pole_u = (_jitter(self.rng, self.N_POLES),
                       self.rng.uniform(1.5, 3.0, self.N_POLES))
        self.want = None
        self.rates = []
        self.cauchy_s = []
        self.worst = dict.fromkeys(("det", "phase", "cauchy", "plemelj"), 0.0)

    def build(self):
        mp = self.mps[SWEEP_PROFILE]
        sd = scattering.ScatteringData(mp)
        sr = branch.SheetedR(sd, ccfg=RH_WINDOW)
        mc = assembly.build_master_contour(sr, ccfg=RH_WINDOW)
        self.ps = assembly.panelize(mc, RH_WINDOW)
        self.js = assembly.JumpSpec(sd, sr, mc)
        self.J00 = jump_set(self.js, self.ps, 0.0, 0.0)
        self.grid = [(y * sd.theta, t) for y in self.yu for t in self.tt]

    def round(self):
        t0 = time.perf_counter()
        self.attempted += 1
        self.C = None
        try:
            op = cauchy.CauchyOperator(self.ps)
            self.C = (op.boundary_matrix("plus"), op.boundary_matrix("minus"))
        except PerchError as exc:
            self.fail("cauchy", exc)
        t1 = time.perf_counter()
        self.sets = []
        for y, t in self.grid:
            self.attempted += 1
            try:
                self.sets.append((y, t, jump_set(self.js, self.ps, y, t)))
            except PerchError as exc:
                self.fail(f"jump set ({y}, {t})", exc)
        t2 = time.perf_counter()
        self.cauchy_s.append(t1 - t0)
        self.rates.append(len(self.grid) / (t2 - t1))
        return t2 - t0

    def note(self, key, value, tol, what):
        self.worst[key] = max(self.worst[key], value)
        self.expect(value <= tol, f"{what} {value:.2e}")

    def check_round(self):
        for y, t, J in self.sets:
            self.note("det", max_det_defect(J), TOL, "det J defect")
            self.note("phase", self.phase_defect(y, t, J), TOL,
                      f"({y:.4g}, {t:.4g}) against the (0, 0) set")
        if self.C is not None:
            self.check_cauchy(*self.C)
        self.C = self.sets = None

    def phase_defect(self, y, t, J):
        """Relative deviation of J(y, t) from the (0, 0) set times the phase.

        J12 carries e = exp(-2ik p(y, t, k)) and J21 carries 1/e, with the
        paper's p(y, t, k) = y - t / (2 (k^2 + 1/4)); the diagonal does not
        move.  The sweep profile has no residue disks, whose jumps would
        carry the phase at their pole instead.
        """
        k = self.ps.nodes
        e = np.exp(-2j * k * (y - t / (2.0 * (k * k + 0.25))))
        want = self.J00.copy()
        want[:, 0, 1] *= e
        want[:, 1, 0] /= e
        return float(np.max(np.abs(J - want) / np.maximum(1.0, np.abs(want))))

    def check_cauchy(self, Cp, Cm):
        """C+- on the densities 1/(s - z0) against the closed form, then
        C+ - C- = I."""
        if self.want is None:
            nodes = self.ps.nodes
            turn, radius = self.pole_u
            poles = radius * np.max(np.abs(nodes)) * np.exp(2j * np.pi * turn)
            self.rho = 1.0 / (nodes[:, None] - poles[None, :])
            ref = reference.PoleCauchy(self.ps.panels)
            self.want = {side: np.stack([ref.values(z0, side) for z0 in poles],
                                        axis=1)
                         for side in ("plus", "minus")}
        scale = np.max(np.abs(self.rho), axis=0)
        for side, C in (("plus", Cp), ("minus", Cm)):
            dev = float(np.max(np.abs(C @ self.rho - self.want[side]) / scale))
            self.note("cauchy", dev, CAUCHY_TOL, f"C {side} against closed form")
        Cp -= Cm
        Cp[np.diag_indices_from(Cp)] -= 1.0
        self.note("plemelj", float(np.max(np.abs(Cp))), PLEMELJ_TOL,
                  "C+ - C- - I")

    def finish(self):
        w = self.worst
        return {"jumpsets_ps": (statistics.median(self.rates), "1/s"),
                "cauchy_s": (statistics.median(self.cauchy_s), "s"),
                "cauchy_ref_digits": (digits(w["cauchy"]), "digits"),
                "plemelj_digits": (digits(w["plemelj"]), "digits"),
                "jump_phase_digits": (digits(w["phase"]), "digits"),
                "jump_det_digits": (digits(w["det"]), "digits")}


WORKLOADS = {"spectra": Spectra, "rhdata": RHData, "sweep": Sweep}
