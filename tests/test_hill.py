"""Tests for the Hill eigen solve behind branch location: the free case in
closed form, and on every fixture and pinned Fourier profile the
interlacing of periodic and antiperiodic eigenvalues, their convergence
in the number of modes, and their agreement with the integrated trace.
"""

import numpy as np
import pytest

from perch.branch import TraceFunction, _hill_spectrum, _hill_window
from perch.config import ContourConfig
from test_fourier_profiles import WINDOW, fourier_sd

PINNED = {
    "fourier_1": (1.918961, [(1, 0.917972, -1.359565)]),
    "fourier_2": (1.852375, [(1, -0.15386, 0.026207)]),
    "fourier_3": (2.142463, [(1, 0.386074, 0.024151), (2, -0.17186, 0.168875),
                             (3, 0.095531, -0.141196)]),
    "fourier_4": (2.736101, [(1, -0.313834, -0.15928), (2, -0.141982, 0.103046),
                             (3, 0.155356, 0.061261)]),
}
FIXTURES = {"sd_bump": 12.0, "sd_hbump": 12.5, "sd_asym": 5.5, "sd_zero": 12.0}


def spectrum(sd, factor, modes_scale=1):
    """Eigenvalues with the reach and mode count locate_branch_points
    takes for the window factor."""
    k_max = sd.k_window(ContourConfig(k_window_factor=factor))
    x_hi, n_modes = _hill_window(sd, k_max)
    return x_hi, _hill_spectrum(sd.mp.m0, sd.mp.L, modes_scale * n_modes)


def test_free_case_closed_form(sd_zero):
    L = sd_zero.mp.L
    _, (periodic, anti) = spectrum(sd_zero, 12.0)
    j = np.arange(1, 21)
    want_p = np.concatenate([[0.25], np.repeat(0.25 + (2 * np.pi * j / L) ** 2, 2)])
    want_a = np.repeat(0.25 + ((2 * j - 1) * np.pi / L) ** 2, 2)
    assert np.max(np.abs(periodic[:41] / want_p - 1.0)) <= 1e-12
    assert np.max(np.abs(anti[:40] / want_a - 1.0)) <= 1e-12


@pytest.fixture(params=list(FIXTURES) + list(PINNED))
def profile(request):
    if request.param in FIXTURES:
        return request.getfixturevalue(request.param), FIXTURES[request.param]
    return fourier_sd(*PINNED[request.param]), WINDOW.k_window_factor


def test_interlacing_convergence_and_trace(profile):
    sd, factor = profile
    x_hi, (periodic, anti) = spectrum(sd, factor)
    _, (periodic2, anti2) = spectrum(sd, factor, modes_scale=2)
    mu_hi = x_hi ** 2 + 0.25
    n = int(np.searchsorted(periodic, mu_hi)) + 2

    # P0 < A0 <= A1 < P1 <= P2 < A2 <= A3 < ...
    seq = [periodic[0]]
    for i in range(1, n):
        vals = anti if i % 2 else periodic
        seq.extend([vals[i - 1], vals[i]])
    steps = np.diff(seq)
    assert np.all(steps[0::2] > 0.0)        # bands
    assert np.all(steps[1::2] >= 0.0)       # gaps

    for vals, vals2, level in ((periodic, periodic2, 2.0),
                               (anti, anti2, -2.0)):
        low = vals[vals < mu_hi]
        assert np.max(np.abs(vals2[:low.size] / low - 1.0)) <= 1e-9
        # every eigenvalue is a zero of Delta -+ 2 of the integrator
        tf = TraceFunction(sd)
        real = np.sqrt(low[low > 0.25 + 1e-6] - 0.25)
        imag = np.sqrt(0.25 - low[low < 0.25 - 1e-6])
        for axis, x in (("real", real), ("imag", imag)):
            if x.size:
                assert np.max(np.abs(tf.on_axis(axis, x) - level)) <= 1e-8
