"""Shared fixtures: initial-data presets, their scattering data, and the
sheeted-root objects built on top.  Session scope because the root builds
cost seconds to tens of seconds each.
"""

import numpy as np
import pytest

from perch.branch import SheetedR
from perch.config import ContourConfig
from perch.initial import (InitialProfile, compute_momentum,
                           load_initial_data, solve_helmholtz)
from perch.scattering import ScatteringData

L = 2.0


@pytest.fixture(scope="session")
def mp_bump():
    return compute_momentum(load_initial_data("bump(0.5)", L=L, n=128))


@pytest.fixture(scope="session")
def sd_bump(mp_bump):
    return ScatteringData(mp_bump)


@pytest.fixture(scope="session")
def sd_zero():
    return ScatteringData(compute_momentum(load_initial_data("zero", L=L, n=64)))


@pytest.fixture(scope="session")
def sd_asym():
    # breaks the x -> L - x symmetry of the bump family, which produces
    # genuine zeros of b* off the real axis
    n = 128
    x = np.arange(n) * (L / n)
    m0 = np.sin(np.pi * x / L) ** 2 * (0.8 + 0.79 * np.sin(2 * np.pi * x / L))
    prof = InitialProfile(L=L, n=n, x=x, u0=solve_helmholtz(m0, L), m0=m0,
                          source="asym")
    return ScatteringData(compute_momentum(prof))


@pytest.fixture(scope="session")
def sd_hbump():
    # negative amplitude pushes |Delta(0)| above 2: the origin cut lies on
    # the real axis instead of the imaginary one
    return ScatteringData(compute_momentum(load_initial_data("bump(-0.8)",
                                                             L=L, n=128)))


@pytest.fixture(scope="session")
def sr_bump(sd_bump):
    return SheetedR(sd_bump)


@pytest.fixture(scope="session")
def sr_zero(sd_zero):
    return SheetedR(sd_zero)


@pytest.fixture(scope="session")
def sr_asym(sd_asym):
    return SheetedR(sd_asym, ccfg=ContourConfig(k_window_factor=5.5))


@pytest.fixture(scope="session")
def sr_hbump(sd_hbump):
    # a half-step factor, so the window edge sits in a band away from
    # the gaps near n*pi/theta; the default factor 12 builds as well
    return SheetedR(sd_hbump, ccfg=ContourConfig(k_window_factor=12.5))
