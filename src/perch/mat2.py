"""2x2 complex matrix helpers.

All routines accept stacked arrays of shape (..., 2, 2) so that a whole
contour's worth of jump matrices can be manipulated in one call.  Matrices
are plain numpy arrays; nothing here allocates custom classes.
"""

import numpy as np


def det2(a):
    a = np.asarray(a)
    return a[..., 0, 0] * a[..., 1, 1] - a[..., 0, 1] * a[..., 1, 0]


def frob(a):
    """Frobenius norm over the trailing 2x2 axes."""
    return np.sqrt(np.sum(np.abs(np.asarray(a)) ** 2, axis=(-2, -1)))


def sigma1_conj(a):
    """sigma1 @ a @ sigma1 for stacked matrices (swaps both indices)."""
    return np.asarray(a)[..., ::-1, ::-1]
