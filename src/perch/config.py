"""The truncation window and the constants shared by several modules.

ContourConfig holds the one knob callers set, the real-axis window; it
is a plain frozen dataclass, so pass a modified copy to override it.
DISK_PAD, the clearance about a residue disk derived from DISK_RADIUS,
is read by the branch and assembly layers, ORIGIN_OFFSET by the
scattering and branch layers, so they live here.
Every other threshold is a constant in the one module that reads it;
the radius of the eps-circles about +-i/2 is decided by the sheet
(SheetedR.eps).
"""

from dataclasses import dataclass

DISK_RADIUS = 0.02        # residue disks around poles of the sheeted root
DISK_PAD = 1.25 * DISK_RADIUS  # clearance kept about each disk centre
ORIGIN_OFFSET = 1e-4      # axis scans and boundary values stay this far from 0


@dataclass(frozen=True)
class ContourConfig:
    k_window_factor: float = 12.0     # K_max = factor * pi / theta
