"""The truncation window and the radii shared by several modules.

ContourConfig holds the one knob callers set, the real-axis window; it
is a plain frozen dataclass, so pass a modified copy to override it.
EPS_CIRCLE and DISK_RADIUS are read by the branch, scattering and
assembly layers alike, so they live here.  Every other threshold is a
constant in the one module that reads it.
"""

from dataclasses import dataclass

EPS_CIRCLE = 0.1          # radius of the circles around +-i/2
DISK_RADIUS = 0.02        # residue disks around poles of the sheeted root


@dataclass(frozen=True)
class ContourConfig:
    k_window_factor: float = 12.0     # K_max = factor * pi / theta
