"""Contour and window settings.

ContourConfig sizes the truncation window, the excluded circles and
residue disks, the panelization, and the argument-principle search for
the poles of the sheeted root.  It is a plain frozen dataclass; pass a
modified copy to override a knob.  Thresholds that take one value live
as constants in the module that reads them.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class ContourConfig:
    panel_order: int = 12
    k_window_factor: float = 12.0     # K_max = factor * pi / theta
    eps_circle: float = 0.1           # radius of the circles around +-i/2
    disk_radius: float = 0.02         # residue disks around poles of the sheeted root
    grade_levels: int = 4
    grade_ratio: float = 0.5
    panel_real: float = 1.0           # target panel length on the real axis
    panel_circle: float = 0.35        # target arc length on |k| = 1/2
    mu_search_height: float = 1.2     # Im-extent of the pole search rectangles
    winding_nodes: int = 64           # quadrature nodes per cell side, argument principle
    cell_size: float = 0.05           # finest argument-principle cell
