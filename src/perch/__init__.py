"""Riemann-Hilbert data for the periodic Camassa-Holm equation.

Pipeline: initial data -> scattering along the Lax pair -> trace function
and sheeted global-relation root -> master contour and jump matrices of
the Riemann-Hilbert problem in the sine-variable frame, each stage checked
against the identities it must satisfy.  The collocation solve and the
field reconstruction are not implemented.
"""

__version__ = "0.1.0"
