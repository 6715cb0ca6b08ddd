"""Numerical toolkit for weighted isoperimetric problems in planar convex cones.

The package implements, at desk scale in the plane, the measure-theoretic
functionals (weighted volume, perimeter, deficit, asymmetry), the restricted
convex-envelope machinery that couples a set to the minimizing ball sector,
a small finite-element Neumann solver that seeds the coupling, and a family
of quantitative lemma checkers (AM-GM, one-dimensional stability, Cheeger
constants of interval sets, trace/Poincare inequalities) together with
experiment drivers.

The package root binds only ``__version__``: names are imported from the
submodules (``isocone.geometry``, ``isocone.coupling`` and so on).
"""

__version__ = "0.1.0"
