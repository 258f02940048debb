"""Exact symbolic kernel for projective structures on supermanifolds.

Subpackages:

* ``graded_algebra`` -- supercommutative arithmetic, left derivatives;
* ``expressions``    -- the expression grammar (parse/print);
* ``geometry``       -- supermatrices, Berezinians, coordinate changes,
  projective classes and the super-Schwarzian;
* ``densities``      -- the density algebra, operators, brackets, the
  projective Laplacian and canonical generating operators;
* ``thomas``         -- the extended-manifold construction and bracket
  extension;
* ``poisson_bv``     -- phase-space brackets, Jacobi obstructions and
  Batalin-Vilkovisky condition checkers;
* ``cli``            -- scenario-driven command line front end.
"""

from .graded_algebra import Dimension, SuperFunction
from .errors import KernelError

__all__ = ["Dimension", "SuperFunction", "KernelError"]
__version__ = "0.1.0"
