"""equijet: exact jet arithmetic and equisingularity machinery.

Submodules:

* :mod:`equijet.jets` -- truncated multivariate power series over exact scalars;
* :mod:`equijet.pseudopoly` -- monic polynomials with jet coefficients,
  power sums, generalized discriminants, resultants;
* :mod:`equijet.weierstrass` -- regularity, linear coordinate changes,
  Weierstrass division and preparation;
* :mod:`equijet.tower` -- the recursive equisingularity ladder and the
  parametrized-family check;
* :mod:`equijet.deform` -- verification of parametrized solution families and
  construction of the one-parameter deformation;
* :mod:`equijet.mero` -- two-variable meromorphic germ analysis: the 1-forms,
  divisor constants, the emitted polynomial system, deformation slices;
* :mod:`equijet.parser` -- the expression language, parsed straight into jets;
* :mod:`equijet.cli` -- the command line driver.
"""

from .jets import DEFAULT_ORDER, INFINITE_ORDER, Jet, VarContext
from .scalars import FieldElement, NumberField

__all__ = [
    "DEFAULT_ORDER",
    "INFINITE_ORDER",
    "Jet",
    "VarContext",
    "FieldElement",
    "NumberField",
]

__version__ = "0.1.0"
