"""flagoct: exact symbolic verification for the six-fixed-point octonionic
flag geometry.

The package computes, entirely over the rationals (and the integers where
the theory demands it):

* one exact store for vectors of rationals: integer numerators over one
  positive denominator, in lowest terms (``scaled``), which octonions,
  weights, Jordan matrices, 3x3 octonion matrices and 27x27 operators all
  use;
* octonion arithmetic and the 27-dimensional Jordan algebra of Hermitian
  3x3 octonion matrices (``octonion``, ``jordan``);
* the rank-4 root system, its Weyl group of order 192 inside the order-1152
  reflection group, and the order-6 complement acting on three letters
  (``weyl``);
* sparse multivariate polynomials with exact rational coefficients and
  reduced Groebner bases (``poly``, ``groebner``);
* the 6-dimensional coinvariant cohomology presentation, divided-difference
  bases, and fixed-point restriction relations (``cohomology``);
* the six-vertex moment graph, its Euler-class labels, and graded
  free-rank verification (``gkm``);
* the weight-lattice character ring, the four basic invariant characters,
  exact character division, and the representation-ring membership
  conditions (``ktheory``);
* an expression grammar, structured reports, verification suites, and the
  ``flagoct`` command-line tool (``parsing``, ``report``, ``suites``,
  ``cli``).
"""

from .octonion import Octonion
from .jordan import JordanMatrix
from .poly import PolyRing, Polynomial
from .groebner import GroebnerBasis, buchberger
from .weyl import Weight, WeylElement, Sigma3Element
from .ktheory import Character
from .report import Check, VerificationReport
from .suites import run_suite

__version__ = "0.1.0"

__all__ = [
    "Octonion",
    "JordanMatrix",
    "PolyRing",
    "Polynomial",
    "GroebnerBasis",
    "buchberger",
    "Weight",
    "WeylElement",
    "Sigma3Element",
    "Character",
    "Check",
    "VerificationReport",
    "run_suite",
    "__version__",
]
