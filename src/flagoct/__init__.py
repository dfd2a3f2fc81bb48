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
* an expression grammar, structured reports, verification suites (each
  suite's checks declared in ``<suite>_checks``), and the ``flagoct``
  command-line tool (``parsing``, ``report``, ``suites``, ``cli``).
"""

import importlib.util
import sys

__version__ = "0.1.0"

__all__ = ["__version__"]


def _register_lazily(name: str) -> None:
    """Put submodule ``name`` in sys.modules and on the package; it is compiled
    and run when one of its attributes is first read."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = globals()[name] = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)


# so a command compiles only the modules it runs; cli is left out, since
# ``python -m flagoct.cli`` warns if it is already imported
for _name in ("cohomology", "gkm", "groebner", "jordan", "ktheory", "octonion",
              "parsing", "poly", "report", "scaled", "suites", "weyl",
              "cohomology_checks", "gkm_checks", "jordan_checks", "ktheory_checks",
              "octonion_checks", "roots_checks"):
    _register_lazily(_name)
del _name
