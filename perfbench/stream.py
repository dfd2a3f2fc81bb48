"""Seeded request stream for the ``membership-stream`` workload.

Every request is an argument list for ``flagoct.cli.main`` together with the
outcome the generator expects.  The expectation is derived from how the
request was built, never from flagoct itself:

* a member tuple is the restriction pattern of a global class (a polynomial
  in the fixed-point restriction classes for Hb/HT, the Sigma_3 orbit of one
  X-polynomial for RX and its character expansion for RT), so every edge
  difference is divisible by the edge's label;
* a near-miss non-member is a member with one vertex perturbed by a term
  that no edge label at that vertex divides (a nonzero constant, a power of
  one label, a power of the invariant sum of squares, a power of X4, or a
  character of nonzero dimension), so exactly that vertex breaks;
* an ``expand --ring RT`` request of an integer X-polynomial p must print
  weights whose multiplicities sum to p(8, 8, 8, 24), the dimensions of the
  four basic characters.
"""

from __future__ import annotations

import dataclasses
import json
import os
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

VERTICES = ("1", "s1", "s2", "s1s2", "s2s1", "s1s2s1")

# sigma(i) for i = 1, 2, 3 at each vertex (reduced words in s1, s2)
PERMUTATIONS: Dict[str, Tuple[int, int, int]] = {
    "1": (1, 2, 3),
    "s1": (1, 3, 2),
    "s2": (2, 1, 3),
    "s1s2": (3, 1, 2),
    "s2s1": (2, 3, 1),
    "s1s2s1": (3, 2, 1),
}

# fixed-point restrictions (c1, c2) of the first two Euler classes, as signed
# labels: (sign, k) stands for sign * b_k with b3 = b1 + b2
RESTRICTIONS: Dict[str, Tuple[Tuple[int, int], Tuple[int, int]]] = {
    "1": ((1, 1), (1, 2)),
    "s1": ((-1, 1), (1, 3)),
    "s2": ((1, 3), (-1, 2)),
    "s1s2": ((1, 2), (-1, 3)),
    "s2s1": ((-1, 3), (1, 1)),
    "s1s2s1": ((-1, 2), (-1, 1)),
}

# abstract labels in Hb and realized labels in HT (canonical signs, so that
# b1T + b2T = b3T as b1 + b2 = b3)
HB_LABELS = {1: "b1", 2: "b2", 3: "b3"}
HT_LABELS = {
    1: "-rho1*(-rho1 + rho2)*(-rho3 + rho4)*(-rho2 + rho3 + rho4)",
    2: "rho4*(-rho2 + rho4)*(-rho1 + rho3)*(rho1 - rho2 + rho3)",
    3: "rho3*(-rho2 + rho3)*(-rho1 + rho4)*(rho1 - rho2 + rho4)",
}
# sum of the squared orthonormal weights L1..L4: W-invariant, no linear factor
HT_SQUARES = (
    "rho1^2 + (-rho1 + rho2)^2 + (-rho2 + rho3 + rho4)^2 + (-rho3 + rho4)^2"
)

# the four basic characters in the weight-lattice monomials y1..y5
X_CHARACTERS = {
    1: "y5 + y3^-1*y4^-1*y5 + y2^-1*y4^-1*y5 + y2^-1*y3^-1*y5 + y1^-1*y4^-1*y5"
    " + y1^-1*y3^-1*y5 + y1^-1*y2^-1*y5 + y1^-1*y2^-1*y3^-1*y4^-1*y5",
    2: "y4^-1*y5 + y3^-1*y5 + y2^-1*y5 + y2^-1*y3^-1*y4^-1*y5 + y1^-1*y5"
    " + y1^-1*y3^-1*y4^-1*y5 + y1^-1*y2^-1*y4^-1*y5 + y1^-1*y2^-1*y3^-1*y5",
    3: "y1 + y2 + y3 + y4 + y4^-1 + y3^-1 + y2^-1 + y1^-1",
    4: "y1*y2 + y1*y3 + y1*y4 + y1*y4^-1 + y1*y3^-1 + y1*y2^-1 + y2*y3 + y2*y4"
    " + y2*y4^-1 + y2*y3^-1 + y3*y4 + y3*y4^-1 + y3^-1*y4 + y3^-1*y4^-1"
    " + y2^-1*y3 + y2^-1*y4 + y2^-1*y4^-1 + y2^-1*y3^-1 + y1^-1*y2 + y1^-1*y3"
    " + y1^-1*y4 + y1^-1*y4^-1 + y1^-1*y3^-1 + y1^-1*y2^-1",
}
X_DIMENSIONS = (8, 8, 8, 24)

# One block of the stream: (kind, entry degree, member) for every request.
# Degrees are fixed per block and bounded so that every decision stays well
# under a second (an HT entry of degree 2 in the labels already takes about
# 0.2 s, degree 3 about 1 s).  A near-miss non-member sits beside each member.
BLOCK: Tuple[Tuple[str, int, bool], ...] = tuple(
    (kind, degree, member)
    for kind, top in (("Hb", 3), ("RX", 3), ("HT", 1), ("RT", 2))
    for degree in range(top + 1)
    for member in (True, False)
) + tuple(("expand", degree, True) for degree in (1, 1, 2, 2))


@dataclass(frozen=True)
class Request:
    kind: str
    member: bool  # expected verdict for gkm-check; True for expand
    argv: Tuple[str, ...]
    expected_dimension: Optional[int] = None  # expand only

    def to_dict(self) -> Dict:
        return dataclasses.asdict(self)

    @staticmethod
    def from_dict(data: Dict) -> "Request":
        return Request(**{**data, "argv": tuple(data["argv"])})


def _power(base: str, n: int) -> str:
    if n == 0:
        return ""
    return f"({base})" if n == 1 else f"({base})^{n}"


def _product(coeff: int, factors: Sequence[str]) -> str:
    parts = [str(coeff)] + [f for f in factors if f]
    return "*".join(parts)


def _sum(terms: Sequence[str]) -> str:
    return " + ".join(f"({t})" for t in terms) if terms else "0"


def _nonzero(rng: random.Random, span: int = 3) -> int:
    return rng.choice([c for c in range(-span, span + 1) if c])


# -- Hb and HT: polynomials in the restriction classes ---------------------------


def _restriction_tuple(
    rng: random.Random, labels: Dict[int, str], degree: int
) -> Dict[str, str]:
    """Entries c * b^e * c1^d1 * c2^d2 + c' * ..., with terms of ``degree``
    and ``degree - 1``.

    The coefficient b^e is the same at every vertex; c1, c2 are the vertex's
    restriction classes, so the tuple is the restriction of a global class.
    """
    terms = []
    for d in (degree, max(degree - 1, 0)):
        d1 = rng.randint(0, d)
        d2 = rng.randint(0, d - d1)
        terms.append((_nonzero(rng), rng.choice((1, 2)), d - d1 - d2, d1, d2))
    entries = {}
    for name in VERTICES:
        (s1, k1), (s2, k2) = RESTRICTIONS[name]
        entries[name] = _sum(
            [
                _product(
                    c * s1**d1 * s2**d2,
                    (
                        _power(labels[k_coef], e),
                        _power(labels[k1], d1),
                        _power(labels[k2], d2),
                    ),
                )
                for c, k_coef, e, d1, d2 in terms
            ]
        )
    return entries


def _perturbation_cohomology(rng: random.Random, ring: str) -> str:
    """A term that no label at the perturbed vertex divides."""
    c = _nonzero(rng)
    if ring == "Hb":
        # a power of one label is not divisible by the other two
        return _product(c, (_power(HB_LABELS[rng.randint(1, 3)], rng.randint(0, 2)),))
    # W-invariant, so the vertex still passes the invariance test
    return _product(c, (_power(HT_SQUARES, rng.randint(0, 1)),))


# -- RX and RT: Sigma_3 orbits of one X-polynomial --------------------------------

X_NAMES = {i: f"X{i}" for i in range(1, 5)}


def _x_polynomial(rng: random.Random, degree: int) -> List[Tuple[int, Tuple[int, ...]]]:
    """Two integer terms in X1..X4, of total ``degree`` and ``degree - 1``.

    Each term of degree d carries X4^(d // 2); the rest of its degree goes to
    X1..X3 at random.  The three are permuted by Sigma_3 and cost the same,
    while X4 has three times their weights, so fixing its exponent keeps
    the work of a request independent of the seed.
    """
    terms = []
    for d in (degree, max(degree - 1, 0)):
        exps = [0, 0, 0, d // 2]
        for _ in range(d - d // 2):
            exps[rng.randrange(3)] += 1
        terms.append((_nonzero(rng), tuple(exps)))
    return terms


def _x_text(terms, perm: Tuple[int, int, int], names: Dict[int, str]) -> str:
    """sigma . p: X_i -> X_sigma(i) for i = 1, 2, 3; X4 fixed."""
    image = (perm[0], perm[1], perm[2], 4)
    return _sum(
        [
            _product(c, [_power(names[image[i]], e) for i, e in enumerate(exps)])
            for c, exps in terms
        ]
    )


def _x_dimension(terms) -> int:
    total = 0
    for c, exps in terms:
        value = c
        for d, e in zip(X_DIMENSIONS, exps):
            value *= d**e
        total += value
    return total


def _orbit_tuple(rng: random.Random, ring: str, degree: int) -> Dict[str, str]:
    names = X_NAMES if ring == "RX" else X_CHARACTERS
    terms = _x_polynomial(rng, degree)
    return {name: _x_text(terms, PERMUTATIONS[name], names) for name in VERTICES}


def _perturbation_k(rng: random.Random, ring: str) -> str:
    c = _nonzero(rng)
    if ring == "RX":
        # no power of X4 is divisible by X_i - X_j
        return _product(c, (_power("X4", rng.randint(0, 1)),))
    # nonzero dimension, while every binomial product vanishes at the identity;
    # X1..X3 have the same size, so the choice does not change the work
    return _product(c, (_power(X_CHARACTERS[rng.randint(1, 3)], 1),))


# -- the stream --------------------------------------------------------------------


def _tuple_entries(
    rng: random.Random, ring: str, degree: int, perturbed: Optional[str]
) -> Dict[str, str]:
    """A member tuple, or with ``perturbed`` a near miss broken at that vertex."""
    if ring in ("Hb", "HT"):
        entries = _restriction_tuple(rng, HB_LABELS if ring == "Hb" else HT_LABELS, degree)
        perturb = _perturbation_cohomology
    else:
        entries = _orbit_tuple(rng, ring, degree)
        perturb = _perturbation_k
    if perturbed is not None:
        entries[perturbed] = f"{entries[perturbed]} + ({perturb(rng, ring)})"
    return entries


def generate(seed: int, blocks: int, directory: str, tag: str) -> List[Request]:
    """``blocks`` shuffled copies of BLOCK with contents drawn from ``seed``.

    Tuple files are written to ``directory``, named after ``tag``.  The
    non-members of block b are perturbed at vertex b mod 6: where a tuple
    breaks decides how many edges are tested before the first failure, so
    rotating it, rather than drawing it, keeps the work equal across seeds.
    """
    rng = random.Random(seed)
    out: List[Request] = []
    for b in range(blocks):
        perturbed = VERTICES[b % len(VERTICES)]
        specs = list(BLOCK)
        rng.shuffle(specs)
        for kind, degree, member in specs:
            if kind == "expand":
                terms = _x_polynomial(rng, degree)
                text = _x_text(terms, (1, 2, 3), X_CHARACTERS)
                argv = ("expand", text, "--ring", "RT")
                out.append(Request(kind, True, argv, _x_dimension(terms)))
                continue
            entries = _tuple_entries(rng, kind, degree, None if member else perturbed)
            path = os.path.join(directory, f"{tag}-{len(out):05d}-{kind}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump({"ring": kind, "entries": entries}, fh)
            argv = ("gkm-check", "--ring", kind, "--file", path)
            out.append(Request(kind, member, argv))
    return out


def judge(request: Request, code: Optional[int], stdout: str, stderr: str) -> bool:
    """True when one request's outcome is the expected one.

    ``code`` is None when ``main`` raised (a traceback).  Exit 2 is always a
    failure; gkm-check must exit 0 for a member and 1 for a non-member;
    expand must exit 0 and list weights summing to the expected dimension;
    a whole verify suite (used only by the tracer cross-check) must pass.
    """
    if code is None or code == 2 or "Traceback" in stderr:
        return False
    if request.kind == "verify":
        return code == 0
    if request.kind != "expand":
        return code == (0 if request.member else 1)
    if code != 0 or not stdout.strip():
        return False
    total = 0
    for line in stdout.splitlines()[1:]:
        head, sep, mult = line.rpartition("multiplicity ")
        if not sep:
            return False
        total += int(mult)
    return total == request.expected_dimension
