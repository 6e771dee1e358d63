"""Indicial polynomials, roots, weights, and Fredholm windows for the
reduced radial operators.

Substituting x^gamma into a matrix b-operator and collecting the leading
x-power turns each cell into an exact polynomial in gamma: a
``ratfun.Poly`` in the formal variable ``t``.  The roots of the
determinant, taken by ``linalg.det``, are the indicial roots; shifting by
-1 gives the decay weights at which the weighted problem degenerates.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from itertools import chain
from typing import List, NamedTuple, Sequence, Tuple

from .linalg import det, nullspace
from .ratfun import Poly, RatFun, exact_div, is_exact, poly_gcd
from .operators import ModeReducedOp

__all__ = [
    "NotBTypeError", "IndicialPolynomial", "IndicialRoot", "WeightWindow",
    "indicial_poly", "indicial_roots", "weight_window", "is_fredholm_weight",
    "on_weight",
]

#: the formal variable that stands for gamma in every indicial polynomial
_GAMMA = "t"


class NotBTypeError(ValueError):
    """The operator's lowest x-weight is carried by a derivative-free
    term, so no regular-singular (b-type) leading structure exists."""


# ---------------------------------------------------------------------------
# univariate polynomials in gamma
# ---------------------------------------------------------------------------

def _coeffs(p: Poly) -> List[Fraction]:
    """Coefficients of a polynomial in gamma, low degree first; [] for 0."""
    u = p.coefficients_in(_GAMMA)
    return [u[d].constant_value() if d in u else Fraction(0)
            for d in range(max(u, default=-1) + 1)]


def _primitive(p: Poly) -> List[int]:
    """Coefficients of the primitive integer multiple of p that keeps
    the sign of its leading coefficient, low degree first."""
    coeffs = _coeffs(p)
    den = math.lcm(*(c.denominator for c in coeffs))
    ints = [c.numerator * (den // c.denominator) for c in coeffs]
    content = math.gcd(*ints)
    return [c // content for c in ints]


def _falling(j: int) -> Poly:
    """gamma (gamma-1) ... (gamma-j+1) as an exact polynomial."""
    out = Poly.const(1)
    for i in range(j):
        out = out * (Poly.var(_GAMMA) - i)
    return out


def _divisors(n: int) -> List[int]:
    n = abs(n)
    return sorted({q for d in range(1, math.isqrt(n) + 1) if n % d == 0
                   for q in (d, n // d)})


def _rational_roots(p: Poly):
    """Rational roots of p with multiplicities, and the factor of p left
    after deflating them all.

    Candidates come from the rational-root theorem on the squarefree part
    p / gcd(p, p'); each is tested and deflated exactly.  When nothing is
    left over, the squarefree degree must equal the number of roots.
    """
    sqf = exact_div(p, poly_gcd(p, p.derive(_GAMMA)))
    degree = sqf.degree_in(_GAMMA)
    coeffs = _primitive(sqf)
    dens = _divisors(coeffs[-1])
    candidates = (Fraction(sign * num, den)
                  for num in _divisors(next(c for c in coeffs if c))
                  for den in dens for sign in (1, -1))
    roots = {}
    for cand in chain([Fraction(0)], candidates):
        if sqf.is_constant():
            break
        if sqf.evaluate({_GAMMA: cand}) != 0:
            continue
        factor = Poly.var(_GAMMA) - cand
        sqf = exact_div(sqf, factor)
        roots[cand] = 0
        while p.evaluate({_GAMMA: cand}) == 0:
            p = exact_div(p, factor)
            roots[cand] += 1
    if p.is_constant() and len(roots) != degree:
        raise AssertionError(
            "square-free degree disagrees with deflation count")
    return roots, p


# ---------------------------------------------------------------------------
# indicial data
# ---------------------------------------------------------------------------

class IndicialRoot(NamedTuple):
    root: object           # Fraction when exact, complex otherwise
    multiplicity: int
    nullvectors: tuple     # basis of the nullspace of M(root)


class WeightWindow(NamedTuple):
    weights: Tuple[Fraction, ...]


def on_weight(a, b) -> bool:
    """Whether a root or weight ``a`` sits on ``b``: exact equality when
    both are exact (``ratfun.is_exact``), agreement to 1e-12 otherwise."""
    if is_exact(a) and is_exact(b):
        return a == b
    return abs(complex(a) - complex(b)) < 1e-12


class IndicialPolynomial:
    """Square matrix of exact polynomials in the indicial variable."""

    def __init__(self, matrix: Sequence[Sequence[Poly]], var: str):
        self.matrix = matrix
        self.size = len(matrix)
        self.var = var

    @cached_property
    def _det(self) -> Poly:
        return det(self.matrix)

    @cached_property
    def _roots(self) -> tuple:
        """The sorted roots that ``indicial_roots`` hands out."""
        if self._det.is_zero():
            raise ValueError("indicial determinant is identically zero")
        rational, leftover = _rational_roots(self._det)
        results = [IndicialRoot(root, mult, tuple(self.nullspace(root)))
                   for root, mult in rational.items()]
        if not leftover.is_constant():
            import numpy as np
            for z in np.roots([float(c)
                               for c in reversed(_primitive(leftover))]):
                z = complex(z)
                if abs(z.imag) < 1e-12:
                    z = z.real
                results.append(IndicialRoot(z, 1, tuple(self.nullspace(z))))
        results.sort(key=lambda t: (float(t.root.real),
                                    float(getattr(t.root, "imag", 0))))
        return tuple(results)

    def entry(self, i: int, j: int) -> List[Fraction]:
        """Coefficients of cell (i, j), low degree first."""
        return _coeffs(self.matrix[i][j])

    def det(self) -> List[Fraction]:
        """Coefficients of det M(gamma), low degree first."""
        return _coeffs(self._det)

    def evaluate(self, gamma):
        """Matrix of values at a given gamma; exact for ints and
        Fractions."""
        if is_exact(gamma):
            return [[cell.evaluate({_GAMMA: gamma}) for cell in row]
                    for row in self.matrix]
        return [[RatFun(cell).lambdify([_GAMMA])(gamma) for cell in row]
                for row in self.matrix]

    def nullspace(self, gamma):
        """Basis of the kernel of M(gamma); exact RREF for ints and
        Fractions, SVD for inexact roots."""
        mat = self.evaluate(gamma)
        if is_exact(gamma):
            return nullspace(mat)
        import numpy as np
        arr = np.array([[complex(v) for v in row] for row in mat])
        _, s, vh = np.linalg.svd(arr)
        tol = 1e-10 * max(1.0, float(s[0]) if len(s) else 1.0)
        return [tuple(vh[i].conj()) for i in range(len(vh))
                if i >= len(s) or s[i] < tol]


# ---------------------------------------------------------------------------
# extraction from a reduced operator
# ---------------------------------------------------------------------------

def _leading_data(coeff: RatFun, var: str):
    """(valuation, leading Fraction coefficient) of a one-variable
    rational function at var -> 0."""
    extra = [v for v in coeff.variables() if v != var]
    if extra:
        raise ValueError(
            f"coefficient {coeff} depends on {extra}; cannot take an "
            f"indicial limit in {var}")
    return (coeff.valuation(var),
            coeff.leading_coefficient(var).constant_value())


def indicial_poly(op: ModeReducedOp) -> IndicialPolynomial:
    """Exact indicial matrix polynomial of a reduced radial operator,
    computed once per operator and kept on it.

    Each term c(x) d^j with c = c0 x^v + ... carries weight v - j.  The
    cells collect c0 * gamma(gamma-1)...(gamma-j+1) over the terms of
    globally minimal weight.  A derivative-free term strictly below
    every derivative term leaves no regular-singular structure and
    raises NotBTypeError.
    """
    if op._indicial is not None:
        return op._indicial
    data = []  # (i, j, order, sigma, c0)
    sigma_min = None
    sigma_d = None
    for i in range(op.size):
        for j in range(op.size):
            for order, coeff in op.entries[i][j].items():
                v, c0 = _leading_data(coeff, op.var)
                sigma = Fraction(v - order)
                data.append((i, j, order, sigma, c0))
                if sigma_min is None or sigma < sigma_min:
                    sigma_min = sigma
                if order >= 1 and (sigma_d is None or sigma < sigma_d):
                    sigma_d = sigma
    if sigma_min is None:
        raise ValueError("zero operator has no indicial polynomial")
    if sigma_d is None or sigma_min < sigma_d:
        bad = [(i, j, order) for (i, j, order, sigma, _) in data
               if sigma == sigma_min and order == 0]
        i, j, order = bad[0]
        raise NotBTypeError(
            f"derivative-free term in cell ({i},{j}) has weight "
            f"{sigma_min} strictly below the least derivative weight "
            f"{sigma_d}; no b-type leading structure")
    matrix = [[Poly() for _ in range(op.size)] for _ in range(op.size)]
    for (i, j, order, sigma, c0) in data:
        if sigma == sigma_min:
            matrix[i][j] = matrix[i][j] + _falling(order).scale(c0)
    op._indicial = IndicialPolynomial(matrix, op.var)
    return op._indicial


def indicial_roots(M: IndicialPolynomial):
    """Sorted (root, multiplicity, nullspace basis) triples for
    det M(gamma) = 0, as a new list each call; they are computed once
    per ``IndicialPolynomial``.  Rational roots (half-integers included)
    are exact; any leftover factor falls back to companion-matrix
    eigenvalues."""
    return list(M._roots)


def weight_window(roots) -> WeightWindow:
    """Indicial weights (root - 1 each) collected into a window object."""
    vals = []
    for r in roots:
        root = r.root if hasattr(r, "root") else r
        if is_exact(root):
            vals.append(Fraction(root) - 1)
        else:
            z = complex(root) - 1
            vals.append(z.real if z.imag == 0 else z)
    uniq = []
    for v in sorted(vals, key=lambda v: (complex(v).real, complex(v).imag)):
        if not uniq or not on_weight(v, uniq[-1]):
            uniq.append(v)
    return WeightWindow(tuple(uniq))


def is_fredholm_weight(w: WeightWindow, c) -> bool:
    """True exactly off the indicial-weight set, by ``on_weight``."""
    return not any(on_weight(v, c) for v in w.weights)
