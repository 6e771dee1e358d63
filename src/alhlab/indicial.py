"""Indicial polynomials, roots, weights, and Fredholm windows for the
reduced radial operators.

Substituting x^gamma into a matrix b-operator and collecting the leading
x-power turns each cell into an exact polynomial in gamma.  The roots of
the determinant are the indicial roots; shifting by -1 gives the decay
weights at which the weighted problem degenerates.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, NamedTuple, Sequence, Tuple

import numpy as np

from .linalg import nullspace
from .ratfun import RatFun
from .operators import ModeReducedOp

__all__ = [
    "NotBTypeError", "IndicialPolynomial", "IndicialRoot", "WeightWindow",
    "indicial_poly", "indicial_roots", "weight_window", "is_fredholm_weight",
    "L2_CUTOFF",
]

#: Decay rate marking the square-integrability threshold for the reduced
#: radial problems; expansion fits keep roots strictly above it.
L2_CUTOFF = 1


class NotBTypeError(ValueError):
    """The operator's lowest x-weight is carried by a derivative-free
    term, so no regular-singular (b-type) leading structure exists."""


# ---------------------------------------------------------------------------
# univariate exact polynomials in gamma: list[Fraction], low degree first
# ---------------------------------------------------------------------------

GammaPoly = List[Fraction]


def _gp_trim(p: GammaPoly) -> GammaPoly:
    while p and p[-1] == 0:
        p.pop()
    return p


def _gp_add(a: GammaPoly, b: GammaPoly) -> GammaPoly:
    n = max(len(a), len(b))
    out = [Fraction(0)] * n
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] += c
    return _gp_trim(out)


def _gp_mul(a: GammaPoly, b: GammaPoly) -> GammaPoly:
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca == 0:
            continue
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return _gp_trim(out)


def _gp_scale(a: GammaPoly, c: Fraction) -> GammaPoly:
    if c == 0:
        return []
    return [c * x for x in a]


def _gp_neg(a: GammaPoly) -> GammaPoly:
    return [-x for x in a]


def _gp_eval(a: GammaPoly, g):
    acc = 0 * g if not isinstance(g, Fraction) else Fraction(0)
    for c in reversed(a):
        acc = acc * g + (c if isinstance(g, Fraction) else float(c))
    return acc


def _gp_deriv(a: GammaPoly) -> GammaPoly:
    return _gp_trim([i * c for i, c in enumerate(a)][1:])


def _gp_divmod(a: GammaPoly, b: GammaPoly):
    if not b:
        raise ZeroDivisionError("division by zero polynomial")
    a = list(a)
    q = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    while len(a) >= len(b) and a:
        coeff = a[-1] / b[-1]
        shift = len(a) - len(b)
        q[shift] = coeff
        for i, c in enumerate(b):
            a[shift + i] -= coeff * c
        _gp_trim(a)
    return _gp_trim(q), a


def _gp_monic(a: GammaPoly) -> GammaPoly:
    if not a:
        return []
    lead = a[-1]
    return [c / lead for c in a]


def _gp_gcd(a: GammaPoly, b: GammaPoly) -> GammaPoly:
    a, b = list(a), list(b)
    while b:
        _, r = _gp_divmod(a, b)
        a, b = b, r
    return _gp_monic(a)


def _falling(j: int) -> GammaPoly:
    """gamma (gamma-1) ... (gamma-j+1) as an exact polynomial."""
    out: GammaPoly = [Fraction(1)]
    for i in range(j):
        out = _gp_mul(out, [Fraction(-i), Fraction(1)])
    return out


def _rational_roots(p: GammaPoly):
    """All rational roots with multiplicities via the rational-root
    theorem and exact deflation; returns (roots, leftover factor)."""
    p = _gp_trim(list(p))
    roots = []
    # pull out roots at zero first
    while p and p[0] == 0:
        roots.append(Fraction(0))
        p = p[1:]
    if len(p) <= 1:
        return roots, p
    # clear denominators to integer coefficients
    from math import gcd as _igcd
    den_lcm = 1
    for c in p:
        den_lcm = den_lcm * c.denominator // _igcd(den_lcm, c.denominator)
    ip = [int(c * den_lcm) for c in p]
    g = 0
    for c in ip:
        g = _igcd(g, abs(c))
    if g > 1:
        ip = [c // g for c in ip]

    def divisors(n):
        n = abs(n)
        out = set()
        d = 1
        while d * d <= n:
            if n % d == 0:
                out.add(d)
                out.add(n // d)
            d += 1
        return sorted(out)

    changed = True
    while changed and len(ip) > 1:
        changed = False
        for num in divisors(ip[0]):
            for den in divisors(ip[-1]):
                for cand in (Fraction(num, den), Fraction(-num, den)):
                    frac_p = [Fraction(c) for c in ip]
                    if _gp_eval(frac_p, cand) == 0:
                        q, r = _gp_divmod(frac_p, [-cand, Fraction(1)])
                        assert not r
                        roots.append(cand)
                        # back to integers for the next pass
                        den_lcm = 1
                        for c in q:
                            den_lcm = den_lcm * c.denominator \
                                // _igcd(den_lcm, c.denominator)
                        ip = [int(c * den_lcm) for c in q]
                        g = 0
                        for c in ip:
                            g = _igcd(g, abs(c))
                        if g > 1:
                            ip = [c // g for c in ip]
                        if ip and ip[0] == 0:
                            while ip and ip[0] == 0:
                                roots.append(Fraction(0))
                                ip = ip[1:]
                        changed = True
                        break
                if changed:
                    break
            if changed:
                break
    return roots, [Fraction(c) for c in ip]


# ---------------------------------------------------------------------------
# indicial data
# ---------------------------------------------------------------------------

class IndicialRoot(NamedTuple):
    root: object           # Fraction when exact, complex otherwise
    multiplicity: int
    nullvectors: tuple     # basis of the nullspace of M(root)


class WeightWindow(NamedTuple):
    weights: Tuple[Fraction, ...]

    def is_fredholm(self, c) -> bool:
        for w in self.weights:
            if isinstance(w, Fraction) and isinstance(c, Fraction):
                if w == c:
                    return False
            elif abs(complex(w) - complex(c)) < 1e-12:
                return False
        return True


class IndicialPolynomial:
    """Square matrix of exact polynomials in the indicial variable."""

    def __init__(self, matrix: Sequence[Sequence[GammaPoly]], var: str,
                 sigma_min: Fraction):
        self.matrix = [[_gp_trim(list(cell)) for cell in row]
                       for row in matrix]
        self.size = len(matrix)
        self.var = var
        self.sigma_min = sigma_min
        self._det = None

    def entry(self, i: int, j: int) -> GammaPoly:
        return self.matrix[i][j]

    def det(self) -> GammaPoly:
        """Exact determinant by column-subset dynamic programming."""
        if self._det is not None:
            return self._det
        n = self.size
        # state: bitmask of columns already used by rows 0..r-1
        prev = {0: [Fraction(1)]}
        for r in range(n):
            nxt = {}
            for mask, poly in prev.items():
                for c in range(n):
                    bit = 1 << c
                    if mask & bit:
                        continue
                    cell = self.matrix[r][c]
                    if not cell:
                        continue
                    sign = -1 if (bin(mask >> (c + 1)).count("1") % 2) else 1
                    # parity of used columns above c gives the Laplace sign
                    term = _gp_mul(poly, cell)
                    if sign < 0:
                        term = _gp_neg(term)
                    key = mask | bit
                    nxt[key] = _gp_add(nxt.get(key, []), term)
            prev = nxt
        self._det = prev.get((1 << n) - 1, [])
        return self._det

    def evaluate(self, gamma):
        """Matrix of values at a given gamma (exact for Fraction)."""
        return [[_gp_eval(cell, gamma) for cell in row]
                for row in self.matrix]

    def nullspace(self, gamma):
        """Basis of the kernel of M(gamma); exact RREF for Fractions,
        SVD for inexact roots."""
        mat = self.evaluate(gamma)
        if isinstance(gamma, Fraction):
            return nullspace(mat)
        arr = np.array([[complex(v) for v in row] for row in mat])
        _, s, vh = np.linalg.svd(arr)
        tol = 1e-10 * max(1.0, float(s[0]) if len(s) else 1.0)
        basis = [tuple(vh[i].conj()) for i in range(len(vh))
                 if i >= len(s) or s[i] < tol]
        return basis


# ---------------------------------------------------------------------------
# extraction from a reduced operator
# ---------------------------------------------------------------------------

def _leading_data(coeff: RatFun, var: str):
    """(valuation, leading Fraction coefficient) of a one-variable
    rational function at var -> 0."""
    from .ratfun import _VIDX
    vi = _VIDX[var]
    extra = [v for v in coeff.variables() if v != var]
    if extra:
        raise ValueError(
            f"coefficient {coeff} depends on {extra}; cannot take an "
            f"indicial limit in {var}")

    def low(poly):
        val, lead = None, None
        for exps, c in poly.terms.items():
            e = exps[vi]
            if val is None or e < val:
                val, lead = e, c
            elif e == val:
                lead += c
        return val, lead

    nv, nc = low(coeff.num)
    dv, dc = low(coeff.den)
    return nv - dv, nc / dc


def indicial_poly(op: ModeReducedOp) -> IndicialPolynomial:
    """Exact indicial matrix polynomial of a reduced radial operator.

    Each term c(x) d^j with c = c0 x^v + ... carries weight v - j.  The
    cells collect c0 * gamma(gamma-1)...(gamma-j+1) over the terms of
    globally minimal weight.  A derivative-free term strictly below
    every derivative term leaves no regular-singular structure and
    raises NotBTypeError.
    """
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
    matrix = [[[] for _ in range(op.size)] for _ in range(op.size)]
    for (i, j, order, sigma, c0) in data:
        if sigma == sigma_min:
            matrix[i][j] = _gp_add(matrix[i][j],
                                   _gp_scale(_falling(order), c0))
    return IndicialPolynomial(matrix, op.var, sigma_min)


def indicial_roots(M: IndicialPolynomial):
    """Sorted (root, multiplicity, nullspace basis) triples for
    det M(gamma) = 0.  Rational roots (half-integers included) are exact;
    any leftover factor falls back to companion-matrix eigenvalues."""
    det = M.det()
    if not det:
        raise ValueError("indicial determinant is identically zero")
    # multiplicity structure from gcd with the derivative
    rational, leftover = _rational_roots(det)
    counts = {}
    for r in rational:
        counts[r] = counts.get(r, 0) + 1
    # cross-check multiplicities: square-free part via gcd
    if len(leftover) <= 1 and len(det) > 1:
        g = _gp_gcd(det, _gp_deriv(det))
        sf_degree = (len(det) - 1) - (len(g) - 1)
        if sf_degree != len(counts):
            raise AssertionError(
                "square-free degree disagrees with deflation count")
    results = []
    for root, mult in counts.items():
        basis = tuple(M.nullspace(root))
        results.append(IndicialRoot(root, mult, basis))
    if len(leftover) > 1:
        coeffs = [float(c) for c in reversed(leftover)]
        for z in np.roots(coeffs):
            z = complex(z)
            if abs(z.imag) < 1e-12:
                z = z.real
            basis = tuple(M.nullspace(z))
            results.append(IndicialRoot(z, 1, basis))
    results.sort(key=lambda t: (float(t.root.real),
                                float(getattr(t.root, "imag", 0))))
    return results


def weight_window(roots) -> WeightWindow:
    """Indicial weights (root - 1 each) collected into a window object."""
    vals = []
    for r in roots:
        root = r.root if hasattr(r, "root") else r
        if isinstance(root, (Fraction, int)):
            vals.append(Fraction(root) - 1)
        else:
            z = complex(root) - 1
            vals.append(z.real if z.imag == 0 else z)
    uniq = []
    for v in sorted(vals, key=lambda v: (complex(v).real, complex(v).imag)):
        if not uniq or abs(complex(v) - complex(uniq[-1])) > 1e-12:
            uniq.append(v)
    return WeightWindow(tuple(uniq))


def is_fredholm_weight(w: WeightWindow, c) -> bool:
    """True exactly off the indicial-weight set."""
    if isinstance(c, float) and not isinstance(c, bool):
        cc = c
    else:
        cc = Fraction(c)
    return w.is_fredholm(cc)
