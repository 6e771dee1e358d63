"""Exact multivariate rational functions with rational coefficients.

This is the symbolic substrate for the whole package: metric components,
form coefficients, and operator coefficients are all RatFun values, so
geometric identities (Ricci-flatness, operator regroupings, wedge
relations) can be asserted exactly instead of to a tolerance.

Representation
--------------
A polynomial is a sparse map  exponent-tuple -> Fraction  over the fixed
variable universe ``VARIABLES``.  Monomials are ordered graded-lex
(total degree first, then lexicographic in the declared variable order),
which makes leading terms -- and therefore canonical forms -- deterministic.

A RatFun is a pair (numerator, denominator) kept in canonical form:

* numerator and denominator share no polynomial factor,
* the denominator's grlex-leading coefficient is 1,
* zero is represented as 0/1.

Arithmetic keeps this form by construction.  Where nothing can cancel
there is no gcd at all: a zero or constant operand, a polynomial summand
(gcd(n + p d, d) = gcd(n, d) = 1), and a power of a canonical pair.  The
general ``*``, ``/`` and ``+`` cancel across (Henrici): a product takes
gcd(n1, d2) and gcd(n2, d1) before multiplying the cofactors, and a sum
takes g = gcd(d1, d2) and then cancels only gcd(t, g) from its numerator
t.  A sum over equal denominators takes one gcd of the full result, as it
always has; a quotient over them cancels the shared denominator and takes
the gcd of the two numerators.  A derivative takes g = gcd(d, d') and
cancels only gcd(t, g) from its numerator t, never a gcd against d².

GCDs use monomial fast paths (every model-metric denominator is a
monomial, so curvature computations never enter the general routine).
The general case is a heuristic gcd over the integers, whose every answer
is checked by exact division, backed by a primitive pseudo-remainder
sequence for the rare inputs where the heuristic gives up.

Evaluation is exact: :func:`rf_eval` and :meth:`RatFun.evaluate` take ints
and Fractions only.  :meth:`RatFun.lambdify` is the one float evaluator.
"""

from __future__ import annotations

import math
from fractions import Fraction

VARIABLES = ("x", "r", "y1", "y2", "s", "s_prime", "S", "Y1", "Y2", "t", "c")
_VIDX = {name: i for i, name in enumerate(VARIABLES)}
_N = len(VARIABLES)
_ZEXP = (0,) * _N

#: Total-degree cap on polynomial products.  Curvature of rational metrics
#: can blow up intermediate degrees; we fail loudly rather than slowly.
DEGREE_CAP = 64


class DegreeOverflowError(ArithmeticError):
    """A polynomial product exceeded the configured total-degree cap."""


class PoleError(ZeroDivisionError):
    """Evaluation hit a zero of the denominator."""


def set_degree_cap(cap: int) -> None:
    global DEGREE_CAP
    if cap < 1:
        raise ValueError("degree cap must be positive")
    DEGREE_CAP = cap


def is_exact(value) -> bool:
    """The one exactness rule: ints and Fractions are exact values;
    floats, complex numbers and anything else are not."""
    return isinstance(value, (int, Fraction))


def _grlex(exp):
    return (sum(exp), exp)


def _check_var(name: str) -> int:
    try:
        return _VIDX[name]
    except KeyError:
        raise KeyError(
            f"unknown variable {name!r}; universe is {VARIABLES}") from None


class Poly:
    """Sparse exact polynomial over ``VARIABLES``.  Immutable by convention."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        t = {}
        if terms:
            for exp, coeff in terms.items():
                c = Fraction(coeff)
                if c:
                    t[tuple(exp)] = c
        self.terms = t

    # -- constructors -------------------------------------------------

    @staticmethod
    def const(q) -> "Poly":
        q = Fraction(q)
        return Poly({_ZEXP: q}) if q else Poly()

    @staticmethod
    def var(name: str, power: int = 1) -> "Poly":
        i = _check_var(name)
        if power < 0:
            raise ValueError("Poly exponents must be nonnegative; use RatFun")
        exp = [0] * _N
        exp[i] = power
        return Poly({tuple(exp): Fraction(1)})

    # -- predicates / queries -----------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and _ZEXP in self.terms)

    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    def constant_value(self) -> Fraction:
        if not self.terms:
            return Fraction(0)
        if not self.is_constant():
            raise ValueError("not a constant polynomial")
        return self.terms[_ZEXP]

    def total_degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

    def degree_in(self, name: str) -> int:
        i = _check_var(name)
        return max((e[i] for e in self.terms), default=0)

    def min_degree_in(self, name: str) -> int:
        i = _check_var(name)
        return min((e[i] for e in self.terms), default=0)

    def variables(self):
        used = set()
        for e in self.terms:
            for i, p in enumerate(e):
                if p:
                    used.add(VARIABLES[i])
        return used

    def leading(self):
        """(exponent, coefficient) of the grlex-largest monomial."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        e = max(self.terms, key=_grlex)
        return e, self.terms[e]

    def monomial_content(self):
        """Exponent-wise min over all terms (the common monomial factor)."""
        if not self.terms:
            return _ZEXP
        its = iter(self.terms)
        acc = list(next(its))
        for e in its:
            for i in range(_N):
                if e[i] < acc[i]:
                    acc[i] = e[i]
        return tuple(acc)

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        other = _as_poly(other)
        t = dict(self.terms)
        for e, c in other.terms.items():
            s = t.get(e, Fraction(0)) + c
            if s:
                t[e] = s
            elif e in t:
                del t[e]
        out = Poly.__new__(Poly)
        out.terms = t
        return out

    __radd__ = __add__

    def __neg__(self):
        out = Poly.__new__(Poly)
        out.terms = {e: -c for e, c in self.terms.items()}
        return out

    def __sub__(self, other):
        return self + (-_as_poly(other))

    def __rsub__(self, other):
        return _as_poly(other) + (-self)

    def _mul_raw(self, other: "Poly") -> "Poly":
        t = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = t.get(e, Fraction(0)) + c1 * c2
                if s:
                    t[e] = s
                elif e in t:
                    del t[e]
        out = Poly.__new__(Poly)
        out.terms = t
        return out

    def __mul__(self, other):
        other = _as_poly(other)
        if other.is_constant():
            return self.scale(other.constant_value())
        if self.is_constant():
            return other.scale(self.constant_value())
        if self.total_degree() + other.total_degree() > DEGREE_CAP:
            raise DegreeOverflowError(
                f"product degree {self.total_degree()} + {other.total_degree()}"
                f" exceeds cap {DEGREE_CAP}")
        return self._mul_raw(other)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power on Poly; use RatFun")
        out = Poly.const(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
        return out

    def scale(self, q) -> "Poly":
        q = Fraction(q)
        if not q:
            return Poly()
        if q == 1:
            return self
        out = Poly.__new__(Poly)
        out.terms = {e: c * q for e, c in self.terms.items()}
        return out

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.const(other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    # -- calculus / evaluation ----------------------------------------

    def derive(self, name: str) -> "Poly":
        i = _check_var(name)
        t = {}
        for e, c in self.terms.items():
            p = e[i]
            if p:
                ne = list(e)
                ne[i] = p - 1
                ne = tuple(ne)
                s = t.get(ne, Fraction(0)) + c * p
                if s:
                    t[ne] = s
                elif ne in t:
                    del t[ne]
        out = Poly.__new__(Poly)
        out.terms = t
        return out

    def evaluate(self, point: dict) -> Fraction:
        """Exact value at a point of ints and Fractions; floats go through
        :meth:`RatFun.lambdify`."""
        slots = [i for i, col in enumerate(zip(*self.terms)) if any(col)]
        missing = [VARIABLES[i] for i in slots if VARIABLES[i] not in point]
        if missing:
            raise KeyError(f"no value supplied for {sorted(missing)}")
        values = []
        for i in slots:
            v = point[VARIABLES[i]]
            if not is_exact(v):
                raise TypeError(
                    f"evaluate is exact: {VARIABLES[i]} = {v!r} is a "
                    f"{type(v).__name__}; use RatFun.lambdify for floats")
            values.append(Fraction(v))
        total = Fraction(0)
        for e, c in self.terms.items():
            for i, v in zip(slots, values):
                if e[i]:
                    c *= v ** e[i]
            total += c
        return total

    def subst(self, mapping: dict) -> "RatFun":
        """Substitute RatFun values for variables; others stay symbolic."""
        out = RatFun.const(0)
        for e, c in self.terms.items():
            term = RatFun.const(c)
            for i, p in enumerate(e):
                if p:
                    name = VARIABLES[i]
                    if name in mapping:
                        term = term * (_as_ratfun(mapping[name]) ** p)
                    else:
                        term = term * RatFun(Poly.var(name, p))
            out = out + term
        return out

    # -- display --------------------------------------------------------

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms, key=_grlex, reverse=True):
            c = self.terms[e]
            factors = []
            for i, p in enumerate(e):
                if p == 1:
                    factors.append(VARIABLES[i])
                elif p > 1:
                    factors.append(f"{VARIABLES[i]}^{p}")
            body = "*".join(factors)
            if not body:
                parts.append(str(c))
            elif c == 1:
                parts.append(body)
            elif c == -1:
                parts.append(f"-{body}")
            else:
                parts.append(f"{c}*{body}")
        s = " + ".join(parts).replace("+ -", "- ")
        return s


_ONE = Poly.const(1)


def _as_poly(v) -> Poly:
    if isinstance(v, Poly):
        return v
    if isinstance(v, (int, Fraction)):
        return Poly.const(v)
    raise TypeError(f"cannot coerce {type(v).__name__} to Poly")


# ---------------------------------------------------------------------------
# polynomial division and gcd
# ---------------------------------------------------------------------------

def exact_div(a: Poly, g: Poly) -> Poly:
    """Exact polynomial quotient a/g; raises ValueError if not divisible.

    grlex is a multiplicative monomial order, so when g | a the leading
    term of g always divides the leading term of the running remainder.
    """
    if g.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    if a.is_zero():
        return Poly()
    ge, gc = g.leading()
    q = {}
    rem = a
    while not rem.is_zero():
        re, rc = rem.leading()
        qe = tuple(x - y for x, y in zip(re, ge))
        if any(p < 0 for p in qe):
            raise ValueError("not exactly divisible")
        qc = rc / gc
        q[qe] = qc
        mono = Poly({qe: qc})
        rem = rem - mono._mul_raw(g)
    return Poly(q)


def _univar(p: Poly, i: int):
    """View p as a polynomial in variable i with Poly coefficients."""
    coeffs = {}
    for e, c in p.terms.items():
        d = e[i]
        rest = list(e)
        rest[i] = 0
        rest = tuple(rest)
        coeffs.setdefault(d, {})[rest] = c
    return {d: Poly(t) for d, t in coeffs.items()}


def _shift(p: Poly, i: int, d: int) -> Poly:
    t = {}
    for e, c in p.terms.items():
        ne = list(e)
        ne[i] += d
        t[tuple(ne)] = c
    out = Poly.__new__(Poly)
    out.terms = t
    return out


def _prem(a: Poly, b: Poly, i: int) -> Poly:
    """Pseudo-remainder of a by b with respect to variable i."""
    ub = _univar(b, i)
    db = max(ub)
    lb = ub[db]
    rem = a
    while not rem.is_zero():
        ur = _univar(rem, i)
        dr = max(ur)
        if dr < db:
            break
        lr = ur[dr]
        # lb*rem - lr*v^(dr-db)*b : leading v-terms cancel exactly
        rem = lb._mul_raw(rem) - _shift(lr, i, dr - db)._mul_raw(b)
    return rem


def _content_pp(p: Poly, i: int):
    """Content (gcd of v^i-coefficients) and primitive part of p wrt var i."""
    u = _univar(p, i)
    cont = Poly()
    for coeff in u.values():
        cont = poly_gcd(cont, coeff)
        if cont.is_constant():
            break
    if cont.is_constant():
        return Poly.const(1), p
    return cont, exact_div(p, cont)


def _monic(p: Poly) -> Poly:
    if p.is_zero():
        return p
    _, lc = p.leading()
    return p.scale(1 / lc)


def _zdivides(d: dict, f: dict) -> bool:
    """True when the integer polynomial d divides f in Z[VARIABLES].

    d is primitive, so by Gauss's lemma a quotient over Q is integral and
    the first non-integral quotient coefficient already settles it.
    """
    de, dc = max(d.items(), key=lambda ec: _grlex(ec[0]))
    rem = dict(f)
    while rem:
        re = max(rem, key=_grlex)
        qe = tuple(x - y for x, y in zip(re, de))
        if min(qe) < 0:
            return False
        qc, r = divmod(rem[re], dc)
        if r:
            return False
        for e, c in d.items():
            e = tuple(x + y for x, y in zip(e, qe))
            s = rem.get(e, 0) - qc * c
            if s:
                rem[e] = s
            else:
                del rem[e]
    return True


def _zz_gcd(f: dict, g: dict):
    """GCD in Z[VARIABLES] of nonzero integer polynomials, or None.

    The heuristic gcd of Char, Geddes and Gonnet: evaluate one variable at
    a large integer xi, take the gcd of the images recursively, read the
    candidate back from its symmetric base-xi digits and keep it only if
    it divides both inputs, which makes it the gcd.  Gives up (None) after
    six values of xi.
    """
    cf, cg = math.gcd(*f.values()), math.gcd(*g.values())
    c = math.gcd(cf, cg)
    if (_ZEXP in f and len(f) == 1) or (_ZEXP in g and len(g) == 1):
        return {_ZEXP: c}
    f = {e: v // cf for e, v in f.items()}
    g = {e: v // cg for e, v in g.items()}
    # evaluate the last variable occurring in either input
    i = max(i for e in (*f, *g) for i in range(_N) if e[i])
    fn, gn = max(map(abs, f.values())), max(map(abs, g.values()))
    flc = abs(max(f.items(), key=lambda ec: _grlex(ec[0]))[1])
    glc = abs(max(g.items(), key=lambda ec: _grlex(ec[0]))[1])
    bound = 2 * min(fn, gn) + 29
    xi = max(min(bound, 99 * math.isqrt(bound)),
             2 * min(fn // flc, gn // glc) + 4)
    for _ in range(6):
        images = []
        for p in (f, g):
            t = {}
            for e, v in p.items():
                if e[i]:
                    v *= xi ** e[i]
                    e = e[:i] + (0,) + e[i + 1:]
                s = t.get(e, 0) + v
                if s:
                    t[e] = s
                else:
                    t.pop(e, None)
            images.append(t)
        if images[0] and images[1]:
            h = _zz_gcd(*images)
            if h is None:
                return None
            cand = {}
            for e, v in h.items():
                k = 0
                while v:
                    digit = v % xi
                    if digit > xi // 2:
                        digit -= xi
                    if digit:
                        cand[e[:i] + (k,) + e[i + 1:]] = digit
                    v = (v - digit) // xi
                    k += 1
            hc = math.gcd(*cand.values())
            cand = {e: v // hc for e, v in cand.items()}
            if _zdivides(cand, f) and _zdivides(cand, g):
                return {e: v * c for e, v in cand.items()}
        xi = 73794 * xi * math.isqrt(math.isqrt(xi)) // 27011
    return None


def _integral(p: Poly) -> dict:
    """The integer polynomial p * lcm(denominators), as a dict."""
    den = math.lcm(*(c.denominator for c in p.terms.values()))
    return {e: c.numerator * (den // c.denominator)
            for e, c in p.terms.items()}


def _prs_gcd(pa: Poly, pb: Poly, i: int) -> Poly:
    """GCD by a primitive pseudo-remainder sequence in variable i."""
    ca, ppa = _content_pp(pa, i)
    cb, ppb = _content_pp(pb, i)
    cg = poly_gcd(ca, cb)
    ppa, ppb = _monic(ppa), _monic(ppb)
    if ppa.degree_in(VARIABLES[i]) < ppb.degree_in(VARIABLES[i]):
        ppa, ppb = ppb, ppa
    while True:
        r = _prem(ppa, ppb, i)
        if r.is_zero():
            g = ppb
            break
        if r.degree_in(VARIABLES[i]) == 0:
            g = Poly.const(1)
            break
        _, r = _content_pp(r, i)
        rm = r.monomial_content()
        if any(rm):
            r = Poly({tuple(e - m for e, m in zip(exp, rm)): c
                      for exp, c in r.terms.items()})
        # rational rescale (a unit) keeps coefficient growth polynomial;
        # without it the effectively-univariate PRS squares its fractions
        # at every step
        ppa, ppb = ppb, _monic(r)
    if not g.is_constant():
        _, g = _content_pp(g, i)
    return cg._mul_raw(g)


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """GCD over the rationals, normalized grlex-monic.

    Monomial contents are split off first; that alone settles every
    denominator arising from the model metrics.  The general case tries
    the heuristic integer gcd and falls back to a primitive
    pseudo-remainder sequence recursing on the variable set.
    """
    if a.is_zero():
        return _monic(b)
    if b.is_zero():
        return _monic(a)
    ma, mb = a.monomial_content(), b.monomial_content()
    mg = tuple(min(x, y) for x, y in zip(ma, mb))
    pa = Poly({tuple(e - m for e, m in zip(exp, ma)): c
               for exp, c in a.terms.items()})
    pb = Poly({tuple(e - m for e, m in zip(exp, mb)): c
               for exp, c in b.terms.items()})
    mono = Poly({mg: Fraction(1)})
    if pa.is_constant() or pb.is_constant():
        return mono
    shared = sorted(_VIDX[v] for v in (pa.variables() & pb.variables()))
    if not shared:
        # a common factor can only involve variables occurring in both
        return mono
    h = _zz_gcd(_integral(pa), _integral(pb))
    if h is None:
        g = _prs_gcd(pa, pb, shared[0])
    else:
        g = Poly({e: Fraction(v) for e, v in h.items()})
    return _monic(mono._mul_raw(g))


# ---------------------------------------------------------------------------
# RatFun
# ---------------------------------------------------------------------------

class RatFun:
    """Canonical-form rational function: coprime num/den, monic denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None, _canonical=False):
        num = _as_poly(num)
        den = Poly.const(1) if den is None else _as_poly(den)
        if den.is_zero():
            raise ZeroDivisionError("RatFun denominator is identically zero")
        if not _canonical:
            num, den = _canonicalize(num, den)
        self.num = num
        self.den = den

    # -- constructors ---------------------------------------------------

    @staticmethod
    def const(q) -> "RatFun":
        return RatFun(Poly.const(q), Poly.const(1), _canonical=True)

    @staticmethod
    def var(name: str, power: int = 1) -> "RatFun":
        if power >= 0:
            return RatFun(Poly.var(name, power), Poly.const(1), _canonical=True)
        return RatFun(Poly.const(1), Poly.var(name, -power), _canonical=True)

    # -- predicates ------------------------------------------------------

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_constant(self) -> bool:
        return self.num.is_constant() and self.den.is_constant()

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise ValueError(f"not a constant: {self!r}")
        if self.num.is_zero():
            return Fraction(0)
        return self.num.constant_value() / self.den.constant_value()

    def variables(self):
        return self.num.variables() | self.den.variables()

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        other = _as_ratfun(other)
        n1, d1, n2, d2 = self.num, self.den, other.num, other.den
        if n1.is_zero():
            return other
        if n2.is_zero():
            return self
        if d1 == d2 and not d1.is_constant():
            return RatFun(n1 + n2, d1)
        # Henrici: t = n1 (d2/g) + n2 (d1/g) is prime to both cofactors, so
        # only gcd(t, g) can cancel; a polynomial summand gives g = 1
        g = _gcd(d1, d2)
        c1, c2 = _quo(d1, g), _quo(d2, g)
        t = n1 * c2 + n2 * c1
        h = _gcd(t, g)
        return RatFun(_quo(t, h), c1 * _quo(d2, h), _canonical=True)

    __radd__ = __add__

    def __neg__(self):
        return RatFun(-self.num, self.den, _canonical=True)

    def __sub__(self, other):
        return self + (-_as_ratfun(other))

    def __rsub__(self, other):
        return _as_ratfun(other) + (-self)

    def __mul__(self, other):
        other = _as_ratfun(other)
        return _product(self.num, self.den, other.num, other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _as_ratfun(other)
        if other.num.is_zero():
            raise ZeroDivisionError("division by identically-zero RatFun")
        if self.den == other.den and not self.den.is_constant():
            return RatFun(self.num, other.num)  # the shared d cancels
        return _product(self.num, self.den, *_monic_den(other.den, other.num))

    def __rtruediv__(self, other):
        return _as_ratfun(other) / self

    def __pow__(self, n: int):
        if n < 0:
            if self.num.is_zero():
                raise ZeroDivisionError("0 ** negative")
            return RatFun(*_monic_den(self.den ** -n, self.num ** -n),
                          _canonical=True)
        # powers of coprime polynomials stay coprime, and of a monic one monic
        return RatFun(self.num ** n, self.den ** n, _canonical=True)

    def __eq__(self, other):
        try:
            other = _as_ratfun(other)
        except TypeError:
            return NotImplemented
        # canonical form makes structural equality equivalent to
        # cross-product equality
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    # -- calculus / evaluation ---------------------------------------------

    def derive(self, name: str) -> "RatFun":
        """(n/d)' = t / (d c) with g = gcd(d, d'), c = d/g and
        t = n' c - n (d'/g).  t is prime to every factor of d that involves
        the variable, so only h = gcd(t, g) can cancel; when d' = 0 that is
        g = d, c = 1 and t = n'.  A factor of g free of the variable
        divides g's leading coefficient in it, so when that coefficient is
        a constant h = 1 without a gcd.  Quotients of monic polynomials by
        monic gcds are monic, so the denominator needs no rescaling."""
        n, d = self.num, self.den
        dn = n.derive(name)
        if d.is_constant():
            return RatFun(dn, d, _canonical=True)
        dd = d.derive(name)
        if dd.is_zero():
            if dn.is_zero():
                return RatFun.const(0)
            g, t, den = d, dn, d
        else:
            g = _gcd(d, dd)
            c = _quo(d, g)
            t, den = dn * c - n * _quo(dd, g), d * c
        h = _ONE if _constant_lead(g, name) else _gcd(t, g)
        return RatFun(_quo(t, h), _quo(den, h), _canonical=True)

    def evaluate(self, point: dict) -> Fraction:
        """Exact value at a point of ints and Fractions."""
        dv = self.den.evaluate(point)
        if dv == 0:
            raise PoleError(f"denominator {self.den!r} vanishes at {point}")
        return self.num.evaluate(point) / dv

    def subst(self, mapping: dict) -> "RatFun":
        den = self.den.subst(mapping)
        if den.is_zero():
            raise ZeroDivisionError("substitution produced a zero denominator")
        return self.num.subst(mapping) / den

    def lambdify(self, names):
        """Compile to a float/numpy-array evaluator over the given names."""
        order = list(names)
        missing = self.variables() - set(order)
        if missing:
            raise KeyError(f"lambdify is missing variables {sorted(missing)}")
        idx = {n: k for k, n in enumerate(order)}

        def compile_poly(p: Poly):
            rows = [(tuple((idx[VARIABLES[i]], e)
                           for i, e in enumerate(exp) if e), float(c))
                    for exp, c in p.terms.items()]

            def run(*args):
                total = 0.0 * args[0] if args else 0.0
                for factors, c in rows:
                    term = c
                    for k, e in factors:
                        term = term * args[k] ** e
                    total = total + term
                return total
            return run

        fn, fd = compile_poly(self.num), compile_poly(self.den)

        def run(*args):
            return fn(*args) / fd(*args)
        return run

    # -- queries used by indicial analysis ----------------------------------

    def valuation(self, name: str) -> int:
        """Order of vanishing at {name}=0 (negative for a pole)."""
        if self.num.is_zero():
            raise ValueError("valuation of zero is undefined")
        return self.num.min_degree_in(name) - self.den.min_degree_in(name)

    def leading_coefficient(self, name: str) -> "RatFun":
        """Coefficient of the lowest power of ``name`` (a RatFun without it)."""
        if self.num.is_zero():
            return RatFun.const(0)
        i = _check_var(name)

        def low_part(p: Poly):
            d = p.min_degree_in(name)
            t = {}
            for e, c in p.terms.items():
                if e[i] == d:
                    ne = list(e)
                    ne[i] = 0
                    t[tuple(ne)] = c
            return Poly(t)
        return RatFun(low_part(self.num), low_part(self.den))

    def __repr__(self):
        if self.den == Poly.const(1):
            return repr(self.num)
        return f"({self.num!r})/({self.den!r})"


def _canonicalize(num: Poly, den: Poly):
    if num.is_zero():
        return Poly(), Poly.const(1)
    g = poly_gcd(num, den)
    return _monic_den(_quo(num, g), _quo(den, g))


def _monic_den(num: Poly, den: Poly):
    """Rescale num/den so that the denominator's leading coefficient is 1."""
    _, lc = den.leading()
    if lc != 1:
        num = num.scale(1 / lc)
        den = den.scale(1 / lc)
    return num, den


def _gcd(a: Poly, b: Poly) -> Poly:
    """poly_gcd of nonzero a and b, without the call when one is constant."""
    if a.is_constant() or b.is_constant():
        return _ONE
    return poly_gcd(a, b)


def _constant_lead(p: Poly, name: str) -> bool:
    """Whether p's leading coefficient in ``name`` is a constant."""
    i = _check_var(name)
    top = p.degree_in(name)
    lead = [e for e in p.terms if e[i] == top]
    return len(lead) == 1 and sum(lead[0]) == top


def _quo(a: Poly, g: Poly) -> Poly:
    """a / g for a monic gcd g of a; no division when g is 1."""
    return a if g.is_constant() else exact_div(a, g)


def _product(n1: Poly, d1: Poly, n2: Poly, d2: Poly) -> RatFun:
    """(n1/d1) (n2/d2) for coprime pairs with monic denominators.

    Henrici: after cancelling g1 = gcd(n1, d2) and g2 = gcd(n2, d1) the
    cofactor products are coprime, and their denominator is monic.
    """
    if n1.is_zero() or n2.is_zero():
        return RatFun.const(0)
    g1, g2 = _gcd(n1, d2), _gcd(n2, d1)
    return RatFun(_quo(n1, g1) * _quo(n2, g2), _quo(d1, g2) * _quo(d2, g1),
                  _canonical=True)


def _as_ratfun(v) -> RatFun:
    if isinstance(v, RatFun):
        return v
    if isinstance(v, Poly):
        return RatFun(v, Poly.const(1), _canonical=True)
    if isinstance(v, (int, Fraction)):
        return RatFun.const(v)
    raise TypeError(f"cannot coerce {type(v).__name__} to RatFun")


# ---------------------------------------------------------------------------
# spec-level operation wrappers
# ---------------------------------------------------------------------------

def rf_arith(op: str, a: RatFun, b: RatFun) -> RatFun:
    a, b = _as_ratfun(a), _as_ratfun(b)
    if op == "add":
        return a + b
    if op == "sub":
        return a - b
    if op == "mul":
        return a * b
    if op == "div":
        return a / b
    raise ValueError(f"unknown rf_arith op {op!r}")


def rf_derive(a: RatFun, var: str) -> RatFun:
    return _as_ratfun(a).derive(var)


def rf_eval(a: RatFun, point: dict):
    return _as_ratfun(a).evaluate(point)


def var(name: str, power: int = 1) -> RatFun:
    return RatFun.var(name, power)


def const(q) -> RatFun:
    return RatFun.const(q)
