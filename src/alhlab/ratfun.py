"""Exact multivariate rational functions with rational coefficients.

This is the symbolic substrate for the whole package: metric components,
form coefficients, and operator coefficients are all RatFun values, so
geometric identities (Ricci-flatness, operator regroupings, wedge
relations) can be asserted exactly instead of to a tolerance.

Representation
--------------
A polynomial is a sparse map  monomial -> Fraction  over the fixed
variable universe ``VARIABLES``.  Each monomial is one packed int (after
Monagan and Pearce): 16-bit fields, one per variable with ``VARIABLES[0]``
the most significant, and the total degree in a field above them all.
Exponents and total degrees run up to 2^15 - 1; the top bit of each
variable field is a guard bit that stays clear, and any result that would
exceed that raises :class:`DegreeOverflowError` instead of carrying into a
neighbouring field.  So

* integer order is graded-lex order (total degree first, then
  lexicographic in the declared variable order), which makes leading
  terms -- and therefore canonical forms -- deterministic;
* the product of two monomials is one int add, their quotient one int
  subtract, and m | n holds exactly when every guard bit of
  n - m + G is set, G being the mask of all guard bits.

``Poly.terms`` is a read-only view {exponent tuple: Fraction} built on
each access, for readers outside the package (the package itself goes
through ``coefficients_in``, ``leading`` and the degree queries); the
module's own loops use the packed keys only.

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
monomial, so curvature computations never enter the general routine),
and dividing out a monomial gcd is one pass over the terms.
The general case is a heuristic gcd over the integers, whose every answer
is checked by exact division, backed by a primitive pseudo-remainder
sequence for the rare inputs where the heuristic gives up.

Each type has two ways in.  The public ``Poly(terms)`` makes every
coefficient a Fraction and drops zero terms, and ``RatFun(num, den)``
always canonicalises (with no gcd when num or den is a constant).  The
trusted ``Poly._of`` and ``RatFun._of`` take their arguments as they are:
only this module calls them, for results that are canonical by
construction.

Evaluation is exact: :meth:`RatFun.evaluate` takes ints and Fractions
only.  :meth:`RatFun.lambdify` is the one float evaluator.
"""

from __future__ import annotations

import math
from fractions import Fraction
from types import MappingProxyType

VARIABLES = ("x", "r", "y1", "y2", "s", "s_prime", "S", "Y1", "Y2", "t", "c")
_VIDX = {name: i for i, name in enumerate(VARIABLES)}
_N = len(VARIABLES)

# packed monomials: field i (bits _SHIFT[i] up) holds the exponent of
# VARIABLES[i], and the total degree sits above every field
_W = 16
_MASK = (1 << _W) - 1
_MAX_EXP = (1 << (_W - 1)) - 1
_SHIFT = tuple(_W * (_N - 1 - i) for i in range(_N))
_DSHIFT = _W * _N
#: the packed x_i: one in variable i's field and one in the degree field
_UNIT = tuple((1 << s) + (1 << _DSHIFT) for s in _SHIFT)
_GUARD = sum(1 << (s + _W - 1) for s in _SHIFT)
_VARS = (1 << _DSHIFT) - 1
_ZEXP = 0

#: Total-degree cap on polynomial products.  Curvature of rational metrics
#: can blow up intermediate degrees; we fail loudly rather than slowly.
DEGREE_CAP = 64


class DegreeOverflowError(ArithmeticError):
    """A polynomial product exceeded the configured total-degree cap, or
    an exponent or total degree exceeded the packed field (2^15 - 1)."""


class PoleError(ZeroDivisionError):
    """Evaluation hit a zero of the denominator."""


def is_exact(value) -> bool:
    """The one exactness rule: ints and Fractions are exact values;
    floats, complex numbers and anything else are not."""
    return isinstance(value, (int, Fraction))


def _pack(exp) -> int:
    """The packed key of an exponent tuple of len(VARIABLES) ints."""
    if len(exp) != _N:
        raise ValueError(f"an exponent tuple has {_N} entries, not {len(exp)}")
    key = sum(exp)
    _check_degree(key)
    for p in exp:
        if p < 0:
            raise ValueError("Poly exponents must be nonnegative; use RatFun")
        key = key << _W | p
    return key


def _unpack(key: int) -> tuple:
    return tuple(key >> s & _MASK for s in _SHIFT)


def _check_degree(deg: int) -> None:
    if deg > _MAX_EXP:
        raise DegreeOverflowError(
            f"degree {deg} exceeds the packed field maximum {_MAX_EXP}")


def _regrade(key: int) -> int:
    """The variable fields of key under their own total degree."""
    return (key & _VARS) | sum(_unpack(key)) << _DSHIFT


def _divides(m: int, n: int) -> bool:
    """Whether the monomial m divides n: no field of n - m borrows."""
    return (n + _GUARD - m) & _GUARD == _GUARD


def _field_min(a: int, b: int) -> int:
    """Field-wise min of the variable fields of a and b; the degree field
    of the result is not meaningful."""
    ge = (a + _GUARD - b) & _GUARD     # guard set where a_i >= b_i
    ge -= ge >> (_W - 1)               # the exponent bits of those fields
    return (b & ge) | (a & ~ge)


def _support(terms) -> list:
    """The variable slots occurring in an iterable of packed monomials."""
    used = 0
    for e in terms:
        used |= e
    return [i for i, s in enumerate(_SHIFT) if used >> s & _MASK]


def _check_var(name: str) -> int:
    try:
        return _VIDX[name]
    except KeyError:
        raise KeyError(
            f"unknown variable {name!r}; universe is {VARIABLES}") from None


class Poly:
    """Sparse exact polynomial over ``VARIABLES``.  Immutable by convention."""

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        t = {}
        if terms:
            for exp, coeff in terms.items():
                c = Fraction(coeff)
                if c:
                    t[_pack(exp)] = c
        self._terms = t

    @property
    def terms(self):
        """Read-only {exponent tuple: coefficient}, built on each access."""
        return MappingProxyType({_unpack(e): c for e, c in self._terms.items()})

    # -- constructors -------------------------------------------------

    @staticmethod
    def _of(terms: dict) -> "Poly":
        """Trusted: a fresh dict of packed monomials to nonzero Fractions."""
        out = Poly.__new__(Poly)
        out._terms = terms
        return out

    @staticmethod
    def const(q) -> "Poly":
        q = Fraction(q)
        return Poly._of({_ZEXP: q} if q else {})

    @staticmethod
    def var(name: str, power: int = 1) -> "Poly":
        i = _check_var(name)
        if power < 0:
            raise ValueError("Poly exponents must be nonnegative; use RatFun")
        _check_degree(power)
        return Poly._of({power * _UNIT[i]: Fraction(1)})

    # -- predicates / queries -----------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def is_constant(self) -> bool:
        return not self._terms or (len(self._terms) == 1
                                   and _ZEXP in self._terms)

    def is_monomial(self) -> bool:
        return len(self._terms) == 1

    def constant_value(self) -> Fraction:
        if not self._terms:
            return Fraction(0)
        if not self.is_constant():
            raise ValueError("not a constant polynomial")
        return self._terms[_ZEXP]

    def total_degree(self) -> int:
        return max(self._terms, default=0) >> _DSHIFT

    def degree_in(self, name: str) -> int:
        s = _SHIFT[_check_var(name)]
        return max((e >> s & _MASK for e in self._terms), default=0)

    def min_degree_in(self, name: str) -> int:
        s = _SHIFT[_check_var(name)]
        return min((e >> s & _MASK for e in self._terms), default=0)

    def variables(self):
        return {VARIABLES[i] for i in _support(self._terms)}

    def coefficients_in(self, name: str) -> dict:
        """{degree: coefficient Poly} of self as a polynomial in one
        variable; {} for the zero polynomial."""
        return _univar(self, _check_var(name))

    def leading(self):
        """(exponent tuple, coefficient) of the grlex-largest monomial."""
        if not self._terms:
            raise ValueError("zero polynomial has no leading term")
        e = max(self._terms)
        return _unpack(e), self._terms[e]

    def monomial_content(self) -> int:
        """Packed field-wise min over all terms (the common monomial
        factor); 0 for the zero polynomial."""
        its = iter(self._terms)
        acc = next(its, _ZEXP)
        for e in its:
            acc = _field_min(acc, e)
        return _regrade(acc)

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        other = _as_poly(other)
        t = dict(self._terms)
        for e, c in other._terms.items():
            s = t.get(e)
            if s is None:
                t[e] = c
            elif s := s + c:
                t[e] = s
            else:
                del t[e]
        return Poly._of(t)

    __radd__ = __add__

    def __neg__(self):
        return Poly._of({e: -c for e, c in self._terms.items()})

    def __sub__(self, other):
        return self + (-_as_poly(other))

    def __rsub__(self, other):
        return _as_poly(other) + (-self)

    def _mul_raw(self, other: "Poly") -> "Poly":
        # no field exceeds its monomial's degree, so a product within the
        # degree bound carries out of no variable field
        _check_degree(self.total_degree() + other.total_degree())
        t = {}
        get = t.get
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                e = e1 + e2
                c = c1 * c2
                s = get(e)
                if s is None:
                    t[e] = c
                elif s := s + c:
                    t[e] = s
                else:
                    del t[e]
        return Poly._of(t)

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
        if not isinstance(q, Fraction):
            q = Fraction(q)
        if not q:
            return Poly()
        if q == 1:
            return self
        return Poly._of({e: c * q for e, c in self._terms.items()})

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.const(other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    # -- calculus / evaluation ----------------------------------------

    def derive(self, name: str) -> "Poly":
        i = _check_var(name)
        s, unit = _SHIFT[i], _UNIT[i]
        t = {}
        for e, c in self._terms.items():
            p = e >> s & _MASK
            if p:
                e -= unit
                c *= p
                old = t.get(e)
                if old is None:
                    t[e] = c
                elif old := old + c:
                    t[e] = old
                else:
                    del t[e]
        return Poly._of(t)

    def evaluate(self, point: dict) -> Fraction:
        """Exact value at a point of ints and Fractions; floats go through
        :meth:`RatFun.lambdify`."""
        slots = _support(self._terms)
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
            values.append((_SHIFT[i], Fraction(v)))
        total = Fraction(0)
        for e, c in self._terms.items():
            for s, v in values:
                p = e >> s & _MASK
                if p:
                    c *= v ** p
            total += c
        return total

    def subst(self, mapping: dict) -> "RatFun":
        """Substitute RatFun values for variables; others stay symbolic."""
        out = RatFun.const(0)
        for e, c in self._terms.items():
            term = RatFun.const(c)
            for i, p in enumerate(_unpack(e)):
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
        if not self._terms:
            return "0"
        parts = []
        for e in sorted(self._terms, reverse=True):
            c = self._terms[e]
            factors = []
            for i, p in enumerate(_unpack(e)):
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

    A single-term g divides each term of a on its own.  Otherwise this is
    long division: grlex is a multiplicative monomial order, so when g | a
    the leading term of g always divides the leading term of the running
    remainder.
    """
    if g.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    if a.is_zero():
        return Poly()
    if len(g._terms) == 1:
        # a monomial divides term by term: one pass, no leading-term search
        (ge, gc), = g._terms.items()
        q = {}
        for e, c in a._terms.items():
            if not _divides(ge, e):
                raise ValueError("not exactly divisible")
            q[e - ge] = c if gc == 1 else c / gc
        return Poly._of(q)
    ge = max(g._terms)
    gc = g._terms[ge]
    q = {}
    rem = a
    while not rem.is_zero():
        re = max(rem._terms)
        if not _divides(ge, re):
            raise ValueError("not exactly divisible")
        qe, qc = re - ge, rem._terms[re] / gc
        q[qe] = qc
        rem = rem - Poly._of({qe: qc})._mul_raw(g)
    return Poly._of(q)


def _univar(p: Poly, i: int):
    """View p as a polynomial in variable i with Poly coefficients."""
    s, unit = _SHIFT[i], _UNIT[i]
    coeffs = {}
    for e, c in p._terms.items():
        d = e >> s & _MASK
        coeffs.setdefault(d, {})[e - d * unit] = c
    return {d: Poly._of(t) for d, t in coeffs.items()}


def _shift(p: Poly, i: int, d: int) -> Poly:
    """p times VARIABLES[i]^d."""
    _check_degree(p.total_degree() + d)
    step = d * _UNIT[i]
    return Poly._of({e + step: c for e, c in p._terms.items()})


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
    return p.scale(1 / p._terms[max(p._terms)])


def _zdivides(d: dict, f: dict) -> bool:
    """True when the integer polynomial d divides f in Z[VARIABLES].

    d is primitive, so by Gauss's lemma a quotient over Q is integral and
    the first non-integral quotient coefficient already settles it.
    """
    de = max(d)
    dc = d[de]
    rem = dict(f)
    while rem:
        re = max(rem)
        if not _divides(de, re):
            return False
        qc, r = divmod(rem[re], dc)
        if r:
            return False
        qe = re - de
        for e, c in d.items():
            e += qe
            s = rem.get(e, 0) - qc * c
            if s:
                rem[e] = s
            else:
                del rem[e]
    return True


def _zz_gcd(f: dict, g: dict):
    """GCD in Z[VARIABLES] of nonzero integer polynomials, or None.

    The dicts map packed monomials to ints.  The heuristic gcd of Char,
    Geddes and Gonnet: evaluate one variable at a large integer xi, take
    the gcd of the images recursively, read the candidate back from its
    symmetric base-xi digits and keep it only if it divides both inputs,
    which makes it the gcd.  Gives up (None) after six values of xi.
    """
    cf, cg = math.gcd(*f.values()), math.gcd(*g.values())
    c = math.gcd(cf, cg)
    if (_ZEXP in f and len(f) == 1) or (_ZEXP in g and len(g) == 1):
        return {_ZEXP: c}
    f = {e: v // cf for e, v in f.items()}
    g = {e: v // cg for e, v in g.items()}
    # evaluate the last variable occurring in either input
    i = _support((*f, *g))[-1]
    s, unit = _SHIFT[i], _UNIT[i]
    fn, gn = max(map(abs, f.values())), max(map(abs, g.values()))
    flc, glc = abs(f[max(f)]), abs(g[max(g)])
    bound = 2 * min(fn, gn) + 29
    xi = max(min(bound, 99 * math.isqrt(bound)),
             2 * min(fn // flc, gn // glc) + 4)
    for _ in range(6):
        images = []
        for p in (f, g):
            t = {}
            for e, v in p.items():
                d = e >> s & _MASK
                if d:
                    v *= xi ** d
                    e -= d * unit
                w = t.get(e, 0) + v
                if w:
                    t[e] = w
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
                        _check_degree((e >> _DSHIFT) + k)
                        cand[e + k * unit] = digit
                    v = (v - digit) // xi
                    k += 1
            hc = math.gcd(*cand.values())
            cand = {e: v // hc for e, v in cand.items()}
            if _zdivides(cand, f) and _zdivides(cand, g):
                return {e: v * c for e, v in cand.items()}
        xi = 73794 * xi * math.isqrt(math.isqrt(xi)) // 27011
    return None


def _integral(p: Poly) -> dict:
    """The integer polynomial p * lcm(denominators), as a dict of packed
    monomials."""
    den = math.lcm(*(c.denominator for c in p._terms.values()))
    return {e: c.numerator * (den // c.denominator)
            for e, c in p._terms.items()}


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
        if rm:
            r = Poly._of({e - rm: c for e, c in r._terms.items()})
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
    mono = Poly._of({_regrade(_field_min(ma, mb)): Fraction(1)})
    if len(a._terms) == 1 or len(b._terms) == 1:
        return mono  # a monomial is its own monomial content
    pa = Poly._of({e - ma: c for e, c in a._terms.items()})
    pb = Poly._of({e - mb: c for e, c in b._terms.items()})
    shared = set(_support(pa._terms)).intersection(_support(pb._terms))
    if not shared:
        # a common factor can only involve variables occurring in both
        return mono
    h = _zz_gcd(_integral(pa), _integral(pb))
    if h is None:
        g = _prs_gcd(pa, pb, min(shared))
    else:
        g = Poly._of({e: Fraction(v) for e, v in h.items()})
    return _monic(mono._mul_raw(g))


# ---------------------------------------------------------------------------
# RatFun
# ---------------------------------------------------------------------------

class RatFun:
    """Canonical-form rational function: coprime num/den, monic denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        num = _as_poly(num)
        den = _ONE if den is None else _as_poly(den)
        if den.is_zero():
            raise ZeroDivisionError("RatFun denominator is identically zero")
        self.num, self.den = _canonicalize(num, den)

    # -- constructors ---------------------------------------------------

    @staticmethod
    def _of(num: Poly, den: Poly) -> "RatFun":
        """Trusted constructor: num/den is already canonical."""
        out = RatFun.__new__(RatFun)
        out.num = num
        out.den = den
        return out

    @staticmethod
    def const(q) -> "RatFun":
        return RatFun._of(Poly.const(q), _ONE)

    @staticmethod
    def var(name: str, power: int = 1) -> "RatFun":
        if power >= 0:
            return RatFun._of(Poly.var(name, power), _ONE)
        return RatFun._of(_ONE, Poly.var(name, -power))

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
        return RatFun._of(_quo(t, h), c1 * _quo(d2, h))

    __radd__ = __add__

    def __neg__(self):
        return RatFun._of(-self.num, self.den)

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
            return RatFun._of(*_monic_den(self.den ** -n, self.num ** -n))
        # powers of coprime polynomials stay coprime, and of a monic one monic
        return RatFun._of(self.num ** n, self.den ** n)

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
            return RatFun._of(dn, d)
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
        return RatFun._of(_quo(t, h), _quo(den, h))

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
                           for i, e in enumerate(_unpack(exp)) if e), float(c))
                    for exp, c in p._terms.items()]

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
        """Coefficient of the lowest power of ``name`` (a RatFun without it);
        over a constant denominator it is canonical without a gcd."""
        if self.num.is_zero():
            return RatFun.const(0)
        i = _check_var(name)
        s, unit = _SHIFT[i], _UNIT[i]

        def low_part(p: Poly):
            d = p.min_degree_in(name)
            return Poly._of({e - d * unit: c for e, c in p._terms.items()
                             if e >> s & _MASK == d})
        num, den = low_part(self.num), low_part(self.den)
        if den.is_constant():
            return RatFun._of(num.scale(1 / den.constant_value()), _ONE)
        return RatFun(num, den)

    def __repr__(self):
        if self.den == Poly.const(1):
            return repr(self.num)
        return f"({self.num!r})/({self.den!r})"


def _canonicalize(num: Poly, den: Poly):
    if num.is_zero():
        return Poly(), _ONE
    g = _gcd(num, den)
    return _monic_den(_quo(num, g), _quo(den, g))


def _monic_den(num: Poly, den: Poly):
    """Rescale num/den so that the denominator's leading coefficient is 1."""
    lc = den._terms[max(den._terms)]
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
    s = _SHIFT[_check_var(name)]
    top = p.degree_in(name)
    lead = [e for e in p._terms if e >> s & _MASK == top]
    return len(lead) == 1 and lead[0] >> _DSHIFT == top


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
    return RatFun._of(_quo(n1, g1) * _quo(n2, g2), _quo(d1, g2) * _quo(d2, g1))


def _as_ratfun(v) -> RatFun:
    if isinstance(v, RatFun):
        return v
    if isinstance(v, Poly):
        return RatFun._of(v, _ONE)
    if isinstance(v, (int, Fraction)):
        return RatFun.const(v)
    raise TypeError(f"cannot coerce {type(v).__name__} to RatFun")
