"""Exact multivariate rational functions with rational coefficients.

This is the symbolic substrate for the whole package: metric components,
form coefficients, and operator coefficients are all RatFun values, so
geometric identities (Ricci-flatness, operator regroupings, wedge
relations) can be asserted exactly instead of to a tolerance.

Representation
--------------
A polynomial is c * P: a rational content c, kept as a coprime int pair
(n, d) with d > 0, times a sparse map  monomial -> int  over the fixed
variable universe ``VARIABLES``.
Each monomial is one packed int (after Monagan and Pearce): 16-bit
fields, one per variable with ``VARIABLES[0]`` the most significant, and
the total degree in a field above them all.  Exponents and total degrees
run up to 2^15 - 1; the top bit of each variable field is a guard bit
that stays clear, and any result that would exceed that raises
:class:`DegreeOverflowError` instead of carrying into a neighbouring
field.  So

* integer order is graded-lex order (total degree first, then
  lexicographic in the declared variable order), which makes leading
  terms -- and therefore canonical forms -- deterministic;
* the product of two monomials is one int add, their quotient one int
  subtract, and m | n holds exactly when every guard bit of
  n - m + G is set, G being the mask of all guard bits.

Every Poly is in one normal form, so equal values are equal objects
(``==`` and ``hash`` compare P and c): the integer part P is primitive
(its values have gcd 1) with a positive grlex-leading coefficient, the
sign and every common factor live in c, and zero is ({}, (0, 1)).
Then

* a product is an integer convolution of the two parts, primitive by
  Gauss's lemma (the content of a product is the product of contents),
  with content c1 c2 and no gcd at all;
* ``scale``, negation and making a polynomial monic change c alone and
  share P;
* a sum writes both contents over one denominator, adds the integer
  parts and moves the gcd of the result's values (one C-level
  ``math.gcd``) into c;
* exact division and the general gcd run on the stored integer parts;
  Fractions are built only where a coefficient leaves the module
  (``terms``, ``leading``, ``constant_value``, ``evaluate``, ``repr``).

``Poly.terms`` is a read-only view {exponent tuple: Fraction} built on
each access, for readers outside the package (the package itself goes
through ``coefficients_in``, ``leading`` and the degree queries); the
module's own loops use the packed keys and integer values only.

A RatFun is a pair (numerator, denominator) kept in canonical form:

* numerator and denominator share no polynomial factor,
* the denominator's grlex-leading coefficient is 1,
* zero is represented as 0/1.

Beside the pair, a RatFun whose denominator d is not a monomial keeps the
factorisation of d as derived data: d = m * b1^e1 * ... * bk^ek, with m
the monomial content of d and the bases bi monic, linear (so
irreducible) and pairwise coprime, or d = m * cof with one cofactor cof
that is not factored.  A new denominator -- from ``/``, a negative power,
the public constructor or a general gcd -- is factored once: after its
monomial content the rest is a base when it is linear and the cofactor
otherwise.  Monic linear bases are equal or coprime, so products merge
the bases of two operands by equality and powers V^k built by
arithmetic stay factored.  ``==``, ``hash`` and ``repr`` read num and
den only.

Arithmetic keeps the canonical form by construction.  Where nothing can
cancel there is no gcd at all: a zero or constant operand, a polynomial
summand (gcd(n + p d, d) = gcd(n, d) = 1), and a power of a canonical
pair.  The general ``*``, ``/`` and ``+`` cancel across (Henrici): a
product takes gcd(n1, d2) and gcd(n2, d1) before multiplying the
cofactors, and a sum takes g = gcd(d1, d2) and then cancels only
gcd(t, g) from its numerator t.  A derivative takes g = gcd(d, d') and
cancels only gcd(t, g) from its numerator t, never a gcd against d².

How a gcd is found depends on the denominators:

* both monomials (every model metric): no gcd call, key arithmetic on
  the denominators.  gcd(d1, d2) is a field-wise min of their keys and a
  cofactor a key difference; a gcd with a monomial is a field-wise min
  over the terms (``_mono_gcd``); multiplying by a monomial or dividing
  one out adds a key to each term (``_keyshift``).  The packed-field
  degree limit (2^15 - 1) is checked before each key add that could pass
  it.  Left to the public constructor: a derivative in a variable d
  lacks (n'/d) and a quotient over equal denominators (n1/n2).
* factored with no cofactor (the affine Gibbons-Hawking metrics, whose
  denominators are monomials times powers of V): gcd(d1, d2) is a min of
  exponents, gcd(n, d) and gcd(t, g) are trial divisions of n or t by
  each base up to its exponent, and the d c of a derivative is the
  product of the factors that involve the variable.  No general gcd runs.
* a cofactor on either side: the general gcd, and the result's
  denominator is factored again.

The general gcd is a heuristic gcd over the integers, whose every answer
is checked by exact division, backed by a primitive pseudo-remainder
sequence for the rare inputs where the heuristic gives up.

Each type has two ways in.  The public ``Poly(terms)`` takes any exact
coefficients, drops zero terms and brings the rest to the normal form,
and ``RatFun(num, den)``
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


class DegreeOverflowError(ArithmeticError):
    """An exponent or total degree passed the packed-field degree limit
    (2^15 - 1)."""


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
    """The variable fields of key under their own total degree: the sum
    of base-2^16 digits is their value mod 2^16 - 1, and it stays below
    2^15 for the field-wise min of two monomials."""
    fields = key & _VARS
    return fields | fields % _MASK << _DSHIFT


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
    """Sparse exact polynomial over ``VARIABLES``.  Immutable by convention:
    ``scale``, ``-`` and ``_monic`` share the integer part of their operand."""

    __slots__ = ("_terms", "_c")

    def __init__(self, terms=None):
        t = {}
        if terms:
            for exp, coeff in terms.items():
                c = Fraction(coeff)
                if c:
                    t[_pack(exp)] = c
        den = math.lcm(*(c.denominator for c in t.values()))
        p = _normal({e: c.numerator * (den // c.denominator)
                     for e, c in t.items()}, 1, den)
        self._terms, self._c = p._terms, p._c

    @property
    def terms(self):
        """Read-only {exponent tuple: coefficient}, built on each access."""
        n, d = self._c
        return MappingProxyType({_unpack(e): Fraction(n * v, d)
                                 for e, v in self._terms.items()})

    # -- constructors -------------------------------------------------

    @staticmethod
    def _of(terms: dict, content: tuple) -> "Poly":
        """Trusted: n/d * terms for content (n, d), coprime with d > 0,
        and a dict of packed monomials to ints already in the normal form
        (``_normal``); ({}, (0, 1)) is zero."""
        out = Poly.__new__(Poly)
        out._terms = terms
        out._c = content
        return out

    @staticmethod
    def const(q) -> "Poly":
        q = Fraction(q)
        return Poly._of({_ZEXP: 1} if q else {}, (q.numerator, q.denominator))

    @staticmethod
    def var(name: str, power: int = 1) -> "Poly":
        i = _check_var(name)
        if power < 0:
            raise ValueError("Poly exponents must be nonnegative; use RatFun")
        _check_degree(power)
        return Poly._of({power * _UNIT[i]: 1}, _Q1)

    # -- predicates / queries -----------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def is_constant(self) -> bool:
        return not self._terms or (len(self._terms) == 1
                                   and _ZEXP in self._terms)

    def is_monomial(self) -> bool:
        return len(self._terms) == 1

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise ValueError("not a constant polynomial")
        return Fraction(*self._c)

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
        n, d = self._c
        return _unpack(e), Fraction(n * self._terms[e], d)

    def monomial_content(self) -> int:
        """Packed field-wise min over all terms (the common monomial
        factor); 0 for the zero polynomial."""
        t = self._terms
        return _mono_gcd(t, next(iter(t))) if t else _ZEXP

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        other = _as_poly(other)
        a, b = self._terms, other._terms
        if not a:
            return other
        if not b:
            return self
        # the contents are ka k/d and kb k/d with coprime ka > 0 and kb, so
        # the sum is k/d (ka a + kb b); k is prime to d
        (na, da), (nb, db) = self._c, other._c
        if da == db:
            d = da
        else:
            g = math.gcd(da, db)
            na, nb, d = na * (db // g), nb * (da // g), da // g * db
        k = math.gcd(na, nb)
        if na < 0:
            k = -k
        ka, kb = na // k, nb // k
        t = dict(a) if ka == 1 else {e: v * ka for e, v in a.items()}
        get = t.get
        for e, v in b.items():
            s = get(e, 0) + v * kb
            if s:
                t[e] = s
            else:
                del t[e]
        return _normal(t, k, d)

    __radd__ = __add__

    def __neg__(self):
        n, d = self._c
        return Poly._of(self._terms, (-n, d))

    def __sub__(self, other):
        return self + (-_as_poly(other))

    def __rsub__(self, other):
        return _as_poly(other) + (-self)

    def __mul__(self, other):
        other = _as_poly(other)
        if other.is_constant():
            return _scaled(self, other._c)
        if self.is_constant():
            return _scaled(other, self._c)
        # no field exceeds its monomial's degree, so a product within the
        # degree bound carries out of no variable field
        _check_degree(self.total_degree() + other.total_degree())
        return Poly._of(_zmul(self._terms, other._terms),
                        _qmul(self._c, other._c))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power on Poly; use RatFun")
        _check_degree(self.total_degree() * n)  # the power, not a square
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
        if not isinstance(q, (int, Fraction)):
            q = Fraction(q)
        return _scaled(self, (q.numerator, q.denominator))

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.const(other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self._terms == other._terms and self._c == other._c

    def __hash__(self):
        return hash((frozenset(self._terms.items()), self._c))

    # -- calculus / evaluation ----------------------------------------

    def derive(self, name: str) -> "Poly":
        i = _check_var(name)
        s, unit = _SHIFT[i], _UNIT[i]
        # distinct monomials stay distinct, so nothing collects or cancels
        return _normal({e - unit: v * (e >> s & _MASK)
                        for e, v in self._terms.items() if e >> s & _MASK},
                       *self._c)

    def evaluate(self, point: dict) -> Fraction:
        """Exact value at a point of ints and Fractions; floats go through
        :meth:`RatFun.lambdify`."""
        slots = _support(self._terms)
        missing = [VARIABLES[i] for i in slots if VARIABLES[i] not in point]
        if missing:
            raise KeyError(f"no value supplied for {sorted(missing)}")
        # over the common denominator prod b_i^top_i of the values a_i/b_i,
        # each term is an integer
        values, den = [], 1
        for i in slots:
            v = point[VARIABLES[i]]
            if not is_exact(v):
                raise TypeError(
                    f"evaluate is exact: {VARIABLES[i]} = {v!r} is a "
                    f"{type(v).__name__}; use RatFun.lambdify for floats")
            v, s = Fraction(v), _SHIFT[i]
            top = max(e >> s & _MASK for e in self._terms)
            values.append((s, v.numerator, v.denominator, top))
            den *= v.denominator ** top
        total = 0
        for e, c in self._terms.items():
            for s, a, b, top in values:
                p = e >> s & _MASK
                c *= a ** p * b ** (top - p)
            total += c
        n, d = self._c
        return Fraction(n * total, d * den)

    def subst(self, mapping: dict) -> "RatFun":
        """Substitute RatFun values for variables; others stay symbolic."""
        out = _RZERO
        n, d = self._c
        for e, v in self._terms.items():
            term = RatFun.const(Fraction(n * v, d))
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
        n, d = self._c
        for e in sorted(self._terms, reverse=True):
            c = Fraction(n * self._terms[e], d)
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


_Q1 = (1, 1)
_ZERO = Poly._of({}, (0, 1))
_ONE = Poly.const(1)


def _normal(t: dict, n: int, d: int) -> Poly:
    """The Poly n/d * t, for coprime n and d > 0 and a dict t of packed
    monomials to nonzero ints: the gcd of t's values, signed like its
    leading one, moves into the content."""
    if not t:
        return _ZERO
    g = math.gcd(*t.values())
    if t[max(t)] < 0:
        g = -g
    if g != 1:
        t = {e: v // g for e, v in t.items()}
        h = math.gcd(g, d)
        n, d = n * (g // h), d // h
    return Poly._of(t, (n, d))


def _qmul(a: tuple, b: tuple) -> tuple:
    """The product of two contents (n, d)."""
    (n1, d1), (n2, d2) = a, b
    if d1 == d2 == 1:
        return n1 * n2, 1
    g1, g2 = math.gcd(n1, d2), math.gcd(n2, d1)
    return (n1 // g1) * (n2 // g2), (d1 // g2) * (d2 // g1)


def _qdiv(a: tuple, b: tuple) -> tuple:
    """The quotient of two contents (n, d), the second nonzero."""
    (n1, d1), (n2, d2) = a, b
    g1, g2 = math.gcd(n1, n2), math.gcd(d1, d2)
    n, d = (n1 // g1) * (d2 // g2), (d1 // g2) * (n2 // g1)
    return (-n, -d) if d < 0 else (n, d)


def _scaled(p: Poly, q: tuple) -> Poly:
    """p times the content q = (n, d): the same terms, a new content."""
    if not q[0] or not p._terms:
        return _ZERO
    if q == _Q1:
        return p
    return Poly._of(p._terms, _qmul(p._c, q))


def _zmul(a: dict, b: dict) -> dict:
    """The product of two integer polynomials, as dicts of packed monomials
    to nonzero ints, its terms in the order of a loop over a's terms
    around one over b's."""
    if len(b) == 1:
        a, b = b, a
    if len(a) == 1:
        (e1, c1), = a.items()
        return {e1 + e: c1 * v for e, v in b.items()}
    t = {}
    get = t.get
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = e1 + e2
            s = get(e, 0) + c1 * c2
            if s:
                t[e] = s
            else:
                del t[e]
    return t


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

    Both integer parts are primitive, so by Gauss's lemma the quotient of
    a's by g's is primitive in Z[VARIABLES] with a positive leading
    coefficient, and the quotient's content is the quotient of contents.
    """
    if g.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    if a.is_zero():
        return _ZERO
    q = _zquo(a._terms, g._terms)
    if q is None:
        raise ValueError("not exactly divisible")
    return Poly._of(q, _qdiv(a._c, g._c))


def _zquo(f: dict, d: dict):
    """The quotient f/d in Z[VARIABLES] of integer polynomials, or None
    when d does not divide f there.

    A single-term d divides each term of f on its own.  Otherwise this is
    long division in place on a copy of f: grlex is a multiplicative
    monomial order, so when d | f the leading term of d divides the
    leading term of the running remainder.  For a primitive d a quotient
    over Q is integral (Gauss's lemma), so the first non-integral quotient
    coefficient already settles that d does not divide f over Q either.
    """
    if len(d) == 1:
        (de, dc), = d.items()
        q = {}
        for e, v in f.items():
            if not _divides(de, e):
                return None
            if dc != 1:
                v, r = divmod(v, dc)
                if r:
                    return None
            q[e - de] = v
        return q
    de = max(d)
    dc = d[de]
    q = {}
    rem = dict(f)
    get = rem.get
    while rem:
        re = max(rem)
        if not _divides(de, re):
            return None
        qc, r = divmod(rem[re], dc)
        if r:
            return None
        qe = re - de
        q[qe] = qc
        for e, c in d.items():
            e += qe
            s = get(e, 0) - qc * c
            if s:
                rem[e] = s
            else:
                del rem[e]
    return q


def _univar(p: Poly, i: int):
    """View p as a polynomial in variable i with Poly coefficients."""
    s, unit = _SHIFT[i], _UNIT[i]
    coeffs = {}
    for e, v in p._terms.items():
        d = e >> s & _MASK
        coeffs.setdefault(d, {})[e - d * unit] = v
    return {d: _normal(t, *p._c) for d, t in coeffs.items()}


def _keyshift(p: Poly, s: int) -> Poly:
    """p times the monomial with packed key s, or p over it for -s when it
    divides p: one add per term, the same normal form."""
    return Poly._of({e + s: v for e, v in p._terms.items()}, p._c) if s else p


def _shift(p: Poly, i: int, d: int) -> Poly:
    """p times VARIABLES[i]^d."""
    _check_degree(p.total_degree() + d)
    return _keyshift(p, d * _UNIT[i])


def _mono(m: int) -> Poly:
    """The monic monomial with packed key m."""
    return Poly._of({m: 1}, _Q1) if m else _ONE


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
        rem = lb * rem - _shift(lr, i, dr - db) * b
    return rem


def _content_pp(p: Poly, i: int):
    """Content (gcd of v^i-coefficients) and primitive part of p wrt var i."""
    u = _univar(p, i)
    cont = _ZERO
    for coeff in u.values():
        cont = poly_gcd(cont, coeff)
        if cont.is_constant():
            break
    if cont.is_constant():
        return _ONE, p
    return cont, exact_div(p, cont)


def _monic(p: Poly) -> Poly:
    """p with grlex-leading coefficient 1: a new content, the same terms."""
    if p.is_zero():
        return p
    return Poly._of(p._terms, (1, p._terms[max(p._terms)]))


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
    if cf != 1:
        f = {e: v // cf for e, v in f.items()}
    if cg != 1:
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
            if _zquo(f, cand) is not None and _zquo(g, cand) is not None:
                return {e: v * c for e, v in cand.items()}
        xi = 73794 * xi * math.isqrt(math.isqrt(xi)) // 27011
    return None


def _prs_gcd(pa: Poly, pb: Poly, i: int) -> Poly:
    """GCD by a primitive pseudo-remainder sequence in variable i."""
    ca, ppa = _content_pp(pa, i)
    cb, ppb = _content_pp(pb, i)
    cg = poly_gcd(ca, cb)
    if ppa.degree_in(VARIABLES[i]) < ppb.degree_in(VARIABLES[i]):
        ppa, ppb = ppb, ppa
    while True:
        r = _prem(ppa, ppb, i)
        if r.is_zero():
            g = ppb
            break
        if r.degree_in(VARIABLES[i]) == 0:
            g = _ONE
            break
        _, r = _content_pp(r, i)
        r = _keyshift(r, -r.monomial_content())
        ppa, ppb = ppb, r
    if not g.is_constant():
        _, g = _content_pp(g, i)
    return cg * g


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """GCD over the rationals, normalized grlex-monic.

    Monomial contents are split off first; that alone settles every
    denominator arising from the model metrics.  The general case tries
    the heuristic integer gcd on the stored integer parts and falls back
    to a primitive pseudo-remainder sequence recursing on the variable
    set.
    """
    if a.is_zero():
        return _monic(b)
    if b.is_zero():
        return _monic(a)
    ma, mb = a.monomial_content(), b.monomial_content()
    mono = _mono(_regrade(_field_min(ma, mb)))
    if len(a._terms) == 1 or len(b._terms) == 1:
        return mono  # a monomial is its own monomial content
    # dividing by a monomial keeps the terms' order, so the normal form
    fa = {e - ma: v for e, v in a._terms.items()} if ma else a._terms
    fb = {e - mb: v for e, v in b._terms.items()} if mb else b._terms
    shared = set(_support(fa)).intersection(_support(fb))
    if not shared:
        # a common factor can only involve variables occurring in both
        return mono
    h = _zz_gcd(fa, fb)
    if h is None:
        g = _prs_gcd(Poly._of(fa, _Q1), Poly._of(fb, _Q1), min(shared))
    else:
        g = _normal(h, 1, 1)
    return _monic(mono * g)


# ---------------------------------------------------------------------------
# RatFun
# ---------------------------------------------------------------------------

class RatFun:
    """Canonical-form rational function: coprime num/den, monic denominator,
    and the factorisation of den (None while den is a monomial)."""

    __slots__ = ("num", "den", "_fac")

    def __init__(self, num, den=None):
        num = _as_poly(num)
        den = _ONE if den is None else _as_poly(den)
        if den.is_zero():
            raise ZeroDivisionError("RatFun denominator is identically zero")
        self.num, self.den = _canonicalize(num, den)
        self._fac = _factor(self.den._terms)

    # -- constructors ---------------------------------------------------

    @staticmethod
    def _of(num: Poly, den: Poly, fac=None) -> "RatFun":
        """Trusted constructor: num/den is already canonical and fac is the
        factorisation of den, None exactly when den is a monomial."""
        out = RatFun.__new__(RatFun)
        out.num = num
        out.den = den
        out._fac = fac
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
        f1, f2 = self._fac, other._fac
        if f1 is None and f2 is None:
            return _mono_sum(n1, d1, n2, d2)
        known = _known(d1, f1, d2, f2)
        if known:
            return _factored_sum(n1, d1, n2, d2, *known)
        num, den = _sum_by_gcd(n1, d1, n2, d2)
        return RatFun._of(num, den, _factor(den._terms))

    __radd__ = __add__

    def __neg__(self):
        return RatFun._of(-self.num, self.den, self._fac)

    def __sub__(self, other):
        return self + (-_as_ratfun(other))

    def __rsub__(self, other):
        return _as_ratfun(other) + (-self)

    def __mul__(self, other):
        other = _as_ratfun(other)
        return _product(self.num, self.den, self._fac,
                        other.num, other.den, other._fac)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _as_ratfun(other)
        if other.num.is_zero():
            raise ZeroDivisionError("division by identically-zero RatFun")
        fac = self._fac
        if (fac is None and other._fac is None and self.den == other.den
                and not self.den.is_constant()):
            return RatFun(self.num, other.num)  # the shared d cancels
        num, den = _monic_den(other.den, other.num)
        return _product(self.num, self.den, fac, num, den, _factor(den._terms))

    def __rtruediv__(self, other):
        return _as_ratfun(other) / self

    def __pow__(self, n: int):
        if n < 0:
            if self.num.is_zero():
                raise ZeroDivisionError("0 ** negative")
            return RatFun._of(*_monic_den(self.den ** -n, self.num ** -n),
                              _fpow(_factor(self.num._terms), -n))
        # powers of coprime polynomials stay coprime, and of a monic one monic
        return RatFun._of(self.num ** n, self.den ** n, _fpow(self._fac, n))

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
        g = d, c = 1 and t = n'.  Over a factored d, c is the product of the
        factors that involve the variable (``_factored_derive``)."""
        fac = self._fac
        if fac is None:
            return _mono_derive(self.num, self.den, name)
        if fac[2] is None:
            return _factored_derive(self.num, self.den, fac, name)
        num, den = _derive_by_gcd(self.num, self.den, name)
        return RatFun._of(num, den, _factor(den._terms))

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
                           for i, e in enumerate(_unpack(exp)) if e),
                     float(Fraction(p._c[0] * v, p._c[1])))
                    for exp, v in p._terms.items()]

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
            return _RZERO
        i = _check_var(name)
        s, unit = _SHIFT[i], _UNIT[i]

        def low_part(p: Poly):
            d = p.min_degree_in(name)
            return _normal({e - d * unit: v for e, v in p._terms.items()
                            if e >> s & _MASK == d}, *p._c)
        num, den = low_part(self.num), low_part(self.den)
        if den.is_constant():
            return RatFun._of(num.scale(1 / den.constant_value()), _ONE)
        return RatFun(num, den)

    def __repr__(self):
        if self.den == _ONE:
            return repr(self.num)
        return f"({self.num!r})/({self.den!r})"


# the zero RatFun, shared: a RatFun is never changed after construction
_RZERO = RatFun._of(_ZERO, _ONE)


def _canonicalize(num: Poly, den: Poly):
    if num.is_zero():
        return _ZERO, _ONE
    g = _gcd(num, den)
    return _monic_den(_quo(num, g), _quo(den, g))


def _monic_den(num: Poly, den: Poly):
    """Rescale num/den so that the denominator's leading coefficient is 1."""
    n, d = den._c
    lead = den._terms[max(den._terms)]
    if n == 1 and d == lead:
        return num, den
    return _scaled(num, _qdiv((d, 1), (n * lead, 1))), _monic(den)


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


def _product(n1: Poly, d1: Poly, f1, n2: Poly, d2: Poly, f2) -> RatFun:
    """(n1/d1) (n2/d2) for coprime pairs with monic denominators, d1 and d2
    factored as f1 and f2."""
    if n1.is_zero() or n2.is_zero():
        return _RZERO
    if f1 is None and f2 is None:
        return _mono_product(n1, d1, n2, d2)
    known = _known(d1, f1, d2, f2)
    if known:
        k1, k2 = known
        n1, g1 = _cancel(n1, k2)
        n2, g2 = _cancel(n2, k1)
        fac = _fmul(_fmul(k1, g2, -1), _fmul(k2, g1, -1))
        return RatFun._of(n1 * n2, _div(d1, g2) * _div(d2, g1), _stored(fac))
    num, den = _product_by_gcd(n1, d1, n2, d2)
    return RatFun._of(num, den, _factor(den._terms))


def _mono_product(n1: Poly, d1: Poly, n2: Poly, d2: Poly) -> RatFun:
    """``_product_by_gcd`` over monomial denominators: each gcd is a
    monomial gcd and each division a shift of packed keys."""
    (m1,), (m2,) = d1._terms, d2._terms
    g1, g2 = _mono_gcd(n1._terms, m2), _mono_gcd(n2._terms, m1)
    num = _keyshift(n1, -g1) * _keyshift(n2, -g2)
    e1, e2 = m1 - g2, m2 - g1
    if e1 and e2:
        _check_degree(e1 + e2 >> _DSHIFT)
    return RatFun._of(num, _mono(e1 + e2))


def _mono_sum(n1: Poly, d1: Poly, n2: Poly, d2: Poly) -> RatFun:
    """``_sum_by_gcd`` over monomial denominators, on packed keys: g is a
    field-wise min (d1 itself when d1 = d2, when the cofactors are 1) and
    gcd(t, g) a monomial gcd."""
    (m1,), (m2,) = d1._terms, d2._terms
    g = m1 if m1 == m2 else _regrade(_field_min(m1, m2))
    c1, c2 = m1 - g, m2 - g
    if c2 and not n1.is_constant():
        _check_degree(n1.total_degree() + (c2 >> _DSHIFT))
    if c1 and not n2.is_constant():
        _check_degree(n2.total_degree() + (c1 >> _DSHIFT))
    t = _keyshift(n1, c2) + _keyshift(n2, c1)
    h = _mono_gcd(t._terms, g)  # h = g when t = 0, which leaves 0/1
    if c1 and m2 != h:
        _check_degree(c1 + m2 - h >> _DSHIFT)
    return RatFun._of(_keyshift(t, -h), _mono(c1 + m2 - h))


def _mono_derive(n: Poly, d: Poly, name: str) -> RatFun:
    """(n/d)' for a monomial d with x^k in it.  For k > 0, on packed keys:
    gcd(d, d') = d/x, so t = x n' - k n over x d, and only a monomial gcd
    of t with x d can cancel.  For k = 0, d is a constant for x: n'/d,
    which the public constructor cancels (poly_gcd's monomial fast path)."""
    (m,) = d._terms
    i = _check_var(name)
    t = n.derive(name)
    k = m >> _SHIFT[i] & _MASK
    if not k:
        return RatFun(t, d) if m else RatFun._of(t, d)
    _check_degree((m >> _DSHIFT) + 1)
    t, m = _keyshift(t, _UNIT[i]) - n.scale(k), m + _UNIT[i]
    h = _mono_gcd(t._terms, m)
    return RatFun._of(_keyshift(t, -h), _mono(m - h))


def _product_by_gcd(n1: Poly, d1: Poly, n2: Poly, d2: Poly) -> tuple:
    """Henrici: after cancelling g1 = gcd(n1, d2) and g2 = gcd(n2, d1) the
    cofactor products are coprime, and their denominator is monic.  Here
    a cofactor on either side makes these general gcds."""
    g1, g2 = _gcd(n1, d2), _gcd(n2, d1)
    return _quo(n1, g1) * _quo(n2, g2), _quo(d1, g2) * _quo(d2, g1)


def _sum_by_gcd(n1: Poly, d1: Poly, n2: Poly, d2: Poly) -> tuple:
    """n1/d1 + n2/d2 for nonzero n1 and n2, a cofactor on either side.
    Over equal denominators one gcd of the full result; otherwise Henrici:
    t = n1 (d2/g) + n2 (d1/g) is prime to both cofactors, so only gcd(t, g)
    can cancel; a polynomial summand gives g = 1."""
    if d1 == d2:
        return _canonicalize(n1 + n2, d1)
    g = _gcd(d1, d2)
    c1, c2 = _quo(d1, g), _quo(d2, g)
    t = n1 * c2 + n2 * c1
    h = _gcd(t, g)
    return _quo(t, h), c1 * _quo(d2, h)


def _derive_by_gcd(n: Poly, d: Poly, name: str) -> tuple:
    """(n/d)' through the general gcd, for d with a cofactor.  A factor of
    g free of the variable divides g's leading coefficient in it, so when
    that coefficient is a constant h = 1 without a gcd.  Quotients of monic
    polynomials by monic gcds are monic, so the denominator needs no
    rescaling."""
    dn = n.derive(name)
    dd = d.derive(name)
    if dd.is_zero():
        if dn.is_zero():
            return _ZERO, _ONE
        g, t, den = d, dn, d
    else:
        g = _gcd(d, dd)
        c = _quo(d, g)
        t, den = dn * c - n * _quo(dd, g), d * c
    h = _ONE if _constant_lead(g, name) else _gcd(t, g)
    return _quo(t, h), _quo(den, h)


# ---------------------------------------------------------------------------
# denominators over a coprime base
# ---------------------------------------------------------------------------
#
# A RatFun whose denominator d is not a monomial carries the factorisation
# (m, pairs, cof) of d: d = m * prod(b**e for b, e in pairs) * cof, where
# m is the packed monomial content of d; each base b is a monic Poly with a
# primitive integer part, linear and not a monomial; and cof is None, or
# the monic rest of d when that is not linear, and then pairs is empty.
# ``_factor`` makes a new denominator one base or one cofactor; products,
# quotients and gcds of factored denominators (``_fmul``, ``_fgcd``) merge
# their bases by equality, which keeps them pairwise coprime.  Where
# neither operand has a cofactor every gcd is a min of exponents or a
# trial division (``_known``); otherwise the general gcd runs and its
# result's denominator goes through ``_factor`` again.  A gcd with such a
# denominator is kept as (m, pairs) alone.

def _factor(t: dict):
    """The factorisation of a monic denominator with integer part t, None
    for a monomial: after the monomial content, the rest of t is a base
    when it is linear and the cofactor otherwise."""
    if len(t) == 1:
        return None
    m = _mono_gcd(t, next(iter(t)))
    if m:
        t = {e - m: v for e, v in t.items()}
    lead = max(t)
    rest = Poly._of(t, (1, t[lead]))
    if lead >> _DSHIFT == 1:
        return m, ((rest, 1),), None
    return m, (), rest


def _mono_gcd(t: dict, m: int) -> int:
    """The monomial gcd of m and every monomial of t."""
    for e in t:
        if not m & _VARS:
            return _ZEXP
        m = _field_min(m, e)
    return _regrade(m)


def _strip(t: dict, b: dict, k: int):
    """t divided by b as often as b divides it, at most k times:
    (quotient, times divided)."""
    j = 0
    while j < k:
        q = _zquo(t, b)
        if q is None:
            break
        t, j = q, j + 1
    return t, j


def _cancel(p: Poly, f):
    """(p / h, h) for h = gcd(p, d), d a denominator with the known
    factorisation f: the monomial gcd, then trial division by each base of
    f up to its exponent."""
    m, pairs = f[0], f[1]
    t = p._terms
    hm = _mono_gcd(t, m) if m else _ZEXP
    if hm:
        t = {e - hm: v for e, v in t.items()}
    if len(t) == 1:
        pairs = ()  # no base, being no monomial, divides a monomial
    hpairs, lead = [], 1
    for b, e in pairs:
        t, j = _strip(t, b._terms, e)
        if j:
            hpairs.append((b, j))
            lead *= b._c[1] ** j
    if t is p._terms:
        return p, (_ZEXP, ())
    return Poly._of(t, _qmul(p._c, (lead, 1))), (hm, tuple(hpairs))


def _div(p: Poly, h) -> Poly:
    """p / h for a divisor h = (m, pairs) of p."""
    hm, hpairs = h
    if not hm and not hpairs:
        return p
    t = p._terms
    if hm:
        t = {e - hm: v for e, v in t.items()}
    lead = 1
    for b, j in hpairs:
        t = _strip(t, b._terms, j)[0]
        lead *= b._c[1] ** j
    return Poly._of(t, _qmul(p._c, (lead, 1)))


def _known(d1: Poly, f1, d2: Poly, f2):
    """The factorisations of d1 and d2, at least one of them stored, when
    neither has a cofactor (a monomial d as (d, ())); None otherwise."""
    if f1 is None:
        f1 = (next(iter(d1._terms)), ())
    elif f1[2] is not None:
        return None
    if f2 is None:
        f2 = (next(iter(d2._terms)), ())
    elif f2[2] is not None:
        return None
    return f1, f2


def _fmul(f, g, sign=1):
    """The factorisation (m, pairs) of the product f g, or for sign -1 of
    the quotient of f by its divisor g."""
    if not g[0] and not g[1]:
        return f
    pairs = list(f[1])
    for b, e in g[1]:
        for i, (c, k) in enumerate(pairs):
            if c is b or c == b:
                pairs[i] = (c, k + sign * e)
                break
        else:
            pairs.append((b, e))
    return f[0] + sign * g[0], tuple(p for p in pairs if p[1])


def _fgcd(f, g):
    """gcd as (m, pairs) of two factored denominators: a min of exponents."""
    m = _regrade(_field_min(f[0], g[0])) if f[0] and g[0] else _ZEXP
    return m, tuple((b, min(e, k)) for b, e in f[1] for c, k in g[1]
                    if c is b or c == b)


def _fpow(f, n: int):
    """The factorisation of the n-th power of a factored denominator."""
    if f is None or not n:
        return None
    m, pairs, cof = f
    return (m * n, tuple((b, e * n) for b, e in pairs),
            None if cof is None else cof ** n)


def _stored(f):
    """The factorisation (m, pairs) as RatFun keeps it: None when it is a
    monomial."""
    return (f[0], f[1], None) if f[1] else None


def _factored_sum(n1: Poly, d1: Poly, n2: Poly, d2: Poly, f1, f2) -> RatFun:
    """n1/d1 + n2/d2 over the known factorisations f1 and f2 (Henrici, as in
    ``RatFun.__add__``): g = gcd(d1, d2) is a min of exponents and gcd(t, g)
    a trial division of t."""
    g = _fgcd(f1, f2)
    r1, r2 = _fmul(f1, g, -1), _fmul(f2, g, -1)
    c1 = _div(d1, g) if r1[0] or r1[1] else _ONE
    c2 = _div(d2, g) if r2[0] or r2[1] else _ONE
    t = n1 * c2 + n2 * c1
    if t.is_zero():
        return _RZERO
    t, h = _cancel(t, g)
    fac = _fmul(r1, _fmul(f2, h, -1))
    return RatFun._of(t, c1 * _div(d2, h), _stored(fac))


def _factored_derive(n: Poly, d: Poly, f, name: str) -> RatFun:
    """(n/d)' over the factorisation f of d, with no cofactor.  The factors
    of d that involve the variable are the variable itself, to the power k
    it has in m, and the varying bases; their product is c = d/gcd(d, d')
    and d'/gcd(d, d') = sum over them of e p' c/p.  Only the factors free
    of the variable can cancel from t, each to its full power."""
    i = _check_var(name)
    s = _SHIFT[i]
    m, pairs = f[0], f[1]
    k = m >> s & _MASK
    varying, free = [], []
    for b, e in pairs:
        (varying if i in _support(b._terms) else free).append((b, e))
    free = tuple(free)
    factors = ([(Poly.var(name), k)] if k else []) + varying
    t = n.derive(name)
    den = d
    if factors:
        c, q = _ONE, _ZERO
        for p, _ in factors:
            c = c * p
        for j, (p, e) in enumerate(factors):
            term = p.derive(name).scale(e)
            for l, (p2, _) in enumerate(factors):
                if l != j:
                    term = term * p2
            q = q + term
        t, den = t * c - n * q, d * c
    if t.is_zero():
        return _RZERO
    t, h = _cancel(t, (m - k * _UNIT[i], free))
    grown = (m + (_UNIT[i] if k else _ZEXP),
             tuple((b, e + 1) for b, e in varying) + free)
    return RatFun._of(t, _div(den, h), _stored(_fmul(grown, h, -1)))


def _as_ratfun(v) -> RatFun:
    if isinstance(v, RatFun):
        return v
    if isinstance(v, Poly):
        return RatFun._of(v, _ONE)
    if isinstance(v, (int, Fraction)):
        return RatFun.const(v)
    raise TypeError(f"cannot coerce {type(v).__name__} to RatFun")
