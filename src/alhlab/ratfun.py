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

GCDs use monomial fast paths (every model-metric denominator is a
monomial, so curvature computations never enter the general routine).
The general case is a heuristic gcd over the integers, whose every answer
is checked by exact division, backed by a primitive pseudo-remainder
sequence for the rare inputs where the heuristic gives up.

Floating point appears only inside :func:`rf_eval` / :meth:`RatFun.evaluate`
when the caller supplies float values.
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

    def evaluate(self, point: dict):
        needed = self.variables()
        missing = needed - point.keys()
        if missing:
            raise KeyError(f"no value supplied for {sorted(missing)}")
        use_float = any(isinstance(point[v], float) for v in needed)
        total = 0.0 if use_float else Fraction(0)
        for e, c in self.terms.items():
            term = float(c) if use_float else c
            for i, p in enumerate(e):
                if p:
                    v = point[VARIABLES[i]]
                    v = float(v) if use_float else Fraction(v)
                    term *= v ** p
            total += term
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


def _from_univar(coeffs: dict, i: int) -> Poly:
    t = {}
    for d, poly in coeffs.items():
        for e, c in poly.terms.items():
            ne = list(e)
            ne[i] = ne[i] + d
            t[tuple(ne)] = c
    return Poly(t)


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
        if self.den == other.den:
            return RatFun(self.num + other.num, self.den)
        return RatFun(self.num * other.den + other.num * self.den,
                      self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return RatFun(-self.num, self.den, _canonical=True)

    def __sub__(self, other):
        return self + (-_as_ratfun(other))

    def __rsub__(self, other):
        return _as_ratfun(other) + (-self)

    def __mul__(self, other):
        other = _as_ratfun(other)
        return RatFun(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _as_ratfun(other)
        if other.num.is_zero():
            raise ZeroDivisionError("division by identically-zero RatFun")
        return RatFun(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        return _as_ratfun(other) / self

    def __pow__(self, n: int):
        if n == 0:
            return RatFun.const(1)
        if n < 0:
            if self.num.is_zero():
                raise ZeroDivisionError("0 ** negative")
            return RatFun(self.den ** (-n), self.num ** (-n))
        return RatFun(self.num ** n, self.den ** n)

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
        n, d = self.num, self.den
        if d.is_constant():
            return RatFun(n.derive(name), d)
        return RatFun(n.derive(name) * d - n * d.derive(name), d * d)

    def evaluate(self, point: dict):
        dv = self.den.evaluate(point)
        if dv == 0:
            raise PoleError(f"denominator {self.den!r} vanishes at {point}")
        nv = self.num.evaluate(point)
        if isinstance(nv, float) or isinstance(dv, float):
            return float(nv) / float(dv)
        return nv / dv

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
    if not (g.is_constant() and g.constant_value() == 1):
        num = exact_div(num, g)
        den = exact_div(den, g)
    _, lc = den.leading()
    if lc != 1:
        num = num.scale(1 / lc)
        den = den.scale(1 / lc)
    return num, den


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


ZERO = RatFun.const(0)
ONE = RatFun.const(1)
