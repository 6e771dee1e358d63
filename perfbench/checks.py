"""Output checks for the benchmark, computed apart from alhlab.

Every check compares an alhlab result with an independent computation or
a property that follows from the mathematics: a finite-difference Ricci
tensor from metric components written out here, closed forms, or an exact
identity.  None compares with a stored copy of an earlier run.  Each check
returns ``None`` when the result is right and a short message otherwise.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath
import numpy as np

# ---------------------------------------------------------------------------
# model metrics as closed forms in the coordinates (radial, y1, y2, theta)
# ---------------------------------------------------------------------------


def _twisted(rad, fiber, circle, y1):
    """rad d(radial)^2 + fiber (dy1^2 + dy2^2) + circle (dtheta + y1 dy2)^2."""
    zero = 0 * fiber
    return [[rad, zero, zero, zero],
            [zero, fiber, zero, zero],
            [zero, zero, fiber + circle * y1 * y1, circle * y1],
            [zero, zero, circle * y1, circle]]


def metric_components(name: str, c):
    """Metric components at coordinates ``c`` for gh, a, model, gh_r and
    calabi:N (N >= 3, in the N-th-root radial variable), as a 4x4 list."""
    x, y1 = c[0], c[1]
    if name == "gh":
        return _twisted(x ** -5, 1 / x, x, y1)
    if name == "a":
        return _twisted(x ** -6, x ** -2, x ** 0, y1)
    if name == "model":
        return _twisted(x ** -4, x ** 0, x * x, y1)
    if name == "gh_r":
        return _twisted(x, x, 1 / x, y1)
    if name.startswith("calabi:"):
        n = int(name.split(":")[1])
        return _twisted(n * n * x ** (-2 * n - 4), x ** -2, x ** (2 * n - 2),
                        y1)
    raise KeyError(name)


# The oracles difference sampled values in 50-digit arithmetic: calabi:10
# has q^-24 terms whose cancellations in float64 lose 1e-4 of the result.
_DPS = 50
_STEP = mpmath.mpf("1e-10")


def _mp(point):
    return [mpmath.mpf(Fraction(v).numerator) / Fraction(v).denominator
            for v in point]


def _d(f, c, i, h):
    """Fourth-order central difference of list-valued f along axis i."""
    def at(step):
        cc = list(c)
        cc[i] += step
        return f(cc)
    a, b, d, e = at(2 * h), at(h), at(-h), at(-2 * h)
    return [(-p + 8 * q - 8 * r + s) / (12 * h)
            for p, q, r, s in zip(a, b, d, e)]


def _flat(name, c):
    return [v for row in metric_components(name, c) for v in row]


def _christoffel(name, c, h):
    """Gamma^l_ij as a flat list of 64, index 16 l + 4 i + j."""
    ginv = mpmath.matrix(metric_components(name, c)) ** -1
    dg = [_d(lambda cc: _flat(name, cc), c, i, h) for i in range(4)]
    gam = []
    for l in range(4):
        for i in range(4):
            for j in range(4):
                gam.append(sum(ginv[l, m] * (dg[i][4 * m + j]
                                             + dg[j][4 * m + i]
                                             - dg[m][4 * i + j])
                               for m in range(4)) / 2)
    return gam


def fd_ricci(name: str, point) -> np.ndarray:
    """Ricci tensor from sampled metric values only, in alhlab's index
    convention Ric[j][k] = sum_i Riem[i][j][i][k] with
    Riem[l][i][j][k] = d_i Gamma^l_jk - d_j Gamma^l_ik
    + Gamma^l_im Gamma^m_jk - Gamma^l_jm Gamma^m_ik."""
    with mpmath.workdps(_DPS):
        c = _mp(point)
        h = c[0] * _STEP
        gam = _christoffel(name, c, h)
        dgam = [_d(lambda cc: _christoffel(name, cc, h), c, a, h)
                for a in range(4)]

        def G(l, i, j):
            return gam[16 * l + 4 * i + j]
        ric = np.zeros((4, 4))
        for j in range(4):
            for k in range(4):
                s = sum(dgam[j][16 * i + 4 * i + k]
                        - dgam[i][16 * i + 4 * j + k] for i in range(4))
                s += sum(G(i, j, m) * G(m, i, k) - G(i, i, m) * G(m, j, k)
                         for i in range(4) for m in range(4))
                ric[j, k] = float(s)
    return ric


def check_ricci_fd(name, want, ricci_at_point, rel=1e-9):
    """Exact Ricci values at a rational point against ``fd_ricci`` there."""
    got = np.array(ricci_at_point, dtype=float)
    err = float(np.max(np.abs(got - want)))
    scale = 1.0 + float(np.max(np.abs(want)))
    if not err <= rel * scale:
        return f"{name}: Ricci differs from FD oracle by {err:.3e}"
    return None


def check_ricci_zero(label, ric):
    """Ricci-flatness must hold as an identically-zero matrix."""
    nonzero = [(i, j) for i in range(4) for j in range(4)
               if not ric[i][j].is_zero()]
    if nonzero:
        return f"{label}: Ricci not identically zero at {nonzero[:3]}"
    return None


# ---------------------------------------------------------------------------
# Laplace-Beltrami operator, by finite differences of sampled values
# ---------------------------------------------------------------------------

def fd_laplacian(name, poly, point):
    """(1/sqrt g) d_i (sqrt g g^ij d_j f) at ``point`` for a polynomial
    f given as {exponent tuple over (radial, y1, y2): coefficient}."""
    def grad(c):
        out = [0 * c[0]] * 4
        for exp, coef in poly.items():
            for i in range(3):
                if exp[i]:
                    e = list(exp)
                    e[i] -= 1
                    out[i] += coef * exp[i] * c[0] ** e[0] * c[1] ** e[1] \
                        * c[2] ** e[2]
        return out

    def flux(c):
        g = mpmath.matrix(metric_components(name, c))
        return list(mpmath.sqrt(mpmath.det(g)) * mpmath.lu_solve(g, grad(c)))

    with mpmath.workdps(_DPS):
        c = _mp(point)
        h = c[0] * _STEP
        div = sum(_d(flux, c, i, h)[i] for i in range(3))
        g0 = mpmath.matrix(metric_components(name, c))
        return float(div / mpmath.sqrt(mpmath.det(g0)))


def check_laplacian_fd(name, poly, point, value, rel=1e-9):
    want = fd_laplacian(name, poly, point)
    if not abs(float(value) - want) <= rel * (1.0 + abs(want)):
        return f"{name}: Laplacian differs from FD oracle ({value} vs {want})"
    return None


# ---------------------------------------------------------------------------
# closed forms and exact properties
# ---------------------------------------------------------------------------

SCALAR_ROOTS = {Fraction(-1), Fraction(0)}
D00_ROOTS = {"even": {Fraction(0), Fraction(2)},
             "odd": {Fraction(-3, 2), Fraction(1, 2)}}


def check_roots(label, roots, want):
    got = {Fraction(r) for r in roots}
    if got != set(want):
        return f"{label}: indicial roots {sorted(got)} != {sorted(want)}"
    return None


def decay_target(k, m):
    """Leading decay of the product-model mode (k, m): exp(-|m|/x) when
    only the torus frequency is set, exp(-k/(2 x^2)) for the circle."""
    if k:
        return -2, -k / 2.0
    return -1, -math.hypot(*m)


def check_decay(k, m, power, rate):
    want_power, want = decay_target(k, m)
    if power != want_power or not abs(rate - want) <= 0.05 * abs(want):
        return f"mode {(k, m)}: decay rate {rate} (x^{power}), want {want}"
    return None


def zero_mode_error(nodes, values, inner, outer, p=-1.0):
    """Max error against the closed form a + b x^p through both ends."""
    x0, x1 = nodes[0], nodes[-1]
    b = (inner - outer) / (x0 ** p - x1 ** p)
    a = outer - b * x1 ** p
    return float(np.max(np.abs(values - (a + b * nodes ** p))))


def check_second_order(errors):
    """Errors on grids n and 2n: small, and falling by at least 3x."""
    coarse, fine = errors
    if not (fine < 1e-4 and coarse / fine > 3.0):
        return f"zero mode not second order: errors {coarse:.3e}, {fine:.3e}"
    return None


def check_d00_fit(exponents, residual, flagged):
    if tuple(exponents) != (Fraction(2),) or not residual < 1e-4 or flagged:
        return (f"even D00 fit: exponents {exponents}, residual {residual}, "
                f"flagged {flagged}")
    return None


def check_sigma_min(at_weight, off_weight):
    """Grids of fixed density per decade reaching further in: at the
    indicial weight -1 the smallest singular value degenerates, at -1/2
    it stays put."""
    ok = (all(a > b for a, b in zip(at_weight, at_weight[1:]))
          and at_weight[-1] < 0.55 * at_weight[0]
          and off_weight[-1] > 0.8 * off_weight[0]
          and off_weight[-1] > 2 * at_weight[-1])
    if not ok:
        return f"sigma_min: at -1 {at_weight}, at -1/2 {off_weight}"
    return None


def check_cohomology(b, dims, total, split):
    want = [0, 0, 11 - b, 0, 0]
    if list(dims) != want or total != 3 * (10 - b) \
            or list(split) != [3 * (9 - b), 3]:
        return f"cohomology b={b}: {dims}, {total}, {split}"
    return None


def product_mode_coefficients(k, m):
    """Reduced product-model operator at mode (k, m):
    x^6 D^2 + 3 x^5 D - (m1^2 + m2^2) x^2 - k^2, as {order: (c, power)}
    terms of the form c * x^power."""
    out = {2: [(1, 6)], 1: [(3, 5)], 0: []}
    if m[0] or m[1]:
        out[0].append((-(m[0] ** 2 + m[1] ** 2), 2))
    if k:
        out[0].append((-k * k, 0))
    return out


def semiflat_closed_form(kind, c):
    """Expansion (A, B) of a twisted coframe in the (anti-)self-dual basis."""
    if kind == "theta_twist":
        return (np.array([[1, 0, 0], [0, 1, -c], [0, c, 1]], dtype=float),
                np.array([[0, 0, 0], [0, 0, c], [0, -c, 0]], dtype=float))
    if kind == "y1_twist":
        return (np.array([[1, -c, 0], [c, 1 - c * c / 2, 0], [0, 0, 1]]),
                np.array([[0, c, 0], [0, c * c / 2, 0], [0, 0, 0]]))
    perm = np.array([[1.0, 0, 0], [0, 0, 1], [0, 1, 0]])
    a, b = semiflat_closed_form("y1_twist", c)
    return perm @ a @ perm, perm @ b @ perm


def symmetrized_closed_form(kind, c):
    """(U, U A, U B) for the rotation to the symmetric gauge."""
    if kind == "theta_twist":
        s = math.sqrt(1 + c * c)
        return (np.array([[1, 0, 0], [0, 1 / s, c / s], [0, -c / s, 1 / s]]),
                np.diag([1.0, s, s]),
                np.array([[0, 0, 0], [0, -c * c / s, c / s],
                          [0, -c / s, -c * c / s]]))
    if kind == "y1_twist":
        d = 1 + c * c / 4
        u = np.array([[(1 - c * c / 4) / d, c / d, 0],
                      [-c / d, (1 - c * c / 4) / d, 0], [0, 0, 1]])
        a = np.array([[(1 + 3 * c * c / 4) / d, -(c ** 3 / 4) / d, 0],
                      [-(c ** 3 / 4) / d, (1 + c * c / 4 + c ** 4 / 8) / d, 0],
                      [0, 0, 1]])
        b = np.array([[0, (c + c ** 3 / 4) / d, 0],
                      [0, (-c * c / 2 - c ** 4 / 8) / d, 0], [0, 0, 0]])
        return u, a, b
    perm = np.array([[1.0, 0, 0], [0, 0, 1], [0, 1, 0]])
    return tuple(perm @ t @ perm
                 for t in symmetrized_closed_form("y1_twist", c))


def calabi_scaling_derivatives(alpha):
    """(A'', B') at t = 0 of the Calabi rescaling family."""
    a2 = alpha * alpha
    r3 = math.sqrt(3) * alpha
    return np.diag([-2 * a2, a2, a2]), np.diag([0.0, r3, r3])


def calabi_modulus_derivatives(alpha, beta):
    kk = alpha * alpha + beta * beta
    return (np.diag([-2 * kk / 3, kk / 3, kk / 3]),
            np.array([[0, 0, 0], [0, alpha, beta], [0, beta, -alpha]]))


def check_close(label, got, want, tol):
    err = float(np.max(np.abs(np.asarray(got, dtype=float) - want)))
    if not err <= tol:
        return f"{label}: off by {err:.3e}"
    return None


def blowup_x(stage, xt, u):
    """x through the stage coordinate: s = x/xt, s' = (s-1)/xt,
    S = s'/xt."""
    if stage == "b":
        return xt * u
    if stage == "c":
        return xt * (1 + xt * u)
    return xt * (1 + xt * xt * u)


BLOWUP_RADIAL = {"b": "s", "c": "s_prime", "a": "S"}
BLOWUP_JACOBIAN = {"b": 1, "c": 2, "a": 3}


def blowup_expected(stage, gen, xt, u, y1=None, Y1=None):
    """Chain-rule pushforward of a structure generator's coefficient
    through the blowup: radial x^3 d/dx, fibers x d/dy_i, and the twisted
    generator x (d/dy2 - y1 d/dtheta) (fiber and circle slots)."""
    x = blowup_x(stage, xt, u)
    fiber = x / xt if stage == "a" else x
    if gen == "radial":
        return x ** 3 / xt ** BLOWUP_JACOBIAN[stage]
    if gen == "fiber":
        return fiber
    return fiber, -(x * (y1 + xt * Y1))
