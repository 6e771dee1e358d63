"""Batch command-line front end emitting JSON or CSV for each capability.

Subcommands cover exact curvature checks, indicial data, mode-reduced
boundary value solves with expansion fits, deformation families with
their symmetrization and derivative reports, the harmonic-form dimension
tables, the blowup lift verification, and the standard-triple wedge
algebra.  Exit codes: 0 success, 1 usage error, 2 numerical failure or
the packed-field degree limit (2^15 - 1) reached, 3 broken exact
identity.
"""

from __future__ import annotations

import argparse
import csv
import importlib.util
import io
import json
import math
import os
import random
import re
import sys
import tempfile
from fractions import Fraction

from .config import (DEFAULT, DegreeOverflowError, ExactIdentityError,
                     Tolerances)


def _lazy(name):
    """The module ``alhlab.<name>``, registered in ``sys.modules`` and on
    the package but executed only on its first attribute access, so a
    subcommand compiles and runs only the modules it reaches.

    Plain imports inside each handler would do the same, but the
    benchmark's tracer (``perfbench/spans.py``) imports this module and
    then looks up every module it wraps in ``sys.modules``; a lazy module
    is there, and the tracer's own attribute access loads it."""
    fullname = f"{__package__}.{name}"
    if fullname in sys.modules:
        return sys.modules[fullname]
    spec = importlib.util.find_spec(fullname)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[fullname] = module
    spec.loader.exec_module(module)
    setattr(sys.modules[__package__], name, module)
    return module


# every package module, linalg too, though no handler calls it directly:
# after ``import alhlab.cli`` the whole package is in ``sys.modules``
(linalg, ratfun, geometry, forms, operators, indicial, modes, families, hk,
 cohomology) = (_lazy(name) for name in (
    "linalg", "ratfun", "geometry", "forms", "operators", "indicial", "modes",
    "families", "hk", "cohomology"))

__all__ = ["cli_dispatch", "main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERIC = 2
EXIT_IDENTITY = 3


class _UsageError(Exception):
    pass


class _HelpShown(Exception):
    """-h or --help: the help text is the artifact, with exit code 0."""


#: (exception type, exit code, JSON ``kind``) for ``cli_dispatch``, first
#: match wins; usage errors print a message, not a document.  Only
#: ``ExactIdentityError`` is a broken identity; the packed-field degree
#: limit (2^15 - 1) is a resource limit, and every other
#: ``ArithmeticError`` is numerical, as is numpy's ``LinAlgError`` (see
#: ``_failure``).
_FAILURES = (
    (_UsageError, EXIT_USAGE, None),
    (ExactIdentityError, EXIT_IDENTITY, "exact-identity-failure"),
    (DegreeOverflowError, EXIT_NUMERIC, "degree-cap-exceeded"),
    (ArithmeticError, EXIT_NUMERIC, "numerical-failure"),
    (ValueError, EXIT_USAGE, None),
)
_CAUGHT = tuple(exc_type for exc_type, _, _ in _FAILURES)


def _failure(exc) -> tuple:
    """(exit code, kind) of a caught exception.  numpy's ``LinAlgError``
    subclasses ``ValueError``, so it is matched ahead of the table; numpy
    is looked up, not imported: if no code loaded it, none was raised."""
    np = sys.modules.get("numpy")
    if np is not None and isinstance(exc, np.linalg.LinAlgError):
        return EXIT_NUMERIC, "numerical-failure"
    return next((code, kind) for exc_type, code, kind in _FAILURES
                if isinstance(exc, exc_type))


class _Parser(argparse.ArgumentParser):
    """argparse that raises instead of exiting or printing, so usage
    failures map to exit code 1 and help to exit code 0."""

    def error(self, message):
        raise _UsageError(message)

    def print_help(self, file=None):
        raise _HelpShown(self.format_help())


# ---------------------------------------------------------------------------
# serialization helpers
# ---------------------------------------------------------------------------

def _clean(obj):
    """Recursively convert results to JSON-friendly deterministic data:
    exact values to strings, arrays to nested lists and numpy scalars to
    Python numbers (numpy is looked up, not imported: if no code loaded
    it, there are none)."""
    if isinstance(obj, dict):
        return {str(k): _clean(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_clean(v) for v in obj]
    if isinstance(obj, Fraction):
        return str(obj)
    np = sys.modules.get("numpy")
    if np is not None:
        if isinstance(obj, np.ndarray):
            return [_clean(v) for v in obj.tolist()]
        if isinstance(obj, np.generic):
            return obj.item()
    # plain leaves first: the RatFun test loads ratfun
    if obj is None or isinstance(obj, (str, int, float)):
        return obj
    if isinstance(obj, ratfun.RatFun):
        return str(obj)
    return obj


def _flatten(obj, prefix=""):
    rows = []
    if isinstance(obj, dict):
        for k in obj:
            rows.extend(_flatten(obj[k], f"{prefix}.{k}" if prefix else k))
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            rows.extend(_flatten(v, f"{prefix}[{i}]"))
    else:
        rows.append((prefix, obj))
    return rows


def _render(doc, fmt):
    doc = _clean(doc)
    if fmt == "json":
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(["key", "value"])
    for key, value in _flatten(doc):
        writer.writerow([key, value])
    return out.getvalue()


def _atomic_write(path, text):
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".alhlab-")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _tolerances(args) -> Tolerances:
    """DEFAULT with the ``key=value`` lines of the ``--config`` file
    applied; each key must name a field and each value be a positive
    finite float, with amplitude_lo below amplitude_hi."""
    if not args.config:
        return DEFAULT
    try:
        with open(args.config) as handle:
            lines = handle.read().splitlines()
    except OSError as exc:
        raise _UsageError(f"cannot read config file: {exc}")
    overrides = {}
    for line in lines:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, raw = (part.strip() for part in line.partition("="))
        if not sep:
            raise _UsageError(f"config line without '=': {line!r}")
        if key not in Tolerances._fields:
            raise _UsageError(f"unknown tolerance override {key!r}")
        try:
            value = float(raw)
        except ValueError:
            value = math.nan
        if not math.isfinite(value):
            raise _UsageError(f"tolerance override {key}={raw!r} is not "
                              "a finite number")
        # at zero or below (1e-400 parses to 0.0) every sound solve or
        # fit would fail, or be flagged, later
        if value <= 0:
            raise _UsageError(f"tolerance override {key}={raw!r} is not "
                              "positive")
        overrides[key] = value
    tol = DEFAULT._replace(**overrides)
    if tol.amplitude_lo >= tol.amplitude_hi:
        raise _UsageError(f"tolerance override amplitude_lo="
                          f"{tol.amplitude_lo!r} is not below amplitude_hi="
                          f"{tol.amplitude_hi!r}")
    return tol


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

#: metric name -> (builder, paper reference); ``calabi:N`` is parsed apart
_METRICS = {
    "gh": (lambda: geometry.metric_gh(), "gibbons-hawking-model-metric"),
    "a": (lambda: geometry.metric_a(), "conformal-a-metric"),
    "model": (lambda: geometry.metric_model(), "cylindrical-model-metric"),
}


#: the most decimal digits Python converts between int and str by default
_MAX_DIGITS = 4300
#: a decimal with an exponent, as ``Fraction`` reads it (compiled on its
#: first use, not at import)
_EXPONENT = (r"\s*([-+]?(?:\d+(?:_\d+)*)?(?:\.(?:\d+(?:_\d+)*)?)?)"
             r"[eE]([-+]?\d+(?:_\d+)*)\s*")


def _coordinate(text):
    """``Fraction(text)`` for an ``--at`` coordinate, refused as a usage
    error when its numerator or denominator has more than ``_MAX_DIGITS``
    digits.  A nonzero decimal whose exponent alone passes that limit is
    refused from the string: ``Fraction`` would build 10 to its power
    first."""
    match = re.fullmatch(_EXPONENT, text)
    if match and not Fraction(match[1]):
        return Fraction(0)
    if not (match and abs(int(match[2]))
            >= _MAX_DIGITS + sum(map(str.isdigit, match[1]))):
        value = Fraction(text)
        if max(abs(value.numerator), value.denominator) < 10 ** _MAX_DIGITS:
            return value
    raise _UsageError(f"--at: coordinate {text!r} has more than "
                      f"{_MAX_DIGITS} digits in its numerator or denominator")


def _cmd_curvature(args):
    name = args.metric
    if name.startswith("calabi:"):
        digits = name[len("calabi:"):]
        if not re.fullmatch("[1-9][0-9]*", digits):
            raise _UsageError(f"metric {name!r}: calabi:N takes an integer "
                              "N >= 2 in ASCII decimal digits, with no sign, "
                              "leading zero or '_'")
        if len(digits) > 4300:
            # int() refuses longer decimal strings, and every such N is
            # far past the degree limit
            raise DegreeOverflowError(
                f"metric calabi:N with a {len(digits)}-digit N: its degree "
                "2N + 4 exceeds the packed field maximum 32767")
        n = int(digits)
        g = geometry.metric_calabi(n)
        ref = f"calabi-family-degree-{n}"
    elif name in _METRICS:
        build, ref = _METRICS[name]
        g = build()
    else:
        raise _UsageError(f"unknown metric {name!r}")
    ric = geometry.ricci(g)
    nonzero = [(j, k) for j in range(4) for k in range(4)
               if not ric[j][k].is_zero()]
    results = {"metric": name, "ricci_zero_exact": not nonzero,
               "ricci": "nonzero" if nonzero else "0 (identically)"}
    if name == "gh" and nonzero:
        raise ExactIdentityError(
            "model metric failed exact Ricci-flatness")
    if nonzero:
        results["ricci_nonzero_entries"] = len(nonzero)
    if nonzero and args.exact:
        results["scalar"] = str(geometry.scalar_curvature(g, ric))
    if args.at is not None:
        try:
            values = [_coordinate(v) for v in args.at.split(",")]
        except (ValueError, ZeroDivisionError):
            raise _UsageError(f"--at {args.at!r}: coordinates must be "
                              "rational numbers")
        if len(values) != 4:
            raise _UsageError("--at needs four comma-separated coordinates")
        point = dict(zip(g.chart.variables, values))
        # the radial end x = lo is the singular boundary, not a point
        for v, box in g.chart.domain.items():
            if box is None:
                continue
            lo, hi = box
            radial = v == g.chart.radial
            if not (lo < point[v] if radial else lo <= point[v]) \
                    or point[v] > hi:
                raise _UsageError(
                    f"--at: {v} = {point[v]} lies outside the chart domain "
                    f"{'(' if radial else '['}{lo}, {hi}]")
        results["point"] = [str(v) for v in values]
        results["ricci_max_abs_at_point"] = max(
            abs(float(ric[i][j].evaluate(point)))
            for i in range(4) for j in range(4))
    return results, [ref, "curvature-pipeline"], []


_OPERATORS = {
    "scalar": lambda: operators.reduced_scalar_b(),
    "d00-even": lambda: operators.reduced_D00("even"),
    "d00-odd": lambda: operators.reduced_D00("odd"),
}


def _cmd_indicial(args):
    if args.operator not in _OPERATORS:
        raise _UsageError(f"unknown operator {args.operator!r}")
    op = _OPERATORS[args.operator]()
    roots = indicial.indicial_roots(indicial.indicial_poly(op))
    results = {
        "operator": args.operator,
        "roots": [{
            "root": str(r.root),
            "multiplicity": r.multiplicity,
            "nullvectors": [[str(c) for c in vec] for vec in r.nullvectors],
        } for r in roots],
    }
    if args.weights:
        window = indicial.weight_window(roots)
        results["weights"] = [str(w) for w in window.weights]
    refs = ["indicial-polynomial", f"reduced-operator-{args.operator}"]
    return results, refs, []


#: largest ``--grid``: a solve there peaks near 160 MB; a larger
#: request is refused before anything is allocated
MAX_GRID = 10 ** 6


def _cmd_modes_solve(args):
    tol = _tolerances(args)
    if args.grid > MAX_GRID:
        raise _UsageError(f"--grid {args.grid} exceeds the largest grid "
                          f"{MAX_GRID}")
    try:
        m = tuple(int(v) for v in args.m.split(","))
    except ValueError:
        raise _UsageError("--m needs two comma-separated integers")
    if len(m) != 2:
        raise _UsageError("--m needs two comma-separated integers")
    if not math.isfinite(args.cutoff):
        raise _UsageError(f"--cutoff {args.cutoff!r} is not finite")
    grid = modes.RadialGrid(n=args.grid)
    op = operators.project_modes(operators.laplacian(geometry.metric_a()),
                                 args.k, m, product_model=True)
    problem = modes.BVProblem(op, grid, inner=modes.Dirichlet.scalar(0.0),
                              outer=modes.Dirichlet.scalar(1.0))
    u = modes.solve_bvp(problem, tol)
    results = {
        "k": args.k, "m": list(m), "grid": grid.n,
        "x_min": grid.x_min, "x_max": grid.x_max,
        "outer_value": 1.0,
        "max_abs": float(abs(u.values).max()),
        "unknowns": int(u.values.size),
        "discrete_residual": u.residual,
    }
    warnings = []
    if args.fit:
        try:
            roots = indicial.indicial_roots(indicial.indicial_poly(op))
            fit = modes.fit_expansion(u, roots, cutoff=args.cutoff,
                                      config=tol)
            results["fit"] = {
                "kind": "power-expansion",
                "exponents": [str(g) for g in fit.exponents],
                "coefficients": fit.coefficients[:, 0].tolist(),
                "residual": fit.residual,
                "slope": fit.slope,
                "flagged": fit.flagged,
            }
        except indicial.NotBTypeError:
            power = -1 if args.k == 0 else -2
            rate = modes.fit_decay_rate(u, power, config=tol)
            results["fit"] = {
                "kind": "exponential-rate",
                "log_power": power,
                "coefficient": rate,
            }
            warnings.append("operator is not regular-singular at the "
                            "inner end; fitted an exponential rate")
    return results, ["product-model-mode-reduction"], warnings


#: closed-form family -> (constructor, parameter names); the names are
#: both the ``--param`` count and the result keys
_FAMILIES = {
    "calabi-scaling": (lambda *p: families.family_calabi_scaling(*p),
                       ("alpha",)),
    "calabi-modulus": (lambda *p: families.family_calabi_modulus(*p),
                       ("alpha", "beta")),
}
_SF_KINDS = {"sf-theta": "theta_twist", "sf-y1": "y1_twist",
             "sf-y2": "y2_twist"}


def _cmd_deform(args):
    if args.family not in _FAMILIES and args.family not in _SF_KINDS:
        raise _UsageError(f"unknown family {args.family!r}")
    params = [float(p) for p in args.param.split(",")]
    if not all(math.isfinite(p) for p in params):
        raise _UsageError(f"--param {args.param!r} is not finite")
    results = {"family": args.family}
    warnings = []
    if args.family in _SF_KINDS:
        if len(params) != 1:
            raise _UsageError("semiflat families take one parameter c")
        c = params[0]
        A, B = hk.semiflat_matrices(_SF_KINDS[args.family], c)
        U, A_sym, B_sym = hk.symmetrize(A, B)
        results.update({
            "c": c, "A_raw": A, "B_raw": B, "rotation": U,
            "A_symmetric": A_sym, "B_symmetric": B_sym,
        })
        return results, ["semiflat-coframe-deformation",
                         "polar-symmetrization"], warnings
    build, names = _FAMILIES[args.family]
    if len(params) != len(names):
        raise _UsageError(f"{args.family} takes --param {','.join(names)}")
    fam = build(*params)
    results.update(zip(names, params))
    report = families.second_derivative_report(fam)
    results["A_ddot"] = report["A_ddot"]
    results["B_dot"] = report["B_dot"]
    results["lambda_ddot"] = report["lambda_ddot"]
    if args.report_mm:
        results["mm_residual_printed"] = report["mm_residual_printed"]
        results["mm_residual_factor2"] = report["mm_residual_factor2"]
        warnings.append("second-order constraint residuals are reported "
                        "in both normalizations, not asserted")
    return results, ["deformation-family-derivatives"], warnings


def _cmd_cohomology(args):
    table = cohomology.l2_hodge_table(args.b)
    total = cohomology.moduli_dim(args.b)
    results = {
        "b": args.b,
        "table": [{"k": row.k, "label": row.label, "dim": row.dim}
                  for row in table],
        "moduli_total": int(total),
        "moduli_split": list(total.split),
    }
    warnings = ["perversity bracket index is read as a floor"]
    return results, ["harmonic-form-dimension-table",
                     "moduli-dimension-count"], warnings


_STAGE_RADIAL = {"b": "s", "c": "s_prime", "a": "S"}
_STAGE_JAC_POW = {"b": 1, "c": 2, "a": 3}


def _stage_x(stage, xt, u):
    if stage == "b":
        return xt * u
    if stage == "c":
        return xt * (1 + xt * u)
    return xt * (1 + xt * xt * u)


def _cmd_lift_check(args):
    rng = random.Random(args.seed)
    gens = operators.structure_fields("a")
    twisted = operators.structure_fields("a", twisted=True)[2]
    checks = 0
    mismatches = []

    def verify(label, got, want):
        nonlocal checks
        checks += 1
        if got != want:
            mismatches.append(label)

    for stage in ("b", "c", "a"):
        radial = _STAGE_RADIAL[stage]
        jac_pow = _STAGE_JAC_POW[stage]
        lifted_radial = operators.blowup_lift(gens[0], stage)
        lifted_fibers = [operators.blowup_lift(gens[i], stage)
                         for i in (1, 2)]
        lifted_circle = operators.blowup_lift(gens[3], stage)
        verify(f"{stage}:circle",
               lifted_circle.coefficients[3], ratfun.RatFun.const(1))
        for _ in range(10):
            xt = Fraction(rng.randint(1, 9), rng.randint(10, 40))
            u = Fraction(rng.randint(1, 40), rng.randint(5, 20))
            x_val = _stage_x(stage, xt, u)
            pt = {"x": xt, radial: u}
            verify(f"{stage}:radial",
                   lifted_radial.coefficients[0].evaluate(pt),
                   x_val ** 3 / xt ** jac_pow)
            scale = xt if stage == "a" else Fraction(1)
            for idx, lifted in zip((1, 2), lifted_fibers):
                verify(f"{stage}:fiber{idx}",
                       lifted.coefficients[idx].evaluate(pt), x_val / scale)
    lifted_tw = operators.blowup_lift(twisted, "a")
    for _ in range(10):
        xt = Fraction(rng.randint(1, 9), rng.randint(10, 40))
        S = Fraction(rng.randint(1, 40), rng.randint(5, 20))
        yt1 = Fraction(rng.randint(-10, 10), rng.randint(1, 7))
        Y1 = Fraction(rng.randint(-10, 10), rng.randint(1, 7))
        x_val = xt * (1 + xt * xt * S)
        pt = {"x": xt, "S": S, "y1": yt1, "Y1": Y1}
        verify("a:twisted-fiber",
               lifted_tw.coefficients[2].evaluate(pt), x_val / xt)
        verify("a:twisted-circle",
               lifted_tw.coefficients[3].evaluate(pt),
               -(x_val * (yt1 + xt * Y1)))
    if mismatches:
        raise ExactIdentityError(
            f"lift identities broke at: {sorted(set(mismatches))}")
    results = {"checks": checks, "mismatches": 0, "all_exact": True,
               "stages": ["b", "c", "a"], "seed": args.seed}
    return results, ["projective-blowup-lifts",
                     "jacobian-pushforward-oracle"], []


def _cmd_triple_q(args):
    basis = forms.PMBasis()
    triple = hk.Triple.standard()
    q = hk.q_map(triple, basis.volume_form())
    if not all(q[i][j].is_zero() for i in range(3) for j in range(3)):
        raise ExactIdentityError(
            "standard triple failed the wedge identity")
    eps = Fraction(1, 8)
    eta = hk.Triple(tuple(w.scale(ratfun.RatFun.const(eps))
                          for w in triple.forms))
    res = hk.gauge_residual(eta, triple, geometry.metric_gh_r())
    diag = [str(res[i][i]) for i in range(3)]
    off_zero = all(res[i][j].is_zero()
                   for i in range(3) for j in range(3) if i != j)
    results = {
        "q_standard_all_zero": True,
        "gauge_residual_epsilon": str(eps),
        "gauge_residual_diagonal": diag,
        "gauge_residual_offdiagonal_zero": off_zero,
    }
    return results, ["wedge-defect-map", "gauged-deformation-residual"], []


# ---------------------------------------------------------------------------
# parser and dispatch
# ---------------------------------------------------------------------------

def _build_parser() -> _Parser:
    """The subcommand tree; each leaf parser binds its handler as ``run``."""
    parser = _Parser(prog="alhlab",
                     description="exact-symbolic and numerical toolkit "
                                 "for fibered-boundary model geometry")
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    parser.add_argument("--output", default=None,
                        help="write the artifact to this path atomically")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--config", default=None,
                        help="key=value file of tolerance overrides")
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("curvature", help="exact curvature of a model metric")
    p.set_defaults(run=_cmd_curvature)
    p.add_argument("--metric", required=True,
                   help="gh | a | model | calabi:N")
    p.add_argument("--at", default=None,
                   help="four comma-separated rational coordinates")
    p.add_argument("--exact", action="store_true")

    p = sub.add_parser("indicial", help="indicial roots and weights")
    p.set_defaults(run=_cmd_indicial)
    p.add_argument("--operator", required=True,
                   help="scalar | d00-even | d00-odd")
    p.add_argument("--weights", action="store_true")

    p = sub.add_parser("modes", help="mode-reduced radial solves")
    modes_sub = p.add_subparsers(dest="modes_command")
    ps = modes_sub.add_parser("solve")
    ps.set_defaults(run=_cmd_modes_solve)
    ps.add_argument("--k", type=int, required=True)
    ps.add_argument("--m", required=True, help="two integers m1,m2")
    ps.add_argument("--grid", type=int, default=800)
    ps.add_argument("--fit", action="store_true")
    ps.add_argument("--cutoff", type=float, default=-3.5,
                    help="weight cutoff for the expansion fit")

    p = sub.add_parser("deform", help="deformation families and reports")
    p.set_defaults(run=_cmd_deform)
    p.add_argument("--family", required=True,
                   help="calabi-scaling | calabi-modulus | sf-theta | "
                        "sf-y1 | sf-y2")
    p.add_argument("--param", required=True,
                   help="family parameters, comma separated")
    p.add_argument("--report-mm", action="store_true", dest="report_mm")

    p = sub.add_parser("cohomology", help="dimension tables")
    p.set_defaults(run=_cmd_cohomology)
    p.add_argument("--b", type=int, required=True)

    sub.add_parser("lift-check", help="blowup lift verification") \
        .set_defaults(run=_cmd_lift_check)
    sub.add_parser("triple-q", help="standard triple wedge algebra") \
        .set_defaults(run=_cmd_triple_q)
    return parser


def _attach_option_values(argv) -> list:
    """``--option VALUE`` as ``--option=VALUE`` when VALUE starts with a
    minus sign and a digit or point: argparse takes such a token for an
    option unless it is a plain negative number, and ``-1,0`` or
    ``-1/4,1/2,1/2,0`` is not.  A flag that takes no value then fails
    as ``--flag=VALUE``, still a usage error."""
    out = []
    for tok in argv:
        prev = out[-1] if out else ""
        if (prev.startswith("--") and prev != "--" and "=" not in prev
                and re.match(r"-[\d.]", tok)):
            out[-1] = f"{prev}={tok}"
        else:
            out.append(tok)
    return out


def cli_dispatch(argv) -> tuple:
    """Run one subcommand; returns (exit code, emitted artifact text)."""
    parser = _build_parser()
    inputs_note = {}
    try:
        args = parser.parse_args(_attach_option_values(argv))
        if args.command is None:
            raise _UsageError("a subcommand is required")
        if getattr(args, "run", None) is None:
            raise _UsageError("modes requires the 'solve' subcommand")
        inputs_note = {k: v for k, v in vars(args).items()
                       if k not in ("command", "modes_command", "run")
                       and v is not None}
        results, refs, warnings = args.run(args)
    except _HelpShown as exc:
        return EXIT_OK, str(exc)
    except _CAUGHT as exc:
        code, kind = _failure(exc)
        if kind is None:
            return code, f"usage error: {exc}\n"
        doc = {"command": argv[:], "error": str(exc), "kind": kind}
        return code, json.dumps(doc, indent=2, sort_keys=True) + "\n"
    doc = {
        "command": args.command if args.command != "modes"
        else "modes solve",
        "inputs": inputs_note,
        "results": results,
        "provenance": {"paper_refs": refs},
        "warnings": warnings,
    }
    text = _render(doc, args.format)
    if args.output:
        try:
            _atomic_write(args.output, text)
        except OSError as exc:
            return EXIT_USAGE, f"usage error: cannot write --output: {exc}\n"
    return EXIT_OK, text


def main(argv=None) -> int:
    code, text = cli_dispatch(sys.argv[1:] if argv is None else argv)
    if code == EXIT_OK:
        sys.stdout.write(text)
    else:
        sys.stderr.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
